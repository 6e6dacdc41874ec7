"""EXP-B6: the calibrated autoscheduler against hand-picked plans.

PR 5's benchmarks showed the execution knobs' crossovers are workload-
and host-dependent: one fused numba process beats a numpy pool on some
family × size cells and loses badly on others.  This experiment closes
the loop — it races ``plan="auto"`` (the cost-model choice of
:mod:`repro.sched`) against the full set of *hand-picked* plans a
careful user could write, on every family × ensemble-size cell:

* ``numpy single`` — one vectorised process (the bitwise reference);
* ``numpy sharded xK`` — K fused numpy workers (hosts with > 1 CPU);
* ``numba single`` — one compiled process (when numba is registered);
* ``numba threaded xT`` — one process, T prange lane threads (when
  numba is registered and the host can pin > 1 thread).

Every plan runs through the **same** entry point
(``run_sharded(..., plan=...)``), so what is measured is exactly what a
caller gets, and every run is cold (the default pool forked afresh), as
the planner prices it.  Per cell the table reports each plan's
best-of-repeats wall time, the auto plan's choice and its ratio to the
best hand plan (the acceptance bar: within 1.2x everywhere), and the
cell's spread (worst/best — the cost of guessing wrong, >= 2x
somewhere on real hosts).  Correctness rides along: exact-backend plans
must reassemble bitwise against the reference; JIT plans hold the
backend's rtol tier.

``benchmarks/test_bench_planner.py`` asserts the two acceptance bars at
benchmark sizes (skipping hosts with < 4 real cores, where there is no
meaningful plan space); the tier-1 smoke test runs a tiny geometry and
checks structure and correctness only — single-CPU CI timing is noise.
"""

from __future__ import annotations

import time

from repro.backend import (
    get_backend,
    has_threading,
    list_backends,
    max_threads,
)
from repro.experiments.backend_fused import (
    bitwise_equal_lanes,
    max_relative_deviation,
)
from repro.experiments.registry import ExperimentResult, register
from repro.io.table import TextTable
from repro.models.registry import list_families
from repro.parallel import available_cpus, resolve_workers, run_sharded
from repro.parallel.pool import close_default_pool
from repro.parallel.spec import EnsembleSpec
from repro.scenarios import scenario_samples
from repro.sched import ExecutionPlan, plan_for, run_calibration

EXPERIMENT_ID = "EXP-B6"
TITLE = "Calibrated autoscheduler: auto plans vs hand-picked plans"


def hand_plans() -> "dict[str, ExecutionPlan]":
    """The hand-picked plan set a careful user could write on this
    host: the extreme points of the candidate space the planner
    searches.  Keyed by a stable label for the results table."""
    plans = {"numpy single": ExecutionPlan(backend="numpy", n_workers=1)}
    workers = resolve_workers(None)
    if workers > 1:
        plans[f"numpy sharded x{workers}"] = ExecutionPlan(
            backend="numpy", n_workers=workers
        )
    if any(backend.name == "numba" for backend in list_backends()):
        plans["numba single"] = ExecutionPlan(backend="numba", n_workers=1)
        threads = min(available_cpus(), max_threads())
        if has_threading() and threads > 1:
            plans[f"numba threaded x{threads}"] = ExecutionPlan(
                backend="numba", n_workers=1, threads_per_worker=threads
            )
    return plans


def _shape(plan: ExecutionPlan) -> tuple:
    return (plan.backend, plan.n_workers, plan.threads_per_worker)


def _timed_run(spec: EnsembleSpec, h, plan: ExecutionPlan, repeats: int):
    """Best-of-repeats wall time of ``run_sharded(spec, h, plan=plan)``
    (one untimed warm-up on JIT backends), plus the last result.  Every
    repeat is cold, as the planner prices it: the default pool is closed
    before it, outside the timing, so a pooled plan forks inside it."""
    if not get_backend(plan.backend).exact:
        run_sharded(spec, h, plan=plan)
    seconds, result = [], None
    for _ in range(max(1, repeats)):
        close_default_pool()
        start = time.perf_counter()
        result = run_sharded(spec, h, plan=plan)
        seconds.append(time.perf_counter() - start)
    return min(seconds), result


@register(EXPERIMENT_ID, TITLE)
def run(
    sizes: tuple = (32, 256),
    driver_step_ratio: float = 0.04,
    repeats: int = 2,
    seed: int = 2006,
    probe_lanes: tuple = (4, 16, 64),
    probe_samples: tuple = (64, 256),
    probe_repeats: int = 1,
) -> ExperimentResult:
    """Race every hand plan and the auto plan on each family × size.

    ``driver_step_ratio`` scales each family's ladder drive step as a
    fraction of its ``h_scale`` (same sample count across families);
    the ``probe_*`` knobs set the in-process calibration budget, so the
    tier-1 smoke run can shrink everything.
    """
    calibration = run_calibration(
        lanes=probe_lanes, samples=probe_samples, repeats=probe_repeats
    )
    plans = hand_plans()

    rows: list[dict] = []
    cells: dict = {}
    for family in list_families():
        step = family.h_scale * driver_step_ratio
        h = scenario_samples("minor-loop-ladder", family.h_scale, step)
        for n_cores in sizes:
            spec = EnsembleSpec(family=family.name, n_cores=n_cores, seed=seed)
            reference = None
            measured: dict[tuple, tuple] = {}
            for label, plan in plans.items():
                seconds, result = _timed_run(spec, h, plan, repeats)
                measured[_shape(plan)] = (label, seconds)
                backend = get_backend(plan.backend)
                if label == "numpy single":
                    reference = result
                if backend.exact:
                    equivalence = (
                        "bitwise "
                        f"{bitwise_equal_lanes(reference, result)}/{n_cores}"
                    )
                    exact_ok = (
                        bitwise_equal_lanes(reference, result) == n_cores
                    )
                else:
                    deviation = max_relative_deviation(reference, result)
                    exact_ok = deviation <= backend.rtol
                    equivalence = (
                        f"max rel dev {deviation:.2e} "
                        f"({'within' if exact_ok else 'OUTSIDE'} "
                        f"rtol {backend.rtol:g})"
                    )
                rows.append(
                    {
                        "family": family.name,
                        "n_cores": n_cores,
                        "plan": label,
                        "backend": plan.backend,
                        "workers": plan.n_workers,
                        "threads": plan.threads_per_worker,
                        "seconds": seconds,
                        "equivalence": equivalence,
                        "equivalence_ok": bool(exact_ok),
                        "auto": False,
                    }
                )

            auto_plan = plan_for(
                spec, samples=len(h), calibration=calibration
            )
            if _shape(auto_plan) in measured:
                picked_label, auto_seconds = measured[_shape(auto_plan)]
            else:
                picked_label = auto_plan.describe()
                auto_seconds, _ = _timed_run(spec, h, auto_plan, repeats)

            hand_seconds = {
                label: seconds for label, seconds in measured.values()
            }
            best_label = min(hand_seconds, key=hand_seconds.get)
            worst_label = max(hand_seconds, key=hand_seconds.get)
            best = hand_seconds[best_label]
            worst = hand_seconds[worst_label]
            cells[(family.name, n_cores)] = {
                "auto_picked": picked_label,
                "auto_seconds": auto_seconds,
                "best_plan": best_label,
                "best_seconds": best,
                "worst_plan": worst_label,
                "worst_seconds": worst,
                "auto_vs_best": auto_seconds / max(best, 1e-12),
                "spread": worst / max(best, 1e-12),
            }
            rows.append(
                {
                    "family": family.name,
                    "n_cores": n_cores,
                    "plan": f"auto -> {picked_label}",
                    "backend": auto_plan.backend,
                    "workers": auto_plan.n_workers,
                    "threads": auto_plan.threads_per_worker,
                    "seconds": auto_seconds,
                    "equivalence": (
                        f"{auto_seconds / max(best, 1e-12):.2f}x of best "
                        f"hand plan ({best_label})"
                    ),
                    "equivalence_ok": True,
                    "auto": True,
                }
            )

    table = TextTable(
        [
            "family",
            "cores",
            "plan",
            "backend",
            "workers",
            "threads",
            "seconds",
            "equivalence / vs best",
        ],
        title=(
            f"hand plans vs plan='auto', calibration "
            f"{calibration.calibration_id} "
            f"({len(calibration.probes)} probes), "
            f"{available_cpus()} CPU(s)"
        ),
    )
    for row in rows:
        table.add_row(
            row["family"],
            row["n_cores"],
            row["plan"],
            row["backend"],
            row["workers"],
            row["threads"],
            row["seconds"],
            row["equivalence"],
        )

    result = ExperimentResult(experiment_id=EXPERIMENT_ID, title=TITLE)
    result.tables = [table]
    worst_auto = max(cell["auto_vs_best"] for cell in cells.values())
    best_spread = max(cell["spread"] for cell in cells.values())
    result.notes = [
        f"calibration {calibration.calibration_id}: "
        f"{len(calibration.probes)} probes over backends "
        f"{', '.join(calibration.backends)}, pool base "
        f"{calibration.pool['base_seconds']:.3f} s + "
        f"{calibration.pool['per_worker_seconds']:.3f} s/worker",
        f"hand plan set: {', '.join(plans)} — the extreme points of the "
        "planner's candidate space, each run through "
        "run_sharded(..., plan=...)",
        f"worst auto-vs-best ratio across cells: {worst_auto:.2f}x "
        "(acceptance bar: <= 1.2x on benchmark hosts)",
        f"largest cell spread (worst/best hand plan): {best_spread:.2f}x "
        "— the cost of hand-picking wrong (>= 2x somewhere on multi-core "
        "hosts is what makes planning worth it)",
        "exact-backend plans reassemble bitwise against the numpy single "
        "reference; JIT plans hold the backend rtol tier (threading is "
        "lane-major: bitwise against the same backend's sequential run)",
    ]
    result.data = {
        "rows": rows,
        "cells": {
            f"{family}@{n_cores}": cell
            for (family, n_cores), cell in cells.items()
        },
        "sizes": list(sizes),
        "plans": list(plans),
        "calibration_id": calibration.calibration_id,
        "cpus": available_cpus(),
        "worst_auto_vs_best": worst_auto,
        "max_spread": best_spread,
        "backends": [b.name for b in list_backends()],
    }
    return result
