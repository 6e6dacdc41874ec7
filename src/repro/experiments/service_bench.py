"""EXP-B7: the warm-pool service against cold-pool execution.

PR 6's planner made one run cheap to configure; this experiment
measures what the *service layer* adds on top for the many-run shape
real campaigns have:

* **cold vs warm submission** — the same workload through
  ``run_sharded(..., n_workers=...)`` with the process-wide default
  pool closed before each call (so every call forks a fresh pool and
  re-pays the calibration's ``pool_base`` and, on JIT backends, the
  kernel pre-compilation) and through a live
  :class:`~repro.service.api.HysteresisService` (one pre-warmed pool,
  reused);
* **cache miss vs hit** — the first request for a digest computes and
  inserts; every repeat is served the frozen cached result, so the hit
  path costs a digest plus a dictionary lookup;
* **repeated grid** — the same scenario grid twice through
  ``run_scenario_grid(..., service=...)``: pass 1 computes every
  unique cell, pass 2 is served entirely from the cache.  The pass-2
  speedup is the headline number (``benchmarks/test_bench_service.py``
  asserts >= 5x on benchmark hosts).

Correctness rides along: the warm-pool result must be bitwise equal to
the cold-pool result on the exact backend (the digest/caching
design leans on exactly this — PRs 3 and 6 pinned sharded and threaded
execution to the single-process reference, so any plan can serve any
hit).
"""

from __future__ import annotations

import numpy as np

from repro.backend import list_backends, resolve_backend
from repro.experiments.registry import ExperimentResult, register
from repro.experiments.runner import measure
from repro.io.table import TextTable
from repro.models.registry import list_families
from repro.parallel import available_cpus, resolve_workers, run_sharded
from repro.parallel.grid import run_scenario_grid
from repro.parallel.pool import close_default_pool
from repro.parallel.spec import DriveSpec, EnsembleSpec

EXPERIMENT_ID = "EXP-B7"
TITLE = "Warm-pool service: submission latency and cache throughput"


@register(EXPERIMENT_ID, TITLE)
def run(
    n_cores: int = 64,
    driver_step_ratio: float = 0.04,
    repeats: int = 3,
    seed: int = 2006,
    scenario: str = "major-loop",
    grid_scenarios: tuple = ("major-loop", "harmonic"),
    grid_h_max_ratios: tuple = (1.0, 0.75, 0.5, 0.25),
    hit_requests: int = 32,
) -> ExperimentResult:
    """Measure submission latency and cache throughput.

    ``n_cores`` sizes both the single-request workload and every grid
    cell; the grid spans every registered family × ``grid_scenarios`` ×
    amplitude ladder.  The drive step (and the shared grid amplitudes)
    scale from the smallest registered ``h_scale`` so one absolute
    ladder suits every family.
    """
    from repro.service import HysteresisService

    workers = resolve_workers(None)
    families = list_families()
    base_scale = min(family.h_scale for family in families)
    step = float(base_scale * driver_step_ratio)
    family = families[0]
    spec = EnsembleSpec(family=family.name, n_cores=n_cores, seed=seed)
    drive = DriveSpec(
        scenario=scenario, h_max=float(family.h_scale), driver_step=step
    )

    # -- cold submissions: a freshly forked default pool per call -----
    def cold():
        close_default_pool()
        return run_sharded(
            spec,
            scenario=scenario,
            h_max=float(family.h_scale),
            driver_step=step,
            n_workers=workers,
        )

    cold_samples, cold_result = measure(cold, repeats)
    cold_seconds = min(cold_samples)
    close_default_pool()

    rows: list[dict] = []
    with HysteresisService(workers) as service:
        # -- warm submissions: same workload, live pre-warmed pool -----
        # (the cache is cleared per repeat so every timing is a real
        # compute, not a hit)
        def warm():
            service.cache.clear()
            return service.run(spec, drive)

        warm_samples, warm_result = measure(warm, repeats)
        warm_seconds = min(warm_samples)
        service.cache.clear()  # the miss timing must be a real miss
        miss_seconds = min(measure(lambda: service.run(spec, drive), 1)[0])

        # -- cache hits: every repeat after the first is served --------
        hit_total = min(measure(
            lambda: [service.run(spec, drive) for _ in range(hit_requests)],
            1,
        )[0])
        hit_seconds = hit_total / hit_requests

        # -- the repeated grid ----------------------------------------
        grid_families = [f.name for f in families]
        h_values = [float(base_scale * r) for r in grid_h_max_ratios]

        def grid_pass():
            return run_scenario_grid(
                grid_families,
                list(grid_scenarios),
                h_values,
                n_cores,
                seed=seed,
                driver_step=step,
                service=service,
            )

        service.cache.clear()
        pass1_samples, cells1 = measure(grid_pass, 1)
        pass2_samples, cells2 = measure(grid_pass, 1)
        pass1_seconds, pass2_seconds = min(pass1_samples), min(pass2_samples)
        stats = service.cache.stats

    exact = resolve_backend(None).exact
    warm_matches_cold = bool(
        np.array_equal(warm_result.m, cold_result.m)
        and np.array_equal(warm_result.b, cold_result.b)
    )
    pass2_matches = all(
        np.array_equal(c1.result.m, c2.result.m)
        for c1, c2 in zip(cells1, cells2)
    )
    grid_cells = len(cells1)
    speedup = pass1_seconds / max(pass2_seconds, 1e-12)

    rows = [
        {"op": "cold_submit", "n": n_cores, "seconds": cold_seconds},
        {"op": "warm_submit", "n": n_cores, "seconds": warm_seconds},
        {"op": "cache_miss", "n": n_cores, "seconds": miss_seconds},
        {"op": "cache_hit", "n": n_cores, "seconds": hit_seconds},
        {"op": "grid_pass1", "n": grid_cells, "seconds": pass1_seconds},
        {"op": "grid_pass2", "n": grid_cells, "seconds": pass2_seconds},
    ]
    table = TextTable(
        ["operation", "n", "seconds", "note"],
        title=(
            f"warm-pool service vs cold-pool execution, "
            f"{workers} worker(s), {available_cpus()} CPU(s)"
        ),
    )
    notes_per_op = {
        "cold_submit": "run_sharded, default pool re-forked per call",
        "warm_submit": "HysteresisService.run: live pool, cache cleared",
        "cache_miss": "first request for a digest (compute + insert)",
        "cache_hit": f"per request, {hit_requests} repeats",
        "grid_pass1": "run_scenario_grid(service=...), cold cache",
        "grid_pass2": f"same grid again, all hits ({speedup:.1f}x)",
    }
    for row in rows:
        table.add_row(
            row["op"], row["n"], row["seconds"], notes_per_op[row["op"]]
        )

    result = ExperimentResult(experiment_id=EXPERIMENT_ID, title=TITLE)
    result.tables = [table]
    result.notes = [
        f"cold/warm submission ratio: {cold_seconds / max(warm_seconds, 1e-12):.2f}x "
        "(the spin-up a persistent pool stops re-paying)",
        f"cache miss/hit ratio: {miss_seconds / max(hit_seconds, 1e-12):.1f}x "
        "(a hit is a digest plus a dictionary lookup)",
        f"repeated grid: pass 1 {pass1_seconds:.3f}s, pass 2 "
        f"{pass2_seconds:.3f}s — {speedup:.1f}x (acceptance bar: >= 5x "
        "on benchmark hosts)",
        "warm-pool result "
        + ("bitwise equal" if warm_matches_cold else "NOT EQUAL")
        + " to the cold-pool result"
        + ("" if exact else " (JIT backend: rtol tier applies)"),
        "cache keys cover (family, n_cores, seed, backend, drive) — "
        "never pool width or threads: PRs 3/6 pinned every execution "
        "shape to the same bits, so any plan serves any hit",
    ]
    result.data = {
        "rows": rows,
        "workers": workers,
        "cpus": available_cpus(),
        "backends": [b.name for b in list_backends()],
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "submit_ratio": cold_seconds / max(warm_seconds, 1e-12),
        "miss_seconds": miss_seconds,
        "hit_seconds": hit_seconds,
        "hit_requests": hit_requests,
        "grid_cells": grid_cells,
        "grid_unique": stats["entries"],
        "pass1_seconds": pass1_seconds,
        "pass2_seconds": pass2_seconds,
        "grid_speedup": speedup,
        "warm_matches_cold": warm_matches_cold,
        "pass2_matches_pass1": bool(pass2_matches),
        "cache_stats": stats,
    }
    return result
