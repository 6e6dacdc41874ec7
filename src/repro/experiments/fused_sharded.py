"""EXP-B5: fused × sharded composition — compiled shards across a pool.

PR 4 made every batch engine's sweep *fused* (one ``step_series`` call
per series) and PR 5 gave the numba backend a compiled driver for
**every** registered family; the sharded executor of PR 3 runs each
shard through the same fused path internally.  This experiment measures
how the two layers compose, per family × registered backend:

1. **single fused process** — ``run_batch_series`` on one core: the
   numpy row is the bitwise reference, the numba row (when registered)
   is the compiled whole-recurrence loop;
2. **sharded fused × K workers** — ``run_sharded`` over a process
   pool, every worker running the fused path of the row's backend.

The interesting question is the **crossover**: a compiled numba loop
on one core competes directly with K vectorised numpy workers — for
per-sample work light enough (the timeless map), one JIT process can
beat a small pool; for heavy relay tensors the pool wins.  The
crossover note names the winner per family at the measured geometry.

Equivalence is tiered exactly like the conformance suite: rows on the
exact numpy backend are bitwise against the reference (sharding is a
transport optimisation, fusion strips dispatch — neither moves a bit);
numba rows hold the backend's rtol with threshold-decision counters
(``euler_steps``/``switch_events``/``steps``) exact.

``benchmarks/test_bench_fused_sharded.py`` asserts the headline
(sharded fused >= 2x over single fused at N = 512 with >= 4 real
workers) and regenerates this table into ``results/EXP-B5.txt`` with
the backend and worker count stamped in the header.
"""

from __future__ import annotations

from repro.backend import list_backends
from repro.batch.sweep import run_batch_series
from repro.experiments.backend_fused import (
    bitwise_equal_lanes,
    max_relative_deviation,
)
from repro.experiments.registry import ExperimentResult, register
from repro.experiments.runner import measure
from repro.io.table import TextTable
from repro.models.registry import list_families
from repro.parallel import available_cpus, resolve_workers, run_sharded
from repro.parallel.pool import close_default_pool
from repro.scenarios import scenario_samples


def _equivalence(reference, candidate, backend, n_cores: int) -> str:
    """One equivalence cell: bitwise lane count on the exact tier, max
    relative deviation against the declared rtol on the JIT tier."""
    if backend.exact:
        return f"bitwise {bitwise_equal_lanes(reference, candidate)}/{n_cores}"
    deviation = max_relative_deviation(reference, candidate)
    within = deviation <= backend.rtol
    return (
        f"max rel dev {deviation:.2e} "
        f"({'within' if within else 'OUTSIDE'} rtol {backend.rtol:g})"
    )


@register("EXP-B5", "Fused x sharded composition: compiled shards across a pool")
def run(
    n_cores: int = 256,
    h_max: float = 10e3,
    driver_step: float = 400.0,
    n_workers: int | None = None,
    seed: int = 2006,
) -> ExperimentResult:
    workers = resolve_workers(n_workers)
    backends = list_backends()

    rows: list[dict] = []
    crossover: dict[str, dict] = {}
    samples_per_family: dict[str, int] = {}
    for family in list_families():
        # Scale the shared ladder drive to the family's amplitude while
        # keeping the sample count identical across families.
        step = family.h_scale * (driver_step / h_max)
        h = scenario_samples("minor-loop-ladder", family.h_scale, step)
        samples_per_family[family.name] = len(h)

        # The numpy reference must exist before any other backend's
        # rows are scored (list_backends() sorts alphabetically, which
        # puts "numba" first when registered), so run it up front and
        # iterate the reference backend first.  Construction stays
        # outside the timing: the first preisach make_batch pays the
        # (cached) Everett identification.
        reference_batch = family.make_batch(n_cores, seed, backend="numpy")
        (base_seconds,), reference = measure(
            lambda: run_batch_series(reference_batch, h), 1
        )

        timings: dict[tuple[str, str], float] = {}
        ordered = sorted(backends, key=lambda b: b.name != "numpy")
        for backend in ordered:
            if backend.name == "numpy":
                single, single_seconds = reference, base_seconds
            else:
                batch = family.make_batch(
                    n_cores, seed, backend=backend.name
                )
                # JIT backends: one untimed warm-up run first.
                (single_seconds,), single = measure(
                    lambda: run_batch_series(batch, h), 1,
                    warmup=0 if backend.exact else 1,
                )
            timings[(backend.name, "single")] = single_seconds

            sharded_batch = family.make_batch(
                n_cores, seed, backend=backend.name
            )
            # Every sharded row is cold: the default pool forks (and
            # its workers start) inside the timing.
            close_default_pool()
            (sharded_seconds,), sharded = measure(
                lambda: run_sharded(sharded_batch, h, n_workers=workers), 1
            )
            timings[(backend.name, "sharded")] = sharded_seconds

            for mode, result, seconds in (
                ("single fused", single, single_seconds),
                (f"sharded fused x {workers}", sharded, sharded_seconds),
            ):
                rows.append(
                    {
                        "family": family.name,
                        "backend": backend.name,
                        "mode": mode,
                        "driver": "compiled"
                        if backend.fused_driver(family.name) is not None
                        else "vectorised xp loop",
                        "seconds": seconds,
                        "speedup": base_seconds / max(seconds, 1e-12),
                        "equivalence": _equivalence(
                            reference, result, backend, n_cores
                        ),
                        "equal_lanes": bitwise_equal_lanes(reference, result)
                        if backend.exact
                        else None,
                    }
                )

        if ("numba", "single") in timings:
            jit_single = timings[("numba", "single")]
            pool_numpy = timings[("numpy", "sharded")]
            crossover[family.name] = {
                "numba_single_seconds": jit_single,
                "numpy_sharded_seconds": pool_numpy,
                "winner": "one fused numba process"
                if jit_single <= pool_numpy
                else f"{workers} fused numpy workers",
                "ratio": pool_numpy / max(jit_single, 1e-12),
            }

    table = TextTable(
        [
            "family",
            "backend",
            "sweep path",
            "fused driver",
            "seconds",
            "speedup",
            "equivalence vs numpy single fused",
        ],
        title=(
            f"{n_cores} cores, minor-loop-ladder scaled per family, "
            f"{workers} worker(s) for the sharded rows"
        ),
    )
    for row in rows:
        table.add_row(
            row["family"],
            row["backend"],
            row["mode"],
            row["driver"],
            row["seconds"],
            f"{row['speedup']:.1f}x",
            row["equivalence"],
        )

    result = ExperimentResult(
        experiment_id="EXP-B5",
        title="Fused x sharded composition: compiled shards across a pool",
    )
    result.tables = [table]
    result.notes = [
        f"workers: {workers} (host exposes {available_cpus()} CPU(s); "
        "REPRO_PARALLEL_MAX_WORKERS caps the pool) — speedups are "
        "relative to each family's single-process fused numpy run",
        "registered backends: "
        + ", ".join(
            f"{b.name} (fused drivers: "
            + (", ".join(b.fused_families) if b.fused_families else "none")
            + ")"
            for b in backends
        ),
        "sharded rows compose both layers: every pool worker drives its "
        "lane shard through the fused step_series path of the row's "
        "backend (shard payloads pin the parent's backend); each row "
        "forks a fresh default pool inside its timing",
        "every pool forks, whatever the interpreter's default start "
        "method, so its workers inherit the parent's warmed JIT kernels "
        "(the drivers compile once per process, on purpose: no on-disk "
        "numba cache)",
    ]
    if crossover:
        for name, data in crossover.items():
            result.notes.append(
                f"crossover [{name}]: one fused numba process "
                f"{data['numba_single_seconds']:.3f} s vs "
                f"{workers} fused numpy workers "
                f"{data['numpy_sharded_seconds']:.3f} s -> "
                f"{data['winner']}"
            )
    else:
        result.notes.append(
            "numba not registered on this host: the crossover against "
            "'one fused numba process' needs the numba CI leg (or a "
            "local numba install)"
        )
    result.data = {
        "rows": rows,
        "workers": workers,
        "n_cores": n_cores,
        "samples": samples_per_family,
        "backends": [b.name for b in backends],
        "fused_families": {b.name: list(b.fused_families) for b in backends},
        "crossover": crossover,
    }
    return result
