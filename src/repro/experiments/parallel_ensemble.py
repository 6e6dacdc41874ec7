"""EXP-B3: sharded multi-process ensembles — equivalence and throughput.

The EXP-B1/EXP-B2 claims, lifted one scaling level: splitting a batch
ensemble into contiguous lane shards and driving the shards on a
``multiprocessing`` pool (:mod:`repro.parallel`) changes **nothing** —
the reassembled result is bitwise identical to the single-process
``run_batch_series``, for every model family, including uneven shard
splits — while throughput scales with workers once the per-sample
vectorised work is large enough to saturate a core.

Two tables:

1. **equivalence** — each registry family at N = 7 lanes over 3 pool
   workers (deliberately uneven: 3+2+2), bitwise-compared column by
   column against the in-process executor;
2. **throughput** — a wide Preisach relay ensemble (the heaviest
   per-sample tensor, N = 512 x 24 x 24 relays by default), single
   process vs the sharded pool.  The worker count is whatever the host
   (and the ``REPRO_PARALLEL_MAX_WORKERS`` cap) allows; the recorded
   row names it, so a 1-CPU container honestly reports ~1x.
"""

from __future__ import annotations

import time

import numpy as np

from repro.batch.preisach import BatchPreisachModel
from repro.batch.sweep import BatchSweepResult, run_batch_series
from repro.experiments.batch_families import make_preisach_ensemble
from repro.experiments.registry import ExperimentResult, register
from repro.io.table import TextTable
from repro.models.registry import list_families
from repro.parallel import available_cpus, resolve_workers, run_sharded
from repro.parallel.pool import close_default_pool
from repro.scenarios import scenario_samples

#: The equivalence sweep's deliberately uneven geometry.
EQUIVALENCE_CORES = 7
EQUIVALENCE_WORKERS = 3


def bitwise_equal_lanes(a: BatchSweepResult, b: BatchSweepResult) -> int:
    """Lanes on which every recorded channel agrees bit for bit
    (NaN-aware, so deliberately diverged time-domain lanes count when
    both paths diverge identically).  Diverging channel *sets* — a key
    in one result but not the other — make no lane equal."""
    if sorted(a.extras) != sorted(b.extras) or sorted(a.counters) != sorted(
        b.counters
    ):
        return 0
    if not np.array_equal(a.h, b.h):
        return 0
    per_lane = np.ones(a.n_cores, dtype=bool)
    for x, y in ((a.m, b.m), (a.b, b.b)):
        per_lane &= np.all((x == y) | (np.isnan(x) & np.isnan(y)), axis=0)
    per_lane &= np.all(a.updated == b.updated, axis=0)
    for key in a.extras:
        x, y = a.extras[key], b.extras[key]
        per_lane &= np.all((x == y) | (np.isnan(x) & np.isnan(y)), axis=0)
    for key in a.counters:
        per_lane &= a.counters[key] == b.counters[key]
    return int(per_lane.sum())


def _equivalence_rows(h_max_step: float = 40.0) -> list[dict]:
    # Only the REPRO_PARALLEL_MAX_WORKERS cap clamps an explicit
    # request (a 1-CPU host deliberately oversubscribes this tiny
    # workload — the uneven split is the point); record what ran.
    workers = resolve_workers(EQUIVALENCE_WORKERS)
    rows = []
    for family in list_families():
        batch = family.make_batch(EQUIVALENCE_CORES, seed=3)
        h = scenario_samples(
            "forc-family",
            family.h_scale,
            family.h_scale / h_max_step,
            n_cores=EQUIVALENCE_CORES,
        )
        reference = run_batch_series(batch, h)
        sharded = run_sharded(batch, h, n_workers=workers)
        rows.append(
            {
                "family": family.name,
                "n_cores": EQUIVALENCE_CORES,
                "workers": workers,
                "samples": len(h),
                "equal_lanes": bitwise_equal_lanes(reference, sharded),
                "channels": len(sharded.extras) + len(sharded.counters) + 3,
            }
        )
    return rows


@register("EXP-B3", "Sharded ensembles: bitwise equivalence and throughput")
def run(
    n_cores: int = 512,
    n_cells: int = 24,
    h_max: float = 10e3,
    driver_step: float = 400.0,
    n_workers: int | None = None,
    seed: int = 2006,
) -> ExperimentResult:
    workers = resolve_workers(n_workers)

    equivalence_rows = _equivalence_rows()
    eq_workers = equivalence_rows[0]["workers"]
    equivalence = TextTable(
        ["family", "lanes / workers", "samples", "bitwise-equal lanes"],
        title=(
            f"sharded vs single-process (forc-family drive, uneven "
            f"{EQUIVALENCE_CORES}-lane split over {eq_workers} worker(s); "
            f"{EQUIVALENCE_WORKERS} requested)"
        ),
    )
    for row in equivalence_rows:
        equivalence.add_row(
            row["family"],
            f"{row['n_cores']} / {row['workers']}",
            row["samples"],
            f"{row['equal_lanes']}/{row['n_cores']}",
        )

    models = make_preisach_ensemble(n_cores, n_cells=n_cells, seed=seed)
    batch = BatchPreisachModel.from_scalar_models(models)
    h = scenario_samples("minor-loop-ladder", h_max, driver_step)

    start = time.perf_counter()
    single = run_batch_series(batch, h)
    single_seconds = time.perf_counter() - start

    # Cold, as a one-off run pays: the default pool forks inside the
    # timing, whatever width the equivalence rows left it at.
    close_default_pool()
    start = time.perf_counter()
    sharded = run_sharded(batch, h, n_workers=workers)
    sharded_seconds = time.perf_counter() - start

    speedup = single_seconds / max(sharded_seconds, 1e-12)
    equal = bitwise_equal_lanes(single, sharded)
    core_steps = n_cores * len(h)
    throughput = TextTable(
        [
            "workers",
            "single-process [s]",
            "sharded [s]",
            "speedup",
            "core-steps / s",
            "bitwise-equal lanes",
        ],
        title=(
            f"preisach relay tensor, {n_cores} cores x {len(h)} samples "
            f"({models[0].relay_count} relays/core, minor-loop-ladder, "
            f"step {driver_step:g} A/m)"
        ),
    )
    throughput.add_row(
        workers,
        single_seconds,
        sharded_seconds,
        f"{speedup:.2f}x",
        core_steps / max(sharded_seconds, 1e-12),
        f"{equal}/{n_cores}",
    )

    result = ExperimentResult(
        experiment_id="EXP-B3",
        title="Sharded ensembles: bitwise equivalence and throughput",
    )
    result.tables = [equivalence, throughput]
    result.notes = [
        "sharded reassembly is bitwise (h/m/b/updated, extras channels "
        "and per-core counters, lane order preserved) — shards are the "
        "same batch engines over lane slices, and every lane's "
        "computation is independent",
        f"host exposes {available_cpus()} CPU(s); the throughput row "
        f"used {workers} worker(s) — speedup scales with real cores, a "
        "1-CPU container honestly records ~1x; its sharded time includes "
        "forking a fresh default pool",
        "workers rebuild their sub-ensembles from picklable shard specs "
        "and write trajectories into shared-memory buffers; no live "
        "models or per-sample arrays cross the process boundary by "
        "pickle (only the tiny per-core counter totals do)",
    ]
    result.data = {
        "equivalence": equivalence_rows,
        "workers": workers,
        "single_seconds": single_seconds,
        "sharded_seconds": sharded_seconds,
        "speedup": speedup,
        "equal_lanes": equal,
        "n_cores": n_cores,
        "samples": len(h),
    }
    return result
