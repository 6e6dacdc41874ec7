"""EXP-B3 bench: sharded multi-process throughput vs single-process.

The scaling twin of ``test_bench_batch.py``/``test_bench_preisach.py``:
N = 512 heterogeneous Preisach cores (the heaviest per-sample tensor)
driven through the minor-loop-ladder scenario, the sharded pool
executor against the in-process ``run_batch_series`` it splits up —
bitwise-identical reassembly always asserted, and >= 2x throughput
asserted when the host actually grants >= 4 workers (fewer cores, or a
``REPRO_PARALLEL_MAX_WORKERS`` cap below 4, skip the speedup claim
gracefully rather than timing an oversubscribed pool).  Also runs the
EXP-B3 experiment end-to-end, which covers every family's sharded
equivalence at an uneven split, and every stacked cell's equality with
its run alone.
"""

import numpy as np
import pytest

from repro.batch.preisach import BatchPreisachModel
from repro.batch.sweep import run_batch_series
from repro.experiments import run_experiment
from repro.experiments.batch_families import make_preisach_ensemble
from repro.experiments.parallel_ensemble import bitwise_equal_lanes
from repro.experiments.runner import measure, results_header
from repro.parallel import available_cpus, resolve_workers, run_sharded
from repro.scenarios import scenario_samples

N_CORES = 512
N_CELLS = 24
H_MAX = 10e3
DRIVER_STEP = 400.0
REQUIRED_WORKERS = 4


def _workload():
    models = make_preisach_ensemble(N_CORES, n_cells=N_CELLS)
    batch = BatchPreisachModel.from_scalar_models(models)
    h = scenario_samples("minor-loop-ladder", H_MAX, DRIVER_STEP)
    return batch, h


def test_sharded_speedup_over_single_process(benchmark, results_dir, bench_json):
    """The acceptance headline: >= 2x over single-process at N = 512
    with >= 4 workers.  Smaller hosts still measure at whatever width
    they grant and land ``results/BENCH-EXP-B3.json`` — only the 2x
    *assertion* skips, so every host leaves an honest trajectory."""
    workers = resolve_workers(min(REQUIRED_WORKERS, available_cpus()))
    batch, h = _workload()

    result = benchmark.pedantic(
        lambda: run_sharded(batch, h, n_workers=workers),
        rounds=3,
        iterations=1,
    )
    sharded_seconds = benchmark.stats.stats.min

    (single_seconds,), single = measure(lambda: run_batch_series(batch, h), 1)

    speedup = single_seconds / sharded_seconds
    throughput = N_CORES * len(h) / sharded_seconds
    report = (
        f"sharded preisach: {sharded_seconds:.3f} s on {workers} workers, "
        f"single-process: {single_seconds:.3f} s -> {speedup:.1f}x "
        f"speedup, {throughput:.3e} core-steps/s at N = {N_CORES}"
    )
    print("\n" + report)
    (results_dir / "EXP-B3_bench.txt").write_text(
        results_header(backend=batch.backend.name, workers=workers)
        + report
        + "\n"
    )
    bench_json(
        "EXP-B3",
        [
            {"op": "sharded", "n": N_CORES, "seconds": sharded_seconds},
            {"op": "single", "n": N_CORES, "seconds": single_seconds},
        ],
        backend=batch.backend.name,
        workers=workers,
    )

    # Bitwise equivalence of what was just timed (not a tolerance).
    assert bitwise_equal_lanes(single, result) == N_CORES
    if workers < REQUIRED_WORKERS:
        pytest.skip(
            f"measured and recorded at {workers} worker(s), but the 2x "
            f"claim needs >= {REQUIRED_WORKERS} real workers "
            f"({available_cpus()} CPUs, REPRO_PARALLEL_MAX_WORKERS cap)"
        )
    assert speedup >= 2.0, report


def test_sharded_reassembly_is_bitwise_at_n512(results_dir):
    """Whatever the host width, the N = 512 reassembly is exact."""
    batch, h = _workload()
    single = run_batch_series(batch, h)
    sharded = run_sharded(batch, h, n_workers=resolve_workers(None))
    assert np.array_equal(single.h, sharded.h)
    assert bitwise_equal_lanes(single, sharded) == N_CORES
    assert sorted(single.counters) == sorted(sharded.counters)


def test_parallel_ensemble_experiment(benchmark, persist):
    """EXP-B3 end-to-end (covers every family's sharded equivalence)."""
    result = benchmark.pedantic(
        lambda: run_experiment("EXP-B3"),
        rounds=1,
        iterations=1,
    )
    persist(result)
    print()
    print(result.render())
    for row in result.data["equivalence"]:
        assert row["equal_lanes"] == row["n_cores"], row["family"]
    assert result.data["equal_lanes"] == result.data["n_cores"]
    # Every stacked cell is bitwise its run alone.
    for row in result.data["stacking"]:
        assert row["equal_cells"] == row["cells"], row["family"]
