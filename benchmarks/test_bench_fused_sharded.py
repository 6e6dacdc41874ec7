"""EXP-B5 bench: fused × sharded composition across a worker pool.

The composition twin of ``test_bench_parallel.py`` (sharding) and
``test_bench_backend.py`` (fusion): N = 512 heterogeneous Preisach
cores — the heaviest per-sample tensor, and since PR 5 a family with a
compiled numba driver — driven through the minor-loop-ladder scenario,
fused shards across a pool against the single-process fused sweep they
split up.  Bitwise reassembly always asserted on the numpy backend;
>= 2x throughput asserted only when the host grants >= 4 real workers
(smaller hosts, or a ``REPRO_PARALLEL_MAX_WORKERS`` cap below 4, skip
the speedup claim gracefully, exactly like the sharded bench).  The
numba leg records the ROADMAP's crossover — one fused numba process vs
K fused numpy workers — and skips (not fails) when numba is absent.
Also regenerates EXP-B5 end to end into ``results/EXP-B5.txt`` with
the backend and worker count stamped in the header.
"""

import numpy as np
import pytest

from repro.backend import get_backend, list_backends
from repro.batch.preisach import BatchPreisachModel
from repro.batch.sweep import run_batch_series
from repro.experiments import run_experiment
from repro.experiments.backend_fused import max_relative_deviation
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


def _workload(backend: str = "numpy"):
    models = make_preisach_ensemble(N_CORES, n_cells=N_CELLS)
    batch = BatchPreisachModel.from_scalar_models(models).use_backend(backend)
    h = scenario_samples("minor-loop-ladder", H_MAX, DRIVER_STEP)
    return batch, h


def _header(workers: int, backend: str) -> str:
    """Results-file header naming what was actually measured — the
    workload's own backend, not whatever ``REPRO_BACKEND`` happens to
    resolve to in the invoking shell."""
    return results_header(backend=backend, workers=workers)


def test_fused_sharded_speedup(benchmark, results_dir, bench_json):
    """The acceptance headline: fused shards across >= 4 real workers
    beat the single-process fused sweep >= 2x at N = 512.  Smaller
    hosts still measure and land ``results/BENCH-EXP-B5.json`` — only
    the 2x *assertion* skips."""
    workers = resolve_workers(min(REQUIRED_WORKERS, available_cpus()))
    batch, h = _workload()

    result = benchmark.pedantic(
        lambda: run_sharded(batch, h, n_workers=workers),
        rounds=3,
        iterations=1,
    )
    sharded_seconds = benchmark.stats.stats.min

    # The fused path, by default.
    (single_seconds,), single = measure(lambda: run_batch_series(batch, h), 1)

    speedup = single_seconds / sharded_seconds
    throughput = N_CORES * len(h) / sharded_seconds
    report = (
        f"fused sharded preisach: {sharded_seconds:.3f} s on {workers} "
        f"fused workers, single fused process: {single_seconds:.3f} s -> "
        f"{speedup:.1f}x speedup, {throughput:.3e} core-steps/s at "
        f"N = {N_CORES}"
    )
    print("\n" + report)
    (results_dir / "EXP-B5_bench.txt").write_text(
        _header(workers, batch.backend.name) + report + "\n"
    )
    bench_json(
        "EXP-B5",
        [
            {"op": "fused_sharded", "n": N_CORES, "seconds": sharded_seconds},
            {"op": "fused_single", "n": N_CORES, "seconds": single_seconds},
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


def test_numba_crossover_one_process_vs_pool(results_dir):
    """The ROADMAP crossover: one fused numba process against K fused
    numpy workers.  Skipped (not failed) when numba is not installed,
    matching the backend bench's skip pattern; no winner is asserted —
    the point is an honest record of where the crossover sits on this
    host — but both sides must hold their equivalence tier."""
    names = {backend.name for backend in list_backends()}
    if "numba" not in names:
        pytest.skip(
            "numba not installed; the numba CI leg installs it and "
            "records this crossover"
        )
    backend = get_backend("numba")
    workers = resolve_workers(None)

    numba_batch, h = _workload(backend="numba")
    # One JIT warm-up run outside the timing.
    (jit_seconds,), jit_single = measure(
        lambda: run_batch_series(numba_batch, h), 1, warmup=1
    )

    numpy_batch, _ = _workload(backend="numpy")
    (pool_seconds,), pool_sharded = measure(
        lambda: run_sharded(numpy_batch, h, n_workers=workers), 1
    )

    reference = run_batch_series(numpy_batch, h)
    deviation = max_relative_deviation(reference, jit_single)
    winner = (
        "one fused numba process"
        if jit_seconds <= pool_seconds
        else f"{workers} fused numpy workers"
    )
    report = (
        f"one fused numba process: {jit_seconds:.3f} s vs {workers} fused "
        f"numpy workers: {pool_seconds:.3f} s -> {winner} "
        f"(jit max rel dev {deviation:.2e}, rtol {backend.rtol:g})"
    )
    print("\n" + report)
    (results_dir / "EXP-B5_numba_bench.txt").write_text(
        _header(workers, "numba (single) vs numpy (sharded)") + report + "\n"
    )

    # Switching decisions are exact across backends; trajectories hold
    # the JIT tier; the pooled numpy side is bitwise.
    assert np.array_equal(reference.updated, jit_single.updated)
    assert np.array_equal(
        reference.counters["switch_events"],
        jit_single.counters["switch_events"],
    )
    assert deviation <= backend.rtol, report
    assert bitwise_equal_lanes(reference, pool_sharded) == N_CORES


def test_fused_sharded_experiment(benchmark, results_dir):
    """EXP-B5 end-to-end (covers every family × backend × mode row)."""
    result = benchmark.pedantic(
        lambda: run_experiment("EXP-B5"),
        rounds=1,
        iterations=1,
    )
    (results_dir / "EXP-B5.txt").write_text(
        _header(
            result.data["workers"], ", ".join(result.data["backends"])
        )
        + result.render()
        + "\n"
    )
    print()
    print(result.render())
    for row in result.data["rows"]:
        if row["equal_lanes"] is not None:
            assert row["equal_lanes"] == result.data["n_cores"], row
    # Every registered backend contributed both composition modes per
    # family; the numba leg additionally records the crossover.
    modes = {(r["family"], r["backend"], r["mode"]) for r in result.data["rows"]}
    assert len(modes) == len(result.data["rows"])
    if "numba" in result.data["backends"]:
        assert set(result.data["crossover"]) == {
            "preisach",
            "time-domain",
            "timeless",
        }
