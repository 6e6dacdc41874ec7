"""EXP-B1 bench: batch-ensemble throughput vs the scalar per-model loop.

Measures cores x samples / s through the vectorised lockstep engine
against the per-model Python loop it replaces, and asserts the headline
claim of the batch subsystem: at N = 256 heterogeneous cores the batch
engine is at least an order of magnitude faster — while producing
bitwise-identical trajectories (asserted via the EXP-B1 experiment
below and, exhaustively, by ``tests/test_batch_equivalence.py``).
"""

import numpy as np

from repro.batch import BatchTimelessModel, run_batch_series
from repro.experiments import run_experiment
from repro.experiments.batch_ensemble import (
    make_ensemble,
    make_waveforms,
    run_scalar_ensemble,
)
from repro.experiments.runner import measure, results_header

N_CORES = 256
#: Coarser driver than the experiment default keeps the scalar
#: reference loop (256 serial models) inside a benchmark-friendly run
#: time; the speedup ratio is insensitive to the sample count.
DRIVER_STEP = 50.0


def _ensemble():
    params, dhmax, accept_equal = make_ensemble(N_CORES)
    h = make_waveforms(N_CORES, driver_step=DRIVER_STEP)
    return params, dhmax, accept_equal, h


def batch_ensemble_workload() -> dict[str, float]:
    params, dhmax, accept_equal, h = _ensemble()
    batch = BatchTimelessModel(params, dhmax=dhmax, accept_equal=accept_equal)
    result = run_batch_series(batch, h)
    return {
        "cores": N_CORES,
        "samples": len(result),
        "euler_steps": int(result.euler_steps.sum()),
    }


def test_batch_engine_throughput(benchmark):
    counters = benchmark.pedantic(batch_ensemble_workload, rounds=3, iterations=1)
    assert counters["euler_steps"] > 0


def test_batch_speedup_over_scalar_loop(benchmark, results_dir):
    """The acceptance headline: >= 10x over the scalar loop at N = 256."""
    params, dhmax, accept_equal, h = _ensemble()

    def batch_run():
        batch = BatchTimelessModel(
            params, dhmax=dhmax, accept_equal=accept_equal
        )
        return run_batch_series(batch, h)

    result = benchmark.pedantic(batch_run, rounds=3, iterations=1)
    batch_seconds = benchmark.stats.stats.min

    (scalar_seconds,), (m_scalar, b_scalar) = measure(
        lambda: run_scalar_ensemble(params, dhmax, accept_equal, h), 1
    )

    speedup = scalar_seconds / batch_seconds
    throughput = N_CORES * h.shape[0] / batch_seconds
    report = (
        f"batch: {batch_seconds:.3f} s, scalar loop: {scalar_seconds:.3f} s "
        f"-> {speedup:.1f}x speedup, {throughput:.3e} core-steps/s "
        f"at N = {N_CORES}"
    )
    print("\n" + report)
    (results_dir / "EXP-B1_bench.txt").write_text(
        results_header(backend="numpy", workers=1) + report + "\n"
    )

    # Bitwise equivalence of what was just timed (not a tolerance).
    assert np.array_equal(result.b, b_scalar)
    assert np.array_equal(result.m, m_scalar)
    assert speedup >= 10.0, report


def test_batch_ensemble_experiment(benchmark, persist):
    """EXP-B1 end-to-end (smaller N: the experiment times its own
    scalar reference internally)."""
    result = benchmark.pedantic(
        lambda: run_experiment("EXP-B1", n_cores=64),
        rounds=1,
        iterations=1,
    )
    persist(result)
    print()
    print(result.render())
    assert result.data["equal_lanes"] == result.data["n_cores"]
    assert result.data["max_delta_b"] == 0.0
