"""EXP-B4 bench: fused sweep throughput across array backends.

The backend twin of ``test_bench_batch.py``: N = 256 heterogeneous
timeless cores on the minor-loop-ladder drive, the fused ``step_series``
path against the per-sample dispatch loop it replaces — bitwise
equality always asserted on the numpy backend, >= 2x throughput
asserted for the fused path, and the numba JIT leg skipped gracefully
when numba is not installed (the numba CI leg installs it and runs this
file with ``REPRO_BACKEND=numba``).  Also regenerates EXP-B4 end to
end into ``results/EXP-B4.txt``.
"""

import numpy as np
import pytest

from repro.backend import get_backend, list_backends
from repro.batch.sweep import run_batch_series
from repro.experiments import run_experiment
from repro.experiments.backend_fused import (
    bitwise_equal_lanes,
    make_timeless_batch,
    max_relative_deviation,
)
from repro.experiments.runner import measure, results_header
from repro.scenarios import scenario_samples

N_CORES = 256
H_MAX = 10e3
DRIVER_STEP = 100.0


def _drive() -> np.ndarray:
    return scenario_samples("minor-loop-ladder", H_MAX, DRIVER_STEP)


def test_fused_speedup_over_per_sample(benchmark, results_dir):
    """The acceptance headline: the fused numpy sweep is >= 2x over the
    per-sample dispatch loop at N = 256, and bitwise identical to it."""
    h = _drive()
    fused_batch = make_timeless_batch(N_CORES, backend="numpy")

    result = benchmark.pedantic(
        lambda: run_batch_series(fused_batch, h),
        rounds=3,
        iterations=1,
    )
    fused_seconds = benchmark.stats.stats.min

    loop_batch = make_timeless_batch(N_CORES, backend="numpy")
    per_sample_seconds = min(
        measure(lambda: run_batch_series(loop_batch, h, fused=False), 2)[0]
    )
    reference = run_batch_series(loop_batch, h, fused=False)

    speedup = per_sample_seconds / fused_seconds
    throughput = N_CORES * len(h) / fused_seconds
    report = (
        f"fused numpy sweep: {fused_seconds:.3f} s, per-sample loop: "
        f"{per_sample_seconds:.3f} s -> {speedup:.1f}x speedup, "
        f"{throughput:.3e} core-steps/s at N = {N_CORES}"
    )
    print("\n" + report)
    (results_dir / "EXP-B4_bench.txt").write_text(
        results_header(backend="numpy", workers=1) + report + "\n"
    )

    # Bitwise equivalence of what was just timed (not a tolerance).
    assert bitwise_equal_lanes(reference, result) == N_CORES
    assert np.array_equal(
        reference.extras["m_an"], result.extras["m_an"]
    )
    for key in reference.counters:
        assert np.array_equal(reference.counters[key], result.counters[key])
    assert speedup >= 2.0, report


def test_numba_fused_speedup(results_dir):
    """The JIT leg: skipped (not failed) when numba is not installed,
    matching the sharded bench's worker-count skip pattern."""
    names = {backend.name for backend in list_backends()}
    if "numba" not in names:
        pytest.skip(
            "numba not installed; the numba CI leg installs it and "
            "runs this assertion"
        )
    backend = get_backend("numba")
    h = _drive()
    numba_batch = make_timeless_batch(N_CORES, backend="numba")
    # One untimed call compiles the JIT kernels outside the timing.
    numba_samples, fused = measure(
        lambda: run_batch_series(numba_batch, h), 1, warmup=1
    )
    numba_seconds = min(numba_samples)

    loop_batch = make_timeless_batch(N_CORES, backend="numpy")
    per_sample_samples, reference = measure(
        lambda: run_batch_series(loop_batch, h, fused=False), 1
    )
    per_sample_seconds = min(per_sample_samples)

    speedup = per_sample_seconds / max(numba_seconds, 1e-12)
    deviation = max_relative_deviation(reference, fused)
    report = (
        f"fused numba sweep: {numba_seconds:.3f} s, per-sample loop: "
        f"{per_sample_seconds:.3f} s -> {speedup:.1f}x speedup, "
        f"max rel dev {deviation:.2e} (rtol {backend.rtol:g})"
    )
    print("\n" + report)
    (results_dir / "EXP-B4_numba_bench.txt").write_text(report + "\n")

    # Discretiser decisions are exact across backends; trajectories
    # hold the backend's rtol tier.
    assert np.array_equal(reference.updated, fused.updated)
    assert np.array_equal(
        reference.counters["euler_steps"], fused.counters["euler_steps"]
    )
    assert deviation <= backend.rtol, report
    assert speedup >= 2.0, report


def test_backend_experiment(benchmark, persist):
    """EXP-B4 end-to-end (covers every registered backend's row)."""
    result = benchmark.pedantic(
        lambda: run_experiment("EXP-B4"),
        rounds=1,
        iterations=1,
    )
    persist(result)
    print()
    print(result.render())
    assert result.data["equal_lanes"] == result.data["n_cores"]
    assert result.data["fused_speedup"] >= 1.5
    # The kernel-layer rows are bitwise; their timings carry no bar.
    assert all(row["bitwise"] for row in result.data["kernel_rows"])
