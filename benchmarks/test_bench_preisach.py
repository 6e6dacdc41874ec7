"""EXP-B2 bench: Preisach relay-tensor throughput vs the scalar loop.

The non-JA twin of ``test_bench_batch.py``: N = 64 heterogeneous
Preisach cores driven through the minor-loop-ladder scenario, the
vectorised ``(cores, n_alpha, n_beta)`` relay tensor against the
per-model Python loop it replaces — bitwise-identical lanes, asserted
>= 5x faster.  Also runs the EXP-B2 experiment end-to-end, which
additionally covers the batched time-domain family, and times the cold
registry build of an n = 512 Preisach ensemble (its Everett
identification) in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.batch.preisach import BatchPreisachModel
from repro.batch.sweep import run_batch_series
from repro.experiments import run_experiment
from repro.experiments.batch_families import (
    make_drive,
    make_preisach_ensemble,
    run_scalar_ensemble,
)
from repro.experiments.runner import measure, results_header

N_CORES = 64
N_CELLS = 24
H_MAX = 10e3
DRIVER_STEP = 100.0
COLD_BUILD_N = 512
COLD_BUILD_LIMIT_S = 5.0

#: Timed in a fresh interpreter, so neither the registry's lru_cache
#: nor a best-of-N minimum can hide the first identification.
COLD_BUILD_SCRIPT = """
import time
from repro.parallel.spec import EnsembleSpec
start = time.perf_counter()
EnsembleSpec("preisach", {n}).build_batch()
print(time.perf_counter() - start)
"""


def _workload():
    models = make_preisach_ensemble(N_CORES, n_cells=N_CELLS)
    h = make_drive(H_MAX, DRIVER_STEP)
    return models, h


def test_batch_preisach_throughput(benchmark):
    models, h = _workload()

    def batch_run():
        batch = BatchPreisachModel.from_scalar_models(models)
        return run_batch_series(batch, h)

    result = benchmark.pedantic(batch_run, rounds=3, iterations=1)
    assert int(result.counters["switch_events"].sum()) > 0


def test_batch_preisach_speedup_over_scalar_loop(benchmark, results_dir):
    """The acceptance headline: >= 5x over the scalar loop at N = 64."""
    models, h = _workload()

    def batch_run():
        batch = BatchPreisachModel.from_scalar_models(models)
        return run_batch_series(batch, h)

    result = benchmark.pedantic(batch_run, rounds=3, iterations=1)
    batch_seconds = benchmark.stats.stats.min

    (scalar_seconds,), (m_scalar, b_scalar) = measure(
        lambda: run_scalar_ensemble(models, h), 1
    )

    speedup = scalar_seconds / batch_seconds
    throughput = N_CORES * len(h) / batch_seconds
    report = (
        f"batch preisach: {batch_seconds:.3f} s, scalar loop: "
        f"{scalar_seconds:.3f} s -> {speedup:.1f}x speedup, "
        f"{throughput:.3e} core-steps/s at N = {N_CORES} "
        f"({models[0].relay_count} relays/core)"
    )
    print("\n" + report)
    (results_dir / "EXP-B2_bench.txt").write_text(
        results_header(backend="numpy", workers=1) + report + "\n"
    )

    # Bitwise equivalence of what was just timed (not a tolerance).
    assert np.array_equal(result.b, b_scalar)
    assert np.array_equal(result.m, m_scalar)
    assert speedup >= 5.0, report


def test_batch_families_experiment(benchmark, persist):
    """EXP-B2 end-to-end (covers the time-domain family too)."""
    result = benchmark.pedantic(
        lambda: run_experiment("EXP-B2"),
        rounds=1,
        iterations=1,
    )
    persist(result)
    print()
    print(result.render())
    for family in ("preisach", "time-domain"):
        row = result.data[family]
        assert row["equal_lanes"] == row["n_cores"], family


def test_cold_registry_build(bench_json):
    """The first n = 512 Preisach registry build in a fresh process
    (stacked Everett identification plus stacking) stays < 5 s."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", COLD_BUILD_SCRIPT.format(n=COLD_BUILD_N)],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    seconds = float(proc.stdout.split()[-1])
    print(f"\ncold registry build: {seconds:.3f} s at n = {COLD_BUILD_N}")
    bench_json(
        "EXP-B2",
        [{"op": "cold_registry_build", "n": COLD_BUILD_N, "seconds": seconds}],
        workers=1,
    )
    assert seconds < COLD_BUILD_LIMIT_S
