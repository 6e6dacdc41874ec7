#!/usr/bin/env python3
"""Sharded sweep: drive one ensemble across every CPU, bit for bit.

Walks the parallel layer bottom-up: plan the shards, run one ensemble
through the multiprocessing executor, verify the reassembled result is
bitwise identical to the single-process run, then scale up to a
scenario grid (families x scenarios x amplitudes) streamed through one
worker pool.  Honest timing included — on a single-core box the
sharded run is expected to tie, not win; the point here is the bitwise
contract and the API.

Usage::

    python examples/sharded_sweep.py
"""

import time

import numpy as np

from repro.batch.sweep import run_batch_series
from repro.models.registry import get_family
from repro.parallel import (
    EnsembleSpec,
    available_cpus,
    plan_shards,
    resolve_workers,
    run_scenario_grid,
    run_sharded,
)
from repro.scenarios import scenario_samples


def main() -> None:
    workers = resolve_workers(None)
    print(f"host: {available_cpus()} CPU(s), using {workers} worker(s)")

    # 1. The plan: contiguous lane ranges, balanced to within one lane.
    n_cores = 128
    print(f"\nplan_shards({n_cores}, {workers}) ->",
          plan_shards(n_cores, workers))

    # 2. One sharded run vs the single-process executor it splits up.
    family = get_family("timeless")
    batch = family.make_batch(n_cores, seed=0)
    h = scenario_samples("minor-loop-ladder", 10e3, 100.0)

    start = time.perf_counter()
    reference = run_batch_series(batch, h)
    single_s = time.perf_counter() - start

    start = time.perf_counter()
    sharded = run_sharded(batch, h, n_workers=workers)
    sharded_s = time.perf_counter() - start

    exact = (
        np.array_equal(reference.m, sharded.m)
        and np.array_equal(reference.b, sharded.b)
        and all(
            np.array_equal(reference.counters[k], sharded.counters[k])
            for k in reference.counters
        )
    )
    print(f"\n{n_cores} cores x {len(h)} samples:")
    print(f"  single-process {single_s:.3f} s, sharded {sharded_s:.3f} s "
          f"({single_s / max(sharded_s, 1e-12):.2f}x)")
    print(f"  bitwise identical reassembly: {exact}")

    # 3. Workers can also rebuild the ensemble themselves from a
    # registry recipe — no live models cross the process boundary.
    spec = EnsembleSpec(family="timeless", n_cores=n_cores, seed=0)
    from_spec = run_sharded(spec, h, n_workers=workers)
    print(f"  spec route matches: {np.array_equal(from_spec.m, reference.m)}")

    # 4. A whole campaign: families x scenarios x amplitudes, all cells
    # streamed through one pool.  Each worker takes whole cells; a cell's
    # lanes are cut only when a chunk has fewer cells than workers.
    cells = run_scenario_grid(
        families=["timeless", "time-domain"],
        scenarios=["major-loop", "inrush", "harmonic"],
        h_max_values=[5e3, 10e3],
        n_cores=32,
        driver_step=100.0,
        n_workers=workers,
    )
    print(f"\nscenario grid: {len(cells)} cells")
    for cell in cells:
        finite = int(cell.result.finite_lanes.sum())
        print(f"  {cell.family:12s} {cell.scenario:12s} "
              f"h_max={cell.h_max:8.0f}  finite lanes {finite}/32")


if __name__ == "__main__":
    main()
