#!/usr/bin/env python3
"""Hysteresis-as-a-service: warm pool, content-addressed cache, async.

Walks the service layer top-down: start one `HysteresisService` (the
worker pool forks once, whatever the interpreter's default start
method, with fused JIT kernels pre-warmed in the parent so the forked
children inherit them compiled), submit requests
synchronously and asynchronously, watch identical requests coalesce
into one computation, stream a scenario grid as its cells land, and
re-run the whole grid to see the content-addressed cache serve pass 2
outright.  Honest notes included: on a single-core box the pool falls
back to the serial executor — the caching and coalescing behaviour is
identical, only the spin-up saving is invisible.

Usage::

    python examples/service_demo.py
"""

import asyncio
import time

import numpy as np

from repro.batch.sweep import run_batch_series
from repro.models.registry import get_family
from repro.parallel import run_scenario_grid
from repro.parallel.spec import DriveSpec, EnsembleSpec
from repro.service import HysteresisService

N_CORES = 64


def main() -> None:
    family = get_family("timeless")
    spec = EnsembleSpec(family="timeless", n_cores=N_CORES, seed=42)
    step = float(spec.build_batch().driver_step_hint())
    drive = DriveSpec(
        scenario="major-loop", h_max=float(family.h_scale), driver_step=step
    )

    # One service for the whole session: the pool outlives every
    # campaign below.  cache_dir= would additionally spill every result
    # to disk (results/cache/) so the NEXT process starts warm too.
    with HysteresisService() as service:
        print(
            f"service up: {service.pool.n_workers} worker(s), forked, "
            f"warmed kernels: {list(service.pool.warmed) or 'none (numpy only)'}"
        )

        # -- synchronous: miss, then hit ------------------------------
        start = time.perf_counter()
        first = service.run(spec, drive)
        miss_seconds = time.perf_counter() - start
        start = time.perf_counter()
        second = service.run(spec, drive)
        hit_seconds = time.perf_counter() - start
        print(
            f"first request (miss): {miss_seconds:.4f} s; repeat (hit): "
            f"{hit_seconds:.6f} s — same frozen object: {second is first}"
        )

        # The cached result is byte-identical to a fresh single-process
        # run — the bitwise pins (PRs 3/6) are what make caching honest.
        reference = run_batch_series(
            spec.build_batch(), drive.full_samples(N_CORES)
        )
        print(
            "cache vs fresh run_batch_series bitwise:",
            np.array_equal(first.m, reference.m)
            and np.array_equal(first.b, reference.b),
        )

        # -- async: futures, coalescing, streaming grids --------------
        async def async_tour():
            # Ten identical submissions: the in-flight coalescer runs
            # ONE computation and hands every future the same entry.
            other = DriveSpec(
                scenario="harmonic",
                h_max=float(family.h_scale),
                driver_step=step,
            )
            futures = [service.submit(spec, other) for _ in range(10)]
            results = await asyncio.gather(*futures)
            print(
                "10 concurrent identical submissions ->",
                f"{len({id(r) for r in results})} computation(s)",
            )

            # Cells stream back as they land (hits first, typically).
            async for cell in service.stream_grid(
                ["timeless", "preisach"],
                ["major-loop"],
                [family.h_scale, family.h_scale / 2],
                N_CORES,
                seed=42,
                driver_step=step,
            ):
                print(f"  cell landed: {cell.family} h_max={cell.h_max:g}")

        asyncio.run(async_tour())

        # -- the repeated grid: pass 2 is all cache hits --------------
        grid_args = (
            ["timeless", "preisach", "time-domain"],
            ["major-loop", "harmonic"],
            [family.h_scale, family.h_scale / 2],
            N_CORES,
        )
        start = time.perf_counter()
        pass1 = run_scenario_grid(
            *grid_args, seed=42, driver_step=step, service=service
        )
        pass1_seconds = time.perf_counter() - start
        start = time.perf_counter()
        pass2 = run_scenario_grid(
            *grid_args, seed=42, driver_step=step, service=service
        )
        pass2_seconds = time.perf_counter() - start
        assert all(a.result is b.result for a, b in zip(pass1, pass2))
        print(
            f"grid pass 1: {pass1_seconds:.3f} s ({len(pass1)} cells); "
            f"pass 2: {pass2_seconds:.4f} s — "
            f"{pass1_seconds / max(pass2_seconds, 1e-9):.0f}x, all served "
            "from the cache"
        )
        print("cache stats:", service.cache.stats)


if __name__ == "__main__":
    main()
