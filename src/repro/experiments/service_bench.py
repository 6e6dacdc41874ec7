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
  asserts >= 5x on benchmark hosts);
* **misses side by side** — a batch of distinct 64-lane timeless
  misses sent by one client thread, then by two (a service-mix
  request's lanes and family): seconds per miss and the shards
  each miss was cut into.  A lone miss spans the pool's width; two in
  flight run whole, side by side, with no lock between them;
* **the spill** — one of those entries written raw, as the cache
  spills it, and compressed, as it once did: seconds and KiB.

Correctness rides along: the warm-pool result must be bitwise equal to
the cold-pool result on the exact backend (the digest/caching
design leans on exactly this — PRs 3 and 6 pinned sharded and threaded
execution to the single-process reference, so any plan can serve any
hit).
"""

from __future__ import annotations

import statistics
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.backend import list_backends, resolve_backend
from repro.experiments.parallel_ensemble import bitwise_equal_lanes
from repro.experiments.registry import ExperimentResult, register
from repro.experiments.runner import measure
from repro.io.table import TextTable
from repro.models.registry import get_family, list_families
from repro.parallel import available_cpus, resolve_workers, run_sharded
from repro.parallel.grid import run_scenario_grid
from repro.parallel.pool import close_default_pool
from repro.parallel.spec import DriveSpec, EnsembleSpec
from repro.service.cache import save_result

EXPERIMENT_ID = "EXP-B7"
TITLE = "Warm-pool service: submission latency and cache throughput"

#: Family and lanes of each request in the misses-side-by-side rows:
#: those of a service-mix benchmark request.
MISS_FAMILY = "timeless"
MISS_LANES = 64
#: Distinct requests per batch in those rows.
MISS_BATCH = 8


def _miss_rows(service, step, seed, repeats):
    """A batch of distinct misses sent by one client thread, then two.

    Each configuration runs one untimed batch (the workers build the
    recipes), then ``repeats`` timed ones, each from an emptied cache.
    Returns one row per configuration (median seconds per miss; median
    shards per miss, as the pool received them), the lone batch's
    results, and whether each miss two clients ran is bitwise the same
    miss run alone."""
    drive = DriveSpec(
        scenario="major-loop",
        h_max=float(get_family(MISS_FAMILY).h_scale),
        driver_step=step,
    )
    specs = [
        EnsembleSpec(MISS_FAMILY, MISS_LANES, seed=seed + k)
        for k in range(MISS_BATCH)
    ]
    shards: list = []
    execute = service.pool.execute

    def counted(jobs):
        shards.extend(len(job.specs) for job in jobs)
        return execute(jobs)

    def batch(clients):
        service.cache.clear()
        out = [None] * MISS_BATCH

        def client(first):
            for k in range(first, MISS_BATCH, clients):
                out[k] = service.run(specs[k], drive)

        threads = [
            threading.Thread(target=client, args=(c,)) for c in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return out

    rows, results = [], {}
    service.pool.execute = counted
    try:
        for clients in (1, 2):
            batch(clients)
            shards.clear()
            samples, results[clients] = measure(
                lambda: batch(clients), repeats
            )
            rows.append({
                "op": f"misses_{clients}_client{'s' * (clients > 1)}",
                "n": MISS_BATCH,
                "seconds": statistics.median(samples) / MISS_BATCH,
                "shards": statistics.median(shards),
            })
    finally:
        del service.pool.execute
    same = all(
        bitwise_equal_lanes(lone, beside) == MISS_LANES
        for lone, beside in zip(results[1], results[2])
    )
    return rows, results[1][0], same


def _spill_rows(entry, repeats):
    """One cache entry spilled raw (the cache's own writer) and
    compressed (the same members through ``np.savez_compressed``, as
    the cache once wrote them): median seconds and KiB."""
    rows = []
    with tempfile.TemporaryDirectory() as spill:
        raw, packed = Path(spill) / "raw.npz", Path(spill) / "packed.npz"
        raw_s, _ = measure(lambda: save_result(raw, entry), repeats)
        with np.load(raw) as npz:
            members = {name: npz[name] for name in npz.files}
        packed_s, _ = measure(
            lambda: np.savez_compressed(packed, **members), repeats
        )
        for op, samples, path in (
            ("spill_raw", raw_s, raw), ("spill_compressed", packed_s, packed)
        ):
            rows.append({
                "op": op,
                "n": MISS_LANES,
                "seconds": statistics.median(samples),
                "kib": path.stat().st_size / 1024,
            })
    return rows


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

        # -- misses side by side, and the spill of one of them ---------
        miss_rows, entry, misses_match = _miss_rows(
            service, step, seed, repeats
        )
    spill_rows = _spill_rows(entry, repeats)

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
        *miss_rows,
        *spill_rows,
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
    for row in miss_rows:
        notes_per_op[row["op"]] = (
            f"per miss, {MISS_LANES} lanes, {row['shards']:g} shard(s) "
            "per miss"
        )
    for row in spill_rows:
        notes_per_op[row["op"]] = (
            f"one {len(entry.h)} x {MISS_LANES} entry, {row['kib']:.0f} KiB"
        )
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
        f"misses side by side: {MISS_BATCH} distinct {MISS_LANES}-lane "
        f"{MISS_FAMILY} misses per batch, medians of the batches; every "
        "miss two "
        "clients computed whole is "
        + ("bitwise equal" if misses_match else "NOT EQUAL")
        + " to the same miss computed alone, cut over the pool",
        "spill rows: medians; raw is the cache's own writer, compressed "
        "the same members through np.savez_compressed",
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
        "misses_match": misses_match,
        "cache_stats": stats,
    }
    return result
