"""The warm-pool service layer: pool, cache, async front-end, grid.

The acceptance pin this whole layer leans on: a **cache-served result
is byte-identical to a fresh single-process ``run_batch_series``** on
the exact backend, for every registered family.  PR 3 pinned sharded
reassembly and PR 6 pinned lane threading to the single-process bits,
which is exactly what makes a content-addressed cache trustworthy —
any execution shape may serve any hit, so the digest deliberately
excludes pool width and thread count (see ``test_service_digest.py``
for the digest's own invariants).

Everything here is structural/correctness and runs on any host,
including single-CPU CI (a width-1 ``WorkerPool`` falls back to the
serial executor).  Timing claims live in
``benchmarks/test_bench_service.py``.
"""

import asyncio
import gc
import logging
import os
import threading

import numpy as np
import pytest

from repro.batch.sweep import run_batch_series
from repro.errors import ParameterError, ReproError
from repro.experiments import run_experiment
from repro.models.registry import get_family, list_families
from repro.parallel import pool as pool_module
from repro.parallel.executor import MAX_WORKERS_ENV, SHM_DIR, prepare_job
from repro.parallel.grid import run_scenario_grid
from repro.parallel.spec import DriveSpec, EnsembleSpec
from repro.service import (
    HysteresisService,
    ResultCache,
    WorkerPool,
    load_result,
    prewarm_fused_kernels,
    save_result,
    spec_digest,
)

from test_parallel import segments

FAMILY_NAMES = tuple(family.name for family in list_families())

def small_workload(family_name: str, n_cores: int = 4, seed: int = 7):
    """One registry spec plus a resolved scenario drive for it."""
    family = get_family(family_name)
    spec = EnsembleSpec(family=family_name, n_cores=n_cores, seed=seed)
    step = float(spec.build_batch().driver_step_hint())
    drive = DriveSpec(
        scenario="major-loop", h_max=float(family.h_scale), driver_step=step
    )
    return spec, drive


def assert_bitwise(reference, other):
    """Byte-identity of two BatchSweepResults, dtypes included."""
    for column in ("h", "m", "b", "updated"):
        ref, got = getattr(reference, column), getattr(other, column)
        assert ref.dtype == got.dtype, column
        assert np.array_equal(ref, got), column
    assert sorted(reference.extras) == sorted(other.extras)
    for key in reference.extras:
        assert reference.extras[key].dtype == other.extras[key].dtype
        assert np.array_equal(reference.extras[key], other.extras[key]), key
    assert sorted(reference.counters) == sorted(other.counters)
    for key in reference.counters:
        assert np.array_equal(
            np.asarray(reference.counters[key]),
            np.asarray(other.counters[key]),
        ), key
    assert reference.family == other.family


def pool_run(pool, spec, drive):
    """One request as a service runs it on its pool: one job, cut over
    the pool's width."""
    return pool.execute([prepare_job(spec, drive, pool.n_workers)])[0]


class TestWorkerPool:
    def test_width_one_serial_fallback(self):
        with WorkerPool(1) as pool:
            assert pool.n_workers == 1
            assert not pool.closed
            spec, drive = small_workload("timeless")
            result = pool_run(pool, spec, drive)
        reference = run_batch_series(
            spec.build_batch(), drive.full_samples(spec.n_cores)
        )
        assert_bitwise(reference, result)

    def test_reaped_pool_logs_the_close_failure(self, caplog):
        pool = WorkerPool(1)

        def exploding_close():
            raise RuntimeError("close exploded")

        pool.close = exploding_close
        with caplog.at_level(logging.DEBUG, logger="repro.parallel.pool"):
            pool.__del__()  # must not raise through the finaliser
        assert "close exploded" in caplog.text

    @pytest.mark.parametrize("fault", ["bad-width", "no-fork"])
    def test_pool_whose_constructor_raised_logs_nothing(
        self, fault, caplog, monkeypatch
    ):
        """A pool whose constructor raised (a bad width, or a wider pool
        where ``fork`` is missing) is reaped without a trace: its
        ``close()`` finds nothing to tear down, so ``__del__`` logs no
        close failure, the trace kept for a live pool's."""
        width, raised, match = 0, ParameterError, "n_workers"
        if fault == "no-fork":
            real_context = pool_module.get_context

            def no_fork(method=None):
                if method == "fork":
                    raise ValueError("cannot find context for 'fork'")
                return real_context(method)

            monkeypatch.setattr(pool_module, "get_context", no_fork)
            monkeypatch.setenv(MAX_WORKERS_ENV, "2")
            width, raised, match = 2, ReproError, "needs Linux"

        def construct():
            with pytest.raises(raised, match=match):
                WorkerPool(width)

        with caplog.at_level(logging.DEBUG, logger="repro.parallel.pool"):
            construct()
            gc.collect()
        assert "close failed" not in caplog.text

    def test_prewarm_is_noop_without_jit_backends(self):
        from repro.backend import list_backends

        warmed = prewarm_fused_kernels()
        jit_backends = [b for b in list_backends() if not b.exact]
        if not jit_backends:
            assert warmed == ()
        else:
            assert all(
                backend in {b.name for b in jit_backends}
                for _, backend in warmed
            )

    def test_every_pool_warms_before_it_forks(self, monkeypatch):
        """Children inherit the JIT caches the parent held at ``Pool()``,
        so every pool runs the warm-up first, and a width-1 pool (no
        children) still warms its own serial runs."""
        import multiprocessing.context

        import repro.parallel.pool as pool_module

        events = []
        real_prewarm = pool_module.prewarm_fused_kernels
        real_fork = multiprocessing.context.BaseContext.Pool

        def prewarm():
            events.append("warm")
            return real_prewarm()

        def fork(self, *args, **kwargs):
            events.append("fork")
            return real_fork(self, *args, **kwargs)

        monkeypatch.setattr(pool_module, "prewarm_fused_kernels", prewarm)
        monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", fork)
        monkeypatch.delenv("REPRO_PARALLEL_MAX_WORKERS", raising=False)
        with WorkerPool(2):
            assert events == ["warm", "fork"]
        events.clear()
        with WorkerPool(1):
            assert events == ["warm"]

    def test_pool_outlives_many_calls(self):
        spec, drive = small_workload("preisach", n_cores=3)
        with WorkerPool(1) as pool:
            first = pool_run(pool, spec, drive)
            second = pool_run(pool, spec, drive)
        assert_bitwise(first, second)

    def test_closed_pool_rejects_execution(self):
        pool = WorkerPool(1)
        pool.close()
        pool.close()  # idempotent
        assert pool.closed
        with pytest.raises(ParameterError, match="closed"):
            pool.execute([])


class TestResultCache:
    def _result(self, family="timeless", n_cores=3, seed=1):
        spec, drive = small_workload(family, n_cores=n_cores, seed=seed)
        result = run_batch_series(
            spec.build_batch(), drive.full_samples(n_cores)
        )
        return spec_digest(spec, drive), result

    def test_put_get_returns_frozen_entry(self):
        cache = ResultCache(max_entries=4)
        key, result = self._result()
        stored = cache.put(key, result)
        assert cache.get(key) is stored
        assert not stored.m.flags.writeable
        assert not stored.h.flags.writeable
        with pytest.raises(ValueError):
            stored.m[0, 0] = 0.0
        assert cache.stats["hits"] == 1
        assert cache.stats["entries"] == 1

    def test_h_column_is_copied_not_aliased(self):
        cache = ResultCache()
        key, result = self._result()
        h_before = np.array(result.h)
        stored = cache.put(key, result)
        assert result.h.flags.writeable  # the caller's array is untouched
        result.h[0] = 1e9
        assert np.array_equal(stored.h, h_before)

    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        keys = []
        for seed in (1, 2, 3):
            key, result = self._result(seed=seed)
            keys.append(key)
            cache.put(key, result)
        assert len(cache) == 2
        assert cache.stats["evictions"] == 1
        assert keys[0] not in cache  # oldest evicted
        assert keys[1] in cache and keys[2] in cache
        assert cache.get(keys[0]) is None
        assert cache.stats["misses"] == 1

    def test_spill_roundtrip_is_byte_exact(self, tmp_path):
        key, result = self._result("preisach")
        save_result(tmp_path / "entry.npz", result)
        loaded = load_result(tmp_path / "entry.npz")
        assert_bitwise(result, loaded)

    def test_disk_hit_survives_a_fresh_cache(self, tmp_path):
        first = ResultCache(spill_dir=tmp_path)
        key, result = self._result()
        first.put(key, result)

        fresh = ResultCache(spill_dir=tmp_path)
        served = fresh.get(key)
        assert served is not None
        assert_bitwise(result, served)
        assert not served.m.flags.writeable
        assert fresh.stats["disk_hits"] == 1

        fresh.clear(spilled=True)
        assert list(tmp_path.glob("*.npz")) == []
        again = ResultCache(spill_dir=tmp_path)
        assert again.get(key) is None

    def test_spill_interrupted_mid_write_leaves_nothing(
        self, tmp_path, monkeypatch
    ):
        """A spill that dies mid-write raises its error and leaves
        neither ``<digest>.npz`` nor its temp file: a fresh cache over
        the directory misses instead of loading a torn entry."""
        import repro.service.cache as cache_module

        key, result = self._result()

        def torn_write(handle, **arrays):
            handle.write(b"PK\x03\x04")
            raise OSError("disk full mid-write")

        monkeypatch.setattr(cache_module.np, "savez", torn_write)
        with pytest.raises(OSError, match="disk full mid-write"):
            ResultCache(spill_dir=tmp_path).put(key, result)
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []
        assert ResultCache(spill_dir=tmp_path).get(key) is None

    def test_zero_capacity_rejected(self):
        with pytest.raises(ParameterError, match="max_entries"):
            ResultCache(max_entries=0)


class TestHysteresisService:
    @pytest.mark.parametrize("family_name", FAMILY_NAMES)
    def test_cache_served_result_is_bitwise_fresh(self, family_name):
        """The acceptance pin: a cache hit is byte-identical to a fresh
        single-process run_batch_series, for every registered family."""
        spec, drive = small_workload(family_name)
        with HysteresisService(1) as service:
            computed = service.run(spec, drive)
            served = service.run(spec, drive)
        assert served is computed  # the same frozen entry
        assert service.cache.stats["hits"] == 1
        reference = run_batch_series(
            spec.build_batch(), drive.full_samples(spec.n_cores)
        )
        assert_bitwise(reference, served)

    @pytest.mark.parametrize(
        "arguments, match",
        [
            (dict(cache_entries=0), "max_entries"),
            (dict(dispatch_threads=0), "dispatch_threads"),
        ],
        ids=["cache_entries", "dispatch_threads"],
    )
    def test_bad_argument_raises_before_the_pool_forks(
        self, arguments, match, monkeypatch
    ):
        """Every constructor argument is checked before the service's
        two-wide pool forks: a bad one forks nothing."""
        import multiprocessing.context

        forked = []
        monkeypatch.setattr(
            multiprocessing.context.BaseContext, "Pool",
            lambda *args, **kwargs: forked.append(args),
        )
        monkeypatch.delenv("REPRO_PARALLEL_MAX_WORKERS", raising=False)
        with pytest.raises(ParameterError, match=match):
            HysteresisService(2, **arguments)
        assert forked == []

    def test_submit_requires_running_loop(self):
        spec, drive = small_workload("timeless")
        with HysteresisService(1) as service:
            with pytest.raises(ParameterError, match="event loop"):
                service.submit(spec, drive)

    def test_async_submissions_coalesce(self):
        spec, drive = small_workload("timeless", seed=11)
        with HysteresisService(1, dispatch_threads=2) as service:

            async def main():
                futures = [service.submit(spec, drive) for _ in range(4)]
                return await asyncio.gather(*futures)

            results = asyncio.run(main())
        first = results[0]
        assert all(result is first for result in results)
        # At most one compute happened: 4 requests, >= 3 served by the
        # coalescer or the cache, never 4 misses.
        assert service.cache.stats["misses"] <= 2

    def test_concurrent_identical_runs_compute_once(self):
        spec, drive = small_workload("preisach", n_cores=3, seed=5)
        with HysteresisService(1) as service:
            barrier = threading.Barrier(3)
            results = []

            def request():
                barrier.wait()
                results.append(service.run(spec, drive))

            threads = [threading.Thread(target=request) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len({id(r) for r in results}) == 1

    def test_stream_grid_yields_unique_cells(self):
        with HysteresisService(1) as service:
            family = get_family("timeless")
            step = float(family.h_scale * 0.05)

            async def main():
                cells = []
                async for cell in service.stream_grid(
                    ["timeless"],
                    ["major-loop"],
                    [family.h_scale, family.h_scale, family.h_scale / 2],
                    3,
                    driver_step=step,
                ):
                    cells.append(cell)
                return cells

            cells = asyncio.run(main())
        assert sorted(cell.key for cell in cells) == [
            ("timeless", "major-loop", family.h_scale / 2),
            ("timeless", "major-loop", family.h_scale),
        ]

    def test_failed_submit_fails_every_waiter_then_recomputes(
        self, monkeypatch
    ):
        """A submit whose computation raises fails its coalesced twin
        too, leaves no in-flight entry behind, and a later identical
        submit computes afresh."""
        import repro.service.api as api

        spec, drive = small_workload("timeless", seed=13)
        coalesced = threading.Event()
        calls = []
        real_run_single = api.run_single

        def fails_once(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                assert coalesced.wait(10.0), "the twin never coalesced"
                raise RuntimeError("injected compute failure")
            return real_run_single(*args, **kwargs)

        class CoalesceSpy(dict):
            """Flags the lookup that hands a waiter the owner's future."""

            def get(self, key, default=None):
                found = super().get(key, default)
                if found is not None:
                    coalesced.set()
                return found

        monkeypatch.setattr(api, "run_single", fails_once)
        with HysteresisService(1, dispatch_threads=2) as service:
            service._inflight = CoalesceSpy()

            async def twins():
                pending = [service.submit(spec, drive) for _ in range(2)]
                return await asyncio.gather(*pending, return_exceptions=True)

            async def third():
                return await service.submit(spec, drive)

            outcomes = asyncio.run(asyncio.wait_for(twins(), 30.0))
            assert [type(o) for o in outcomes] == [RuntimeError] * 2
            assert all("injected" in str(o) for o in outcomes)
            assert service.digest_for(spec, drive) not in service._inflight
            misses = service.cache.stats["misses"]
            result = asyncio.run(asyncio.wait_for(third(), 30.0))
            assert service.cache.stats["misses"] == misses + 1
        assert len(calls) == 2
        reference = run_batch_series(
            spec.build_batch(), drive.full_samples(spec.n_cores)
        )
        assert_bitwise(reference, result)

    def test_close_waits_for_an_in_flight_run(self, monkeypatch):
        """Closing a service while a synchronous run() is inside its
        pool map lets that run land: it returns its bitwise result and
        releases every shared-memory segment."""
        import repro.parallel.pool as pool_module

        if not os.path.isdir(SHM_DIR):
            pytest.skip(f"no {SHM_DIR} to list segments in")
        spec = EnsembleSpec("timeless", 512, seed=3)
        drive = DriveSpec(
            scenario="minor-loop-ladder", h_max=8e3, driver_step=8.0
        )
        entered = threading.Event()
        real_execute = pool_module.execute_jobs_pooled

        class Announcing:
            """The pool, announcing once its shard tasks are queued."""

            def __init__(self, pool):
                self.pool = pool

            def map_async(self, fn, tasks):
                pending = self.pool.map_async(fn, tasks)
                entered.set()
                return pending

        def entering(pool, chunks, width, arena):
            return real_execute(Announcing(pool), chunks, width, arena)

        monkeypatch.setattr(pool_module, "execute_jobs_pooled", entering)
        before = segments()
        service = HysteresisService(2)
        if service.pool.n_workers < 2:
            service.close()
            pytest.skip("needs a two-process pool")
        outcome = {}

        def request():
            try:
                outcome["result"] = service.run(spec, drive)
            except BaseException as exc:  # reported by the assertions
                outcome["error"] = exc

        runner = threading.Thread(target=request, daemon=True)
        runner.start()
        assert entered.wait(30.0), "run() never reached the pool"
        service.close()
        runner.join(30.0)
        assert not runner.is_alive(), "run() hung after close()"
        assert "error" not in outcome, outcome.get("error")
        assert segments() - before == set()
        reference = run_batch_series(
            spec.build_batch(), drive.full_samples(spec.n_cores)
        )
        assert_bitwise(reference, outcome["result"])

    @pytest.mark.parametrize("family_name", FAMILY_NAMES)
    def test_compressed_spill_of_an_older_service_still_serves(
        self, family_name, tmp_path
    ):
        """The spill is written raw now; a directory an older service
        spilled compressed keeps serving, its disk hits bitwise."""
        import zipfile

        spec, drive = small_workload(family_name, n_cores=3)
        with HysteresisService(1, cache_dir=tmp_path) as first:
            computed = first.run(spec, drive)
        (path,) = tmp_path.glob("*.npz")

        def compression():
            with zipfile.ZipFile(path) as archive:
                return {member.compress_type for member in archive.infolist()}

        assert compression() == {zipfile.ZIP_STORED}
        with np.load(path) as npz:
            members = {name: npz[name] for name in npz.files}
        np.savez_compressed(path, **members)  # the older service's writer
        assert compression() == {zipfile.ZIP_DEFLATED}
        with HysteresisService(1, cache_dir=tmp_path) as second:
            served = second.run(spec, drive)
            assert second.cache.stats["disk_hits"] == 1
        assert_bitwise(computed, served)
        reference = run_batch_series(
            spec.build_batch(), drive.full_samples(spec.n_cores)
        )
        assert_bitwise(reference, served)

    def test_closed_service_rejects_requests(self):
        spec, drive = small_workload("timeless")
        service = HysteresisService(1)
        service.close()
        service.close()  # idempotent
        with pytest.raises(ParameterError, match="closed"):
            service.run(spec, drive)

    def test_disk_spill_warms_a_fresh_service(self, tmp_path):
        spec, drive = small_workload("preisach", n_cores=3)
        with HysteresisService(1, cache_dir=tmp_path) as first:
            computed = first.run(spec, drive)
        with HysteresisService(1, cache_dir=tmp_path) as second:
            served = second.run(spec, drive)
            assert second.cache.stats["disk_hits"] == 1
        assert_bitwise(computed, served)


class TestGridDedupe:
    def test_duplicate_cells_collapse(self, caplog):
        family = get_family("timeless")
        step = float(family.h_scale * 0.05)
        with caplog.at_level("INFO", logger="repro.parallel.grid"):
            cells = run_scenario_grid(
                ["timeless"],
                ["major-loop"],
                [family.h_scale, family.h_scale / 2, family.h_scale],
                3,
                driver_step=step,
                n_workers=1,
            )
        assert len(cells) == 3  # positional shape preserved
        assert cells[0].key == cells[2].key
        assert cells[0].result is cells[2].result  # computed once
        assert any("collapsed 1 duplicate" in r.message for r in caplog.records)

    def test_grid_with_duplicates_matches_unique_grid(self):
        family = get_family("preisach")
        step = float(family.h_scale * 0.05)
        h_values = [family.h_scale, family.h_scale / 2]
        deduped = run_scenario_grid(
            ["preisach"], ["major-loop"], h_values + [family.h_scale],
            3, driver_step=step, n_workers=1,
        )
        plain = run_scenario_grid(
            ["preisach"], ["major-loop"], h_values,
            3, driver_step=step, n_workers=1,
        )
        assert_bitwise(plain[0].result, deduped[0].result)
        assert_bitwise(plain[1].result, deduped[1].result)
        assert_bitwise(plain[0].result, deduped[2].result)


class TestGridService:
    def test_second_pass_is_all_hits_and_identical(self):
        family = get_family("timeless")
        step = float(family.h_scale * 0.05)
        h_values = [family.h_scale, family.h_scale / 2]
        with HysteresisService(1) as service:
            pass1 = run_scenario_grid(
                FAMILY_NAMES, ["major-loop"], h_values, 3,
                driver_step=step, service=service,
            )
            misses_after_pass1 = service.cache.stats["misses"]
            pass2 = run_scenario_grid(
                FAMILY_NAMES, ["major-loop"], h_values, 3,
                driver_step=step, service=service,
            )
            assert service.cache.stats["misses"] == misses_after_pass1
        assert [c.key for c in pass1] == [c.key for c in pass2]
        for one, two in zip(pass1, pass2):
            assert one.result is two.result  # the same frozen entries

    def test_service_results_match_plain_grid(self):
        family = get_family("preisach")
        step = float(family.h_scale * 0.05)
        h_values = [family.h_scale]
        with HysteresisService(1) as service:
            serviced = run_scenario_grid(
                ["preisach"], ["major-loop", "harmonic"], h_values, 3,
                driver_step=step, service=service,
            )
        plain = run_scenario_grid(
            ["preisach"], ["major-loop", "harmonic"], h_values, 3,
            driver_step=step, n_workers=1,
        )
        assert [c.key for c in serviced] == [c.key for c in plain]
        for one, two in zip(serviced, plain):
            assert_bitwise(two.result, one.result)


class TestServiceExperimentSmoke:
    def test_exp_b7_structure_and_correctness(self):
        """EXP-B7 at smoke scale: correctness pins must hold on any
        host (including 1 CPU); the >= 5x timing bar is asserted only
        at benchmark scale in benchmarks/test_bench_service.py."""
        result = run_experiment(
            "EXP-B7",
            n_cores=4,
            repeats=1,
            hit_requests=4,
            grid_scenarios=("major-loop",),
            grid_h_max_ratios=(1.0, 0.5),
        )
        data = result.data
        assert data["warm_matches_cold"]
        assert data["pass2_matches_pass1"]
        assert data["grid_cells"] == len(FAMILY_NAMES) * 2
        assert data["grid_unique"] == len(FAMILY_NAMES) * 2
        ops = {row["op"] for row in data["rows"]}
        assert ops == {
            "cold_submit", "warm_submit", "cache_miss", "cache_hit",
            "grid_pass1", "grid_pass2", "misses_1_client",
            "misses_2_clients", "spill_raw", "spill_compressed",
        }
        for row in data["rows"]:
            assert row["seconds"] > 0.0, row
        rows = {row["op"]: row for row in data["rows"]}
        lone_cut = min(data["workers"], 64)
        assert rows["misses_1_client"]["shards"] == lone_cut
        assert rows["spill_raw"]["kib"] > rows["spill_compressed"]["kib"]
        assert data["misses_match"]
        assert "warm-pool service" in result.render()


class TestCrossInterpreterSpill:
    """A spilled ``.npz`` written by one interpreter must load in a
    *fresh* interpreter byte-for-byte — the spill directory is the
    cache's only cross-process (and cross-restart) surface, so its
    member-name schema (``extra__``/``counter__`` prefixes) and raw
    array bytes are wire format, not an implementation detail."""

    def test_spill_round_trips_through_a_fresh_interpreter(self, tmp_path):
        import hashlib
        import json
        import subprocess
        import sys
        from pathlib import Path

        spec, drive = small_workload("timeless", n_cores=3, seed=11)
        result = run_batch_series(
            spec.build_batch(), drive.full_samples(spec.n_cores)
        )
        assert result.extras and result.counters  # the pin needs both
        path = tmp_path / "entry.npz"
        save_result(path, result)

        # The member-name schema is pinned here, not discovered: a
        # renamed prefix would silently orphan every existing spill.
        with np.load(path) as npz:
            members = sorted(npz.files)
        expected = sorted(
            ["h", "m", "b", "updated", "family"]
            + ["extra__" + key for key in result.extras]
            + ["counter__" + key for key in result.counters]
        )
        assert members == expected

        def digest_channels(res):
            channels = {
                "h": res.h, "m": res.m, "b": res.b, "updated": res.updated,
            }
            for key, value in res.extras.items():
                channels["extra__" + key] = value
            for key, value in res.counters.items():
                channels["counter__" + key] = np.asarray(value)
            return {
                name: [str(arr.dtype), hashlib.sha256(
                    np.ascontiguousarray(arr).tobytes()
                ).hexdigest()]
                for name, arr in channels.items()
            }

        child = subprocess.run(
            [
                sys.executable,
                "-c",
                (
                    "import json, sys, hashlib\n"
                    "import numpy as np\n"
                    "from pathlib import Path\n"
                    "from repro.service import load_result\n"
                    "res = load_result(Path(sys.argv[1]))\n"
                    "channels = {'h': res.h, 'm': res.m, 'b': res.b,"
                    " 'updated': res.updated}\n"
                    "for k, v in res.extras.items():\n"
                    "    channels['extra__' + k] = v\n"
                    "for k, v in res.counters.items():\n"
                    "    channels['counter__' + k] = np.asarray(v)\n"
                    "print(json.dumps({'family': res.family, 'channels': {\n"
                    "    name: [str(arr.dtype), hashlib.sha256(\n"
                    "        np.ascontiguousarray(arr).tobytes()\n"
                    "    ).hexdigest()]\n"
                    "    for name, arr in channels.items()}}))\n"
                ),
                str(path),
            ],
            capture_output=True,
            text=True,
            env={
                **__import__("os").environ,
                "PYTHONPATH": str(
                    Path(__file__).resolve().parents[1] / "src"
                ),
            },
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        report = json.loads(child.stdout)
        assert report["family"] == result.family
        assert report["channels"] == digest_channels(result)
