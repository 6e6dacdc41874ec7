"""Loaned shared segments: one table of (route, lifecycle event) -> outcome.

A pooled call hands each result out over the very shared-memory
segments its workers wrote, lent by the pool's segment arena
(:class:`~repro.parallel.executor.SegmentArena`), and a segment goes
back to the arena once the last array, view or buffer export over it
is gone.  Every row of :data:`LOANS`, in ``BAD_PEERS``' idiom
(``tests/test_dist.py``), drives one lifecycle event of those loans and
gets one exact outcome within a bounded wall time, bitwise results
included.  Each row runs on the process-wide default fork pool and on a
caller's :class:`~repro.parallel.pool.WorkerPool`; the last row runs on
a service's pool, the one route with a cache.  Every row starts from no
default pool, and leaves no segment name once its pool closes.

The events: a second identical call creates no segment; held results
survive later calls; a view, ``np.asarray`` or ``memoryview`` of one
channel keeps its segment on loan; a chunk that fails in a worker
returns each segment once, and the next call reuses them; closing the
pool with a result on loan unlinks every name while the result still
reads, and dropping it later warns nothing; a forked child that drops an
inherited result, then closes the arena as its exit would, leaves its
parent's arena and names alone; a forked child still reads an inherited
result bit for bit after the parent dropped it and ran more calls; a
pool forked later maps none of this pool's segments; workers unmap a
segment the arena unlinked at their next task; a full segment directory
is a clean :class:`~repro.errors.ReproError` before any task is queued,
and so is a host without ``posix_fallocate``; a short one copies
results out; in a small directory, held loans leave room for a call
over twice the size of the ones before it, and a call that needs the
idle segments' room gets it at once, though workers still map them; a
service's concurrent misses and a cache eviction return their segments.
"""

import asyncio
import collections
import dataclasses
import errno
import gc
import mmap
import multiprocessing
import multiprocessing.pool
import os
import re
import sys
import time
import types
import warnings

import numpy as np
import pytest

from repro.batch.sweep import run_batch_series
from repro.errors import ParameterError, ReproError
from repro.parallel import executor
from repro.parallel import pool as pool_module
from repro.parallel.executor import prepare_job, resolve_route
from repro.parallel.grid import job_runner
from repro.parallel.pool import WorkerPool, close_default_pool
from repro.parallel.spec import DriveSpec, EnsembleSpec
from repro.service import HysteresisService

from test_dist import _finishes_within
from test_parallel import arena_names, assert_results_bitwise_equal, segments

if "fork" not in multiprocessing.get_all_start_methods():
    pytest.skip(
        "the loan table forks its pools and one child",
        allow_module_level=True,
    )

WIDTH = 2
LANES = 4
STEP = 400.0
WAIT_S = 60.0


def cell(h_max, lanes=LANES, shards=1, seed=0):
    spec = EnsembleSpec("timeless", lanes, seed, backend="numpy")
    drive = DriveSpec(scenario="major-loop", h_max=h_max, driver_step=STEP)
    return spec, drive, prepare_job(spec, drive, shards)


def jobs(*amplitudes, lanes=LANES, seed=0, shards=1):
    """Timeless cells, one per amplitude, as prepared jobs (whole, by
    default)."""
    return [cell(h_max, lanes, shards, seed)[2] for h_max in amplitudes]


def check(results, *amplitudes, lanes=LANES, seed=0) -> None:
    """Each result is bitwise its cell's single-process run."""
    assert len(results) == len(amplitudes)
    for result, h_max in zip(results, amplitudes):
        spec, drive, _ = cell(h_max, lanes, seed=seed)
        reference = run_batch_series(
            spec.build_batch(), drive.full_samples(lanes)
        )
        assert_results_bitwise_equal(reference, result)


def stale_job():
    """A lane-cut job whose extras schema no longer matches what the
    family records: its tasks fail in the workers."""
    job = cell(6e3, shards=WIDTH)[2]
    schema = dict(job.extras_schema, bogus=np.dtype(np.int32))
    return dataclasses.replace(job, extras_schema=schema)


class DefaultPool:
    """The process-wide default pool, reached as a grid reaches it."""

    def run(self, prepared):
        route = resolve_route(n_workers=WIDTH)()
        with job_runner(route) as run:
            return run([prepared])

    @property
    def pool(self) -> WorkerPool:
        return pool_module._default

    def close(self) -> None:
        close_default_pool()


class CallersPool:
    """A caller's :class:`WorkerPool`, one ``execute`` per call."""

    def __init__(self) -> None:
        self.pool = WorkerPool(WIDTH)

    def run(self, prepared):
        return self.pool.execute(prepared)

    def close(self) -> None:
        self.pool.close()


ROUTES = {"default-pool": DefaultPool, "worker-pool": CallersPool}


def worker_pids(pool: WorkerPool) -> list:
    return [process.pid for process in pool._pool._pool]


def mappings(pid, names) -> list:
    """``pid``'s mappings of the segments ``names``."""
    with open(f"/proc/{pid}/maps") as maps:
        return [line for line in maps if any(name in line for name in names)]


def unlinked_mappings(pid, names) -> list:
    """``pid``'s mappings of the segments ``names`` once unlinked."""
    return [line for line in mappings(pid, names) if "(deleted)" in line]


def chunk_bytes(prepared) -> int:
    """What a chunk's segments take: each channel's bytes, page-rounded."""
    total = 0
    for job in prepared:
        samples, lanes = job.shape
        itemsizes = [8, 8, 1] + [
            np.dtype(dtype).itemsize for dtype in job.extras_schema.values()
        ]
        total += sum(
            -(-samples * lanes * size // mmap.PAGESIZE) * mmap.PAGESIZE
            for size in itemsizes
        )
    return total


class SmallDirectory:
    """A segment directory of ``size`` bytes, patched into ``os``: it
    holds what the real one gained since, pages of unlinked segments
    that some process still maps included, and allocating past its room
    fails with ``ENOSPC``."""

    def __init__(self, patch, size: int) -> None:
        self.size = size
        self.statvfs, self.fallocate = os.statvfs, os.posix_fallocate
        self.base = self.used()
        patch.setattr(os, "statvfs", self.stat)
        patch.setattr(os, "posix_fallocate", self.allocate)

    def used(self) -> int:
        stat = self.statvfs(executor.SHM_DIR)
        return (stat.f_blocks - stat.f_bfree) * stat.f_frsize

    def room(self) -> int:
        return self.size - (self.used() - self.base)

    def stat(self, path):
        return types.SimpleNamespace(
            f_blocks=self.size // mmap.PAGESIZE,
            f_bavail=max(self.room(), 0) // mmap.PAGESIZE,
            f_frsize=mmap.PAGESIZE,
        )

    def allocate(self, fd, offset, length) -> None:
        if length > self.room():
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.fallocate(fd, offset, length)


def on_loan(results) -> int:
    """How many of ``results`` are views of shared segments."""
    return sum(result.m.base is not None for result in results)


# -- the events -------------------------------------------------------------


def second_call_creates_nothing(route, monkeypatch):
    first = route.run(jobs(4e3, 8e3))
    check(first, 4e3, 8e3)
    del first
    made = segments()
    second = route.run(jobs(4e3, 8e3))
    check(second, 4e3, 8e3)
    return segments() - made


def held_results_survive_later_calls(route, monkeypatch):
    held = route.run(jobs(6e3, 8e3))
    for amplitudes in ((4e3, 5e3), (5e3, 6e3)):
        check(route.run(jobs(*amplitudes)), *amplitudes)
    check(held, 6e3, 8e3)
    return len(route.pool.arena._busy)  # m, b, updated, m_an per result


def views_keep_their_segment(route, monkeypatch):
    results = route.run(jobs(6e3, 8e3))
    kept = (
        results[0].m[1:3], np.asarray(results[0].b),
        memoryview(results[0].updated),
    )
    del results
    on_loan = len(route.pool.arena._busy)
    spec, drive, _ = cell(6e3)
    reference = run_batch_series(spec.build_batch(), drive.full_samples(LANES))
    assert kept[0].tobytes() == reference.m[1:3].tobytes()
    assert kept[1].tobytes() == reference.b.tobytes()
    assert np.asarray(kept[2]).tobytes() == reference.updated.tobytes()
    del kept
    return on_loan, len(route.pool.arena._busy)


def worker_failure_returns_each_segment_once(route, monkeypatch):
    route.run(jobs(4e3, 5e3))  # dropped: the arena's segments go idle
    arena = route.pool.arena
    taken, returned = [], []
    lend, give_back = arena.lend, arena.give_back

    def lending(nbytes):
        name, root, loan = lend(nbytes)
        taken.append(name)
        return name, root, loan

    def giving_back(shm, generation):
        returned.append(shm.name)
        give_back(shm, generation)

    monkeypatch.setattr(arena, "lend", lending)
    monkeypatch.setattr(arena, "give_back", giving_back)
    with pytest.raises(ParameterError, match="bogus.*stale"):
        route.run([stale_job(), cell(6e3)[2]])
    once = collections.Counter(returned) == collections.Counter(taken)
    failed = len(taken), len(arena._busy)
    made = segments()
    check(route.run(jobs(6e3, 6e3)), 6e3, 6e3)
    return once, failed, segments() - made


def close_with_a_result_on_loan(route, monkeypatch):
    before = segments()
    held = route.run(jobs(6e3, 8e3))
    route.close()
    left = segments() - before
    check(held, 6e3, 8e3)
    unraisable = []
    hook, sys.unraisablehook = sys.unraisablehook, unraisable.append
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del held
            gc.collect()
    finally:
        sys.unraisablehook = hook
    return left, [str(w.message) for w in caught], unraisable


def _drop_inherited(box, arena) -> None:
    """In a forked child: drop the only reference to the inherited
    results, then close the arena as the pool's exit hook would."""
    box.clear()
    gc.collect()
    arena.close()


def _read_inherited(box, go) -> None:
    """In a forked child: once the parent has dropped its results and
    run two more calls, check the inherited ones bit for bit."""
    assert go.wait(WAIT_S)
    check(box, 6e3, 8e3)


def forked_child_reads_what_the_parent_dropped(route, monkeypatch):
    box = route.run(jobs(6e3, 8e3))
    go = multiprocessing.get_context("fork").Event()
    child = multiprocessing.get_context("fork").Process(
        target=_read_inherited, args=(box, go)
    )
    child.start()
    box.clear()  # the parent's only reference: its loans come back
    gc.collect()
    for seed in (1, 2):  # same shapes, other bits: a reused segment shows
        check(route.run(jobs(6e3, 8e3, seed=seed)), 6e3, 8e3, seed=seed)
    go.set()
    child.join(WAIT_S)
    return child.exitcode


def later_pool_maps_none_of_them(route, monkeypatch):
    held = route.run(jobs(6e3, 8e3))
    route.run(jobs(4e3, 5e3))  # dropped: idle beside the loans
    names = arena_names(route.pool.arena)
    with WorkerPool(WIDTH) as later:
        check(later.execute(jobs(4e3)), 4e3)
        for _ in range(100):  # until both workers have started up
            kept = [pid for pid in worker_pids(later) if mappings(pid, names)]
            if not kept:
                break
            time.sleep(0.05)
    check(held, 6e3, 8e3)
    return bool(names), kept


def forked_child_leaves_the_parents_arena(route, monkeypatch):
    route.run(jobs(4e3, 5e3))  # dropped: small segments go idle
    # Bigger cells, held: a return of theirs would take the idle bytes
    # past the high-water mark and unlink a name.
    box = route.run(jobs(6e3, 8e3, lanes=4 * LANES))
    arena = route.pool.arena
    state = (arena_names(arena), len(arena._busy), segments())
    child = multiprocessing.get_context("fork").Process(
        target=_drop_inherited, args=(box, arena)
    )
    child.start()
    child.join(WAIT_S)
    check(box, 6e3, 8e3, lanes=4 * LANES)
    return child.exitcode, (
        arena_names(arena), len(arena._busy), segments()
    ) == state


def workers_unmap_what_the_arena_unlinked(route, monkeypatch):
    route.run(jobs(4e3, 5e3))  # dropped: small segments go idle
    big = route.run(jobs(6e3, 8e3, lanes=4 * LANES))
    held = arena_names(route.pool.arena)
    del big  # idle past the high-water mark: the last returns are unlinked
    unlinked = held - arena_names(route.pool.arena)
    for _ in range(10):  # until every worker has run a task since
        check(route.run(jobs(4e3, 5e3)), 4e3, 5e3)
        if not any(
            unlinked_mappings(pid, unlinked)
            for pid in worker_pids(route.pool)
        ):
            return bool(unlinked), True
    return bool(unlinked), False


def full_directory_is_a_clean_error(route, monkeypatch):
    before = segments()
    route.run(jobs(4e3, 5e3))  # dropped: idle segments, freed for room
    queued = []
    map_async = multiprocessing.pool.Pool.map_async

    def counting(self, fn, tasks):
        queued.append(len(tasks))
        return map_async(self, fn, tasks)

    def full(fd, offset, length):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    with monkeypatch.context() as patch:
        patch.setattr(os, "posix_fallocate", full)
        patch.setattr(multiprocessing.pool.Pool, "map_async", counting)
        with pytest.raises(ReproError) as raised:
            route.run(jobs(6e3, 8e3, lanes=16 * LANES))
    outcome = (
        bool(re.search(r"no room for a \d+-byte", str(raised.value))),
        queued,
        segments() - before,
    )
    check(route.run(jobs(6e3, 8e3)), 6e3, 8e3)
    return outcome


def no_linux_is_a_clean_error(route, monkeypatch):
    before = segments()
    with monkeypatch.context() as patch:
        patch.delattr(os, "posix_fallocate")
        with pytest.raises(ReproError) as raised:
            route.run(jobs(6e3, 8e3))
    outcome = ("needs Linux" in str(raised.value), segments() - before)
    check(route.run(jobs(6e3, 8e3)), 6e3, 8e3)
    return outcome


def small_directory_keeps_room_for_a_larger_call(route, monkeypatch):
    small, large = dict(lanes=4 * LANES), dict(lanes=16 * LANES)
    need = chunk_bytes(jobs(6e3, 8e3, **small))
    larger = chunk_bytes(jobs(6e3, 8e3, **large))
    # Larger than the under three small calls' room that loans kept
    # while twice the landing chunk fits would leave.
    assert larger > 3 * need
    with monkeypatch.context() as patch:
        SmallDirectory(patch, 2 * (larger + need))
        held = [route.run(jobs(6e3, 8e3, **small)) for _ in range(8)]
        check(route.run(jobs(6e3, 8e3, **large)), 6e3, 8e3, **large)
    for results in held:
        check(results, 6e3, 8e3, **small)
    loaned = sum(on_loan(results) for results in held)
    return 0 < loaned < 2 * len(held)


def idle_room_comes_back_at_once(route, monkeypatch):
    first, second = dict(lanes=16 * LANES), dict(lanes=32 * LANES)
    with monkeypatch.context() as patch:
        SmallDirectory(
            patch,
            chunk_bytes(jobs(6e3, 8e3, **first))
            + chunk_bytes(jobs(8e3, **second)) // 2,
        )
        route.run(jobs(6e3, 8e3, **first))  # dropped: idle, mapped by workers
        # One job cut in two, so the default pool runs it too.
        check(route.run(jobs(8e3, shards=WIDTH, **second)), 8e3, **second)
    return True


def short_directory_copies_out(route, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(
            os, "statvfs",
            lambda path: types.SimpleNamespace(
                f_blocks=1 << 20, f_bavail=1, f_frsize=4096
            ),
        )
        results = route.run(jobs(6e3, 8e3))
    check(results, 6e3, 8e3)
    own = all(
        channel.base is None
        for result in results
        for channel in (result.m, result.b, result.updated,
                        *result.extras.values())
    )
    return own, len(route.pool.arena._busy)


def service_misses_and_an_eviction_return(monkeypatch):
    before = segments()
    monkeypatch.delenv(executor.MAX_WORKERS_ENV, raising=False)
    service = HysteresisService(WIDTH, cache_entries=1)
    try:
        requests = [cell(h_max)[:2] for h_max in (6e3, 8e3)]

        async def both():
            return await asyncio.gather(
                *(service.submit(spec, drive) for spec, drive in requests)
            )

        results = asyncio.run(both())
        check(results, 6e3, 8e3)
        busy = service.pool.arena._busy
        counts = [len(busy)]
        del results  # the evicted entry's segments come back
        gc.collect()
        counts.append(len(busy))
        service.cache.clear()
        gc.collect()
        counts.append(len(busy))
        assert segments() - before == arena_names(service.pool.arena)
    finally:
        service.close()
    return counts, service.cache.stats["evictions"], segments() - before


#: (id, event(route, monkeypatch), outcome).  The outcome is the exact
#: value the event returns; every event checks each result it gets bit
#: for bit.
LOANS = [
    ("second-identical-call-creates-no-segment",
     second_call_creates_nothing, set()),
    ("held-results-survive-two-later-calls",
     held_results_survive_later_calls, 8),
    ("slice-asarray-and-memoryview-keep-their-segments",
     views_keep_their_segment, (3, 0)),
    ("worker-failure-returns-each-segment-once-then-reuses-it",
     worker_failure_returns_each_segment_once, (True, (9, 0), set())),
    ("close-with-a-result-on-loan",
     close_with_a_result_on_loan, (set(), [], [])),
    ("forked-child-leaves-the-parents-arena",
     forked_child_leaves_the_parents_arena, (0, True)),
    ("forked-child-reads-an-inherited-result-the-parent-dropped",
     forked_child_reads_what_the_parent_dropped, 0),
    ("a-later-pool-maps-none-of-this-pools-segments",
     later_pool_maps_none_of_them, (True, [])),
    ("workers-unmap-what-the-arena-unlinked",
     workers_unmap_what_the_arena_unlinked, (True, True)),
    ("full-directory-is-a-clean-error-before-any-task",
     full_directory_is_a_clean_error, (True, [], set())),
    ("no-posix-fallocate-is-a-clean-error-naming-linux",
     no_linux_is_a_clean_error, (True, set())),
    ("short-directory-copies-results-out",
     short_directory_copies_out, (True, 0)),
    ("small-directory-keeps-room-for-a-call-over-twice-the-last",
     small_directory_keeps_room_for_a_larger_call, True),
    ("idle-room-comes-back-at-once-though-workers-mapped-it",
     idle_room_comes_back_at_once, True),
]


@pytest.fixture
def fresh(monkeypatch):
    """No default pool and no worker cap before a row; after it, no
    default pool and no segment name the row's pools made."""
    if not os.path.isdir(executor.SHM_DIR):
        pytest.skip(f"no {executor.SHM_DIR} to list segments in")
    close_default_pool()
    monkeypatch.delenv(executor.MAX_WORKERS_ENV, raising=False)
    before = segments()
    yield
    close_default_pool()
    assert segments() == before


@pytest.mark.parametrize("route_name", list(ROUTES))
@pytest.mark.parametrize(
    "event, outcome",
    [row[1:] for row in LOANS],
    ids=[row[0] for row in LOANS],
)
def test_loan_lifecycle(route_name, event, outcome, fresh, monkeypatch):
    route = ROUTES[route_name]()
    try:
        got = _finishes_within(WAIT_S, lambda: event(route, monkeypatch))
    finally:
        route.close()
    assert got.get("value") == outcome, got


def test_service_misses_and_an_eviction_return_their_segments(
    fresh, monkeypatch
):
    """Two misses in flight on a two-wide service with room for one
    cached entry: the client's results and the cache hold every segment
    on loan; dropping the results returns the evicted entry's, clearing
    the cache returns the rest, and none is left once it closes."""
    got = _finishes_within(
        WAIT_S, lambda: service_misses_and_an_eviction_return(monkeypatch)
    )
    assert got.get("value") == ([8, 4, 0], 1, set()), got
