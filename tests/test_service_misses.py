"""A service's misses in flight side by side, one exact outcome each.

The paper's timeless discretisation advances every core on its own
field increments alone, so two requests' ensembles can run in two
processes at once without changing a bit.  A
:class:`~repro.service.HysteresisService` therefore runs its misses
side by side on its pool, with no call-wide lock, each cut by the
grid's placement rule applied to requests:
``shards_per_job(misses in flight)``, so a lone miss spans the pool
and misses in flight together run whole.

One table, in ``BAD_PEERS``' idiom (``tests/test_dist.py``), maps a
pool width, the requests sent at once and an injected fault to one
exact outcome within a bounded wall time: which route each miss took,
the shards each was cut into, which request raised what, and that every
result is bitwise its single-process run and no shared-memory segment
or in-flight entry is left.  Events hold the requests where the row
needs them, never sleeps: each miss's count waits until every owner of
the row has taken ownership, and no pooled miss lands before every one
of them is queued (so a lock that ran them one at a time fails the row).
A hypothesis property then sends random request lists, duplicates
included, from several client threads to one spilling service.
"""

import asyncio
import os
import threading
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.sweep import run_batch_series
from repro.errors import ParameterError
from repro.models.registry import get_family
from repro.parallel import pool as pool_module
from repro.parallel.executor import SHM_DIR
from repro.parallel.spec import DriveSpec, EnsembleSpec
from repro.service import HysteresisService

from test_dist import _finishes_within
from test_parallel import (
    arena_names,
    assert_results_bitwise_equal,
    registered,
    segments,
    timeless_variant,
)


#: How long any request of a row may wait for the others.
WAIT_S = 30.0

#: Lanes per request: cut 2 or 3 ways on a lone miss.
LANES = 7

#: Registered only after a row's service forked its workers, which
#: resolve families by name: their miss fails in its worker.
LATE_FAMILY = "late-registered-family"

#: The requests rows and the property draw from: ``(family, seed,
#: h_max)`` over one major loop at a fixed step.
CATALOGUE = {
    "a": ("timeless", 1, 8e3),
    "b": ("timeless", 2, 6e3),
    "c": ("time-domain", 3, 8e3),
    "d": ("timeless", 1, 4e3),
    LATE_FAMILY: (LATE_FAMILY, 1, 8e3),
}


def request(key):
    family, seed, h_max = CATALOGUE[key]
    return (
        EnsembleSpec(family, LANES, seed=seed),
        DriveSpec(scenario="major-loop", h_max=h_max, driver_step=400.0),
    )


_REFERENCES: dict = {}


def reference(key):
    """The request's single-process run, computed once per process."""
    if key not in _REFERENCES:
        spec, drive = request(key)
        _REFERENCES[key] = run_batch_series(
            spec.build_batch(), drive.full_samples(LANES)
        )
    return _REFERENCES[key]


def in_flight(service) -> int:
    """Entries left in the service's in-flight table (no spy's hold)."""
    return dict.__len__(service._inflight)


class Meeting:
    """Where one row's requests meet.

    It stands in for the service's in-flight table (a ``dict``: owners
    take entries, a coalesced waiter finds one) and for the pool's
    ``execute_jobs_pooled`` and ``run_jobs_serial``.  A miss reads its
    count only once ``owners`` misses own an entry; a pooled miss lands
    only once every owner's miss is queued, every twin has coalesced,
    and, when the row closes the service, ``close()`` has begun.  It
    records the route and shards of every miss."""

    def __init__(self, owners: int, twins: int, closes: bool) -> None:
        self.owners, self.twins, self.closes = owners, twins, closes
        self.changed = threading.Condition()
        self.gathered = False
        self.queued = self.coalesced = 0
        self.closing = False
        self.runs: list = []  # (route, shards) per computed miss

    def until(self, ready, what: str) -> None:
        with self.changed:
            assert self.changed.wait_for(ready, WAIT_S), f"never {what}"

    def note(self, **counts) -> None:
        """Add to the named counters and wake every waiter."""
        with self.changed:
            for name, value in counts.items():
                setattr(self, name, getattr(self, name) + value)
            self.changed.notify_all()

    def close_begun(self) -> None:
        with self.changed:
            self.closing = True
            self.changed.notify_all()

    def table(self):
        """The service's in-flight table, spied on by this meeting."""
        meeting = self

        class Table(dict):
            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                meeting.note()

            def get(self, key, default=None):
                found = super().get(key, default)
                if found is not None:
                    meeting.note(coalesced=1)
                return found

            def __len__(self):
                with meeting.changed:
                    assert meeting.changed.wait_for(
                        lambda: meeting.gathered
                        or dict.__len__(self) >= meeting.owners,
                        WAIT_S,
                    ), "the row's misses never all took ownership"
                    meeting.gathered = True
                return dict.__len__(self)

        return Table()

    def landed(self) -> bool:
        return (
            self.queued >= self.owners
            and self.coalesced >= self.twins
            and (self.closing or not self.closes)
        )

    def pooled(self, real):
        """``execute_jobs_pooled``, recording and holding each miss."""
        meeting = self

        class Held:
            def __init__(self, pending):
                self.pending = pending

            def get(self):
                meeting.until(meeting.landed, "all queued before any landed")
                return self.pending.get()

            def wait(self):
                self.pending.wait()

        class Pool:
            def __init__(self, pool):
                self.pool = pool

            def map_async(self, fn, tasks):
                pending = Held(self.pool.map_async(fn, tasks))
                meeting.note(queued=1)
                return pending

        def execute(pool, chunks, width, arena):
            chunks = [list(jobs) for jobs in chunks]
            for jobs in chunks:
                meeting.runs.extend(("pool", len(job.specs)) for job in jobs)
            return real(Pool(pool), chunks, width, arena)

        return execute

    def serial(self, real):
        """``run_jobs_serial``, recording the thread each miss ran on."""

        def run(jobs):
            name = threading.current_thread().name
            self.runs.extend(
                (f"in-process:{name.split('_')[0]}", len(job.specs))
                for job in jobs
            )
            return real(jobs)

        return run


def send(service, keys):
    """Every request at once through the async front door; one result
    or exception per request."""

    async def main():
        return await asyncio.gather(
            *(service.submit(*request(key)) for key in keys),
            return_exceptions=True,
        )

    return asyncio.run(main())


#: What a request for a family registered after the fork raises.
UNKNOWN_LATE = (ParameterError, f"unknown model family '{LATE_FAMILY}'")

#: (id, pool width, requests sent at once (catalogue keys: a repeated
#: key is a coalesced twin), fault, (route, shards) of every computed
#: miss, the error of each failing request by index).  A lone miss is
#: cut over the pool, and misses in flight together run whole.
CONCURRENT_MISSES = [
    ("lone-miss-cut-over-the-pool", 2, ["a"], None,
     [("pool", 2)], {}),
    ("two-misses-whole-and-side-by-side", 2, ["a", "b"], None,
     [("pool", 1), ("pool", 1)], {}),
    ("coalesced-twin-counts-for-nothing", 3, ["a", "a", "b"], None,
     [("pool", 2), ("pool", 2)], {}),
    ("width-one-runs-in-process-on-the-dispatch-threads", 1, ["a", "b"],
     None, [("in-process:hysteresis", 1)] * 2, {}),
    ("one-of-two-fails-in-its-worker", 2, ["a", LATE_FAMILY], "late",
     [("pool", 1), ("pool", 1)], {1: UNKNOWN_LATE}),
    ("close-lets-both-land", 2, ["a", "b"], "close",
     [("pool", 1), ("pool", 1)], {}),
]


@pytest.mark.skipif(not os.path.isdir(SHM_DIR), reason=f"no {SHM_DIR}")
@pytest.mark.parametrize(
    "width, keys, fault, runs, errors",
    [row[1:] for row in CONCURRENT_MISSES],
    ids=[row[0] for row in CONCURRENT_MISSES],
)
def test_concurrent_misses_get_their_one_outcome(
    width, keys, fault, runs, errors, monkeypatch
):
    """Requests sent at once to a service ``width`` workers wide get the
    row's one outcome: each miss's route and shards, each failure's
    exact error, every other answer bitwise, and nothing left behind."""
    monkeypatch.delenv("REPRO_PARALLEL_MAX_WORKERS", raising=False)
    owners = len(set(keys))
    meeting = Meeting(owners, len(keys) - owners, closes=fault == "close")
    monkeypatch.setattr(
        pool_module, "execute_jobs_pooled",
        meeting.pooled(pool_module.execute_jobs_pooled),
    )
    monkeypatch.setattr(
        pool_module, "run_jobs_serial",
        meeting.serial(pool_module.run_jobs_serial),
    )
    before = segments()
    service = HysteresisService(width, dispatch_threads=len(keys))
    try:
        assert service.pool.n_workers == width
        service._inflight = meeting.table()
        with registered(timeless_variant(
            get_family("timeless").make_models, LATE_FAMILY
        )) if fault == "late" else nullcontext():
            if fault == "close":
                got = _closed_under(service, meeting, keys)
            else:
                got = _finishes_within(2 * WAIT_S, lambda: send(service, keys))
            assert "error" not in got, got["error"]
            results = got["value"]
            assert in_flight(service) == 0
            if fault == "late":
                # The failure left nothing behind: the next request
                # computes, alone, so cut over the pool.
                misses = service.cache.stats["misses"]
                again = _finishes_within(WAIT_S, lambda: send(service, ["c"]))
                assert_results_bitwise_equal(reference("c"), again["value"][0])
                assert service.cache.stats["misses"] == misses + 1
                assert meeting.runs[-1] == ("pool", 2)
                del meeting.runs[-1]
    finally:
        service.close()
    assert sorted(meeting.runs) == sorted(runs)
    for index, (key, result) in enumerate(zip(keys, results)):
        if index in errors:
            kind, message = errors[index]
            assert type(result) is kind, result
            assert message in str(result), result
        else:
            assert_results_bitwise_equal(reference(key), result)
    for index, key in enumerate(keys):
        # A twin is served its owner's frozen entry.
        first = keys.index(key)
        if first != index and index not in errors:
            assert results[index] is results[first]
    assert in_flight(service) == 0
    assert segments() - before == set()


def _closed_under(service, meeting, keys) -> dict:
    """Send the row's requests, then close the service once every miss
    is queued: the misses are held until ``close()`` has begun."""
    real_close = service.close

    def close():
        meeting.close_begun()
        real_close()

    service.close = close
    sent: dict = {}
    sender = threading.Thread(
        target=lambda: sent.update(
            _finishes_within(2 * WAIT_S, lambda: send(service, keys))
        ),
        daemon=True,
    )
    sender.start()
    meeting.until(lambda: meeting.queued >= meeting.owners, "all queued")
    closed = _finishes_within(WAIT_S, service.close)
    assert "error" not in closed, closed["error"]
    sender.join(2 * WAIT_S)
    assert not sender.is_alive(), "a miss never landed after close()"
    assert service.pool.closed
    return sent


# -- any requests from any clients, one bitwise answer each ----------------


@pytest.fixture(scope="module")
def spilling_service(tmp_path_factory):
    """One two-worker service whose cache holds two entries in memory
    and spills every entry, so requests also hit the disk.  Once it
    closes, none of its segments is left."""
    before = segments()
    with HysteresisService(
        2, cache_entries=2, dispatch_threads=3,
        cache_dir=tmp_path_factory.mktemp("spill"),
    ) as service:
        yield service
    assert segments() - before == set()


CLIENT_KEYS = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=4)


@pytest.mark.skipif(not os.path.isdir(SHM_DIR), reason=f"no {SHM_DIR}")
@settings(max_examples=8, deadline=None)
@given(clients=st.lists(CLIENT_KEYS, min_size=2, max_size=3))
def test_clients_get_bitwise_answers(spilling_service, clients):
    """Two or three client threads send their request lists at once,
    duplicates included: every answer is bitwise the request's
    single-process run, every request counts one hit or one miss, and
    no in-flight entry is left, nor any segment but the service pool's
    own."""
    service = spilling_service
    service.cache.clear(spilled=True)
    before_stats, before = service.cache.stats, segments()
    start = threading.Barrier(len(clients))
    answers: list = [None] * len(clients)

    def client(index):
        start.wait(WAIT_S)
        answers[index] = [service.run(*request(key)) for key in clients[index]]

    threads = [
        threading.Thread(target=client, args=(index,), daemon=True)
        for index in range(len(clients))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(2 * WAIT_S)
        assert not thread.is_alive(), "a client never got its answers"
    for keys, got in zip(clients, answers):
        assert got is not None and len(got) == len(keys)
        for key, result in zip(keys, got):
            assert_results_bitwise_equal(reference(key), result)
    stats = service.cache.stats
    counted = sum(
        stats[name] - before_stats[name] for name in ("hits", "misses")
    )
    assert counted == sum(len(keys) for keys in clients)
    assert in_flight(service) == 0
    assert segments() - before <= arena_names(service.pool.arena)
