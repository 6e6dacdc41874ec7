"""Every shard route, one bitwise contract.

The paper's timeless discretisation makes every core a self-contained
lane, so cutting an ensemble into shards and lane blocks and carrying
them between processes is pure transport.  Each case here runs one
drive through one route — in process, a one-shot fork pool, a warm
:class:`~repro.service.WorkerPool`, two in-process dist agents, or the
dispatcher's local drain with no reachable host — with and without
lane chunking, for every registered family plus a family with int32 and
bool extras, and checks the assembled result bit for bit against the
single-process :func:`repro.batch.sweep.run_batch_series`.

The scenario grid gets the same treatment: each grid route (in
process, one-shot fork pool, a service cold and then fully cached, two
in-process agents, an unreachable fleet) runs one cell per chunk over a
duplicated amplitude, with and without lane chunking, and every cell is
checked bit for bit.  One table then pins every route-argument
conflict of every entry point: each raises ``ParameterError`` before a
cache is read, a pool forks or a connection opens.  A last table pins
the route :func:`~repro.parallel.executor.resolve_route` decides for
each accepted combination: shard count, lane threads, backend, hosts.

The routes are case functions crossed with the families, in the
cross-strategy idiom of probdiffeq's solver tests: a new route or a new
family is covered with one line.
"""

import asyncio
import dataclasses
import functools
import logging
import multiprocessing
import multiprocessing.context
import os
import types

import numpy as np
import pytest

from repro.batch.sweep import run_batch_series
from repro.dist import Dispatcher, WorkerAgent, run_distributed
from repro.errors import DistError, ParameterError
from repro.models.registry import (
    ModelFamily,
    get_family,
    list_families,
    register_family,
    unregister_family,
)
from repro.parallel import (
    DriveSpec,
    EnsembleSpec,
    run_scenario_grid,
    run_sharded,
)
from repro.parallel import grid as grid_module
from repro.parallel.blocks import LaneBlock, ShardAssembly
from repro.parallel import executor
from repro.parallel.executor import (
    execute_jobs_pooled,
    prepare_job,
    resolve_route,
    run_job_serial,
)
from repro.scenarios import scenario_samples
from repro.sched import ExecutionPlan
from repro.service import HysteresisService, ResultCache, WorkerPool

from test_parallel import DtypeExtrasShardedBatch, assert_results_bitwise_equal

if "fork" not in multiprocessing.get_all_start_methods():
    pytest.skip(
        "pool routes need fork: workers inherit the test family",
        allow_module_level=True,
    )

#: 7 lanes in 3 shards (3 + 2 + 2); chunk_lanes=2 cuts the first shard
#: into a 2- and a 1-lane block.  Pool routes cut at most
#: REPRO_PARALLEL_MAX_WORKERS shards (CI: 2, so 4 + 3).
N_CORES = 7
N_SHARDS = 3

#: The discard port: refused at once, so no host is reachable.
UNREACHABLE = "127.0.0.1:9"

#: Where POSIX shared-memory segments appear on Linux.
SHM_DIR = "/dev/shm"


class ShardableDtypeBatch(DtypeExtrasShardedBatch):
    """The int32/bool extras family, able to cut lane blocks."""

    family = "dtype-extras-routes"

    def shard(self, start: int, stop: int) -> "ShardableDtypeBatch":
        return ShardableDtypeBatch(self._mult[start:stop])


DTYPE_FAMILY = ModelFamily(
    name=ShardableDtypeBatch.family,
    description="int32/bool extras across every shard route",
    make_models=lambda n, seed: list(range(1, n + 1)),
    stack=lambda models: ShardableDtypeBatch(list(models)),
    extras_channels=(("event_count", "<i4"), ("armed", "|b1")),
    counter_channels=("steps",),
    batch_from_payload=lambda payload: ShardableDtypeBatch(**payload),
)

FAMILY_NAMES = [family.name for family in list_families()] + [
    DTYPE_FAMILY.name
]


@pytest.fixture(scope="module", autouse=True)
def dtype_family():
    """Registered before any pool forks, so every worker knows it."""
    register_family(DTYPE_FAMILY)
    try:
        yield DTYPE_FAMILY
    finally:
        unregister_family(DTYPE_FAMILY.name)


@pytest.fixture(scope="module")
def warm_pool(dtype_family):
    with WorkerPool(N_SHARDS, mp_context="fork") as pool:
        yield pool


@pytest.fixture(scope="module")
def fleet():
    with WorkerAgent() as a, WorkerAgent() as b:
        yield [a.address, b.address]


def workload(name: str):
    """A fresh live batch and a per-core FORC drive (2-D samples, so
    every route slices columns on both sides)."""
    family = get_family(name)
    h = scenario_samples(
        "forc-family", family.h_scale, family.h_scale / 40.0, n_cores=N_CORES
    )
    return family.make_batch(N_CORES, seed=0), h


# -- routes: (batch, h, chunk_lanes, request) -> BatchSweepResult ---------


def route_serial(batch, h, chunk_lanes, request):
    return run_sharded(batch, h, n_workers=1, chunk_lanes=chunk_lanes)


def route_fork_pool(batch, h, chunk_lanes, request):
    return run_sharded(
        batch, h, n_workers=N_SHARDS, mp_context="fork",
        chunk_lanes=chunk_lanes,
    )


def route_warm_pool(batch, h, chunk_lanes, request):
    pool = request.getfixturevalue("warm_pool")
    return run_sharded(batch, h, pool=pool, chunk_lanes=chunk_lanes)


def route_dispatched(batch, h, chunk_lanes, request):
    hosts = request.getfixturevalue("fleet")
    return run_distributed(
        batch, h, hosts=hosts, n_workers=N_SHARDS, chunk_lanes=chunk_lanes
    )


def route_local_drain(batch, h, chunk_lanes, request):
    job = prepare_job(
        batch, DriveSpec(samples=h), N_SHARDS, chunk_lanes=chunk_lanes
    )
    with Dispatcher([UNREACHABLE], connect_timeout_s=1.0) as dispatcher:
        assert dispatcher.n_live == 0
        (result,) = dispatcher.run_jobs([job])
    return result


ROUTES = {
    "serial": route_serial,
    "fork-pool": route_fork_pool,
    "warm-pool": route_warm_pool,
    "dispatched": route_dispatched,
    "local-drain": route_local_drain,
}


@pytest.mark.parametrize("chunk_lanes", [None, 2])
@pytest.mark.parametrize("route", list(ROUTES))
@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_route_matches_single_process(name, route, chunk_lanes, request):
    batch, h = workload(name)
    reference = run_batch_series(batch, h)
    result = ROUTES[route](batch, h, chunk_lanes, request)
    assert_results_bitwise_equal(reference, result)


# -- the one extras-schema check, on every route ---------------------------


def stale_job():
    """A timeless job whose extras schema no longer matches what the
    family records — as a stale registry declaration would leave it."""
    batch, h = workload("timeless")
    job = prepare_job(batch, DriveSpec(samples=h), N_SHARDS)
    schema = dict(job.extras_schema, bogus=np.dtype(np.int32))
    return dataclasses.replace(job, extras_schema=schema)


class TestExtrasSchemaCheck:
    def test_block_with_drifted_dtype_is_rejected(self):
        batch, h = workload(DTYPE_FAMILY.name)
        job = prepare_job(batch, DriveSpec(samples=h), 1)
        assembly = ShardAssembly(job)
        samples = len(h)
        block = LaneBlock(
            start=0,
            stop=N_CORES,
            m=np.zeros((samples, N_CORES)),
            b=np.zeros((samples, N_CORES)),
            updated=np.zeros((samples, N_CORES), dtype=bool),
            extras={
                "event_count": np.zeros((samples, N_CORES)),  # float64
                "armed": np.zeros((samples, N_CORES), dtype=bool),
            },
        )
        with pytest.raises(ParameterError, match="float64.*int32.*stale"):
            assembly.write_block(block)

    def test_serial_route_rejects_a_stale_schema(self):
        with pytest.raises(ParameterError, match="bogus.*stale"):
            run_job_serial(stale_job())

    def test_pool_route_rejects_a_stale_schema(self, warm_pool):
        with pytest.raises(ParameterError, match="bogus.*stale"):
            warm_pool.execute([stale_job()])

    def test_one_shot_pool_releases_its_segments_on_failure(self):
        def segments():
            return {n for n in os.listdir(SHM_DIR) if n.startswith("psm_")}

        if not os.path.isdir(SHM_DIR):
            pytest.skip(f"no {SHM_DIR} to list segments in")
        before = segments()
        with multiprocessing.get_context("fork").Pool(2) as pool:
            with pytest.raises(ParameterError, match="bogus"):
                execute_jobs_pooled(pool, [stale_job()])
            assert segments() == before
            # The pool survives the failed job and serves the next one.
            batch, h = workload("timeless")
            job = prepare_job(batch, DriveSpec(samples=h), 2)
            (result,) = execute_jobs_pooled(pool, [job])
        assert_results_bitwise_equal(run_batch_series(batch, h), result)

    def test_dispatched_route_fails_the_job_and_names_the_shard(self, fleet):
        with Dispatcher(fleet, deadline_s=30.0) as dispatcher:
            with pytest.raises(
                DistError,
                match=r"(?s)shard \[\d+, \d+\) failed dispatcher-side"
                r".*ParameterError.*bogus",
            ):
                dispatcher.run_jobs([stale_job()])


# -- grid routes: (chunk_lanes, request) -> list[GridCell] -----------------

#: One scenario with per-core drives; the first amplitude is requested
#: twice, so every grid also collapses a duplicate cell.
GRID_SCENARIO = "forc-family"
GRID_H_MAX = [5e3, 1e4, 5e3]
GRID_STEP = 500.0


def grid(chunk_lanes, **route):
    return run_scenario_grid(
        FAMILY_NAMES, [GRID_SCENARIO], GRID_H_MAX, N_CORES,
        driver_step=GRID_STEP, chunk_lanes=chunk_lanes, **route,
    )


@pytest.fixture(scope="module")
def grid_service(dtype_family):
    with HysteresisService(N_SHARDS, mp_context="fork") as svc:
        yield svc


def grid_serial(chunk_lanes, request):
    return grid(chunk_lanes, n_workers=1)


def grid_fork_pool(chunk_lanes, request):
    return grid(chunk_lanes, n_workers=N_SHARDS, mp_context="fork")


def grid_service_cold_then_cached(chunk_lanes, request):
    service = request.getfixturevalue("grid_service")
    service.cache.clear()
    cold = grid(chunk_lanes, service=service)
    misses = service.cache.stats["misses"]
    cached = grid(chunk_lanes, service=service)
    assert service.cache.stats["misses"] == misses
    for first, second in zip(cold, cached):
        assert second.result is first.result  # the same frozen entries
    return cached


def grid_dispatched(chunk_lanes, request):
    hosts = request.getfixturevalue("fleet")
    return grid(chunk_lanes, hosts=hosts, n_workers=N_SHARDS)


def grid_unreachable_fleet(chunk_lanes, request):
    caplog = request.getfixturevalue("caplog")
    with caplog.at_level(logging.WARNING, logger="repro.dist.dispatch"):
        cells = grid(chunk_lanes, hosts=[UNREACHABLE])
    assert any(
        "degrading to the local executor" in record.message
        for record in caplog.records
    )
    return cells


GRID_ROUTES = {
    "serial": grid_serial,
    "fork-pool": grid_fork_pool,
    "service": grid_service_cold_then_cached,
    "dispatched": grid_dispatched,
    "unreachable": grid_unreachable_fleet,
}


@pytest.mark.parametrize("chunk_lanes", [None, 2])
@pytest.mark.parametrize("route", list(GRID_ROUTES))
def test_grid_route_matches_single_process(
    route, chunk_lanes, request, monkeypatch
):
    monkeypatch.setattr(grid_module, "CHUNK_CELLS", 1)  # a chunk per cell
    cells = GRID_ROUTES[route](chunk_lanes, request)
    assert [cell.key for cell in cells] == [
        (name, GRID_SCENARIO, h_max)
        for name in FAMILY_NAMES
        for h_max in GRID_H_MAX
    ]
    # The duplicated amplitude is served the same result object.
    for name in FAMILY_NAMES:
        first, _, again = [c for c in cells if c.family == name]
        assert again.result is first.result
    for cell in cells:
        reference = run_batch_series(
            EnsembleSpec(cell.family, N_CORES).build_batch(),
            scenario_samples(
                GRID_SCENARIO, cell.h_max, GRID_STEP, n_cores=N_CORES
            ),
        )
        assert_results_bitwise_equal(reference, cell.result)


def test_auto_plan_with_hosts_names_what_works(fleet):
    """No plan places shards on hosts, so ``plan="auto"`` with hosts is
    rejected, and the message points at what does dispatch:
    ``hosts=`` alone, with ``n_workers=`` as the shard count."""
    with pytest.raises(ParameterError) as raised:
        run_sharded(
            EnsembleSpec("timeless", 4), scenario="major-loop", h_max=8e3,
            driver_step=400.0, plan="auto", hosts=fleet,
        )
    message = str(raised.value)
    assert "plan='auto'" not in message
    assert 'plan="auto"' not in message
    assert "hosts= without plan=" in message
    assert "n_workers=" in message


class TestPlanCheckedOnHitAndMiss:
    """A bad plan raises whether or not the cache holds the result."""

    @pytest.fixture
    def service(self):
        with HysteresisService(1) as svc:
            yield svc

    def test_service_run(self, service):
        spec = EnsembleSpec("timeless", 4)
        cached = DriveSpec(scenario="major-loop", h_max=8e3, driver_step=400.0)
        missing = DriveSpec(scenario="major-loop", h_max=4e3, driver_step=400.0)
        service.run(spec, cached)
        for drive in (cached, missing):
            with pytest.raises(ParameterError, match="plan must be"):
                service.run(spec, drive, plan="fast")

    @pytest.mark.parametrize(
        "plan, match",
        [("fast", "plan must be"),
         (ExecutionPlan(backend="numba-missing"), "backend")],
    )
    def test_grid_through_a_service(self, service, plan, match):
        kwargs = dict(
            families=["timeless"], scenarios=["major-loop"], n_cores=4,
            driver_step=400.0, service=service,
        )
        run_scenario_grid(h_max_values=[8e3], **kwargs)
        for h_values in ([8e3], [4e3]):  # every cell cached, then a miss
            with pytest.raises(ParameterError, match=match):
                run_scenario_grid(h_max_values=h_values, plan=plan, **kwargs)


# -- every route-argument conflict, raised before any work -----------------

#: Stand-ins the table swaps for the live pool and service.
POOL, SERVICE = "<live WorkerPool>", "<live HysteresisService>"

PLAN = ExecutionPlan(backend="numpy", n_workers=2)
FLEET = [UNREACHABLE]


def call_run_sharded(**route):
    return run_sharded(
        EnsembleSpec("timeless", 4), scenario="major-loop", h_max=8e3,
        driver_step=400.0, **route,
    )


def call_grid(**route):
    return run_scenario_grid(
        ["timeless"], ["major-loop"], [8e3], 4, driver_step=400.0, **route
    )


def call_run_distributed(**route):
    return run_distributed(
        EnsembleSpec("timeless", 4), scenario="major-loop", h_max=8e3,
        driver_step=400.0, **route,
    )


def service_entry(method):
    def call(service, **route):
        drive = DriveSpec(scenario="major-loop", h_max=8e3, driver_step=400.0)
        return getattr(service, method)(
            EnsembleSpec("timeless", 4), drive, **route
        )

    return call


def call_stream_grid(service, **route):
    async def first_cell():
        async for cell in service.stream_grid(
            ["timeless"], ["major-loop"], [8e3], 4, driver_step=400.0,
            **route,
        ):
            return cell

    return asyncio.run(first_cell())


ENTRY_POINTS = {
    "run_sharded": call_run_sharded,
    "run_scenario_grid": call_grid,
    "run_distributed": call_run_distributed,
    "service.run": service_entry("run"),
    "service.submit": service_entry("submit"),
    "service.stream_grid": call_stream_grid,
}

CONFLICTS = [
    ("run_sharded", dict(plan="fast"), "plan must be"),
    ("run_sharded", dict(plan=PLAN, n_workers=2), "plan"),
    ("run_sharded", dict(plan="auto", n_workers=2), "plan"),
    ("run_sharded", dict(plan=ExecutionPlan(backend="no-such")), "backend"),
    ("run_sharded", dict(hosts=[]), "at least one"),
    ("run_sharded", dict(hosts=FLEET, plan="auto"), "hosts= or plan="),
    ("run_sharded", dict(hosts=FLEET, plan=PLAN), "hosts= or plan="),
    ("run_sharded", dict(hosts=FLEET, mp_context="fork"), "remote shards"),
    ("run_sharded", dict(hosts=FLEET, pool=POOL), "remote shards"),
    ("run_sharded", dict(hosts=FLEET, n_workers=0), "n_workers"),
    ("run_sharded", dict(pool=POOL, n_workers=2), "pool width"),
    ("run_sharded", dict(pool=POOL, mp_context="fork"), "start method"),
    ("run_scenario_grid", dict(plan="fast"), "plan must be"),
    ("run_scenario_grid", dict(plan=PLAN, n_workers=2), "plan"),
    ("run_scenario_grid", dict(plan=PLAN, backend="numpy"), "plan"),
    ("run_scenario_grid", dict(plan="auto", backend="numpy"), "plan"),
    ("run_scenario_grid", dict(plan="auto", n_workers=2), "plan"),
    ("run_scenario_grid", dict(plan=ExecutionPlan(backend="no-such")),
     "backend"),
    ("run_scenario_grid", dict(hosts=[]), "at least one"),
    ("run_scenario_grid", dict(hosts=FLEET, plan="auto"), "run_sharded"),
    ("run_scenario_grid", dict(hosts=FLEET, plan=PLAN), "hosts= or plan="),
    ("run_scenario_grid", dict(hosts=FLEET, mp_context="fork"),
     "remote shards"),
    ("run_scenario_grid", dict(hosts=FLEET, service=SERVICE),
     "remote shards"),
    ("run_scenario_grid", dict(service=SERVICE, n_workers=2), "pool width"),
    ("run_scenario_grid", dict(service=SERVICE, mp_context="fork"),
     "start method"),
    ("run_scenario_grid", dict(service=SERVICE, plan="fast"), "plan must be"),
    ("run_scenario_grid",
     dict(service=SERVICE, plan=ExecutionPlan(backend="numba-missing")),
     "backend"),
    ("run_scenario_grid", dict(service=SERVICE, plan=PLAN, backend="numpy"),
     "plan"),
    ("run_distributed", dict(hosts=[]), "at least one"),
    ("run_distributed", dict(hosts=FLEET, n_workers=0), "n_workers"),
    ("service.run", dict(plan="fast"), "plan must be"),
    ("service.run", dict(plan=ExecutionPlan(backend="no-such")), "backend"),
    ("service.submit", dict(plan="fast"), "plan must be"),
    ("service.submit", dict(plan=ExecutionPlan(backend="no-such")),
     "backend"),
    ("service.stream_grid", dict(plan="fast"), "plan must be"),
    ("service.stream_grid", dict(plan=ExecutionPlan(backend="no-such")),
     "backend"),
]


@pytest.fixture
def nothing_runs(monkeypatch):
    """Fail any pool fork, connection, cache read or pool run."""

    def forbid(what):
        def fail(*args, **kwargs):
            raise AssertionError(f"{what} before the route was checked")

        return fail

    monkeypatch.setattr(
        multiprocessing.context.BaseContext, "Pool", forbid("a pool fork")
    )
    monkeypatch.setattr(Dispatcher, "__init__", forbid("a connection"))
    monkeypatch.setattr(ResultCache, "get", forbid("a cache read"))
    monkeypatch.setattr(WorkerPool, "execute", forbid("a pool run"))


def conflict_id(entry, route) -> str:
    def label(key, value):
        if isinstance(value, ExecutionPlan):
            return f"plan={value.backend}"
        if value in (POOL, SERVICE) or isinstance(value, list):
            return key if value else f"{key}=[]"
        return f"{key}={value}"

    return "-".join([entry] + [label(*item) for item in route.items()])


@pytest.mark.parametrize(
    "entry, route, match",
    CONFLICTS,
    ids=[conflict_id(entry, route) for entry, route, _ in CONFLICTS],
)
def test_route_conflict_raises_before_any_work(
    entry, route, match, nothing_runs
):
    with HysteresisService(1) as service:
        live = {POOL: service.pool, SERVICE: service}
        route = {
            key: live[value] if value in (POOL, SERVICE) else value
            for key, value in route.items()
        }
        call = ENTRY_POINTS[entry]
        if entry.startswith("service."):
            call = functools.partial(call, service)
        with pytest.raises(ParameterError, match=match):
            call(**route)


# -- the route each accepted combination resolves to -----------------------

#: Stand-ins: the resolver reads a live pool's width and nothing else,
#: and never contacts a host.
WIDTH_3_POOL = types.SimpleNamespace(n_workers=3)
HOSTS = ["10.0.0.5:7501", "10.0.0.6:7501"]

#: (id, resolve_route arguments, REPRO_PARALLEL_MAX_WORKERS,
#:  (workers, threads, backend, hosts)) on an 8-CPU host.
ROUTE_SHAPES = [
    ("all-cpus", dict(lanes=64), None, (8, 1, None, ())),
    ("cpu-cap", dict(lanes=64), "2", (2, 1, None, ())),
    ("n_workers", dict(lanes=64, n_workers=3), None, (3, 1, None, ())),
    ("no-wider-than-lanes", dict(lanes=2, n_workers=8), None,
     (2, 1, None, ())),
    ("pool-width", dict(lanes=64, pool=WIDTH_3_POOL), "2",
     (3, 1, None, ())),
    ("shard-per-host", dict(lanes=64, hosts=HOSTS), None,
     (2, 1, None, tuple(HOSTS))),
    # The CPU cap bounds local pools, never the shards sent to hosts.
    ("hosts-n_workers", dict(lanes=64, hosts=HOSTS, n_workers=5), "1",
     (5, 1, None, tuple(HOSTS))),
    ("hosts-few-lanes", dict(lanes=1, hosts=HOSTS), None,
     (1, 1, None, tuple(HOSTS))),
    ("plan-capped", dict(plan=PLAN, lanes=64), "1", (1, 1, "numpy", ())),
    ("plan-in-pool",
     dict(plan=ExecutionPlan(backend="numpy", n_workers=6), lanes=64,
          pool=WIDTH_3_POOL),
     None, (3, 1, "numpy", ())),
    ("plan-threads-clamped",
     dict(plan=ExecutionPlan(backend="numpy", threads_per_worker=64),
          lanes=64),
     None, (1, 8, "numpy", ())),
]


@pytest.fixture
def eight_cpus(monkeypatch):
    monkeypatch.setattr(executor, "available_cpus", lambda: 8)
    monkeypatch.delenv(executor.MAX_WORKERS_ENV, raising=False)


def never_priced(**pricing):
    raise AssertionError("only plan='auto' is priced")


@pytest.mark.parametrize(
    "route, cap, expected",
    [row[1:] for row in ROUTE_SHAPES],
    ids=[row[0] for row in ROUTE_SHAPES],
)
def test_route_shape(route, cap, expected, eight_cpus, monkeypatch):
    if cap is not None:
        monkeypatch.setenv(executor.MAX_WORKERS_ENV, cap)
    chosen = resolve_route(**route)(never_priced)
    assert (
        chosen.workers, chosen.threads, chosen.backend, chosen.hosts
    ) == expected
    assert chosen.pool is route.get("pool")


def test_auto_route_is_priced_when_settled(eight_cpus):
    """``plan="auto"`` prices nothing until the caller settles it, then
    once: spin-up-free on a live pool and pinned to the cache's
    backend, and the priced plan is clamped to the pool's width."""
    priced = []

    def price(**pricing):
        priced.append(pricing)
        return ExecutionPlan(backend="numpy", n_workers=4)

    settle = resolve_route(
        "auto", lanes=64, pool=WIDTH_3_POOL, cache_backend="numpy"
    )
    assert priced == []
    chosen = settle(price)
    assert priced == [dict(warm_pool=True, backend="numpy")]
    assert (chosen.workers, chosen.threads, chosen.backend) == (
        3, 1, "numpy",
    )
