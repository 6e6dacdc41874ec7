"""Every shard route, one bitwise contract.

The paper's timeless discretisation makes every core a self-contained
lane, and advances it on field increments alone, so cutting an
ensemble into lane shards and each shard's samples into row blocks,
and carrying them between processes, is pure transport.  Each case
here runs one drive through one route — in process, a one-shot fork
pool, a warm :class:`~repro.service.WorkerPool`, two in-process dist
agents, or the dispatcher's local drain with no reachable host — with
and without chunking, for every registered family plus a family with
int32 and bool extras, and checks the assembled result bit for bit
against the single-process :func:`repro.batch.sweep.run_batch_series`.
A segment table pins the property row blocks rest on: a run cut along
its sample axis, each segment resuming the last one's state, is the
whole run; and a table pins the row plan's tiling and bound.

The scenario grid gets the same treatment: each grid route (in
process, one-shot fork pool, a service cold and then fully cached, two
in-process agents, an unreachable fleet) runs over a duplicated
amplitude, one cell per chunk (lane-cut cells) and at the default chunk
size (whole cells on a pool or fleet), with and without chunking, and
every cell is checked bit for bit.  One table then pins every
route-argument conflict of every entry point: each raises
``ParameterError`` before a cache is read, an ensemble is built, a pool
forks or a connection opens.  Every entry point's default route runs without touching the
planner's calibration.  A table pins the route
:func:`~repro.parallel.executor.resolve_route` decides for each
accepted combination: pool width, lane threads, backend, hosts.  A
last table pins how many shards each job of a call is cut into, and a
spy on ``Pool`` pins how many processes a call forks.

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
from repro.parallel.blocks import (
    RowBlock,
    ShardAssembly,
    drain_shard,
    plan_row_blocks,
)
from repro.parallel import executor
from repro.parallel.executor import (
    execute_jobs_pooled,
    prepare_job,
    resolve_route,
    run_job_serial,
)
from repro.scenarios import scenario_samples
from repro.sched import ExecutionPlan, calibration, planner
from repro.service import HysteresisService, ResultCache, WorkerPool

from test_parallel import DTYPE_FAMILY, assert_results_bitwise_equal

if "fork" not in multiprocessing.get_all_start_methods():
    pytest.skip(
        "pool routes need fork: workers inherit the test family",
        allow_module_level=True,
    )

#: 7 lanes in 3 shards (3 + 2 + 2); chunk_lanes=2 cuts the 3-lane
#: shard's samples into two row blocks.  Pool routes cut at most
#: REPRO_PARALLEL_MAX_WORKERS shards (CI: 2, so 4 + 3, both cut).
N_CORES = 7
N_SHARDS = 3

#: The discard port: refused at once, so no host is reachable.
UNREACHABLE = "127.0.0.1:9"

#: Where POSIX shared-memory segments appear on Linux.
SHM_DIR = "/dev/shm"


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


# -- cutting the sample axis: segments, and the row plan -------------------

#: The drives and amplitudes (fractions of a family's ``h_scale``) the
#: segment table crosses with every family: shared waypoint drives, a
#: sampled waveform, and per-core reversal curves.
SEGMENT_SCENARIOS = [
    "major-loop", "minor-loop-ladder", "harmonic", "forc-family",
]
SEGMENT_AMPLITUDES = [0.4, 0.6, 0.8]


@pytest.mark.parametrize("segments", [2, 3, 7])
@pytest.mark.parametrize("amplitude", SEGMENT_AMPLITUDES)
@pytest.mark.parametrize("scenario", SEGMENT_SCENARIOS)
@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_segmented_run_matches_whole_run(name, scenario, amplitude, segments):
    """A run cut into near-even sample segments — the first from a
    reset, each later one resuming the state the last one left — lands,
    through the assembly and :func:`drain_shard`'s summed counters, as
    the whole run: ``m``, ``b``, ``updated``, extras with their dtypes,
    and counters."""
    family = get_family(name)
    h_max = amplitude * family.h_scale
    h = scenario_samples(scenario, h_max, h_max / 40.0, n_cores=N_CORES)
    batch = family.make_batch(N_CORES, seed=0)
    reference = run_batch_series(batch, h)
    job = prepare_job(batch, DriveSpec(samples=h), 1)
    (spec,) = job.specs
    segmented, n = spec.build_batch(), len(h)

    def blocks():
        for j in range(segments):
            r0, r1 = j * n // segments, (j + 1) * n // segments
            part = run_batch_series(segmented, h[r0:r1], reset=(r0 == 0))
            yield RowBlock(
                0, N_CORES, r0, r1, part.m, part.b, part.updated,
                part.extras, part.counters,
            )

    assembly = ShardAssembly(job)
    counters = drain_shard(spec, assembly.write_block, blocks())
    assembly.commit_shard(0, N_CORES, counters)
    assert_results_bitwise_equal(reference, assembly.result())


#: (id, width, samples, chunk_lanes, row ranges).  One block when
#: unchunked or at least as wide as the shard; otherwise the fewest
#: near-even blocks of at most chunk_lanes × samples lane-samples, one
#: row at the least.
ROW_PLANS = [
    ("unchunked", 7, 10, None, [(0, 10)]),
    ("as-wide-as-the-shard", 7, 10, 7, [(0, 10)]),
    ("wider-than-the-shard", 7, 10, 99, [(0, 10)]),
    ("half-width", 8, 10, 4, [(0, 5), (5, 10)]),
    ("fleet-cell", 32, 97, 8,
     [(0, 19), (19, 38), (38, 58), (58, 77), (77, 97)]),
    ("width-not-divided", 7, 10, 3, [(0, 3), (3, 6), (6, 10)]),
    ("one-lane-chunks", 4, 9, 1, [(0, 1), (1, 3), (3, 5), (5, 7), (7, 9)]),
    ("one-sample", 4, 1, 1, [(0, 1)]),
    ("one-row-over-the-bound", 8, 3, 1, [(0, 1), (1, 2), (2, 3)]),
]


@pytest.mark.parametrize(
    "width, samples, chunk_lanes, expected",
    [row[1:] for row in ROW_PLANS],
    ids=[row[0] for row in ROW_PLANS],
)
def test_row_plan(width, samples, chunk_lanes, expected):
    plan = plan_row_blocks(width, samples, chunk_lanes)
    assert plan == expected
    # Tiles [0, samples) in order, with no empty block.
    assert plan[0][0] == 0 and plan[-1][1] == samples
    assert all(r0 < r1 for r0, r1 in plan)
    assert all(a[1] == b[0] for a, b in zip(plan, plan[1:]))
    # Each block keeps the lane-sample bound, or is a single row ...
    bound = samples * min(width, chunk_lanes or width)
    assert all(
        (r1 - r0) * width <= bound or r1 - r0 == 1 for r0, r1 in plan
    )
    # ... and no fewer blocks could keep it.
    assert len(plan) == -(-samples // max(1, bound // width))


@pytest.mark.parametrize("bad", [(0, 5, 2), (4, 0, 2), (4, 5, 0)])
def test_row_plan_rejects_bad_arguments(bad):
    with pytest.raises(ParameterError):
        plan_row_blocks(*bad)


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
        block = RowBlock(
            start=0,
            stop=N_CORES,
            row_start=0,
            row_stop=samples,
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
@pytest.mark.parametrize(
    "chunk_cells", [1, grid_module.CHUNK_CELLS],
    ids=["lane-cut-cells", "whole-cells"],
)
def test_grid_route_matches_single_process(
    chunk_cells, route, chunk_lanes, request, monkeypatch
):
    # A chunk per cell cuts every cell N_SHARDS ways; the default chunk
    # holds all eight unique cells, which a pool or fleet runs whole.
    monkeypatch.setattr(grid_module, "CHUNK_CELLS", chunk_cells)
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


# -- every route-argument conflict, raised before any work -----------------

#: Stand-ins the table swaps for the live pool and service.
POOL, SERVICE = "<live WorkerPool>", "<live HysteresisService>"

PLAN = ExecutionPlan(backend="numpy", n_workers=2)
FLEET = [UNREACHABLE]
REPEATED = [UNREACHABLE, UNREACHABLE]

#: What a repeated host and an empty grid axis raise.
REPEATED_HOST = r"'127\.0\.0\.1:9' more than once.*n_workers="
EMPTY_AXIS = "at least one family, scenario and h_max"

#: The one drive and grid every entry point runs.
DRIVE = DriveSpec(scenario="major-loop", h_max=8e3, driver_step=400.0)
GRID_AXES = dict(
    families=["timeless"], scenarios=["major-loop"], h_max_values=[8e3]
)


def call_run_sharded(**route):
    return run_sharded(
        EnsembleSpec("timeless", 4), scenario="major-loop", h_max=8e3,
        driver_step=400.0, **route,
    )


def call_grid(**route):
    return run_scenario_grid(
        **{**GRID_AXES, **route}, n_cores=4, driver_step=400.0
    )


def call_run_distributed(**route):
    return run_distributed(
        EnsembleSpec("timeless", 4), scenario="major-loop", h_max=8e3,
        driver_step=400.0, **route,
    )


def call_service_run(service):
    return service.run(EnsembleSpec("timeless", 4), DRIVE)


def call_submit(service):
    async def submitted():
        return await service.submit(EnsembleSpec("timeless", 4), DRIVE)

    return asyncio.run(submitted())


def call_stream_grid(service, **route):
    async def first_cell():
        async for cell in service.stream_grid(
            **{**GRID_AXES, **route}, n_cores=4, driver_step=400.0
        ):
            return cell

    return asyncio.run(first_cell())


ENTRY_POINTS = {
    "run_sharded": call_run_sharded,
    "run_scenario_grid": call_grid,
    "run_distributed": call_run_distributed,
    "service.run": call_service_run,
    "service.submit": call_submit,
    "service.stream_grid": call_stream_grid,
}

CONFLICTS = [
    ("run_sharded", dict(plan="fast"), "plan must be"),
    ("run_sharded", dict(plan=PLAN, n_workers=2), "plan"),
    ("run_sharded", dict(plan="auto", n_workers=2), "plan"),
    ("run_sharded", dict(plan=ExecutionPlan(backend="no-such")), "backend"),
    ("run_sharded", dict(hosts=[]), "at least one"),
    ("run_sharded", dict(hosts=REPEATED), REPEATED_HOST),
    ("run_sharded", dict(hosts=FLEET, plan="auto"), "hosts= or plan="),
    ("run_sharded", dict(hosts=FLEET, plan=PLAN), "hosts= or plan="),
    ("run_sharded", dict(hosts=FLEET, mp_context="fork"), "remote shards"),
    ("run_sharded", dict(hosts=FLEET, pool=POOL), "remote shards"),
    ("run_sharded", dict(hosts=FLEET, n_workers=0), "n_workers"),
    ("run_sharded", dict(pool=POOL, n_workers=2), "pool width"),
    ("run_sharded", dict(pool=POOL, plan=PLAN), "pool width"),
    ("run_sharded", dict(pool=POOL, plan="auto"), "pool width"),
    ("run_sharded", dict(pool=POOL, mp_context="fork"), "start method"),
    ("run_scenario_grid", dict(hosts=[]), "at least one"),
    ("run_scenario_grid", dict(hosts=REPEATED), REPEATED_HOST),
    ("run_scenario_grid", dict(hosts=FLEET, mp_context="fork"),
     "remote shards"),
    ("run_scenario_grid", dict(hosts=FLEET, service=SERVICE),
     "remote shards"),
    ("run_scenario_grid", dict(service=SERVICE, n_workers=2), "pool width"),
    ("run_scenario_grid", dict(service=SERVICE, mp_context="fork"),
     "start method"),
    ("run_scenario_grid", dict(scenarios=[]), EMPTY_AXIS),
    ("run_scenario_grid", dict(h_max_values=[]), EMPTY_AXIS),
    ("run_distributed", dict(hosts=[]), "at least one"),
    ("run_distributed", dict(hosts=REPEATED), REPEATED_HOST),
    ("run_distributed", dict(hosts=FLEET, n_workers=0), "n_workers"),
    ("service.stream_grid", dict(families=[]), EMPTY_AXIS),
    ("service.stream_grid", dict(scenarios=[]), EMPTY_AXIS),
    ("service.stream_grid", dict(h_max_values=[]), EMPTY_AXIS),
]


@pytest.fixture
def nothing_runs(monkeypatch):
    """Fail any pool fork, connection, cache read, pool run or ensemble
    build."""

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
    monkeypatch.setattr(EnsembleSpec, "build_batch", forbid("a build"))


def conflict_id(entry, route) -> str:
    def label(key, value):
        if isinstance(value, ExecutionPlan):
            return f"plan={value.backend}"
        if value in (POOL, SERVICE) or value == FLEET:
            return key
        if isinstance(value, list):
            return f"{key}=repeated" if value else f"{key}=[]"
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


# -- no default route prices -------------------------------------------


def first_result(outcome):
    """The one result an entry point returned: a result, a cell, or a
    grid of one cell."""
    if isinstance(outcome, list):
        (outcome,) = outcome
    return getattr(outcome, "result", outcome)


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_default_route_never_touches_the_calibration(entry, monkeypatch):
    """Only ``run_sharded(plan="auto")`` prices a run.  Every entry
    point's default route runs without the planner's calibration:
    ``get_calibration`` writes ``results/calibration.json`` when it is
    missing, so a default route that priced would write into the tree."""

    def no_calibration(*args, **kwargs):
        raise AssertionError("a default route read the calibration")

    monkeypatch.setattr(planner, "get_calibration", no_calibration)
    monkeypatch.setattr(calibration, "get_calibration", no_calibration)
    with HysteresisService(1) as service:
        call = ENTRY_POINTS[entry]
        if entry.startswith("service."):
            call = functools.partial(call, service)
        outcome = call(hosts=FLEET) if entry == "run_distributed" else call()
    reference = run_batch_series(
        EnsembleSpec("timeless", 4).build_batch(), DRIVE.full_samples(4)
    )
    assert_results_bitwise_equal(reference, first_result(outcome))


# -- the route each accepted combination resolves to -----------------------

#: Stand-ins: the resolver reads a live pool's width and nothing else,
#: and never contacts a host.
WIDTH_3_POOL = types.SimpleNamespace(n_workers=3)
HOSTS = ["10.0.0.5:7501", "10.0.0.6:7501"]

#: (id, resolve_route arguments, REPRO_PARALLEL_MAX_WORKERS,
#:  (workers, threads, backend, hosts)) on an 8-CPU host.  ``workers``
#: is the pool or fleet width; lanes never clamp it (PLACEMENTS pins
#: where they do).
ROUTE_SHAPES = [
    ("all-cpus", dict(), None, (8, 1, None, ())),
    ("cpu-cap", dict(), "2", (2, 1, None, ())),
    ("n_workers", dict(n_workers=3), None, (3, 1, None, ())),
    ("pool-width", dict(pool=WIDTH_3_POOL), "2", (3, 1, None, ())),
    ("shard-per-host", dict(hosts=HOSTS), None, (2, 1, None, tuple(HOSTS))),
    # The CPU cap bounds local pools, never the shards sent to hosts.
    ("hosts-n_workers", dict(hosts=HOSTS, n_workers=5), "1",
     (5, 1, None, tuple(HOSTS))),
    ("plan-capped", dict(plan=PLAN), "1", (1, 1, "numpy", ())),
    ("plan-mp_context", dict(plan=PLAN, mp_context="spawn"), None,
     (2, 1, "numpy", ())),
    ("plan-threads-clamped",
     dict(plan=ExecutionPlan(backend="numpy", threads_per_worker=64)),
     None, (1, 8, "numpy", ())),
]


@pytest.fixture
def eight_cpus(monkeypatch):
    monkeypatch.setattr(executor, "available_cpus", lambda: 8)
    monkeypatch.delenv(executor.MAX_WORKERS_ENV, raising=False)


def never_priced():
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
    assert chosen.mp_context == route.get("mp_context")


def test_auto_route_is_priced_when_settled(eight_cpus):
    """``plan="auto"`` prices nothing until the caller settles it, then
    exactly once and with no arguments: the run is priced cold, on a
    one-shot pool of its own, and takes the priced plan's shape."""
    priced = []

    def price(*args, **kwargs):
        priced.append((args, kwargs))
        return ExecutionPlan(backend="numpy", n_workers=4)

    settle = resolve_route("auto")
    assert priced == []
    chosen = settle(price)
    assert priced == [((), {})]
    assert (chosen.workers, chosen.threads, chosen.backend, chosen.pool) == (
        4, 1, "numpy", None,
    )


# -- how many shards each job is cut into ----------------------------------

#: (id, cells in the chunk, resolve_route arguments, lanes,
#:  (pool or fleet width, shards per job)) on an 8-CPU host.  Every
#: route cuts each cell ceil(width / cells) ways, clamped to its lanes;
#: a single run is a chunk of one.
PLACEMENTS = [
    ("lone-cell-cut-in-two", 1, dict(n_workers=2), 512, (2, 2)),
    ("two-cells-whole", 2, dict(n_workers=2), 512, (2, 1)),
    ("eight-cells-whole", 8, dict(n_workers=2), 512, (2, 1)),
    ("eight-cells-on-sixteen", 8, dict(n_workers=16), 512, (16, 2)),
    ("three-cells-on-eight", 3, dict(n_workers=8), 512, (8, 3)),
    ("one-lane-cells", 8, dict(n_workers=2), 1, (2, 1)),
    ("serial", 8, dict(n_workers=1), 512, (1, 1)),
    ("service-pool", 8, dict(pool=WIDTH_3_POOL), 64, (3, 1)),
    ("fleet-n_workers", 8, dict(hosts=HOSTS, n_workers=3), 32, (3, 1)),
    ("fleet-lone-cell", 1, dict(hosts=HOSTS, n_workers=3), 32, (3, 3)),
    # Formerly ROUTE_SHAPES rows, whose width the lanes used to clamp:
    # the route keeps the pool width, the cut keeps the lane clamp.
    ("no-wider-than-lanes", 1, dict(n_workers=8), 2, (8, 2)),
    ("pool-wider-than-lanes", 1, dict(pool=WIDTH_3_POOL), 2, (3, 2)),
    ("hosts-few-lanes", 1, dict(hosts=HOSTS), 1, (2, 1)),
]


@pytest.mark.parametrize(
    "cells, route, lanes, expected",
    [row[1:] for row in PLACEMENTS],
    ids=[row[0] for row in PLACEMENTS],
)
def test_placement(cells, route, lanes, expected, eight_cpus):
    chosen = resolve_route(**route)(never_priced)
    job = prepare_job(
        EnsembleSpec("timeless", lanes), DRIVE, chosen.shards_per_job(cells)
    )
    assert (chosen.workers, len(job.specs)) == expected


# -- what a call forks ----------------------------------------------------


@pytest.fixture
def forks(monkeypatch):
    """The ``processes`` of every pool forked, in order, with no
    worker cap in the environment."""
    widths = []
    real_pool = multiprocessing.context.BaseContext.Pool

    def spy(self, processes=None, *args, **kwargs):
        widths.append(processes)
        return real_pool(self, processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", spy)
    monkeypatch.delenv(executor.MAX_WORKERS_ENV, raising=False)
    return widths


def test_grid_of_one_lane_cells_runs_on_a_pool(forks):
    """Sixteen 1-lane cells cannot be cut, so the pool runs them whole,
    in parallel, instead of all in this process."""
    amplitudes = [2e3 * k for k in range(1, 9)]
    cells = run_scenario_grid(
        ["preisach"], ["major-loop", "forc-family"], amplitudes, 1,
        driver_step=100.0, n_workers=2,
    )
    assert forks == [2]
    for cell in cells:
        reference = run_batch_series(
            EnsembleSpec("preisach", 1).build_batch(),
            scenario_samples(cell.scenario, cell.h_max, 100.0, n_cores=1),
        )
        assert_results_bitwise_equal(reference, cell.result)


@pytest.mark.parametrize(
    "lanes, n_workers, expected",
    [(1, 2, []), (2, 8, [2])],
    ids=["one-lane-runs-here", "no-wider-than-its-shards"],
)
def test_single_run_forks_no_wider_than_its_shards(
    lanes, n_workers, expected, forks
):
    result = run_sharded(
        EnsembleSpec("timeless", lanes), scenario="major-loop", h_max=8e3,
        driver_step=400.0, n_workers=n_workers,
    )
    assert forks == expected
    reference = run_batch_series(
        EnsembleSpec("timeless", lanes).build_batch(),
        DRIVE.full_samples(lanes),
    )
    assert_results_bitwise_equal(reference, result)
