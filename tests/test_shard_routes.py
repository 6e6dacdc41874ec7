"""Every shard route, one bitwise contract.

The paper's timeless discretisation makes every core a self-contained
lane, and advances it on field increments alone, so cutting an
ensemble into lane shards and each shard's samples into row blocks,
and carrying them between processes, is pure transport.  Each case
here runs one drive through one route — in process, the default fork
pool, a warm :class:`~repro.service.WorkerPool`, two in-process dist
agents, or the dispatcher's local drain with no reachable host — with
and without chunking, for every registered family plus a family with
int32 and bool extras, and checks the assembled result bit for bit
against the single-process :func:`repro.batch.sweep.run_batch_series`.
A segment table pins the property row blocks rest on: a run cut along
its sample axis, each segment resuming the last one's state, is the
whole run; and a table pins the row plan's tiling and bound.

The scenario grid gets the same treatment: each grid route (in
process, the default fork pool, a service cold and then fully cached, two
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
table pins how many shards each job of a call is cut into, and a spy
on ``Pool`` pins how many processes a call forks.  A last table pins
the process-wide default pool's lifecycle: when it forks, is reused and
re-forks, that a forked child leaves it alone, and that closing it, a
worker-side error or several threads at once under a streamed grid
each have one exact outcome; a subprocess pins a clean exit with a
grid still streaming through it.

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
import re
import subprocess
import sys
import threading
import types
from pathlib import Path

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
from repro.parallel import pool as pool_module
from repro.parallel.executor import (
    SHM_DIR,
    execute_jobs_pooled,
    prepare_job,
    resolve_route,
    run_jobs_serial,
)
from repro.parallel.pool import close_default_pool
from repro.scenarios import Scenario, register_scenario, scenario_samples
from repro.scenarios import registry as scenario_registry
from repro.sched import ExecutionPlan, calibration, planner
from repro.service import HysteresisService, ResultCache, WorkerPool

from test_dist import _finishes_within
from test_parallel import (
    DTYPE_FAMILY,
    arena_names,
    assert_results_bitwise_equal,
    registered,
    segments,
    timeless_variant,
)

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
            run_jobs_serial([stale_job()])

    def test_pool_route_rejects_a_stale_schema(self, warm_pool):
        with pytest.raises(ParameterError, match="bogus.*stale"):
            warm_pool.execute([stale_job()])

    def test_one_shot_pool_releases_its_segments_on_failure(self):
        if not os.path.isdir(SHM_DIR):
            pytest.skip(f"no {SHM_DIR} to list segments in")
        before = segments()
        arena = executor.SegmentArena()
        try:
            with multiprocessing.get_context("fork").Pool(2) as pool:
                with pytest.raises(ParameterError, match="bogus"):
                    execute_jobs_pooled(pool, [[stale_job()]], 2, arena)
                assert segments() - before == arena_names(arena)
                assert not arena._busy
                # The pool survives the failed job and serves the next one.
                batch, h = workload("timeless")
                job = prepare_job(batch, DriveSpec(samples=h), 2)
                (result,) = execute_jobs_pooled(pool, [[job]], 2, arena)
        finally:
            arena.close()
        assert segments() == before
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


#: The grid routes that run on this host, and so run a chunk as stacks.
LOCAL_GRID_ROUTES = ("serial", "fork-pool", "service")


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
    # holds all eight unique cells, which a pool or fleet runs whole,
    # and which this host's routes stack: each family's two cells,
    # unequal in length, as one stack.
    monkeypatch.setattr(grid_module, "CHUNK_CELLS", chunk_cells)
    stacks = []
    real_stacks = executor.chunk_stacks

    def recorded(jobs, width):
        cut = real_stacks(jobs, width)
        stacks.extend(
            [(jobs[j].family, len(jobs[j].h_full)) for j, _ in members]
            for members in cut
        )
        return cut

    monkeypatch.setattr(executor, "chunk_stacks", recorded)
    cells = GRID_ROUTES[route](chunk_lanes, request)
    if route not in LOCAL_GRID_ROUTES:
        assert stacks == []  # a fleet's agents take shards, not stacks
    elif chunk_cells == 1:
        assert {len(members) for members in stacks} == {1}
    else:
        families = sorted(members[0][0] for members in stacks)
        assert families == sorted(FAMILY_NAMES)
        for (family, short), (same, long) in stacks:
            assert family == same and short < long
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


# -- scenarios registered after the workers started ------------------------


def _late_walks(h_max, driver_step, n_cores):
    """A ramp up, down and below zero, each core at its own amplitude."""
    ramp = np.arange(0.0, h_max, driver_step)
    walk = np.concatenate([ramp, ramp[::-1], -ramp])
    return walk[:, None] * np.linspace(0.5, 1.0, n_cores)


#: Registered by the test only once every pool and agent has started:
#: one walk every core shares (a 1-D drive), and one per core.
LATE_SHARED = Scenario(
    name="late-registered-shared-walk",
    description="shared, registered after the workers started",
    waypoint_builder=lambda h: [0.0, h, -0.5 * h],
)
LATE_PER_CORE = Scenario(
    name="late-registered-per-core-walk",
    description="per-core, registered after the workers started",
    sample_builder=_late_walks,
    per_core=True,
)

#: Three cells fill a pool or fleet of up to three workers: whole cells.
LATE_H_MAX = [4e3, 6e3, 8e3]


@pytest.fixture
def agent_processes():
    """Two ``python -m repro.dist.worker`` processes: unlike in-process
    agents, they know only what the library registers."""
    from test_dist_smoke import _spawn

    agents = []
    try:
        for _ in range(2):
            agents.append(_spawn())
        yield [address for _, address in agents]
    finally:
        for proc, _ in agents:
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()


def late_grid(scenario, **route):
    cells = run_scenario_grid(
        ["timeless"], [scenario], LATE_H_MAX, N_CORES,
        driver_step=GRID_STEP, **route,
    )
    return [(cell.h_max, cell.result) for cell in cells]


def late_drive(scenario, h_max):
    return DriveSpec(scenario=scenario, h_max=h_max, driver_step=GRID_STEP)


# Each route starts its transport, then returns the call to make once
# the scenario is registered: scenario name -> [(h_max, result)].


def late_serial(request):
    return functools.partial(late_grid, n_workers=1)


def late_default_pool(request):
    lifecycle_grid()  # the default pool forks before the scenario exists
    return functools.partial(late_grid, n_workers=2)


def late_spawned_pool(request):
    request.addfinalizer(close_default_pool)
    return functools.partial(late_grid, n_workers=2, mp_context="spawn")


def late_caller_pool(request):
    pool = request.getfixturevalue("warm_pool")

    def call(scenario):
        return [
            (h_max, run_sharded(
                EnsembleSpec("timeless", N_CORES), scenario=scenario,
                h_max=h_max, driver_step=GRID_STEP, pool=pool,
            ))
            for h_max in LATE_H_MAX
        ]

    return call


def late_service_runs(request):
    service = request.getfixturevalue("grid_service")
    service.cache.clear()

    def call(scenario):
        return [
            (h_max, service.run(
                EnsembleSpec("timeless", N_CORES), late_drive(scenario, h_max)
            ))
            for h_max in LATE_H_MAX
        ]

    return call


def late_service_grid(request):
    service = request.getfixturevalue("grid_service")
    service.cache.clear()
    return functools.partial(late_grid, service=service)


def late_fleet(request):
    hosts = request.getfixturevalue("agent_processes")
    return functools.partial(late_grid, hosts=hosts, n_workers=2)


#: (id, route, scenario, how its drive travels).  Only this process and
#: the default fork pool, which re-forks when the registry changes,
#: share this process's scenarios, so only they get a drive by name (a
#: per-core one of a whole cell); a spawned pool, a caller's or a
#: service's pool and a fleet's agents get its samples, a shared drive
#: whole and a per-core one as each shard's columns.  Single runs on a
#: pool are lane-cut, grid cells whole.
LATE_ROUTES = [
    (f"{route_id}-{kind}", route, scenario, travels)
    for kind, scenario in (("shared", LATE_SHARED), ("per-core", LATE_PER_CORE))
    for route_id, route, travels in (
        ("serial-names-the-drive", late_serial, "name"),
        ("default-pool-re-forks-and-names-the-drive", late_default_pool,
         "name"),
        ("spawned-pool-gets-the-samples", late_spawned_pool, "samples"),
        ("caller-pool-gets-the-samples", late_caller_pool, "samples"),
        ("service-miss-gets-the-samples", late_service_runs, "samples"),
        ("service-grid-gets-the-samples", late_service_grid, "samples"),
        ("fleet-agents-get-the-samples", late_fleet, "samples"),
    )
]


@pytest.mark.parametrize(
    "route, scenario, travels",
    [row[1:] for row in LATE_ROUTES],
    ids=[row[0] for row in LATE_ROUTES],
)
def test_late_scenario_runs_on_every_route(
    route, scenario, travels, request, monkeypatch
):
    """A scenario registered after the route's workers started, shared
    or per-core, runs on every route, bit for bit: its drive travels by
    name only where the workers share this process's scenarios."""
    call = route(request)
    monkeypatch.setattr(
        scenario_registry, "_SCENARIOS", dict(scenario_registry._SCENARIOS)
    )
    register_scenario(scenario)
    jobs = []
    real_prepare = executor.prepare_job

    def recorded(*args, **kwargs):
        jobs.append(real_prepare(*args, **kwargs))
        return jobs[-1]

    monkeypatch.setattr(grid_module, "prepare_job", recorded)
    monkeypatch.setattr(executor, "prepare_job", recorded)
    results = call(scenario.name)
    assert len(jobs) == len(LATE_H_MAX)
    for job in jobs:
        for spec in job.specs:
            if travels == "name":
                assert spec.drive.scenario == scenario.name
            else:
                own = (
                    job.h_full if job.h_full.ndim == 1
                    else job.h_full[:, spec.start : spec.stop]
                )
                assert spec.drive.scenario is None
                assert np.array_equal(spec.drive.samples, own)
    assert [h_max for h_max, _ in results] == LATE_H_MAX
    for h_max, result in results:
        reference = run_batch_series(
            EnsembleSpec("timeless", N_CORES).build_batch(),
            scenario_samples(scenario.name, h_max, GRID_STEP, n_cores=N_CORES),
        )
        assert_results_bitwise_equal(reference, result)


# -- every route-argument conflict, raised before any work -----------------

#: Stand-ins the table swaps for the live pool and service.
POOL, SERVICE = "<live WorkerPool>", "<live HysteresisService>"

PLAN = ExecutionPlan(backend="numpy", n_workers=2)
FLEET = [UNREACHABLE]
REPEATED = [UNREACHABLE, UNREACHABLE]

#: What a repeated host, a bare-string (or bytes) host and an empty
#: grid axis raise.
REPEATED_HOST = r"'127\.0\.0\.1:9' more than once.*n_workers="
BARE_HOST = r"not one string: pass hosts=\['127\.0\.0\.1:9'\]"
BARE_BYTES_HOST = r"not one string: pass hosts=\[b'127\.0\.0\.1:9'\]"
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
    ("run_sharded", dict(pool=POOL, n_workers=2), "pool width"),
    ("run_sharded", dict(pool=POOL, plan=PLAN), "pool width"),
    ("run_sharded", dict(pool=POOL, plan="auto"), "pool width"),
    ("run_sharded", dict(pool=POOL, mp_context="fork"), "start method"),
    ("run_scenario_grid", dict(hosts=[]), "at least one"),
    ("run_scenario_grid", dict(hosts=REPEATED), REPEATED_HOST),
    ("run_scenario_grid", dict(hosts=UNREACHABLE), BARE_HOST),
    ("run_scenario_grid", dict(hosts=UNREACHABLE.encode()), BARE_BYTES_HOST),
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
    ("run_distributed", dict(hosts=UNREACHABLE), BARE_HOST),
    ("run_distributed", dict(hosts=UNREACHABLE.encode()), BARE_BYTES_HOST),
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
        if isinstance(value, bytes):
            return f"{key}=bare-bytes"
        if isinstance(value, ExecutionPlan):
            return f"plan={value.backend}"
        if value in (POOL, SERVICE) or value == FLEET:
            return key
        if isinstance(value, list):
            return f"{key}=repeated" if value else f"{key}=[]"
        if value == UNREACHABLE:
            return f"{key}=bare-string"
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
    exactly once and with no arguments: the run is priced cold, whatever
    pools this process holds, and takes the priced plan's shape."""
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


# -- what a call forks, and the default pool's lifecycle ------------------


@pytest.fixture
def forks(monkeypatch):
    """The ``processes`` of every pool forked, in order, with no worker
    cap in the environment, starting from no default pool and leaving
    none behind."""
    widths = []
    real_pool = multiprocessing.context.BaseContext.Pool

    def spy(self, processes=None, *args, **kwargs):
        widths.append(processes)
        return real_pool(self, processes, *args, **kwargs)

    close_default_pool()
    monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", spy)
    monkeypatch.delenv(executor.MAX_WORKERS_ENV, raising=False)
    yield widths
    close_default_pool()


def test_grid_of_one_lane_cells_runs_on_a_pool(forks, caplog):
    """Sixteen 1-lane cells cannot be cut, so the pool runs them whole,
    in parallel, instead of all in this process; the pool outlives the
    call, and a second grid forks nothing.  The fork is logged with its
    width and reason."""
    amplitudes = [2e3 * k for k in range(1, 9)]
    for _ in range(2):
        with caplog.at_level(logging.INFO, logger=pool_module.__name__):
            cells = run_scenario_grid(
                ["preisach"], ["major-loop", "forc-family"], amplitudes, 1,
                driver_step=100.0, n_workers=2,
            )
        assert forks == [2]
        assert [
            record.getMessage() for record in caplog.records
            if record.name == pool_module.__name__
        ] == ["forked the default pool: 2 workers (first need)"]
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
    """A run forks the default pool as wide as its shards, and the same
    run again reuses it."""
    for _ in range(2):
        result = run_sharded(
            EnsembleSpec("timeless", lanes), scenario="major-loop",
            h_max=8e3, driver_step=400.0, n_workers=n_workers,
        )
        assert forks == expected
        reference = run_batch_series(
            EnsembleSpec("timeless", lanes).build_batch(),
            DRIVE.full_samples(lanes),
        )
        assert_results_bitwise_equal(reference, result)


#: The small grid every lifecycle row runs: 4 lanes, two amplitudes.
LIFECYCLE_LANES = 4
LIFECYCLE_STEP = 400.0

#: Registered only after the default pool forked.
LATE_SCENARIO = Scenario(
    name="late-registered-walk",
    description="registered after the default pool forked",
    waypoint_builder=lambda h: [0.0, h, -0.5 * h],
)


def lifecycle_grid(
    families=("timeless",), scenarios=("major-loop",), n_workers=2,
    amplitudes=(4e3, 8e3),
):
    """A grid on the default route, every cell checked bit for bit."""
    cells = run_scenario_grid(
        list(families), list(scenarios), list(amplitudes), LIFECYCLE_LANES,
        driver_step=LIFECYCLE_STEP, n_workers=n_workers,
    )
    for cell in cells:
        reference = run_batch_series(
            EnsembleSpec(cell.family, LIFECYCLE_LANES).build_batch(),
            scenario_samples(
                cell.scenario, cell.h_max, LIFECYCLE_STEP,
                n_cores=LIFECYCLE_LANES,
            ),
        )
        # The engine labels its result with the batch's family; the
        # grid labels each cell with the registered name.
        assert_results_bitwise_equal(
            dataclasses.replace(reference, family=cell.family), cell.result
        )
    return cells


def first_call(forks, monkeypatch):
    lifecycle_grid()
    return forks


def same_width_again(forks, monkeypatch):
    lifecycle_grid()
    lifecycle_grid(amplitudes=(5e3, 6e3, 7e3))
    run_sharded(
        EnsembleSpec("timeless", LIFECYCLE_LANES), scenario="major-loop",
        h_max=8e3, driver_step=LIFECYCLE_STEP, n_workers=2,
    )
    return forks


def wider_call(forks, monkeypatch):
    lifecycle_grid()
    lifecycle_grid(n_workers=3, amplitudes=(4e3, 6e3, 8e3))
    return forks


def thousand_workers_on_two_lanes(forks, monkeypatch):
    result = run_sharded(
        EnsembleSpec("timeless", 2), scenario="major-loop", h_max=8e3,
        driver_step=LIFECYCLE_STEP, n_workers=1000,
    )
    reference = run_batch_series(
        EnsembleSpec("timeless", 2).build_batch(), DRIVE.full_samples(2)
    )
    assert_results_bitwise_equal(reference, result)
    return forks


def family_registered_after_the_fork(forks, monkeypatch):
    lifecycle_grid()
    with registered(timeless_variant(
        get_family("timeless").make_models, "late-registered-family"
    )):
        lifecycle_grid(families=("late-registered-family",))
    return forks


def scenario_registered_after_the_fork(forks, monkeypatch):
    lifecycle_grid()
    monkeypatch.setattr(
        scenario_registry, "_SCENARIOS", dict(scenario_registry._SCENARIOS)
    )
    register_scenario(LATE_SCENARIO)
    lifecycle_grid(scenarios=(LATE_SCENARIO.name,))
    return forks


def _child_runs_its_own_pool(writer):
    """In a forked child: the parent's pool is forgotten, not closed,
    and the child's own grid forks a pool of its own."""
    (inherited,) = pool_module._inherited
    forgot = pool_module._default is None and not inherited.closed
    lifecycle_grid()
    own = pool_module._default is not None
    pool_module.close_default_pool()
    writer.send((forgot, own, inherited.closed))
    writer.close()


def forked_child(forks, monkeypatch):
    lifecycle_grid()
    parent = pool_module._default
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)
    child = context.Process(target=_child_runs_its_own_pool, args=(writer,))
    child.start()
    writer.close()
    try:
        assert reader.poll(30.0), "the child never reported"
        report = reader.recv()
    finally:
        reader.close()
        child.join(30.0)
    # The parent's pool still serves, unclosed and unforked.
    lifecycle_grid()
    assert pool_module._default is parent and not parent.closed
    return report, child.exitcode, forks


def close_mid_stream(forks, monkeypatch):
    """Close the default pool while a grid streams its second chunk."""
    streaming = threading.Event()
    real_execute = grid_module.execute_jobs_pooled

    def announcing(pool, chunks, width, arena):
        def drawn():
            for index, jobs in enumerate(chunks):
                if index == 1:
                    streaming.set()  # chunk 0 is queued, chunk 1 drawn
                yield jobs

        return real_execute(pool, drawn(), width, arena)

    monkeypatch.setattr(grid_module, "execute_jobs_pooled", announcing)
    outcome = {}

    def grid():
        try:
            outcome["cells"] = lifecycle_grid(
                amplitudes=[1e3 * k for k in range(1, 17)]
            )
        except BaseException as exc:  # reported by the assertion below
            outcome["error"] = exc

    runner = threading.Thread(target=grid, daemon=True)
    runner.start()
    assert streaming.wait(30.0), "the grid never streamed"
    close_default_pool()
    runner.join(30.0)
    assert not runner.is_alive() and "error" not in outcome, outcome
    return len(outcome["cells"]), pool_module._default, forks


def worker_error_mid_stream(forks, monkeypatch):
    """Chunk 0's workers fail while chunk 1 is in flight."""

    def failing(n, seed):
        raise ParameterError("recipe failed in a worker")

    with registered(timeless_variant(failing, "fails-in-workers")):
        # Eight failing cells fill chunk 0; chunk 1 is eight good ones.
        lifecycle_grid(
            families=("fails-in-workers", "timeless"),
            amplitudes=[1e3 * k for k in range(1, 9)],
        )


#: Each thread's amplitudes: more threads than this host's two CPUs,
#: one grid streaming two chunks.
THREAD_AMPLITUDES = (
    [1e3 * k for k in range(1, 13)],
    [3e3, 5e3, 7e3, 9e3],
    [2e3, 4e3, 6e3],
)


def threads_at_once(forks, monkeypatch):
    """Grids on several threads at once, the interpreter switching
    threads as often as it can: one fork, every cell bitwise."""
    outcome = {}
    start = threading.Barrier(len(THREAD_AMPLITUDES), timeout=30.0)

    def grid(key, amplitudes):
        try:
            start.wait()
            outcome[key] = len(lifecycle_grid(amplitudes=amplitudes))
        except BaseException as exc:  # reported by the return value
            outcome[key] = exc

    threads = [
        threading.Thread(target=grid, args=(key, amplitudes), daemon=True)
        for key, amplitudes in enumerate(THREAD_AMPLITUDES)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return outcome, forks


def test_default_pool_streams_two_chunks_at_most(forks, monkeypatch):
    """A grid's chunks stream: chunk i+1 is laid out and queued before
    chunk i is collected, and no third chunk is laid out before the
    first one lands."""
    events = []

    class Recorded(executor._Flight):
        def __init__(self, pool, jobs, width, arena):
            events.append(("queue", len(jobs)))
            super().__init__(pool, jobs, width, arena)

        def land(self):
            events.append(("land", len(self.assemblies)))
            return super().land()

    monkeypatch.setattr(executor, "_Flight", Recorded)
    lifecycle_grid(amplitudes=[1e3 * k for k in range(1, 21)])
    assert events == [
        ("queue", 8), ("queue", 8), ("land", 8),
        ("queue", 4), ("land", 8), ("land", 4),
    ]


#: (id, call(forks, monkeypatch), outcome).  The outcome is an
#: (exception type, message regex) or the exact value the call returns;
#: every call checks each result it gets bit for bit.
LIFECYCLE = [
    ("first-call-forks-once", first_call, [2]),
    ("same-width-forks-nothing", same_width_again, [2]),
    ("wider-call-re-forks", wider_call, [2, 3]),
    ("thousand-workers-on-two-lanes-fork-two",
     thousand_workers_on_two_lanes, [2]),
    ("family-registered-after-the-fork-re-forks",
     family_registered_after_the_fork, [2, 2]),
    ("scenario-registered-after-the-fork-re-forks",
     scenario_registered_after_the_fork, [2, 2]),
    ("forked-child-never-uses-the-parents-pool", forked_child,
     ((True, True, False), 0, [2])),
    ("close-mid-stream-waits", close_mid_stream, (16, None, [2])),
    ("worker-error-mid-stream", worker_error_mid_stream,
     (ParameterError, "recipe failed in a worker")),
    ("threads-at-once", threads_at_once, ({0: 12, 1: 4, 2: 3}, [2])),
]


@pytest.mark.parametrize(
    "call, outcome",
    [row[1:] for row in LIFECYCLE],
    ids=[row[0] for row in LIFECYCLE],
)
def test_default_pool_lifecycle(call, outcome, forks, monkeypatch):
    """Each lifecycle event of the default pool has one exact outcome,
    within a bounded wall time, leaves no shared-memory segment but the
    live pool's own, none once it closes, and leaves a pool (or none)
    that serves the next call."""
    if not os.path.isdir(SHM_DIR):
        pytest.skip(f"no {SHM_DIR} to list segments in")
    before = segments()
    got = _finishes_within(60.0, lambda: call(forks, monkeypatch))
    if isinstance(outcome, tuple) and isinstance(outcome[0], type):
        kind, pattern = outcome
        assert isinstance(got.get("error"), kind), got
        assert re.search(pattern, str(got["error"])), got["error"]
    else:
        assert got.get("value") == outcome, got
    live = pool_module._default
    assert segments() - before == (
        set() if live is None else arena_names(live.arena)
    )
    assert "error" not in _finishes_within(30.0, lifecycle_grid)
    close_default_pool()
    assert segments() == before


EXIT_MID_STREAM = """
import threading

from repro.parallel import grid, run_scenario_grid

streaming = threading.Event()
real_execute = grid.execute_jobs_pooled


def announcing(workers, chunks, width, arena):
    def drawn():
        for index, jobs in enumerate(chunks):
            if index == 1:
                streaming.set()  # chunk 0 is queued, chunk 1 drawn
            yield jobs

    return real_execute(workers, drawn(), width, arena)


grid.execute_jobs_pooled = announcing
campaign = threading.Thread(
    target=run_scenario_grid,
    args=(["timeless", "preisach"], ["major-loop", "forc-family"],
          [1e3 * k for k in range(1, 5)], 4),
    kwargs=dict(driver_step=100.0, n_workers=2),
    daemon=True,
)
campaign.start()
assert streaming.wait(240.0)
"""


def test_process_exits_with_the_default_pool_alive():
    """A process that leaves its default pool live, a grid still
    streaming through it on a daemon thread, exits cleanly in dev mode
    with resource warnings as errors: the exit waits for the call in
    flight, so no segment is left or reported leaked."""
    if not os.path.isdir(SHM_DIR):
        pytest.skip(f"no {SHM_DIR} to list segments in")
    before = segments()
    src = Path(executor.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop(executor.MAX_WORKERS_ENV, None)
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-c", EXIT_MID_STREAM],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "ResourceWarning" not in done.stderr, done.stderr
    assert "leaked" not in done.stderr, done.stderr
    assert segments() == before
