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

The routes are case functions crossed with the families, in the
cross-strategy idiom of probdiffeq's solver tests: a new route or a new
family is covered with one line.
"""

import dataclasses
import multiprocessing
import os

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
from repro.parallel import DriveSpec, run_sharded
from repro.parallel.blocks import LaneBlock, ShardAssembly
from repro.parallel.executor import (
    execute_jobs_pooled,
    prepare_job,
    run_job_serial,
)
from repro.scenarios import scenario_samples
from repro.service import WorkerPool

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
        batch, DriveSpec(samples=h), N_SHARDS, 1, chunk_lanes=chunk_lanes
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
    job = prepare_job(batch, DriveSpec(samples=h), N_SHARDS, 1)
    schema = dict(job.extras_schema, bogus=np.dtype(np.int32))
    return dataclasses.replace(job, extras_schema=schema)


class TestExtrasSchemaCheck:
    def test_block_with_drifted_dtype_is_rejected(self):
        batch, h = workload(DTYPE_FAMILY.name)
        job = prepare_job(batch, DriveSpec(samples=h), 1, 1)
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
            job = prepare_job(batch, DriveSpec(samples=h), 2, 1)
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
