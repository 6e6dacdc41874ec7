"""Stacks: a chunk's cells of one recipe, run as one wide batch.

The paper's timeless discretisation advances every core on its own
field increments, so a cell's lanes can ride inside any wider ensemble
without changing a bit.  A pool task, or the serial route, therefore
runs the shards of one recipe and lane range in a chunk as one
**stack** (:func:`repro.parallel.blocks.drain_stack`): their one
payload repeated lane by lane, their drives side by side, each member's
last sample held past its end, row blocks cut at every member's end
row.
Each member keeps its own assembly, and must come out exactly as its
cell run alone.

A table pins the pure stack plan (:func:`repro.parallel.plan.plan_stacks`
through :func:`repro.parallel.executor.chunk_stacks`): what stacks with
what, how many tasks a chunk offers, and the padding the rule admits.
A table pins the payload tiling the stacked batch is built from, and
its slicing twins' repeats.  The runner's own cases pin that a stack of
one is exactly the unstacked drain, that a stacked block holds no more
lane-samples than one member's would, and that members whose payload
does not tile, whose family refuses it tiled, or whose run registers a
counter mid-run are run alone.  A
hypothesis property then draws random stacks of every registered
family plus the int32/bool family, on the serial route and the default
pool, and checks every member against its cell alone: bitwise on exact
backends, and on JIT backends within the backend's ``rtol`` with
``updated``, extras dtypes and counters exact.
"""

import dataclasses
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import resolve_backend
from repro.batch.params import BatchJAParameters
from repro.batch.sweep import run_batch_series
from repro.core.slope import SlopeGuards, tile_guards
from repro.errors import ParameterError
from repro.ja.anhysteretic import (
    BrillouinAnhysteretic,
    LangevinAnhysteretic,
    ModifiedLangevinAnhysteretic,
    tile_anhysteretic,
)
from repro.models.registry import ModelFamily, get_family, list_families
from repro.parallel import blocks
from repro.parallel.blocks import (
    ShardAssembly,
    drain_shard,
    drain_stack,
    plan_row_blocks,
)
from repro.parallel.executor import (
    chunk_stacks,
    execute_jobs_pooled,
    prepare_job,
    run_jobs_serial,
)
from repro.parallel.plan import plan_stacks
from repro.parallel.pool import default_pool
from repro.parallel.spec import DriveSpec, EnsembleSpec, tile_payload

from test_models_protocol import LazyCounterBatch
from test_parallel import (
    DTYPE_FAMILY,
    DtypeExtrasShardedBatch,
    assert_results_bitwise_equal,
    registered,
)

FAMILY_NAMES = [family.name for family in list_families()] + [
    DTYPE_FAMILY.name
]

#: The drives stacked cells differ by, as in the campaign: scenarios
#: and amplitudes (fractions of a family's ``h_scale``) of unequal
#: sample counts.
SCENARIOS = ["major-loop", "minor-loop-ladder", "harmonic", "forc-family"]
AMPLITUDES = [0.4, 0.6, 0.8]


@pytest.fixture(scope="module", autouse=True)
def dtype_family():
    """Registered before any pool forks, so every worker knows it."""
    with registered(DTYPE_FAMILY):
        yield DTYPE_FAMILY


def cell_job(family, lanes, scenario, amplitude, chunk_lanes=None, seed=0):
    """One whole cell of ``family``'s recipe, as the grid prepares it."""
    scale = get_family(family).h_scale
    drive = DriveSpec(
        scenario=scenario, h_max=amplitude * scale, driver_step=scale / 40.0
    )
    spec = EnsembleSpec(family, lanes, seed=seed)
    return prepare_job(spec, drive, 1, chunk_lanes=chunk_lanes)


def alone(job):
    """The cell run alone, in process: the reference every member of a
    stack must reproduce."""
    return run_batch_series(job.recipe.build_batch(), job.h_full)


def assert_member_equal(reference, member):
    """Bitwise on exact backends; on JIT backends the trajectories hold
    the backend's ``rtol`` while ``updated``, extras dtypes and every
    counter stay exact."""
    backend = resolve_backend(None)
    if backend.exact:
        assert_results_bitwise_equal(reference, member)
        return
    assert np.array_equal(reference.h, member.h)
    assert np.array_equal(reference.updated, member.updated)
    assert sorted(reference.extras) == sorted(member.extras)
    for key, values in reference.extras.items():
        assert values.dtype == member.extras[key].dtype, key
    assert sorted(reference.counters) == sorted(member.counters)
    for key, values in reference.counters.items():
        assert np.array_equal(values, member.counters[key]), key
    channels = [(reference.m, member.m), (reference.b, member.b)] + [
        (values, member.extras[key])
        for key, values in reference.extras.items()
    ]
    for expected, actual in channels:
        scale = float(np.nanmax(np.abs(expected), initial=0.0))
        assert np.allclose(
            actual,
            expected,
            rtol=backend.rtol,
            atol=backend.rtol * max(scale, 1.0),
            equal_nan=True,
        )


def drain_as_one_stack(jobs):
    """Every job's one shard, drained as exactly one stack."""
    assemblies = [ShardAssembly(job) for job in jobs]
    specs = [job.specs[0] for job in jobs]
    counters = drain_stack(specs, [a.write_block for a in assemblies])
    for assembly, spec, totals in zip(assemblies, specs, counters):
        assembly.commit_shard(spec.start, spec.stop, totals)
    return [assembly.result() for assembly in assemblies]


# -- the stack plan -------------------------------------------------------

#: Recipes the plan table's cells name: equal specs are one recipe, the
#: same live batch is one recipe, two live batches are two.
LIVE = {
    "live-a": get_family("timeless").make_batch(8, seed=0),
    "live-b": get_family("timeless").make_batch(8, seed=0),
}
RECIPES = {
    "a": EnsembleSpec("timeless", 8, seed=0, backend="numpy"),
    "a-again": EnsembleSpec("timeless", 8, seed=0, backend="numpy"),
    "b": EnsembleSpec("timeless", 8, seed=1, backend="numpy"),
    "c": EnsembleSpec("preisach", 8, seed=0, backend="numpy"),
    **LIVE,
}


def plan_cell(recipe="a", samples=100, shards=1, threads=1, chunk_lanes=None):
    return (recipe, samples, shards, threads, chunk_lanes)


def plan_jobs(cells):
    return [
        prepare_job(
            RECIPES[recipe], DriveSpec(samples=np.zeros(samples)), shards,
            threads, chunk_lanes=chunk_lanes,
        )
        for recipe, samples, shards, threads, chunk_lanes in cells
    ]


#: The sample counts of the campaign's first timeless chunk (step 150).
CAMPAIGN_CHUNK = [136, 201, 269, 427, 633, 848, 337, 505]

#: (id, cells, pool width W, stacks, padding share).  A cell is
#: (recipe, samples, lane shards, threads, chunk_lanes); a stack member
#: is ``(cell, lane start)``.  At most ``ceil(S / (W + 1))`` members a
#: stack, never fewer than ``min(W, S)`` tasks a chunk; a stack's
#: members share recipe, lanes, threads and chunk_lanes, ordered by
#: sample count.  The padding share is the held lane-rows over all the
#: lane-rows the stacks compute.
STACK_PLANS = [
    ("one-cell", [plan_cell()], 2, [[(0, 0)]], 0.0),
    ("campaign-chunk-three-tasks",
     [plan_cell(samples=n) for n in CAMPAIGN_CHUNK], 2,
     [[(0, 0), (1, 0), (2, 0)], [(6, 0), (3, 0), (7, 0)],
      [(4, 0), (5, 0)]], 0.165),
    ("serial-stacks-of-half-the-chunk",
     [plan_cell(samples=n) for n in CAMPAIGN_CHUNK], 1,
     [[(0, 0), (1, 0), (2, 0), (6, 0)], [(3, 0), (7, 0), (4, 0), (5, 0)]],
     0.292),
    ("equal-lengths-keep-chunk-order", [plan_cell()] * 4, 2,
     [[(0, 0), (1, 0)], [(2, 0), (3, 0)]], 0.0),
    ("two-recipes-never-mix",
     [plan_cell(recipe, n) for recipe in "ab" for n in (300, 100, 200, 400)],
     2,
     [[(1, 0), (2, 0)], [(0, 0), (3, 0)], [(5, 0), (6, 0)],
      [(4, 0), (7, 0)]], 0.167),
    ("equal-specs-are-one-recipe",
     [plan_cell("a", 100), plan_cell("a-again", 100),
      plan_cell("a", 100), plan_cell("a-again", 100)], 2,
     [[(0, 0), (1, 0)], [(2, 0), (3, 0)]], 0.0),
    ("families-never-mix",
     [plan_cell(recipe) for recipe in "acac"], 2,
     [[(0, 0), (2, 0)], [(1, 0), (3, 0)]], 0.0),
    ("one-live-batch-stacks",
     [plan_cell("live-a", n) for n in (100, 200, 300, 400)], 2,
     [[(0, 0), (1, 0)], [(2, 0), (3, 0)]], 0.167),
    ("two-live-batches-never-mix",
     [plan_cell(recipe) for recipe in ("live-a", "live-b") * 2], 2,
     [[(0, 0), (2, 0)], [(1, 0), (3, 0)]], 0.0),
    ("threads-never-mix",
     [plan_cell(threads=t) for t in (1, 2, 1, 2)], 2,
     [[(0, 0), (2, 0)], [(1, 0), (3, 0)]], 0.0),
    ("chunk-lanes-never-mix",
     [plan_cell(chunk_lanes=c) for c in (None, 2, None, 2)], 2,
     [[(0, 0), (2, 0)], [(1, 0), (3, 0)]], 0.0),
    ("a-lone-lane-cut-cell-stays-cut", [plan_cell(shards=2)], 2,
     [[(0, 0)], [(0, 4)]], 0.0),
    ("lane-halves-stack-by-range",
     [plan_cell(samples=n, shards=2) for n in (300, 100, 200)], 2,
     [[(1, 0), (2, 0)], [(0, 0)], [(1, 4), (2, 4)], [(0, 4)]], 0.143),
    ("as-many-workers-as-shards",
     [plan_cell(samples=n) for n in CAMPAIGN_CHUNK], 8,
     [[(j, 0)] for j in (0, 1, 2, 6, 3, 7, 4, 5)], 0.0),
    ("wide-pool-still-busy",
     [plan_cell(samples=n) for n in (100, 200, 300, 400, 500, 600)], 4,
     [[(j, 0)] for j in range(6)], 0.0),
    ("fewer-shards-than-workers",
     [plan_cell(samples=n) for n in (200, 100, 300)], 4,
     [[(1, 0)], [(0, 0)], [(2, 0)]], 0.0),
]


@pytest.mark.parametrize(
    "cells, width, expected, padding",
    [row[1:] for row in STACK_PLANS],
    ids=[row[0] for row in STACK_PLANS],
)
def test_stack_plan(cells, width, expected, padding):
    jobs = plan_jobs(cells)
    stacks = chunk_stacks(jobs, width)
    assert [[(j, spec.start) for j, spec in stack] for stack in stacks] == (
        expected
    )
    shards = sum(len(job.specs) for job in jobs)
    # Every shard runs once, and the chunk keeps every worker busy.
    assert sorted(id(spec) for stack in stacks for _, spec in stack) == (
        sorted(id(spec) for job in jobs for spec in job.specs)
    )
    assert len(stacks) >= min(width, shards)
    assert max(len(stack) for stack in stacks) <= max(
        1, -(-shards // (width + 1))
    )
    for stack in stacks:
        (j0, first), *rest = stack
        for j, spec in rest:
            assert (spec.start, spec.stop, spec.threads, spec.chunk_lanes) == (
                first.start, first.stop, first.threads, first.chunk_lanes
            )
            assert jobs[j].recipe == jobs[j0].recipe
            assert (jobs[j].recipe is jobs[j0].recipe) or isinstance(
                jobs[j].recipe, EnsembleSpec
            )
        lengths = [len(jobs[j].h_full) for j, _ in stack]
        assert lengths == sorted(lengths)
    computed = sum(
        len(stack) * max(len(jobs[j].h_full) for j, _ in stack)
        for stack in stacks
    )
    useful = sum(len(job.h_full) * len(job.specs) for job in jobs)
    assert round(1.0 - useful / computed, 3) == padding


@pytest.mark.parametrize(
    "keys, samples, width",
    [(["a"], [1, 2], 2), (["a"], [1], 0)],
    ids=["keys-and-samples-differ", "no-workers"],
)
def test_stack_plan_rejects_bad_arguments(keys, samples, width):
    with pytest.raises(ParameterError):
        plan_stacks(keys, samples, width)


# -- tiling one payload: the slicing twins' repeats -------------------------

#: How many copies of a payload the tiling tests lay side by side.
COPIES = 3


def test_tiled_parameters_repeat_the_stack():
    params = get_family("timeless").make_batch(4, seed=2).params
    tiled = params.tile(COPIES)
    assert tiled.names == params.names * COPIES
    for k in range(COPIES):
        copy = tiled.lane_slice(4 * k, 4 * (k + 1))
        for field in dataclasses.fields(BatchJAParameters):
            left, right = getattr(copy, field.name), getattr(params, field.name)
            if field.name == "names":
                assert left == right
            else:
                assert np.array_equal(left, right, equal_nan=True), field.name


@pytest.mark.parametrize(
    "curve",
    [
        ModifiedLangevinAnhysteretic(np.array([900.0, 1100.0, 1300.0])),
        BrillouinAnhysteretic(np.array([900.0, 1100.0, 1300.0]), j=1.5),
        LangevinAnhysteretic(1e3),
    ],
    ids=["modified-langevin", "brillouin", "scalar-shape"],
)
def test_tiled_curve_repeats_the_curve(curve):
    tiled = tile_anhysteretic(curve, COPIES)
    assert type(tiled) is type(curve)
    assert getattr(tiled, "j", None) == getattr(curve, "j", None)
    if np.ndim(curve.shape) == 0:
        assert tiled is curve  # a scalar shape serves any width
        return
    x = np.linspace(-3e3, 3e3, 3)
    assert np.array_equal(
        tiled.value(np.tile(x, COPIES)), np.tile(curve.value(x), COPIES)
    )


def test_tiled_guards_repeat_each_lanes_flags():
    mixed = SlopeGuards(
        clamp_negative=np.array([True, False]), drop_opposing=True
    )
    tiled = tile_guards(mixed, COPIES)
    assert np.array_equal(tiled.clamp_negative, [True, False] * COPIES)
    assert tiled.drop_opposing is True


#: (id, payload of 2 lanes, tiled 3 times or None).  Lane arrays repeat
#: along the lane axis and settings pass through; an array that is not
#: one entry per lane (a grid every lane shares, a 0-d value) or a
#: value of a kind the tiling does not know leaves the payload untiled.
PAYLOAD_TILES = [
    ("lane-arrays", {"w": np.array([[1.0] * 3, [0.0] * 3])},
     {"w": np.array([[1.0] * 3, [0.0] * 3] * COPIES)}),
    ("settings", {"backend": "numpy", "accept_equal": False, "limit": None},
     {"backend": "numpy", "accept_equal": False, "limit": None}),
    ("a-grid-every-lane-shares",
     {"w": np.ones(2), "grid": np.linspace(0.0, 1.0, 5)}, None),
    ("a-0-d-array", {"w": np.array(1.0)}, None),
    ("a-list", {"w": [1.0, 2.0]}, None),
]


@pytest.mark.parametrize(
    "payload, expected",
    [row[1:] for row in PAYLOAD_TILES],
    ids=[row[0] for row in PAYLOAD_TILES],
)
def test_payload_tile(payload, expected):
    tiled = tile_payload(payload, 2, COPIES)
    if expected is None:
        assert tiled is None
        return
    assert tiled.keys() == expected.keys()
    for key, value in expected.items():
        assert type(tiled[key]) is type(value), key
        if isinstance(value, np.ndarray):
            assert np.array_equal(tiled[key], value), key
        else:
            assert tiled[key] == value, key


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_every_family_builds_a_stacked_batch(name):
    """Every registered family's payload tiles: no family silently falls
    back to stacks of one."""
    jobs = [cell_job(name, 3, "major-loop", a) for a in AMPLITUDES]
    batch = blocks._stack_batch([job.specs[0] for job in jobs])
    assert batch is not None and batch.n_cores == 9


# -- the stacked runner ---------------------------------------------------


def test_stack_of_one_is_the_unstacked_drain(monkeypatch):
    """A stack of one builds no stacked batch, pads no drive and cuts
    no extra row: its blocks are :func:`drain_shard`'s."""

    def no_stack(specs):
        raise AssertionError("a stack of one built a stacked batch")

    monkeypatch.setattr(blocks, "_stack_batch", no_stack)
    job = cell_job("timeless", 5, "minor-loop-ladder", 0.6, chunk_lanes=2)
    (spec,) = job.specs
    rows = []
    (counters,) = drain_stack(
        [spec], [lambda block: rows.append((block.row_start, block.row_stop))]
    )
    assert rows == plan_row_blocks(5, len(job.h_full), 2)
    assembly = ShardAssembly(job)
    expected = drain_shard(spec, assembly.write_block)
    assert sorted(counters) == sorted(expected)
    for key in expected:
        assert np.array_equal(counters[key], expected[key])


@pytest.mark.parametrize("chunk_lanes", [None, 2, 5])
def test_stack_cuts_rows_at_every_members_end(chunk_lanes, monkeypatch):
    """Each member receives its own lanes' blocks, in row order, up to
    its own end and no further, cut at every member's end row and by
    the row plan over the stack's width at ``min(chunk_lanes, width)``
    lanes: no stacked block's drive holds more lane-samples than that
    many lanes over the stack's rows, so a stack never holds more than
    one member's block would."""
    jobs = [
        cell_job("timeless", 4, scenario, 0.6, chunk_lanes=chunk_lanes)
        for scenario in ("major-loop", "harmonic", "forc-family")
    ]
    ends = [len(job.h_full) for job in jobs]
    assert len(set(ends)) == 3
    drives = []
    real_run = blocks.run_batch_series

    def recorded(batch, drive, reset):
        drives.append(drive.shape)
        return real_run(batch, drive, reset=reset)

    monkeypatch.setattr(blocks, "run_batch_series", recorded)
    received = [[] for _ in jobs]
    drain_stack(
        [job.specs[0] for job in jobs],
        [received[k].append for k in range(len(jobs))],
    )
    bound = 4 if chunk_lanes is None else min(chunk_lanes, 4)
    cuts = {r1 for _, r1 in plan_row_blocks(12, max(ends), bound)}
    assert len(drives) == len(cuts | set(ends))
    assert all(rows * lanes <= bound * max(ends) for rows, lanes in drives)
    for k, end in enumerate(ends):
        rows = [(block.row_start, block.row_stop) for block in received[k]]
        assert rows[0][0] == 0 and rows[-1][1] == end
        assert all(a[1] == b[0] for a, b in zip(rows, rows[1:]))
        expected = {cut for cut in cuts | set(ends) if cut <= end}
        assert {r1 for _, r1 in rows} == expected
        assert all(
            (block.start, block.stop) == (0, 4) for block in received[k]
        )


class ListPayloadBatch(DtypeExtrasShardedBatch):
    """The int32/bool family with a payload value (a list) the tiling
    does not know."""

    family = "list-payload-stack-test"

    def __init__(self, multipliers, note=None) -> None:
        super().__init__(multipliers)

    def shard_payload(self, start, stop):
        return dict(super().shard_payload(start, stop), note=[start, stop])


class SharedGridBatch(DtypeExtrasShardedBatch):
    """The int32/bool family with a payload array every lane shares,
    not one entry per lane (as the 1-D threshold grids a Preisach batch
    accepts): repeating it per member would be wrong."""

    family = "shared-grid-stack-test"

    def __init__(self, multipliers, grid=None) -> None:
        super().__init__(multipliers)

    def shard_payload(self, start, stop):
        return dict(
            super().shard_payload(start, stop), grid=np.linspace(0, 1, 5)
        )


class WidthCheckedBatch(DtypeExtrasShardedBatch):
    """The int32/bool family whose rebuild refuses a payload whose
    lanes differ from the lane count it names: the tiled payload."""

    family = "width-checked-stack-test"

    def __init__(self, multipliers, lanes=None) -> None:
        if lanes is not None and lanes != len(multipliers):
            raise ParameterError(
                f"{len(multipliers)} multipliers for {lanes} lanes"
            )
        super().__init__(multipliers)

    def shard_payload(self, start, stop):
        return dict(super().shard_payload(start, stop), lanes=stop - start)


class LaneLazyBatch(LazyCounterBatch):
    """A batch whose ``late`` counter registers only once some lane's
    field passes 1.5: whether a cell reports it hangs on its own
    lanes, so a stack's other members must not change it."""

    family = "lane-lazy-stack-test"

    def __init__(self, multipliers) -> None:
        super().__init__(len(multipliers))

    def step(self, h_new):
        crossed = self._stepped
        out = super().step(h_new)
        self._stepped = crossed or bool(np.any(self._h > 1.5))
        return out

    def begin_series(self, h_initial) -> None:
        super().begin_series(h_initial)
        self._stepped = False

    def shard_payload(self, start, stop):
        return {"multipliers": np.arange(start, stop)}


def payload_variant(batch_class):
    """The int32/bool family's record, rebuilt as ``batch_class``."""
    return dataclasses.replace(
        DTYPE_FAMILY,
        name=batch_class.family,
        stack=lambda models: batch_class(list(models)),
        batch_from_payload=lambda payload: batch_class(**payload),
    )


LANE_LAZY = ModelFamily(
    name=LaneLazyBatch.family,
    description="counter registered by some lanes only",
    make_models=lambda n, seed: list(range(n)),
    stack=lambda models: LaneLazyBatch(list(models)),
    batch_from_payload=lambda payload: LaneLazyBatch(**payload),
)

#: (id, family) whose stacks cannot hold their members.
STACKLESS = [
    ("a-list", payload_variant(ListPayloadBatch)),
    ("a-shared-grid", payload_variant(SharedGridBatch)),
    ("refused-once-tiled", payload_variant(WidthCheckedBatch)),
    ("lane-lazy", LANE_LAZY),
]


@pytest.mark.parametrize(
    "family", [row[1] for row in STACKLESS], ids=[row[0] for row in STACKLESS]
)
def test_members_run_alone_when_a_stack_cannot_hold_them(family):
    """A payload the tiling does not know or a family refuses tiled, or
    a counter registered mid-run, runs each member alone: every member
    is still its cell alone, counter keys included."""
    with registered(family):
        spec = EnsembleSpec(family.name, 3)
        jobs = [
            prepare_job(spec, DriveSpec(samples=np.array(h)), 1)
            for h in ([0.0, 1.0, 1.0, 1.0], [0.0, 2.0], [1.0])
        ]
        results = drain_as_one_stack(jobs)
        for job, result in zip(jobs, results):
            reference = run_batch_series(spec.build_batch(), job.h_full)
            assert_results_bitwise_equal(reference, result)
        stacked = blocks._stack_batch([job.specs[0] for job in jobs])
    assert (stacked is None) == (family is not LANE_LAZY)
    if family is LANE_LAZY:
        assert [sorted(r.counters) for r in results] == [
            ["prepared", "steps"], ["late", "prepared", "steps"],
            ["prepared", "steps"],
        ]


# -- every member is its cell alone ----------------------------------------

cells = st.tuples(st.sampled_from(SCENARIOS), st.sampled_from(AMPLITUDES))


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(FAMILY_NAMES),
    lanes=st.integers(1, 64),
    drives=st.lists(cells, min_size=1, max_size=8),
    chunk_lanes=st.sampled_from([None, 1, 3, 16]),
    route=st.sampled_from(["serial", "default-pool"]),
)
def test_every_member_is_its_cell_alone(
    name, lanes, drives, chunk_lanes, route
):
    """Random cells of one recipe, unequal in length, stacked: on the
    serial route all of them as exactly one stack, on the default pool
    (two workers) as the chunk's plan cuts them.  Each member matches
    its cell run alone, extras dtypes and counters included."""
    if route == "default-pool" and (
        "fork" not in multiprocessing.get_all_start_methods()
    ):
        route = "serial"  # workers inherit the test family through fork
    jobs = [
        cell_job(name, lanes, scenario, amplitude, chunk_lanes)
        for scenario, amplitude in drives
    ]
    if route == "serial":
        results = drain_as_one_stack(jobs)
    else:
        with default_pool(2, "fork") as (workers, arena):
            results = (
                run_jobs_serial(jobs)  # a worker cap of one forks no pool
                if workers is None
                else execute_jobs_pooled(workers, [jobs], 2, arena)
            )
    for job, result in zip(jobs, results):
        assert_member_equal(alone(job), result)


def test_serial_route_runs_the_chunks_stacks(monkeypatch):
    """The serial route runs a chunk as :func:`chunk_stacks` cuts it
    for one worker, and each cell matches its run alone."""
    seen = []
    real = blocks.drain_stack

    def recording(specs, writes):
        seen.append(len(specs))
        return real(specs, writes)

    monkeypatch.setattr(
        "repro.parallel.executor.drain_stack", recording
    )
    jobs = [
        cell_job("time-domain", 6, scenario, amplitude)
        for scenario in SCENARIOS[:3]
        for amplitude in AMPLITUDES[:2]
    ]
    results = run_jobs_serial(jobs)
    assert seen == [3, 3]
    for job, result in zip(jobs, results):
        assert_member_equal(alone(job), result)
