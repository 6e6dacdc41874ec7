"""Sharded multi-process executor: planning, specs, bitwise equivalence.

The load-bearing equivalence suite is ``test_shard_routes.py``: every
route, chunked or not, for every registered family, must reproduce the
single-process :func:`repro.batch.sweep.run_batch_series` result array
for array, including extras/counters keys and dtypes.  This module pins
what that grid does not cross — planning, specs, counter merging,
fused composition per backend, plans and grids.  Bitwise, not
approximately: sharding is a transport optimisation, never a numerics
change.
"""

import contextlib
import dataclasses
import multiprocessing
import os
import pickle
import sys
import threading
import time

import numpy as np
import pytest

from repro.backend import BACKEND_ENV, get_backend, list_backends, resolve_backend
from repro.batch.sweep import run_batch_series
from repro.errors import ParameterError, ScenarioError
from repro.models.registry import (
    ModelFamily,
    get_family,
    list_families,
    register_family,
    unregister_family,
)
from repro.parallel import (
    MAX_WORKERS_ENV,
    DriveSpec,
    EnsembleSpec,
    ShardSpec,
    plan_shards,
    resolve_workers,
    run_scenario_grid,
    run_sharded,
)
from repro.parallel.executor import SHM_DIR
from repro.scenarios import scenario_samples
from repro.sched import Calibration, ExecutionPlan, Probe

FAMILY_NAMES = [family.name for family in list_families()]
BACKEND_NAMES = [backend.name for backend in list_backends()]

#: The deliberately awkward geometry of the equivalence suite: 7 lanes
#: over 3 workers -> shards of 3 + 2 + 2.
N_CORES = 7
N_WORKERS = 3


def assert_results_bitwise_equal(reference, other) -> None:
    """Full-record equality: arrays bit for bit (NaN-aware), channel
    keys identical, dtypes identical."""
    assert np.array_equal(reference.h, other.h)
    assert np.array_equal(reference.m, other.m, equal_nan=True)
    assert np.array_equal(reference.b, other.b, equal_nan=True)
    assert np.array_equal(reference.updated, other.updated)
    assert reference.updated.dtype == other.updated.dtype
    assert reference.family == other.family
    assert sorted(reference.extras) == sorted(other.extras)
    for key in reference.extras:
        assert np.array_equal(
            reference.extras[key], other.extras[key], equal_nan=True
        ), key
        assert reference.extras[key].dtype == other.extras[key].dtype, key
    assert sorted(reference.counters) == sorted(other.counters)
    for key in reference.counters:
        assert np.array_equal(
            reference.counters[key], other.counters[key]
        ), key
        assert reference.counters[key].dtype == other.counters[key].dtype, key


def segments() -> set:
    """Every POSIX shared-memory name in the segment directory."""
    return {n for n in os.listdir(SHM_DIR) if n.startswith("psm_")}


def arena_names(arena) -> set:
    """The shared-memory names a pool's segment arena holds: idle, in
    flight or on loan."""
    return {shm.name for shm in arena._idle} | set(arena._busy)


class TestPlanShards:
    @pytest.mark.parametrize(
        "n_cores,n_workers",
        [(7, 3), (512, 4), (5, 8), (16, 4), (1, 1), (9, 2)],
    )
    def test_contiguous_ordered_exact_cover(self, n_cores, n_workers):
        bounds = plan_shards(n_cores, n_workers)
        assert bounds[0][0] == 0 and bounds[-1][1] == n_cores
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start  # contiguous, ordered, non-overlapping
        widths = [stop - start for start, stop in bounds]
        assert min(widths) >= 1
        assert max(widths) - min(widths) <= 1  # balanced

    def test_uneven_split_shape(self):
        assert plan_shards(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_never_more_shards_than_cores(self):
        assert len(plan_shards(2, 16)) == 2

    @pytest.mark.parametrize("bad", [(0, 1), (4, 0)])
    def test_invalid_arguments_rejected(self, bad):
        with pytest.raises(ParameterError):
            plan_shards(*bad)

    def test_property_sweep(self):
        """Every invariant, over the whole (n_cores, n_workers) grid the
        executors and the cost model rely on — plan_shards is pure
        arithmetic, so exhaustive beats sampled."""
        for n_cores in (1, 2, 3, 5, 7, 8, 16, 31, 64, 129, 512):
            for n_workers in (1, 2, 3, 4, 7, 8, 16, 33):
                bounds = plan_shards(n_cores, n_workers)
                label = (n_cores, n_workers)
                # contiguous, ordered, exact cover of [0, n_cores)
                assert bounds[0][0] == 0, label
                assert bounds[-1][1] == n_cores, label
                for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                    assert stop == start, label
                widths = [stop - start for start, stop in bounds]
                # every shard non-empty, balanced to within one lane
                assert min(widths) >= 1, label
                assert max(widths) - min(widths) <= 1, label
                # one shard per worker, never more shards than lanes
                assert len(bounds) == min(n_workers, n_cores), label


class TestSpecs:
    def test_drive_spec_needs_exactly_one_route(self):
        with pytest.raises(ParameterError):
            DriveSpec()
        with pytest.raises(ParameterError):
            DriveSpec(scenario="major-loop", samples=np.zeros(3))
        with pytest.raises(ScenarioError):
            DriveSpec(scenario="major-loop", h_max=1e3)  # no driver_step

    def test_drive_spec_slices_per_core_columns(self):
        drive = DriveSpec(
            scenario="forc-family", h_max=10e3, driver_step=200.0
        )
        full = drive.full_samples(N_CORES)
        assert full.shape[1] == N_CORES
        shard = drive.shard_samples(N_CORES, 3, 5)
        assert np.array_equal(shard, full[:, 3:5])
        shared = DriveSpec(samples=np.array([0.0, 1.0, 2.0]))
        assert shared.shard_samples(N_CORES, 3, 5).ndim == 1

    @pytest.mark.parametrize("by_name", [False, True])
    def test_per_core_scenario_ships_by_name_only_when_asked(self, by_name):
        """A per-core scenario drive travels as each shard's columns;
        ``by_name`` (for workers that know this process's scenarios)
        lets a whole-ensemble shard name it instead, rebuilt where it
        runs, while a lane cut still carries only its own columns.
        Every shard rebuilds the parent's columns bit for bit."""
        from repro.parallel.executor import prepare_job

        drive = DriveSpec(
            scenario="forc-family", h_max=10e3, driver_step=200.0
        )
        spec = EnsembleSpec("timeless", N_CORES)
        whole = prepare_job(spec, drive, 1, by_name=by_name)
        (shard,) = whole.specs
        if by_name:
            assert shard.drive is drive
        else:
            assert np.array_equal(shard.drive.samples, whole.h_full)
        assert np.array_equal(shard.build_samples(), whole.h_full)
        cut = prepare_job(spec, drive, N_WORKERS, by_name=by_name)
        for shard in cut.specs:
            assert shard.drive.samples.shape[1] == shard.width
            assert np.array_equal(
                shard.build_samples(), cut.h_full[:, shard.start : shard.stop]
            )

    def test_ensemble_spec_rejects_unknown_family(self):
        with pytest.raises(ParameterError):
            EnsembleSpec(family="no-such-family", n_cores=4)

    #: (id, EnsembleSpec keywords, exact error): a recipe's lane count
    #: and seed are whole numbers, n_cores >= 1 and seed >= 0, refused
    #: here rather than by a raw builtin later, in a worker.
    BAD_RECIPES = [
        ("float-n_cores", dict(n_cores=2.5), "n_cores must be an integer, got 2.5"),
        ("integral-float-n_cores", dict(n_cores=2.0),
         "n_cores must be an integer, got 2.0"),
        ("string-n_cores", dict(n_cores="4"),
         "n_cores must be an integer, got '4'"),
        ("bool-n_cores", dict(n_cores=True),
         "n_cores must be an integer, got True"),
        ("numpy-bool-n_cores", dict(n_cores=np.bool_(True)),
         f"n_cores must be an integer, got {np.bool_(True)!r}"),
        ("numpy-float-n_cores", dict(n_cores=np.float64(4.0)),
         f"n_cores must be an integer, got {np.float64(4.0)!r}"),
        ("zero-n_cores", dict(n_cores=0), "n_cores must be >= 1, got 0"),
        ("negative-numpy-n_cores", dict(n_cores=np.int64(-3)),
         "n_cores must be >= 1, got -3"),
        ("float-seed", dict(seed=1.5), "seed must be an integer, got 1.5"),
        ("none-seed", dict(seed=None), "seed must be an integer, got None"),
        ("bool-seed", dict(seed=False), "seed must be an integer, got False"),
        ("negative-seed", dict(seed=-1), "seed must be >= 0, got -1"),
    ]

    @pytest.mark.parametrize(
        "keywords, message",
        [row[1:] for row in BAD_RECIPES],
        ids=[row[0] for row in BAD_RECIPES],
    )
    def test_ensemble_spec_rejects_non_integer_recipes(self, keywords, message):
        with pytest.raises(ParameterError) as raised:
            EnsembleSpec(**{"family": "timeless", "n_cores": 4, **keywords})
        assert str(raised.value) == message

    def test_grid_refuses_a_fractional_lane_count_before_any_work(self):
        with pytest.raises(
            ParameterError, match=r"^n_cores must be an integer, got 2\.5$"
        ):
            run_scenario_grid(
                ["timeless"], ["major-loop"], [1e3], 2.5, driver_step=100.0,
                n_workers=1,
            )

    def test_ensemble_spec_normalises_numpy_integers(self):
        """A NumPy integer names the same recipe as a Python int: equal
        and equally hashed specs, ``int`` fields, and one cache digest."""
        from repro.service.digest import spec_digest

        drive = DriveSpec(scenario="major-loop", h_max=1e3, driver_step=100.0)
        plain = EnsembleSpec("timeless", 4, seed=3)
        for n_cores, seed in [(np.int64(4), np.int32(3)), (np.uint8(4), 3)]:
            spec = EnsembleSpec("timeless", n_cores, seed=seed)
            assert type(spec.n_cores) is int and type(spec.seed) is int
            assert spec == plain and hash(spec) == hash(plain)
            assert spec_digest(spec, drive) == spec_digest(plain, drive)

    def test_ensemble_spec_slice_is_full_recipe_lane(self):
        """Workers must rebuild the full RNG stream and slice — lane 2
        of the recipe, not lane 0 of a narrower recipe."""
        spec = EnsembleSpec(family="timeless", n_cores=4, seed=9)
        sliced = spec.build_batch(2, 4)
        full = spec.build_batch()
        assert np.array_equal(sliced.params.m_sat, full.params.m_sat[2:4])
        assert np.array_equal(sliced.dhmax, full.dhmax[2:4])

    def test_shard_spec_needs_exactly_one_source(self):
        drive = DriveSpec(samples=np.zeros(3))
        spec = EnsembleSpec(family="timeless", n_cores=4)
        with pytest.raises(ParameterError):
            ShardSpec(
                family="timeless",
                n_cores_total=4,
                start=0,
                stop=2,
                drive=drive,
            )
        with pytest.raises(ParameterError):
            ShardSpec(
                family="timeless",
                n_cores_total=4,
                start=2,
                stop=2,
                drive=drive,
                ensemble=spec,
            )

    def test_shard_spec_rejects_sub_one_threads(self):
        with pytest.raises(ParameterError, match="threads"):
            ShardSpec(
                family="timeless",
                n_cores_total=4,
                start=0,
                stop=2,
                drive=DriveSpec(samples=np.zeros(3)),
                ensemble=EnsembleSpec(family="timeless", n_cores=4),
                threads=0,
            )

    def test_specs_pickle_round_trip(self):
        drive = DriveSpec(
            scenario="minor-loop-ladder", h_max=10e3, driver_step=250.0
        )
        shard = ShardSpec(
            family="timeless",
            n_cores_total=4,
            start=1,
            stop=3,
            drive=drive,
            ensemble=EnsembleSpec(family="timeless", n_cores=4, seed=5),
        )
        clone = pickle.loads(pickle.dumps(shard))
        assert (clone.family, clone.start, clone.stop) == ("timeless", 1, 3)
        assert clone.drive == drive
        assert clone.ensemble == shard.ensemble
        batch = clone.build_batch()
        assert batch.n_cores == 2

    def test_drive_spec_equality_is_array_aware(self):
        """The dataclass-generated __eq__ would crash on the ndarray
        field; the custom one compares element-wise."""
        a = DriveSpec(samples=np.array([0.0, 1.0]))
        b = DriveSpec(samples=np.array([0.0, 1.0]))
        c = DriveSpec(samples=np.array([0.0, 2.0]))
        assert a == b and a != c
        assert a != DriveSpec(
            scenario="major-loop", h_max=1e3, driver_step=10.0
        )


@contextlib.contextmanager
def registered(family):
    register_family(family)
    try:
        yield family
    finally:
        unregister_family(family.name)


def timeless_variant(make_models, name="recipe-cache-test"):
    """The timeless family under another name and ``make_models``."""
    return dataclasses.replace(
        get_family("timeless"), name=name, make_models=make_models
    )


def stacked(spec, start, stop):
    """``build_batch`` without the recipe cache: stack the scalar
    models of lanes ``[start, stop)`` on the spec's backend."""
    batch = get_family(spec.family).stack(spec.build_models()[start:stop])
    if hasattr(batch, "use_backend"):
        batch.use_backend(resolve_backend(spec.backend))
    return batch


def run_shared_drive(batch):
    scale = get_family(batch.family).h_scale
    return run_batch_series(
        batch, scenario_samples("major-loop", scale, scale / 40.0)
    )


class TestRecipeCache:
    """``EnsembleSpec.build_batch`` builds a recipe once per process and
    cuts every lane range from that build: bitwise what stacking the
    range builds, fresh on every call, never shared across records."""

    @pytest.mark.parametrize("start, stop", [(0, 7), (0, 3), (2, 5), (6, 7)])
    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_lanes_match_stacking(self, name, start, stop):
        spec = EnsembleSpec(family=name, n_cores=N_CORES, seed=3)
        built = spec.build_batch(start, stop)
        reference = stacked(spec, start, stop)
        assert built.driver_step_hint() == reference.driver_step_hint()
        assert_results_bitwise_equal(
            run_shared_drive(reference), run_shared_drive(built)
        )
        assert spec.build_batch(start, stop) is not built

    def test_a_family_registered_again_gets_its_own_build(self):
        timeless = get_family("timeless")
        spec_args = dict(family="recipe-cache-test", n_cores=4, seed=0)
        with registered(timeless_variant(timeless.make_models)):
            first = EnsembleSpec(**spec_args).build_batch()
        shifted = timeless_variant(
            lambda n, seed: timeless.make_models(n, seed + 1)
        )
        with registered(shifted):
            spec = EnsembleSpec(**spec_args)
            second = spec.build_batch()
            reference = stacked(spec, 0, 4)
        assert np.array_equal(second.dhmax, reference.dhmax)
        assert not np.array_equal(second.dhmax, first.dhmax)

    def test_concurrent_builds_are_fresh_and_bitwise(self):
        """More threads than cores build one recipe at once, with the
        interpreter switching threads as often as it can: every thread
        gets its own batch, bitwise, sharing no array with another."""
        timeless = get_family("timeless")

        def slow_models(n, seed):
            time.sleep(0.02)  # the threads build at once
            return timeless.make_models(n, seed)

        n_threads = 6
        start = threading.Barrier(n_threads, timeout=10.0)
        built = {}

        def build(key):
            start.wait()
            built[key] = spec.build_batch(1, N_CORES)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with registered(timeless_variant(slow_models)):
                spec = EnsembleSpec("recipe-cache-test", N_CORES, seed=4)
                threads = [
                    threading.Thread(target=build, args=(key,))
                    for key in range(n_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(10.0)
                    assert not thread.is_alive()
                reference = run_shared_drive(stacked(spec, 1, N_CORES))
        finally:
            sys.setswitchinterval(interval)
        batches = [built[key] for key in range(n_threads)]
        for i, first in enumerate(batches):
            for second in batches[i + 1:]:
                assert first is not second
                assert not np.shares_memory(first.dhmax, second.dhmax)
        # Running each in turn leaves the others as built.
        for batch in batches:
            assert_results_bitwise_equal(reference, run_shared_drive(batch))

    GRID = dict(
        scenarios=["major-loop", "minor-loop-ladder", "harmonic", "forc-family"],
        h_max_values=[4e3, 6e3, 8e3],
        n_cores=4,
        driver_step=400.0,
    )

    def test_serial_grid_builds_its_recipe_once(self):
        """Twelve cells of one recipe, in this process: one build."""
        timeless = get_family("timeless")
        calls = []

        def counted(n, seed):
            calls.append(n)
            return timeless.make_models(n, seed)

        with registered(timeless_variant(counted, "counted-serial")):
            cells = run_scenario_grid(
                ["counted-serial"], **self.GRID, n_workers=1
            )
        assert len(cells) == 12
        assert calls == [4]

    def test_pool_workers_build_their_recipe_once_each(self, monkeypatch):
        """Twelve cells of one recipe, twice, on the default pool's two
        forked workers: each worker builds it at most once for the
        pool's life, so the second grid builds nothing.  Registering
        the family re-forks the pool, after the counter exists."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the counter is inherited through fork")
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        timeless = get_family("timeless")
        builds = multiprocessing.get_context("fork").Value("i", 0)

        def counted(n, seed):
            with builds.get_lock():
                builds.value += 1
            return timeless.make_models(n, seed)

        with registered(timeless_variant(counted, "counted-pooled")):
            first = run_scenario_grid(
                ["counted-pooled"], **self.GRID, n_workers=2,
                mp_context="fork",
            )
            built = builds.value
            assert 1 <= built <= 2
            cells = run_scenario_grid(
                ["counted-pooled"], **self.GRID, n_workers=2,
                mp_context="fork",
            )
            assert builds.value == built
            batch = stacked(EnsembleSpec("counted-pooled", 4), 0, 4)
        assert len(first) == len(cells) == 12
        for cell in first + cells:
            reference = run_batch_series(
                batch,
                scenario_samples(cell.scenario, cell.h_max, 400.0, n_cores=4),
            )
            # The engine labels its result "timeless"; the grid labels
            # each cell with the registered name.
            assert_results_bitwise_equal(
                dataclasses.replace(reference, family=cell.family),
                cell.result,
            )


class TestCounterMerge:
    def test_union_with_zero_fill_for_lazy_keys(self):
        """Counters registered by only some shards (lazily appearing
        keys) merge over the union, zero-filled where absent — the
        sharded analogue of run_batch_series' lazy-counter support."""
        from repro.parallel.blocks import merge_shard_counters

        merged = merge_shard_counters(
            [
                {"steps": np.array([1, 2], dtype=np.int64)},
                {
                    "steps": np.array([3], dtype=np.int64),
                    "late": np.array([9], dtype=np.int64),
                },
            ],
            widths=[2, 1],
        )
        assert set(merged) == {"steps", "late"}
        assert np.array_equal(merged["steps"], [1, 2, 3])
        assert np.array_equal(merged["late"], [0, 0, 9])
        assert merged["late"].dtype == np.int64

    def test_shard_local_explicit_samples_enforced(self):
        """ShardSpec explicit drives are shard-local; a full-width
        matrix smuggled in is rejected, not silently mis-sliced."""
        drive = DriveSpec(samples=np.zeros((4, 7)))
        spec = ShardSpec(
            family="timeless",
            n_cores_total=7,
            start=0,
            stop=3,
            drive=drive,
            ensemble=EnsembleSpec(family="timeless", n_cores=7),
        )
        with pytest.raises(ParameterError, match="shard-local"):
            spec.build_samples()


class TestResolveWorkers:
    def test_env_cap_clamps(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "2")
        assert resolve_workers(8) == 2
        assert resolve_workers(1) == 1

    def test_bad_env_cap_rejected(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "lots")
        with pytest.raises(ParameterError):
            resolve_workers(4)

    @pytest.mark.parametrize("cap", ["0", "-1", "-8"])
    def test_sub_one_env_cap_rejected(self, cap, monkeypatch):
        """A sub-1 cap is a configuration error and must fail loudly —
        the historical behaviour clamped it to 1, silently serialising
        runs a broken CI matrix entry meant to parallelise."""
        monkeypatch.setenv(MAX_WORKERS_ENV, cap)
        with pytest.raises(ParameterError, match=">= 1"):
            resolve_workers(4)
        with pytest.raises(ParameterError, match=">= 1"):
            resolve_workers(None)  # the default request hits it too

    def test_invalid_request_rejected(self):
        with pytest.raises(ParameterError):
            resolve_workers(0)


@pytest.mark.parametrize("name", FAMILY_NAMES)
class TestShardConstruction:
    def test_engine_shard_is_bitwise_lane_slice(self, name):
        """Engine-level contract: a batch rebuilt from a lane range's
        ``shard_payload`` — the route every payload shard takes — runs
        the full run's column slice, for uneven slices, in process."""
        family = get_family(name)
        batch = family.make_batch(N_CORES, seed=1)
        h = scenario_samples(
            "minor-loop-ladder", family.h_scale, family.h_scale / 40.0
        )
        full = run_batch_series(batch, h)
        for start, stop in plan_shards(N_CORES, N_WORKERS):
            shard = type(batch).from_shard_payload(
                batch.shard_payload(start, stop)
            )
            part = run_batch_series(shard, h)
            assert np.array_equal(
                part.m, full.m[:, start:stop], equal_nan=True
            )
            assert np.array_equal(
                part.b, full.b[:, start:stop], equal_nan=True
            )
            for key in full.counters:
                assert np.array_equal(
                    part.counters[key], full.counters[key][start:stop]
                ), key

    def test_shard_payload_rejects_bad_range(self, name):
        batch = get_family(name).make_batch(3, seed=1)
        with pytest.raises(ParameterError):
            batch.shard_payload(2, 2)
        with pytest.raises(ParameterError):
            batch.shard_payload(0, 4)


@pytest.mark.parametrize("name", FAMILY_NAMES)
class TestShardEquivalence:
    """Sharded == single-process, bitwise, on the drives and sources the
    route suite (``test_shard_routes.py``) does not cross: a shared 1-D
    drive and the registry-recipe rebuild."""

    def test_serial_fallback_shared_drive(self, name):
        """n_workers=1: same shard specs, no processes, still bitwise."""
        family = get_family(name)
        batch = family.make_batch(N_CORES, seed=0)
        h = scenario_samples(
            "minor-loop-ladder", family.h_scale, family.h_scale / 40.0
        )
        reference = run_batch_series(batch, h)
        sharded = run_sharded(batch, h, n_workers=1)
        assert_results_bitwise_equal(reference, sharded)

    def test_ensemble_spec_route_matches_live_batch(self, name):
        """Workers rebuilding from the registry recipe produce the same
        lanes as sharding a live batch."""
        family = get_family(name)
        spec = EnsembleSpec(family=name, n_cores=N_CORES, seed=0)
        h = scenario_samples(
            "minor-loop-ladder", family.h_scale, family.h_scale / 40.0
        )
        reference = run_batch_series(family.make_batch(N_CORES, seed=0), h)
        sharded = run_sharded(spec, h, n_workers=N_WORKERS)
        assert_results_bitwise_equal(reference, sharded)


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
@pytest.mark.parametrize("name", FAMILY_NAMES)
class TestFusedShardedEquivalence:
    """Fused × sharded composition, per family × registered backend:
    shards run the fused ``step_series`` path internally (compiled
    drivers included, when the backend registers one for the family),
    and the reassembly is pinned against the single-process
    ``run_batch_series(fused=True)`` — bitwise on exact backends,
    rtol-tiered on JIT backends.  A newly registered backend is covered
    with zero new test code."""

    def _assert_composed_equal(self, reference, sharded, backend) -> None:
        if backend.exact:
            assert_results_bitwise_equal(reference, sharded)
            return
        # Per-sample trajectories hold the backend tier; structure
        # (channel sets, updated masks, threshold-decision counters)
        # stays exact — the same split the conformance suite applies.
        assert np.array_equal(reference.h, sharded.h)
        assert np.array_equal(reference.updated, sharded.updated)
        assert sorted(reference.extras) == sorted(sharded.extras)
        assert sorted(reference.counters) == sorted(sharded.counters)
        for key in ("euler_steps", "switch_events", "steps"):
            if key in reference.counters:
                assert np.array_equal(
                    reference.counters[key], sharded.counters[key]
                ), key
        for actual, expected in ((sharded.m, reference.m), (sharded.b, reference.b)):
            scale = float(np.nanmax(np.abs(expected)))
            assert np.allclose(
                actual,
                expected,
                rtol=backend.rtol,
                atol=backend.rtol * max(scale, 1.0),
                equal_nan=True,
            )

    def test_sharded_matches_single_process_fused(self, name, backend_name):
        """N = 7 lanes over 3 pool workers (uneven 3+2+2 split), both
        sides on the same backend and both on the fused path."""
        family = get_family(name)
        backend = get_backend(backend_name)
        batch = family.make_batch(N_CORES, seed=0, backend=backend_name)
        h = scenario_samples(
            "minor-loop-ladder", family.h_scale, family.h_scale / 40.0
        )
        reference = run_batch_series(
            family.make_batch(N_CORES, seed=0, backend=backend_name),
            h,
            fused=True,
        )
        sharded = run_sharded(batch, h, n_workers=N_WORKERS)
        self._assert_composed_equal(reference, sharded, backend)

    def test_serial_fallback_matches_single_process_fused(
        self, name, backend_name
    ):
        """The n_workers=1 serial path composes with the fused drivers
        identically (same shard specs, no processes)."""
        family = get_family(name)
        backend = get_backend(backend_name)
        batch = family.make_batch(N_CORES, seed=0, backend=backend_name)
        h = scenario_samples(
            "minor-loop-ladder", family.h_scale, family.h_scale / 40.0
        )
        reference = run_batch_series(
            family.make_batch(N_CORES, seed=0, backend=backend_name),
            h,
            fused=True,
        )
        sharded = run_sharded(batch, h, n_workers=1)
        self._assert_composed_equal(reference, sharded, backend)


class TestRunShardedValidation:
    def test_needs_exactly_one_drive(self):
        batch = get_family("timeless").make_batch(2)
        with pytest.raises(ParameterError):
            run_sharded(batch)
        with pytest.raises(ParameterError):
            run_sharded(
                batch, np.zeros(3), scenario="major-loop", h_max=1e3
            )

    def test_scenario_route_resolves_full_hint(self):
        """The driver step comes from the full ensemble, not a shard:
        the sharded scenario run equals the single-process scenario run
        even though shard hints would differ."""
        from repro.scenarios import run_scenario

        batch = get_family("timeless").make_batch(N_CORES, seed=0)
        reference = run_scenario(batch, "major-loop", h_max=5e3)
        sharded = run_sharded(
            batch, scenario="major-loop", h_max=5e3, n_workers=N_WORKERS
        )
        assert_results_bitwise_equal(reference, sharded)

    def test_rejects_non_batch_source(self):
        with pytest.raises(ParameterError):
            run_sharded(object(), np.zeros(3))



def write_synthetic_calibration(path) -> None:
    """A numpy-only calibration with a large measured pool overhead, so
    ``plan="auto"`` deterministically picks the single-process numpy
    plan on any host — correctness of the plan *plumbing* is what these
    tests pin; plan *selection* is pinned in tests/test_sched.py."""
    probes = tuple(
        Probe(
            family=name,
            backend="numpy",
            threads=1,
            lanes=lanes,
            samples=samples,
            seconds=samples * (1e-6 + 1e-7 * lanes),
        )
        for name in FAMILY_NAMES
        for lanes in (4, 16, 64)
        for samples in (64, 256)
    )
    Calibration(
        host={"hostname": "synthetic"},
        probes=probes,
        pool={
            "base_seconds": 10.0,
            "per_worker_seconds": 1.0,
            "start_method": "fork",
        },
        created="2026-08-08T00:00:00",
    ).save(path)


class TestExecutionPlanPlumbing:
    """``plan=`` owns the backend / pool / thread knobs end to end —
    and never changes what is computed, only how."""

    def _drive(self, family):
        return scenario_samples(
            "minor-loop-ladder", family.h_scale, family.h_scale / 40.0
        )

    def test_explicit_plan_matches_unplanned_run(self):
        """A hand plan through plan= is bitwise the same run as the
        explicit n_workers knob it replaces — pooled and serial."""
        family = get_family("timeless")
        h = self._drive(family)
        reference = run_sharded(
            family.make_batch(N_CORES, seed=0), h, n_workers=N_WORKERS
        )
        for workers in (1, N_WORKERS):
            planned = run_sharded(
                family.make_batch(N_CORES, seed=0),
                h,
                plan=ExecutionPlan(backend="numpy", n_workers=workers),
            )
            assert_results_bitwise_equal(reference, planned)

    def test_auto_plan_matches_unplanned_run(self, tmp_path, monkeypatch):
        """plan="auto" against a persisted calibration: still bitwise
        against the plain single-process run, for a live batch and for
        an EnsembleSpec recipe."""
        from repro.sched import CALIBRATION_ENV

        target = tmp_path / "cal.json"
        write_synthetic_calibration(target)
        monkeypatch.setenv(CALIBRATION_ENV, str(target))
        family = get_family("timeless")
        h = self._drive(family)
        reference = run_batch_series(family.make_batch(N_CORES, seed=0), h)
        for source in (
            family.make_batch(N_CORES, seed=0),
            EnsembleSpec(family="timeless", n_cores=N_CORES, seed=0),
        ):
            sharded = run_sharded(source, h, plan="auto")
            assert_results_bitwise_equal(reference, sharded)

    def test_threads_clamped_to_host_affinity(self, monkeypatch):
        """workers x threads never exceeds the CPU affinity: a plan
        asking for more lane threads than the host has is clamped
        before shard specs are cut."""
        import repro.parallel.executor as executor

        monkeypatch.setattr(executor, "available_cpus", lambda: 4)
        seen = []
        real_prepare = executor.prepare_job

        def spying_prepare(source, drive, n_workers, threads=1,
                           chunk_lanes=None, by_name=False):
            seen.append((n_workers, threads))
            return real_prepare(source, drive, n_workers, threads,
                                chunk_lanes=chunk_lanes, by_name=by_name)

        monkeypatch.setattr(executor, "prepare_job", spying_prepare)
        family = get_family("timeless")
        h = self._drive(family)
        run_sharded(
            family.make_batch(3, seed=0),
            h,
            plan=ExecutionPlan(
                backend="numpy", n_workers=1, threads_per_worker=64
            ),
        )
        assert seen == [(1, 4)]  # 64 requested, 4 CPUs -> 4 threads

        seen.clear()
        monkeypatch.setattr(executor, "available_cpus", lambda: 1)
        run_sharded(
            family.make_batch(3, seed=0),
            h,
            plan=ExecutionPlan(
                backend="numpy", n_workers=1, threads_per_worker=64
            ),
        )
        assert seen == [(1, 1)]
        for workers, threads in seen:
            assert workers * threads <= 1

    def test_plan_threads_stamped_into_shard_specs(self):
        """prepare_job carries the plan's thread count into every
        ShardSpec (pooled shards always carry threads=1 — the planner
        never composes the axes, and ExecutionPlan cannot express it)."""
        from repro.parallel.executor import prepare_job

        spec = EnsembleSpec(family="timeless", n_cores=6, seed=0)
        drive = DriveSpec(samples=np.zeros(4))
        serial_job = prepare_job(spec, drive, 1, threads=2)
        assert [s.threads for s in serial_job.specs] == [2]
        pooled_job = prepare_job(spec, drive, 3, threads=1)
        assert [s.threads for s in pooled_job.specs] == [1, 1, 1]

    def test_backend_pinned_spec_is_repinned_copy(self):
        from repro.parallel.executor import backend_pinned

        spec = EnsembleSpec(family="timeless", n_cores=4, seed=0)
        with backend_pinned(spec, "numpy") as replaced:
            assert replaced.backend == "numpy"
        assert spec.backend is None  # the original spec is untouched
        with backend_pinned(spec, None) as same:
            assert same is spec

    def test_backend_pinned_live_batch_restores(self):
        from repro.parallel.executor import backend_pinned

        batch = get_family("timeless").make_batch(3, seed=0)
        previous = batch.backend
        with backend_pinned(batch, "numpy") as replaced:
            assert replaced is batch
            assert batch.backend.name == "numpy"
        assert batch.backend is previous


class TestScenarioGrid:
    def test_grid_cells_match_single_process(self, monkeypatch):
        import repro.parallel.grid as grid_mod

        # Fewer cells per chunk than the 8 cells: chunking runs.
        monkeypatch.setattr(grid_mod, "CHUNK_CELLS", 3)
        families = ["timeless", "time-domain"]
        scenarios = ["major-loop", "harmonic"]
        amplitudes = [5e3, 10e3]
        cells = run_scenario_grid(
            families,
            scenarios,
            amplitudes,
            n_cores=5,
            seed=2,
            driver_step=200.0,
            n_workers=2,
        )
        assert [c.key for c in cells] == [
            (f, s, h)
            for f in families
            for s in scenarios
            for h in amplitudes
        ]
        for cell in cells:
            batch = EnsembleSpec(
                family=cell.family, n_cores=5, seed=2
            ).build_batch()
            h = scenario_samples(cell.scenario, cell.h_max, 200.0, n_cores=5)
            assert_results_bitwise_equal(
                run_batch_series(batch, h), cell.result
            )

    def test_serial_grid_matches_pooled(self, monkeypatch):
        import repro.parallel.grid as grid_mod

        monkeypatch.setattr(grid_mod, "CHUNK_CELLS", 2)
        kwargs = dict(n_cores=3, seed=1, driver_step=250.0)
        pooled = run_scenario_grid(
            ["timeless"], ["major-loop", "inrush"], [5e3], n_workers=2, **kwargs
        )
        serial = run_scenario_grid(
            ["timeless"], ["major-loop", "inrush"], [5e3], n_workers=1, **kwargs
        )
        for a, b in zip(pooled, serial):
            assert a.key == b.key
            assert_results_bitwise_equal(a.result, b.result)

    def test_cells_run_eight_to_a_chunk(self, monkeypatch):
        """Every grid hands its transport CHUNK_CELLS (8) cells per
        chunk, in grid order: ten cells are a chunk of 8 and one of 2."""
        import repro.parallel.grid as grid_mod

        assert grid_mod.CHUNK_CELLS == 8
        real_runner = grid_mod.job_runner
        calls = []

        @contextlib.contextmanager
        def counting_runner(route, **options):
            with real_runner(route, **options) as run:

                def counted(chunks):
                    def drawn():
                        for jobs in chunks:
                            calls.append(len(jobs))
                            yield jobs

                    return run(drawn())

                yield counted

        monkeypatch.setattr(grid_mod, "job_runner", counting_runner)
        amplitudes = [1e3 * k for k in range(1, 11)]
        cells = run_scenario_grid(
            ["timeless"], ["major-loop"], amplitudes, n_cores=2,
            driver_step=250.0, n_workers=1,
        )
        assert calls == [8, 2]
        assert [cell.h_max for cell in cells] == amplitudes

    def test_empty_axes_rejected(self):
        with pytest.raises(ParameterError):
            run_scenario_grid([], ["major-loop"], [1e3], n_cores=2)

    def test_backend_resolved_once_at_grid_entry(self, monkeypatch):
        """The grid pins the backend before planning any cell: flipping
        ``REPRO_BACKEND`` mid-campaign (here: before every cell's
        ``prepare_job``) must not re-resolve per cell — with per-cell
        resolution the unregistered name would raise, and a registered
        one would silently split the grid across backends."""
        import repro.parallel.grid as grid_mod

        monkeypatch.setenv(BACKEND_ENV, "numpy")
        real_prepare = grid_mod.prepare_job
        pinned_backends = []

        def flipping_prepare(source, *args, **kwargs):
            monkeypatch.setenv(BACKEND_ENV, "definitely-not-registered")
            pinned_backends.append(source.backend)
            return real_prepare(source, *args, **kwargs)

        monkeypatch.setattr(grid_mod, "prepare_job", flipping_prepare)
        cells = run_scenario_grid(
            ["timeless"],
            ["major-loop"],
            [2e3, 5e3],
            n_cores=2,
            driver_step=250.0,
            n_workers=1,
        )
        assert len(cells) == 2
        assert pinned_backends == ["numpy", "numpy"]

    def test_explicit_backend_argument_stamps_cells(self):
        """run_scenario_grid(backend=...) reaches every cell's spec."""
        import repro.parallel.grid as grid_mod

        cells = grid_mod._plan_cells(
            ["timeless"], ["major-loop"], [1e3], 2, 0, 100.0, "numpy"
        )
        for _, spec, source, _ in cells:
            assert spec.backend == "numpy"
            assert source.backend == "numpy"


class DtypeExtrasShardedBatch:
    """Minimal conforming batch whose extras channels are int32/bool —
    the sharded regression twin of the in-process dtype pin: shared
    output buffers must allocate from the registry-declared dtypes
    instead of hard-coding float64 (which silently coerced these
    channels before the per-channel schema existed)."""

    family = "dtype-shard-test"

    def __init__(self, multipliers) -> None:
        self._mult = np.asarray(multipliers, dtype=np.int32)
        n = len(self._mult)
        self._h = np.zeros(n)
        self._count = np.zeros(n, dtype=np.int32)

    @property
    def n_cores(self) -> int:
        return len(self._mult)

    @property
    def h(self) -> np.ndarray:
        return self._h.copy()

    @property
    def m(self) -> np.ndarray:
        return self._h * 0.5

    @property
    def m_normalised(self) -> np.ndarray:
        return self.m

    @property
    def b(self) -> np.ndarray:
        return self._h * 2.0

    def begin_series(self, h_initial) -> None:
        self._h = np.broadcast_to(
            np.asarray(h_initial, dtype=float), (self.n_cores,)
        ).copy()
        self._count[:] = 0

    def step(self, h_new) -> np.ndarray:
        self._h = np.broadcast_to(
            np.asarray(h_new, dtype=float), (self.n_cores,)
        ).copy()
        self._count += 1
        return np.ones(self.n_cores, dtype=bool)

    def counter_totals(self) -> dict:
        return {"steps": self._count.astype(np.int64)}

    def probe_extras(self) -> dict:
        # Lane-dependent values: reassembly order errors cannot hide.
        return {
            "event_count": (self._count * self._mult).astype(np.int32),
            "armed": (self._count + self._mult) % 2 == 1,
        }

    def driver_step_hint(self) -> float:
        return 1.0

    def snapshot(self):
        return (self._h.copy(), self._count.copy())

    def restore(self, snap) -> None:
        self._h, self._count = snap[0].copy(), snap[1].copy()

    def shard_payload(self, start: int, stop: int) -> dict:
        return {"multipliers": self._mult[start:stop].copy()}


#: The int32/bool extras family the sharded dtype pins run.
DTYPE_FAMILY = ModelFamily(
    name=DtypeExtrasShardedBatch.family,
    description="sharded extras dtype regression family",
    make_models=lambda n, seed: list(range(1, n + 1)),
    stack=lambda models: DtypeExtrasShardedBatch(list(models)),
    extras_channels=(("event_count", "<i4"), ("armed", "|b1")),
    counter_channels=("steps",),
    batch_from_payload=lambda payload: DtypeExtrasShardedBatch(**payload),
)


@pytest.fixture
def dtype_extras_family():
    """Temporarily register the non-float-extras family (fork workers
    inherit the registration; the registry is restored afterwards)."""
    register_family(DTYPE_FAMILY)
    try:
        yield DTYPE_FAMILY
    finally:
        unregister_family(DTYPE_FAMILY.name)


class TestShardedExtrasDtypes:
    """int32/bool extras round-trip every route bitwise; that pin lives
    in ``test_shard_routes.py``, which runs this family on every route."""

    def test_chunked_family_is_bitwise_on_every_route(
        self, dtype_extras_family
    ):
        """Row blocks need nothing of a family beyond the batch
        protocol, so this family — which has no way to cut its lanes —
        chunks bitwise on the serial route, the fork pool, a
        ``WorkerPool`` and an agent."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method (registry is inherited)")
        from repro.dist import WorkerAgent, run_distributed
        from repro.service import WorkerPool

        batch = dtype_extras_family.make_batch(N_CORES)
        h = np.linspace(1.0, 10.0, 10)
        reference = run_batch_series(batch, h)
        assert_results_bitwise_equal(
            reference, run_sharded(batch, h, n_workers=1, chunk_lanes=2)
        )
        assert_results_bitwise_equal(
            reference,
            run_sharded(
                batch, h, n_workers=N_WORKERS, mp_context="fork",
                chunk_lanes=2,
            ),
        )
        with WorkerPool(2, mp_context="fork") as pool:
            assert_results_bitwise_equal(
                reference, run_sharded(batch, h, pool=pool, chunk_lanes=2)
            )
        with WorkerAgent() as agent:
            assert_results_bitwise_equal(
                reference,
                run_distributed(
                    batch, h, hosts=[agent.address], chunk_lanes=2
                ),
            )

    def test_registry_schema_route_allocates_declared_dtypes(
        self, dtype_extras_family
    ):
        """An EnsembleSpec source has no live batch to probe: the
        registry-declared (name, dtype) entries are the allocation
        schema."""
        from repro.parallel.blocks import ShardAssembly
        from repro.parallel.executor import _extras_schema, prepare_job

        spec = EnsembleSpec(family=dtype_extras_family.name, n_cores=4)
        schema = _extras_schema(spec)
        assert schema == {
            "event_count": np.dtype(np.int32),
            "armed": np.dtype(np.bool_),
        }
        job = prepare_job(
            spec,
            DriveSpec(samples=np.array([1.0, 2.0])),
            n_workers=2,
        )
        assembly = ShardAssembly(job)
        assert assembly.extras["event_count"].dtype == np.int32
        assert assembly.extras["armed"].dtype == np.bool_
