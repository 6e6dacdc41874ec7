"""Wire-payload properties (hypothesis): every spec type repro.dist
ships must survive pickle → bytes → unpickle intact, and the ensemble
and drive specs with their content digest intact.

The service's result cache keys on content digests computed
*before* a spec crosses a process or socket boundary; a digest that
drifted across pickling would silently alias distinct requests (or
miss identical ones).  These properties pin the transport invariant:
round-tripped specs are equal, and ensembles and drives digest
identically.
"""

import pickle

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.models.registry import list_families
from repro.parallel import DriveSpec, EnsembleSpec, ShardSpec
from repro.scenarios import list_scenarios
from repro.service.digest import spec_digest

FAMILY_NAMES = [family.name for family in list_families()]
SCENARIO_NAMES = [scenario.name for scenario in list_scenarios()]

positive_field = st.floats(
    min_value=1.0, max_value=1e6, allow_nan=False, allow_infinity=False
)

ensembles = st.builds(
    EnsembleSpec,
    family=st.sampled_from(FAMILY_NAMES),
    n_cores=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)

scenario_drives = st.builds(
    DriveSpec,
    scenario=st.sampled_from(SCENARIO_NAMES),
    h_max=positive_field,
    driver_step=positive_field,
)

sample_drives = st.builds(
    lambda values: DriveSpec(samples=np.asarray(values, dtype=float)),
    st.lists(
        st.floats(
            min_value=-1e6, max_value=1e6,
            allow_nan=False, allow_infinity=False,
        ),
        min_size=1,
        max_size=8,
    ),
)

drives = st.one_of(scenario_drives, sample_drives)


@st.composite
def shard_specs(draw):
    ensemble = draw(ensembles)
    start = draw(st.integers(min_value=0, max_value=ensemble.n_cores - 1))
    stop = draw(st.integers(min_value=start + 1, max_value=ensemble.n_cores))
    return ShardSpec(
        family=ensemble.family,
        n_cores_total=ensemble.n_cores,
        start=start,
        stop=stop,
        drive=draw(scenario_drives),
        ensemble=ensemble,
        threads=draw(st.integers(min_value=1, max_value=4)),
        chunk_lanes=draw(
            st.one_of(st.none(), st.integers(min_value=1, max_value=8))
        ),
    )


@settings(max_examples=50, deadline=None)
@given(ensemble=ensembles, drive=scenario_drives)
def test_ensemble_and_drive_survive_the_wire(ensemble, drive):
    thawed_ensemble = pickle.loads(pickle.dumps(ensemble))
    thawed_drive = pickle.loads(pickle.dumps(drive))
    assert thawed_ensemble == ensemble
    assert thawed_drive == drive
    assert spec_digest(thawed_ensemble, thawed_drive) == spec_digest(
        ensemble, drive
    )


@settings(max_examples=50, deadline=None)
@given(drive=sample_drives, ensemble=ensembles)
def test_explicit_sample_drives_survive_the_wire(drive, ensemble):
    thawed = pickle.loads(pickle.dumps(drive))
    assert thawed == drive
    assert spec_digest(ensemble, thawed) == spec_digest(ensemble, drive)


def assert_same_shard(thawed, spec):
    """ShardSpec compares by identity; pin the scalar fields and the
    array-aware drive explicitly."""
    assert thawed.family == spec.family
    assert thawed.n_cores_total == spec.n_cores_total
    assert (thawed.start, thawed.stop) == (spec.start, spec.stop)
    assert thawed.drive == spec.drive
    assert thawed.ensemble == spec.ensemble
    assert thawed.threads == spec.threads
    assert thawed.chunk_lanes == spec.chunk_lanes


@settings(max_examples=50, deadline=None)
@given(spec=shard_specs())
def test_shard_specs_survive_the_wire(spec):
    assert_same_shard(pickle.loads(pickle.dumps(spec)), spec)


@settings(max_examples=25, deadline=None)
@given(spec=shard_specs())
def test_double_pickle_is_stable(spec):
    once = pickle.loads(pickle.dumps(spec))
    assert_same_shard(pickle.loads(pickle.dumps(once)), spec)
