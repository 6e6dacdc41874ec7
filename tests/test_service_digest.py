"""Property tests for the service layer's content addressing.

The digest is the cache's correctness boundary, so its invariants get
their own file:

* **representation never reaches the digest** — dict-key order, dtype
  spellings (``"float64"`` vs ``"<f8"`` vs ``np.float64``), array
  memory layout (C/Fortran/strided views of equal values) all digest
  identically;
* **plan-irrelevant knobs never reach the digest** — the payload is
  built from ``(EnsembleSpec, DriveSpec, backend)`` only; pool width
  and lane threads have no field to flow through, and the executor
  pins prove they cannot change the bytes anyway;
* **every semantic field reaches the digest** — family, width, seed,
  backend, scenario, amplitude, driver step, explicit samples: change
  any one and the digest must change.

Hypothesis drives the representation-invariance properties; the
semantic sweep is exhaustive over the payload fields.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import resolve_backend
from repro.errors import ParameterError
from repro.parallel.spec import DriveSpec, EnsembleSpec
from repro.service.digest import canonicalise, digest_payload, spec_digest

BASE_SPEC = dict(family="timeless", n_cores=8, seed=3)
BASE_DRIVE = dict(scenario="major-loop", h_max=1.0e4, driver_step=250.0)


def base_digest() -> str:
    return spec_digest(
        EnsembleSpec(**BASE_SPEC), DriveSpec(**BASE_DRIVE)
    )


# -- representation invariance ----------------------------------------

scalar_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False),
    st.text(max_size=20),
)
payload_dicts = st.dictionaries(
    st.text(min_size=1, max_size=10), scalar_values, min_size=1, max_size=6
)


@given(payload=payload_dicts, seed=st.randoms())
@settings(max_examples=50, deadline=None)
def test_dict_key_order_never_reaches_the_digest(payload, seed):
    items = list(payload.items())
    seed.shuffle(items)
    shuffled = dict(items)
    assert digest_payload(payload) == digest_payload(shuffled)


@given(
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=1,
        max_size=32,
    )
)
@settings(max_examples=50, deadline=None)
def test_array_layout_never_reaches_the_digest(values):
    arr = np.array(values, dtype=np.float64)
    reference = digest_payload({"samples": arr})
    # A Fortran-ordered 2-D reshape of the same values is a DIFFERENT
    # drive (different shape) — but a strided view re-materialised to
    # the same 1-D values must digest equally.
    doubled = np.empty(2 * len(arr), dtype=np.float64)
    doubled[0::2] = arr
    doubled[1::2] = -1.0
    strided = doubled[0::2]
    assert not strided.flags.c_contiguous or len(arr) == 1
    assert digest_payload({"samples": strided}) == reference


def test_equivalent_dtype_spellings_digest_equally():
    """Any spelling of the same dtype — the scalar type, ``np.dtype``
    of either name — canonicalises to one token; arrays built from
    equivalent spellings digest equally too.  Bare *strings* stay
    strings (a scenario literally named "float64" is not a dtype)."""
    spellings = [np.float64, np.dtype("float64"), np.dtype("<f8")]
    digests = {digest_payload({"dtype": s}) for s in spellings}
    assert len(digests) == 1
    assert digest_payload({"dtype": np.dtype("float32")}) not in digests
    arr = [0.0, 1.5, -2.0]
    assert digest_payload(
        {"a": np.array(arr, dtype="float64")}
    ) == digest_payload({"a": np.array(arr, dtype="<f8")})


def test_numpy_scalars_digest_as_python_scalars():
    assert digest_payload({"n": np.int64(8)}) == digest_payload({"n": 8})
    assert digest_payload({"x": np.float64(0.5)}) == digest_payload(
        {"x": 0.5}
    )
    assert digest_payload({"b": np.bool_(True)}) == digest_payload(
        {"b": True}
    )


def test_array_shape_and_dtype_are_semantic():
    flat = np.arange(6, dtype=np.float64)
    assert digest_payload({"a": flat}) != digest_payload(
        {"a": flat.reshape(2, 3)}
    )
    assert digest_payload({"a": flat}) != digest_payload(
        {"a": flat.astype(np.float32)}
    )


def test_unsupported_payloads_rejected_not_guessed():
    class Opaque:
        pass

    with pytest.raises(ParameterError, match="canonicalise"):
        digest_payload({"x": Opaque()})
    with pytest.raises(ParameterError, match="keys must be strings"):
        digest_payload({1: "x"})


def test_canonical_form_is_json_stable():
    payload = {
        "z": np.arange(3),
        "a": {"nested": (1, 2.5, None)},
        "dtype": np.float64,
    }
    text = json.dumps(canonicalise(payload), sort_keys=True)
    assert json.loads(text) == canonicalise(payload)


# -- plan-irrelevant fields -------------------------------------------

def test_digest_is_execution_shape_blind():
    """The payload is built from the spec/drive/backend triple only;
    there is no field for pool width, threads or chunking —
    the same request digests identically however it will be executed."""
    spec = EnsembleSpec(**BASE_SPEC)
    drive = DriveSpec(**BASE_DRIVE)
    assert spec_digest(spec, drive) == base_digest()
    # Rebuilding identical specs (fresh objects) digests identically.
    assert spec_digest(
        EnsembleSpec(**BASE_SPEC), DriveSpec(**BASE_DRIVE)
    ) == base_digest()


def test_default_backend_and_pinned_default_digest_equally():
    default_name = resolve_backend(None).name
    pinned = EnsembleSpec(**BASE_SPEC, backend=default_name)
    unpinned = EnsembleSpec(**BASE_SPEC)
    drive = DriveSpec(**BASE_DRIVE)
    assert spec_digest(pinned, drive) == spec_digest(unpinned, drive)
    assert spec_digest(unpinned, drive, backend=default_name) == spec_digest(
        unpinned, drive
    )


# -- every semantic field is load-bearing -----------------------------

@pytest.mark.parametrize(
    "change",
    [
        {"family": "preisach"},
        {"n_cores": 9},
        {"seed": 4},
    ],
    ids=lambda change: next(iter(change)),
)
def test_ensemble_fields_are_semantic(change):
    spec = EnsembleSpec(**{**BASE_SPEC, **change})
    assert spec_digest(spec, DriveSpec(**BASE_DRIVE)) != base_digest()


@pytest.mark.parametrize(
    "change",
    [
        {"scenario": "harmonic"},
        {"h_max": 1.1e4},
        {"driver_step": 125.0},
    ],
    ids=lambda change: next(iter(change)),
)
def test_drive_fields_are_semantic(change):
    drive = DriveSpec(**{**BASE_DRIVE, **change})
    assert spec_digest(EnsembleSpec(**BASE_SPEC), drive) != base_digest()


def test_backend_is_semantic_when_multiple_registered():
    """numpy's bitwise tier and a JIT backend's rtol tier must never
    cross-serve — the backend name is part of the key.  Runs wherever
    a second backend is registered (the numba CI leg)."""
    from repro.backend import list_backends

    names = [backend.name for backend in list_backends()]
    if len(names) < 2:
        pytest.skip("only one backend registered on this host")
    spec = EnsembleSpec(**BASE_SPEC)
    drive = DriveSpec(**BASE_DRIVE)
    assert spec_digest(spec, drive, backend=names[0]) != spec_digest(
        spec, drive, backend=names[1]
    )


def test_explicit_samples_are_semantic():
    spec = EnsembleSpec(**BASE_SPEC)
    a = spec_digest(spec, DriveSpec(samples=np.array([0.0, 1.0, 0.0])))
    b = spec_digest(spec, DriveSpec(samples=np.array([0.0, 2.0, 0.0])))
    c = spec_digest(spec, DriveSpec(samples=np.array([0.0, 1.0, 0.0])))
    assert a != b
    assert a == c
    assert a != base_digest()


@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=16,
    ),
    index=st.integers(min_value=0, max_value=15),
    delta=st.floats(min_value=1e-6, max_value=1e3),
)
@settings(max_examples=50, deadline=None)
def test_any_sample_change_changes_the_digest(values, index, delta):
    spec = EnsembleSpec(**BASE_SPEC)
    arr = np.array(values, dtype=np.float64)
    changed = arr.copy()
    changed[index % len(arr)] += delta
    a = spec_digest(spec, DriveSpec(samples=arr))
    b = spec_digest(spec, DriveSpec(samples=changed))
    assert a != b


def test_live_batches_are_not_content_addressable():
    spec = EnsembleSpec(**BASE_SPEC)
    with pytest.raises(ParameterError, match="EnsembleSpec"):
        spec_digest(spec.build_batch(), DriveSpec(**BASE_DRIVE))
    with pytest.raises(ParameterError, match="DriveSpec"):
        spec_digest(spec, np.zeros(4))


# ---------------------------------------------------------------------------
# Unknown-extra-field backstop (the runtime half of lint rule L004)
# ---------------------------------------------------------------------------


def test_subclass_with_extra_semantic_field_is_rejected():
    """A spec subclass growing a field the payload never serialises
    must raise, not silently digest to its parent's key."""
    import dataclasses

    @dataclasses.dataclass(frozen=True)
    class AnisotropicSpec(EnsembleSpec):
        anisotropy: float = 0.0

    spec = AnisotropicSpec(**BASE_SPEC)
    with pytest.raises(ParameterError, match="anisotropy"):
        spec_digest(spec, DriveSpec(**BASE_DRIVE))


def test_subclass_with_extra_drive_field_is_rejected():
    import dataclasses

    @dataclasses.dataclass(frozen=True, eq=False)
    class RampDrive(DriveSpec):
        ramp_rate: float = 0.0

    with pytest.raises(ParameterError, match="ramp_rate"):
        spec_digest(EnsembleSpec(**BASE_SPEC), RampDrive(**BASE_DRIVE))


def test_subclass_with_execution_shape_field_still_digests():
    """Execution-shape fields are on the documented exclusion list —
    a subclass carrying one digests exactly like its parent (pool
    width is bitwise-neutral, PR 3)."""
    import dataclasses

    @dataclasses.dataclass(frozen=True)
    class PooledSpec(EnsembleSpec):
        n_workers: int = 4

    digest = spec_digest(PooledSpec(**BASE_SPEC), DriveSpec(**BASE_DRIVE))
    assert digest == base_digest()
