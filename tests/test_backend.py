"""Tests for the array-backend layer: registry, selection surfaces,
fused-sweep dispatch, and the extras-dtype contract of the executor."""

import numpy as np
import pytest

from repro.backend import (
    BACKEND_ENV,
    NUMPY_BACKEND,
    ArrayBackend,
    as_backend,
    get_backend,
    list_backends,
    resolve_backend,
)
from repro.batch.engine import BatchTimelessModel
from repro.batch.sweep import run_batch_series
from repro.batch.time_domain import BatchTimeDomainModel
from repro.core.sweep import waypoint_samples
from repro.errors import ParameterError, ScenarioError
from repro.models.registry import get_family, perturbed_parameters
from repro.parallel import run_sharded
from repro.parallel.executor import prepare_job
from repro.parallel.spec import DriveSpec, EnsembleSpec
from repro.scenarios import run_scenario


def drive(n_steps_scale: float = 1.0) -> np.ndarray:
    h = 10e3 * n_steps_scale
    return waypoint_samples([0.0, h, -h, h], h / 40.0)


class TestRegistry:
    def test_numpy_backend_is_registered_and_exact(self):
        backend = get_backend("numpy")
        assert backend is NUMPY_BACKEND
        assert backend.exact and backend.rtol == 0.0
        # The reference namespace IS the numpy module: threading it
        # through the kernels cannot change a bit.
        assert backend.xp is np

    def test_unknown_backend_errors(self):
        with pytest.raises(ParameterError, match="unknown array backend"):
            get_backend("tpu")

    def test_as_backend_default_is_numpy_not_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "definitely-not-registered")
        assert as_backend(None).name == "numpy"  # ctor default ignores env
        with pytest.raises(ParameterError):
            resolve_backend(None)  # the selection surfaces do not

    def test_resolve_precedence(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend(None).name == "numpy"
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        assert resolve_backend(None).name == "numpy"
        assert resolve_backend("numpy") is NUMPY_BACKEND
        assert resolve_backend(NUMPY_BACKEND) is NUMPY_BACKEND

    def test_list_backends_sorted(self):
        names = [backend.name for backend in list_backends()]
        assert names == sorted(names)
        assert "numpy" in names


class TestEngineBackendPlumbing:
    def test_engines_default_to_numpy(self):
        params = perturbed_parameters(3)
        assert BatchTimelessModel(params).backend.name == "numpy"
        assert BatchTimeDomainModel(params).backend.name == "numpy"

    def test_use_backend_returns_self(self):
        batch = BatchTimelessModel(perturbed_parameters(2))
        assert batch.use_backend("numpy") is batch
        assert batch.backend is NUMPY_BACKEND

    def test_shard_payload_carries_backend_for_every_family(self):
        for family in ("timeless", "preisach", "time-domain"):
            batch = get_family(family).make_batch(3, backend="numpy")
            payload = batch.shard_payload(0, 2)
            assert payload["backend"] == "numpy", family
            rebuilt = type(batch).from_shard_payload(payload)
            assert rebuilt.backend.name == "numpy", family

    def test_make_batch_resolves_environment(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        batch = get_family("timeless").make_batch(2)
        assert batch.backend.name == "numpy"
        monkeypatch.setenv(BACKEND_ENV, "not-a-backend")
        with pytest.raises(ParameterError):
            get_family("timeless").make_batch(2)

    def test_step_series_validates_like_the_executor(self):
        batch = BatchTimelessModel(perturbed_parameters(2))
        with pytest.raises(ParameterError, match="at least one"):
            batch.step_series(np.empty(0))
        with pytest.raises(ParameterError, match="columns"):
            batch.step_series(np.zeros((5, 3)))

    def test_fused_true_requires_step_series(self):
        """A model without the fused hook rejects fused=True loudly and
        falls back silently under the default fused=None."""
        with pytest.raises(ParameterError, match="step_series"):
            run_batch_series(
                FixedDtypeExtrasBatch(n=2), np.array([1.0, 2.0]), fused=True
            )
        fallback = run_batch_series(
            FixedDtypeExtrasBatch(n=2), np.array([1.0, 2.0]), fused=None
        )
        assert len(fallback) == 2


class TestFusedSweepEquality:
    """Quick direct pins complementing the generic conformance suite."""

    def test_timeless_fused_is_bitwise(self):
        params = perturbed_parameters(8, seed=4)
        a = BatchTimelessModel(params)
        b = BatchTimelessModel(params)
        h = drive()
        fused = run_batch_series(a, h)
        loop = run_batch_series(b, h, fused=False)
        assert np.array_equal(fused.m, loop.m)
        assert np.array_equal(fused.b, loop.b)
        assert np.array_equal(fused.updated, loop.updated)
        assert np.array_equal(fused.extras["m_an"], loop.extras["m_an"])
        for key in loop.counters:
            assert np.array_equal(fused.counters[key], loop.counters[key])
        # post-run state advanced identically (snapshot equality)
        sa, ca = a.snapshot()
        sb, cb = b.snapshot()
        for name in sa.__dataclass_fields__:
            assert np.array_equal(getattr(sa, name), getattr(sb, name)), name
        for name in ca.__dataclass_fields__:
            assert np.array_equal(getattr(ca, name), getattr(cb, name)), name

    def test_preisach_fused_rejects_non_finite_upfront(self):
        batch = get_family("preisach").make_batch(2, backend="numpy")
        h = np.array([0.0, 1e3, np.nan])
        with pytest.raises(ParameterError, match="finite"):
            batch.step_series(h)


class FixedDtypeExtrasBatch:
    """Minimal conforming batch whose extras channels are not float64:
    the executor must allocate recording buffers from each channel's
    probed dtype instead of hard-coding float (regression pin)."""

    family = "dtype-test"

    def __init__(self, n: int = 2) -> None:
        self._n = n
        self._h = np.zeros(n)
        self._count = np.zeros(n, dtype=np.int32)

    @property
    def n_cores(self) -> int:
        return self._n

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
            np.asarray(h_initial, dtype=float), (self._n,)
        ).copy()
        self._count[:] = 0

    def step(self, h_new) -> np.ndarray:
        self._h = np.broadcast_to(
            np.asarray(h_new, dtype=float), (self._n,)
        ).copy()
        self._count += 1
        return np.ones(self._n, dtype=bool)

    def counter_totals(self) -> dict:
        return {"steps": self._count.astype(np.int64)}

    def probe_extras(self) -> dict:
        return {
            "event_count": self._count.copy(),
            "armed": self._count % 2 == 1,
        }

    def driver_step_hint(self) -> float:
        return 1.0

    def snapshot(self):
        return (self._h.copy(), self._count.copy())

    def restore(self, snap) -> None:
        self._h, self._count = snap[0].copy(), snap[1].copy()


def test_family_extras_schema_resolves_dtypes():
    """Registry extras entries: bare names mean float64, (name, dtype)
    pairs declare the integer/boolean channels the sharded executor
    must allocate shared buffers for."""
    from repro.models.registry import ModelFamily

    family = ModelFamily(
        name="schema-test",
        description="schema resolution test",
        make_models=lambda n, seed: [],
        stack=lambda models: None,
        extras_channels=("plain", ("event_count", "<i4"), ("armed", "|b1")),
        batch_from_payload=lambda payload: None,
    )
    schema = family.extras_schema()
    assert schema == {
        "plain": np.dtype(np.float64),
        "event_count": np.dtype(np.int32),
        "armed": np.dtype(np.bool_),
    }
    assert get_family("timeless").extras_schema() == {
        "m_an": np.dtype(np.float64)
    }


def test_executor_preserves_extras_dtypes():
    """The extras preallocation satellite: integer and boolean channels
    survive the round trip instead of being coerced to float64."""
    result = run_batch_series(
        FixedDtypeExtrasBatch(n=2), np.array([1.0, 2.0, 3.0])
    )
    assert result.extras["event_count"].dtype == np.int32
    assert np.array_equal(
        result.extras["event_count"],
        np.array([[1, 1], [2, 2], [3, 3]], dtype=np.int32),
    )
    assert result.extras["armed"].dtype == np.bool_
    assert np.array_equal(
        result.extras["armed"],
        np.array([[True, True], [False, False], [True, True]]),
    )


class TestNumbaDriverSemantics:
    """Every numba driver's loop body is a plain importable function
    that numba compiles lazily — so the semantics are validated here by
    interpreting them, on hosts with or without numba installed."""

    def _interpreted(self, monkeypatch):
        from repro.backend import numba_backend

        monkeypatch.setitem(
            numba_backend._KERNEL_CACHE,
            "timeless",
            numba_backend.timeless_series_loop,
        )
        monkeypatch.setitem(
            numba_backend._KERNEL_CACHE,
            "preisach",
            numba_backend.preisach_series_loop,
        )
        monkeypatch.setitem(
            numba_backend._KERNEL_CACHE,
            "time-domain",
            numba_backend.time_domain_series_loop,
        )
        return numba_backend

    def test_loop_matches_reference_within_jit_tier(self, monkeypatch):
        numba_backend = self._interpreted(monkeypatch)
        params = perturbed_parameters(3, seed=7)
        fused_batch = BatchTimelessModel(
            params, dhmax=np.array([40.0, 60.0, 90.0])
        )
        loop_batch = BatchTimelessModel(
            params, dhmax=np.array([40.0, 60.0, 90.0])
        )
        h = drive()
        fused_batch.begin_series(h[0])
        out = numba_backend._timeless_fused_series(fused_batch, h)
        assert out is not None
        m, b, updated, extras = out
        reference = run_batch_series(loop_batch, h, fused=False)
        # Discretiser decisions involve only exactly-representable
        # operands: they match the reference bitwise even off-backend.
        assert np.array_equal(updated, reference.updated)
        assert np.array_equal(
            fused_batch.counters.euler_steps,
            reference.counters["euler_steps"],
        )
        # Trajectories hold the JIT tier (libm vs NumPy: 1 ulp/call).
        rtol = 1e-9
        for actual, expected in ((m, reference.m), (b, reference.b),
                                 (extras["m_an"], reference.extras["m_an"])):
            scale = float(np.max(np.abs(expected)))
            assert np.allclose(actual, expected, rtol=rtol, atol=rtol * scale)

    def test_driver_declines_non_modified_langevin(self):
        from repro.backend import numba_backend
        from repro.ja.anhysteretic import LangevinAnhysteretic

        batch = BatchTimelessModel(
            perturbed_parameters(2, seed=1),
            anhysteretic=LangevinAnhysteretic(np.array([900.0, 1100.0])),
        )
        assert numba_backend._timeless_fused_series(batch, drive()) is None
        # and the engine's fused entry falls back to the exact path
        reference = BatchTimelessModel(
            perturbed_parameters(2, seed=1),
            anhysteretic=LangevinAnhysteretic(np.array([900.0, 1100.0])),
        )
        h = drive()
        fused = run_batch_series(batch, h)
        loop = run_batch_series(reference, h, fused=False)
        assert np.array_equal(fused.b, loop.b)

    def test_preisach_loop_matches_reference(self, monkeypatch):
        """Relay switching, the ``updated`` mask and ``switch_events``
        are exact across backends (threshold comparisons on
        exactly-representable operands); trajectories differ only by
        the sequential-vs-pairwise relay sum, far inside the JIT tier."""
        numba_backend = self._interpreted(monkeypatch)
        family = get_family("preisach")
        fused_batch = family.make_batch(3, seed=5)
        loop_batch = family.make_batch(3, seed=5)
        h = drive(2.0)  # 20 kA/m: the preisach drive amplitude
        fused_batch.begin_series(h[0])
        out = numba_backend._preisach_fused_series(fused_batch, h)
        assert out is not None
        m, b, updated, extras = out
        assert extras == {}
        reference = run_batch_series(loop_batch, h, fused=False)
        assert np.array_equal(updated, reference.updated)
        assert np.array_equal(
            fused_batch.counter_totals()["switch_events"],
            reference.counters["switch_events"],
        )
        rtol = 1e-9
        for actual, expected in ((m, reference.m), (b, reference.b)):
            scale = float(np.max(np.abs(expected)))
            assert np.allclose(actual, expected, rtol=rtol, atol=rtol * scale)
        # the applied-field state advanced exactly (driver commit)
        assert np.array_equal(fused_batch.h, loop_batch.h)

    @pytest.mark.parametrize("name", ["timeless", "preisach", "time-domain"])
    def test_driver_resumes_a_cut_series_bitwise(self, name, monkeypatch):
        """A series cut into several fused calls — row blocks — is the
        one call, bit for bit: each call resumes the state the last one
        committed, and the Preisach driver seeds its relay sum the way
        its loop adds, so a cut carries exactly the value one call
        would have held."""
        numba_backend = self._interpreted(monkeypatch)
        run = {
            "timeless": numba_backend._timeless_fused_series,
            "preisach": numba_backend._preisach_fused_series,
            "time-domain": numba_backend._time_domain_fused_series,
        }[name]
        family = get_family(name)
        whole_batch = family.make_batch(3, seed=5)
        h = drive(family.h_scale / 10e3)
        whole_batch.begin_series(h[0])
        whole = run(whole_batch, h)
        for segments in (2, 3, 7):
            batch = family.make_batch(3, seed=5)
            batch.begin_series(h[0])
            n = len(h)
            parts = [
                run(batch, h[j * n // segments:(j + 1) * n // segments])
                for j in range(segments)
            ]
            for i in range(3):
                joined = np.concatenate([part[i] for part in parts])
                assert np.array_equal(joined, whole[i]), (segments, i)
            totals = batch.counter_totals()
            expected = whole_batch.counter_totals()
            assert totals.keys() == expected.keys()
            for key in expected:
                assert np.array_equal(totals[key], expected[key]), key

    def test_preisach_driver_rejects_non_finite(self, monkeypatch):
        numba_backend = self._interpreted(monkeypatch)
        batch = get_family("preisach").make_batch(2)
        batch.begin_series(0.0)
        with pytest.raises(ParameterError, match="finite"):
            numba_backend._preisach_fused_series(
                batch, np.array([0.0, np.inf])
            )

    def test_time_domain_loop_matches_reference(self, monkeypatch):
        """The dM/dH chain: the ``dh != 0`` activity mask and ``steps``
        are exact, pathology counters agree, trajectories hold the JIT
        tier (here: bitwise up to libm-vs-NumPy transcendentals)."""
        numba_backend = self._interpreted(monkeypatch)
        family = get_family("time-domain")
        fused_batch = family.make_batch(3, seed=5)
        loop_batch = family.make_batch(3, seed=5)
        h = drive()
        fused_batch.begin_series(h[0])
        out = numba_backend._time_domain_fused_series(fused_batch, h)
        assert out is not None
        m, b, updated, extras = out
        assert extras == {}
        reference = run_batch_series(loop_batch, h, fused=False)
        assert np.array_equal(updated, reference.updated)
        totals = fused_batch.counter_totals()
        for key in ("steps", "slope_evaluations"):
            assert np.array_equal(totals[key], reference.counters[key]), key
        assert np.array_equal(
            totals["negative_slope_evaluations"],
            reference.counters["negative_slope_evaluations"],
        )
        rtol = 1e-9
        for actual, expected in ((m, reference.m), (b, reference.b)):
            scale = float(np.max(np.abs(expected)))
            assert np.allclose(actual, expected, rtol=rtol, atol=rtol * scale)

    def test_time_domain_loop_freezes_diverged_lanes(self, monkeypatch):
        """Runaway lanes freeze stickily at their per-lane limit — the
        compiled chain reproduces the reference's pathology accounting,
        not just its healthy trajectories."""
        from repro.core.slope import SlopeGuards

        numba_backend = self._interpreted(monkeypatch)
        params = perturbed_parameters(4, seed=3)
        limits = np.array([0.4, 0.5, 100.0, 0.6])
        fused_batch = BatchTimeDomainModel(
            params, guards=SlopeGuards.none(), divergence_limit=limits
        )
        loop_batch = BatchTimeDomainModel(
            params, guards=SlopeGuards.none(), divergence_limit=limits
        )
        h = waypoint_samples([0.0, 20e3, -20e3, 20e3], 500.0)
        fused_batch.begin_series(h[0])
        m, b, updated, _ = numba_backend._time_domain_fused_series(
            fused_batch, h
        )
        reference = run_batch_series(loop_batch, h, fused=False)
        assert fused_batch.diverged.any()  # the scenario actually bites
        assert np.array_equal(fused_batch.diverged, loop_batch.diverged)
        assert np.array_equal(updated, reference.updated)
        assert np.array_equal(
            fused_batch.counter_totals()["steps"], reference.counters["steps"]
        )

    def test_time_domain_driver_declines_non_modified_langevin(
        self, monkeypatch
    ):
        from repro.ja.anhysteretic import LangevinAnhysteretic

        numba_backend = self._interpreted(monkeypatch)
        batch = BatchTimeDomainModel(
            perturbed_parameters(2, seed=1),
            anhysteretic=LangevinAnhysteretic(np.array([900.0, 1100.0])),
        )
        batch.begin_series(0.0)
        assert numba_backend._time_domain_fused_series(batch, drive()) is None

    def test_backend_registers_drivers_for_all_families(self):
        """The numba backend (when importable) compiles a driver for
        every built-in family; the lookup API resolves them by name."""
        from repro.backend import numba_backend

        backend = numba_backend.build_numba_backend()
        if backend is None:
            backend = ArrayBackend(
                name="stub",
                xp=np,
                exact=False,
                rtol=1e-9,
                fused_series={
                    "timeless": numba_backend._timeless_fused_series,
                    "preisach": numba_backend._preisach_fused_series,
                    "time-domain": numba_backend._time_domain_fused_series,
                },
            )
        assert backend.fused_families == ("preisach", "time-domain", "timeless")
        for name in ("timeless", "preisach", "time-domain"):
            assert callable(backend.fused_driver(name)), name
        assert backend.fused_driver("no-such-family") is None
        # the exact reference backend compiles no drivers at all
        assert NUMPY_BACKEND.fused_families == ()


def test_runner_records_backend_header(tmp_path):
    """The CLI stamps the active backend into every report header, so
    regenerated EXP tables are attributable to a backend."""
    from repro.experiments.registry import ExperimentResult
    from repro.experiments.runner import _write_result

    result = ExperimentResult(experiment_id="EXP-HDR-TEST", title="header")
    result.artifacts = {"extra": "artifact-body"}
    _write_result(result, tmp_path, "numpy")
    report = (tmp_path / "EXP-HDR-TEST.txt").read_text()
    assert report.startswith("# backend: numpy\n")
    assert "EXP-HDR-TEST" in report
    # artefact payloads stay verbatim (downstream parsers read them raw)
    assert (tmp_path / "EXP-HDR-TEST_extra.txt").read_text().startswith(
        "artifact-body"
    )


class TestSelectionSurfaces:
    def test_run_scenario_backend_argument(self):
        batch = get_family("timeless").make_batch(2, backend="numpy")
        result = run_scenario(batch, "major-loop", h_max=5e3, backend="numpy")
        assert batch.backend.name == "numpy"
        assert result.n_cores == 2

    def test_run_scenario_backend_rejected_for_foreign_batch_models(self):
        """A protocol-conforming batch model without the use_backend
        hook gets a clear error, not an AttributeError."""
        with pytest.raises(ScenarioError, match="use_backend"):
            run_scenario(
                FixedDtypeExtrasBatch(n=2),
                "major-loop",
                h_max=10.0,
                backend="numpy",
            )

    def test_run_scenario_backend_rejected_for_scalars(self):
        scalar = get_family("timeless").make_scalar()
        with pytest.raises(ScenarioError, match="no array backend"):
            run_scenario(
                scalar,
                "major-loop",
                h_max=5e3,
                driver_step=100.0,
                backend="numpy",
            )

    def test_ensemble_spec_validates_and_applies_backend(self):
        with pytest.raises(ParameterError, match="unknown array backend"):
            EnsembleSpec(family="timeless", n_cores=2, backend="gpu")
        spec = EnsembleSpec(family="timeless", n_cores=2, backend="numpy")
        assert spec.build_batch().backend.name == "numpy"

    def test_prepare_job_pins_unresolved_spec_backend(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        spec = EnsembleSpec(family="timeless", n_cores=4)
        job = prepare_job(spec, DriveSpec(samples=drive()), n_workers=2)
        backends = {shard.ensemble.backend for shard in job.specs}
        assert backends == {"numpy"}

    def test_sharded_run_matches_fused_single_process(self):
        batch = get_family("timeless").make_batch(5, backend="numpy")
        h = drive()
        single = run_batch_series(batch, h)
        sharded = run_sharded(batch, h, n_workers=1)
        assert np.array_equal(single.m, sharded.m)
        assert np.array_equal(single.b, sharded.b)
        for key in single.counters:
            assert np.array_equal(single.counters[key], sharded.counters[key])
