"""Scenario registry and library: schedules, sampling, execution."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.batch.engine import BatchTimelessModel
from repro.core.model import TimelessJAModel
from repro.core.sweep import run_sweep, waypoint_samples
from repro.errors import ScenarioError
from repro.ja.parameters import PAPER_PARAMETERS
from repro.scenarios import (
    Scenario,
    get_scenario,
    list_scenarios,
    run_scenario,
    scenario_samples,
)

from test_core_sweep import assert_same_bits, per_sample_waypoints


def per_lane_forc_family(h_max, driver_step, n_cores):
    """``forc-family`` lane by lane, one Python float per sample, each
    shorter lane padded with its own last sample: the reference the
    masked construction must match bit for bit."""
    alphas = np.linspace(-0.8 * h_max, 0.8 * h_max, n_cores)
    lanes = [
        per_sample_waypoints([0.0, h_max, float(alpha), h_max], driver_step)
        for alpha in alphas
    ]
    out = np.empty((max(len(lane) for lane in lanes), n_cores))
    for i, lane in enumerate(lanes):
        out[: len(lane), i] = lane
        out[len(lane) :, i] = lane[-1]
    return out

EXPECTED = {
    "major-loop",
    "minor-loop-ladder",
    "demagnetisation",
    "forc-descent",
    "major-loop-return",
    "biased-minor",
    "centred-minor",
    "forc-family",
    "inrush",
    "harmonic",
}


class TestRegistry:
    def test_catalogue_registered(self):
        names = {s.name for s in list_scenarios()}
        assert EXPECTED <= names

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ScenarioError):
            get_scenario("no-such-drive")

    def test_scenario_needs_exactly_one_builder(self):
        with pytest.raises(ScenarioError):
            Scenario(name="broken", description="no builder")
        with pytest.raises(ScenarioError):
            Scenario(
                name="broken2",
                description="both builders",
                waypoint_builder=lambda h: [0.0, h],
                sample_builder=lambda h, s, n: np.zeros(3),
            )

    def test_sampled_scenarios_have_no_waypoints(self):
        with pytest.raises(ScenarioError):
            get_scenario("harmonic").waypoints(1e3)

    def test_bad_parameters_rejected(self):
        scenario = get_scenario("major-loop")
        with pytest.raises(ScenarioError):
            scenario.samples(-1.0, 10.0)
        with pytest.raises(ScenarioError):
            scenario.samples(1e3, 0.0)
        with pytest.raises(ScenarioError):
            scenario.samples(1e3, 10.0, n_cores=0)


class TestSchedules:
    def test_waypoint_scenarios_sample_their_vertices(self):
        scenario = get_scenario("major-loop")
        samples = scenario.samples(8e3, 100.0)
        expected = waypoint_samples(scenario.waypoints(8e3), 100.0)
        assert np.array_equal(samples, expected)

    def test_cross_model_vertices_are_exact_fractions(self):
        """The EXP-X4 schedules at h=20 kA/m hit the historic vertices."""
        h = 20e3
        assert get_scenario("forc-descent").waypoints(h) == [h, -10e3]
        assert get_scenario("major-loop-return").waypoints(h) == [
            h, -10e3, 10e3, -10e3, 10e3
        ]
        assert get_scenario("biased-minor").waypoints(h) == [
            h, 5000.0, -1000.0, 5000.0, -1000.0, 5000.0
        ]
        assert get_scenario("centred-minor").waypoints(h) == [
            h, 0.0, 2000.0, -2000.0, 2000.0
        ]

    def test_forc_family_is_per_core_and_padded(self):
        scenario = get_scenario("forc-family")
        assert scenario.per_core
        samples = scenario.samples(10e3, 200.0, n_cores=5)
        assert samples.ndim == 2 and samples.shape[1] == 5
        # every lane starts at 0, peaks at +h, reverses at its own alpha
        assert np.array_equal(samples[0], np.zeros(5))
        assert (samples.max(axis=0) == 10e3).all()
        # reversal fields spread over [-0.8, 0.8] * h; lane minima are
        # min(alpha, 0) and must be non-decreasing across lanes
        minima = samples.min(axis=0)
        assert minima[0] == -8e3
        assert (np.diff(minima) >= 0).all()
        # lanes genuinely differ (each reverses at its own field)
        assert len({tuple(samples[:, i]) for i in range(5)}) == 5

    def test_sampled_drives_bounded_and_smooth(self):
        for name in ("inrush", "harmonic"):
            samples = get_scenario(name).samples(10e3, 100.0)
            assert samples.ndim == 1
            assert np.abs(samples).max() <= 10e3 * 1.2
            assert np.abs(np.diff(samples)).max() <= 3.0 * 100.0
            assert samples[0] == 0.0

    def test_demagnetisation_decays_towards_origin(self):
        samples = get_scenario("demagnetisation").samples(10e3, 100.0)
        assert abs(samples[-1]) < 0.1 * 10e3


class TestExecution:
    def test_batch_run_matches_scalar_sweep(self):
        """Scenario execution through the batch executor is bitwise the
        scalar run_sweep of the same schedule."""
        scenario = get_scenario("minor-loop-ladder")
        batch = BatchTimelessModel([PAPER_PARAMETERS], dhmax=50.0)
        result = run_scenario(batch, scenario, h_max=9e3, driver_step=12.5)

        model = TimelessJAModel(PAPER_PARAMETERS, dhmax=50.0)
        reference = run_sweep(
            model, scenario.waypoints(9e3), driver_step=12.5
        )
        lane = result.core(0)
        assert np.array_equal(lane.b, reference.b)
        assert lane.euler_steps == reference.euler_steps

    def test_scenario_resolved_by_name(self):
        batch = BatchTimelessModel([PAPER_PARAMETERS], dhmax=50.0)
        result = run_scenario(batch, "harmonic", h_max=5e3, driver_step=50.0)
        assert result.family == "timeless"
        assert result.finite

    def test_scalar_model_path(self):
        model = TimelessJAModel(PAPER_PARAMETERS, dhmax=50.0)
        h, m, b = run_scenario(model, "major-loop", h_max=5e3, driver_step=50.0)
        assert h.shape == m.shape == b.shape
        with pytest.raises(ScenarioError):
            run_scenario(model, "major-loop", h_max=5e3)  # needs driver_step

    def test_scenario_samples_helper(self):
        direct = get_scenario("inrush").samples(5e3, 50.0)
        via_helper = scenario_samples("inrush", 5e3, 50.0)
        assert np.array_equal(direct, via_helper)

    def test_scalar_path_starts_at_first_sample(self):
        """Regression: a scenario opening at a nonzero field (the
        EXP-X4 schedules start at +h_sat) must not make the scalar path
        integrate a spurious 0 -> h_sat jump; scalar and one-lane batch
        runs of the same scenario agree bitwise."""
        from repro.baselines.time_domain import TimeDomainJAModel
        from repro.batch.time_domain import BatchTimeDomainModel

        scalar = TimeDomainJAModel(PAPER_PARAMETERS)
        h_s, m_s, b_s = run_scenario(
            scalar, "forc-descent", h_max=20e3, driver_step=100.0
        )
        assert m_s[0] == 0.0  # no spurious first Euler step
        batch = BatchTimeDomainModel([PAPER_PARAMETERS])
        result = run_scenario(
            batch, "forc-descent", h_max=20e3, driver_step=100.0
        )
        assert np.array_equal(result.b[:, 0], b_s)
        # the field-free Preisach reset path still works
        from repro.models import get_family

        preisach = get_family("preisach").make_scalar()
        h_p, m_p, b_p = run_scenario(
            preisach, "forc-descent", h_max=20e3, driver_step=100.0
        )
        assert np.isfinite(b_p).all()


class TestSatelliteFixes:
    """Regressions for the scenario-layer correctness sweep (PR 3)."""

    @settings(max_examples=150, deadline=None)
    @given(
        h_max=st.floats(1e-2, 1e5),
        steps_per_h_max=st.floats(0.2, 120.0),
        n_cores=st.integers(1, 48),
    )
    def test_forc_family_matches_the_per_lane_loop(
        self, h_max, steps_per_h_max, n_cores
    ):
        """All lanes at once are each lane's own waypoint walk, padded
        with its own last sample: bit for bit, shape included."""
        driver_step = h_max / steps_per_h_max
        assert_same_bits(
            per_lane_forc_family(h_max, driver_step, n_cores),
            scenario_samples("forc-family", h_max, driver_step, n_cores),
        )

    def test_forc_family_lanes_hold_their_final_field(self):
        """Every lane ends back at +h_max and holds it to the last row."""
        samples = scenario_samples("forc-family", 10e3, 700.0, n_cores=4)
        lengths = [
            len(waypoint_samples([0.0, 10e3, alpha, 10e3], 700.0))
            for alpha in np.linspace(-8e3, 8e3, 4)
        ]
        assert len(samples) == max(lengths) > min(lengths)
        for lane, length in enumerate(lengths):
            assert (samples[length - 1 :, lane] == 10e3).all()

    def test_forc_family_one_core_is_lane_zero(self):
        """A 1-core forc-family run is lane 0 of any multi-core run
        (it used to reverse at alpha=0, matching no lane at all)."""
        scenario = get_scenario("forc-family")
        single = scenario.samples(10e3, 200.0, n_cores=1)
        pair = scenario.samples(10e3, 200.0, n_cores=2)
        # lane 0 (alpha = -0.8 h) is the deepest descent, hence the
        # longest lane: the 2-core matrix is exactly its length and
        # its column 0 needs no padding.
        assert single.shape[0] == pair.shape[0]
        assert np.array_equal(single[:, 0], pair[:, 0])
        assert single[:, 0].min() == -8e3

    def test_scalar_reset_type_errors_propagate(self):
        """Regression: a genuine TypeError raised *inside* a conforming
        reset(h_initial=...) used to be swallowed by the dispatch and
        silently retried without the initial field."""
        calls = []

        class BrokenResetModel:
            def reset(self, h_initial=0.0):
                calls.append(h_initial)
                raise TypeError("broken inside reset")

            def trace(self, samples):  # pragma: no cover - never reached
                raise AssertionError("trace must not run")

        with pytest.raises(TypeError, match="broken inside reset"):
            run_scenario(
                BrokenResetModel(), "major-loop", h_max=5e3, driver_step=50.0
            )
        assert len(calls) == 1  # no silent field-free retry

    def test_field_free_reset_still_dispatched_plain(self):
        """Models whose reset takes no field (the Preisach family) get
        the plain call; **kwargs resets receive the initial field."""
        seen = {}

        class KwargsResetModel:
            def reset(self, **kwargs):
                seen.update(kwargs)

            def trace(self, samples):
                samples = np.asarray(samples, dtype=float)
                return samples, samples, samples

        run_scenario(
            KwargsResetModel(), "forc-descent", h_max=5e3, driver_step=50.0
        )
        assert seen == {"h_initial": 5e3}
