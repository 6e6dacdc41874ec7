"""Tests for repro.preisach (model + identification)."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.ja.parameters import PAPER_PARAMETERS
from repro.preisach import (
    EverettMap,
    PreisachModel,
    everett_from_ja,
    identify_from_ja,
    weights_from_everett,
)


def _tiny_model(n=6, h_sat=1000.0):
    """Uniform-weight model for structural tests."""
    nodes = np.linspace(-h_sat, h_sat, n + 1)
    alpha_thr = nodes[1:]
    beta_thr = nodes[:-1]
    weights = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            weights[i, j] = 1.0
    weights /= weights.sum()
    return PreisachModel(weights, alpha_thr, beta_thr, m_sat=1.0e6)


class TestModelStructure:
    def test_relay_count(self):
        model = _tiny_model(n=6)
        # alpha_thr[i] >= beta_thr[j] iff nodes[i+1] >= nodes[j]: j <= i+1.
        assert model.relay_count == sum(min(i + 2, 6) for i in range(6))

    def test_saturation_values(self):
        model = _tiny_model()
        model.saturate(True)
        assert model.m_normalised == pytest.approx(1.0)
        model.saturate(False)
        assert model.m_normalised == pytest.approx(-1.0)

    def test_demagnetised_state_near_zero(self):
        model = _tiny_model(n=10)
        assert abs(model.m_normalised) < 0.2

    def test_negative_weight_rejected(self):
        n = 4
        nodes = np.linspace(-1.0, 1.0, n + 1)
        weights = np.zeros((n, n))
        weights[2, 1] = -1.0
        with pytest.raises(ParameterError):
            PreisachModel(weights, nodes[1:], nodes[:-1], m_sat=1.0)

    def test_invalid_half_plane_weight_rejected(self):
        n = 4
        nodes = np.linspace(-1.0, 1.0, n + 1)
        weights = np.zeros((n, n))
        weights[0, 3] = 1.0  # alpha_thr[0]=nodes[1] < beta_thr[3]=nodes[3]
        with pytest.raises(ParameterError):
            PreisachModel(weights, nodes[1:], nodes[:-1], m_sat=1.0)

    def test_non_monotone_grid_rejected(self):
        n = 4
        nodes = np.linspace(-1.0, 1.0, n + 1)
        bad = nodes[1:].copy()
        bad[2] = bad[1]
        weights = np.eye(n) * 0.25
        with pytest.raises(ParameterError):
            PreisachModel(weights, bad, nodes[:-1], m_sat=1.0)


class TestModelBehaviour:
    def test_saturating_sweep_reaches_saturation(self):
        model = _tiny_model()
        model.apply_field(2000.0)
        assert model.m_normalised == pytest.approx(1.0)

    def test_hysteresis_remanence(self):
        model = _tiny_model()
        model.apply_field(2000.0)
        model.apply_field(0.0)
        assert model.m_normalised > 0.2

    def test_wiping_out_property(self):
        """A monotone excursion in one call equals many sub-steps."""
        model_a = _tiny_model(n=20)
        model_b = _tiny_model(n=20)
        model_a.apply_field(700.0)
        for h in np.linspace(0.0, 700.0, 50):
            model_b.apply_field(float(h))
        assert model_a.m_normalised == model_b.m_normalised

    def test_return_point_memory(self):
        """Closing a minor loop returns exactly to the branch point —
        the Preisach return-point-memory property."""
        model = _tiny_model(n=30)
        model.apply_field(2000.0)
        model.apply_field(-300.0)
        m_branch = model.m_normalised
        model.apply_field(200.0)   # minor excursion up
        model.apply_field(-300.0)  # back to the branch point
        assert model.m_normalised == pytest.approx(m_branch)

    def test_deadband_between_thresholds(self):
        model = _tiny_model(n=4)
        model.apply_field(100.0)
        m_before = model.m_normalised
        model.apply_field(120.0)  # crosses no threshold
        assert model.m_normalised == m_before

    def test_non_finite_field_rejected(self):
        model = _tiny_model()
        with pytest.raises(ParameterError):
            model.apply_field(float("inf"))

    def test_trace_shapes(self):
        model = _tiny_model()
        h, m, b = model.trace(np.linspace(0.0, 500.0, 20))
        assert h.shape == m.shape == b.shape == (20,)


@pytest.fixture(scope="module")
def identified():
    """A cheap identified model shared by the identification tests."""
    return identify_from_ja(
        PAPER_PARAMETERS, n_cells=40, h_sat=20e3, dhmax=100.0
    )


class TestIdentification:
    def test_clipped_mass_small(self, identified):
        _, clipped = identified
        assert clipped < 0.05

    def test_saturation_magnitude(self, identified):
        model, _ = identified
        model.saturate(True)
        # ~0.88 for the paper's parameters at 20 kA/m.
        assert 0.8 < model.m_normalised < 1.0

    def test_everett_map_properties(self):
        everett = everett_from_ja(
            PAPER_PARAMETERS, n_cells=20, h_sat=20e3, dhmax=200.0
        )
        e = everett.values
        n = everett.n_nodes
        # Non-negative, zero on the diagonal, increasing in alpha,
        # decreasing in beta.
        for i in range(n):
            assert e[i, i] == pytest.approx(0.0, abs=5e-3)
            for j in range(i):
                assert e[i, j] >= -1e-6
        assert e[n - 1, 0] > 0.5  # full triangle ~ saturation magnitude

    def test_weights_match_second_difference_loop(self):
        """The sliced mixed second difference equals the per-cell loop,
        bit for bit, including the clipped negative mass."""
        rng = np.random.default_rng(3)
        nodes = np.linspace(-1.0, 1.0, 10)
        values = np.tril(rng.normal(size=(10, 10)))
        weights, alpha_thr, beta_thr, clipped = weights_from_everett(
            EverettMap(nodes=nodes, values=values)
        )
        loop = np.zeros((9, 9))
        for i in range(1, 10):
            for j in range(i):
                loop[i - 1, j] = (
                    values[i, j]
                    - values[i - 1, j]
                    - values[i, j + 1]
                    + values[i - 1, j + 1]
                )
        negative = float(-np.sum(loop[loop < 0.0]))
        assert negative > 0.0
        assert clipped == negative / float(np.sum(np.abs(loop)))
        assert np.array_equal(weights, np.clip(loop, 0.0, None))
        assert np.array_equal(alpha_thr, nodes[1:])
        assert np.array_equal(beta_thr, nodes[:-1])

    def test_weights_match_everett_total(self):
        everett = everett_from_ja(
            PAPER_PARAMETERS, n_cells=20, h_sat=20e3, dhmax=200.0
        )
        weights, _, _, clipped = weights_from_everett(everett)
        total = float(np.sum(weights))
        expected = float(everett.values[-1, 0])
        # Total weight telescopes to E(h_sat, -h_sat) up to clipping.
        assert total == pytest.approx(expected, rel=0.1)

    def test_descending_branch_reproduced(self, identified):
        """FORC-family branches (what identification saw) match JA."""
        from repro.analysis.comparison import compare_bh_curves
        from repro.core import TimelessJAModel, run_sweep
        from repro.core.sweep import waypoint_samples

        model, _ = identified
        ja = TimelessJAModel(PAPER_PARAMETERS, dhmax=100.0)
        run_sweep(ja, [0.0, 20e3])
        ja_sweep = run_sweep(ja, [20e3, -20e3], reset=False)
        model.saturate(True)
        model.apply_field(20e3)
        samples = waypoint_samples([20e3, -20e3], 100.0)
        h_p, _, b_p = model.trace(samples)
        distance = compare_bh_curves(ja_sweep.h, ja_sweep.b, h_p, b_p)
        swing = float(ja_sweep.b.max() - ja_sweep.b.min())
        # Cheap grid (n=40; staircase error ~ one cell of switching):
        # within ~15% on the fitted family.  The full-resolution bench
        # (n=160) asserts < 4%.
        assert distance.max_abs / swing < 0.15

    def test_validation(self):
        with pytest.raises(ParameterError):
            everett_from_ja(PAPER_PARAMETERS, n_cells=2)
        with pytest.raises(ParameterError):
            everett_from_ja(PAPER_PARAMETERS, n_cells=10, h_sat=-1.0)
        with pytest.raises(ParameterError):
            everett_from_ja(
                PAPER_PARAMETERS,
                n_cells=10,
                nodes=np.linspace(0, 1, 5),
            )

    @pytest.mark.parametrize("h_sat", [float("nan"), float("inf")])
    def test_non_finite_h_sat_rejected(self, h_sat):
        with pytest.raises(ParameterError, match="h_sat"):
            everett_from_ja(PAPER_PARAMETERS, n_cells=10, h_sat=h_sat)

    @pytest.mark.parametrize(
        "index, value",
        [(5, float("nan")), (-1, float("inf")), (0, -float("inf"))],
    )
    def test_non_finite_nodes_rejected(self, index, value):
        nodes = np.linspace(-20e3, 20e3, 11)
        nodes[index] = value
        with pytest.raises(ParameterError, match="finite"):
            everett_from_ja(PAPER_PARAMETERS, n_cells=10, nodes=nodes)
