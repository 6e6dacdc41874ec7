"""BatchPreisachModel: bitwise lane equivalence and relay-tensor semantics.

Property-style sweeps over seeded random ensembles (heterogeneous
perturbed weights, m_sat scales and waveforms): every lane must
reproduce an independent scalar :class:`PreisachModel` run bit for bit,
including the wiping-out property and the switch-event accounting.
Also covers the batched Everett identification, which must match the
scalar FORC loop it replaced exactly.
"""

import functools

import numpy as np
import pytest

from repro.batch.engine import BatchTimelessModel
from repro.batch.preisach import BatchPreisachModel
from repro.batch.sweep import run_batch_series
from repro.core.model import TimelessJAModel
from repro.core.sweep import run_sweep, waypoint_samples
from repro.errors import ParameterError
from repro.ja.parameters import PAPER_PARAMETERS
from repro.models.registry import (
    _identified_preisach_ensemble,
    _make_preisach_models,
    perturbed_parameters,
)
from repro.preisach import (
    adaptive_nodes,
    everett_from_ja,
    everett_maps_from_ja,
    identification,
    identify_ensemble_from_ja,
    identify_from_ja,
)
from repro.preisach.model import PreisachModel


@pytest.fixture(scope="module")
def base_model():
    model, _ = identify_from_ja(
        PAPER_PARAMETERS, n_cells=12, h_sat=20e3, dhmax=400.0
    )
    return model


def random_ensemble(base_model, seed: int, n: int) -> list:
    """Heterogeneous relay ensembles: perturbed weights and m_sat."""
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(n):
        factors = np.exp(
            rng.uniform(np.log(0.6), np.log(1.5), base_model.weights.shape)
        )
        models.append(
            PreisachModel(
                weights=base_model.weights * factors,
                alpha_thresholds=base_model.alpha_thresholds,
                beta_thresholds=base_model.beta_thresholds,
                m_sat=base_model.m_sat * float(rng.uniform(0.7, 1.3)),
            )
        )
    return models


def random_waveforms(seed: int, samples: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed + 4000)
    steps = rng.normal(0.0, 1500.0, size=(samples, n))
    reversals = rng.random((samples, n)) < 0.05
    steps[reversals] *= -6.0
    return np.clip(np.cumsum(steps, axis=0), -25e3, 25e3)


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_waveforms_match_bitwise(self, base_model, seed):
        n, samples = 6, 400
        models = random_ensemble(base_model, seed, n)
        h = random_waveforms(seed, samples, n)

        batch = BatchPreisachModel.from_scalar_models(models)
        result = run_batch_series(batch, h, reset=True)

        for i in range(n):
            ref = models[i].clone()
            ref.reset()
            h_r, m_r, b_r = ref.trace(h[:, i])
            assert np.array_equal(result.b[:, i], b_r)
            assert np.array_equal(result.m[:, i], m_r)

    def test_shared_waveform_and_counters(self, base_model):
        models = random_ensemble(base_model, 7, 3)
        samples = waypoint_samples([0.0, 18e3, -9e3, 14e3, -18e3], 500.0)
        batch = BatchPreisachModel.from_scalar_models(models)
        result = run_batch_series(batch, samples, reset=True)

        for i in range(3):
            ref = models[i].clone()
            ref.reset()
            _, m_r, b_r = ref.trace(samples)
            assert np.array_equal(result.b[:, i], b_r)
            # switch events count exactly the samples where m changed
            m_prev = np.concatenate([[ref_initial_m(models[i])], m_r[:-1]])
            changed = (m_r != m_prev).sum()
            assert result.counters["switch_events"][i] == changed

    def test_monotone_endpoint_equals_subsampled_path(self, base_model):
        """Wiping-out: one call with the endpoint equals the sampled
        walk, lane-for-lane (the relay semantics survive batching)."""
        models = random_ensemble(base_model, 9, 2)
        batch_direct = BatchPreisachModel.from_scalar_models(
            [m.clone() for m in models]
        )
        batch_sampled = BatchPreisachModel.from_scalar_models(
            [m.clone() for m in models]
        )
        batch_direct.begin_series(0.0)
        batch_sampled.begin_series(0.0)
        batch_direct.step(17e3)
        for h in np.linspace(0.0, 17e3, 60)[1:]:
            batch_sampled.step(float(h))
        assert np.array_equal(batch_direct.m, batch_sampled.m)

    def test_saturate_matches_scalar(self, base_model):
        models = random_ensemble(base_model, 11, 4)
        batch = BatchPreisachModel.from_scalar_models(models)
        batch.saturate(np.array([True, False, True, False]))
        for i, positive in enumerate([True, False, True, False]):
            ref = models[i].clone()
            ref.saturate(positive)
            assert batch.m_normalised[i] == ref.m_normalised
            assert batch.h[i] == ref.h

    def test_write_back_round_trip(self, base_model):
        models = random_ensemble(base_model, 13, 2)
        mirror = [m.clone() for m in models]
        batch = BatchPreisachModel.from_scalar_models(models)
        samples = waypoint_samples([0.0, 12e3, -5e3], 700.0)
        run_batch_series(batch, samples, reset=False)
        batch.write_back_to_models(models)
        for scalar, ref in zip(models, mirror):
            ref.apply_field_series(samples)
            assert scalar.m_normalised == ref.m_normalised
            assert scalar.h == ref.h


def ref_initial_m(model) -> float:
    """Initial magnetisation [A/m] of the demagnetised staircase."""
    fresh = model.clone()
    fresh.reset()
    return fresh.m


class TestValidation:
    def test_grid_shapes_must_match(self, base_model):
        small, _ = identify_from_ja(
            PAPER_PARAMETERS, n_cells=8, h_sat=20e3, dhmax=800.0
        )
        with pytest.raises(ParameterError):
            BatchPreisachModel.from_scalar_models([base_model, small])

    def test_invalid_half_plane_weight_rejected(self, base_model):
        weights = np.stack([base_model.weights.copy()])
        weights[0, 0, -1] = 0.5  # alpha bottom, beta top: invalid cell
        with pytest.raises(ParameterError):
            BatchPreisachModel(
                weights,
                base_model.alpha_thresholds,
                base_model.beta_thresholds,
                base_model.m_sat,
            )

    def test_waveform_shape_checked(self, base_model):
        batch = BatchPreisachModel.from_scalar_models([base_model, base_model])
        with pytest.raises(ParameterError):
            batch.trace(np.zeros((5, 3)))

    def test_non_finite_field_rejected(self, base_model):
        batch = BatchPreisachModel.from_scalar_models([base_model])
        with pytest.raises(ParameterError):
            batch.step(np.nan)


def scalar_forc_everett(params, nodes, h_sat, dhmax) -> np.ndarray:
    """The scalar FORC loop the stacked measurement replaced: one
    ``run_sweep`` per alpha node, one scalar ``np.interp`` per beta node."""
    values = np.zeros((len(nodes), len(nodes)))
    for i in range(1, len(nodes)):
        alpha = float(nodes[i])
        model = TimelessJAModel(params, dhmax=dhmax)
        run_sweep(model, [0.0, h_sat, -h_sat, alpha])
        m_alpha = model.m_normalised
        descent = run_sweep(model, [alpha, float(nodes[0])], reset=False)
        h_desc = descent.h[::-1]
        m_desc = descent.m[::-1] / params.m_sat
        for j in range(i + 1):
            m_forc = float(np.interp(float(nodes[j]), h_desc, m_desc))
            values[i, j] = 0.5 * (m_alpha - m_forc)
    return values


SWEEP_H_SAT, SWEEP_DHMAX = 20e3, 800.0


def _sweep_nodes(n_cells: int, adaptive: bool) -> np.ndarray:
    if adaptive:
        return adaptive_nodes(PAPER_PARAMETERS, n_cells, SWEEP_H_SAT, SWEEP_DHMAX)
    return np.linspace(-SWEEP_H_SAT, SWEEP_H_SAT, n_cells + 1)


@functools.lru_cache(maxsize=None)
def _reference_core(seed: int, core: int, n_cells: int, adaptive: bool):
    """Scalar reference of core ``core`` of ``perturbed_parameters(.,
    seed)`` (the draw of core k does not depend on the ensemble size)."""
    params = perturbed_parameters(core + 1, seed)[core]
    nodes = _sweep_nodes(n_cells, adaptive)
    return scalar_forc_everett(params, nodes, SWEEP_H_SAT, SWEEP_DHMAX)


class TestBatchedIdentification:
    def test_everett_matches_scalar_forc_loop(self):
        """The batched FORC measurement reproduces the scalar sweep
        loop it replaced bit for bit."""
        n_cells, h_sat, dhmax = 8, 20e3, 800.0
        batched = everett_from_ja(
            PAPER_PARAMETERS, n_cells=n_cells, h_sat=h_sat, dhmax=dhmax
        )
        nodes = np.linspace(-h_sat, h_sat, n_cells + 1)
        reference = scalar_forc_everett(PAPER_PARAMETERS, nodes, h_sat, dhmax)
        assert np.array_equal(batched.values, reference)

    @pytest.mark.parametrize("adaptive", [False, True], ids=["uniform", "adaptive"])
    @pytest.mark.parametrize("n_cells", [4, 8, 12])
    @pytest.mark.parametrize("n", [1, 3, 5])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_stacked_everett_matches_scalar_forc_loop(
        self, monkeypatch, seed, n, n_cells, adaptive
    ):
        """Property sweep: every core of a stacked measurement equals its
        own scalar FORC loop, across pass boundaries (groups of 2, so
        n = 5 runs three passes) and on uniform and adaptive grids."""
        monkeypatch.setattr(identification, "_IDENTIFY_GROUP", 2)
        maps = everett_maps_from_ja(
            perturbed_parameters(n, seed),
            n_cells=n_cells,
            h_sat=SWEEP_H_SAT,
            dhmax=SWEEP_DHMAX,
            nodes=_sweep_nodes(n_cells, adaptive) if adaptive else None,
        )
        assert len(maps) == n
        for core, everett in enumerate(maps):
            reference = _reference_core(seed, core, n_cells, adaptive)
            assert np.array_equal(everett.values, reference), core

    def test_identify_ensemble_stacks_per_params(self):
        params = perturbed_parameters(3, seed=5)
        batch, clipped = identify_ensemble_from_ja(
            params, n_cells=8, h_sat=20e3, dhmax=800.0
        )
        assert batch.n_cores == 3
        assert clipped.shape == (3,)
        assert (clipped >= 0.0).all()
        # every lane equals a direct identification of its params
        for lane, p in enumerate(params):
            direct, direct_clipped = identify_from_ja(
                p, n_cells=8, h_sat=20e3, dhmax=800.0
            )
            assert np.array_equal(batch.weights[lane], direct.weights), lane
            assert batch.m_sat[lane] == direct.m_sat
            assert clipped[lane] == direct_clipped

    @pytest.mark.parametrize(
        "n, constant, value, passes",
        [
            (70, None, None, 2),  # ceil(70 / 64) on the registry grid
            (5, "_IDENTIFY_GROUP", 2, 3),
            (3, "_IDENTIFY_LANE_SAMPLES", 1, 3),  # floor: one core a pass
        ],
    )
    def test_cold_registry_build_runs_one_pass_per_group(
        self, monkeypatch, n, constant, value, passes
    ):
        """A cold registry build constructs one timeless batch per group
        of cores, never one per core."""
        if constant is not None:
            monkeypatch.setattr(identification, constant, value)
        built = []
        init = BatchTimelessModel.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(BatchTimelessModel, "__init__", counting_init)
        _identified_preisach_ensemble.cache_clear()
        try:
            models = _make_preisach_models(n, seed=3)
        finally:
            _identified_preisach_ensemble.cache_clear()
        assert len(models) == n
        assert len(built) == passes
