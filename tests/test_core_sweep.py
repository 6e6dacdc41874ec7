"""Tests for repro.core.sweep."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.batch.sweep import run_batch_sweep, sweep
from repro.core.model import TimelessJAModel
from repro.core.sweep import (
    concatenate_sweeps,
    run_sweep,
    run_sweep_dense,
    waypoint_samples,
)
from repro.errors import ParameterError
from repro.ja.parameters import PAPER_PARAMETERS
from repro.models.registry import get_family


def per_sample_waypoints(waypoints, driver_step):
    """The sweep's sampling rule, one Python float per sample: the
    reference ``waypoint_samples`` must match bit for bit."""
    samples = [float(waypoints[0])]
    for start, stop in zip(waypoints[:-1], waypoints[1:]):
        span = float(stop) - float(start)
        if span == 0.0:
            continue
        count = max(1, int(math.ceil(abs(span) / driver_step)))
        for i in range(1, count + 1):
            samples.append(float(start) + span * i / count)
    return np.array(samples)


def assert_same_bits(expected, got):
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.array_equal(expected.view(np.int64), got.view(np.int64))


#: Finite fields up to a strong core's saturation, exact zeros drawn
#: often (so are repeated vertices and zero-span segments).
FIELDS = st.one_of(
    st.just(0.0),
    st.floats(-1e5, 1e5, allow_nan=False, allow_infinity=False),
)

#: A non-finite waypoint in first, middle and last position.
NON_FINITE = [
    (path, index)
    for bad in (math.inf, -math.inf, math.nan)
    for path, index in (
        ([bad, 0.0, 500.0], 0),
        ([0.0, bad, 500.0], 1),
        ([0.0, 500.0, bad], 2),
    )
]


class TestWaypointSamples:
    def test_endpoints_hit_exactly(self):
        samples = waypoint_samples([0.0, 1000.0, -500.0], 37.0)
        assert samples[0] == 0.0
        assert 1000.0 in samples
        assert samples[-1] == -500.0

    def test_spacing_bounded_by_driver_step(self):
        samples = waypoint_samples([0.0, 1000.0], 30.0)
        assert np.max(np.abs(np.diff(samples))) <= 30.0 + 1e-9

    def test_zero_span_segment_skipped(self):
        samples = waypoint_samples([0.0, 100.0, 100.0, 200.0], 50.0)
        assert np.all(np.diff(samples) != 0.0)

    def test_needs_two_waypoints(self):
        with pytest.raises(ParameterError):
            waypoint_samples([0.0], 10.0)

    def test_bad_driver_step(self):
        with pytest.raises(ParameterError):
            waypoint_samples([0.0, 100.0], 0.0)

    @settings(max_examples=300, deadline=None)
    @given(
        waypoints=st.lists(FIELDS, min_size=2, max_size=6),
        steps_per_span=st.floats(0.05, 400.0),
    )
    def test_matches_the_per_sample_loop(self, waypoints, steps_per_span):
        """One array expression per segment is the per-sample loop, bit
        for bit and shape included."""
        driver_step = max(1.0, *map(abs, waypoints)) / steps_per_span
        assert_same_bits(
            per_sample_waypoints(waypoints, driver_step),
            waypoint_samples(waypoints, driver_step),
        )

    @pytest.mark.parametrize(
        "path, index",
        NON_FINITE,
        ids=[f"{path[index]}-at-{index}" for path, index in NON_FINITE],
    )
    def test_non_finite_waypoint_is_named(self, path, index):
        match = rf"waypoint {index} must be finite, got {path[index]!r}"
        with pytest.raises(ParameterError, match=match):
            waypoint_samples(path, 100.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_sweep_front_doors_reject_a_non_finite_waypoint(self, bad):
        batch = get_family("timeless").make_batch(2, seed=0)
        with pytest.raises(ParameterError, match="waypoint 1 must be finite"):
            run_batch_sweep(batch, [0.0, bad], driver_step=100.0)
        with pytest.raises(ParameterError, match="waypoint 1 must be finite"):
            sweep([PAPER_PARAMETERS], [0.0, bad], driver_step=100.0)


class TestRunSweep:
    def test_result_arrays_aligned(self, fresh_model):
        result = run_sweep(fresh_model, [0.0, 5000.0, -5000.0])
        n = len(result)
        assert result.h.shape == (n,)
        assert result.m.shape == (n,)
        assert result.b.shape == (n,)
        assert result.m_an.shape == (n,)
        assert result.updated.shape == (n,)

    def test_euler_steps_match_updated_mask(self, fresh_model):
        result = run_sweep(fresh_model, [0.0, 5000.0])
        assert result.euler_steps == int(np.sum(result.updated))

    def test_default_driver_step_is_quarter_dhmax(self, fresh_model):
        result = run_sweep(fresh_model, [0.0, 1000.0])
        spacing = np.max(np.abs(np.diff(result.h)))
        assert spacing == pytest.approx(fresh_model.dhmax / 4.0)

    def test_reset_true_starts_fresh(self, fresh_model):
        run_sweep(fresh_model, [0.0, 10e3])
        result = run_sweep(fresh_model, [0.0, 10e3])
        # Identical because the second run reset the state.
        assert result.b[-1] == pytest.approx(
            run_sweep(fresh_model, [0.0, 10e3]).b[-1]
        )

    def test_reset_false_continues_state(self, fresh_model):
        run_sweep(fresh_model, [0.0, 10e3])
        m_before = fresh_model.m
        result = run_sweep(
            fresh_model, [10e3, 8000.0], reset=False
        )
        assert result.h[0] == 10e3
        # State carried over: magnetisation started from the peak value.
        assert result.m[0] == pytest.approx(m_before, rel=0.05)

    def test_finite_flag(self, fresh_model):
        result = run_sweep(fresh_model, [0.0, 10e3, -10e3, 10e3])
        assert result.finite


class TestRunSweepDense:
    def test_requires_accept_equal(self, fresh_model):
        with pytest.raises(ParameterError):
            run_sweep_dense(fresh_model, [0.0, 1000.0])

    def test_every_sample_is_an_event(self):
        model = TimelessJAModel(PAPER_PARAMETERS, dhmax=50.0, accept_equal=True)
        result = run_sweep_dense(model, [0.0, 1000.0])
        # All samples after the first must fire an Euler step.
        assert np.all(result.updated[1:])

    def test_step_size_is_exactly_dhmax(self):
        model = TimelessJAModel(PAPER_PARAMETERS, dhmax=50.0, accept_equal=True)
        result = run_sweep_dense(model, [0.0, 1000.0])
        assert np.allclose(np.abs(np.diff(result.h)), 50.0)


class TestConcatenate:
    def test_concatenation_preserves_totals(self, fresh_model):
        part1 = run_sweep(fresh_model, [0.0, 5000.0])
        part2 = run_sweep(fresh_model, [5000.0, -5000.0], reset=False)
        combined = concatenate_sweeps([part1, part2])
        assert len(combined) == len(part1) + len(part2)
        assert combined.euler_steps == part1.euler_steps + part2.euler_steps
        assert combined.clamped_slopes == (
            part1.clamped_slopes + part2.clamped_slopes
        )

    def test_empty_list_rejected(self):
        with pytest.raises(ParameterError):
            concatenate_sweeps([])
