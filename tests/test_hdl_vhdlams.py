"""Tests for the VHDL-AMS substrate: quantities, system, solver,
and the two JA architectures."""

import math

import numpy as np
import pytest

from repro.constants import MU0
from repro.errors import SolverError
from repro.hdl.vhdlams import (
    AnalogSystem,
    IntegJAArchitecture,
    SolverOptions,
    TimelessJAArchitecture,
    TransientSolver,
)
from repro.ja.parameters import PAPER_PARAMETERS
from repro.solver.newton import NewtonOptions
from repro.waveforms import SineWave, TriangularWave


class TestAnalogSystem:
    def test_quantity_indices_sequential(self):
        system = AnalogSystem()
        q1 = system.add_quantity("a")
        q2 = system.add_quantity("b")
        assert (q1.index, q2.index) == (0, 1)

    def test_square_system_check(self):
        system = AnalogSystem("bad")
        system.add_quantity("x")
        with pytest.raises(SolverError, match="not square"):
            system.check_elaboration()

    def test_empty_system_rejected(self):
        with pytest.raises(SolverError):
            AnalogSystem().check_elaboration()

    def test_differential_indices(self):
        system = AnalogSystem()
        system.add_quantity("x", differential=True)
        system.add_quantity("y")
        system.add_quantity("z", differential=True)
        assert system.differential_indices() == [0, 2]

    def test_initial_state_vector(self):
        system = AnalogSystem()
        system.add_quantity("x", initial=3.0)
        system.add_quantity("y", initial=-1.0)
        assert list(system.initial_state()) == [3.0, -1.0]


class TestTransientSolverBasics:
    def _decay_system(self, tau=1e-3):
        """dx/dt = -x/tau with x(0) = 1."""
        system = AnalogSystem("decay")
        q = system.add_quantity("x", initial=1.0, differential=True)
        system.add_equation(
            "ode", lambda ctx: ctx.dot(q) + ctx.value(q) / tau
        )
        return system, q

    def test_exponential_decay_accuracy(self):
        system, q = self._decay_system(tau=1e-3)
        solver = TransientSolver(
            system, SolverOptions(dt_initial=1e-6, dt_max=2e-5)
        )
        result = solver.run(t_stop=2e-3)
        assert not result.report.gave_up
        exact = math.exp(-result.t[-1] / 1e-3)
        assert result.of(q)[-1] == pytest.approx(exact, rel=1e-2)

    def test_source_pinning(self):
        system = AnalogSystem("pin")
        wave = SineWave(2.0, 1000.0)
        q = system.add_quantity("v", initial=0.0)
        system.add_equation("src", lambda ctx: ctx.value(q) - wave.value(ctx.time))
        solver = TransientSolver(
            system, SolverOptions(dt_initial=1e-6, dt_max=1e-5)
        )
        result = solver.run(t_stop=1e-3)
        expected = np.array([wave.value(t) for t in result.t])
        assert np.allclose(result.of(q), expected, atol=1e-6)

    def test_invalid_time_span_rejected(self):
        system, _ = self._decay_system()
        solver = TransientSolver(system)
        with pytest.raises(SolverError):
            solver.run(t_stop=0.0)

    def test_report_counts_accepted_steps(self):
        system, _ = self._decay_system()
        solver = TransientSolver(
            system, SolverOptions(dt_initial=1e-6, dt_max=5e-5)
        )
        result = solver.run(t_stop=1e-3)
        assert result.report.accepted_steps == len(result) - 1

    def test_stiff_linear_system_stable(self):
        """Trapezoidal/BE must not blow up on a stiff decay."""
        system, q = self._decay_system(tau=1e-9)  # very stiff vs dt_max
        solver = TransientSolver(
            system, SolverOptions(dt_initial=1e-6, dt_max=1e-4)
        )
        result = solver.run(t_stop=1e-3)
        assert not result.report.gave_up
        assert abs(result.of(q)[-1]) < 1e-3


class TestTimelessArchitecture:
    def test_full_loop_without_failures(self):
        wave = TriangularWave(10e3, 10e-3)
        arch = TimelessJAArchitecture(PAPER_PARAMETERS, wave, dhmax=100.0)
        solver = TransientSolver(
            arch.system, SolverOptions(dt_initial=1e-6, dt_max=1e-4)
        )
        result = solver.run(t_stop=12.5e-3)
        report = result.report
        assert not report.gave_up
        assert report.newton_failures == 0
        assert arch.euler_steps > 100

    def test_b_tracks_constitutive_equation(self):
        wave = TriangularWave(5e3, 10e-3)
        arch = TimelessJAArchitecture(PAPER_PARAMETERS, wave, dhmax=100.0)
        solver = TransientSolver(
            arch.system, SolverOptions(dt_initial=1e-6, dt_max=1e-4)
        )
        result = solver.run(t_stop=2.5e-3)
        h = result.of(arch.q_h)
        b = result.of(arch.q_b)
        # B - mu0*H = mu0*M >= 0 on the initial magnetisation curve.
        assert np.all(b - MU0 * h >= -1e-9)

    def test_break_on_update_counts_breaks(self):
        wave = TriangularWave(5e3, 10e-3)
        arch = TimelessJAArchitecture(
            PAPER_PARAMETERS, wave, dhmax=500.0, break_on_update=True
        )
        solver = TransientSolver(
            arch.system, SolverOptions(dt_initial=1e-6, dt_max=1e-4)
        )
        result = solver.run(t_stop=2.5e-3)
        assert result.report.breaks > 0

    def test_hysteresis_visible_in_ams_run(self):
        wave = TriangularWave(10e3, 10e-3)
        arch = TimelessJAArchitecture(PAPER_PARAMETERS, wave, dhmax=100.0)
        solver = TransientSolver(
            arch.system, SolverOptions(dt_initial=1e-6, dt_max=5e-5)
        )
        result = solver.run(t_stop=12.5e-3)
        h = result.of(arch.q_h)
        b = result.of(arch.q_b)
        # B at H ~ 0 on the descending branch (remanence) is far from 0.
        descending = (np.diff(h, prepend=h[0]) < 0) & (np.abs(h) < 200.0)
        assert np.any(descending)
        assert np.max(np.abs(b[descending])) > 0.5


class TestIntegArchitecture:
    @pytest.fixture(scope="class")
    def loose_integ(self):
        """The loose-tolerance 'INTEG solve (10 kA/m triangle, 12.5 ms,
        ``residual_tol=1e-4``), solved once for every test that reads
        it: ``(architecture, result)``."""
        wave = TriangularWave(10e3, 10e-3)
        arch = IntegJAArchitecture(PAPER_PARAMETERS, wave)
        solver = TransientSolver(
            arch.system,
            SolverOptions(
                dt_initial=1e-6,
                dt_max=5e-5,
                newton=NewtonOptions(residual_tol=1e-4),
            ),
        )
        return arch, solver.run(t_stop=12.5e-3)

    def test_counts_negative_slope_evaluations(self, loose_integ):
        arch, _ = loose_integ
        assert arch.negative_slope_evaluations > 0

    def test_tight_tolerance_gives_up(self):
        """The paper's non-convergence claim: at SPICE-like tolerances
        the solver-coupled formulation aborts mid-loop."""
        wave = TriangularWave(10e3, 10e-3)
        arch = IntegJAArchitecture(PAPER_PARAMETERS, wave)
        solver = TransientSolver(
            arch.system, SolverOptions(dt_initial=1e-6, dt_max=5e-5)
        )
        result = solver.run(t_stop=12.5e-3)
        assert result.report.gave_up
        assert result.report.newton_failures > 0

    def test_loose_tolerance_completes_with_more_work(self, loose_integ):
        wave = TriangularWave(10e3, 10e-3)
        timeless = TimelessJAArchitecture(PAPER_PARAMETERS, wave, dhmax=100.0)
        solver_t = TransientSolver(
            timeless.system, SolverOptions(dt_initial=1e-6, dt_max=5e-5)
        )
        result_t = solver_t.run(t_stop=12.5e-3)

        _, result_i = loose_integ
        assert not result_i.report.gave_up
        # The paper's "long simulation times": at least 10x the steps.
        assert (
            result_i.report.accepted_steps
            > 10 * result_t.report.accepted_steps
        )
