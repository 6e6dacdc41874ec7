"""EXP-T3: "long simulation times" — effort of timeless vs solver-coupled.

Measures wall time and work counters (Euler steps / accepted analogue
steps / Newton iterations) for the Figure 1 workload under each
formulation.  The pytest-benchmark bench re-times the same callables;
this module provides them plus a one-shot comparison table.
"""

from __future__ import annotations

from repro.constants import DEFAULT_DHMAX, FIG1_H_MAX
from repro.core.model import TimelessJAModel
from repro.core.sweep import run_sweep, waypoint_samples
from repro.experiments.registry import ExperimentResult, register
from repro.experiments.runner import measure
from repro.hdl.systemc import run_systemc_sweep
from repro.hdl.vhdlams import (
    IntegJAArchitecture,
    SolverOptions,
    TimelessJAArchitecture,
    TransientSolver,
)
from repro.io.table import TextTable
from repro.ja.parameters import PAPER_PARAMETERS
from repro.solver.newton import NewtonOptions
from repro.waveforms import TriangularWave
from repro.waveforms.sweeps import major_loop_waypoints


def timeless_workload(
    dhmax: float = DEFAULT_DHMAX, h_max: float = FIG1_H_MAX
) -> dict[str, float]:
    """One major loop through the functional timeless core."""
    model = TimelessJAModel(PAPER_PARAMETERS, dhmax=dhmax)
    sweep = run_sweep(model, major_loop_waypoints(h_max, cycles=1))
    return {"euler_steps": sweep.euler_steps, "samples": len(sweep)}


def batch_workload(
    n_cores: int = 256,
    dhmax: float = DEFAULT_DHMAX,
    h_max: float = FIG1_H_MAX,
) -> dict[str, float]:
    """The same major loop on every lane of a batch ensemble.

    Homogeneous on purpose: it measures the engine's per-sample
    dispatch amortisation against ``timeless_workload`` run N times
    (EXP-B1 covers the heterogeneous case).
    """
    from repro.batch.sweep import sweep as batch_sweep

    result = batch_sweep(
        [PAPER_PARAMETERS] * n_cores,
        major_loop_waypoints(h_max, cycles=1),
        dhmax=dhmax,
        driver_step=dhmax / 4.0,
    )
    return {
        "euler_steps": int(result.euler_steps.sum()),
        "samples": len(result),
        "cores": n_cores,
    }


def systemc_workload(
    dhmax: float = DEFAULT_DHMAX, h_max: float = FIG1_H_MAX
) -> dict[str, float]:
    """One major loop through the event-kernel SystemC model."""
    samples = waypoint_samples(major_loop_waypoints(h_max, cycles=1), dhmax / 4.0)
    trace = run_systemc_sweep(PAPER_PARAMETERS, samples, dhmax=dhmax)
    return {
        "euler_steps": trace.euler_steps,
        "delta_cycles": trace.delta_cycles,
        "process_runs": trace.process_runs,
    }


def ams_timeless_workload(
    dhmax: float = DEFAULT_DHMAX,
    h_max: float = FIG1_H_MAX,
    period: float = 10e-3,
) -> dict[str, float]:
    """One major loop through the VHDL-AMS timeless architecture."""
    wave = TriangularWave(h_max, period)
    arch = TimelessJAArchitecture(PAPER_PARAMETERS, wave, dhmax=dhmax)
    solver = TransientSolver(
        arch.system, SolverOptions(dt_initial=1e-6, dt_max=5e-5)
    )
    transient = solver.run(t_stop=1.25 * period)
    report = transient.report
    return {
        "accepted_steps": report.accepted_steps,
        "newton_iterations": report.newton_iterations,
        "gave_up": report.gave_up,
    }


def ams_integ_workload(
    h_max: float = FIG1_H_MAX,
    period: float = 10e-3,
    residual_tol: float = 1e-4,
) -> dict[str, float]:
    """One major loop through the 'INTEG architecture.

    ``residual_tol`` is loosened by default so the run *completes* (at
    tight tolerance it aborts — that datum belongs to EXP-T2); the
    point here is the work required when it does complete.
    """
    wave = TriangularWave(h_max, period)
    arch = IntegJAArchitecture(PAPER_PARAMETERS, wave)
    options = SolverOptions(
        dt_initial=1e-6,
        dt_max=5e-5,
        newton=NewtonOptions(residual_tol=residual_tol),
    )
    transient = TransientSolver(arch.system, options).run(t_stop=1.25 * period)
    report = transient.report
    return {
        "accepted_steps": report.accepted_steps,
        "newton_iterations": report.newton_iterations,
        "gave_up": report.gave_up,
    }


@register("EXP-T3", "Simulation effort: timeless vs solver-coupled formulations")
def run(dhmax: float = DEFAULT_DHMAX, h_max: float = FIG1_H_MAX) -> ExperimentResult:
    workloads = [
        ("timeless functional core", timeless_workload, {"dhmax": dhmax}),
        ("batch ensemble (256 cores)", batch_workload, {"dhmax": dhmax}),
        ("timeless SystemC kernel", systemc_workload, {"dhmax": dhmax}),
        ("timeless VHDL-AMS", ams_timeless_workload, {"dhmax": dhmax}),
        ("'INTEG VHDL-AMS (loose tol)", ams_integ_workload, {}),
    ]
    table = TextTable(
        ["formulation", "wall time [s]", "work counters"],
        title=f"One major loop +/-{h_max:g} A/m",
    )
    data: dict[str, object] = {}
    baseline_time: float | None = None
    for name, fn, kwargs in workloads:
        (elapsed,), counters = measure(lambda: fn(**kwargs), 1)
        if baseline_time is None:
            baseline_time = elapsed
        summary = ", ".join(f"{k}={v}" for k, v in counters.items())
        table.add_row(name, elapsed, summary)
        data[name] = {"seconds": elapsed, "counters": counters}

    slowdown = data["'INTEG VHDL-AMS (loose tol)"]["seconds"] / max(
        data["timeless VHDL-AMS"]["seconds"], 1e-12
    )
    result = ExperimentResult(
        experiment_id="EXP-T3",
        title="Simulation effort: timeless vs solver-coupled formulations",
    )
    result.tables = [table]
    result.notes = [
        "paper: the timeless approach avoids 'long simulation times'",
        f"'INTEG vs timeless VHDL-AMS slowdown: {slowdown:.0f}x "
        "(same solver, same tolerances except the loosened Newton "
        "residual needed for 'INTEG to finish at all)",
    ]
    result.data = data
    return result
