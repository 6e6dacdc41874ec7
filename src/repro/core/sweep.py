"""Timeless DC-sweep driver.

"For generality, a triangular waveform is used in a DC sweep, i.e.
timeless simulations" — the paper drives H along a piecewise-linear path
and lets the event machinery decide when to integrate.  This module walks
the model along waypoint paths and records the full trajectory together
with a stability audit, which is what every experiment consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.model import TimelessJAModel
from repro.errors import ParameterError


@dataclass(frozen=True)
class SweepResult:
    """Recorded trajectory of one timeless sweep.

    Attributes
    ----------
    h:
        Applied field at every driver sample [A/m].
    m:
        Magnetisation [A/m] after each sample.
    b:
        Flux density [T] after each sample.
    m_an:
        Normalised anhysteretic value after each sample.
    updated:
        Boolean mask: True where an irreversible Euler step fired.
    euler_steps:
        Total accepted Euler steps.
    clamped_slopes:
        Count of guard-1 activations (negative slope clamped).
    dropped_increments:
        Count of guard-2 activations (opposing increment dropped).
    """

    h: np.ndarray
    m: np.ndarray
    b: np.ndarray
    m_an: np.ndarray
    updated: np.ndarray
    euler_steps: int
    clamped_slopes: int
    dropped_increments: int

    def __len__(self) -> int:
        return len(self.h)

    @property
    def finite(self) -> bool:
        """True when the whole trajectory stayed finite."""
        return bool(
            np.isfinite(self.h).all()
            and np.isfinite(self.m).all()
            and np.isfinite(self.b).all()
        )


def waypoint_samples(
    waypoints: Sequence[float], driver_step: float
) -> np.ndarray:
    """Sample a piecewise-linear waypoint path at roughly ``driver_step``.

    Each segment is divided into ``ceil(|span| / driver_step)`` equal
    increments so the endpoints are hit exactly (turning points are where
    the physics happens, so they must be sampled).  Sample ``i`` of a
    segment is ``start + span * i / count``, one array expression per
    segment.  A non-finite waypoint raises :class:`ParameterError`.
    """
    if len(waypoints) < 2:
        raise ParameterError("need at least two waypoints for a sweep")
    if not math.isfinite(driver_step) or driver_step <= 0.0:
        raise ParameterError(f"driver_step must be > 0, got {driver_step!r}")
    vertices = [float(w) for w in waypoints]
    for index, vertex in enumerate(vertices):
        if not math.isfinite(vertex):
            raise ParameterError(
                f"waypoint {index} must be finite, got {vertex!r}"
            )
    segments = [np.array(vertices[:1])]
    for start, stop in zip(vertices[:-1], vertices[1:]):
        span = stop - start
        if span == 0.0:
            continue
        count = max(1, math.ceil(abs(span) / driver_step))
        segments.append(
            start + span * np.arange(1, count + 1, dtype=float) / count
        )
    return np.concatenate(segments)


def run_sweep(
    model: TimelessJAModel,
    waypoints: Sequence[float],
    driver_step: float | None = None,
    reset: bool = True,
) -> SweepResult:
    """Drive the model along a waypoint path and record everything.

    Parameters
    ----------
    model:
        The timeless model (its ``dhmax`` governs integration accuracy).
    waypoints:
        Field vertices [A/m]; e.g. ``[0, 10e3, -10e3, 10e3]`` for one
        initial-magnetisation rise plus a full major loop.
    driver_step:
        Field spacing of the driver samples.  Defaults to ``dhmax / 4``,
        which exercises the accumulate-until-threshold event semantics
        the SystemC kernel exhibits.  Use ``dhmax`` together with
        ``accept_equal=True`` on the model for exact-``dhmax`` Euler
        steps (convergence studies).
    reset:
        Reset the model to the demagnetised state first (default).  Pass
        False to continue from the current state, e.g. to append minor
        loops after an initial magnetisation sweep.
    """
    if driver_step is None:
        driver_step = model.dhmax / 4.0
    h_samples = waypoint_samples(waypoints, driver_step)
    if reset:
        model.reset(h_initial=float(h_samples[0]))

    counters = model.counters
    steps_before = counters.euler_steps
    clamped_before = counters.clamped_slopes
    dropped_before = counters.dropped_increments

    n = len(h_samples)
    m_out = np.empty(n)
    b_out = np.empty(n)
    man_out = np.empty(n)
    updated = np.zeros(n, dtype=bool)
    for i, h in enumerate(h_samples):
        result = model._integrator.step(float(h))
        updated[i] = result is not None
        m_out[i] = model.m
        b_out[i] = model.b
        man_out[i] = model.state.m_an

    return SweepResult(
        h=h_samples,
        m=m_out,
        b=b_out,
        m_an=man_out,
        updated=updated,
        euler_steps=counters.euler_steps - steps_before,
        clamped_slopes=counters.clamped_slopes - clamped_before,
        dropped_increments=counters.dropped_increments - dropped_before,
    )


def run_sweep_dense(
    model: TimelessJAModel,
    waypoints: Sequence[float],
    reset: bool = True,
) -> SweepResult:
    """Sweep with driver samples exactly ``dhmax`` apart.

    Requires the model to accept increments equal to ``dhmax``
    (``accept_equal=True``); otherwise every sample would accumulate to a
    2*dhmax step and the effective resolution would halve.
    """
    if not model._integrator.discretiser.accept_equal:
        raise ParameterError(
            "run_sweep_dense needs a model built with accept_equal=True"
        )
    return run_sweep(model, waypoints, driver_step=model.dhmax, reset=reset)


def concatenate_sweeps(parts: Sequence[SweepResult]) -> SweepResult:
    """Concatenate trajectory records from consecutive sweeps."""
    if not parts:
        raise ParameterError("no sweep parts to concatenate")
    return SweepResult(
        h=np.concatenate([p.h for p in parts]),
        m=np.concatenate([p.m for p in parts]),
        b=np.concatenate([p.b for p in parts]),
        m_an=np.concatenate([p.m_an for p in parts]),
        updated=np.concatenate([p.updated for p in parts]),
        euler_steps=sum(p.euler_steps for p in parts),
        clamped_slopes=sum(p.clamped_slopes for p in parts),
        dropped_increments=sum(p.dropped_increments for p in parts),
    )
