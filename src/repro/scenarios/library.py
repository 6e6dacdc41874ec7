"""The built-in scenario catalogue.

Ten schedules covering the workloads the experiments exercise, from the
paper's own Figure 1 shapes to power-electronics drives:

waypoint scenarios
    ``major-loop``, ``minor-loop-ladder``, ``demagnetisation``, and the
    four cross-model schedules of EXP-X4 (``forc-descent``,
    ``major-loop-return``, ``biased-minor``, ``centred-minor``; their
    vertices are exact fractions of ``h_max``, chosen so the historic
    EXP-X4 tables reproduce bit for bit at ``h_max = 20 kA/m``);

per-core scenario
    ``forc-family`` — every lane saturates, reverses at its own field
    and returns: the whole first-order-reversal measurement as one
    lockstep batch (shorter lanes pad by holding the final field, a
    no-op for every model family);

sampled scenarios
    ``inrush`` — an asymmetric re-energisation drive (offset decaying
    envelope settling into a symmetric steady state), ``harmonic`` — a
    3rd/5th-harmonic-distorted mains-style drive.
"""

from __future__ import annotations

import numpy as np

from repro.core.sweep import waypoint_samples
from repro.scenarios.registry import Scenario, register_scenario
from repro.waveforms.sweeps import (
    decaying_triangle_waypoints,
    major_loop_waypoints,
)


def _forc_family(h_max: float, driver_step: float, n_cores: int) -> np.ndarray:
    """One first-order reversal curve per core.

    Core ``i`` rises to ``+h_max``, descends to its own reversal field
    ``alpha_i`` (evenly spread over ``[-0.8, 0.8] * h_max``) and rises
    back — the measurement family behind Everett identification, here
    as a single lockstep batch.  ``n_cores=1`` keeps ``np.linspace``'s
    one-point spread, the ``-0.8 * h_max`` endpoint — i.e. exactly lane
    0 of every multi-core run (a special-cased ``alpha=0`` here used to
    make 1-core runs match no lane of the family at all).

    Lane ``i`` is :func:`~repro.core.sweep.waypoint_samples` of
    ``[0, h_max, alpha_i, h_max]`` bit for bit, built for every lane at
    once: the shared rise, then each lane's descent and return as
    masked ``(rows, lanes)`` segments.  Shorter lanes hold their own
    last sample to the end, a no-op for every model family (no pending
    increment, no relay crossing, zero dH).
    """
    alphas = np.linspace(-0.8 * h_max, 0.8 * h_max, n_cores)
    rise = waypoint_samples([0.0, h_max], driver_step)
    segments = ((h_max, alphas - h_max), (alphas, h_max - alphas))
    # Each lane's sample count per segment, as exact whole floats.
    counts = [
        np.where(
            span == 0.0,
            0.0,
            np.maximum(1.0, np.ceil(np.abs(span) / driver_step)),
        )
        for _, span in segments
    ]
    ends = (len(rise) + counts[0] + counts[1]).astype(np.intp)
    row = np.arange(ends.max(), dtype=float)[:, None]
    out = np.empty((len(row), n_cores))
    out[: len(rise)] = rise[:, None]
    first = np.full(n_cores, float(len(rise)))
    # Rows per block: a segment is built about 2**14 samples at a time,
    # so its temporaries stay small beside ``out``.
    block = max(1, 2**14 // n_cores)
    for (start, span), count in zip(segments, counts):
        divisor = np.maximum(count, 1.0)
        for lo in range(int(first.min()), int((first + count).max()), block):
            # Sample k of the segment, 1 <= k <= count: the sweep's own
            # ``start + span * k / count``, lane by lane, in place.
            k = row[lo : lo + block] - first + 1.0
            inside = (k >= 1.0) & (k <= count)
            np.multiply(span, k, out=k)
            np.divide(k, divisor, out=k)
            np.add(start, k, out=k)
            np.copyto(out[lo : lo + block], k, where=inside)
        first = first + count
    np.copyto(out, out[ends - 1, np.arange(n_cores)], where=row >= ends)
    return out


def _cycle_samples(h_max: float, driver_step: float, cycles: float) -> np.ndarray:
    """Time grid for sampled drives: enough samples per cycle that the
    steepest slope advances about one ``driver_step`` per sample."""
    per_cycle = max(16, int(np.ceil(2.0 * np.pi * h_max / driver_step)))
    return np.arange(int(np.ceil(per_cycle * cycles)) + 1) / per_cycle


def _inrush(h_max: float, driver_step: float, n_cores: int) -> np.ndarray:
    """Re-energisation drive: a large asymmetric first peak (the offset
    ``1 - cos`` inrush envelope) decaying into a symmetric steady state."""
    del n_cores  # shared waveform
    t = _cycle_samples(h_max, driver_step, cycles=4.0)
    envelope = np.exp(-t / 2.5)
    inrush = 0.5 * h_max * (1.0 - np.cos(2.0 * np.pi * t)) * envelope
    steady = 0.3 * h_max * np.sin(2.0 * np.pi * t) * (1.0 - envelope)
    return inrush + steady


def _harmonic(h_max: float, driver_step: float, n_cores: int) -> np.ndarray:
    """Mains-style distorted drive: fundamental plus 30% third and 15%
    fifth harmonic, normalised to peak near ``h_max``."""
    del n_cores  # shared waveform
    t = _cycle_samples(h_max, driver_step, cycles=2.0)
    phase = 2.0 * np.pi * t
    wave = (
        np.sin(phase)
        + 0.3 * np.sin(3.0 * phase)
        + 0.15 * np.sin(5.0 * phase)
    )
    return h_max * wave / 1.45


register_scenario(
    Scenario(
        name="major-loop",
        description="initial rise plus one full major loop",
        waypoint_builder=lambda h: major_loop_waypoints(h, cycles=1),
    )
)

register_scenario(
    Scenario(
        name="minor-loop-ladder",
        description="major loop then a ladder of shrinking minor loops",
        waypoint_builder=lambda h: decaying_triangle_waypoints(
            [h, h, 0.8 * h, 0.6 * h, 0.4 * h, 0.2 * h]
        ),
    )
)

register_scenario(
    Scenario(
        name="demagnetisation",
        description="decaying alternating sweep towards the origin",
        waypoint_builder=lambda h: decaying_triangle_waypoints(
            [h * 0.75**k for k in range(12)]
        ),
    )
)

register_scenario(
    Scenario(
        name="forc-descent",
        description="descent from the outer loop (the identified family)",
        waypoint_builder=lambda h: [h, -(h / 2.0)],
    )
)

register_scenario(
    Scenario(
        name="major-loop-return",
        description="return branches cycling between +/- h/2 after saturation",
        waypoint_builder=lambda h: [
            h, -(h / 2.0), h / 2.0, -(h / 2.0), h / 2.0
        ],
    )
)

register_scenario(
    Scenario(
        name="biased-minor",
        description="biased minor loop away from the origin",
        waypoint_builder=lambda h: [
            h, h / 4.0, -(h / 20.0), h / 4.0, -(h / 20.0), h / 4.0
        ],
    )
)

register_scenario(
    Scenario(
        name="centred-minor",
        description="small centred minor loop after recoil to the origin",
        waypoint_builder=lambda h: [h, 0.0, h / 10.0, -(h / 10.0), h / 10.0],
    )
)

register_scenario(
    Scenario(
        name="forc-family",
        description="per-core first-order reversal curves (one alpha per lane)",
        sample_builder=_forc_family,
        per_core=True,
    )
)

register_scenario(
    Scenario(
        name="inrush",
        description="asymmetric re-energisation drive decaying to steady state",
        sample_builder=_inrush,
    )
)

register_scenario(
    Scenario(
        name="harmonic",
        description="3rd/5th-harmonic-distorted mains-style drive",
        sample_builder=_harmonic,
    )
)
