"""Guarded evaluation of the irreversible magnetisation slope.

The raw Jiles-Atherton slope (``repro.ja.equations.irreversible_slope``)
can turn negative just after a field reversal — a non-physical artefact
the literature has long noted (Brown et al. 2001) — and its denominator
can pass through zero.  The paper hardens the Forward Euler step with two
guards, visible verbatim in the published listing::

    if (dmdh1 > 0.0)  dmdh = dmdh1;  else dmdh = 0.0;   // guard 1
    dm = dh * dmdh;
    if (dm * dh < 0.0) dm = 0.0;                        // guard 2

Guard 1 clamps negative slopes to zero; guard 2 drops any increment that
opposes the direction of the field change.  With guard 1 active guard 2
is mathematically redundant (``dm*dh = dh**2 * dmdh >= 0``), but it
becomes load-bearing when guard 1 is disabled — the ablation experiment
EXP-A1 switches them independently to show this.

**Ufunc safety.**  :func:`guarded_slope` accepts scalars (the original
fast path, bit-for-bit unchanged) or NumPy arrays for every operand,
including per-member guard flags (see :func:`stack_guards`), in which
case the returned :class:`SlopeResult` carries arrays.  The array path
reproduces the scalar branch structure with masked ``np.where`` selects
so each array lane is bitwise identical to the corresponding scalar
call — the property the batch ensemble engine is built on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.ja.equations import irreversible_slope
from repro.ja.parameters import JAParameters


@dataclass(frozen=True, slots=True)
class SlopeGuards:
    """Switchable turning-point guards (both on = the paper's model).

    The flags are plain bools for the scalar model; the batch engine
    passes per-member boolean arrays instead (built by
    :func:`stack_guards`), which the array path of
    :func:`guarded_slope` applies element-wise.
    """

    clamp_negative: bool | np.ndarray = True
    drop_opposing: bool | np.ndarray = True

    @classmethod
    def none(cls) -> "SlopeGuards":
        """Both guards off: the raw (fragile) JA slope."""
        return cls(clamp_negative=False, drop_opposing=False)

    @classmethod
    def paper(cls) -> "SlopeGuards":
        """Both guards on, as in the published listing."""
        return cls()


def stack_guards(guards: Sequence[SlopeGuards]) -> SlopeGuards:
    """Stack per-member guard settings into one array-valued record.

    The result is what a heterogeneous batch ensemble passes to
    :func:`guarded_slope` (via the step kernel) so each member applies
    its own guard combination in the same vectorised call.
    """
    return SlopeGuards(
        clamp_negative=np.array([bool(g.clamp_negative) for g in guards]),
        drop_opposing=np.array([bool(g.drop_opposing) for g in guards]),
    )


def slice_guards(guards: SlopeGuards, start: int, stop: int) -> SlopeGuards:
    """The lane range ``[start, stop)`` of a (possibly array-valued)
    guard record.

    Scalar flags apply to any ensemble width and pass through
    unchanged; array flags are sliced per lane.  Used by the batch
    engines' shard construction (:mod:`repro.parallel`).
    """

    def pick(flag: "bool | np.ndarray") -> "bool | np.ndarray":
        if np.ndim(flag) == 0:
            return flag
        return np.asarray(flag)[start:stop].copy()

    return SlopeGuards(
        clamp_negative=pick(guards.clamp_negative),
        drop_opposing=pick(guards.drop_opposing),
    )


def tile_guards(guards: SlopeGuards, copies: int) -> SlopeGuards:
    """``copies`` of a guard record's lanes side by side, in lane order.

    Scalar flags apply to any ensemble width and pass through
    unchanged; array flags repeat per copy.  Used to build a stack of
    equal shards (:func:`repro.parallel.blocks.drain_stack`).
    """

    def repeat(flag: "bool | np.ndarray") -> "bool | np.ndarray":
        if np.ndim(flag) == 0:
            return flag
        return np.tile(np.asarray(flag), copies)

    return SlopeGuards(
        clamp_negative=repeat(guards.clamp_negative),
        drop_opposing=repeat(guards.drop_opposing),
    )


@dataclass(frozen=True, slots=True)
class SlopeResult:
    """Outcome of one guarded slope evaluation.

    Fields are scalars for scalar inputs, arrays (one lane per ensemble
    member) when :func:`guarded_slope` was called with array operands.

    Attributes
    ----------
    dmdh:
        Slope actually used by the Euler step (after guard 1).
    dm:
        Magnetisation increment actually applied (after guard 2).
    raw_dmdh:
        Unguarded slope, kept for stability accounting.
    clamped:
        True when guard 1 zeroed a negative slope.
    dropped:
        True when guard 2 zeroed an opposing increment.
    """

    dmdh: float | np.ndarray
    dm: float | np.ndarray
    raw_dmdh: float | np.ndarray
    clamped: bool | np.ndarray
    dropped: bool | np.ndarray


def guarded_slope(
    params: JAParameters,
    m_an: float,
    m_total: float,
    dh: float,
    guards: SlopeGuards = SlopeGuards(),
    xp=np,
) -> SlopeResult:
    """Evaluate one guarded Forward Euler increment ``dm`` for field step ``dh``.

    Mirrors the published ``Integral`` process: the direction factor is
    ``delta = sign(dh)``, the raw slope comes from Eq. 1's irreversible
    term, then the two guards are applied in the published order.

    Scalar operands take the original scalar fast path; if any operand
    (including the guard flags) is an array, the evaluation is performed
    element-wise and the result fields are arrays.
    """
    if (
        np.ndim(dh) == 0
        and np.ndim(m_an) == 0
        and np.ndim(m_total) == 0
        and np.ndim(params.k) == 0
        and np.ndim(guards.clamp_negative) == 0
    ):
        if dh == 0.0:
            return SlopeResult(
                dmdh=0.0, dm=0.0, raw_dmdh=0.0, clamped=False, dropped=False
            )
        delta = 1.0 if dh > 0.0 else -1.0
        raw = irreversible_slope(params, m_an, m_total, delta)

        clamped = False
        dmdh = raw
        if guards.clamp_negative and not dmdh > 0.0:
            # The published test is `if (dmdh1 > 0.0)`, so NaN and zero also
            # fall into the clamp branch — preserved deliberately.
            dmdh = 0.0
            clamped = raw != 0.0
        if math.isnan(dmdh):
            # Without guard 1 a NaN slope would poison the state; surface it
            # as an increment the stability audit can count.
            return SlopeResult(
                dmdh=dmdh, dm=math.nan, raw_dmdh=raw, clamped=False, dropped=False
            )

        dm = dh * dmdh
        dropped = False
        if guards.drop_opposing and dm * dh < 0.0:
            dm = 0.0
            dropped = True
        return SlopeResult(
            dmdh=dmdh, dm=dm, raw_dmdh=raw, clamped=clamped, dropped=dropped
        )
    return _guarded_slope_array(params, m_an, m_total, dh, guards, xp=xp)


def _guarded_slope_array(
    params: JAParameters,
    m_an: float | np.ndarray,
    m_total: float | np.ndarray,
    dh: float | np.ndarray,
    guards: SlopeGuards,
    xp=np,
) -> SlopeResult:
    """Element-wise :func:`guarded_slope`; lanes match the scalar path
    bitwise on the exact (``xp is numpy``) reference backend."""
    dh = xp.asarray(dh, dtype=float)
    delta = xp.where(dh > 0.0, 1.0, -1.0)
    with np.errstate(invalid="ignore", over="ignore"):
        raw = xp.asarray(
            irreversible_slope(params, m_an, m_total, delta, xp=xp), dtype=float
        )
        # Guard 1 — the published `if (dmdh1 > 0.0)`: NaN and zero also
        # fall into the clamp branch.
        clamp_hit = guards.clamp_negative & ~(raw > 0.0)
        dmdh = xp.where(clamp_hit, 0.0, raw)
        clamped = clamp_hit & (raw != 0.0)
        dm = dh * dmdh
        # Guard 2 — drop increments opposing the field direction.  A NaN
        # product compares False, matching the scalar NaN early-return.
        dropped = guards.drop_opposing & (dm * dh < 0.0)
        dm = xp.where(dropped, 0.0, dm)
    # The scalar path short-circuits dh == 0 to an all-zero result.
    zero = dh == 0.0
    dmdh = xp.where(zero, 0.0, dmdh)
    dm = xp.where(zero, 0.0, dm)
    raw = xp.where(zero, 0.0, raw)
    clamped = clamped & ~zero
    dropped = dropped & ~zero
    return SlopeResult(dmdh=dmdh, dm=dm, raw_dmdh=raw, clamped=clamped, dropped=dropped)
