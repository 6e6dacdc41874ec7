"""Vectorised batch-ensemble engine: N timeless cores in lockstep.

:class:`BatchTimelessModel` advances N independent Jiles-Atherton cores
— heterogeneous parameters, ``dhmax`` thresholds, guard combinations and
``accept_equal`` variants — one driver sample at a time, with all N
lanes updated by a single call into the pure step kernel
(:func:`repro.core.kernel.step_kernel`) using masked NumPy updates.

Each lane is **bitwise identical** to an independent
:class:`repro.core.model.TimelessJAModel` run over the same samples:
the kernel's array path performs exactly the scalar path's IEEE
operations per lane (asserted by ``tests/test_batch_equivalence.py``).
The batch engine therefore is not an approximation — it is the scalar
model, amortised: one Python-level step dispatch per *sample* instead
of per sample *per core*, which is where the order-of-magnitude
throughput win over the scalar loop comes from
(``benchmarks/test_bench_batch.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.backend import ArrayBackend, as_backend
from repro.batch.lanes import broadcast_lane, check_lane_range, check_series, trace_series
from repro.batch.params import BatchJAParameters, stack_parameters
from repro.constants import DEFAULT_DHMAX, MU0, TWO_OVER_PI
from repro.core.kernel import StepInputs, StepOutputs, refresh_algebraic, step_kernel
from repro.core.slope import SlopeGuards, slice_guards, stack_guards
from repro.errors import ParameterError
from repro.ja.anhysteretic import (
    Anhysteretic,
    ModifiedLangevinAnhysteretic,
    make_anhysteretic,
    slice_anhysteretic,
)
from repro.ja.equations import flux_density
from repro.ja.parameters import JAParameters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.model import TimelessJAModel


@dataclass(slots=True)
class BatchState:
    """Struct-of-arrays mirror of :class:`repro.core.state.JAState`."""

    h_applied: np.ndarray
    h_accepted: np.ndarray
    m_irr: np.ndarray
    m_rev: np.ndarray
    m_an: np.ndarray
    m_total: np.ndarray
    delta: np.ndarray
    updates: np.ndarray

    @classmethod
    def zeros(cls, n: int) -> "BatchState":
        return cls(
            h_applied=np.zeros(n),
            h_accepted=np.zeros(n),
            m_irr=np.zeros(n),
            m_rev=np.zeros(n),
            m_an=np.zeros(n),
            m_total=np.zeros(n),
            delta=np.zeros(n),
            updates=np.zeros(n, dtype=np.int64),
        )

    def is_finite(self) -> np.ndarray:
        """Per-lane divergence check (all float members finite)."""
        return (
            np.isfinite(self.h_applied)
            & np.isfinite(self.h_accepted)
            & np.isfinite(self.m_irr)
            & np.isfinite(self.m_rev)
            & np.isfinite(self.m_an)
            & np.isfinite(self.m_total)
        )

    def copy(self) -> "BatchState":
        """Independent deep copy (lane arrays duplicated)."""
        return BatchState(
            **{
                name: getattr(self, name).copy()
                for name in self.__dataclass_fields__
            }
        )


@dataclass(slots=True)
class BatchCounters:
    """Struct-of-arrays mirror of
    :class:`repro.core.integrator.IntegratorCounters` plus the
    discretiser statistics (one lane per core)."""

    field_events: np.ndarray
    euler_steps: np.ndarray
    clamped_slopes: np.ndarray
    dropped_increments: np.ndarray
    observations: np.ndarray
    acceptances: np.ndarray

    @classmethod
    def zeros(cls, n: int) -> "BatchCounters":
        return cls(*(np.zeros(n, dtype=np.int64) for _ in range(6)))

    def reset(self) -> None:
        for arr in (
            self.field_events,
            self.euler_steps,
            self.clamped_slopes,
            self.dropped_increments,
            self.observations,
            self.acceptances,
        ):
            arr[:] = 0

    def copy(self) -> "BatchCounters":
        """Independent deep copy (lane arrays duplicated)."""
        return BatchCounters(
            **{
                name: getattr(self, name).copy()
                for name in self.__dataclass_fields__
            }
        )


# -- one fused row of the JA equations (timeless and time-domain loops) ---


def modified_langevin_row(xp, h_eff, shape, x, out) -> None:
    """The paper's modified Langevin over one row, in the equation
    layer's IEEE order: ``x = h_eff / shape``, ``out = (2/pi)*atan(x)``.
    ``x`` may be ``h_eff`` itself; the time-domain loop keeps it for the
    derivative."""
    xp.divide(h_eff, shape, out=x)
    xp.arctan(x, out=out)
    xp.multiply(TWO_OVER_PI, out, out=out)


def irreversible_slope_row(xp, delta_m, dk, am, one_c, out) -> None:
    """Eq. 1's raw irreversible slope over one row, in the equation
    layer's IEEE order: ``out = delta_m / ((1+c)*(dk - am*delta_m))``
    with ``dk = delta*k`` (overwritten by the denominator) and ``am =
    alpha*m_sat``.

    No pole select: validated parameters have ``k`` finite and ``> 0``
    and ``0 <= c < 1``, so a zero denominator is ``+0.0`` with
    ``am*delta_m == delta*k``, i.e. ``delta_m`` finite and nonzero, and
    ``delta_m / +0.0`` is already the select's ``sign(delta_m)*inf``.
    """
    xp.multiply(am, delta_m, out=out)
    xp.subtract(dk, out, out=dk)
    xp.multiply(one_c, dk, out=dk)
    xp.divide(delta_m, dk, out=out)


class BatchTimelessModel:
    """N timeless JA cores advanced in lockstep per driver sample.

    Conforms to :class:`repro.models.protocol.BatchHysteresisModel`, so
    the model-agnostic executor (:mod:`repro.batch.sweep`) and the
    scenario layer drive it interchangeably with the Preisach and
    time-domain batch models.

    Parameters
    ----------
    params:
        The ensemble's materials: a sequence of
        :class:`repro.ja.parameters.JAParameters` (heterogeneous is the
        point) or an already stacked :class:`BatchJAParameters`.
    dhmax:
        Field-increment threshold [A/m]; scalar or one per core.
    anhysteretic:
        Anhysteretic curve evaluated lane-wise; defaults to the paper's
        modified Langevin built from the stacked ``a2``/``a`` shapes.
    guards:
        One :class:`SlopeGuards` shared by all cores, or a sequence of
        per-core guard settings (stacked to boolean arrays).
    accept_equal:
        Discretiser ``>=`` variant; bool or one per core.
    backend:
        Array backend the vectorised paths evaluate on — an
        :class:`repro.backend.ArrayBackend`, a registered name, or
        ``None`` for the exact NumPy reference backend.  Deliberately
        *not* environment-resolved here (direct constructions keep the
        bitwise contract); the registry / scenario / CLI surfaces
        resolve ``REPRO_BACKEND`` before constructing.
    """

    family = "timeless"

    def __init__(
        self,
        params: "Sequence[JAParameters] | BatchJAParameters",
        dhmax: "float | np.ndarray" = DEFAULT_DHMAX,
        anhysteretic: Anhysteretic | None = None,
        guards: "SlopeGuards | Sequence[SlopeGuards]" = SlopeGuards(),
        accept_equal: "bool | Sequence[bool] | np.ndarray" = False,
        backend: "ArrayBackend | str | None" = None,
    ) -> None:
        self.backend = as_backend(backend)
        self.params = stack_parameters(params)
        n = len(self.params)
        self.dhmax = broadcast_lane(dhmax, n, "dhmax")
        if not (np.isfinite(self.dhmax).all() and (self.dhmax > 0.0).all()):
            raise ParameterError(
                f"dhmax lanes must be finite and > 0, got {self.dhmax!r}"
            )
        self.anhysteretic = (
            anhysteretic
            if anhysteretic is not None
            else make_anhysteretic(self.params)
        )
        if isinstance(guards, SlopeGuards):
            self.guards = guards
        else:
            guards = list(guards)
            if len(guards) != n:
                raise ParameterError(
                    f"need one SlopeGuards per core ({n}), got {len(guards)}"
                )
            self.guards = stack_guards(guards)
        accept = np.asarray(accept_equal, dtype=bool)
        if accept.ndim == 0:
            self.accept_equal: "bool | np.ndarray" = bool(accept)
        elif accept.shape == (n,):
            self.accept_equal = accept.copy()
        else:
            raise ParameterError(
                f"accept_equal must be a bool or a length-{n} array, "
                f"got shape {accept.shape}"
            )
        self.state = BatchState.zeros(n)
        self.counters = BatchCounters.zeros(n)
        self.reset()

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_scalar_models(
        cls, models: "Sequence[TimelessJAModel]"
    ) -> "BatchTimelessModel":
        """Stack live scalar models into one batch, adopting their state.

        All models must share the anhysteretic *family*; shapes (and the
        rest of the configuration) may differ per model.  Counters are
        adopted too, so :meth:`write_back_to_models` can later return
        cumulative totals to the scalar objects.
        """
        if len(models) == 0:
            raise ParameterError("need at least one model to stack")
        integrators = [m._integrator for m in models]
        curves = [i.anhysteretic for i in integrators]
        if all(curve is curves[0] for curve in curves):
            # One shared curve object (always the case for the one-core
            # series routing): reuse it as-is, so custom Anhysteretic
            # subclasses keep their full configuration.
            anhysteretic = curves[0]
        else:
            curve_types = {type(c) for c in curves}
            if len(curve_types) != 1:
                raise ParameterError(
                    "cannot stack models with different anhysteretic "
                    f"families: {sorted(t.__name__ for t in curve_types)}"
                )
            curve_cls = curve_types.pop()
            shapes = np.array([c.shape for c in curves], dtype=float)
            extra: dict[str, float] = {}
            j_values = {getattr(c, "j", None) for c in curves} - {None}
            if j_values:
                if len(j_values) != 1:
                    raise ParameterError(
                        "cannot stack Brillouin curves with different J values"
                    )
                extra["j"] = j_values.pop()
            try:
                anhysteretic = curve_cls(shapes, **extra)
            except TypeError as exc:
                raise ParameterError(
                    f"cannot stack distinct {curve_cls.__name__} instances: "
                    "its constructor is not (shape)-compatible; share one "
                    "curve object across the models or pass a batch-aware "
                    "anhysteretic explicitly"
                ) from exc
        batch = cls(
            [i.params for i in integrators],
            dhmax=np.array([i.discretiser.dhmax for i in integrators]),
            anhysteretic=anhysteretic,
            guards=[i.guards for i in integrators],
            accept_equal=np.array(
                [i.discretiser.accept_equal for i in integrators]
            ),
        )
        batch.adopt_states(models)
        return batch

    def adopt_states(self, models: "Sequence[TimelessJAModel]") -> None:
        """Copy each scalar model's live state/counters into the lanes."""
        state, counters = self.state, self.counters
        for i, model in enumerate(models):
            s = model._integrator.state
            state.h_applied[i] = s.h_applied
            state.h_accepted[i] = s.h_accepted
            state.m_irr[i] = s.m_irr
            state.m_rev[i] = s.m_rev
            state.m_an[i] = s.m_an
            state.m_total[i] = s.m_total
            state.delta[i] = s.delta
            state.updates[i] = s.updates
            c = model._integrator.counters
            counters.field_events[i] = c.field_events
            counters.euler_steps[i] = c.euler_steps
            counters.clamped_slopes[i] = c.clamped_slopes
            counters.dropped_increments[i] = c.dropped_increments
            d = model._integrator.discretiser
            counters.observations[i] = d.observations
            counters.acceptances[i] = d.acceptances

    def write_back_to_models(self, models: "Sequence[TimelessJAModel]") -> None:
        """Copy lane state/counters back onto scalar models (the inverse
        of :meth:`adopt_states`; lanes map to models by position)."""
        state, counters = self.state, self.counters
        for i, model in enumerate(models):
            s = model._integrator.state
            s.h_applied = float(state.h_applied[i])
            s.h_accepted = float(state.h_accepted[i])
            s.m_irr = float(state.m_irr[i])
            s.m_rev = float(state.m_rev[i])
            s.m_an = float(state.m_an[i])
            s.m_total = float(state.m_total[i])
            s.delta = float(state.delta[i])
            s.updates = int(state.updates[i])
            c = model._integrator.counters
            c.field_events = int(counters.field_events[i])
            c.euler_steps = int(counters.euler_steps[i])
            c.clamped_slopes = int(counters.clamped_slopes[i])
            c.dropped_increments = int(counters.dropped_increments[i])
            d = model._integrator.discretiser
            d.observations = int(counters.observations[i])
            d.acceptances = int(counters.acceptances[i])

    # -- shard construction ------------------------------------------------

    def shard_payload(self, start: int, stop: int) -> dict:
        """Picklable construction payload for lanes ``[start, stop)``.

        Ships configuration only — parameters, thresholds, guard flags,
        anhysteretic shapes — never live state: a batch rebuilt from the
        payload starts reset, which is what the sharded executor
        (:mod:`repro.parallel`) needs, since a fresh series resets every
        lane anyway.
        """
        check_lane_range(start, stop, self.n_cores)
        accept = self.accept_equal
        return {
            "params": self.params.lane_slice(start, stop),
            "dhmax": self.dhmax[start:stop].copy(),
            "anhysteretic": slice_anhysteretic(self.anhysteretic, start, stop),
            "guards": slice_guards(self.guards, start, stop),
            "accept_equal": (
                accept if np.ndim(accept) == 0 else accept[start:stop].copy()
            ),
            "backend": self.backend.name,
        }

    @classmethod
    def from_shard_payload(cls, payload: dict) -> "BatchTimelessModel":
        """Rebuild a (sub-)ensemble from a :meth:`shard_payload` dict."""
        return cls(
            payload["params"],
            dhmax=payload["dhmax"],
            anhysteretic=payload["anhysteretic"],
            guards=payload["guards"],
            accept_equal=payload["accept_equal"],
            backend=payload.get("backend"),
        )

    def use_backend(
        self, backend: "ArrayBackend | str | None"
    ) -> "BatchTimelessModel":
        """Switch the array backend (state is untouched); returns self."""
        self.backend = as_backend(backend)
        return self

    # -- state access -----------------------------------------------------

    @property
    def n_cores(self) -> int:
        return len(self.params)

    def __len__(self) -> int:
        return self.n_cores

    @property
    def h(self) -> np.ndarray:
        """Currently applied field per core [A/m]."""
        return self.state.h_applied

    @property
    def m_normalised(self) -> np.ndarray:
        return self.state.m_total

    @property
    def m(self) -> np.ndarray:
        """Total magnetisation per core [A/m]."""
        return self.state.m_total * self.params.m_sat

    @property
    def b(self) -> np.ndarray:
        """Flux density per core ``B = mu0 * (H + Msat*m)`` [T]."""
        return flux_density(self.params, self.state.h_applied, self.state.m_total)

    # -- stepping ---------------------------------------------------------

    def reset(
        self,
        h_initial: "float | np.ndarray" = 0.0,
        m_irr_initial: "float | np.ndarray" = 0.0,
    ) -> None:
        """Return every lane to its initial condition and zero statistics.

        Mirrors the scalar reset exactly: state cleared, then the
        algebraic quantities refreshed at the initial field.
        """
        n = self.n_cores
        h0 = broadcast_lane(h_initial, n, "h_initial")
        m0 = broadcast_lane(m_irr_initial, n, "m_irr_initial")
        state = self.state
        state.h_applied = h0
        state.h_accepted = h0.copy()
        state.m_irr = m0
        state.delta = np.zeros(n)
        state.updates = np.zeros(n, dtype=np.int64)
        state.m_total = m0.copy()
        self.counters.reset()
        m_an, m_rev = refresh_algebraic(
            self.params, self.anhysteretic, h0, state.m_total
        )
        state.m_an = np.asarray(m_an, dtype=float)
        state.m_rev = np.asarray(m_rev, dtype=float)
        state.m_total = state.m_rev + state.m_irr

    def step(self, h_new: "float | np.ndarray") -> StepOutputs:
        """Apply one new field sample to every lane (scalar = shared).

        One pure-kernel call; returns the full :class:`StepOutputs`
        (its ``accepted`` mask tells which lanes fired an Euler step).
        """
        n = self.n_cores
        h = np.asarray(h_new, dtype=float)
        if h.ndim == 0:
            h = np.full(n, float(h))
        elif h.shape != (n,):
            raise ParameterError(
                f"h_new must be a scalar or a length-{n} array, got {h.shape}"
            )
        state = self.state
        out = step_kernel(
            StepInputs(
                h_new=h,
                h_accepted=state.h_accepted,
                m_irr=state.m_irr,
                m_total=state.m_total,
                delta=state.delta,
            ),
            self.params,
            self.anhysteretic,
            self.dhmax,
            guards=self.guards,
            accept_equal=self.accept_equal,
            xp=self.backend.xp,
        )
        state.h_applied = h
        state.m_an = np.asarray(out.m_an, dtype=float)
        state.m_rev = np.asarray(out.m_rev, dtype=float)
        state.m_irr = np.asarray(out.m_irr, dtype=float)
        state.m_total = np.asarray(out.m_total, dtype=float)
        state.h_accepted = np.asarray(out.h_accepted, dtype=float)
        state.delta = np.asarray(out.delta, dtype=float)
        accepted = out.accepted
        state.updates += accepted
        counters = self.counters
        counters.field_events += 1
        counters.observations += 1
        counters.euler_steps += accepted
        counters.acceptances += accepted
        counters.clamped_slopes += out.clamped
        counters.dropped_increments += out.dropped
        return out

    def step_series(
        self, h_samples: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, np.ndarray]]":
        """Fused sweep: advance the whole sample axis in one call.

        Returns ``(m, b, updated, extras)`` — each per-sample channel of
        shape ``(samples, cores)`` — leaving state and counters exactly
        as per-sample :meth:`step` calls would have left them.  On the
        exact NumPy backend the fused loop performs the same IEEE
        operations as the per-sample path (bitwise, pinned by the
        conformance suite); a backend with a compiled ``fused_series``
        driver for this family (numba) runs the whole recurrence in one
        JIT loop instead, holding the backend's ``rtol`` tier.
        """
        h_arr = check_series(h_samples, self.n_cores)
        driver = self.backend.fused_driver(self.family)
        if driver is not None:
            out = driver(self, h_arr)
            if out is not None:
                return out
        return self._step_series_vectorised(h_arr)

    def _step_series_vectorised(
        self, h_arr: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, np.ndarray]]":
        """The backend-namespace fused loop (bitwise on ``xp = numpy``).

        Performs exactly the per-lane IEEE operations of the per-sample
        ``step`` path, in the same order, with the per-sample Python
        dispatch stripped out.  One row (driver sample) refreshes
        ``m_an``/``m_rev`` straight into its output rows, makes the
        discretiser decision straight into ``updated[i]``, and only
        when some lane fired evaluates the guarded slope and merges it
        into the fired lanes.  Every temporary lives in a buffer
        allocated once per series; guard and counter masks are kept
        per row and counted once at the end, and ``m_sat`` scaling and
        ``B`` are formed over the whole matrix after the loop.

        The shortcuts are exact for every float, NaN and signed zeros
        included: ``|dh| >= dhmax`` is ``|dh| > nextafter(dhmax, -inf)``;
        guard 2 never fires behind guard 1 (``dh*dmdh*dh`` is then
        ``>= 0`` or NaN), so it is skipped when every lane clamps; a row
        where every lane fired needs no masked merge; a zero slope
        denominator needs no pole select (:func:`irreversible_slope_row`);
        and the clamp count ``clamp_hit & (raw != 0)`` is
        ``~(raw >= 0)``.  Associativity is never reordered; only
        ``x * y``/``y * x`` commutations are shared.
        """
        xp = self.backend.xp
        params = self.params
        curve = self.anhysteretic
        # Per-lane constants.  ``alpha * m_sat * x`` is left-associative,
        # so hoisting ``alpha * m_sat`` is bit-neutral.
        am = params.alpha * params.m_sat
        one_c = 1.0 + params.c
        c = params.c
        k = params.k
        threshold = xp.where(
            self.accept_equal, xp.nextafter(self.dhmax, -math.inf), self.dhmax
        )
        clamp = self.guards.clamp_negative
        drop = self.guards.drop_opposing
        guard1 = bool(np.any(clamp))
        clamp_all = bool(np.all(clamp))
        clamp_some = guard1 and not clamp_all
        guard2 = not clamp_all and bool(np.any(drop))
        drop_some = guard2 and not bool(np.all(drop))
        # The paper's modified Langevin is cheap enough to inline; other
        # curves evaluate through their own array branches.
        inline_atan = type(curve) is ModifiedLangevinAnhysteretic
        shape = curve.shape

        state = self.state
        n = self.n_cores
        n_samples = len(h_arr)
        h_acc = state.h_accepted.copy()
        m_irr = state.m_irr.copy()
        delta_st = state.delta.copy()
        m_tot = state.m_total
        m_out = xp.empty((n_samples, n))
        b_out = xp.empty((n_samples, n))
        man_out = xp.empty((n_samples, n))
        updated = xp.empty((n_samples, n), dtype=bool)
        # Per-row guard masks, read only on fired lanes after the loop.
        nonneg_rows = xp.zeros((n_samples, n), dtype=bool) if guard1 else None
        dropped_rows = xp.zeros((n_samples, n), dtype=bool) if guard2 else None
        m_rev, dh, magnitude, delta, delta_m, raw, t0, t1 = xp.empty((8, n))
        hit = xp.empty(n, dtype=bool)

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for i in range(n_samples):
                h = h_arr[i]
                m_an = man_out[i]
                accepted = updated[i]
                # core: algebraic refresh at the new field
                xp.multiply(am, m_tot, out=t0)
                xp.add(h, t0, out=t0)  # h_eff
                if inline_atan:
                    modified_langevin_row(xp, t0, shape, t0, m_an)
                else:
                    m_an[...] = curve.value(t0)
                xp.multiply(c, m_an, out=m_rev)
                xp.divide(m_rev, one_c, out=m_rev)
                # monitorH: the discretiser decision
                xp.subtract(h, h_acc, out=dh)
                xp.abs(dh, out=magnitude)
                xp.greater(magnitude, threshold, out=accepted)
                fired = xp.count_nonzero(accepted)
                if fired:
                    # Integral: guarded Forward Euler on the fired lanes,
                    # where |dh| > dhmax > 0, so sign(dh) is +-1 there.
                    xp.copysign(1.0, dh, out=delta)
                    xp.add(m_rev, m_irr, out=t1)
                    xp.subtract(m_an, t1, out=delta_m)
                    xp.multiply(delta, k, out=t1)
                    irreversible_slope_row(xp, delta_m, t1, am, one_c, raw)
                    if nonneg_rows is not None:
                        # Guard 1, the published `if (dmdh1 > 0.0)`:
                        # NaN and zero clamp too.
                        xp.greater_equal(raw, 0.0, out=nonneg_rows[i])
                        xp.greater(raw, 0.0, out=hit)
                        xp.logical_not(hit, out=hit)
                        if clamp_some:
                            xp.logical_and(hit, clamp, out=hit)
                        xp.putmask(raw, hit, 0.0)
                    xp.multiply(dh, raw, out=t0)  # dm
                    if guard2:
                        # Guard 2: drop increments opposing the field.
                        dropped = dropped_rows[i]
                        xp.multiply(t0, dh, out=t1)
                        xp.less(t1, 0.0, out=dropped)
                        if drop_some:
                            xp.logical_and(dropped, drop, out=dropped)
                        xp.putmask(t0, dropped, 0.0)
                    if fired == n:
                        xp.add(m_irr, t0, out=m_irr)
                        xp.copyto(h_acc, h)
                        delta_st, delta = delta, delta_st  # swap buffers
                    else:
                        xp.add(m_irr, t0, out=t0)
                        xp.putmask(m_irr, accepted, t0)
                        xp.putmask(h_acc, accepted, h)
                        xp.putmask(delta_st, accepted, delta)
                m_tot = m_out[i]
                xp.add(m_rev, m_irr, out=m_tot)

        euler = updated.sum(axis=0, dtype=np.int64)
        counters = self.counters
        if nonneg_rows is not None:
            # clamped == fired & ~(raw >= 0), on guarded lanes
            xp.greater(updated, nonneg_rows, out=nonneg_rows)
            if clamp_some:
                xp.logical_and(nonneg_rows, clamp, out=nonneg_rows)
            counters.clamped_slopes += nonneg_rows.sum(axis=0, dtype=np.int64)
        if dropped_rows is not None:
            xp.logical_and(dropped_rows, updated, out=dropped_rows)
            counters.dropped_increments += dropped_rows.sum(
                axis=0, dtype=np.int64
            )
        state.h_applied = np.array(
            np.broadcast_to(h_arr[-1], (n,)), dtype=float
        )
        state.h_accepted = h_acc
        state.m_irr = m_irr
        state.m_an = man_out[-1].copy()
        state.m_rev = m_rev.copy()
        state.m_total = m_tot.copy()
        state.delta = delta_st.copy()
        state.updates += euler
        counters.field_events += n_samples
        counters.observations += n_samples
        counters.euler_steps += euler
        counters.acceptances += euler
        # m = m_sat * m_total and B = mu0*(h + m), one pass each
        with np.errstate(invalid="ignore", over="ignore"):
            xp.multiply(m_out, params.m_sat, out=m_out)
            xp.add(h_arr[:, None] if h_arr.ndim == 1 else h_arr, m_out, out=b_out)
            xp.multiply(MU0, b_out, out=b_out)
        return m_out, b_out, updated, {"m_an": man_out}

    def apply_field_series(self, h_values: np.ndarray) -> np.ndarray:
        """Apply a series of samples; return B [T] of shape (samples, cores).

        ``h_values`` may be 1-D (one waveform shared by all cores) or
        2-D ``(samples, cores)`` (one waveform per core).
        """
        _, _, b = self.trace(h_values)
        return b

    def trace(
        self, h_values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply a series and return ``(h, m, b)``; ``m``/``b`` are
        ``(samples, cores)`` arrays, ``m`` in A/m."""
        return trace_series(self, h_values)

    # -- protocol hooks ----------------------------------------------------

    def begin_series(self, h_initial) -> None:
        """Protocol hook: reset every lane with its series start field."""
        self.reset(h_initial=h_initial)

    def counter_totals(self) -> dict[str, np.ndarray]:
        """Per-core cumulative totals of the sweep-facing counters."""
        counters = self.counters
        return {
            "euler_steps": counters.euler_steps.copy(),
            "clamped_slopes": counters.clamped_slopes.copy(),
            "dropped_increments": counters.dropped_increments.copy(),
        }

    def probe_extras(self) -> dict[str, np.ndarray]:
        """Record the anhysteretic channel alongside the trajectory."""
        return {"m_an": self.state.m_an.copy()}

    def driver_step_hint(self) -> float:
        """A quarter of the finest lane ``dhmax`` — the batch
        generalisation of the scalar driver default."""
        return float(np.min(self.dhmax)) / 4.0

    def snapshot(self) -> tuple:
        return (self.state.copy(), self.counters.copy())

    def restore(self, snap: tuple) -> None:
        state, counters = snap
        self.state = state.copy()
        self.counters = counters.copy()

    def __repr__(self) -> str:
        return (
            f"BatchTimelessModel(n_cores={self.n_cores}, "
            f"dhmax=[{self.dhmax.min():g}..{self.dhmax.max():g}])"
        )
