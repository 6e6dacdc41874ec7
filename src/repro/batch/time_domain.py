"""Vectorised classic time-domain JA ensemble (the pre-paper chain).

:class:`BatchTimeDomainModel` advances N forward-Euler dM/dH lanes in
lockstep — the sample-driven form of
:class:`repro.baselines.time_domain.TimeDomainJAModel`, where the time
step cancels out of the explicit chain — with per-lane pathology
counters: slope evaluations, negative-slope evaluations and a sticky
``diverged`` flag that freezes runaway lanes exactly like the scalar
model does.

Each lane is **bitwise identical** to a scalar sample-driven run over
the same samples: both per-sample paths call the same ufunc-safe
equation layer (:mod:`repro.ja.equations`), whose scalar branches
reproduce the array branches' IEEE operations (the parity rule,
asserted by ``tests/test_batch_time_domain.py``), and the fused loop
inlines that layer's arithmetic in the same order
(``tests/test_fused_loops.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.backend import ArrayBackend, as_backend
from repro.baselines.time_domain import DIVERGENCE_LIMIT
from repro.batch.engine import irreversible_slope_row, modified_langevin_row
from repro.batch.lanes import (
    as_lane_matrix,
    broadcast_lane,
    check_lane_range,
    check_series,
    trace_series,
)
from repro.batch.params import BatchJAParameters, stack_parameters
from repro.constants import DEFAULT_DHMAX, MU0, TWO_OVER_PI
from repro.core.slope import SlopeGuards, slice_guards, stack_guards
from repro.errors import ParameterError
from repro.ja.anhysteretic import (
    Anhysteretic,
    ModifiedLangevinAnhysteretic,
    make_anhysteretic,
    slice_anhysteretic,
)
from repro.ja.equations import (
    anhysteretic_slope_term,
    effective_field,
    flux_density,
    irreversible_slope,
)
from repro.ja.parameters import JAParameters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.baselines.time_domain import TimeDomainJAModel


class BatchTimeDomainModel:
    """N explicit dM/dH lanes advanced in lockstep per driver sample.

    Parameters
    ----------
    params:
        Heterogeneous material parameters (sequence or stacked).
    anhysteretic:
        Lane-wise anhysteretic curve; defaults to the stacked modified
        Langevin.
    guards:
        Per-lane or shared guard settings.  The historical chain runs
        unguarded (:meth:`SlopeGuards.none`, the default here, as in the
        scalar class) — that fragility is the point of the baseline.
    divergence_limit:
        |m| (normalised) beyond which a lane freezes; scalar or per-core.
    """

    family = "time-domain"

    def __init__(
        self,
        params: "Sequence[JAParameters] | BatchJAParameters",
        anhysteretic: Anhysteretic | None = None,
        guards: "SlopeGuards | Sequence[SlopeGuards]" = SlopeGuards.none(),
        divergence_limit: "float | np.ndarray" = DIVERGENCE_LIMIT,
        backend: "ArrayBackend | str | None" = None,
    ) -> None:
        self.backend = as_backend(backend)
        self.params = stack_parameters(params)
        n = len(self.params)
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
        self.divergence_limit = broadcast_lane(
            divergence_limit, n, "divergence_limit"
        )
        self._h = np.zeros(n)
        self._m = np.zeros(n)
        self.diverged = np.zeros(n, dtype=bool)
        self.steps = np.zeros(n, dtype=np.int64)
        self.slope_evaluations = np.zeros(n, dtype=np.int64)
        self.negative_slope_evaluations = np.zeros(n, dtype=np.int64)

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_scalar_models(
        cls, models: "Sequence[TimeDomainJAModel]"
    ) -> "BatchTimeDomainModel":
        """Stack live scalar models into one batch, adopting their
        sample-driven state and counters."""
        if len(models) == 0:
            raise ParameterError("need at least one model to stack")
        batch = cls(
            [m.params for m in models],
            guards=[m.guards for m in models],
            divergence_limit=np.array([m.divergence_limit for m in models]),
        )
        batch.adopt_states(models)
        return batch

    def adopt_states(self, models: "Sequence[TimeDomainJAModel]") -> None:
        if len(models) != self.n_cores:
            raise ParameterError(
                f"need one model per lane ({self.n_cores}), got {len(models)}"
            )
        for i, model in enumerate(models):
            (
                self._h[i],
                self._m[i],
                self.diverged[i],
                self.steps[i],
                self.slope_evaluations[i],
                self.negative_slope_evaluations[i],
            ) = model.snapshot()

    def write_back_to_models(self, models: "Sequence[TimeDomainJAModel]") -> None:
        for i, model in enumerate(models):
            model.restore(
                (
                    float(self._h[i]),
                    float(self._m[i]),
                    bool(self.diverged[i]),
                    int(self.steps[i]),
                    int(self.slope_evaluations[i]),
                    int(self.negative_slope_evaluations[i]),
                )
            )

    # -- shard construction ------------------------------------------------

    def shard_payload(self, start: int, stop: int) -> dict:
        """Picklable construction payload for lanes ``[start, stop)``
        (materials, guards and divergence limits only — no live state)."""
        check_lane_range(start, stop, self.n_cores)
        return {
            "params": self.params.lane_slice(start, stop),
            "anhysteretic": slice_anhysteretic(self.anhysteretic, start, stop),
            "guards": slice_guards(self.guards, start, stop),
            "divergence_limit": self.divergence_limit[start:stop].copy(),
            "backend": self.backend.name,
        }

    @classmethod
    def from_shard_payload(cls, payload: dict) -> "BatchTimeDomainModel":
        """Rebuild a (sub-)ensemble from a :meth:`shard_payload` dict."""
        return cls(
            payload["params"],
            anhysteretic=payload["anhysteretic"],
            guards=payload["guards"],
            divergence_limit=payload["divergence_limit"],
            backend=payload.get("backend"),
        )

    def use_backend(
        self, backend: "ArrayBackend | str | None"
    ) -> "BatchTimeDomainModel":
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
        return self._h

    @property
    def m_normalised(self) -> np.ndarray:
        return self._m.copy()

    @property
    def m(self) -> np.ndarray:
        # The fused loop's error state, here and in step(): IEEE
        # results, no warnings, on either path.
        with np.errstate(invalid="ignore", over="ignore"):
            return self._m * self.params.m_sat

    @property
    def b(self) -> np.ndarray:
        with np.errstate(invalid="ignore", over="ignore"):
            return flux_density(self.params, self._h, self._m)

    # -- stepping ---------------------------------------------------------

    def reset(self, h_initial: "float | np.ndarray" = 0.0) -> None:
        """Demagnetised lanes at ``h_initial``; zero all statistics."""
        n = self.n_cores
        self._h = broadcast_lane(h_initial, n, "h_initial")
        self._m = np.zeros(n)
        self.diverged[:] = False
        self.steps[:] = 0
        self.slope_evaluations[:] = 0
        self.negative_slope_evaluations[:] = 0

    def begin_series(self, h_initial) -> None:
        self.reset(h_initial=h_initial)

    def step(self, h_new) -> np.ndarray:
        """One explicit Euler step in H for every live lane.

        Mirrors the scalar ``apply_field`` exactly: lanes whose field
        did not move, and frozen (diverged) lanes, only track H; the
        rest evaluate the guarded Eq. 1 slope at the *previous* field
        and advance ``m += slope * dh``.  Returns the mask of lanes
        that integrated.
        """
        n = self.n_cores
        h = np.asarray(h_new, dtype=float)
        if h.ndim == 0:
            h = np.full(n, float(h))
        elif h.shape != (n,):
            raise ParameterError(
                f"h_new must be a scalar or a length-{n} array, got {h.shape}"
            )
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            dh = h - self._h
            active = (dh != 0.0) & ~self.diverged
            if active.any():
                params = self.params
                delta = np.where(dh >= 0.0, 1.0, -1.0)
                h_eff = effective_field(params, self._h, self._m)
                m_an = self.anhysteretic.value(h_eff)
                slope = irreversible_slope(params, m_an, self._m, delta)
                negative = slope < 0.0
                clamp = np.asarray(self.guards.clamp_negative)
                slope = np.where(negative & clamp, 0.0, slope)
                slope = slope + anhysteretic_slope_term(
                    params, self.anhysteretic, h_eff
                )
                m_new = self._m + slope * dh
                self._m = np.where(active, m_new, self._m)
                self.steps += active
                self.slope_evaluations += active
                self.negative_slope_evaluations += active & negative
                runaway = ~np.isfinite(self._m) | (
                    np.abs(self._m) > self.divergence_limit
                )
                self.diverged |= active & runaway
        self._h = h
        return active

    def step_series(
        self, h_samples: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, np.ndarray]]":
        """Fused sweep: advance the whole sample axis in one call.

        Returns ``(m, b, updated, extras)`` with state and counters
        exactly as per-sample :meth:`step` calls would have left them
        (bitwise on the exact NumPy backend)."""
        h_arr = check_series(h_samples, self.n_cores)
        driver = self.backend.fused_driver(self.family)
        if driver is not None:
            out = driver(self, h_arr)
            if out is not None:
                return out
        return self._step_series_vectorised(h_arr)

    def commit_fused_series(
        self,
        h_last: np.ndarray,
        m: np.ndarray,
        diverged: np.ndarray,
        steps: np.ndarray,
        negatives: np.ndarray,
    ) -> None:
        """Reassemble engine state after a compiled fused driver ran:
        adopt the final fields, magnetisations and divergence flags and
        accumulate the per-lane pathology counters — exactly the commit
        the vectorised fused loop performs."""
        self._h = h_last
        self._m = m
        self.diverged = diverged
        self.steps += steps
        self.slope_evaluations += steps
        self.negative_slope_evaluations += negatives

    def _step_series_vectorised(
        self, h_arr: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, np.ndarray]]":
        """The backend-namespace fused loop: per-sample :meth:`step`
        operations, in the same order, with the per-step Python
        dispatch hoisted out.

        The equation layer's arithmetic is inlined: ``alpha*m_sat``,
        ``1+c``, ``c/(1+c)`` and ``-k`` are formed once per series, the
        modified Langevin's ``h_eff/shape`` is shared by its value and
        derivative (the per-sample path computes it twice, to the same
        bits), and ``delta*k`` is selected as ``k``/``-k`` directly.
        Every temporary lives in a buffer allocated once per series,
        the new ``m`` is written straight into its output row, the
        negative-slope masks are counted once at the end, and ``m_sat``
        scaling and ``B`` are formed over the whole matrix after the
        loop.  The modified Langevin and Eq. 1 run through the timeless
        loop's row helpers (:func:`modified_langevin_row`,
        :func:`irreversible_slope_row`, which needs no pole select), and
        a row where every lane moved needs no masked merge.
        """
        xp = self.backend.xp
        n = self.n_cores
        n_samples = len(h_arr)
        h2d = as_lane_matrix(h_arr, n)

        params = self.params
        curve = self.anhysteretic
        am = params.alpha * params.m_sat
        one_c = 1.0 + params.c
        rev_coeff = params.c / one_c
        k = params.k
        neg_k = -k
        clamp = np.asarray(self.guards.clamp_negative)
        clamp_all = bool(clamp.all())
        clamp_any = bool(clamp.any())
        limit = self.divergence_limit
        inline_atan = type(curve) is ModifiedLangevinAnhysteretic
        shape = curve.shape
        h_cur = self._h
        m = self._m
        live = ~self.diverged

        m_out = xp.empty((n_samples, n))
        b_out = xp.empty((n_samples, n))
        updated_out = xp.empty((n_samples, n), dtype=bool)
        # Per-row negative-slope masks, read only on active lanes.
        negative_rows = xp.zeros((n_samples, n), dtype=bool)
        dh, dk, x, m_an, delta_m, slope, t0 = xp.empty((7, n))
        flag, finite = xp.empty((2, n), dtype=bool)

        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            for i in range(n_samples):
                h = h2d[i]
                active = updated_out[i]
                m_row = m_out[i]
                xp.subtract(h, h_cur, out=dh)
                xp.not_equal(dh, 0.0, out=active)
                xp.logical_and(active, live, out=active)
                moved = xp.count_nonzero(active)
                if moved:
                    # delta * k with delta = +1 where dh >= 0, else -1
                    # (NaN steps are active and fall, as per sample).
                    xp.greater_equal(dh, 0.0, out=flag)
                    xp.copyto(dk, neg_k)
                    xp.putmask(dk, flag, k)
                    xp.multiply(am, m, out=t0)
                    xp.add(h_cur, t0, out=t0)  # h_eff
                    if inline_atan:
                        modified_langevin_row(xp, t0, shape, x, m_an)
                    else:
                        m_an[...] = curve.value(t0)
                        x[...] = curve.derivative(t0)
                    xp.subtract(m_an, m, out=delta_m)
                    irreversible_slope_row(xp, delta_m, dk, am, one_c, slope)
                    negative = negative_rows[i]
                    xp.less(slope, 0.0, out=negative)
                    if clamp_all:
                        xp.putmask(slope, negative, 0.0)
                    elif clamp_any:
                        xp.logical_and(negative, clamp, out=flag)
                        xp.putmask(slope, flag, 0.0)
                    # + (c/(1+c)) * dman/dHe
                    if inline_atan:
                        xp.multiply(x, x, out=t0)
                        xp.add(1.0, t0, out=t0)
                        xp.divide(TWO_OVER_PI, t0, out=t0)
                        xp.divide(t0, shape, out=t0)
                        xp.multiply(rev_coeff, t0, out=t0)
                    else:
                        xp.multiply(rev_coeff, x, out=t0)
                    xp.add(slope, t0, out=slope)
                    xp.multiply(slope, dh, out=slope)
                    if moved == n:
                        xp.add(m, slope, out=m_row)
                    else:
                        xp.add(m, slope, out=slope)
                        xp.copyto(m_row, m)
                        xp.putmask(m_row, active, slope)
                    # Freeze the lanes that ran away: ~isfinite | > limit.
                    xp.isfinite(m_row, out=finite)
                    xp.abs(m_row, out=t0)
                    xp.greater(t0, limit, out=flag)
                    xp.less_equal(finite, flag, out=flag)  # ~finite | flag
                    xp.logical_and(flag, active, out=flag)
                    xp.logical_xor(live, flag, out=live)  # active => live
                else:
                    xp.copyto(m_row, m)
                m = m_row
                h_cur = h

        xp.logical_and(negative_rows, updated_out, out=negative_rows)
        steps = updated_out.sum(axis=0, dtype=np.int64)
        self._h = h_cur.copy()
        self._m = m.copy()
        self.diverged = ~live
        self.steps += steps
        self.slope_evaluations += steps
        self.negative_slope_evaluations += negative_rows.sum(
            axis=0, dtype=np.int64
        )
        # m = m_sat * m and B = mu0*(h + m), one pass each
        with np.errstate(invalid="ignore", over="ignore"):
            xp.multiply(m_out, params.m_sat, out=m_out)
            xp.add(h2d, m_out, out=b_out)
            xp.multiply(MU0, b_out, out=b_out)
        return m_out, b_out, updated_out, {}

    def apply_field(self, h_new) -> np.ndarray:
        """Apply a field sample; return the new B [T] per core."""
        self.step(h_new)
        return self.b

    def apply_field_series(self, h_values: np.ndarray) -> np.ndarray:
        return self.trace(h_values)[2]

    def trace(
        self, h_values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply a series; ``m``/``b`` come back as (samples, cores)."""
        return trace_series(self, h_values)

    # -- protocol hooks ----------------------------------------------------

    def counter_totals(self) -> dict[str, np.ndarray]:
        return {
            "steps": self.steps.copy(),
            "slope_evaluations": self.slope_evaluations.copy(),
            "negative_slope_evaluations": self.negative_slope_evaluations.copy(),
            "diverged": self.diverged.astype(np.int64),
        }

    def probe_extras(self) -> dict[str, np.ndarray]:
        return {}

    def driver_step_hint(self) -> float:
        return DEFAULT_DHMAX / 4.0

    def snapshot(self) -> tuple:
        return (
            self._h.copy(),
            self._m.copy(),
            self.diverged.copy(),
            self.steps.copy(),
            self.slope_evaluations.copy(),
            self.negative_slope_evaluations.copy(),
        )

    def restore(self, snap: tuple) -> None:
        h, m, diverged, steps, evals, neg = snap
        self._h = h.copy()
        self._m = m.copy()
        self.diverged = diverged.copy()
        self.steps = steps.copy()
        self.slope_evaluations = evals.copy()
        self.negative_slope_evaluations = neg.copy()

    def __repr__(self) -> str:
        return (
            f"BatchTimeDomainModel(n_cores={self.n_cores}, "
            f"diverged={int(self.diverged.sum())})"
        )
