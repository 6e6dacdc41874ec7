"""Vectorised classic time-domain JA ensemble (the pre-paper chain).

:class:`BatchTimeDomainModel` advances N forward-Euler dM/dH lanes in
lockstep — the sample-driven form of
:class:`repro.baselines.time_domain.TimeDomainJAModel`, where the time
step cancels out of the explicit chain — with per-lane pathology
counters: slope evaluations, negative-slope evaluations and a sticky
``diverged`` flag that freezes runaway lanes exactly like the scalar
model does.

Each lane is **bitwise identical** to a scalar sample-driven run over
the same samples: both paths call the same ufunc-safe equation layer
(:mod:`repro.ja.equations`), whose scalar branches reproduce the array
branches' IEEE operations (the PR 1 parity rule, asserted by
``tests/test_batch_time_domain.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.backend import ArrayBackend, as_backend
from repro.baselines.time_domain import DIVERGENCE_LIMIT
from repro.batch.lanes import (
    as_lane_matrix,
    broadcast_lane,
    check_lane_range,
    check_series,
    trace_series,
)
from repro.batch.params import BatchJAParameters, stack_parameters
from repro.constants import DEFAULT_DHMAX, MU0
from repro.core.slope import SlopeGuards, slice_guards, stack_guards
from repro.errors import ParameterError
from repro.ja.anhysteretic import (
    Anhysteretic,
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
        return self._m * self.params.m_sat

    @property
    def b(self) -> np.ndarray:
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
            with np.errstate(invalid="ignore"):
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
        operations with the per-step Python dispatch (property probes,
        ``np.full`` broadcasts, per-call ``errstate``) hoisted out."""
        xp = self.backend.xp
        n = self.n_cores
        n_samples = len(h_arr)
        h2d = as_lane_matrix(h_arr, n)

        params = self.params
        curve = self.anhysteretic
        clamp = np.asarray(self.guards.clamp_negative)
        limit = self.divergence_limit
        m_sat = params.m_sat
        h_cur = self._h
        m = self._m
        diverged = self.diverged

        m_out = xp.empty((n_samples, n))
        b_out = xp.empty((n_samples, n))
        updated_out = xp.zeros((n_samples, n), dtype=bool)
        steps = xp.zeros(n, dtype=np.int64)
        negatives = xp.zeros(n, dtype=np.int64)

        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            for i in range(n_samples):
                h = h2d[i]
                dh = h - h_cur
                active = (dh != 0.0) & ~diverged
                if active.any():
                    delta = xp.where(dh >= 0.0, 1.0, -1.0)
                    h_eff = effective_field(params, h_cur, m)
                    m_an = curve.value(h_eff)
                    slope = irreversible_slope(params, m_an, m, delta, xp=xp)
                    negative = slope < 0.0
                    slope = xp.where(negative & clamp, 0.0, slope)
                    slope = slope + anhysteretic_slope_term(
                        params, curve, h_eff
                    )
                    m_new = m + slope * dh
                    m = xp.where(active, m_new, m)
                    steps += active
                    negatives += active & negative
                    runaway = ~xp.isfinite(m) | (xp.abs(m) > limit)
                    diverged = diverged | (active & runaway)
                    updated_out[i] = active
                h_cur = h
                row = m_out[i]
                xp.multiply(m, m_sat, out=row)
                b_row = b_out[i]
                xp.add(h, row, out=b_row)  # B = mu0*(h + m_sat*m)
                xp.multiply(MU0, b_row, out=b_row)

        self._h = h_cur.copy()
        self._m = m
        self.diverged = diverged
        self.steps += steps
        self.slope_evaluations += steps
        self.negative_slope_evaluations += negatives
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
