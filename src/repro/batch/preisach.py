"""Vectorised Preisach ensemble: N relay grids advanced in lockstep.

:class:`BatchPreisachModel` holds the relay state of N discrete
Preisach cores as one ``(cores, n_alpha, n_beta)`` tensor and switches
all cores with one masked NumPy update per driver sample.  Each lane is
**bitwise identical** to an independent
:class:`repro.preisach.model.PreisachModel` over the same samples: the
switching masks select the same cells, the written values are exact
constants (±1, 0), and the weighted relay sum reduces each core's
contiguous grid in the same pairwise order NumPy uses for the scalar
2-D sum (asserted by ``tests/test_batch_preisach.py``).

As with the timeless batch engine, the win is amortisation: one
Python-level dispatch per *sample* instead of per sample *per core*
(``benchmarks/test_bench_preisach.py`` asserts >= 5x over the scalar
loop at N = 64).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.backend import ArrayBackend, as_backend
from repro.batch.lanes import (
    as_lane_matrix,
    broadcast_lane,
    check_lane_range,
    check_series,
    trace_series,
)
from repro.constants import MU0
from repro.errors import ParameterError
from repro.preisach.model import PreisachModel


class BatchPreisachModel:
    """N discrete Preisach cores advanced in lockstep per driver sample.

    Parameters
    ----------
    weights:
        ``(cores, n_alpha, n_beta)`` relay weights; entries outside each
        lane's ``alpha >= beta`` half-plane must be zero.
    alpha_thresholds, beta_thresholds:
        ``(cores, n_alpha)`` / ``(cores, n_beta)`` up/down switching
        grids [A/m] (or 1-D, shared by all cores), strictly increasing
        per lane.
    m_sat:
        Physical magnetisation scale [A/m], scalar or one per core.

    Cores must share the grid *shape* (the lockstep tensor requires it)
    but not the grid values or weights — ensembles of independently
    identified cores are the intended workload.
    """

    family = "preisach"

    def __init__(
        self,
        weights: np.ndarray,
        alpha_thresholds: np.ndarray,
        beta_thresholds: np.ndarray,
        m_sat,
        backend: "ArrayBackend | str | None" = None,
    ) -> None:
        self.backend = as_backend(backend)
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 3:
            raise ParameterError(
                f"weights must be (cores, n_alpha, n_beta), got shape {weights.shape}"
            )
        n, n_alpha, n_beta = weights.shape
        alpha = np.asarray(alpha_thresholds, dtype=float)
        beta = np.asarray(beta_thresholds, dtype=float)
        if alpha.ndim == 1:
            alpha = np.broadcast_to(alpha, (n, len(alpha))).copy()
        if beta.ndim == 1:
            beta = np.broadcast_to(beta, (n, len(beta))).copy()
        if alpha.shape != (n, n_alpha) or beta.shape != (n, n_beta):
            raise ParameterError(
                f"threshold grids {alpha.shape}/{beta.shape} do not match "
                f"weights {weights.shape}"
            )
        if np.any(np.diff(alpha, axis=1) <= 0) or np.any(np.diff(beta, axis=1) <= 0):
            raise ParameterError("threshold grids must strictly increase per lane")
        if np.any(weights < 0.0):
            raise ParameterError("Preisach weights must be non-negative")
        self.m_sat = broadcast_lane(m_sat, n, "m_sat")
        if not (np.isfinite(self.m_sat).all() and (self.m_sat > 0.0).all()):
            raise ParameterError(
                f"m_sat lanes must be finite and > 0, got {self.m_sat!r}"
            )

        valid = alpha[:, :, None] >= beta[:, None, :]
        if np.any(weights[~valid] != 0.0):
            raise ParameterError(
                "weights outside the alpha >= beta half-plane must be zero"
            )
        totals = np.sum(weights, axis=(1, 2))
        if np.any(totals <= 0.0):
            raise ParameterError("total Preisach weight must be positive per lane")

        self.weights = weights
        self.alpha_thresholds = alpha
        self.beta_thresholds = beta
        self._valid = valid
        self._state = np.zeros_like(weights)
        self._h = np.zeros(n)
        self._m_cache: np.ndarray | None = None
        self._switch_events = np.zeros(n, dtype=np.int64)
        self.reset()

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_scalar_models(
        cls, models: "Sequence[PreisachModel]"
    ) -> "BatchPreisachModel":
        """Stack live scalar Preisach models into one batch, adopting
        their relay state (lanes map to models by position)."""
        if len(models) == 0:
            raise ParameterError("need at least one model to stack")
        shapes = {m.weights.shape for m in models}
        if len(shapes) != 1:
            raise ParameterError(
                f"cannot stack Preisach grids of different shapes: {sorted(shapes)}"
            )
        batch = cls(
            weights=np.stack([m.weights for m in models]),
            alpha_thresholds=np.stack([m.alpha_thresholds for m in models]),
            beta_thresholds=np.stack([m.beta_thresholds for m in models]),
            m_sat=np.array([m.m_sat for m in models]),
        )
        batch.adopt_states(models)
        return batch

    def adopt_states(self, models: "Sequence[PreisachModel]") -> None:
        """Copy each scalar model's live relay state into the lanes."""
        if len(models) != self.n_cores:
            raise ParameterError(
                f"need one model per lane ({self.n_cores}), got {len(models)}"
            )
        for i, model in enumerate(models):
            state, h = model.snapshot()
            self._state[i] = state
            self._h[i] = h
        self._m_cache = None

    def write_back_to_models(self, models: "Sequence[PreisachModel]") -> None:
        """Copy lane relay state back onto scalar models (the inverse of
        :meth:`adopt_states`)."""
        for i, model in enumerate(models):
            model.restore((self._state[i], float(self._h[i])))

    # -- shard construction ------------------------------------------------

    def shard_payload(self, start: int, stop: int) -> dict:
        """Picklable construction payload for lanes ``[start, stop)``
        (grids and weights only, no relay state — a rebuilt shard starts
        from the demagnetised staircase)."""
        check_lane_range(start, stop, self.n_cores)
        return {
            "weights": self.weights[start:stop].copy(),
            "alpha_thresholds": self.alpha_thresholds[start:stop].copy(),
            "beta_thresholds": self.beta_thresholds[start:stop].copy(),
            "m_sat": self.m_sat[start:stop].copy(),
            "backend": self.backend.name,
        }

    @classmethod
    def from_shard_payload(cls, payload: dict) -> "BatchPreisachModel":
        """Rebuild a (sub-)ensemble from a :meth:`shard_payload` dict."""
        return cls(**payload)

    def use_backend(
        self, backend: "ArrayBackend | str | None"
    ) -> "BatchPreisachModel":
        """Switch the array backend (state is untouched); returns self."""
        self.backend = as_backend(backend)
        return self

    # -- state access -----------------------------------------------------

    @property
    def n_cores(self) -> int:
        return len(self.weights)

    def __len__(self) -> int:
        return self.n_cores

    @property
    def relay_count(self) -> int:
        """Valid relays per core (shared grid shape, lane 0's count)."""
        return int(np.sum(self._valid[0]))

    @property
    def h(self) -> np.ndarray:
        """Currently applied field per core [A/m]."""
        return self._h

    @property
    def m_normalised(self) -> np.ndarray:
        """Weighted relay sum per core (see the scalar docstring for why
        it is deliberately not divided by the total weight)."""
        if self._m_cache is None:
            self._m_cache = np.sum(self.weights * self._state, axis=(1, 2))
        return self._m_cache.copy()

    @property
    def m(self) -> np.ndarray:
        """Magnetisation per core [A/m]."""
        return self.m_normalised * self.m_sat

    @property
    def b(self) -> np.ndarray:
        """Flux density ``mu0 * (H + M)`` per core [T]."""
        return MU0 * (self._h + self.m)

    # -- stepping ---------------------------------------------------------

    def reset(self) -> None:
        """Demagnetised staircase per lane: relays with ``alpha + beta < 0``
        up — the AC-demagnetised state of the scalar model."""
        up = (
            self.alpha_thresholds[:, :, None] + self.beta_thresholds[:, None, :]
        ) < 0.0
        self._state = np.where(up, 1.0, -1.0) * self._valid
        self._h = np.zeros(self.n_cores)
        self._switch_events[:] = 0
        self._m_cache = None

    def begin_series(self, h_initial) -> None:
        """Protocol hook: a fresh series starts from the demagnetised
        staircase; the relays carry no notion of an initial field, so
        ``h_initial`` is ignored and the first driver sample switches
        from the staircase (exactly like a scalar ``reset`` + trace)."""
        del h_initial
        self.reset()

    def saturate(self, positive=True) -> None:
        """Jump lanes to positive (or negative) saturation; ``positive``
        may be a scalar or one bool per core."""
        pos = np.asarray(positive, dtype=bool)
        if pos.ndim == 0:
            pos = np.full(self.n_cores, bool(pos))
        elif pos.shape != (self.n_cores,):
            raise ParameterError(
                f"positive must be a bool or length-{self.n_cores} array, "
                f"got shape {pos.shape}"
            )
        value = np.where(pos, 1.0, -1.0)
        self._state = value[:, None, None] * self._valid
        self._h = np.where(
            pos, self.alpha_thresholds[:, -1], self.beta_thresholds[:, 0]
        )
        self._m_cache = None

    def step(self, h_new) -> np.ndarray:
        """Apply one field sample to every lane (scalar = shared).

        Rising lanes switch **up** every relay with ``alpha <= H``,
        falling lanes switch **down** every relay with ``beta >= H`` —
        the same masked row/column writes as the scalar model, batched
        over the leading core axis.  Returns the per-lane mask of cores
        whose magnetisation changed.
        """
        n = self.n_cores
        h = np.asarray(h_new, dtype=float)
        if h.ndim == 0:
            h = np.full(n, float(h))
        elif h.shape != (n,):
            raise ParameterError(
                f"h_new must be a scalar or a length-{n} array, got {h.shape}"
            )
        if not np.isfinite(h).all():
            raise ParameterError(f"h must be finite, got {h!r}")

        m_before = self.m_normalised
        state = self._state
        rising = h > self._h
        if rising.any():
            up = rising[:, None, None] & (
                self.alpha_thresholds[:, :, None] <= h[:, None, None]
            )
            np.copyto(state, 1.0, where=up & self._valid)
            np.copyto(state, 0.0, where=up & ~self._valid)
        falling = h < self._h
        if falling.any():
            down = falling[:, None, None] & (
                self.beta_thresholds[:, None, :] >= h[:, None, None]
            )
            np.copyto(state, -1.0, where=down & self._valid)
            np.copyto(state, 0.0, where=down & ~self._valid)
        self._h = h.copy()
        self._m_cache = None
        updated = self.m_normalised != m_before
        self._switch_events += updated
        return updated

    def step_series(
        self, h_samples: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, np.ndarray]]":
        """Fused sweep: advance the whole sample axis in one call.

        Returns ``(m, b, updated, extras)`` with state and counters
        exactly as per-sample :meth:`step` calls would have left them
        (bitwise on the exact NumPy backend — the relay sum reduces
        each lane's own contiguous grid in the same pairwise order).
        """
        h_arr = check_series(h_samples, self.n_cores)
        driver = self.backend.fused_driver(self.family)
        if driver is not None:
            out = driver(self, h_arr)
            if out is not None:
                return out
        return self._step_series_vectorised(h_arr)

    # -- compiled fused-driver state access --------------------------------

    def relay_state(self) -> np.ndarray:
        """The live ``(cores, n_alpha, n_beta)`` relay tensor, advanced
        in place by compiled fused drivers (exactly as the per-sample
        masked writes advance it)."""
        return self._state

    def relay_validity(self) -> np.ndarray:
        """The ``alpha >= beta`` half-plane mask of the relay tensor."""
        return self._valid

    def commit_fused_series(
        self,
        h_last: np.ndarray,
        switches: np.ndarray,
    ) -> None:
        """Reassemble engine state after a compiled fused driver ran:
        adopt the final applied fields and accumulate the per-lane
        switch events (the relay tensor itself was advanced in place
        via :meth:`relay_state`).  The weighted-sum cache is dropped —
        not seeded with the driver's own (sequentially reduced) sum —
        so the next per-sample probe recomputes NumPy's pairwise sum
        from the exactly-advanced relay tensor; caching the sequential
        value would make a no-op follow-up ``step`` report phantom
        ``updated`` lanes from 1-ulp summation-order noise."""
        self._h = h_last
        self._m_cache = None
        self._switch_events += switches

    def _step_series_vectorised(
        self, h_arr: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, np.ndarray]]":
        """The backend-namespace fused loop: the per-sample switching
        and reduction operations with the per-sample Python dispatch
        (property probes, cache bookkeeping, per-step ``np.full``)
        hoisted out of the loop."""
        xp = self.backend.xp
        if not np.isfinite(h_arr).all():
            raise ParameterError(f"h must be finite, got {h_arr!r}")
        n = self.n_cores
        n_samples = len(h_arr)
        h2d = as_lane_matrix(h_arr, n)

        weights = self.weights
        state = self._state
        valid = self._valid
        invalid = ~valid
        alpha3 = self.alpha_thresholds[:, :, None]
        beta3 = self.beta_thresholds[:, None, :]
        m_sat = self.m_sat
        h_cur = self._h
        m_norm = self.m_normalised

        m_out = xp.empty((n_samples, n))
        b_out = xp.empty((n_samples, n))
        updated_out = xp.empty((n_samples, n), dtype=bool)
        switches = xp.zeros(n, dtype=np.int64)

        for i in range(n_samples):
            h = h2d[i]
            h3 = h[:, None, None]
            rising = h > h_cur
            if rising.any():
                up = rising[:, None, None] & (alpha3 <= h3)
                np.copyto(state, 1.0, where=up & valid)
                np.copyto(state, 0.0, where=up & invalid)
            falling = h < h_cur
            if falling.any():
                down = falling[:, None, None] & (beta3 >= h3)
                np.copyto(state, -1.0, where=down & valid)
                np.copyto(state, 0.0, where=down & invalid)
            h_cur = h
            m_before = m_norm
            m_norm = xp.sum(weights * state, axis=(1, 2))
            updated = m_norm != m_before
            switches += updated
            updated_out[i] = updated
            m_phys = m_norm * m_sat
            m_out[i] = m_phys
            b_out[i] = MU0 * (h + m_phys)

        self._h = h_cur.copy()
        self._m_cache = m_norm
        self._switch_events += switches
        return m_out, b_out, updated_out, {}

    def apply_field(self, h_new) -> np.ndarray:
        """Apply a field sample; return the new B [T] per core (the
        batch twin of the scalar ``apply_field``)."""
        self.step(h_new)
        return self.b

    def apply_field_series(self, h_values: np.ndarray) -> np.ndarray:
        """Apply a series; return B [T] of shape (samples, cores)."""
        return self.trace(h_values)[2]

    def trace(
        self, h_values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply a series and return ``(h, m, b)``; ``m``/``b`` are
        ``(samples, cores)``, ``m`` in A/m.  ``h_values`` may be 1-D
        (shared waveform) or ``(samples, cores)``."""
        return trace_series(self, h_values)

    # -- protocol hooks ----------------------------------------------------

    def counter_totals(self) -> dict[str, np.ndarray]:
        """Per-core totals: ``switch_events`` counts samples on which a
        lane's magnetisation changed."""
        return {"switch_events": self._switch_events.copy()}

    def probe_extras(self) -> dict[str, np.ndarray]:
        return {}

    def driver_step_hint(self) -> float:
        """One cell width of the finest lane: resolves every relay."""
        return float(
            min(
                np.min(np.diff(self.alpha_thresholds, axis=1)),
                np.min(np.diff(self.beta_thresholds, axis=1)),
            )
        )

    def snapshot(self) -> tuple:
        return (
            self._state.copy(),
            self._h.copy(),
            self._switch_events.copy(),
        )

    def restore(self, snap: tuple) -> None:
        state, h, switches = snap
        self._state = state.copy()
        self._h = h.copy()
        self._switch_events = switches.copy()
        self._m_cache = None

    def __repr__(self) -> str:
        return (
            f"BatchPreisachModel(n_cores={self.n_cores}, "
            f"{self.relay_count} relays/core)"
        )
