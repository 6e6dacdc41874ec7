"""Per-family cost model fitted from a micro-calibration.

The fused drivers advance every lane through every sample, so wall time
is — to first order — linear in ``samples`` with a lane-dependent slope:

    seconds ~= samples * (c + a * lanes)

``c`` captures the per-sample fixed work (dispatch, the drive scan) and
``a`` the per-sample-per-lane vectorised work.  One ``(c, a)`` pair is
fitted per ``(family, backend, threads)`` group of calibration probes
by least squares on ``seconds / samples``; negative coefficients (pure
timing noise on tiny probes) clamp to zero.

On top of the single-process predictions sit the two composition costs
the calibration measured directly:

* **pool overhead** — ``base + per_worker * n_workers`` seconds of
  fork/IPC fixed cost, paid once per sharded run;
* **shard makespan** — a sharded run finishes with its widest shard, so
  the model prices the actual :func:`~repro.parallel.plan.plan_shards`
  decomposition, not an idealised ``lanes / workers``.

The model deliberately stays this small.  A two-coefficient line per
group is robust to the tiny probe budgets CI can afford, and the
planner only needs *ordering* between a handful of candidate plans —
not accurate absolute times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.sched.calibration import Calibration


@dataclass(frozen=True)
class GroupFit:
    """The fitted line for one (family, backend, threads) group:
    ``seconds ~= samples * (c + a * lanes)``."""

    family: str
    backend: str
    threads: int
    c: float
    a: float

    def seconds(self, lanes: int, samples: int) -> float:
        return float(samples) * (self.c + self.a * float(lanes))


def _fit_group(probes) -> "tuple[float, float]":
    """Least-squares ``(c, a)`` from one group's probes.

    Fits ``seconds / samples = c + a * lanes`` — normalising by samples
    first keeps the ladder's sample sizes equally weighted.  A ladder
    with a single lanes value cannot separate the intercept, so all the
    time is attributed to the lane term (the conservative choice: it
    makes wide ensembles look expensive rather than free).
    """
    lanes = np.array([p.lanes for p in probes], dtype=np.float64)
    per_sample = np.array(
        [p.seconds / p.samples for p in probes], dtype=np.float64
    )
    if np.unique(lanes).size < 2:
        return 0.0, float(np.mean(per_sample) / max(np.mean(lanes), 1.0))
    design = np.stack([np.ones_like(lanes), lanes], axis=1)
    (c, a), *_ = np.linalg.lstsq(design, per_sample, rcond=None)
    return max(float(c), 0.0), max(float(a), 0.0)


@dataclass(frozen=True)
class CostModel:
    """All group fits plus the pool-overhead line from one calibration."""

    fits: dict
    pool_base: float
    pool_per_worker: float
    calibration_id: str

    @classmethod
    def from_calibration(cls, calibration: Calibration) -> "CostModel":
        groups: dict = {}
        for probe in calibration.probes:
            key = (probe.family, probe.backend, probe.threads)
            groups.setdefault(key, []).append(probe)
        fits = {
            key: GroupFit(*key, *_fit_group(probes))
            for key, probes in groups.items()
        }
        if not fits:
            raise ParameterError(
                "calibration contains no probes; re-run it "
                "(python -m repro.sched.calibrate)"
            )
        pool = calibration.pool or {}
        return cls(
            fits=fits,
            pool_base=float(pool.get("base_seconds", 0.0)),
            pool_per_worker=float(pool.get("per_worker_seconds", 0.0)),
            calibration_id=calibration.calibration_id,
        )

    def fit_for(
        self, family: str, backend: str, threads: int = 1
    ) -> "GroupFit | None":
        """The fitted group, falling back to threads=1 for thread counts
        the calibration never probed (scaled by the ideal-speedup ratio
        is *not* attempted — an unprobed thread count is simply priced
        as unknown and skipped by the planner)."""
        return self.fits.get((family, backend, threads))

    def thread_counts(self, family: str, backend: str) -> tuple:
        """Probed thread counts for one family × backend (sorted)."""
        return tuple(
            sorted(
                t
                for (fam, back, t) in self.fits
                if fam == family and back == backend
            )
        )

    def backends(self, family: str) -> tuple:
        """Backends with a fit for this family (sorted)."""
        return tuple(
            sorted({back for (fam, back, _t) in self.fits if fam == family})
        )

    def predict_single(
        self, family: str, backend: str, lanes: int, samples: int,
        threads: int = 1,
    ) -> "float | None":
        """Predicted seconds for one in-process fused run, or ``None``
        when the calibration has no probe group for this combination."""
        fit = self.fit_for(family, backend, threads)
        if fit is None:
            return None
        return fit.seconds(lanes, samples)

    def predict_sharded(
        self, family: str, backend: str, lanes: int, samples: int,
        n_workers: int,
    ) -> "float | None":
        """Predicted seconds for a pooled sharded run: pool spin-up plus
        the widest shard's compute (the makespan; shards run threads=1
        inside pool workers — the planner never composes both axes).
        The spin-up is always paid: a planned run forks a one-shot pool
        of its own."""
        from repro.parallel.plan import plan_shards

        fit = self.fit_for(family, backend, threads=1)
        if fit is None:
            return None
        shards = plan_shards(lanes, n_workers)
        widest = max(stop - start for start, stop in shards)
        overhead = self.pool_base + self.pool_per_worker * len(shards)
        return overhead + fit.seconds(widest, samples)
