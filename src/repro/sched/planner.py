"""Cost-model-driven execution planning.

The execution stack has four knobs — array backend, fused dispatch,
pool width, lane threads per worker — and the best setting shifts with
ensemble width, drive length and host (PR 5's benchmarks put the
numba/sharding crossovers orders of magnitude apart across cells).
:func:`plan_for` picks the knobs from the host's micro-calibration
(:mod:`repro.sched.calibration`) instead of asking the caller to know
the crossovers: it enumerates every *executable* candidate plan,
prices each with the fitted :class:`~repro.sched.model.CostModel`, and
returns the cheapest as an :class:`ExecutionPlan` that
:func:`repro.parallel.executor.run_sharded` accepts via ``plan=`` — the
one entry point that takes a plan.  Every candidate is priced cold:
``plan="auto"`` runs on a one-shot pool of its own, never on a live
pool, so pooled candidates always pay the measured spin-up.

Two hard constraints shape the candidate set:

* **no oversubscription** — ``n_workers × threads_per_worker`` never
  exceeds the host's CPU affinity (and the pool width additionally
  respects ``REPRO_PARALLEL_MAX_WORKERS``, via the same
  :func:`~repro.parallel.executor.resolve_workers` the executor uses);
* **fork safety** — lane threading (``threads_per_worker > 1``) is only
  offered in-process (``n_workers == 1``).  numba's thread pools and
  ``fork``-started children are a known bad mix, and composing both
  axes never beats the better single axis on the pool sizes this stack
  targets; pool workers always run their shards single-threaded.

Plans are advisory about *speed* and silent about *semantics*: a plan
never changes which result is computed, only which backend/width
computes it, so all of the executor's bitwise reassembly pins hold
under any plan with an exact backend, and the rtol tier under a JIT
backend is the backend's own, unchanged by threading (lane-major
``prange`` preserves each lane's arithmetic sequence).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParameterError
from repro.sched.calibration import Calibration, get_calibration
from repro.sched.model import CostModel


@dataclass(frozen=True)
class ExecutionPlan:
    """One chosen configuration of the execution stack.

    ``backend`` names the array backend every shard runs on;
    ``n_workers`` the pool width (1: the serial in-process path);
    ``threads_per_worker`` the pinned lane-thread count inside each
    worker.  ``predicted_seconds`` and ``calibration_id`` document how
    the planner priced this plan (``None`` on hand-written plans).

    A plan always runs on this host.  Worker agents are reached with
    ``hosts=`` instead, which takes no plan (see
    :func:`repro.parallel.executor.resolve_route`).
    """

    backend: str
    n_workers: int = 1
    threads_per_worker: int = 1
    predicted_seconds: "float | None" = None
    calibration_id: "str | None" = None
    source: str = "manual"

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ParameterError(
                f"plan n_workers must be >= 1, got {self.n_workers}"
            )
        if self.threads_per_worker < 1:
            raise ParameterError(
                "plan threads_per_worker must be >= 1, got "
                f"{self.threads_per_worker}"
            )
        if self.n_workers > 1 and self.threads_per_worker > 1:
            raise ParameterError(
                "lane threading composes with the serial path only: "
                f"n_workers={self.n_workers} with threads_per_worker="
                f"{self.threads_per_worker} would fork around a live "
                "thread pool (and oversubscribe)"
            )

    def describe(self) -> str:
        """One-line summary for logs and experiment headers."""
        cost = (
            f" (~{self.predicted_seconds:.3g}s)"
            if self.predicted_seconds is not None
            else ""
        )
        return (
            f"{self.backend} x{self.n_workers}w/{self.threads_per_worker}t"
            f"{cost}"
        )


def describe_workload(source, drive=None, samples: "int | None" = None):
    """``(family, lanes, n_samples)`` for one planned run.

    ``source`` is anything the executor accepts (a live batch model or
    an :class:`~repro.parallel.spec.EnsembleSpec`); the sample count
    comes from ``samples`` directly, from an explicit sample array, or
    from a :class:`~repro.parallel.spec.DriveSpec` (scenario drives are
    materialised once — the same construction the run itself performs).
    """
    import numpy as np

    from repro.models.protocol import is_batch_model
    from repro.parallel.spec import DriveSpec, EnsembleSpec

    if is_batch_model(source):
        family, lanes = source.family, source.n_cores
    elif isinstance(source, EnsembleSpec):
        family, lanes = source.family, source.n_cores
    else:
        raise ParameterError(
            "cannot plan for a "
            f"{type(source).__name__}; expected a BatchHysteresisModel "
            "or an EnsembleSpec"
        )
    if samples is not None:
        n_samples = int(samples)
    elif isinstance(drive, DriveSpec):
        n_samples = len(drive.full_samples(lanes))
    elif drive is not None:
        n_samples = len(np.asarray(drive))
    else:
        raise ParameterError(
            "planning needs the drive length: pass drive= or samples="
        )
    if n_samples < 1:
        raise ParameterError(f"cannot plan a {n_samples}-sample run")
    return family, lanes, n_samples


def _worker_ladder(cap: int, lanes: int) -> "tuple[int, ...]":
    """Pool widths worth pricing: powers of two up to the cap, plus the
    cap itself, never wider than the lane count (extra workers past one
    shard per lane would idle)."""
    cap = min(cap, lanes)
    ladder = {1}
    width = 2
    while width < cap:
        ladder.add(width)
        width *= 2
    ladder.add(cap)
    return tuple(sorted(w for w in ladder if w >= 1))


def enumerate_candidates(
    model: CostModel,
    family: str,
    lanes: int,
    samples: int,
) -> "list[ExecutionPlan]":
    """Every executable candidate plan, priced, cheapest first.

    Candidates span each calibrated backend × (serial, threaded at each
    calibrated thread count, pooled at each ladder width), constrained
    by the oversubscription and fork-safety rules above.  Pool widths
    stop at :func:`~repro.parallel.executor.resolve_workers`: the
    available CPUs, capped by ``REPRO_PARALLEL_MAX_WORKERS``.
    Combinations the calibration never probed are skipped, not guessed.
    Pooled candidates include the pool's spin-up
    (:meth:`CostModel.predict_sharded`).
    """
    from repro.backend import max_threads
    from repro.parallel.executor import available_cpus, resolve_workers

    cpus = available_cpus()
    cap = resolve_workers()
    candidates: list[ExecutionPlan] = []
    for backend in model.backends(family):
        seconds = model.predict_single(family, backend, lanes, samples)
        if seconds is not None:
            candidates.append(
                ExecutionPlan(
                    backend=backend,
                    n_workers=1,
                    threads_per_worker=1,
                    predicted_seconds=seconds,
                    calibration_id=model.calibration_id,
                    source="auto",
                )
            )
        thread_cap = min(cpus, max_threads())
        for threads in model.thread_counts(family, backend):
            if threads <= 1 or threads > thread_cap:
                continue
            seconds = model.predict_single(
                family, backend, lanes, samples, threads=threads
            )
            if seconds is None:
                continue
            candidates.append(
                ExecutionPlan(
                    backend=backend,
                    n_workers=1,
                    threads_per_worker=threads,
                    predicted_seconds=seconds,
                    calibration_id=model.calibration_id,
                    source="auto",
                )
            )
        for workers in _worker_ladder(cap, lanes):
            if workers <= 1:
                continue
            seconds = model.predict_sharded(
                family, backend, lanes, samples, workers
            )
            if seconds is None:
                continue
            candidates.append(
                ExecutionPlan(
                    backend=backend,
                    n_workers=workers,
                    threads_per_worker=1,
                    predicted_seconds=seconds,
                    calibration_id=model.calibration_id,
                    source="auto",
                )
            )
    if not candidates:
        raise ParameterError(
            f"the calibration has no probes for family {family!r}; "
            "re-run python -m repro.sched.calibrate"
        )
    return sorted(candidates, key=lambda plan: plan.predicted_seconds)


def plan_for(
    source,
    drive=None,
    samples: "int | None" = None,
    calibration: "Calibration | None" = None,
) -> ExecutionPlan:
    """The cheapest executable plan for one run, priced cold.

    ``calibration=None`` loads (or, once per host, creates) the
    persisted calibration file — see
    :func:`repro.sched.calibration.get_calibration`.  Every calibrated
    backend is a candidate, and pooled candidates pay the measured
    spin-up of the one-shot pool the run forks.
    """
    family, lanes, n_samples = describe_workload(source, drive, samples)
    if calibration is None:
        calibration = get_calibration()
    model = CostModel.from_calibration(calibration)
    return enumerate_candidates(model, family, lanes, n_samples)[0]
