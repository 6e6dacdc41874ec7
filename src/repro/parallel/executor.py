"""Sharded multi-process execution of batch ensembles.

:func:`run_sharded` splits any conforming batch ensemble into
contiguous lane shards (:mod:`repro.parallel.plan`), drives each shard
through the ordinary in-process executor
(:func:`repro.batch.sweep.run_batch_series`) on a ``multiprocessing``
worker pool, and reassembles a
:class:`~repro.batch.sweep.BatchSweepResult` that is **bitwise
identical** to the single-process run: every lane's computation is
independent and the batch engines are bitwise per lane, so splitting
the lane axis and writing the columns back cannot change a single
bit — of ``h``/``m``/``b``/``updated``, the extras channels, or the
per-core counters.

Workers never receive live models (see :mod:`repro.parallel.spec`) and
never pickle trajectories back.  Every route lands its lane blocks in
one :class:`~repro.parallel.blocks.ShardAssembly`; for the pool, the
parent lays that assembly's buffers out in shared memory and each
worker writes its column range through views of the same segments.
Shared memory is only the pool's buffer — the layout, the schema check
and the result belong to the assembly.  Only the per-core counters —
tiny ``(width,)`` arrays whose key set a family may even grow mid-run —
return through the worker result.  ``n_workers=1`` (or a single planned
shard) runs the same shard specs in process, through the same
assembly, with no processes and no shared memory.

The ``REPRO_PARALLEL_MAX_WORKERS`` environment variable caps the
effective worker count regardless of what callers request (CI runners
set it to stay within their core allowance).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from multiprocessing import get_context, resource_tracker, shared_memory

import numpy as np

from repro.backend import resolve_backend
from repro.batch.sweep import BatchSweepResult
from repro.errors import ParameterError
from repro.models.protocol import is_batch_model
from repro.models.registry import get_family
from repro.parallel.blocks import ShardAssembly, drain_shard
from repro.parallel.plan import plan_shards
from repro.parallel.spec import DriveSpec, EnsembleSpec, ShardSpec

#: Environment cap on the effective worker count (runner-safe CI knob).
MAX_WORKERS_ENV = "REPRO_PARALLEL_MAX_WORKERS"


def available_cpus() -> int:
    """CPUs this process may use (affinity-aware when the OS exposes it)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def resolve_workers(n_workers: int | None = None) -> int:
    """The effective worker count: requested (default: all CPUs), then
    clamped by the :data:`MAX_WORKERS_ENV` environment cap."""
    workers = available_cpus() if n_workers is None else n_workers
    if workers < 1:
        raise ParameterError(f"n_workers must be >= 1, got {workers}")
    cap = os.environ.get(MAX_WORKERS_ENV)
    if cap:
        try:
            cap_value = int(cap)
        except ValueError:
            raise ParameterError(
                f"{MAX_WORKERS_ENV} must be an integer, got {cap!r}"
            )
        if cap_value < 1:
            # A sub-1 cap is a configuration error, not "serial please":
            # silently clamping it to 1 would mask a broken CI matrix
            # entry (the historical behaviour) — fail loudly instead.
            raise ParameterError(
                f"{MAX_WORKERS_ENV} must be >= 1, got {cap_value}"
            )
        workers = min(workers, cap_value)
    return workers


@dataclass(frozen=True, eq=False)
class _CellJob:
    """One sharded run, planned: full-width drive, shard specs, and the
    extras schema its :class:`ShardAssembly` lays the buffers out by."""

    family: str
    n_total: int
    h_full: np.ndarray
    specs: list[ShardSpec]
    extras_schema: "dict[str, np.dtype]"

    @property
    def shape(self) -> tuple[int, int]:
        """Every output channel's full-width ``(samples, lanes)``."""
        return (len(self.h_full), self.n_total)


def _extras_schema(source) -> "dict[str, np.dtype]":
    """Extras channel schema ``{name: dtype}``: probed from a live
    batch, else declared by the family registry record.  Extras are
    structural state channels (stable over a run), so the pre-run
    schema is authoritative — unlike counters, which travel back per
    shard instead — and it carries each channel's dtype so the shared
    output buffers preserve integer/boolean channels exactly as the
    in-process executor does."""
    if is_batch_model(source):
        return {
            key: np.asarray(value).dtype
            for key, value in source.probe_extras().items()
        }
    return get_family(source.family).extras_schema()


def prepare_job(
    source,
    drive: DriveSpec,
    n_workers: int,
    min_shard: int,
    threads: int = 1,
    chunk_lanes: int | None = None,
) -> _CellJob:
    """Plan one sharded run: full-width samples, shard specs, schema.

    An :class:`EnsembleSpec` with ``backend=None`` is pinned to the
    parent's resolved backend here, so workers rebuild their shards on
    the backend the parent planned with rather than re-reading their
    own ``REPRO_BACKEND`` environment.  (Live batch models already
    carry the backend name inside their ``shard_payload``.)

    ``threads`` is stamped into every :class:`ShardSpec` so whichever
    process runs a shard pins that lane-thread count for its duration
    (see :func:`repro.parallel.blocks.iter_shard_blocks`); callers
    enforce the oversubscription rule before it gets here
    (:func:`run_sharded` clamps plans to ``workers x threads <=
    available_cpus()``).
    ``chunk_lanes`` likewise travels inside each spec: the executing
    process streams its shard in lane blocks at most that wide
    (:mod:`repro.parallel.blocks`) instead of materialising the whole
    shard result at once.
    """
    if is_batch_model(source):
        family, n_total = source.family, source.n_cores
    elif isinstance(source, EnsembleSpec):
        if source.backend is None:
            source = replace(source, backend=resolve_backend(None).name)
        family, n_total = source.family, source.n_cores
    else:
        raise ParameterError(
            "run_sharded needs a BatchHysteresisModel or an EnsembleSpec, "
            f"got {type(source).__name__}"
        )
    h_full = drive.full_samples(n_total)

    bounds = plan_shards(n_total, n_workers, min_shard)
    specs = []
    for start, stop in bounds:
        if h_full.ndim == 2:
            # Pre-slice per-core drives (explicit or scenario-built):
            # each worker receives only its own columns instead of K
            # pickled copies — or K full-width rebuilds — of the whole
            # matrix (ShardSpec treats explicit samples as shard-local).
            # Shared 1-D scenario drives stay name-sized; rebuilding a
            # vector worker-side is cheaper than shipping it.
            shard_drive = DriveSpec(samples=h_full[:, start:stop])
        else:
            shard_drive = drive
        if is_batch_model(source):
            specs.append(
                ShardSpec(
                    family=family,
                    n_cores_total=n_total,
                    start=start,
                    stop=stop,
                    drive=shard_drive,
                    payload=source.shard_payload(start, stop),
                    threads=threads,
                    chunk_lanes=chunk_lanes,
                )
            )
        else:
            specs.append(
                ShardSpec(
                    family=family,
                    n_cores_total=n_total,
                    start=start,
                    stop=stop,
                    drive=shard_drive,
                    ensemble=source,
                    threads=threads,
                    chunk_lanes=chunk_lanes,
                )
            )
    return _CellJob(family, n_total, h_full, specs, _extras_schema(source))


def _resolve_drive(
    source,
    h_samples,
    scenario: str | None,
    h_max: float | None,
    driver_step: float | None,
) -> "tuple[DriveSpec, object | None]":
    """Build the DriveSpec, resolving the driver step *before* sharding
    (a shard's own ``driver_step_hint`` may differ from the full
    ensemble's, which would break bitwise equality).

    Returns ``(drive, built_batch)``: when an :class:`EnsembleSpec`
    recipe had to be materialised just for its hint, the built batch
    comes back so the caller can shard it directly instead of paying
    the construction a second time.
    """
    if (h_samples is None) == (scenario is None):
        raise ParameterError(
            "run_sharded needs exactly one of h_samples / scenario"
        )
    if h_samples is not None:
        return DriveSpec(samples=np.asarray(h_samples, dtype=float)), None
    if h_max is None:
        raise ParameterError(f"scenario {scenario!r} needs h_max")
    built = None
    if driver_step is None:
        if is_batch_model(source):
            driver_step = source.driver_step_hint()
        else:
            built = source.build_batch()
            driver_step = built.driver_step_hint()
    drive = DriveSpec(
        scenario=scenario, h_max=float(h_max), driver_step=float(driver_step)
    )
    return drive, built


def run_job_serial(job: _CellJob) -> BatchSweepResult:
    """The n_workers=1 fallback: the same shard specs, run in this
    process, every lane block landing straight in one assembly."""
    assembly = ShardAssembly(job)
    for spec in job.specs:
        counters = drain_shard(spec, assembly.write_block)
        assembly.commit_shard(spec.start, spec.stop, counters)
    return assembly.result()


@dataclass(frozen=True)
class _Segments:
    """One job's shared output buffers, described picklably: what a
    pool task carries instead of arrays."""

    family: str
    extras_schema: "dict[str, np.dtype]"
    shape: tuple[int, int]
    names: "dict[str, str]"  # assembly channel -> shared-memory name

    def attach(self, handles: list) -> ShardAssembly:
        """Worker side: an assembly over views of the parent's segments.

        Attaches skip resource-tracker registration.  The parent owns
        (creates, unlinks, and tracks) every segment; an attach that
        registers it again confuses the tracker into "leaked
        shared_memory" warnings or spurious unlinks at shutdown
        (CPython gh-82300 — Python 3.13 grew ``track=False`` for
        exactly this).  Workers are single-threaded, so temporarily
        silencing the register hook is safe on 3.11/3.12 too.
        """

        def view(channel, shape, dtype):
            original = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                shm = shared_memory.SharedMemory(name=self.names[channel])
            finally:
                resource_tracker.register = original
            handles.append(shm)
            return np.ndarray(shape, dtype=dtype, buffer=shm.buf)

        return ShardAssembly(self, view)


def _shared_assembly(job: _CellJob, owned: list):
    """Parent side: an assembly whose buffers live in shared memory this
    process creates (``owned`` collects the handles to release), plus
    the :class:`_Segments` its pool tasks carry."""
    names: dict[str, str] = {}

    def create(channel, shape, dtype):
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        shm = shared_memory.SharedMemory(create=True, size=max(nbytes, 1))
        owned.append(shm)
        names[channel] = shm.name
        return np.ndarray(shape, dtype=dtype, buffer=shm.buf)

    assembly = ShardAssembly(job, create)
    return assembly, _Segments(job.family, job.extras_schema, job.shape, names)


def _worker(task: "tuple[ShardSpec, _Segments]"):
    """Pool entry point: rebuild and run one shard, writing every lane
    block into the parent's shared buffers as soon as it exists (a
    chunked worker never holds more than one block of result data);
    returns the shard's counters."""
    spec, segments = task
    handles: list = []
    try:
        return drain_shard(spec, segments.attach(handles).write_block)
    finally:
        for shm in handles:
            shm.close()


def execute_jobs_pooled(pool, jobs: "list[_CellJob]") -> list[BatchSweepResult]:
    """Run every job's shards on one pool and assemble per job.

    The single shared lay out → map → commit → copy out → release
    sequence behind both :func:`run_sharded` (one job) and
    :func:`repro.parallel.grid.run_scenario_grid` (a chunk of cells).
    Shared memory is always released, success or not.
    """
    owned: list = []
    try:
        assemblies, tasks = [], []
        for job in jobs:
            assembly, segments = _shared_assembly(job, owned)
            assemblies.append(assembly)
            tasks.extend((spec, segments) for spec in job.specs)
        counters = iter(pool.map(_worker, tasks))
        for job, assembly in zip(jobs, assemblies):
            for spec in job.specs:
                assembly.commit_shard(spec.start, spec.stop, next(counters))
        return [assembly.result(copy=True) for assembly in assemblies]
    finally:
        for shm in owned:
            shm.close()
            shm.unlink()


def _apply_plan_backend(source, backend_name: str):
    """Move ``source`` onto the plan's backend; returns the (possibly
    new) source and a zero-argument restore callable.

    An :class:`EnsembleSpec` is immutable — a re-pinned copy comes back
    and nothing needs restoring.  A live batch is switched in place via
    its ``use_backend`` hook and switched back by the restore callable
    once its shard payloads (which carry the backend name) are cut, so
    the caller's batch never observably changes backend.
    """
    if is_batch_model(source):
        previous = source.backend
        source.use_backend(backend_name)
        return source, lambda: source.use_backend(previous)
    return replace(source, backend=backend_name), lambda: None


def run_sharded(
    source,
    h_samples=None,
    *,
    scenario: str | None = None,
    h_max: float | None = None,
    driver_step: float | None = None,
    n_workers: int | None = None,
    min_shard: int = 1,
    mp_context: str | None = None,
    plan=None,
    pool=None,
    chunk_lanes: int | None = None,
    hosts=None,
) -> BatchSweepResult:
    """Run one ensemble drive sharded over a process pool.

    Parameters
    ----------
    source:
        A live :class:`~repro.models.protocol.BatchHysteresisModel`
        (sharded via its ``shard_payload``) or an
        :class:`~repro.parallel.spec.EnsembleSpec` registry recipe
        (workers rebuild their lanes from it).  Either way every lane
        starts freshly reset, exactly as
        :func:`~repro.batch.sweep.run_batch_series` resets it.
    h_samples / scenario, h_max, driver_step:
        The drive: explicit driver samples (1-D shared or
        ``(samples, cores)``), or a scenario name with its amplitude.
        ``driver_step`` defaults to the *full* ensemble's hint.
    n_workers:
        Pool width; defaults to the available CPUs and is always capped
        by the ``REPRO_PARALLEL_MAX_WORKERS`` environment variable.
        ``1`` selects the serial in-process fallback.
    min_shard:
        Smallest worthwhile shard width; fewer lanes per shard than
        this and the planner reduces the shard count instead.
    mp_context:
        ``multiprocessing`` start method (``"fork"``, ``"spawn"``, ...);
        default: the platform default.
    plan:
        ``None`` (default) keeps today's explicit knobs exactly as
        documented above.  ``"auto"`` plans this run from the host's
        persisted calibration (:func:`repro.sched.planner.plan_for`); an
        :class:`~repro.sched.planner.ExecutionPlan` applies that plan
        verbatim.  A plan owns the backend / pool-width / lane-thread
        axes — it is mutually exclusive with ``n_workers`` — and is
        always clamped to this host: the pool width passes through
        :func:`resolve_workers` (environment cap included) and
        ``threads_per_worker`` is reduced so ``workers × threads``
        never exceeds the CPU affinity.
    pool:
        A live :class:`~repro.service.pool.WorkerPool` to run the
        shards on instead of spinning up (and tearing down) a one-shot
        pool.  The live pool owns the pool width — mutually exclusive
        with ``n_workers`` and ``mp_context``; a plan's width is
        additionally clamped to the pool's, and ``plan="auto"`` prices
        pooled candidates spin-up-free (the pool already paid it).
        The pool is never closed here: it outlives this call by design.
    chunk_lanes:
        Bounded-memory mode: every shard streams its result in
        contiguous lane blocks at most this wide
        (:mod:`repro.parallel.blocks`) instead of materialising the
        whole shard buffer at once.  ``None`` (default) keeps the
        one-shot path.  Chunking never changes a bit of the output —
        blocks concatenate exactly like shards do.
    hosts:
        A sequence of ``"host:port"`` worker-agent addresses
        (:mod:`repro.dist`): the run dispatches over the sockets
        instead of a local pool, streaming the same lane blocks over
        the wire.  Mutually exclusive with ``pool=`` / ``mp_context=``;
        when no listed host is reachable the run degrades to the local
        executor with a logged warning.  A resolved plan carrying
        ``hosts`` routes here too.

    Returns the same :class:`~repro.batch.sweep.BatchSweepResult` the
    single-process executor produces — bitwise, lane order preserved.
    """
    if hosts is not None:
        if pool is not None or mp_context is not None:
            raise ParameterError(
                "hosts= dispatches over repro.dist sockets; a local "
                "pool= / mp_context= cannot run remote shards"
            )
        # Lazy import: repro.dist sits above the executor in the layer
        # stack, and host-less callers never pay for (or depend on) it.
        from repro.dist.dispatch import run_distributed

        return run_distributed(
            source,
            h_samples,
            scenario=scenario,
            h_max=h_max,
            driver_step=driver_step,
            hosts=hosts,
            n_workers=n_workers,
            min_shard=min_shard,
            plan=plan,
            chunk_lanes=chunk_lanes,
        )
    if pool is not None:
        if n_workers is not None:
            raise ParameterError(
                "pass either pool= or n_workers=, not both: a live pool "
                "owns the pool width"
            )
        if mp_context is not None:
            raise ParameterError(
                "mp_context applies to the one-shot pool run_sharded "
                "creates; a live pool already carries its start method"
            )
    drive, built = _resolve_drive(
        source, h_samples, scenario, h_max, driver_step
    )
    if built is not None:
        # The recipe was materialised for its driver-step hint; shard
        # the built batch directly (payload route) rather than making
        # every worker rebuild the whole ensemble again.
        source = built
    if plan is not None:
        if n_workers is not None:
            raise ParameterError(
                "pass either plan= or n_workers=, not both: a plan owns "
                "the pool width"
            )
        # Lazy import: repro.sched sits above the executor in the layer
        # stack, and plan=None callers never pay for (or depend on) it.
        from repro.sched.planner import resolve_plan

        chosen = resolve_plan(
            plan, source, drive, min_shard=min_shard,
            warm_pool=pool is not None,
        )
        if chosen.hosts:
            # A multi-host placement plan: the dispatcher owns the run
            # (drive already resolved at full ensemble width above).
            from repro.dist.dispatch import run_distributed

            return run_distributed(
                source,
                drive=drive,
                hosts=chosen.hosts,
                plan=chosen,
                min_shard=min_shard,
                chunk_lanes=chunk_lanes,
            )
        workers = resolve_workers(chosen.n_workers)
        if pool is not None:
            workers = min(workers, pool.n_workers)
        threads = max(
            1, min(chosen.threads_per_worker, available_cpus() // workers)
        )
        source, restore_backend = _apply_plan_backend(source, chosen.backend)
        try:
            job = prepare_job(
                source, drive, workers, min_shard, threads,
                chunk_lanes=chunk_lanes,
            )
        finally:
            restore_backend()
    else:
        workers = pool.n_workers if pool is not None else resolve_workers(
            n_workers
        )
        job = prepare_job(
            source, drive, workers, min_shard, chunk_lanes=chunk_lanes
        )
    if workers == 1 or len(job.specs) == 1:
        return run_job_serial(job)
    if pool is not None:
        return pool.execute([job])[0]
    ctx = get_context(mp_context)
    with ctx.Pool(processes=min(workers, len(job.specs))) as one_shot:
        return execute_jobs_pooled(one_shot, [job])[0]
