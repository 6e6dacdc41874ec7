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
never pickle trajectories back.  Every route lands its row blocks in
one :class:`~repro.parallel.blocks.ShardAssembly`; for the pool, the
parent lays that assembly's buffers out in shared memory and each
worker writes its column range through views of the same segments.
Shared memory is only the pool's buffer — the layout, the schema check
and the result belong to the assembly.  Only the per-core counters —
tiny ``(width,)`` arrays whose key set a family may even grow mid-run —
return through the worker result.  ``n_workers=1`` (or any call whose
jobs hold one shard in total) runs the same shard specs in process,
through the same assembly, with no processes and no shared memory.

Which of those routes a call takes is decided in one place.
:func:`resolve_route` checks the route arguments of every entry point
(``plan``, ``n_workers``, ``mp_context``, ``pool``, ``hosts``, a
service's pool) and returns the :class:`Route`: the transport, the
pool width, the lane threads and the backend.  Only
:func:`run_sharded` takes a ``plan``.  How many shards each job is cut
into is the route's one placement rule (:meth:`Route.shards_per_job`),
and :func:`repro.parallel.grid.job_runner` opens the transport and
runs the prepared jobs on it.

The ``REPRO_PARALLEL_MAX_WORKERS`` environment variable caps the
effective worker count regardless of what callers request (CI runners
set it to stay within their core allowance).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from multiprocessing import resource_tracker, shared_memory

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


def _ensemble_lanes(source) -> int:
    """The lane count of anything the executor shards."""
    if is_batch_model(source) or isinstance(source, EnsembleSpec):
        return source.n_cores
    raise ParameterError(
        "run_sharded needs a BatchHysteresisModel or an EnsembleSpec, "
        f"got {type(source).__name__}"
    )


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
    (:func:`resolve_route` clamps plans to ``workers x threads <=
    available_cpus()``).
    ``chunk_lanes`` likewise travels inside each spec: the executing
    process streams its shard in row blocks of at most ``chunk_lanes ×
    samples`` lane-samples (:mod:`repro.parallel.blocks`) instead of
    materialising the whole shard result at once.
    """
    n_total = _ensemble_lanes(source)
    family = source.family
    if isinstance(source, EnsembleSpec) and source.backend is None:
        source = replace(source, backend=resolve_backend(None).name)
    h_full = drive.full_samples(n_total)

    bounds = plan_shards(n_total, n_workers)
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
) -> "tuple[DriveSpec, object]":
    """Build the DriveSpec, resolving the driver step *before* sharding
    (a shard's own ``driver_step_hint`` may differ from the full
    ensemble's, which would break bitwise equality).

    Returns ``(drive, source)``: when an :class:`EnsembleSpec` recipe
    had to be materialised just for its hint, the built batch comes
    back as the source, so it is sharded directly (payload route)
    instead of every worker paying the construction again.
    """
    if (h_samples is None) == (scenario is None):
        raise ParameterError(
            "run_sharded needs exactly one of h_samples / scenario"
        )
    _ensemble_lanes(source)  # an unshardable source fails before a build
    if h_samples is not None:
        return DriveSpec(samples=np.asarray(h_samples, dtype=float)), source
    if h_max is None:
        raise ParameterError(f"scenario {scenario!r} needs h_max")
    if driver_step is None:
        if not is_batch_model(source):
            source = source.build_batch()
        driver_step = source.driver_step_hint()
    drive = DriveSpec(
        scenario=scenario, h_max=float(h_max), driver_step=float(driver_step)
    )
    return drive, source


def run_job_serial(job: _CellJob) -> BatchSweepResult:
    """The n_workers=1 fallback: the same shard specs, run in this
    process, every row block landing straight in one assembly."""
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
    """Pool entry point: rebuild and run one shard, writing every row
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
    sequence behind every fork-pool transport: the one-shot pool of
    :func:`repro.parallel.grid.job_runner` and a warm
    :class:`~repro.service.pool.WorkerPool`.  Shared memory is always
    released, success or not.
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


@dataclass(frozen=True)
class Route:
    """Which transport runs one call's prepared jobs, and how wide.

    ``workers`` is the pool width: a live pool's width, else the
    resolved ``n_workers``; on a ``hosts`` fleet it is the fleet's
    width, ``n_workers`` or one per host.  It knows nothing of lanes:
    :func:`~repro.parallel.plan.plan_shards` clamps a job to its lanes
    when the job is cut, and :meth:`shards_per_job` says how many
    shards to ask for.
    ``threads`` is the lane-thread count each shard pins, and
    ``backend`` the backend every source is pinned to (``None``: each
    keeps its own).  The transport is the ``hosts`` fleet when set,
    else the caller's live ``pool``, else a one-shot pool of
    ``mp_context``.  :func:`resolve_route` builds routes and
    :func:`repro.parallel.grid.job_runner` runs them.
    """

    workers: int
    threads: int = 1
    backend: "str | None" = None
    pool: object = None
    hosts: "tuple[str, ...]" = ()
    mp_context: "str | None" = None

    def shards_per_job(self, jobs: int) -> int:
        """The shards each of ``jobs`` jobs sent in one call is cut into.

        ``ceil(workers / jobs)``, on every transport: a call offers
        the pool or fleet at least ``workers`` tasks, and whole jobs as
        soon as there are as many jobs as workers — per-sample overhead
        makes a lane cut cost more than it saves once every worker is
        busy.  A single run (``jobs=1``) is cut ``workers`` ways.  The
        count is clamped to each job's lanes when :func:`prepare_job`
        cuts it.
        """
        return -(-self.workers // jobs)


def resolve_route(
    plan=None,
    *,
    n_workers: "int | None" = None,
    mp_context: "str | None" = None,
    pool=None,
    hosts=None,
):
    """Check one call's route arguments and decide its route.

    The one place where :func:`run_sharded`,
    :func:`~repro.parallel.grid.run_scenario_grid`,
    :func:`~repro.dist.dispatch.run_distributed` and
    :class:`~repro.service.api.HysteresisService` decide how their jobs
    run.  ``pool`` is a live :class:`~repro.service.pool.WorkerPool`
    (the caller's, or a service's).  Every conflict between these
    arguments, a ``plan`` that is neither ``"auto"`` nor an
    :class:`~repro.sched.planner.ExecutionPlan`, and a ``hosts=`` list
    that is empty or names an agent twice raise
    :class:`~repro.errors.ParameterError` here, before the caller reads
    a cache, builds an ensemble, forks a pool or connects.

    Only :func:`run_sharded` passes a ``plan``, and never with a live
    pool: the pool owns the pool width.  Returns ``settle(price) ->
    Route``.  Under ``plan="auto"``, ``settle`` takes its plan from
    ``price()``, once the caller knows the drive; every other route is
    decided here, and ``price`` is never called.  The pool width is the
    live pool's, else it passes through :func:`resolve_workers`; no
    lane count reaches the route, so the width is never clamped to one
    (a job is, when it is cut: :meth:`Route.shards_per_job`).  A
    plan's lane threads are clamped so ``workers x threads <=
    available_cpus()``.  ``hosts=`` is the one way to dispatch: it
    takes no plan, and ``n_workers`` names the fleet's width (default:
    one per host; below one raises here).
    """
    auto = isinstance(plan, str) and plan == "auto"
    explicit = None if plan is None or auto else plan
    if explicit is not None:
        # Lazy import: repro.sched sits above the executor in the layer
        # stack, and plan=None callers never pay for (or depend on) it.
        from repro.sched.planner import ExecutionPlan

        if not isinstance(explicit, ExecutionPlan):
            raise ParameterError(
                f"plan must be an ExecutionPlan or 'auto', got {plan!r}"
            )
    if hosts is not None:
        hosts = tuple(hosts)
        if not hosts:
            raise ParameterError(
                "hosts= needs at least one 'host:port' worker address"
            )
        repeated = [host for i, host in enumerate(hosts) if host in hosts[:i]]
        if repeated:
            raise ParameterError(
                f"hosts= lists {repeated[0]!r} more than once: an agent "
                "serves one connection at a time.  List each agent once "
                "and pass n_workers= for more shards than hosts"
            )
        if n_workers is not None and n_workers < 1:
            raise ParameterError(f"n_workers must be >= 1, got {n_workers}")
    if hosts is not None and plan is not None:
        raise ParameterError(
            "pass either hosts= or plan=, not both: a plan only places "
            "shards on this host.  Pass hosts= without plan=, with "
            "n_workers= as the shard count; run_sharded, "
            "run_scenario_grid and run_distributed all dispatch that way"
        )
    if hosts is not None and (pool is not None or mp_context is not None):
        raise ParameterError(
            "hosts= dispatches over repro.dist sockets; a local pool "
            "(pool=, service= or mp_context=) cannot run remote shards"
        )
    if pool is not None and (n_workers is not None or plan is not None):
        raise ParameterError(
            "pass either a live pool (pool= / service=) or n_workers= / "
            "plan=, not both: a live pool owns the pool width"
        )
    if pool is not None and mp_context is not None:
        raise ParameterError(
            "mp_context applies to a one-shot pool; a live pool (pool= / "
            "service=) already carries its start method"
        )
    if plan is not None and n_workers is not None:
        raise ParameterError(
            "pass either plan= or n_workers=, not both: a plan owns the "
            "pool width and the backend"
        )

    def shape(chosen) -> Route:
        if hosts is not None:
            workers = len(hosts) if n_workers is None else n_workers
        elif chosen is not None:
            workers = resolve_workers(chosen.n_workers)
        elif pool is not None:
            workers = pool.n_workers
        else:
            workers = resolve_workers(n_workers)
        threads = 1 if chosen is None else max(
            1, min(chosen.threads_per_worker, available_cpus() // workers)
        )
        return Route(
            workers=workers,
            threads=threads,
            backend=None if chosen is None else resolve_backend(
                chosen.backend
            ).name,
            pool=pool,
            hosts=hosts or (),
            mp_context=mp_context,
        )

    if auto:
        return lambda price: shape(price())
    route = shape(explicit)
    return lambda price=None: route


@contextmanager
def backend_pinned(source, backend_name: "str | None"):
    """``source`` on ``backend_name`` for the block (``None``: as is).

    An :class:`EnsembleSpec` is immutable, so a re-pinned copy is
    yielded.  A live batch is switched in place via its ``use_backend``
    hook and switched back on exit, once its shard payloads (which carry
    the backend name) are cut, so the caller's batch never observably
    changes backend.  A batch without the hook has no backend to pin,
    as in :meth:`EnsembleSpec.build_batch`.
    """
    if backend_name is None:
        yield source
    elif isinstance(source, EnsembleSpec):
        yield replace(source, backend=backend_name)
    elif hasattr(source, "use_backend"):
        previous = source.backend
        source.use_backend(backend_name)
        try:
            yield source
        finally:
            source.use_backend(previous)
    else:
        yield source


def _price_run(source, drive):
    """``plan="auto"`` for one run: the cheapest calibrated plan."""
    # Lazy import: repro.sched sits above the executor in the layer
    # stack, and plan=None callers never pay for (or depend on) it.
    from repro.sched.planner import plan_for

    return plan_for(source, drive)


def run_single(
    settle, source, drive, chunk_lanes=None, **dispatcher_options
) -> BatchSweepResult:
    """Run one drive on a route from :func:`resolve_route`: settle it,
    cut the job on the route's backend and run it on the route's
    transport.  The one job is cut into ``route.shards_per_job(1)``
    lane shards (the pool's or fleet's width), clamped to its lanes; a
    job left with one shard runs in this process.
    ``dispatcher_options`` reach a ``hosts=`` route's
    :class:`~repro.dist.dispatch.Dispatcher`."""
    route = settle(partial(_price_run, source, drive))
    with backend_pinned(source, route.backend) as pinned:
        job = prepare_job(
            pinned, drive, route.shards_per_job(1), route.threads,
            chunk_lanes=chunk_lanes,
        )
    # The runner sits beside the grid's chunk loop, and the grid
    # imports this module.
    from repro.parallel.grid import job_runner

    with job_runner(route, **dispatcher_options) as run:
        return run([job])[0]


def run_sharded(
    source,
    h_samples=None,
    *,
    scenario: str | None = None,
    h_max: float | None = None,
    driver_step: float | None = None,
    n_workers: int | None = None,
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
        ``1`` selects the serial in-process fallback.  The lanes are
        cut into ``min(n_workers, lanes)`` near-equal shards
        (:func:`~repro.parallel.plan.plan_shards`).
    mp_context:
        ``multiprocessing`` start method (``"fork"``, ``"spawn"``, ...);
        default: the platform default.
    plan:
        ``None`` (default) keeps the explicit knobs exactly as
        documented above.  ``"auto"`` plans this run from the host's
        persisted calibration (:func:`repro.sched.planner.plan_for`),
        priced cold on a one-shot pool of its own; an
        :class:`~repro.sched.planner.ExecutionPlan` applies that plan
        verbatim.  A plan owns the backend / pool-width / lane-thread
        axes — it is mutually exclusive with ``n_workers`` and ``pool``
        — and is always clamped to this host: the pool width passes
        through :func:`resolve_workers` (environment cap included) and
        ``threads_per_worker`` is reduced so ``workers × threads``
        never exceeds the CPU affinity.  A plan always runs on this
        host; it takes no ``hosts``.  This is the only entry point that
        takes a plan.
    pool:
        A live :class:`~repro.service.pool.WorkerPool` to run the
        shards on instead of spinning up (and tearing down) a one-shot
        pool.  The live pool owns the pool width, so it is mutually
        exclusive with ``n_workers``, ``plan`` and ``mp_context``.  The
        pool is never closed here: it outlives this call by design.
    chunk_lanes:
        Bounded-memory mode: every shard streams its result in
        contiguous row blocks — sample ranges across all of the
        shard's lanes — of at most ``chunk_lanes × samples``
        lane-samples each, one row at the least
        (:mod:`repro.parallel.blocks`), instead of materialising the
        whole shard buffer at once.  ``None`` (default), or a value of
        at least the shard's width, keeps the one-shot path.  Chunking
        never changes a bit of the output: each block resumes the state
        the previous one left.
    hosts:
        A sequence of ``"host:port"`` worker-agent addresses
        (:mod:`repro.dist`): the run dispatches over the sockets
        instead of a local pool, streaming the same row blocks over
        the wire, with ``n_workers`` shards (default: one per host).
        Mutually exclusive with ``pool=`` / ``mp_context=`` and with
        any ``plan=``: ``hosts=`` is the one way to dispatch.  Each
        agent is listed once (it serves one connection at a time).
        When no listed host is reachable the run degrades to the local
        executor with a logged warning.
        :func:`repro.dist.dispatch.run_distributed` runs the same route
        with the fleet's authkey, deadlines and buffer ceiling.

    Returns the same :class:`~repro.batch.sweep.BatchSweepResult` the
    single-process executor produces — bitwise, lane order preserved.
    """
    settle = resolve_route(
        plan, n_workers=n_workers, mp_context=mp_context, pool=pool,
        hosts=hosts,
    )
    drive, source = _resolve_drive(
        source, h_samples, scenario, h_max, driver_step
    )
    return run_single(settle, source, drive, chunk_lanes)
