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
parent lays that assembly's buffers out in shared-memory segments lent
by the pool's :class:`SegmentArena`, each worker writes its column
range through views of the same segments (kept mapped across its
tasks), and the result is handed out on loan over them: the segments
go back to the arena, for the pool's next call, once the last array
over them is dropped, and the result is copied out instead when the
segment directory runs short.  The layout, the schema check and the
result belong to the assembly.  Only the per-core counters — tiny
``(width,)`` arrays whose key set a family may even grow mid-run —
return through the worker result.  ``n_workers=1`` (or any call whose
jobs hold one shard in total, when it brought no live pool) runs the
same shard specs in process, through the same assembly, with no
processes and no shared memory.  A live pool runs every job it is
handed, a one-shard job on one of its workers.

Which of those routes a call takes is decided in one place.
:func:`resolve_route` checks the route arguments of every entry point
(``plan``, ``n_workers``, ``hosts``, a service's pool) and returns the
:class:`Route`: the transport, the pool width, the lane threads and
the backend.  Only :func:`run_sharded` takes a ``plan``, and it runs
on this host; a fleet is reached through
:func:`repro.dist.dispatch.run_distributed` or
``run_scenario_grid(hosts=...)``.  How many shards each job is cut
into is the route's one placement rule (:meth:`Route.shards_per_job`),
and :func:`repro.parallel.grid.job_runner` opens the transport and
runs the prepared jobs on it.

The ``REPRO_PARALLEL_MAX_WORKERS`` environment variable caps the
effective worker count regardless of what callers request (CI runners
set it to stay within their core allowance).
"""

from __future__ import annotations

import bisect
import errno
import mmap
import os
import threading
import weakref
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from multiprocessing import shared_memory

import numpy as np

from repro.backend import resolve_backend
from repro.batch.sweep import BatchSweepResult
from repro.errors import ParameterError, ReproError
from repro.models.protocol import is_batch_model
from repro.models.registry import get_family
from repro.parallel.blocks import ShardAssembly, drain_stack
from repro.parallel.plan import plan_shards, plan_stacks
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
    """One sharded run, planned: full-width drive, shard specs, the
    extras schema its :class:`ShardAssembly` lays the buffers out by,
    and the recipe its lanes come from (the backend-pinned
    :class:`EnsembleSpec`, or the live batch its payloads were cut
    from), which decides what its shards may stack with."""

    family: str
    n_total: int
    h_full: np.ndarray
    specs: list[ShardSpec]
    extras_schema: "dict[str, np.dtype]"
    recipe: object

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
    by_name: bool = False,
) -> _CellJob:
    """Plan one sharded run: full-width samples, shard specs, schema.

    An :class:`EnsembleSpec` with ``backend=None`` is pinned to the
    parent's resolved backend here, so workers rebuild their shards on
    the backend the parent planned with rather than re-reading their
    own ``REPRO_BACKEND`` environment.  (Live batch models already
    carry the backend name inside their ``shard_payload``.)

    ``threads`` is stamped into every :class:`ShardSpec` so whichever
    process runs a shard pins that lane-thread count for its duration
    (see :func:`repro.parallel.blocks.drain_stack`); callers
    enforce the oversubscription rule before it gets here
    (:func:`resolve_route` clamps plans to ``workers x threads <=
    available_cpus()``).
    ``chunk_lanes`` likewise travels inside each spec: the executing
    process streams its shard in row blocks of at most ``chunk_lanes ×
    samples`` lane-samples (:mod:`repro.parallel.blocks`) instead of
    materialising the whole shard result at once.
    A scenario drive travels by name, rebuilt where it runs, only with
    ``by_name``: for workers that know every scenario this process
    registered (:attr:`Route.names_drives`).  Any other worker gets its
    samples: a shared 1-D drive whole, a per-core drive as each shard's
    own columns.  A per-core drive travels as columns also when a job
    is lane-cut, ``by_name`` or not.
    """
    n_total = _ensemble_lanes(source)
    family = source.family
    if isinstance(source, EnsembleSpec) and source.backend is None:
        source = replace(source, backend=resolve_backend(None).name)
    h_full = drive.full_samples(n_total)
    whole = (
        drive
        if by_name or drive.samples is not None
        else DriveSpec(samples=h_full)
    )

    bounds = plan_shards(n_total, n_workers)
    specs = []
    for start, stop in bounds:
        if h_full.ndim == 2 and (stop - start < n_total or not by_name):
            # Pre-slice per-core drives (explicit or scenario-built):
            # each worker receives only its own columns instead of K
            # pickled copies — or K full-width rebuilds — of the whole
            # matrix (ShardSpec treats explicit samples as shard-local).
            # A whole job ``by_name`` keeps its drive name-sized, so a
            # stack of whole cells never ships their matrices in one
            # task.
            shard_drive = DriveSpec(samples=h_full[:, start:stop])
        else:
            shard_drive = whole
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
    return _CellJob(
        family, n_total, h_full, specs, _extras_schema(source), source
    )


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


def _stack_key(job: _CellJob, spec: ShardSpec) -> tuple:
    """What a shard may stack on: an equal recipe (an equal
    :class:`EnsembleSpec`, or the very same live batch), lane range,
    lane threads and ``chunk_lanes``."""
    recipe = job.recipe if isinstance(job.recipe, EnsembleSpec) else id(
        job.recipe
    )
    return (recipe, spec.start, spec.stop, spec.threads, spec.chunk_lanes)


def chunk_stacks(jobs: "list[_CellJob]", width: int) -> list[list[tuple]]:
    """A chunk's tasks on a pool ``width`` workers wide: its shards as
    ``(job index, spec)`` members of the stacks
    :func:`~repro.parallel.plan.plan_stacks` cuts."""
    shards = [(j, spec) for j, job in enumerate(jobs) for spec in job.specs]
    stacks = plan_stacks(
        [_stack_key(jobs[j], spec) for j, spec in shards],
        [len(jobs[j].h_full) for j, _ in shards],
        width,
    )
    return [[shards[index] for index in stack] for stack in stacks]


def run_jobs_serial(jobs: "list[_CellJob]") -> list[BatchSweepResult]:
    """The one-worker route: the chunk's stacks, run in this process
    (as :func:`chunk_stacks` cuts them for a pool one worker wide),
    every row block landing straight in its job's assembly."""
    assemblies = [ShardAssembly(job) for job in jobs]
    for members in chunk_stacks(jobs, 1):
        counters = drain_stack(
            [spec for _, spec in members],
            [assemblies[j].write_block for j, _ in members],
        )
        for (j, spec), totals in zip(members, counters):
            assemblies[j].commit_shard(spec.start, spec.stop, totals)
    return [assembly.result() for assembly in assemblies]


#: Where POSIX shared-memory segments live on Linux: the directory whose
#: free space decides whether a pooled result stays on loan.
SHM_DIR = "/dev/shm"

#: What the pooled route raises where it cannot run, before it forks a
#: worker or lays a segment out.
NEEDS_LINUX = (
    "the pooled route needs Linux: workers forked with the 'fork' start "
    f"method and shared-memory segments in {SHM_DIR} with pages allocated "
    "by os.posix_fallocate; run with n_workers=1 (in process) or on a "
    "fleet (hosts=) here"
)

#: What a segment's page allocation fails with when the directory (or
#: the memory behind it) is full.
_NO_ROOM = (errno.ENOSPC, errno.ENOMEM)

#: Replaced just before and just after every fork of this process (a
#: plain store, so concurrent forks lose none): a loan lent under
#: another generation may be held by a child too.
_generation = object()


def _new_generation() -> None:
    global _generation
    _generation = object()


os.register_at_fork(before=_new_generation, after_in_parent=_new_generation)


def _allocated(size: int):
    """A new segment of ``size`` bytes with its pages allocated now, so
    a full directory fails here, in the parent, and never as a SIGBUS
    in a worker writing into it.  The mapping outlives the descriptor
    (``SharedMemory`` keeps it open on POSIX, as ``_fd``), which is
    closed at once: a pool with many results on loan holds no
    descriptor for them."""
    if not hasattr(os, "posix_fallocate") or not os.path.isdir(SHM_DIR):
        raise ReproError(NEEDS_LINUX)
    shm = shared_memory.SharedMemory(create=True, size=size)
    try:
        os.posix_fallocate(shm._fd, 0, size)
    except BaseException:
        _free(shm)
        raise
    os.close(shm._fd)
    shm._fd = -1
    return shm


def _free(shm, empty: bool = True) -> None:
    """Unmap and unlink ``shm``.  ``empty`` first truncates it, which
    gives its pages back at once, even while pool workers still map it
    (they touch only the segments their task names); a segment a forked
    child may still read is unlinked as it is."""
    shm.close()
    if empty:
        os.truncate(os.path.join(SHM_DIR, shm.name), 0)
    shm.unlink()


def _size(shm) -> int:
    return shm.size


class SegmentArena:
    """One pool's shared-memory segments, each in flight, on loan or idle.

    A pooled call lays a chunk's output buffers out in segments from
    its pool's arena (:meth:`lend`: the best-fitting idle segment, else
    a new one) and hands each result out over the very segments its
    workers wrote, while :meth:`may_lend` holds.  Every buffer is built
    on its segment's per-loan root array, and the segment comes back
    (:meth:`give_back`) exactly once: when the last array, view or
    buffer export over that root is gone, or when a flight that hands
    nothing out over it recalls it (:meth:`recall`).  A returned
    segment waits idle for the next call while the idle bytes stay
    within the most bytes the pool ever had in flight or on loan at
    once; past that it is emptied and unlinked.  :meth:`close` unlinks
    every name, idle or on loan; a loan stays readable through this
    process's own mapping, freed with the last of its arrays.

    A child forked while a segment is lent shares that segment's pages
    (a loan is a ``MAP_SHARED`` mapping, not a copy-on-write one), so
    such a segment, once back, is unlinked as it is, never reused or
    emptied under the child.  Pool workers drop what they inherit at
    start-up (:func:`unmap_inherited`).

    A return may run on any thread, the garbage collector's included,
    even inside this arena's own critical section, so it never blocks
    on the lock: it queues the segment, and whoever holds the lock
    files the queue.  Only the process that made the arena returns
    segments to it or unlinks its names; a forked child's inherited
    loans are its parent's.
    """

    def __init__(self) -> None:
        self._owner = os.getpid()
        self._lock = threading.Lock()
        self._idle: list = []  # by size, smallest first
        self._busy: dict = {}  # name -> segment, in flight or on loan
        self._returned: deque = deque()
        self._idle_bytes = 0
        self._busy_bytes = 0
        self._peak = 0
        self._closed = False
        _ARENAS.add(self)

    def lend(self, nbytes: int):
        """``(name, root, loan)`` for one buffer of ``nbytes``: a
        segment's name, a ``uint8`` root array over all of it (arrays
        built on it keep it alive) and ``loan``, the finalizer that
        returns the segment once the root is gone.  A full segment
        directory raises :class:`~repro.errors.ReproError` naming the
        bytes asked for, once the idle segments were freed to make
        room."""
        size = -(-max(nbytes, 1) // mmap.PAGESIZE) * mmap.PAGESIZE
        with self._lock:
            self._file_returns()
            if self._closed:
                raise ParameterError(
                    "this pool's shared memory is closed; construct a new "
                    "pool"
                )
            best = bisect.bisect_left(self._idle, size, key=_size)
            if best < len(self._idle):
                shm = self._idle.pop(best)
                self._idle_bytes -= shm.size
            else:
                shm = self._create(size)
            self._busy[shm.name] = shm
            self._busy_bytes += shm.size
            self._peak = max(self._peak, self._busy_bytes)
        root = np.ndarray((shm.size,), np.uint8, buffer=shm.buf)
        loan = weakref.finalize(root, self.give_back, shm, _generation)
        loan.atexit = False
        return shm.name, root, loan

    def _create(self, size: int):
        """A new segment, the idle ones freed first if it has no room
        (emptied, so their pages come back at once)."""
        for last in (False, True):
            try:
                return _allocated(size)
            except OSError as exc:
                if exc.errno not in _NO_ROOM:
                    raise
                if last:
                    raise ReproError(
                        f"{SHM_DIR} has no room for a {size}-byte "
                        f"shared-memory segment (this pool holds "
                        f"{self._busy_bytes} bytes in flight or on loan); "
                        "free space there or drop held pooled results"
                    ) from exc
                self._free_idle()

    def give_back(self, shm, generation) -> None:
        """Return ``shm`` from a loan lent under fork ``generation``:
        filed now if the lock is free, else by the lock's holder."""
        if os.getpid() != self._owner:
            return
        self._returned.append((shm, generation is not _generation))
        if self._lock.acquire(blocking=False):
            try:
                self._file_returns()
            finally:
                self._lock.release()

    def recall(self, loan) -> None:
        """Return a loan's segment now, detaching its finalizer, so it
        comes back exactly once."""
        info = loan.detach()
        if info is not None:
            self.give_back(*info[2])

    def may_lend(self) -> bool:
        """Whether a result may stay on loan: while at least half of the
        segment directory (``f_blocks``) is free or idle, idle segments
        being emptied at once when a layout needs their room.  So loans
        never take the room of a later layout of up to half the
        directory, whatever the callers hold."""
        try:
            stat = os.statvfs(SHM_DIR)
        except OSError:
            return False
        room = stat.f_bavail * stat.f_frsize + self._idle_bytes
        return 2 * room >= stat.f_blocks * stat.f_frsize

    def close(self) -> None:
        """Unlink every name, idle or on loan, and free the idle
        segments.  Idempotent; a no-op in a forked child."""
        if os.getpid() != self._owner:
            return
        with self._lock:
            self._file_returns()
            if self._closed:
                return
            self._closed = True
            self._free_idle()
            for shm in self._busy.values():
                shm.unlink()

    def _file_returns(self) -> None:
        """Under the lock: each queued return goes idle, or is freed."""
        while self._returned:
            shm, forked = self._returned.popleft()
            del self._busy[shm.name]
            self._busy_bytes -= shm.size
            if self._closed:
                shm.close()  # its name went at close()
            elif forked or self._idle_bytes + shm.size > self._peak:
                _free(shm, empty=not forked)
            else:
                bisect.insort(self._idle, shm, key=_size)
                self._idle_bytes += shm.size

    def _free_idle(self) -> None:
        for shm in self._idle:
            _free(shm)
        self._idle.clear()
        self._idle_bytes = 0


#: Every live arena of this process: what a forked pool worker unmaps.
_ARENAS: "weakref.WeakSet[SegmentArena]" = weakref.WeakSet()

#: ``mmap(2)``'s flag to replace whatever is mapped at an address (Linux).
_MAP_FIXED = 0x10


def unmap_inherited() -> None:
    """Pool worker start-up: swap this process's inherited mapping of
    every arena segment for inaccessible reserved memory over the same
    range.  Kept, such a mapping would hold the segment's pages until
    the worker exits, whatever its arena frees.  Pool workers never read
    a result, and reach a segment only by its name (:func:`_attached`).
    A mapping that cannot be swapped is kept."""
    arenas = list(_ARENAS)
    if not arenas:
        return
    import ctypes  # only pool workers that inherited segments need it

    libc = ctypes.CDLL(None, use_errno=True)
    libc.mmap.restype = ctypes.c_void_p
    libc.mmap.argtypes = (
        ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int, ctypes.c_int,
        ctypes.c_int, ctypes.c_long,
    )
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | _MAP_FIXED
    for arena in arenas:
        for shm in (*arena._idle, *arena._busy.values()):
            mapping = shm._mmap
            if mapping is not None:
                address = ctypes.addressof(ctypes.c_char.from_buffer(mapping))
                libc.mmap(address, len(mapping), 0, flags, -1, 0)


#: A pool worker's mappings of the parent's segments, by name, each
#: with its inode: kept across tasks until the parent unlinks the name.
_ATTACHED: dict = {}


def _attached(name: str) -> mmap.mmap:
    """Worker side: a mapping of the parent's segment ``name``, made at
    first use.  No descriptor is kept, and the resource tracker never
    hears of it: the parent owns (creates, unlinks and tracks) every
    segment."""
    if name not in _ATTACHED:
        fd = os.open(os.path.join(SHM_DIR, name), os.O_RDWR)
        try:
            _ATTACHED[name] = (mmap.mmap(fd, 0), os.fstat(fd).st_ino)
        finally:
            os.close(fd)
    return _ATTACHED[name][0]


def _drop_unlinked() -> None:
    """Worker side, before each task: unmap every segment whose name the
    parent has unlinked since (gone, or now another segment's)."""
    for name, (mapping, inode) in list(_ATTACHED.items()):
        try:
            linked = os.stat(os.path.join(SHM_DIR, name)).st_ino == inode
        except FileNotFoundError:
            linked = False
        if not linked:
            del _ATTACHED[name]
            mapping.close()


@dataclass(frozen=True)
class _Segments:
    """One job's shared output buffers, described picklably: what a
    pool task carries instead of arrays."""

    family: str
    extras_schema: "dict[str, np.dtype]"
    shape: tuple[int, int]
    names: "dict[str, str]"  # assembly channel -> shared-memory name

    def attach(self) -> ShardAssembly:
        """Worker side: an assembly over views of the parent's segments."""

        def view(channel, shape, dtype):
            mapping = _attached(self.names[channel])
            return np.ndarray(shape, dtype=dtype, buffer=mapping)

        return ShardAssembly(self, view)


def _shared_assembly(job: _CellJob, arena: SegmentArena, loans: list):
    """Parent side: an assembly whose buffers are segments lent by
    ``arena`` (``loans`` collects each one's loan), plus the
    :class:`_Segments` its pool tasks carry."""
    names: dict[str, str] = {}

    def lend(channel, shape, dtype):
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        names[channel], root, loan = arena.lend(nbytes)
        loans.append(loan)
        return np.ndarray(shape, dtype=dtype, buffer=root)

    assembly = ShardAssembly(job, lend)
    return assembly, _Segments(job.family, job.extras_schema, job.shape, names)


def _worker(task: "tuple[list[ShardSpec], list[_Segments]]"):
    """Pool entry point: rebuild and run one stack of shards
    (:func:`~repro.parallel.blocks.drain_stack`), writing each member's
    row blocks into its own job's shared buffers as soon as they exist
    (a chunked worker never holds more than one stacked block of result
    data); returns one counter dict per member.  First it unmaps the
    segments the parent has unlinked since its last task."""
    specs, segments = task
    _drop_unlinked()
    return drain_stack(
        specs, [member.attach().write_block for member in segments]
    )


def _copied(result: BatchSweepResult) -> BatchSweepResult:
    """``result`` with every trajectory channel in private memory."""
    return replace(
        result,
        m=np.array(result.m),
        b=np.array(result.b),
        updated=np.array(result.updated),
        extras={key: np.array(value) for key, value in result.extras.items()},
    )


class _Flight:
    """One chunk of jobs on a pool: its buffers, lent by the pool's
    arena and laid out, and its stacks (:func:`chunk_stacks`), queued
    as one task each the moment the chunk is launched."""

    def __init__(
        self, pool, jobs: "list[_CellJob]", width: int, arena: SegmentArena
    ) -> None:
        self.arena = arena
        self.loans: list = []
        self.assemblies = []
        try:
            segments = []
            for job in jobs:
                assembly, laid_out = _shared_assembly(job, arena, self.loans)
                self.assemblies.append(assembly)
                segments.append(laid_out)
            self.stacks = chunk_stacks(jobs, width)
            self.pending = pool.map_async(
                _worker,
                [
                    ([spec for _, spec in members],
                     [segments[j] for j, _ in members])
                    for members in self.stacks
                ],
            )
        except BaseException:
            self.release()
            raise

    def land(self) -> list[BatchSweepResult]:
        """Wait for every task, then commit and hand out each job's
        result: on loan, over the segments its workers wrote, while the
        arena may lend (:meth:`SegmentArena.may_lend`); else copied out,
        its segments returned at once.  A failed task raises here only
        once all of the chunk's tasks are done, its segments returned."""
        try:
            for members, counters in zip(self.stacks, self.pending.get()):
                for (j, spec), totals in zip(members, counters):
                    self.assemblies[j].commit_shard(
                        spec.start, spec.stop, totals
                    )
            results = [assembly.result() for assembly in self.assemblies]
        except BaseException:
            self.abandon()
            raise
        if self.arena.may_lend():
            self.loans.clear()  # each segment is its result's now
            return results
        results = [_copied(result) for result in results]
        self.release()
        return results

    def abandon(self) -> None:
        """Let the tasks finish (no worker is left writing), then release."""
        try:
            self.pending.wait()
        finally:
            self.release()

    def release(self) -> None:
        """Return every segment the chunk still holds to the arena."""
        for loan in self.loans:
            self.arena.recall(loan)
        self.loans.clear()


def execute_jobs_pooled(
    pool, chunks, width: int, arena: SegmentArena
) -> list[BatchSweepResult]:
    """Run a stream of job chunks on one pool ``width`` workers wide,
    its output buffers lent by the pool's ``arena``; one result per
    job, in order.

    ``chunks`` is an iterable of job lists, which may prepare each chunk
    as it is drawn.  The single lay out → queue → commit → hand out
    sequence behind every pooled transport: the process-wide default
    pool (:func:`repro.parallel.pool.default_pool`), which streams every
    chunk of a grid call through here, and a service's
    :class:`~repro.parallel.pool.WorkerPool`, one chunk per
    :meth:`~repro.parallel.pool.WorkerPool.execute`.  Each task is one
    stack of the chunk's shards (:func:`chunk_stacks`, cut for
    ``width``), so a worker pays the fused loop's per-sample overhead
    once per stack, not once per cell; every job keeps its own
    assembly and segments, and its result stays on loan over them
    until it is dropped (copied out instead when the segment directory
    runs short).  Chunk i+1 is drawn and its tasks queued before chunk
    i is collected, so the workers never wait at a chunk barrier while
    this process prepares; at most two chunks are in flight.  A
    segment no result holds always goes back to the arena, success or
    not: on a failure, a chunk still in flight is waited for, so the
    pool serves the next call with no task of this one left queued.
    """
    results: list = []
    flights: deque = deque()
    try:
        for jobs in chunks:
            flights.append(_Flight(pool, jobs, width, arena))
            if len(flights) > 1:
                results.extend(flights.popleft().land())
        while flights:
            results.extend(flights.popleft().land())
        return results
    finally:
        for flight in flights:
            flight.abandon()


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
    else a service's live ``pool``, else the process-wide default pool
    (:func:`repro.parallel.pool.default_pool`).
    :func:`resolve_route` builds routes and
    :func:`repro.parallel.grid.job_runner` runs them.
    """

    workers: int
    threads: int = 1
    backend: "str | None" = None
    pool: object = None
    hosts: "tuple[str, ...]" = ()

    def shards_per_job(self, jobs: int) -> int:
        """The shards each of ``jobs`` jobs sent in one call is cut into.

        ``ceil(workers / jobs)``, on every transport: a call offers
        the pool or fleet at least ``workers`` shards, and whole jobs as
        soon as there are as many jobs as workers — per-sample overhead
        makes a lane cut cost more than it saves once every worker is
        busy.  A single run (``jobs=1``) is cut ``workers`` ways.  The
        count is clamped to each job's lanes when :func:`prepare_job`
        cuts it.  A local pool then takes the shards as stacks
        (:func:`chunk_stacks`), which keep the promise: never fewer
        than ``min(workers, shards)`` tasks, and a lane-cut job's
        shards, whose lane ranges differ, never stack.
        """
        return -(-self.workers // jobs)

    @property
    def names_drives(self) -> bool:
        """Whether a scenario drive may travel by name
        (:func:`prepare_job`'s ``by_name``).  Its workers must then
        share this process's scenario registry: this process does, and
        so does the default pool, forked from it and re-forked when the
        registry changes.  A service's pool and a fleet's agents keep
        the registry they started with, so each takes a drive's
        samples."""
        return self.pool is None and not self.hosts


def resolve_route(
    plan=None,
    *,
    n_workers: "int | None" = None,
    pool=None,
    hosts=None,
):
    """Check one call's route arguments and decide its route.

    The one place where :func:`run_sharded`,
    :func:`~repro.parallel.grid.run_scenario_grid`,
    :func:`~repro.dist.dispatch.run_distributed` and
    :class:`~repro.service.api.HysteresisService` decide how their jobs
    run.  ``pool`` is a service's live
    :class:`~repro.parallel.pool.WorkerPool`, which the grid's
    ``service=`` and the service's own misses run on.  Every conflict
    between these arguments, a ``plan`` that is neither ``"auto"`` nor
    an :class:`~repro.sched.planner.ExecutionPlan`, and a ``hosts=``
    that is a bare string, an empty list or names an agent twice raise
    :class:`~repro.errors.ParameterError` here, before the caller reads
    a cache, builds an ensemble, forks a pool or connects.

    Only :func:`run_sharded` passes a ``plan``, and it runs on this
    host, on the default pool: it passes neither ``hosts=`` nor a live
    pool.  Only the grid and :func:`~repro.dist.dispatch.run_distributed`
    pass ``hosts=``, and ``n_workers`` then names the fleet's width
    (default: one per host; below one raises here).  Returns
    ``settle(price) -> Route``.  Under ``plan="auto"``, ``settle``
    takes its plan from ``price()``, once the caller knows the drive;
    every other route is decided here, and ``price`` is never called.
    The pool width is the live pool's, else it passes through
    :func:`resolve_workers`; no lane count reaches the route, so the
    width is never clamped to one (a job is, when it is cut:
    :meth:`Route.shards_per_job`).  A plan's lane threads are clamped
    so ``workers x threads <= available_cpus()``.
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
        if isinstance(hosts, (str, bytes)):
            raise ParameterError(
                f"hosts= takes a list of 'host:port' addresses, not one "
                f"string: pass hosts=[{hosts!r}]"
            )
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
    if hosts is not None and pool is not None:
        raise ParameterError(
            "hosts= dispatches over repro.dist sockets; a service's local "
            "pool (service=) cannot run remote shards"
        )
    if pool is not None and n_workers is not None:
        raise ParameterError(
            "pass either a service (service=) or n_workers=, not both: "
            "its live pool owns the pool width"
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
    settle, source, drive, chunk_lanes=None, in_flight=1,
    **dispatcher_options,
) -> BatchSweepResult:
    """Run one drive on a route from :func:`resolve_route`: settle it,
    cut the job on the route's backend and run it on the route's
    transport.  ``in_flight`` counts the runs on this route at once,
    this one included (a service's misses in flight; 1 everywhere
    else), and the job is cut into ``route.shards_per_job(in_flight)``
    lane shards, the grid's placement rule applied to runs: the pool's
    or fleet's width when alone, whole beside another run, clamped to
    its lanes.  A job left with one shard runs on a live pool's worker,
    or in this process when the route has none.  Its drive travels by
    name only on :attr:`Route.names_drives` routes.
    ``dispatcher_options`` reach a ``hosts=`` route's
    :class:`~repro.dist.dispatch.Dispatcher`."""
    route = settle(partial(_price_run, source, drive))
    with backend_pinned(source, route.backend) as pinned:
        job = prepare_job(
            pinned, drive, route.shards_per_job(in_flight), route.threads,
            chunk_lanes=chunk_lanes, by_name=route.names_drives,
        )
    # The runner sits beside the grid's chunk loop, and the grid
    # imports this module.
    from repro.parallel.grid import job_runner

    with job_runner(route, **dispatcher_options) as run:
        return run([[job]])[0]


def run_sharded(
    source,
    h_samples=None,
    *,
    scenario: str | None = None,
    h_max: float | None = None,
    driver_step: float | None = None,
    n_workers: int | None = None,
    plan=None,
    chunk_lanes: int | None = None,
) -> BatchSweepResult:
    """Run one ensemble drive sharded over a process pool.

    Every route it takes runs on this host, in process or on the
    process-wide default pool (:func:`~repro.parallel.pool.default_pool`,
    forked, which every call that names no other transport shares);
    :func:`repro.dist.dispatch.run_distributed` sends one drive to a
    fleet of worker agents.

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
        (:func:`~repro.parallel.plan.plan_shards`).  A call that asks
        another width than the live default pool's re-forks it.
    plan:
        ``None`` (default) keeps the explicit knobs exactly as
        documented above.  ``"auto"`` plans this run from the host's
        persisted calibration (:func:`repro.sched.planner.plan_for`),
        priced cold, as if its pool had to fork, so the plan never
        depends on the pools this process forked before; an
        :class:`~repro.sched.planner.ExecutionPlan` applies that plan
        verbatim; either runs on the default pool.  A plan owns the
        backend / pool-width / lane-thread axes — it is mutually
        exclusive with ``n_workers`` — and is always clamped to this
        host: the pool width passes through :func:`resolve_workers`
        (environment cap included) and ``threads_per_worker`` is reduced
        so ``workers × threads`` never exceeds the CPU affinity.  A
        plan always runs on this host.  This is the only entry point
        that takes a plan.
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

    Returns the same :class:`~repro.batch.sweep.BatchSweepResult` the
    single-process executor produces — bitwise, lane order preserved.
    """
    settle = resolve_route(plan, n_workers=n_workers)
    drive, source = _resolve_drive(
        source, h_samples, scenario, h_max, driver_step
    )
    return run_single(settle, source, drive, chunk_lanes)
