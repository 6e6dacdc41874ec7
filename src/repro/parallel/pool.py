"""Live worker pools: the default one, and a service's.

A :class:`WorkerPool` is a ``multiprocessing`` pool that outlives the
calls it serves, so they stop re-paying the fork (the calibration's
measured ``pool_base``), cold recipe caches, the workers' Preisach
identification and, on the numba backend, every worker's JIT
compilation of the fused kernels.  Two owners hold one: the
process-wide default pool below, and each
:class:`~repro.service.api.HysteresisService`.

Every pool wider than one forks, whatever the interpreter's default
start method (:func:`fork_context`): before forking,
:func:`prewarm_fused_kernels` runs every compiled fused driver once
**in the parent**, so the children inherit the parent's warmed JIT
caches (the EXP-B5 fork-inheritance observation) and no worker ever
compiles; the workers know every family, scenario and backend this
process registered before the fork.  Where ``fork`` is missing, a pool
wider than one raises the pooled route's
:class:`~repro.errors.ReproError` before it forks; a width-1 pool keeps
no processes and runs anywhere.

Every local call that needs more than one shard and names no other
transport (no ``service=`` or ``hosts=``) runs on one process-wide
:class:`WorkerPool`, leased through :func:`default_pool`:

* forked at first need, as wide as that call asks (its route's width,
  at most its shards), and reused by every later call that asks the
  same width;
* re-forked when the width or a registry changed since the fork:
  workers resolve families, backends and scenario drives by name, and
  a name registered after the fork is unknown to them;
* forgotten, neither used nor closed, in a forked child (its workers
  are the parent's);
* closed at interpreter exit (:func:`close_default_pool`, which tests
  and benches call to start from no pool).

Each pool keeps the shared segments its calls laid out in one
:class:`~repro.parallel.executor.SegmentArena`: a call's results stay
on loan over the segments its workers wrote until they are dropped,
and the next call reuses the segments (and the pages its workers
already mapped) instead of creating and unlinking them per chunk.  A
pool's workers drop, at start-up, every segment they inherited from
this process (:func:`~repro.parallel.executor.unmap_inherited`), so
no pool keeps another's pages allocated.

No close or re-fork terminates a pool under a call in flight on it:
:meth:`WorkerPool.close` waits for every call to land first, then
unlinks every segment name its arena holds, idle or on loan (a loaned
result stays readable through this process's mapping, freed with its
last array).  Calls share a pool side by side, with no call-wide lock:
each lays out its own shared segments and queues its own stacks
(``multiprocessing.Pool`` accepts tasks from several threads), so a
service's misses, dispatched from its async front-end's threads, run at
once, as do streamed calls on the default pool.
"""

from __future__ import annotations

import atexit
import logging
import os
import threading
import weakref
from contextlib import ExitStack, contextmanager
from multiprocessing import get_context

from repro.backend import list_backends
from repro.batch.sweep import run_batch_series
from repro.errors import ParameterError, ReproError
from repro.models.registry import get_family, list_families
from repro.parallel.executor import (
    NEEDS_LINUX,
    SegmentArena,
    execute_jobs_pooled,
    resolve_workers,
    run_jobs_serial,
    unmap_inherited,
)
from repro.scenarios import list_scenarios

_log = logging.getLogger(__name__)


def prewarm_fused_kernels() -> tuple:
    """Run every compiled fused driver once, in this process.

    Walks the registered JIT backends (the exact numpy backend has
    nothing to compile) and, for each family the backend registers a
    fused driver for, drives a two-lane ensemble over eight samples
    through the real ``run_batch_series`` path — compiling the kernel
    variants into this process's JIT cache.  Returns the warmed
    ``(family, backend)`` pairs.  Call *before* forking workers: the
    children inherit the warmed caches for free.
    """
    # Lazy import: repro.sched sits above this package in the layer
    # stack, and only the probe drive is borrowed from it.
    from repro.sched.calibration import probe_drive

    warmed = []
    for backend in list_backends():
        if backend.exact:
            continue
        for family_name in backend.fused_families:
            family = get_family(family_name)
            batch = family.make_batch(2, seed=0, backend=backend.name)
            run_batch_series(batch, probe_drive(family.h_scale, 8))
            warmed.append((family_name, backend.name))
    return tuple(warmed)


def fork_context():
    """The ``multiprocessing`` context every pool wider than one forks
    through: ``fork``, whatever the interpreter's default start method,
    so its workers inherit this process's warmed JIT caches and
    registries.  Where ``fork`` is missing, the pooled route's
    :class:`~repro.errors.ReproError`, before anything forks."""
    try:
        return get_context("fork")
    except ValueError:
        raise ReproError(NEEDS_LINUX) from None


class WorkerPool:
    """A long-lived shard-execution pool for many calls.

    Parameters
    ----------
    n_workers:
        Pool width; defaults to the available CPUs and is clamped by
        ``REPRO_PARALLEL_MAX_WORKERS`` exactly like every other route.
        Width 1 keeps no processes at all — jobs run through the serial
        in-process fallback, so a width-1 ``WorkerPool`` is safe to
        construct on any host.  A wider one forks
        (:func:`fork_context`), and raises the pooled route's
        :class:`~repro.errors.ReproError` where ``fork`` is missing.

    Every registered fused JIT kernel is compiled in the parent before
    the fork (:func:`prewarm_fused_kernels`); with only the numpy
    backend registered there is nothing to compile.

    A service's pool never re-forks, so its workers know the registries
    they started with.  Families still resolve by name there; a
    scenario drive reaches them as samples
    (:attr:`~repro.parallel.executor.Route.names_drives`).  Several
    threads may :meth:`execute` at once: each call runs its own jobs
    side by side with the others on the same workers.
    """

    def __init__(self, n_workers: "int | None" = None) -> None:
        # Guards _closed and _calls: close() waits on it until no call
        # holds a lease.  Set before anything below can raise, so a
        # pool whose constructor raised closes (from __del__) with
        # nothing to tear down.
        self._leases = threading.Condition()
        self._calls = 0
        self._closed = False
        self._pool = None
        self.arena = SegmentArena()
        # A pool still open at exit leaves no segment name behind.
        weakref.finalize(self, self.arena.close)
        self.n_workers = resolve_workers(n_workers)
        context = fork_context() if self.n_workers > 1 else None
        self.warmed = prewarm_fused_kernels()
        # Warm-up above MUST precede the fork below: Pool() is where
        # the children snapshot the parent's (warmed) JIT caches.  Each
        # worker then drops the shared segments it inherited.
        if context is not None:
            self._pool = context.Pool(
                processes=self.n_workers, initializer=unmap_inherited
            )

    @property
    def closed(self) -> bool:
        return self._closed

    @contextmanager
    def _lease(self):
        """``(workers, arena)`` for one call: the live
        ``multiprocessing`` pool (``None`` at width 1) and the arena its
        shared segments come from; :meth:`close` waits until every lease
        has ended."""
        with self._leases:
            if self._closed:
                raise ParameterError(
                    "this WorkerPool is closed; construct a new one"
                )
            self._calls += 1
        try:
            yield self._pool, self.arena
        finally:
            with self._leases:
                self._calls -= 1
                self._leases.notify_all()

    def execute(self, jobs: list) -> list:
        """Run prepared jobs (see ``repro.parallel.executor``) on this
        pool and return their assembled results, one per job, on loan
        over this pool's shared segments.  Calls from several threads
        run side by side, each on its own segments; a width-1 pool runs
        them in the calling thread.

        A loaned result is a shared mapping, not a copy: a child this
        process forks while holding it shares its pages, so a write on
        either side shows on the other.  The child may keep reading it
        after the parent drops it; the segment is then never reused."""
        with self._lease() as (workers, arena):
            if workers is not None:
                return execute_jobs_pooled(
                    workers, [jobs], self.n_workers, arena
                )
        return run_jobs_serial(jobs)

    def close(self) -> None:
        """Tear the workers down and unlink every shared segment name of
        this pool, idle or on loan.  Idempotent.

        Waits for every call in flight to land first: its tasks would
        never return from terminated workers, and its shared memory
        would never be released.  A result still on loan stays
        readable: this process's mapping of its segments goes with the
        last of its arrays."""
        with self._leases:
            if self._closed:
                return
            self._closed = True
            while self._calls:
                self._leases.wait()
            pool, self._pool = self._pool, None
        try:
            self.arena.close()
        finally:
            if pool is not None:
                pool.terminate()
                pool.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception as exc:
            # Raising from __del__ would crash interpreter shutdown,
            # but a pool the GC had to reap is a leak worth a trace
            # (L007: broad handlers log, never swallow in silence).
            _log.debug("WorkerPool.__del__ close failed: %s", exc)


# -- the process-wide default pool -----------------------------------------

_default: "WorkerPool | None" = None
#: The width and the registry records it was forked with.
_default_width = 0
_default_records: tuple = ()
_default_lock = threading.Lock()
#: Pools a forked child inherited: held, so never closed (or reaped).
_inherited: list = []


def _registered() -> tuple:
    """Every record a worker resolves by name: families, scenarios and
    backends, compared by identity against those the pool forked with."""
    return (*list_families(), *list_scenarios(), *list_backends())


def _refork_reason(width: int, records: tuple) -> "str | None":
    """Why the default pool cannot serve ``width`` (``None``: it can)."""
    if _default is None:
        return "first need"
    if width != _default_width:
        return f"width {_default_width} -> {width}"
    if len(records) != len(_default_records) or any(
        now is not then for now, then in zip(records, _default_records)
    ):
        return "a family, scenario or backend registered since the fork"
    return None


@contextmanager
def default_pool(width: int):
    """Lease the process-wide pool ``width`` workers wide: yields its
    live ``multiprocessing`` pool and its segment arena for one call.

    Forks it at first need and re-forks it when the width or a registry
    changed since its fork, waiting for the calls in flight on the old
    one to land.  The lease is taken under the module lock, so no
    re-fork closes a pool between its lookup and the call it serves."""
    global _default, _default_width, _default_records
    with ExitStack() as stack:
        with _default_lock:
            records = _registered()
            reason = _refork_reason(width, records)
            if reason is not None:
                stale, _default = _default, None
                if stale is not None:
                    stale.close()
                _default = WorkerPool(width)
                _default_width, _default_records = width, records
                _log.info(
                    "forked the default pool: %d workers (%s)",
                    _default.n_workers,
                    reason,
                )
            lease = stack.enter_context(_default._lease())
        yield lease


def close_default_pool() -> None:
    """Close the process-wide pool once the calls in flight on it land,
    unlinking every segment name it holds; the next call that needs one
    forks afresh.  Runs at exit."""
    global _default
    with _default_lock:
        pool, _default = _default, None
        if pool is not None:
            pool.close()


def _forget_in_child() -> None:
    """After a fork, in the child: the parent's pool and lock are not
    this process's to use or to close."""
    global _default, _default_lock
    _default_lock = threading.Lock()
    if _default is not None:
        _inherited.append(_default)
        _default = None


atexit.register(close_default_pool)
os.register_at_fork(after_in_child=_forget_in_child)
