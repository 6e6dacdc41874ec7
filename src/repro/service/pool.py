"""A persistent worker pool that outlives individual campaigns.

Every ``run_sharded``/``run_scenario_grid`` call today builds a
``multiprocessing`` pool, uses it once, and tears it down — so every
campaign re-pays fork/spawn spin-up (the calibration's measured
``pool_base``), and on the numba backend every *worker* re-pays JIT
compilation of the fused kernels.  :class:`WorkerPool` pays both costs
once:

* the pool is created once and handed to successive executor calls via
  their ``pool=`` argument (the executor never closes a caller-owned
  pool);
* before forking, :func:`prewarm_fused_kernels` runs every compiled
  fused driver once **in the parent** — under the default ``fork``
  start method children inherit the parent's warmed JIT caches (the
  EXP-B5 fork-inheritance observation), so no worker ever compiles.

Execution through a live pool is serialised by an internal lock: the
async front-end (:mod:`repro.service.api`) may dispatch from several
threads, and ``multiprocessing.Pool.map`` calls must not interleave
shard batches from different jobs.  Parallelism comes from the shards
inside each job, not from overlapping jobs.  :meth:`WorkerPool.close`
takes the same lock, so it waits for an in-flight run to land (and
release its shared memory) before the workers are terminated.
"""

from __future__ import annotations

import logging
import threading
from multiprocessing import get_context

from repro.errors import ParameterError
from repro.parallel.executor import (
    execute_jobs_pooled,
    resolve_workers,
    run_job_serial,
)

_log = logging.getLogger(__name__)


def prewarm_fused_kernels(
    backends=None,
    lanes: int = 2,
    samples: int = 8,
) -> tuple:
    """Run every compiled fused driver once, in this process.

    Walks the registered JIT backends (the exact numpy backend has
    nothing to compile) and, for each family the backend registers a
    fused driver for, drives a tiny ensemble through the real
    ``run_batch_series`` path — compiling the kernel variants into this
    process's JIT cache.  Returns the warmed ``(family, backend)``
    pairs.  Call *before* forking workers: under ``fork`` the children
    inherit the warmed caches for free.
    """
    from repro.backend import get_backend, list_backends
    from repro.batch.sweep import run_batch_series
    from repro.models.registry import get_family
    from repro.sched.calibration import probe_drive

    records = (
        [get_backend(name) for name in backends]
        if backends is not None
        else list_backends()
    )
    warmed = []
    for backend in records:
        if backend.exact:
            continue
        for family_name in backend.fused_families:
            family = get_family(family_name)
            batch = family.make_batch(lanes, seed=0, backend=backend.name)
            run_batch_series(batch, probe_drive(family.h_scale, samples))
            warmed.append((family_name, backend.name))
    return tuple(warmed)


class WorkerPool:
    """A long-lived shard-execution pool for many campaigns.

    Parameters
    ----------
    n_workers:
        Pool width; defaults to the available CPUs and is clamped by
        ``REPRO_PARALLEL_MAX_WORKERS`` exactly like the one-shot
        executor path.  Width 1 keeps no processes at all — jobs run
        through the serial in-process fallback, so a ``WorkerPool`` is
        safe to construct on any host.
    mp_context:
        ``multiprocessing`` start method.  The default (``fork`` on
        Linux) is what makes pre-warmed JIT kernels heritable; under
        ``spawn`` workers start cold and the warm-up only helps the
        parent's own serial runs.

    Every registered fused JIT kernel is compiled in the parent before
    the fork (:func:`prewarm_fused_kernels`); with only the numpy
    backend registered there is nothing to compile.
    """

    def __init__(
        self,
        n_workers: "int | None" = None,
        *,
        mp_context: "str | None" = None,
    ) -> None:
        self.n_workers = resolve_workers(n_workers)
        self._ctx = get_context(mp_context)
        self.warmed = prewarm_fused_kernels()
        # Warm-up above MUST precede the fork below: Pool() is where
        # the children snapshot the parent's (warmed) JIT caches.
        self._pool = (
            self._ctx.Pool(processes=self.n_workers)
            if self.n_workers > 1
            else None
        )
        self._lock = threading.Lock()
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def start_method(self) -> str:
        return self._ctx.get_start_method()

    def execute(self, jobs: list) -> list:
        """Run prepared jobs (see ``repro.parallel.executor``) on this
        pool and return their assembled results, one per job."""
        with self._lock:
            if self._closed:
                raise ParameterError(
                    "this WorkerPool is closed; construct a new one"
                )
            if self._pool is not None:
                return execute_jobs_pooled(self._pool, jobs)
        return [run_job_serial(job) for job in jobs]

    def close(self) -> None:
        """Tear the workers down.  Idempotent.

        Waits for an in-flight :meth:`execute` to finish first: its
        ``Pool.map`` would never return from terminated workers, and
        its shared memory would never be released."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
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
