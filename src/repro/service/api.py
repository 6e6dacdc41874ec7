"""Hysteresis-as-a-service: one warm pool, one cache, many campaigns.

:class:`HysteresisService` ties the three service pieces together:

* a persistent :class:`~repro.parallel.pool.WorkerPool` of its own —
  forked once, whatever the interpreter's default start method (fused
  JIT kernels pre-warmed in the parent so the children inherit them
  compiled), reused by every request, so successive campaigns stop
  re-paying the calibration's measured ``pool_base``;
* a content-addressed :class:`~repro.service.cache.ResultCache` —
  requests are keyed by :func:`~repro.service.digest.spec_digest`
  (ensemble recipe + drive + backend; never pool width or threads), so
  a repeated request *is* its previous result;
* an async front-end — :meth:`submit` returns an ``asyncio`` future,
  :meth:`stream_grid` yields grid cells as they land, and identical
  concurrent submissions **coalesce**: one computation feeds every
  waiter with the same frozen result.

Synchronous callers use :meth:`run` (same cache, same pool, no event
loop needed), and :func:`repro.parallel.grid.run_scenario_grid` accepts
the whole service via ``service=`` for cache-aware batch campaigns.

The service takes no execution plan (only
:func:`~repro.parallel.executor.run_sharded` does).  Its warm pool is
the input to the executor's route resolver
(:func:`~repro.parallel.executor.resolve_route`), consulted once per
service, and misses are placed by the grid's rule
(:meth:`~repro.parallel.executor.Route.shards_per_job`) applied to
requests: a miss is cut ``shards_per_job(misses in flight)`` ways, so
a lone miss spans the pool's width (at most its lanes) and misses in
flight side by side run whole, each on its own worker, with no lock
between them.  A grid routed through the service runs whole cells
(:func:`~repro.parallel.grid.run_scenario_grid`).  The backend is the
request's own and part of its cache key, so numpy's bitwise tier and
numba's rtol tier never cross-serve.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from functools import partial
from pathlib import Path
from typing import AsyncIterator, Sequence

from repro.backend import resolve_backend
from repro.batch.sweep import BatchSweepResult
from repro.errors import ParameterError
from repro.parallel.executor import resolve_route, run_single
from repro.parallel.pool import WorkerPool
from repro.parallel.spec import DriveSpec, EnsembleSpec
from repro.service.cache import ResultCache
from repro.service.digest import spec_digest

#: Conventional spill location, relative to the repo/working directory.
DEFAULT_CACHE_DIR = Path("results") / "cache"


class HysteresisService:
    """A long-lived hysteresis computation service.

    Parameters
    ----------
    n_workers:
        The width of the service's :class:`~repro.parallel.pool.WorkerPool`;
        the pool is forked (its JIT kernels always pre-warmed) at
        construction, once every other argument is checked, so the
        first request already runs warm.
    cache_entries:
        In-memory LRU capacity of the result cache.
    cache_dir:
        Optional disk-spill directory (``DEFAULT_CACHE_DIR`` is the
        convention: ``results/cache/``).  ``None`` keeps the cache
        purely in-memory.
    dispatch_threads:
        Size of the thread pool the async front-end dispatches on.  It
        bounds the misses that run side by side: each dispatch thread
        runs its miss on the worker pool at once, whole while another
        miss computes, cut over the pool's width when alone.
    """

    def __init__(
        self,
        n_workers: "int | None" = None,
        *,
        cache_entries: int = 128,
        cache_dir: "Path | str | None" = None,
        dispatch_threads: int = 2,
    ) -> None:
        if dispatch_threads < 1:
            raise ParameterError(
                f"dispatch_threads must be >= 1, got {dispatch_threads}"
            )
        # The cache checks its arguments before the pool forks.
        self.cache = ResultCache(cache_entries, spill_dir=cache_dir)
        self.pool = WorkerPool(n_workers)
        # Every miss routes alike: the pool owns the width, and a route
        # knows nothing of a request's lanes.
        self._settle = resolve_route(pool=self.pool)
        self._dispatch = concurrent.futures.ThreadPoolExecutor(
            max_workers=dispatch_threads, thread_name_prefix="hysteresis"
        )
        self._inflight: "dict[str, concurrent.futures.Future]" = {}
        self._inflight_lock = threading.Lock()
        self._closed = False

    # -- content addressing -------------------------------------------

    def digest_for(self, spec: EnsembleSpec, drive: DriveSpec) -> str:
        """The cache key this service uses for one request."""
        return spec_digest(spec, drive)

    # -- synchronous front door ---------------------------------------

    def run(self, spec: EnsembleSpec, drive: DriveSpec) -> BatchSweepResult:
        """One request, synchronously: cache hit or warm-pool compute.

        A miss runs on the request's backend, on the pool's full width
        when alone and whole beside the other misses in flight.
        The returned result is the frozen cache entry — arrays
        read-only, shared by every requester of this digest.
        """
        self._check_open()
        return self._fetch(self.digest_for(spec, drive), spec, drive)

    # -- async front door ---------------------------------------------

    def submit(
        self, spec: EnsembleSpec, drive: DriveSpec
    ) -> "asyncio.Future[BatchSweepResult]":
        """Submit one request; returns an ``asyncio`` future.

        The digest is computed eagerly (spec errors surface at the call
        site, not inside the future); the cache lookup and any compute
        run on a dispatch thread, a miss side by side with the others
        in flight.
        Identical in-flight submissions coalesce onto one computation.
        Call it from a running event loop; synchronous callers use
        :meth:`run`.
        """
        self._check_open()
        digest = self.digest_for(spec, drive)
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            raise ParameterError(
                "HysteresisService.submit needs a running event loop; "
                "synchronous callers should use HysteresisService.run"
            ) from None
        return loop.run_in_executor(
            self._dispatch, partial(self._fetch, digest, spec, drive)
        )

    async def stream_grid(
        self,
        families: Sequence[str],
        scenarios: Sequence[str],
        h_max_values: Sequence[float],
        n_cores: int,
        *,
        seed: int = 0,
        driver_step: "float | None" = None,
        backend: "str | None" = None,
    ) -> AsyncIterator:
        """Yield :class:`~repro.parallel.grid.GridCell`\\ s as they land.

        The grid is deduped up front (each unique cell computed — or
        cache-served — once) and cells complete in whatever order the
        dispatch finishes them, cache hits typically first.  Unlike
        :func:`~repro.parallel.grid.run_scenario_grid` this streams the
        *unique* cells; callers wanting the full positional list should
        use ``run_scenario_grid(..., service=self)``.  An empty axis
        raises :class:`~repro.errors.ParameterError`, as it does there.
        """
        from repro.parallel.grid import GridCell, _dedupe_cells, _plan_cells

        self._check_open()
        backend_name = resolve_backend(backend).name
        planned = _plan_cells(
            list(families), list(scenarios), list(h_max_values), n_cores,
            seed, driver_step, backend_name,
        )
        unique, _ = _dedupe_cells(planned)
        loop = asyncio.get_running_loop()

        async def one_cell(key, spec, source, drive):
            digest = self.digest_for(spec, drive)
            result = await loop.run_in_executor(
                self._dispatch,
                partial(self._fetch, digest, source, drive),
            )
            return GridCell(*key, result)

        pending = [
            one_cell(key, spec, source, drive)
            for key, (spec, source, drive) in unique.items()
        ]
        for finished in asyncio.as_completed(pending):
            yield await finished

    # -- internals ----------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ParameterError(
                "this HysteresisService is closed; construct a new one"
            )

    def _fetch(self, digest, source, drive) -> BatchSweepResult:
        """Cache hit, coalesced wait, or compute-and-insert.

        ``source`` is what the executor runs (an
        :class:`~repro.parallel.spec.EnsembleSpec` or an already-built
        batch, the grid's pre-built route), on the service's one route
        from :func:`~repro.parallel.executor.resolve_route`.  A miss is
        cut by the misses in flight when it takes ownership, itself
        included; a coalesced waiter computes nothing, so it counts for
        nothing.
        """
        hit = self.cache.get(digest)
        if hit is not None:
            return hit
        with self._inflight_lock:
            fut = self._inflight.get(digest)
            owner = fut is None
            if owner:
                fut = concurrent.futures.Future()
                self._inflight[digest] = fut
        if not owner:
            # Another thread is already computing this digest: wait for
            # its frozen cache entry rather than duplicating the work.
            return fut.result()
        try:
            # The misses in flight, this one included: each owns one
            # entry, and a coalesced waiter owns none.
            in_flight = len(self._inflight)
            result = self.cache.put(
                digest,
                run_single(self._settle, source, drive, in_flight=in_flight),
            )
            fut.set_result(result)
            return result
        except BaseException as exc:
            fut.set_exception(exc)
            raise
        finally:
            with self._inflight_lock:
                self._inflight.pop(digest, None)

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        """Shut the dispatch threads and worker pool down.  Idempotent;
        the cache (and any disk spill) stays readable afterwards.  Every
        request already running on the pool (synchronous :meth:`run`
        calls on other threads, side by side) lands before the workers
        are terminated."""
        if self._closed:
            return
        self._closed = True
        self._dispatch.shutdown(wait=True)
        self.pool.close()

    def __enter__(self) -> "HysteresisService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
