"""Sharded scenario grids: families × scenarios × amplitudes, one pool.

:func:`run_scenario_grid` is the high-level entry for sweep campaigns
(the MagNet-Challenge shape: many materials, many drives, many
amplitudes).  A grid cell is one ``(family, scenario, h_max)``
combination over an ``n_cores`` registry ensemble, and **all** cells
funnel through one transport in chunks of cells, so only a bounded
number of cells hold output buffers at a time.  On the default pool
the chunks stream: the next chunk is prepared and queued while the
workers run the one before, so they never wait at a chunk barrier.
Each pool worker or fleet agent takes whole cells; a cell's lanes are
cut only when a chunk has fewer cells than the pool or fleet has
workers (:meth:`~repro.parallel.executor.Route.shards_per_job`),
because the fused loop's per-sample overhead makes a lane cut cost
more than it saves once every worker is busy.  On this host the same
overhead is paid once per **stack**, not once per cell: a chunk's
cells of one recipe run as one wide batch, a few to a task
(:func:`~repro.parallel.executor.chunk_stacks`,
:func:`~repro.parallel.blocks.drain_stack`), each keeping its own
output buffers.  Each cell's result is bitwise identical to running
that cell alone through :func:`repro.batch.sweep.run_batch_series`.

The grid has one body for every route.  It checks its route arguments
(:func:`repro.parallel.executor.resolve_route`), plans and **dedupes**
the cells once, takes a service's cache hits out, runs the rest in
chunks of :data:`CHUNK_CELLS` through :func:`job_runner`, and caches
what it computed.  A grid takes no execution plan: every cell runs on
the route's default width, and only
:func:`~repro.parallel.executor.run_sharded` takes ``plan=``.
Callers composing ``h_max_values`` from overlapping sources (a default
ladder plus a spot-check list) pay for each unique
``(family, scenario, h_max)`` cell once; duplicates are served the same
result object (the collapse is logged).

:func:`job_runner` is the one place a route's transport is opened: this
process, the process-wide default pool
(:func:`repro.parallel.pool.default_pool`, which lives until exit and
serves every call that names no other transport), a caller's warm
:class:`~repro.parallel.pool.WorkerPool`, or a
:class:`~repro.dist.dispatch.Dispatcher` over worker agents.
:func:`~repro.parallel.executor.run_sharded`, the service and
:func:`~repro.dist.dispatch.run_distributed` run their single job
through it too.  A service stays duck-typed here —
:mod:`repro.parallel.grid` never imports :mod:`repro.service`, which
sits *above* it in the layer stack.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from repro.backend import resolve_backend
from repro.batch.sweep import BatchSweepResult
from repro.errors import ParameterError
from repro.parallel.executor import (
    execute_jobs_pooled,
    prepare_job,
    resolve_route,
    run_jobs_serial,
)
from repro.parallel.pool import default_pool
from repro.parallel.spec import DriveSpec, EnsembleSpec

_log = logging.getLogger(__name__)

#: Cells prepared and run per chunk.  It bounds how many cells hold
#: live sample matrices and output buffers at once (two chunks' worth
#: on the default pool's stream), so a large grid streams through the
#: pool or fleet chunk by chunk instead of materialising every cell up
#: front.
CHUNK_CELLS = 8


@dataclass(frozen=True)
class GridCell:
    """One completed grid cell."""

    family: str
    scenario: str
    h_max: float
    result: BatchSweepResult

    @property
    def key(self) -> tuple[str, str, float]:
        return (self.family, self.scenario, self.h_max)


def _plan_cells(
    families: Sequence[str],
    scenarios: Sequence[str],
    h_max_values: Sequence[float],
    n_cores: int,
    seed: int,
    driver_step: float | None,
    backend_name: str,
) -> list[tuple[tuple[str, str, float], EnsembleSpec, object, DriveSpec]]:
    """Lightweight ``(key, spec, source, drive)`` descriptor per cell.

    Only the driver-step hints are resolved eagerly (one per family —
    the same full-recipe resolution ``run_sharded`` performs); when a
    family's ensemble had to be built for its hint, it becomes that
    family's shard source directly, so neither the parent nor the
    workers construct it again.  The heavyweight per-cell work — full
    sample matrices, shared buffers — happens lazily, chunk by chunk.
    The spec rides along even when a built batch is the source: it is
    the stable recipe the service layer digests for cache keys.

    Every cell's spec is stamped with ``backend_name`` — the backend
    :func:`run_scenario_grid` resolved once at entry — so cells
    prepared later in the campaign cannot re-read a changed
    ``REPRO_BACKEND`` environment and split one grid across backends.

    Both grid front doors plan through here, so an empty axis raises
    the same :class:`~repro.errors.ParameterError` from
    :func:`run_scenario_grid` and from the service's ``stream_grid``.
    """
    if not (families and scenarios and h_max_values):
        raise ParameterError(
            "a scenario grid needs at least one family, scenario and h_max"
        )
    cells = []
    for family in families:
        spec = EnsembleSpec(
            family=family, n_cores=n_cores, seed=seed, backend=backend_name
        )
        source: object = spec
        step = driver_step
        if step is None:
            source = spec.build_batch()
            step = source.driver_step_hint()
        for scenario in scenarios:
            for h_max in h_max_values:
                drive = DriveSpec(
                    scenario=scenario,
                    h_max=float(h_max),
                    driver_step=float(step),
                )
                cells.append(
                    ((family, scenario, float(h_max)), spec, source, drive)
                )
    return cells


def _dedupe_cells(planned):
    """Collapse duplicate cell keys, preserving first-seen order.

    Returns ``(unique, order)`` where ``unique`` maps each key to its
    ``(spec, source, drive)`` descriptor and ``order`` is the original
    key sequence (duplicates included) for final result assembly.
    """
    unique: dict = {}
    order = []
    for key, spec, source, drive in planned:
        if key not in unique:
            unique[key] = (spec, source, drive)
        order.append(key)
    collapsed = len(order) - len(unique)
    if collapsed:
        _log.info(
            "run_scenario_grid collapsed %d duplicate cell(s): computing "
            "%d unique of %d requested",
            collapsed,
            len(unique),
            len(order),
        )
    return unique, order


@contextmanager
def job_runner(route, **dispatcher_options):
    """Yield ``run(chunks) -> results`` on ``route``'s transport.

    ``chunks`` is an iterable of job lists (a generator may prepare
    each as it is drawn); ``run`` returns one result per job, in
    order.  The one route-selection branch of the package (``route``
    comes from :func:`repro.parallel.executor.resolve_route`):

    * ``route.hosts`` — a :class:`~repro.dist.dispatch.Dispatcher`
      (``dispatcher_options`` are its keyword arguments), closed on
      exit, one ``run_jobs`` per chunk.  With no live host it drains
      every shard locally, logging that it degrades to the local
      executor;
    * ``route.pool`` — the caller's (or a service's) live pool, one
      ``execute`` per chunk, whatever the chunk's shard count, never
      closed here; a pool one worker wide runs the chunk in the calling
      thread.  A one-shard job runs on a worker too, so a service's
      misses in flight side by side compute in its workers, not in the
      threads that sent them;
    * a chunk whose jobs hold one shard in total, or a route one worker
      wide, with no live pool — this process, no pool at all (so a
      plan's single threaded shard never runs in a forked child), until
      a chunk needs a pool; the chunk runs as the stacks a pool one
      worker wide would run
      (:func:`~repro.parallel.executor.run_jobs_serial`);
    * otherwise the process-wide default pool, leased at the width of
      the first chunk that needs a pool (``route.workers``, at most
      that chunk's shards; forked, reused or re-forked by
      :func:`~repro.parallel.pool.default_pool`), which streams that
      chunk and every later one through one
      :func:`~repro.parallel.executor.execute_jobs_pooled` call.

    Every local transport runs a chunk's shards as stacks, one task
    each (:func:`~repro.parallel.executor.chunk_stacks`); a fleet's
    agents take one shard a message.
    """
    if route.hosts:
        # Lazy upward import: repro.dist sits above this package in the
        # layer stack, and host-less runs never pay for (or depend on) it.
        from repro.dist.dispatch import Dispatcher

        with Dispatcher(route.hosts, **dispatcher_options) as dispatcher:
            yield lambda chunks: [
                result
                for jobs in chunks
                for result in dispatcher.run_jobs(jobs)
            ]
        return

    def run(chunks):
        chunks = iter(chunks)
        results = []
        for jobs in chunks:
            width = min(route.workers, sum(len(job.specs) for job in jobs))
            if route.pool is not None:
                results.extend(route.pool.execute(jobs))
            elif width <= 1:
                results.extend(run_jobs_serial(jobs))
            else:
                with default_pool(width, route.mp_context) as (
                    workers, arena
                ):
                    results.extend(
                        execute_jobs_pooled(
                            workers, chain([jobs], chunks), width, arena
                        )
                    )
        return results

    yield run


def run_scenario_grid(
    families: Sequence[str],
    scenarios: Sequence[str],
    h_max_values: Sequence[float],
    n_cores: int,
    *,
    seed: int = 0,
    driver_step: float | None = None,
    backend: str | None = None,
    n_workers: int | None = None,
    mp_context: str | None = None,
    service=None,
    chunk_lanes: int | None = None,
    hosts=None,
) -> list[GridCell]:
    """Run the full grid, sharded, through one pool or one fleet.

    Parameters mirror :func:`repro.parallel.executor.run_sharded`, and
    the same resolver checks them, before any cache lookup, pool fork
    or connection.  ``driver_step=None`` resolves one hint per family
    from its full registry ensemble (which is then sharded directly
    rather than rebuilt).  ``backend`` selects the array backend for
    every cell (``None``: the ``REPRO_BACKEND`` environment default) —
    resolved **once here at grid entry** and stamped into every cell's
    :class:`~repro.parallel.spec.EnsembleSpec`, so a mid-campaign
    environment change cannot split one grid across backends (cells
    are prepared lazily, chunk by chunk, long after this call starts).
    Cells run :data:`CHUNK_CELLS` at a time, which bounds how many of
    them hold live sample matrices and output buffers at once.  On a
    pool or fleet of width W, each cell of a chunk of c cells is cut
    into ``ceil(W / c)`` lane shards, at most its lanes: whole cells
    per worker once a chunk holds W cells, lane cuts only to fill the
    pool or fleet.  On this host (``n_workers=1`` included) a chunk's
    cells of one recipe then run as stacks of up to ``ceil(S / (W +
    1))`` of its S shards, one wide batch per task, never fewer than
    ``min(W, S)`` tasks a chunk, so the fused loop's per-sample
    overhead is paid once per stack rather than once per cell; every
    cell stays bitwise its run alone.

    Duplicate ``(family, scenario, h_max)`` combinations are collapsed
    before planning: each unique cell is computed once and every
    duplicate position in the returned list carries the same result.

    A grid takes no execution plan: it runs on its route's default
    width (``n_workers``, a service's pool, or one shard per host), and
    a grid whose cells hold one shard in total (one cell of one lane)
    runs in this process, unless it runs through a service, whose pool
    runs every job it is handed.  Without ``service`` or ``hosts`` the grid
    runs on the process-wide default pool, which outlives the call
    (:func:`~repro.parallel.pool.default_pool`): its workers keep the
    recipes they built, and the chunks stream through it.
    :func:`~repro.parallel.executor.run_sharded` is the one entry point
    that takes ``plan=``.

    ``service`` routes the grid through a live
    :class:`~repro.service.api.HysteresisService`: unique cells are
    looked up in its content-addressed cache first, **only the misses**
    are computed, on the service's persistent pool at its full width,
    and fresh results are cached for the next campaign.  The service
    owns the pool, so ``n_workers`` / ``mp_context`` / ``hosts`` are
    mutually exclusive with it.  The backend is part of every cache key
    (numpy's bitwise tier and numba's rtol tier never cross-serve), and
    every cell already carries the grid's ``backend``.

    ``chunk_lanes`` streams every cell's shards in row blocks of at
    most ``chunk_lanes × samples`` lane-samples
    (:mod:`repro.parallel.blocks`) — bitwise-neutral, memory-bounded.
    ``hosts`` dispatches the whole campaign across ``"host:port"``
    :mod:`repro.dist` worker agents instead of a local pool: unique
    cells flow through one shared dispatcher, ``n_workers`` names the
    fleet's width (default: one per host) exactly as it names a local
    pool's, so each agent takes whole cells, and an unreachable fleet
    degrades to the local executor with a logged warning.  This is the
    fleet's front door for grids, as
    :func:`~repro.dist.dispatch.run_distributed` is for one run; the
    latter is where a fleet's authkey, deadlines and buffer ceiling are
    set.

    Returns one :class:`GridCell` per combination, in
    ``families × scenarios × h_max_values`` order.  A result a local
    pool computed is on loan over that pool's shared segments until it
    is dropped (:meth:`~repro.parallel.pool.WorkerPool.execute`): a
    child forked while it is held shares its pages rather than copying
    them.
    """
    backend_name = resolve_backend(backend).name
    route = resolve_route(
        n_workers=n_workers,
        mp_context=mp_context,
        pool=None if service is None else service.pool,
        hosts=hosts,
    )()
    planned = _plan_cells(
        families, scenarios, h_max_values, n_cores, seed, driver_step,
        backend_name,
    )
    unique, order = _dedupe_cells(planned)

    results: dict = {}
    todo = []
    for key, (spec, source, drive) in unique.items():
        digest = None if service is None else service.digest_for(spec, drive)
        hit = None if digest is None else service.cache.get(digest)
        if hit is None:
            todo.append((key, digest, source, drive))
        else:
            results[key] = hit
    if results:
        _log.info(
            "run_scenario_grid served %d of %d unique cell(s) from cache",
            len(results),
            len(unique),
        )
    if todo:

        def chunk_jobs():
            for offset in range(0, len(todo), CHUNK_CELLS):
                chunk = todo[offset : offset + CHUNK_CELLS]
                shards = route.shards_per_job(len(chunk))
                yield [
                    prepare_job(
                        source, drive, shards, chunk_lanes=chunk_lanes,
                        by_name=route.names_drives,
                    )
                    for _, _, source, drive in chunk
                ]

        with job_runner(route) as run:
            computed = run(chunk_jobs())
        for (key, digest, _, _), result in zip(todo, computed):
            # A cached grid hands the *frozen* cache entry onward, so
            # duplicates and later campaigns all see the same read-only
            # arrays.
            results[key] = (
                result if digest is None else service.cache.put(digest, result)
            )
    return [GridCell(*key, results[key]) for key in order]
