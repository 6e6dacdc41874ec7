"""Multi-host shard dispatch: campaigns over a fleet of worker agents.

:func:`run_distributed` is the socket-transport sibling of
:func:`repro.parallel.executor.run_sharded`, on the same route
resolver (:func:`~repro.parallel.executor.resolve_route`) and job
runner (:func:`~repro.parallel.grid.job_runner`): the same
full-ensemble driver-step resolution first (the bitwise rule), the
same ``prepare_job`` planning and :class:`~repro.parallel.spec.ShardSpec`
payloads, but each shard travels to a :class:`~repro.dist.worker.
WorkerAgent` over TCP and its result streams back as bounded row
blocks (:mod:`repro.parallel.blocks`).  ``run_sharded(hosts=...)`` and
``run_scenario_grid(hosts=...)`` reach the same :class:`Dispatcher`;
``hosts=`` is the one way to dispatch, and only
:func:`run_distributed` sets its authkey, deadlines and buffer
ceiling.  Every block lands in the job's
:class:`~repro.parallel.blocks.ShardAssembly` — the same assembly the
local routes write through — by absolute row and lane range:
idempotent, so a re-dispatched shard simply rewrites its (bitwise
identical) rows,
and the finished :class:`~repro.batch.sweep.BatchSweepResult` is
bitwise identical to the single-process run.

Robustness model:

* **per-job deadline** — every receive on a worker connection counts
  against the dispatching job's deadline; an expired deadline retires
  the connection and requeues the job;
* **dead-worker requeue** — a connection error (killed agent, dropped
  link) requeues the in-flight job for any surviving worker, up to
  ``retries`` re-dispatches per job; block writes being idempotent is
  what makes the partial first attempt harmless;
* **request dedup** — submitted jobs are keyed by a content digest of
  their shard spec (the same canonicalisation as the PR 7 result
  cache); identical in-flight requests coalesce onto one wire job with
  many sinks, mirroring the service layer's future table;
* **graceful degradation** — zero reachable workers (or a fleet that
  dies mid-campaign) degrades to the local executor with a logged
  warning, never an error: :meth:`Dispatcher.run_jobs` drains every
  shard no live worker took through the local block runner.

Any other failure of a job — worker-side (a failed rebuild, a schema
drift) or dispatcher-side (a stream that breaks the protocol, a block
the assembly or the byte budget rejects) — is deterministic: the job
fails rather than retries, and ``run_jobs`` raises
:class:`~repro.errors.DistError` naming the shard.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from functools import partial

from repro.batch.sweep import BatchSweepResult
from repro.dist.protocol import (
    CONNECT_ERRORS,
    CONNECT_TIMEOUT_S,
    DEFAULT_AUTHKEY,
    MSG_BLOCK,
    MSG_DONE,
    MSG_ERROR,
    MSG_RUN,
    MSG_SHUTDOWN,
    PROTOCOL_VERSION,
    connect,
    parse_address,
    recv_message,
    send_message,
)
from repro.errors import DistError, DistTimeoutError, ParameterError
from repro.parallel.blocks import BlockBudget, ShardAssembly, drain_shard
from repro.parallel.executor import _resolve_drive, resolve_route, run_single
from repro.parallel.spec import ShardSpec

_log = logging.getLogger(__name__)

#: Per-job wall-clock budget before a worker is presumed wedged.
DEFAULT_DEADLINE_S = 600.0

#: Re-dispatches per job after its first attempt.
DEFAULT_RETRIES = 2


def shard_digest(spec: ShardSpec) -> "str | None":
    """Content digest of one shard request, for wire-level dedup.

    Semantic fields only — the drive, the lane range, and the rebuild
    route — never execution shape (``threads``, ``chunk_lanes``): two
    requests that compute bitwise-identical columns coalesce regardless
    of how either would have chunked.  ``None`` (no dedup, dispatch
    as unique) when a payload route carries values the canonicaliser
    cannot digest.
    """
    # Lazy sideways import: repro.service and repro.dist share a layer
    # rank; only the digest helpers are borrowed, at call time.
    from repro.service.digest import digest_payload

    if spec.ensemble is not None:
        route = {
            "kind": "ensemble",
            "family": spec.ensemble.family,
            "n_cores": spec.ensemble.n_cores,
            "seed": spec.ensemble.seed,
            "backend": spec.ensemble.backend,
        }
    else:
        route = {"kind": "payload", "payload": spec.payload}
    payload = {
        "schema": PROTOCOL_VERSION,
        "family": spec.family,
        "n_cores_total": spec.n_cores_total,
        "start": spec.start,
        "stop": spec.stop,
        "drive": {
            "scenario": spec.drive.scenario,
            "h_max": spec.drive.h_max,
            "driver_step": spec.drive.driver_step,
            "samples": spec.drive.samples,
        },
        "route": route,
    }
    try:
        return digest_payload(payload)
    except ParameterError:
        return None


class _WorkerFailure(DistError):
    """A worker-side exception forwarded over the wire (deterministic —
    re-dispatching would fail identically, so it is never retried)."""


class _WireJob:
    """One deduped wire request: a spec, its job's sample count
    (``rows``), and every sink awaiting it."""

    __slots__ = ("spec", "digest", "rows", "sinks", "attempts")

    def __init__(
        self, spec: ShardSpec, digest: "str | None", rows: int
    ) -> None:
        self.spec = spec
        self.digest = digest
        self.rows = rows
        self.sinks: list[ShardAssembly] = []
        self.attempts = 0


class _CampaignState:
    """Shared job queue + completion accounting for one ``run_jobs``.

    Worker threads pull with :meth:`next_job`, which blocks while other
    threads still hold outstanding jobs (a dead worker's requeue must
    be able to wake an idle survivor) and returns ``None`` once every
    job has completed, failed, or exhausted its retries.
    """

    def __init__(self, jobs, retries: int) -> None:
        self._cond = threading.Condition()
        self._pending = deque(jobs)
        self._outstanding = len(jobs)
        self._retries = retries
        self.failures: list[tuple[_WireJob, str, str]] = []
        self.exhausted: list[_WireJob] = []

    def next_job(self) -> "_WireJob | None":
        with self._cond:
            while True:
                if self._pending:
                    return self._pending.popleft()
                if self._outstanding <= 0:
                    return None
                self._cond.wait()

    def complete(self, job: _WireJob) -> None:
        with self._cond:
            self._outstanding -= 1
            self._cond.notify_all()

    def requeue(self, job: _WireJob) -> None:
        job.attempts += 1
        with self._cond:
            if job.attempts > self._retries:
                # Out of re-dispatch budget: hand the job to the local
                # drain instead of erroring the whole campaign.
                self.exhausted.append(job)
                self._outstanding -= 1
            else:
                self._pending.append(job)
            self._cond.notify_all()

    def fail(self, job: _WireJob, side: str, message: str) -> None:
        with self._cond:
            self.failures.append((job, side, message))
            self._outstanding -= 1
            self._cond.notify_all()

    def abandoned(self) -> "list[_WireJob]":
        """Jobs still queued after every worker thread has exited."""
        with self._cond:
            jobs = list(self._pending)
            self._pending.clear()
            self._outstanding -= len(jobs)
            self._cond.notify_all()
            return jobs


class Dispatcher:
    """A connected fleet of worker agents, reusable across campaigns.

    Every address is parsed before the first connection opens, so a
    malformed ``"host:port"`` entry raises
    :class:`~repro.errors.DistError` with nothing connected.
    Connections are then made (and ping-verified, protocol version
    included) at construction, each within ``connect_timeout_s`` for
    the TCP connect, handshake and ping together; unreachable or silent
    hosts are logged and skipped, and :attr:`n_live` reports the
    surviving fleet size.  A host answering another protocol version
    raises :class:`~repro.errors.DistError`, after every connection
    already opened is closed, so no live agent stays held by a
    half-built fleet.  ``run_jobs`` executes a batch of prepared cell
    jobs across the fleet — the digest-keyed dedup table spans the
    whole batch, so identical shard requests from different jobs
    coalesce onto one wire dispatch.
    """

    def __init__(
        self,
        hosts,
        *,
        authkey: bytes = DEFAULT_AUTHKEY,
        deadline_s: "float | None" = DEFAULT_DEADLINE_S,
        retries: int = DEFAULT_RETRIES,
        max_buffer_bytes: "int | None" = None,
        connect_timeout_s: float = CONNECT_TIMEOUT_S,
    ) -> None:
        if retries < 0:
            raise ParameterError(f"retries must be >= 0, got {retries}")
        self.deadline_s = deadline_s
        self.retries = retries
        self.budget = BlockBudget(max_buffer_bytes)
        self._workers: dict = {}
        parsed = [(address, parse_address(address)) for address in hosts]
        try:
            for address, endpoint in parsed:
                try:
                    self._workers[address] = connect(
                        endpoint, authkey, connect_timeout_s
                    )
                except CONNECT_ERRORS as exc:
                    _log.warning(
                        "repro.dist worker %s unreachable: %s", address, exc
                    )
        except BaseException:
            self.close()
            raise
        if not self._workers:
            _log.warning(
                "no repro.dist worker reachable at %s; degrading to the "
                "local executor", ", ".join(hosts),
            )

    @property
    def n_live(self) -> int:
        return len(self._workers)

    def close(self) -> None:
        for conn in self._workers.values():
            try:
                conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        self._workers = {}

    def shutdown_workers(self) -> int:
        """Gracefully stop every connected agent, then close.

        Sends ``MSG_SHUTDOWN`` on each live connection — the agent's
        serve loop closes its listener and exits — and returns how many
        agents took the message.  An agent that died before the send is
        logged and skipped: shutdown is best-effort by design, the
        fleet owner reclaims stragglers out of band.
        """
        stopped = 0
        for address, conn in list(self._workers.items()):
            try:
                send_message(conn, (MSG_SHUTDOWN,))
                stopped += 1
            except (OSError, EOFError) as exc:
                _log.warning(
                    "worker %s did not take the shutdown: %s", address, exc
                )
            self._drop(address, conn)
        return stopped

    def __enter__(self) -> "Dispatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- connection management --------------------------------------------

    def _drop(self, address: str, conn) -> None:
        if self._workers.get(address) is conn:
            del self._workers[address]
        try:
            conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass

    # -- campaign execution ------------------------------------------------

    def run_jobs(self, jobs) -> "list[BatchSweepResult]":
        """Execute prepared cell jobs across the fleet, reassembled.

        Every job's shards enter one digest-deduped queue; one serving
        thread per live connection drains it.  Shards left over when
        the whole fleet has died (or a job ran out of re-dispatches)
        drain through the local block runner with a logged warning —
        the campaign completes, bitwise identical, just slower.  A
        failed job raises :class:`~repro.errors.DistError` naming its
        shard and the original error.
        """
        assemblies = [ShardAssembly(job) for job in jobs]
        table: dict = {}
        wire_jobs: list[_WireJob] = []
        coalesced = 0
        for job, assembly in zip(jobs, assemblies):
            for spec in job.specs:
                digest = shard_digest(spec)
                wire = table.get(digest) if digest is not None else None
                if wire is None:
                    wire = _WireJob(spec, digest, job.shape[0])
                    wire_jobs.append(wire)
                    if digest is not None:
                        table[digest] = wire
                else:
                    coalesced += 1
                wire.sinks.append(assembly)
        if coalesced:
            _log.info(
                "dispatch coalesced %d duplicate shard request(s): %d "
                "unique on the wire", coalesced, len(wire_jobs),
            )
        state = _CampaignState(wire_jobs, self.retries)
        threads = [
            threading.Thread(
                target=self._serve,
                args=(address, conn, state),
                name=f"repro-dispatch-{address}",
                daemon=True,
            )
            for address, conn in list(self._workers.items())
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        leftovers = state.abandoned() + state.exhausted
        if state.failures:
            job, side, message = state.failures[0]
            raise DistError(
                f"shard [{job.spec.start}, {job.spec.stop}) failed "
                f"{side} ({len(state.failures)} failure(s) total):\n"
                f"{message}"
            )
        if leftovers:
            _log.warning(
                "no surviving repro.dist worker for %d shard(s); "
                "draining them through the local executor",
                len(leftovers),
            )
            for wire in leftovers:
                self._run_local(wire)
        return [assembly.result() for assembly in assemblies]

    def _serve(self, address: str, conn, state: _CampaignState) -> None:
        """One connection's serving loop: pull, dispatch, stream.

        Every exception settles the job it hit — requeued after a lost
        connection, failed otherwise — so ``run_jobs`` never waits on a
        job a dead thread still holds.
        """
        while True:
            wire = state.next_job()
            if wire is None:
                return
            try:
                self._dispatch_one(conn, wire)
            except _WorkerFailure as exc:
                state.fail(wire, "worker-side", str(exc))
            except (EOFError, OSError, DistTimeoutError) as exc:
                _log.warning(
                    "worker %s lost mid-job (%s: %s); requeueing shard "
                    "[%d, %d)",
                    address, type(exc).__name__, exc,
                    wire.spec.start, wire.spec.stop,
                )
                state.requeue(wire)
                self._drop(address, conn)
                return
            except Exception as exc:
                # A broken stream, a rejected block, an oversize block:
                # deterministic, so the job fails.  The connection may
                # still carry the rest of the stream, so it retires.
                _log.warning(
                    "shard [%d, %d) failed on worker %s (%s: %s)",
                    wire.spec.start, wire.spec.stop,
                    address, type(exc).__name__, exc,
                    exc_info=True,
                )
                state.fail(
                    wire, "dispatcher-side", f"{type(exc).__name__}: {exc}"
                )
                self._drop(address, conn)
                return
            else:
                state.complete(wire)

    def _dispatch_one(self, conn, wire: _WireJob) -> None:
        """Send one request; land its blocks under the job deadline."""
        limit = (
            None
            if self.deadline_s is None
            else time.monotonic() + self.deadline_s
        )
        send_message(conn, (MSG_RUN, wire.digest, wire.spec))
        blocks = self._receive(conn, wire, limit)
        land = partial(self._land, wire)
        self._commit(wire, drain_shard(wire.spec, land, blocks))

    @staticmethod
    def _receive(conn, wire: _WireJob, limit: "float | None"):
        """Yield one shard's row blocks off ``conn`` until its ``done``.

        Blocks enter from the wire here, so this is where they are
        checked.  Every ``block`` and ``done`` must echo the digest the
        shard was sent under (``None`` comes back as ``None``): row and
        lane ranges alone cannot tell two cells cut the same way apart.
        Each block must carry exactly the shard's lanes, start at the
        row where the previous one stopped (the first at row 0) and end
        within the job's ``wire.rows`` samples, the order every agent
        streams them in (:func:`~repro.parallel.blocks.plan_row_blocks`);
        ``done`` must arrive at the last row.  Anything else — a
        foreign, narrower, shifted, repeated, overlapping or skipping
        block, an early ``done`` — raises
        :class:`~repro.errors.DistError` naming the shard and what was
        wrong.
        """
        spec, name = wire.spec, f"shard [{wire.spec.start}, {wire.spec.stop})"
        covered = 0
        while True:
            remaining = None if limit is None else limit - time.monotonic()
            message = recv_message(conn, remaining)
            kind = message[0]
            if kind in (MSG_BLOCK, MSG_DONE) and message[1] != wire.digest:
                raise DistError(
                    f"{name} was sent as {wire.digest!r} but received a "
                    f"{kind!r} message labelled {message[1]!r}"
                )
            if kind == MSG_BLOCK:
                block = message[2]
                if (block.start, block.stop) != (spec.start, spec.stop):
                    raise DistError(
                        f"{name} received lanes [{block.start}, "
                        f"{block.stop}); every block must carry the "
                        "shard's lanes"
                    )
                r0, r1 = block.row_start, block.row_stop
                if not r0 == covered < r1 <= wire.rows:
                    raise DistError(
                        f"{name} received rows [{r0}, {r1}); the next "
                        f"block must start at row {covered} and end "
                        f"within {wire.rows}"
                    )
                covered = r1
                yield block
            elif kind == MSG_DONE:
                if covered != wire.rows:
                    lanes = spec.width if covered else 0
                    raise DistError(
                        f"{name} streamed {lanes} lanes but declared done "
                        f"at row {covered} of {wire.rows}"
                    )
                return
            elif kind == MSG_ERROR:
                raise _WorkerFailure(message[2])
            else:
                raise DistError(
                    f"unexpected {kind!r} message mid-stream for {name}"
                )

    def _land(self, wire: _WireJob, block) -> None:
        """Write one block into every assembly awaiting it, holding its
        bytes against the budget meanwhile."""
        nbytes = block.nbytes
        self.budget.acquire(nbytes)
        try:
            for sink in wire.sinks:
                sink.write_block(block)
        finally:
            self.budget.release(nbytes)

    @staticmethod
    def _commit(wire: _WireJob, counters) -> None:
        for sink in wire.sinks:
            sink.commit_shard(wire.spec.start, wire.spec.stop, counters)

    def _run_local(self, wire: _WireJob) -> None:
        """Local drain: same block generator, same assembly, no socket."""
        self._commit(wire, drain_shard(wire.spec, partial(self._land, wire)))


def run_distributed(
    source,
    h_samples=None,
    *,
    scenario: "str | None" = None,
    h_max: "float | None" = None,
    driver_step: "float | None" = None,
    hosts,
    n_workers: "int | None" = None,
    chunk_lanes: "int | None" = None,
    deadline_s: "float | None" = DEFAULT_DEADLINE_S,
    retries: int = DEFAULT_RETRIES,
    max_buffer_bytes: "int | None" = None,
    authkey: bytes = DEFAULT_AUTHKEY,
    connect_timeout_s: float = CONNECT_TIMEOUT_S,
) -> BatchSweepResult:
    """Run one ensemble drive sharded across remote worker agents.

    The multi-host sibling of
    :func:`repro.parallel.executor.run_sharded`, on the same route
    resolver and job runner: ``source`` and the drive arguments mean
    exactly the same thing (including the full-ensemble driver-step
    resolution — the step is resolved *before* sharding, so remote
    shards can never re-derive a different ladder), and the returned
    result is bitwise identical to the single-process
    :func:`repro.batch.sweep.run_batch_series`.

    ``hosts`` lists ``"host:port"`` worker-agent addresses.
    ``n_workers`` names the fleet's width, and so the shard count of
    this one run (default: one per host) — uneven splits are fine,
    surviving workers drain the queue.  ``chunk_lanes`` streams each
    shard in row blocks of at most ``chunk_lanes × samples``
    lane-samples.

    This is where the fleet's :class:`Dispatcher` options are set:
    ``authkey`` (the only way to reach agents started with
    ``--authkey``), ``deadline_s`` / ``retries`` (each job's wall clock
    and re-dispatch budget), ``max_buffer_bytes`` (a hard back-pressure
    ceiling on the dispatcher's in-flight block bytes) and
    ``connect_timeout_s``.  ``run_sharded(hosts=...)`` and
    ``run_scenario_grid(hosts=...)`` dispatch with the defaults of these
    options.  No plan reaches the fleet: ``hosts=`` takes no ``plan=``.

    Zero reachable workers degrades to the local executor with a
    logged warning — never an error.
    """
    settle = resolve_route(n_workers=n_workers, hosts=hosts)
    drive, source = _resolve_drive(
        source, h_samples, scenario, h_max, driver_step
    )
    return run_single(
        settle, source, drive, chunk_lanes,
        authkey=authkey,
        deadline_s=deadline_s,
        retries=retries,
        max_buffer_bytes=max_buffer_bytes,
        connect_timeout_s=connect_timeout_s,
    )
