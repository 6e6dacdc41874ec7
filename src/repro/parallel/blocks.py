"""Lane blocks and the one result assembly every shard route shares.

A :class:`~repro.parallel.spec.ShardSpec` normally materialises its
whole ``(samples, width)`` result before anything downstream sees it.
At million-lane scale that buffer is the memory ceiling, so this module
splits a shard's *result* axis into contiguous **lane blocks**: the
shard's sub-ensemble is built once, then each block re-shards it
(``batch.shard(a, b)`` — a freshly reset sub-batch, bitwise per lane,
the PR 3 guarantee) and runs only that column range.  Writing the
blocks back by absolute lane range is the same column reassembly the
sharded executor relies on, so chunked execution is **bitwise
identical** to the unchunked shard run.

Blocks travel differently per route — handed over in process, written
into the pool's shared memory, or streamed over a :mod:`repro.dist`
socket — but every route runs them through :func:`iter_shard_blocks`
and lands them through :class:`ShardAssembly`, the one owner of the
output layout and of the extras-schema check.  :class:`BlockBudget`
gives any consumer a hard ceiling on resident result-buffer bytes (with
a high-water mark for the tests to pin).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.batch.sweep import BatchSweepResult, run_batch_series
from repro.errors import ParameterError
from repro.parallel.spec import ShardSpec


@dataclass(frozen=True)
class LaneBlock:
    """One streamed slice of a shard's result: absolute lanes
    ``[start, stop)`` of the full ensemble.

    Arrays are per-sample columns for exactly this lane range;
    ``counters`` are the tiny per-lane ``(width,)`` counter arrays the
    block's run recorded.  Blocks are self-describing (absolute lane
    range plus payload), so writing one into a full-width output buffer
    is idempotent — a re-dispatched shard may rewrite its blocks after
    a worker death without corrupting anything.
    """

    start: int
    stop: int
    m: np.ndarray
    b: np.ndarray
    updated: np.ndarray
    extras: dict[str, np.ndarray] = field(default_factory=dict)
    counters: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def width(self) -> int:
        return self.stop - self.start

    @property
    def nbytes(self) -> int:
        """Resident result-buffer bytes this block holds."""
        total = self.m.nbytes + self.b.nbytes + self.updated.nbytes
        total += sum(arr.nbytes for arr in self.extras.values())
        total += sum(np.asarray(arr).nbytes for arr in self.counters.values())
        return total


def plan_lane_blocks(
    start: int, stop: int, chunk_lanes: int | None
) -> list[tuple[int, int]]:
    """Contiguous absolute lane ranges covering ``[start, stop)``, each
    at most ``chunk_lanes`` wide (``None``: one block, the whole range).

    Blocks tile the range in lane order with the remainder on the final
    block, so the plan is a pure function of ``(start, stop,
    chunk_lanes)`` — both sides of a socket derive the identical block
    sequence without negotiating it.
    """
    if stop <= start:
        raise ParameterError(
            f"lane range [{start}, {stop}) is empty; nothing to block"
        )
    if chunk_lanes is None:
        return [(start, stop)]
    if chunk_lanes < 1:
        raise ParameterError(
            f"chunk_lanes must be >= 1, got {chunk_lanes}"
        )
    return [
        (a, min(a + chunk_lanes, stop))
        for a in range(start, stop, chunk_lanes)
    ]


def iter_shard_blocks(spec: ShardSpec):
    """Yield a shard's result as :class:`LaneBlock`\\ s in lane order.

    The shard's sub-ensemble and its shard-local samples are built
    **once**; every block is a fresh ``batch.shard`` slice of that
    sub-ensemble (reset, bitwise per lane) driven over its own sample
    columns, so at no point does a result buffer wider than
    ``spec.chunk_lanes`` lanes exist in this process.  Each block's run
    pins ``thread_limit(spec.threads)`` for exactly its own duration —
    the limit never spans a ``yield``, so consumer code between blocks
    runs under ambient threading.

    ``batch.shard`` is not part of the batch protocol, so a family
    without it cannot be cut into several blocks: that raises
    :class:`~repro.errors.ParameterError` before any block runs.
    """
    from repro.backend import thread_limit

    samples = spec.build_samples()
    batch = spec.build_batch()
    bounds = plan_lane_blocks(spec.start, spec.stop, spec.chunk_lanes)
    if len(bounds) == 1:
        # Unchunked (or one-block) shards skip the re-shard: the built
        # batch *is* the block, exactly the pre-chunking code path.
        with thread_limit(spec.threads):
            part = run_batch_series(batch, samples)
        yield LaneBlock(
            start=spec.start,
            stop=spec.stop,
            m=part.m,
            b=part.b,
            updated=part.updated,
            extras=part.extras,
            counters=part.counters,
        )
        return
    if not callable(getattr(batch, "shard", None)):
        raise ParameterError(
            f"family {spec.family!r} cannot run with chunk_lanes="
            f"{spec.chunk_lanes}: its batch has no shard(start, stop) "
            "method to cut lane blocks with"
        )
    for a, b in bounds:
        ra, rb = a - spec.start, b - spec.start
        sub = batch.shard(ra, rb)
        cols = samples if samples.ndim == 1 else samples[:, ra:rb]
        with thread_limit(spec.threads):
            part = run_batch_series(sub, cols)
        yield LaneBlock(
            start=a,
            stop=b,
            m=part.m,
            b=part.b,
            updated=part.updated,
            extras=part.extras,
            counters=part.counters,
        )


def drain_shard(spec: ShardSpec, write, blocks=None) -> dict[str, np.ndarray]:
    """Hand one shard's lane blocks to ``write`` as they arrive, and
    return the shard's merged counters for
    :meth:`ShardAssembly.commit_shard`.

    ``blocks`` defaults to running the shard in this process
    (:func:`iter_shard_blocks`) — the local drain behind the serial
    fallback, pool workers and the dispatcher's leftovers; the
    dispatcher passes the blocks arriving off the wire instead.
    """
    if blocks is None:
        blocks = iter_shard_blocks(spec)
    counters, widths = [], []
    for block in blocks:
        write(block)
        counters.append(block.counters)
        widths.append(block.width)
    return merge_shard_counters(counters, widths)


def _private(channel: str, shape, dtype) -> np.ndarray:
    return np.empty(shape, dtype=dtype)


class ShardAssembly:
    """The full-width output buffers one job's lane blocks land in.

    The one place that knows a sharded run's output layout — ``m`` and
    ``b`` float64, ``updated`` bool, each extras channel at its schema
    dtype — and the one place that checks a block against the job's
    extras schema.  Every route writes through it: the serial fallback
    and the dispatcher's leftovers via :func:`drain_shard`, pool
    workers over shared-memory views of the parent's buffers, and the
    dispatcher with blocks off the wire.

    Writes go by absolute lane range into disjoint column slices, so
    concurrent writers never overlap and a retried shard's rewrite is a
    no-op by value.  Counters commit per shard, once its stream has
    completed, so a half-streamed attempt leaves no residue.

    ``job`` supplies ``family``, ``extras_schema`` and ``shape``
    (``(samples, lanes)``); :meth:`result` also reads its ``h_full``
    and ``specs``.  ``allocate(channel, shape, dtype)`` makes each
    buffer (default: private ``np.empty``).
    """

    def __init__(self, job, allocate=_private) -> None:
        self.job = job
        self.m = allocate("m", job.shape, np.float64)
        self.b = allocate("b", job.shape, np.float64)
        self.updated = allocate("updated", job.shape, np.bool_)
        self.extras = {
            key: allocate(f"extras.{key}", job.shape, np.dtype(dtype))
            for key, dtype in job.extras_schema.items()
        }
        self._counters: dict = {}

    def write_block(self, block: LaneBlock) -> None:
        """Write one block's columns, after checking its extras — names
        and dtypes — against the schema the buffers were laid out from.
        Drift is an error, never a silently coerced column."""
        recorded = {key: values.dtype for key, values in block.extras.items()}
        expected = {key: values.dtype for key, values in self.extras.items()}
        if recorded != expected:
            raise ParameterError(
                f"family {self.job.family!r} lanes [{block.start}, "
                f"{block.stop}) recorded extras {_describe(recorded)}, "
                f"expected {_describe(expected)}; the schema (registry "
                "declaration or pre-run probe) is stale"
            )
        lanes = slice(block.start, block.stop)
        self.m[:, lanes] = block.m
        self.b[:, lanes] = block.b
        self.updated[:, lanes] = block.updated
        for key, values in block.extras.items():
            self.extras[key][:, lanes] = values

    def commit_shard(self, start: int, stop: int, counters) -> None:
        self._counters[(start, stop)] = counters

    def result(self, copy: bool = False) -> BatchSweepResult:
        """The assembled run; ``copy`` detaches it from buffers that do
        not outlive this call (the pool's shared memory)."""
        ordered = []
        for spec in self.job.specs:
            if (spec.start, spec.stop) not in self._counters:
                raise ParameterError(
                    f"shard [{spec.start}, {spec.stop}) never completed; "
                    "the assembled result would be incomplete"
                )
            ordered.append(self._counters[(spec.start, spec.stop)])
        take = np.array if copy else np.asarray
        return BatchSweepResult(
            h=self.job.h_full,
            m=take(self.m),
            b=take(self.b),
            updated=take(self.updated),
            extras={key: take(values) for key, values in self.extras.items()},
            counters=merge_shard_counters(
                ordered, [spec.width for spec in self.job.specs]
            ),
            family=self.job.family,
        )


def _describe(schema: dict) -> list:
    return sorted((key, str(dtype)) for key, dtype in schema.items())


def merge_shard_counters(
    shard_counters: "list[dict[str, np.ndarray]]",
    widths: "list[int]",
) -> dict[str, np.ndarray]:
    """Concatenate per-shard counter dicts over the union of keys.

    A key a shard never registered (lazily appearing counters may fire
    on some lanes only) fills with zeros of that shard's width — the
    same value the full-width model would report for lanes that never
    triggered it.
    """
    keys: dict[str, np.dtype] = {}
    for counters in shard_counters:
        for key, value in counters.items():
            keys.setdefault(key, np.asarray(value).dtype)
    return {
        key: np.concatenate(
            [
                np.asarray(counters.get(key, np.zeros(width, dtype=dtype)))
                for counters, width in zip(shard_counters, widths)
            ]
        )
        for key, dtype in sorted(keys.items())
    }


class BlockBudget:
    """A hard ceiling on in-flight result-buffer bytes, with a
    high-water mark.

    Consumers ``acquire(nbytes)`` before holding a block and
    ``release(nbytes)`` once its payload has landed in the output
    buffers; acquire blocks (back-pressure, not failure) until enough
    in-flight bytes drain.  A single block larger than the ceiling is a
    configuration error — admitting it would make the ceiling a lie —
    so it raises instead of deadlocking.  ``peak`` records the largest
    in-flight total ever admitted, the number the bounded-memory tests
    pin below the configured ceiling.
    """

    def __init__(self, ceiling_bytes: int | None = None) -> None:
        if ceiling_bytes is not None and ceiling_bytes < 1:
            raise ParameterError(
                f"ceiling_bytes must be >= 1, got {ceiling_bytes}"
            )
        self.ceiling_bytes = ceiling_bytes
        self._in_flight = 0
        self._peak = 0
        self._cond = threading.Condition()

    @property
    def in_flight(self) -> int:
        with self._cond:
            return self._in_flight

    @property
    def peak(self) -> int:
        with self._cond:
            return self._peak

    def acquire(self, nbytes: int) -> None:
        if self.ceiling_bytes is not None and nbytes > self.ceiling_bytes:
            raise ParameterError(
                f"one {nbytes}-byte block exceeds the "
                f"{self.ceiling_bytes}-byte result-buffer ceiling; "
                "lower chunk_lanes or raise the ceiling"
            )
        with self._cond:
            if self.ceiling_bytes is not None:
                self._cond.wait_for(
                    lambda: self._in_flight + nbytes <= self.ceiling_bytes
                )
            self._in_flight += nbytes
            self._peak = max(self._peak, self._in_flight)

    def release(self, nbytes: int) -> None:
        with self._cond:
            self._in_flight = max(0, self._in_flight - nbytes)
            self._cond.notify_all()
