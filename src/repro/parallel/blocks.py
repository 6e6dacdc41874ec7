"""Row blocks and the one result assembly every shard route shares.

A :class:`~repro.parallel.spec.ShardSpec` normally materialises its
whole ``(samples, width)`` result before anything downstream sees it.
At million-lane scale that buffer is the memory ceiling, so this module
can split a shard's result along its *sample* axis into contiguous
**row blocks**: the shard's sub-ensemble and samples are built once,
then each block drives all of the shard's lanes over one sample range,
resuming the state the previous range left.  The timeless
discretisation advances a core on field increments alone, so the state
after sample ``i`` is all sample ``i + 1`` needs: the segmented run is
**bitwise identical** to the unchunked one, and its per-lane counter
deltas sum to the unchunked totals.  A row block pays the fused loop's
per-sample overhead once for every lane of the shard, where a lane
block paid it once per block.

On this host the same resumption lets shards of one recipe and lane
range — a grid chunk's cells, which differ only in their drives — run
side by side as one **stack** (:func:`drain_stack`): one batch of all
their lanes, each row block's drive with each member's samples in its
own columns, row blocks cut at every member's end row.  Each member
receives only its own lanes' blocks up to its end, so it is bitwise
its shard run alone, and the fused loop's per-sample overhead is paid
once per stack rather than once per member.

Blocks travel differently per route — handed over in process, written
into the pool's shared memory, or streamed over a :mod:`repro.dist`
socket — but every route runs them through :func:`iter_shard_blocks`
(or :func:`drain_stack`, whose stack of one is exactly that) and lands
them through :class:`ShardAssembly`, the one owner of the output
layout and of the check that a block fits it.
:class:`BlockBudget` gives any consumer a hard ceiling on resident
result-buffer bytes (with a high-water mark for the tests to pin).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.batch.sweep import BatchSweepResult, run_batch_series
from repro.errors import ParameterError
from repro.models.registry import get_family
from repro.parallel.spec import ShardSpec, tile_payload


@dataclass(frozen=True)
class RowBlock:
    """One streamed slice of a shard's result: samples ``[row_start,
    row_stop)`` of absolute lanes ``[start, stop)``, the shard's lanes.

    Arrays hold exactly those rows and lanes; ``counters`` are the tiny
    per-lane ``(width,)`` counter deltas the block's run recorded.
    Blocks are self-describing (absolute lane and row ranges plus
    payload), so writing one into a full-size output buffer is
    idempotent — a re-dispatched shard may rewrite its blocks after a
    worker death without corrupting anything.
    """

    start: int
    stop: int
    row_start: int
    row_stop: int
    m: np.ndarray
    b: np.ndarray
    updated: np.ndarray
    extras: dict[str, np.ndarray] = field(default_factory=dict)
    counters: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        """Result-buffer bytes this block holds: its per-sample arrays,
        the part ``chunk_lanes`` bounds.  Its counters, a ``(width,)``
        array a key that every block of a shard carries, never land in
        a result buffer and are not counted."""
        total = self.m.nbytes + self.b.nbytes + self.updated.nbytes
        return total + sum(arr.nbytes for arr in self.extras.values())


def plan_lane_blocks(
    start: int, stop: int, chunk_lanes: int | None
) -> list[tuple[int, int]]:
    """Contiguous absolute lane ranges covering ``[start, stop)``, each
    at most ``chunk_lanes`` wide (``None``: one block, the whole range).

    No shard runs as lane blocks any more (:func:`plan_row_blocks`
    cuts them); this plan is kept, unchanged, because perfbench's
    traced ``dist.blocks`` count still calls it.

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


def plan_row_blocks(
    width: int, samples: int, chunk_lanes: int | None
) -> list[tuple[int, int]]:
    """The fewest near-even row ranges tiling ``[0, samples)`` whose
    blocks hold at most ``chunk_lanes × samples`` lane-samples of a
    ``width``-lane shard — the bound a ``chunk_lanes``-wide lane block
    held — or one row, when a single row is wider than that.

    ``None``, or a ``chunk_lanes`` of at least ``width``, is one block.
    Otherwise ``k = ceil(samples / rows)`` blocks with ``rows =
    max(1, floor(chunk_lanes · samples / width))``, block ``j`` taking
    rows ``[j · samples // k, (j + 1) · samples // k)``.  A pure
    function of its arguments, in row order, with no empty block.
    """
    if width < 1 or samples < 1:
        raise ParameterError(
            f"a {width}-lane, {samples}-sample shard has no rows to block"
        )
    if chunk_lanes is not None and chunk_lanes < 1:
        raise ParameterError(f"chunk_lanes must be >= 1, got {chunk_lanes}")
    if chunk_lanes is None or chunk_lanes >= width:
        return [(0, samples)]
    rows = max(1, chunk_lanes * samples // width)
    k = -(-samples // rows)
    return [(j * samples // k, (j + 1) * samples // k) for j in range(k)]


def iter_shard_blocks(spec: ShardSpec):
    """Yield a shard's result as :class:`RowBlock`\\ s in row order.

    The shard's sub-ensemble and its shard-local samples are built
    **once**.  Each block drives every lane of the shard over its rows
    of :func:`plan_row_blocks` — the first from a reset, each later one
    from the state the previous block left — so at no point does a
    result buffer larger than ``spec.chunk_lanes × samples``
    lane-samples exist in this process (one row at the least).  An
    unchunked shard is one block: exactly the one-shot run.  Each
    block's run pins ``thread_limit(spec.threads)`` for exactly its own
    duration — the limit never spans a ``yield``, so consumer code
    between blocks runs under ambient threading.
    """
    from repro.backend import thread_limit

    samples = spec.build_samples()
    batch = spec.build_batch()
    for r0, r1 in plan_row_blocks(spec.width, len(samples), spec.chunk_lanes):
        with thread_limit(spec.threads):
            part = run_batch_series(batch, samples[r0:r1], reset=(r0 == 0))
        yield RowBlock(
            start=spec.start,
            stop=spec.stop,
            row_start=r0,
            row_stop=r1,
            m=part.m,
            b=part.b,
            updated=part.updated,
            extras=part.extras,
            counters=part.counters,
        )


def drain_shard(spec: ShardSpec, write, blocks=None) -> dict[str, np.ndarray]:
    """Hand one shard's row blocks to ``write`` as they arrive, and
    return the shard's counters for :meth:`ShardAssembly.commit_shard`.

    Each block's counters are per-lane deltas over the shard's one lane
    range, so the shard's are their sums; a key a block never
    registered (a family may register a counter lazily, mid-run) counts
    as zero there.  ``blocks`` defaults to running the shard in this
    process (:func:`iter_shard_blocks`) — the local drain behind every
    stack of one (:func:`drain_stack`) and the dispatcher's leftovers;
    the dispatcher passes the blocks arriving off the wire instead.
    """
    if blocks is None:
        blocks = iter_shard_blocks(spec)
    totals: dict[str, np.ndarray] = {}
    for block in blocks:
        write(block)
        _add_counters(totals, block.counters)
    return totals


def _add_counters(totals: dict, counters: dict) -> None:
    for key, value in counters.items():
        totals[key] = totals[key] + value if key in totals else value


def drain_stack(specs: "list[ShardSpec]", writes) -> "list[dict]":
    """Run a **stack** of shard specs as one wide batch, hand each
    member its own row blocks (``writes[k]`` takes member ``k``'s), and
    return each member's counters.

    The members share a recipe, lane range, ``threads`` and
    ``chunk_lanes`` (:func:`~repro.parallel.plan.plan_stacks`), so one
    payload, and differ in their drives.  That payload, repeated once
    per member (:func:`~repro.parallel.spec.tile_payload`), builds one
    batch of ``K × width`` lanes, and each row block's drive holds each
    member's samples in its own columns, its last sample held past its
    end, cut from the members' samples as the block runs.  The stack's
    row blocks are cut at every member's end row, and by
    :func:`plan_row_blocks` over the stack's width at
    ``min(chunk_lanes, width)`` lanes (``width`` when ``chunk_lanes``
    is ``None``), so a stacked block never holds more lane-samples
    than one member's block over the stack's rows.  Each member
    receives exactly its own lanes' blocks up to its end and sums only
    their counter deltas: no member sees or counts a held sample.
    Each member is then bitwise the shard run alone, by lane
    independence and segment resumption alone, and the fused loop's
    per-sample overhead is paid once per stack, not once per member.

    A stack of one is exactly :func:`drain_shard`.  So is each member
    of a stack whose payload does not tile, or whose run registers a
    counter mid-run (a lazily registered key may hang on the other
    members' lanes; the members are then run alone, rewriting their
    blocks with the same values).
    """
    from repro.backend import thread_limit

    batch = None if len(specs) == 1 else _stack_batch(specs)
    if batch is None:
        return [drain_shard(spec, write) for spec, write in zip(specs, writes)]
    first = specs[0]
    width = first.width
    drives = [spec.build_samples() for spec in specs]
    ends = [len(samples) for samples in drives]
    bound = width if first.chunk_lanes is None else min(
        first.chunk_lanes, width
    )
    planned = plan_row_blocks(len(specs) * width, max(ends), bound)
    lanes = [slice(k * width, (k + 1) * width) for k in range(len(specs))]
    keys = set(batch.counter_totals())
    totals: "list[dict]" = [{} for _ in specs]
    r0 = 0
    for r1 in sorted({stop for _, stop in planned}.union(ends)):
        with thread_limit(first.threads):
            part = run_batch_series(
                batch, _stack_rows(drives, lanes, r0, r1), reset=(r0 == 0)
            )
        if not keys.issuperset(part.counters):
            return [
                drain_shard(spec, write) for spec, write in zip(specs, writes)
            ]
        for spec, write, own, end, counters in zip(
            specs, writes, lanes, ends, totals
        ):
            if r0 < end:
                block = _member_block(part, spec, own, r0, r1)
                write(block)
                _add_counters(counters, block.counters)
        # Dropped before the next block runs, so two blocks' drives and
        # results never live at once (the longest member is live in
        # every block, so each block hands one out).
        del part, block
        r0 = r1
    return totals


def _stack_rows(drives, lanes, r0: int, r1: int) -> np.ndarray:
    """Rows ``[r0, r1)`` of a stack's drive: each member's samples in
    its own ``lanes``, its last sample held past its end."""
    drive = np.empty((r1 - r0, lanes[-1].stop))
    for own, samples in zip(lanes, drives):
        live = samples[r0:r1]
        drive[: len(live), own] = live if live.ndim == 2 else live[:, None]
        drive[len(live) :, own] = samples[-1]
    return drive


def _member_block(part, spec: ShardSpec, own: slice, r0: int, r1: int):
    """One member's :class:`RowBlock` of a stacked run's rows ``[r0,
    r1)``: its lanes ``own`` of ``part``, as views."""
    return RowBlock(
        start=spec.start,
        stop=spec.stop,
        row_start=r0,
        row_stop=r1,
        m=part.m[:, own],
        b=part.b[:, own],
        updated=part.updated[:, own],
        extras={key: v[:, own] for key, v in part.extras.items()},
        counters={key: v[own] for key, v in part.counters.items()},
    )


def _stack_batch(specs: "list[ShardSpec]"):
    """The members' sub-ensembles side by side as one batch: their one
    payload, repeated once per member; ``None`` when the family has no
    ``batch_from_payload`` hook, a payload value does not tile, or the
    hook refuses the repeated payload."""
    first = specs[0]
    rebuild = get_family(first.family).batch_from_payload
    payload = first.build_payload()
    if rebuild is None or payload is None:
        return None
    try:
        tiled = tile_payload(payload, first.width, len(specs))
        return None if tiled is None else rebuild(tiled)
    except (ParameterError, ValueError):
        return None


def _private(channel: str, shape, dtype) -> np.ndarray:
    return np.empty(shape, dtype=dtype)


class ShardAssembly:
    """The full-size output buffers one job's row blocks land in.

    The one place that knows a sharded run's output layout — ``m`` and
    ``b`` float64, ``updated`` bool, each extras channel at its schema
    dtype — and the one place that checks a block: its extras against
    the job's schema, its arrays and counters against the rows and
    lanes it claims.  Every route writes through it: the serial
    fallback via :func:`drain_stack`, pool workers the same way over
    shared-memory views of the parent's buffers, the dispatcher's
    leftovers via :func:`drain_shard`, and the dispatcher with blocks
    off the wire.

    Writes go by absolute row and lane range into disjoint slices —
    shards own disjoint columns, a shard's blocks disjoint rows — so
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

    def write_block(self, block: RowBlock) -> None:
        """Write one block's rows ``[row_start, row_stop)`` of lanes
        ``[start, stop)``, after checking it against the buffers: its
        extras' names and dtypes against the schema the buffers were
        laid out from, then every channel's shape and dtype and every
        counter's width against the ranges the block claims.  A block
        that does not fit is an error, never a column NumPy silently
        broadcasts or casts."""
        recorded = {key: values.dtype for key, values in block.extras.items()}
        expected = {key: values.dtype for key, values in self.extras.items()}
        if recorded != expected:
            raise ParameterError(
                f"family {self.job.family!r} lanes [{block.start}, "
                f"{block.stop}) recorded extras {_describe(recorded)}, "
                f"expected {_describe(expected)}; the schema (registry "
                "declaration or pre-run probe) is stale"
            )
        where = (
            f"family {self.job.family!r} lanes [{block.start}, "
            f"{block.stop}) rows [{block.row_start}, {block.row_stop})"
        )
        shape = (block.row_stop - block.row_start, block.stop - block.start)
        channels = [
            ("m", self.m, block.m),
            ("b", self.b, block.b),
            ("updated", self.updated, block.updated),
        ] + [
            (f"extras.{key}", self.extras[key], values)
            for key, values in block.extras.items()
        ]
        for channel, buffer, values in channels:
            _check_fit(
                where, f"channel {channel!r}", values, shape, buffer.dtype
            )
        for key, values in block.counters.items():
            _check_fit(where, f"counter {key!r}", values, shape[1:])
        cut = (
            slice(block.row_start, block.row_stop),
            slice(block.start, block.stop),
        )
        for _, buffer, values in channels:
            buffer[cut] = values

    def commit_shard(self, start: int, stop: int, counters) -> None:
        self._counters[(start, stop)] = counters

    def result(self) -> BatchSweepResult:
        """The assembled run, over this assembly's own buffers."""
        ordered = []
        for spec in self.job.specs:
            if (spec.start, spec.stop) not in self._counters:
                raise ParameterError(
                    f"shard [{spec.start}, {spec.stop}) never completed; "
                    "the assembled result would be incomplete"
                )
            ordered.append(self._counters[(spec.start, spec.stop)])
        return BatchSweepResult(
            h=self.job.h_full,
            m=self.m,
            b=self.b,
            updated=self.updated,
            extras=dict(self.extras),
            counters=merge_shard_counters(
                ordered, [spec.width for spec in self.job.specs]
            ),
            family=self.job.family,
        )


def _describe(schema: dict) -> list:
    return sorted((key, str(dtype)) for key, dtype in schema.items())


def _check_fit(where: str, what: str, values, shape, dtype=None) -> None:
    """Raise unless ``values`` is an array of exactly ``shape`` (and
    ``dtype``, when given)."""
    if (
        isinstance(values, np.ndarray)
        and values.shape == shape
        and (dtype is None or values.dtype == dtype)
    ):
        return
    got = (
        f"a {values.shape} {values.dtype} array"
        if isinstance(values, np.ndarray)
        else f"a {type(values).__name__}"
    )
    want = f"{shape}" if dtype is None else f"{shape} {dtype}"
    raise ParameterError(f"{where}: {what} is {got}, expected a {want} array")


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
