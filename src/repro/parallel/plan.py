"""Shard planning: split a lane ensemble into contiguous ranges.

The planner is pure arithmetic, separated from the executor so its
invariants are trivially testable: shards are contiguous, ordered,
non-overlapping, cover ``[0, n_cores)`` exactly, and differ in width by
at most one lane.  Lane order is what makes sharded reassembly a plain
column write by lane range — and therefore bitwise trivial.
:func:`plan_stacks` is the same kind of arithmetic one level up: which
of a chunk's shards one task runs side by side as a stack.
"""

from __future__ import annotations

from repro.errors import ParameterError


def plan_shards(n_cores: int, n_workers: int) -> list[tuple[int, int]]:
    """Contiguous lane ranges ``[(start, stop), ...]`` for a worker pool.

    ``min(n_workers, n_cores)`` shards are produced, so no shard is
    ever empty.  Widths are balanced: ``n_cores`` is split into
    near-equal parts, the remainder spread over the leading shards.
    """
    if n_cores < 1:
        raise ParameterError(f"n_cores must be >= 1, got {n_cores}")
    if n_workers < 1:
        raise ParameterError(f"n_workers must be >= 1, got {n_workers}")
    n_shards = min(n_workers, n_cores)
    base, extra = divmod(n_cores, n_shards)
    bounds: list[tuple[int, int]] = []
    start = 0
    for i in range(n_shards):
        width = base + (1 if i < extra else 0)
        bounds.append((start, start + width))
        start += width
    return bounds


def plan_stacks(keys, samples, width: int) -> list[list[int]]:
    """Cut a chunk's shards into **stacks**: the shard indices each task
    runs as one wide batch.

    ``keys[i]`` is shard ``i``'s stacking key — its recipe, lane range,
    lane threads and ``chunk_lanes`` — and ``samples[i]`` its sample
    count; ``width`` is the pool width W.  Shards stack only with
    shards of an equal key.  Each key's group, in chunk order, is
    sorted by sample count (ties keep their order) and cut into the
    fewest near-even consecutive stacks of at most ``ceil(S / (W +
    1))`` of the chunk's ``S`` shards — the measured best — and never
    more than ``S // W``, so a stack pads its shorter members to the
    longest as little as the cap allows, and the chunk offers at least
    ``min(W, S)`` tasks.  Stacks come in the order their keys first
    appear.  A shard with a key of its own — a lane-cut cell's shards
    all differ in lane range — is a stack of one.  A pure function of
    its arguments.
    """
    if len(keys) != len(samples):
        raise ParameterError(
            f"{len(keys)} stacking keys for {len(samples)} sample counts"
        )
    if width < 1:
        raise ParameterError(f"width must be >= 1, got {width}")
    cap = max(1, min(-(-len(keys) // (width + 1)), len(keys) // width))
    groups: dict = {}
    for index, key in enumerate(keys):
        groups.setdefault(key, []).append(index)
    stacks = []
    for members in groups.values():
        members.sort(key=lambda index: samples[index])
        cuts = plan_shards(len(members), -(-len(members) // cap))
        stacks.extend(members[start:stop] for start, stop in cuts)
    return stacks
