"""Shard planning: split a lane ensemble into contiguous ranges.

The planner is pure arithmetic, separated from the executor so its
invariants are trivially testable: shards are contiguous, ordered,
non-overlapping, cover ``[0, n_cores)`` exactly, and differ in width by
at most one lane.  Lane order is what makes sharded reassembly a plain
column write by lane range — and therefore bitwise trivial.
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
