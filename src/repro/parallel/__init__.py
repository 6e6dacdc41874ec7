"""Sharded multi-process execution for batch ensembles.

The scaling layer above :mod:`repro.batch`: split any conforming
:class:`~repro.models.protocol.BatchHysteresisModel` into contiguous
lane shards, drive the shards on a ``multiprocessing`` pool with
shared-memory output buffers, and reassemble a
:class:`~repro.batch.sweep.BatchSweepResult` **bitwise identical** to
the single-process run::

    from repro.parallel import EnsembleSpec, run_sharded

    spec = EnsembleSpec(family="timeless", n_cores=512, seed=0)
    result = run_sharded(
        spec, scenario="minor-loop-ladder", h_max=10e3, n_workers=4
    )

Prefer the in-process batch engine for small ensembles or short drives
(one vectorised NumPy loop has no fork/IPC overhead); shard when the
per-sample work is large enough to saturate a core — wide Preisach
relay tensors, long scenario campaigns, grid sweeps
(:func:`run_scenario_grid`, which hands each pool worker whole cells).
"""

from repro.parallel.blocks import (
    BlockBudget,
    RowBlock,
    iter_shard_blocks,
    plan_lane_blocks,
    plan_row_blocks,
)
from repro.parallel.executor import (
    MAX_WORKERS_ENV,
    available_cpus,
    resolve_workers,
    run_sharded,
)
from repro.parallel.grid import GridCell, run_scenario_grid
from repro.parallel.plan import plan_shards
from repro.parallel.spec import DriveSpec, EnsembleSpec, ShardSpec

__all__ = [
    "MAX_WORKERS_ENV",
    "BlockBudget",
    "DriveSpec",
    "EnsembleSpec",
    "GridCell",
    "RowBlock",
    "ShardSpec",
    "available_cpus",
    "iter_shard_blocks",
    "plan_lane_blocks",
    "plan_row_blocks",
    "plan_shards",
    "resolve_workers",
    "run_scenario_grid",
    "run_sharded",
]
