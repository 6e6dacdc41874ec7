"""Multi-host dispatch: shard campaigns over socket-connected workers.

The scale-out layer past one pool (ROADMAP's last open scaling axis):
worker agents (``python -m repro.dist.worker --bind HOST:PORT``)
rebuild sub-ensembles from the same picklable
:class:`~repro.parallel.spec.ShardSpec` payloads the local executor
forks with — never shipped live models — and stream results back in
bounded row blocks, so a million-lane campaign never materialises on
either side of the wire::

    from repro.dist import run_distributed
    from repro.parallel import EnsembleSpec

    spec = EnsembleSpec(family="timeless", n_cores=4096, seed=0)
    result = run_distributed(
        spec, scenario="major-loop", h_max=10e3,
        hosts=["10.0.0.5:7501", "10.0.0.6:7501"], chunk_lanes=256,
    )

``result`` is **bitwise identical** to the single-process
:func:`repro.batch.sweep.run_batch_series` run.  Robustness is built
in: per-job deadlines, dead-worker requeue onto survivors, and
graceful local fallback when no worker is reachable (the
:class:`Dispatcher` drains every shard locally).

The fleet has two front doors, both on the same route resolver and
job runner (:func:`repro.parallel.executor.resolve_route`,
:func:`repro.parallel.grid.job_runner`): :func:`run_distributed` for
one run and ``run_scenario_grid(..., hosts=[...])`` for grids, with
``n_workers=`` as the fleet's width and each agent listed once.
:func:`run_distributed` is where the fleet's ``authkey``, deadlines,
retries and buffer ceiling are set.
:func:`probe_link_overhead` measures one agent's round trip for
EXP-B8 and the benchmark's fleet trace.
"""

from repro.dist.dispatch import (
    DEFAULT_DEADLINE_S,
    DEFAULT_RETRIES,
    Dispatcher,
    run_distributed,
)
from repro.dist.probe import probe_link_overhead
from repro.dist.protocol import DEFAULT_AUTHKEY, PROTOCOL_VERSION
from repro.dist.worker import WorkerAgent

__all__ = [
    "DEFAULT_AUTHKEY",
    "DEFAULT_DEADLINE_S",
    "DEFAULT_RETRIES",
    "PROTOCOL_VERSION",
    "Dispatcher",
    "WorkerAgent",
    "probe_link_overhead",
    "run_distributed",
]
