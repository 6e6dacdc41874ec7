"""EXP-B8: multi-host dispatch against in-process execution.

The scale-out question PR 9 exists to answer: what does moving a shard
across a socket *cost*, and when does a fleet of worker agents pay it
back?  Everything is measured on one machine — a localhost fleet of
two in-process :class:`~repro.dist.worker.WorkerAgent`\\ s — so the
numbers isolate the wire protocol's own overhead (pickling, both
socket directions, block reassembly) from real network latency:

* **single vs pooled vs dispatched** — the same workload through the
  in-process :func:`~repro.batch.sweep.run_batch_series`, the local
  sharded pool, and :func:`~repro.dist.dispatch.run_distributed` over
  the localhost fleet;
* **chunk-size sweep** — the dispatched run at a ladder of
  ``chunk_lanes`` values, recording wall time *and* the dispatcher's
  peak resident result-buffer bytes (:class:`~repro.parallel.blocks.
  BlockBudget` high-water mark): the memory/latency trade the streamed
  row blocks buy — each block holds at most ``chunk_lanes × samples``
  lane-samples of a shard;
* **link overhead** — the measured echo round-trip per agent
  (:func:`~repro.dist.probe.probe_link_overhead`): what every
  dispatched shard pays at least once (``link_overhead_s``);
* **connect** — opening the fleet: ``Dispatcher(hosts)`` connect,
  handshake and ping per agent, then close.  The median over the
  repeats; with ``TCP_NODELAY`` it is a few round trips, without it
  a ~40 ms delayed-ACK stall per agent.

Correctness rides along: every dispatched configuration must reproduce
the single-process result bitwise — dispatch is a transport, never a
numerics change.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.backend import resolve_backend
from repro.batch.sweep import run_batch_series
from repro.experiments.registry import ExperimentResult, register
from repro.experiments.runner import measure
from repro.io.table import TextTable
from repro.models.registry import list_families
from repro.parallel import available_cpus, resolve_workers, run_sharded
from repro.parallel.executor import prepare_job
from repro.parallel.spec import DriveSpec, EnsembleSpec

EXPERIMENT_ID = "EXP-B8"
TITLE = "Multi-host dispatch: wire overhead and streamed row blocks"


def _bitwise(reference, other) -> bool:
    return bool(
        np.array_equal(reference.m, other.m, equal_nan=True)
        and np.array_equal(reference.b, other.b, equal_nan=True)
        and np.array_equal(reference.updated, other.updated)
    )


@register(EXPERIMENT_ID, TITLE)
def run(
    n_cores: int = 64,
    driver_step_ratio: float = 0.04,
    repeats: int = 3,
    seed: int = 2006,
    scenario: str = "major-loop",
    n_agents: int = 2,
    chunk_ladder: tuple = (None, 16, 4, 1),
) -> ExperimentResult:
    """Measure localhost dispatch overhead and the chunk-size trade.

    ``n_agents`` worker agents serve the fleet; the dispatched shard
    count matches so every agent computes.  ``chunk_ladder`` lists the
    ``chunk_lanes`` values the streamed sweep visits (``None``: one
    unchunked block per shard).
    """
    from repro.dist import WorkerAgent, probe_link_overhead, run_distributed
    from repro.dist.dispatch import Dispatcher

    family = list_families()[0]
    spec = EnsembleSpec(family=family.name, n_cores=n_cores, seed=seed)
    h_max = float(family.h_scale)
    step = float(h_max * driver_step_ratio)
    drive = DriveSpec(scenario=scenario, h_max=h_max, driver_step=step)
    workers = resolve_workers(min(n_agents, available_cpus()))

    # -- the in-process references -------------------------------------
    single_samples, single = measure(
        lambda: run_batch_series(
            spec.build_batch(), drive.full_samples(n_cores)
        ),
        repeats,
    )
    pooled_samples, pooled = measure(
        lambda: run_sharded(
            spec,
            scenario=scenario,
            h_max=h_max,
            driver_step=step,
            n_workers=workers,
        ),
        repeats,
    )
    single_seconds, pooled_seconds = min(single_samples), min(pooled_samples)

    agents = [WorkerAgent().start() for _ in range(n_agents)]
    try:
        hosts = [agent.address for agent in agents]

        # -- link overhead: one echo round trip per agent -------------
        link_overheads = {
            address: probe_link_overhead(address, repeats=repeats)
            for address in hosts
        }

        # -- connect: open the fleet (handshake + ping), then close ----
        connect_samples, connect_live = [], True
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            with Dispatcher(hosts) as dispatcher:
                connect_live &= dispatcher.n_live == n_agents
            connect_samples.append(time.perf_counter() - start)
        connect_seconds = statistics.median(connect_samples)

        # -- dispatched, unchunked -------------------------------------
        dispatched_samples, dispatched = measure(
            lambda: run_distributed(
                spec,
                scenario=scenario,
                h_max=h_max,
                driver_step=step,
                hosts=hosts,
                n_workers=n_agents,
            ),
            repeats,
        )
        dispatched_seconds = min(dispatched_samples)

        # -- chunk-size sweep over one shared fleet --------------------
        chunk_rows: list[dict] = []
        for chunk_lanes in chunk_ladder:
            if chunk_lanes is not None and chunk_lanes >= n_cores:
                continue
            with Dispatcher(hosts) as dispatcher:
                job = prepare_job(
                    spec, drive, n_agents, chunk_lanes=chunk_lanes
                )
                seconds, results = measure(
                    lambda: dispatcher.run_jobs([job]), 1
                )
                chunk_rows.append(
                    {
                        "op": f"dispatch_chunk_{chunk_lanes or 'none'}",
                        "n": n_cores,
                        "chunk_lanes": chunk_lanes,
                        "seconds": min(seconds),
                        "peak_bytes": dispatcher.budget.peak,
                        "bitwise": _bitwise(single, results[0]),
                    }
                )
    finally:
        for agent in agents:
            agent.stop()

    dispatch_overhead = dispatched_seconds - pooled_seconds
    median_link = sorted(link_overheads.values())[len(link_overheads) // 2]
    rows = [
        {"op": "single", "n": n_cores, "seconds": single_seconds},
        {"op": "pooled", "n": n_cores, "seconds": pooled_seconds},
        {"op": "dispatched", "n": n_cores, "seconds": dispatched_seconds},
        {"op": "link_probe", "n": n_agents, "seconds": median_link},
        {"op": "connect", "n": n_agents, "seconds": connect_seconds},
    ] + [
        {key: row[key] for key in ("op", "n", "seconds")}
        for row in chunk_rows
    ]

    table = TextTable(
        ["operation", "chunk", "seconds", "peak MiB", "bitwise"],
        title=(
            f"localhost dispatch over {n_agents} worker agent(s), "
            f"N = {n_cores}, {available_cpus()} CPU(s)"
        ),
    )
    table.add_row("single", "-", single_seconds, "-", "ref")
    table.add_row("pooled", "-", pooled_seconds, "-",
                  "yes" if _bitwise(single, pooled) else "NO")
    table.add_row("dispatched", "-", dispatched_seconds, "-",
                  "yes" if _bitwise(single, dispatched) else "NO")
    table.add_row("connect", "-", connect_seconds, "-", "-")
    for row in chunk_rows:
        table.add_row(
            row["op"],
            row["chunk_lanes"] or "none",
            row["seconds"],
            f"{row['peak_bytes'] / 2**20:.3f}",
            "yes" if row["bitwise"] else "NO",
        )

    result = ExperimentResult(experiment_id=EXPERIMENT_ID, title=TITLE)
    result.tables = [table]
    result.notes = [
        f"measured link overhead (echo round trip, localhost): "
        f"{median_link * 1e3:.3f} ms median over {n_agents} agent(s) — "
        "what every dispatched shard pays at least once",
        f"opening the fleet (connect + handshake + ping + close, "
        f"{n_agents} agent(s)): {connect_seconds * 1e3:.3f} ms median",
        f"dispatch vs local pool: {dispatch_overhead:+.3f} s at "
        f"N = {n_cores} (localhost sockets isolate protocol cost; a "
        "real fleet trades this against remote cores)",
        "smaller chunk_lanes cuts each shard's samples into more, "
        "shorter row blocks: a lower peak of resident result-buffer "
        "bytes at the dispatcher, more per-block round trips — the "
        "memory/latency trade streamed row blocks expose",
        "every dispatched configuration is bitwise equal to the "
        "single-process run — dispatch is a transport, never a "
        "numerics change",
    ]
    result.data = {
        "rows": rows,
        "n_cores": n_cores,
        "n_agents": n_agents,
        "workers": workers,
        "cpus": available_cpus(),
        "backend": resolve_backend(None).name,
        "single_seconds": single_seconds,
        "pooled_seconds": pooled_seconds,
        "dispatched_seconds": dispatched_seconds,
        "dispatch_overhead_seconds": dispatch_overhead,
        "connect_seconds": connect_seconds,
        "connect_live": connect_live,
        "link_overheads": link_overheads,
        "link_overhead_s": median_link,
        "chunk_rows": chunk_rows,
        "pooled_bitwise": _bitwise(single, pooled),
        "dispatched_bitwise": _bitwise(single, dispatched),
        "chunks_bitwise": all(row["bitwise"] for row in chunk_rows),
        "peak_monotone": all(
            earlier["peak_bytes"] >= later["peak_bytes"]
            for earlier, later in zip(chunk_rows, chunk_rows[1:])
        ),
    }
    return result
