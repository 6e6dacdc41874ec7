"""EXP-B8 bench: multi-host dispatch overhead and streamed row blocks.

The scale-out twin of ``test_bench_service.py``: EXP-B8 runs one
workload through the in-process engine, the local sharded pool, and a
localhost fleet of two :mod:`repro.dist` worker agents, then sweeps
``chunk_lanes`` to record the memory/latency trade of streamed row
blocks, and measures the echo round-trip the planner prices links
with.  No speedup bar is asserted — two localhost sockets on one
machine measure *protocol overhead*, not fleet throughput — but every
dispatched configuration must be bitwise identical to the
single-process run, the streamed sweep's peak resident bytes must
shrink with the chunk size, opening the fleet must stay under 10 ms
(a Nagle stall on the handshake costs ~40 ms per agent), and the
whole trajectory lands in ``results/BENCH-EXP-B8.json`` on any host,
however narrow.
"""

from repro.experiments import run_experiment
from repro.experiments.runner import results_header


def test_dispatch_overhead_and_streaming(benchmark, results_dir, bench_json):
    result = benchmark.pedantic(
        lambda: run_experiment("EXP-B8", n_cores=64, repeats=3),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.render())
    (results_dir / "EXP-B8.txt").write_text(
        results_header(
            backend=result.data["backend"],
            workers=result.data["n_agents"],
        )
        + result.render()
        + "\n"
    )
    bench_json(
        "EXP-B8",
        result.data["rows"],
        backend=result.data["backend"],
        workers=result.data["n_agents"],
    )

    # Correctness rides along on every measured configuration.
    assert result.data["pooled_bitwise"], result.data
    assert result.data["dispatched_bitwise"], result.data
    assert result.data["chunks_bitwise"], result.data

    # The streamed sweep's memory claim: smaller chunks, smaller peak.
    assert result.data["peak_monotone"], result.data["chunk_rows"]

    # The link probe must produce a sane planning input on localhost.
    assert 0.0 < result.data["link_overhead_s"] < 1.0, result.data

    # Opening the localhost fleet is a few round trips per agent, not
    # a delayed-ACK stall each (connect + handshake + ping + close).
    assert result.data["connect_live"], result.data
    assert result.data["connect_seconds"] < 0.010, result.data
