"""Distributed dispatch smoke: a localhost fleet of real agent processes.

Two ``python -m repro.dist.worker`` subprocesses on ephemeral ports,
their addresses scraped from the banner line.  The dispatched campaign
must be bitwise identical to the serial engine, opening the fleet must
stay far below the ~40 ms delayed-ACK stall per agent that Nagle's
algorithm put on every handshake, and after one agent is killed
post-handshake its shards must requeue onto the survivor with the
result still bitwise.  The agents inherit the environment, so under
``REPRO_BACKEND=numba`` both sides of the comparison run the JIT
backend.  Both CI tier-1 legs run this module explicitly.
"""

import statistics
import subprocess
import sys
import time

import pytest

from repro.batch.sweep import run_batch_series
from repro.dist import run_distributed
from repro.dist.dispatch import Dispatcher
from repro.parallel.executor import prepare_job
from repro.parallel.spec import DriveSpec, EnsembleSpec

from test_parallel import assert_results_bitwise_equal

BANNER = "repro-dist worker listening on "

#: Localhost connect + handshake + ping + close for the whole fleet.
#: Nagle's stall alone costs ~40 ms per agent; NODELAY measures ~1 ms.
CONNECT_BAR_S = 0.010


def _spawn():
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.dist.worker", "--bind", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        text=True,
    )
    banner = proc.stdout.readline().strip()
    assert banner.startswith(BANNER), banner
    return proc, banner[len(BANNER):]


@pytest.fixture
def fleet():
    """Two agent subprocesses: ``[(proc, "host:port"), ...]``."""
    agents = []
    try:
        for _ in range(2):
            agents.append(_spawn())
        yield agents
    finally:
        for proc, _ in agents:
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()


def test_dispatch_smoke(fleet):
    hosts = [address for _, address in fleet]
    spec = EnsembleSpec(family="timeless", n_cores=12, seed=7)
    step = float(spec.build_batch().driver_step_hint())
    drive = DriveSpec(scenario="major-loop", h_max=10e3, driver_step=step)
    serial = run_batch_series(
        spec.build_batch(), drive.full_samples(spec.n_cores)
    )

    # Healthy fleet: both agents compute, reassembly is bitwise.
    healthy = run_distributed(
        spec, scenario="major-loop", h_max=10e3, driver_step=step,
        hosts=hosts, n_workers=2,
    )
    assert_results_bitwise_equal(serial, healthy)

    # Opening the fleet is a few round trips, not a Nagle stall each.
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        with Dispatcher(hosts) as dispatcher:
            assert dispatcher.n_live == 2, hosts
        samples.append(time.perf_counter() - started)
    assert statistics.median(samples) < CONNECT_BAR_S, samples

    # Kill one agent AFTER the handshake: its shard must requeue onto
    # the survivor, result still bitwise.
    with Dispatcher(hosts, deadline_s=30.0) as dispatcher:
        assert dispatcher.n_live == 2, hosts
        fleet[0][0].kill()
        fleet[0][0].wait()
        job = prepare_job(spec, drive, 2)
        (requeued,) = dispatcher.run_jobs([job])
    assert_results_bitwise_equal(serial, requeued)
