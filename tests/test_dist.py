"""Multi-host dispatch: wire protocol, streamed row blocks, bitwise
reassembly, robustness.

The load-bearing suites mirror the executor's equivalence contract one
transport out: a campaign dispatched over localhost worker agents —
uneven splits, chunked streaming, a worker killed mid-campaign — must
reproduce the single-process :func:`repro.batch.sweep.run_batch_series`
result bit for bit.  Dispatch is a transport optimisation, never a
numerics change.
"""

import dataclasses
import logging
import re
import socket
import threading

import numpy as np
import pytest

from repro.batch.sweep import run_batch_series
from repro.dist import (
    DEFAULT_AUTHKEY,
    PROTOCOL_VERSION,
    Dispatcher,
    WorkerAgent,
    probe_link_overhead,
    run_distributed,
)
from repro.dist.protocol import (
    MSG_BLOCK,
    MSG_DONE,
    MSG_ECHO,
    MSG_PONG,
    MSG_RUN,
    connect,
    format_address,
    parse_address,
    recv_message,
    send_message,
)
from repro.errors import DistError, DistTimeoutError, ParameterError
from repro.parallel import (
    BlockBudget,
    EnsembleSpec,
    plan_lane_blocks,
    plan_row_blocks,
    run_scenario_grid,
    run_sharded,
)
from repro.parallel.blocks import drain_stack
from repro.parallel.executor import prepare_job, run_jobs_serial
from repro.scenarios import scenario_samples

from test_parallel import assert_results_bitwise_equal

#: The deliberately awkward geometry: 7 lanes, 3 shards, 2 hosts.
N_CORES = 7
H_MAX = 1000.0
STEP = 120.0


def shard_blocks(spec) -> list:
    """A shard's row blocks, in row order, as an agent streams them:
    the shard run as a stack of one."""
    blocks = []
    drain_stack([spec], [blocks.append])
    return blocks


def block_bytes(block) -> tuple:
    """A block's lanes, rows and every array's dtype, shape and bytes."""
    arrays = [("m", block.m), ("b", block.b), ("updated", block.updated)]
    arrays += [("extras." + k, v) for k, v in sorted(block.extras.items())]
    arrays += [("counters." + k, v) for k, v in sorted(block.counters.items())]
    return (block.start, block.stop, block.row_start, block.row_stop) + tuple(
        (name, str(a.dtype), a.shape, a.tobytes()) for name, a in arrays
    )


def reference_result(n_cores=N_CORES, seed=0):
    spec = EnsembleSpec(family="timeless", n_cores=n_cores, seed=seed)
    h = scenario_samples("major-loop", H_MAX, STEP, n_cores=n_cores)
    return run_batch_series(spec.build_batch(), h)


@pytest.fixture
def fleet():
    """Two in-process localhost worker agents."""
    with WorkerAgent() as a, WorkerAgent() as b:
        a.start()
        b.start()
        yield [a.address, b.address]


class TestProtocol:
    def test_parse_format_roundtrip(self):
        assert parse_address("127.0.0.1:7501") == ("127.0.0.1", 7501)
        assert format_address(("127.0.0.1", 7501)) == "127.0.0.1:7501"

    def test_parse_rejects_malformed(self):
        for bad in ("no-port", ":123", "host:notaport"):
            with pytest.raises(DistError):
                parse_address(bad)

    def test_recv_deadline_expires(self):
        from multiprocessing import Pipe

        parent, child = Pipe()
        try:
            with pytest.raises(DistTimeoutError):
                recv_message(parent, 0.05)
            send_message(child, ("ping",))
            assert recv_message(parent, 1.0) == ("ping",)
        finally:
            parent.close()
            child.close()


class TestLaneBlocks:
    def test_plan_tiles_range_in_order(self):
        assert plan_lane_blocks(3, 10, 3) == [(3, 6), (6, 9), (9, 10)]
        assert plan_lane_blocks(0, 4, None) == [(0, 4)]
        assert plan_lane_blocks(0, 4, 99) == [(0, 4)]

    def test_plan_rejects_bad_ranges(self):
        with pytest.raises(ParameterError):
            plan_lane_blocks(4, 4, 2)
        with pytest.raises(ParameterError):
            plan_lane_blocks(0, 4, 0)

    @pytest.mark.parametrize("chunk_lanes", [1, 2, 5, None])
    def test_chunked_shard_is_bitwise_identical(self, chunk_lanes):
        """A chunked shard streams row blocks: every block carries all
        of the shard's lanes over the next rows of its row plan."""
        ensemble = EnsembleSpec(family="timeless", n_cores=N_CORES)
        job = prepare_job(
            ensemble,
            _drive(),
            1,
            chunk_lanes=chunk_lanes,
        )
        (spec,) = job.specs
        blocks = shard_blocks(spec)
        samples = len(job.h_full)
        assert {(b.start, b.stop) for b in blocks} == {(0, N_CORES)}
        assert [(b.row_start, b.row_stop) for b in blocks] == (
            plan_row_blocks(N_CORES, samples, chunk_lanes)
        )
        assert (len(blocks) > 1) == (chunk_lanes is not None)
        assert_results_bitwise_equal(
            reference_result(), run_jobs_serial([job])[0]
        )

    def test_agent_streams_its_stack_of_one(self):
        """An in-process agent streams a chunked shard exactly as the
        shard's stack of one drains it: the same blocks, in row order,
        each with the same lanes, rows and bytes in every channel and
        counter, then a ``done`` that counts them."""
        job = prepare_job(
            EnsembleSpec(family="timeless", n_cores=N_CORES),
            _drive(),
            1,
            chunk_lanes=2,
        )
        (spec,) = job.specs
        expected = shard_blocks(spec)
        assert len(expected) > 1
        streamed = []
        with WorkerAgent() as agent:
            conn = connect(parse_address(agent.address), DEFAULT_AUTHKEY, 5.0)
            try:
                send_message(conn, (MSG_RUN, "one", spec))
                message = recv_message(conn, 30.0)
                while message[0] == MSG_BLOCK:
                    streamed.append(message[2])
                    message = recv_message(conn, 30.0)
            finally:
                conn.close()
        assert message == (MSG_DONE, "one", len(expected))
        assert [block_bytes(block) for block in streamed] == [
            block_bytes(block) for block in expected
        ]

    def test_budget_tracks_peak_and_rejects_oversize(self):
        budget = BlockBudget(100)
        budget.acquire(60)
        budget.acquire(40)
        budget.release(60)
        budget.release(40)
        assert budget.peak == 100
        assert budget.in_flight == 0
        with pytest.raises(ParameterError, match="ceiling"):
            budget.acquire(101)
        with pytest.raises(ParameterError):
            BlockBudget(0)

    def test_unlimited_budget_never_blocks(self):
        budget = BlockBudget(None)
        budget.acquire(10**12)
        budget.release(10**12)
        assert budget.peak == 10**12

    def test_stray_notify_cannot_over_release_the_budget(self):
        """``acquire`` re-checks its predicate after every wake
        (``wait_for``), so a stray ``notify_all`` — over-notification,
        a spurious wakeup — never admits bytes past the ceiling."""
        budget = BlockBudget(100)
        budget.acquire(90)
        admitted = threading.Event()

        def contender():
            budget.acquire(20)
            admitted.set()
            budget.release(20)

        thread = threading.Thread(target=contender, daemon=True)
        thread.start()
        for _ in range(5):
            with budget._cond:
                budget._cond.notify_all()
        # The waiter must still be parked: 90 + 20 > 100.
        assert not admitted.wait(0.2)
        assert budget.in_flight == 90
        budget.release(90)
        assert admitted.wait(5.0), "waiter never admitted after release"
        thread.join(5.0)
        assert budget.in_flight == 0
        assert budget.peak <= 100


def _drive():
    from repro.parallel.spec import DriveSpec

    return DriveSpec(
        scenario="major-loop", h_max=H_MAX, driver_step=STEP
    )


class _LabelRecordingAgent(WorkerAgent):
    """Serves every shard, recording the label it came under."""

    def __init__(self) -> None:
        super().__init__()
        self.labels = []

    def _run(self, conn, label, spec) -> None:
        self.labels.append(label)
        super()._run(conn, label, spec)


class TestRunDistributed:
    def test_bitwise_identical_to_single_process(self, fleet):
        """A scenario recipe, one shard per host.  Uneven splits and
        chunked streams, per family, are pinned route by route in
        ``test_shard_routes.py``."""
        result = run_distributed(
            EnsembleSpec(family="timeless", n_cores=N_CORES),
            scenario="major-loop",
            h_max=H_MAX,
            driver_step=STEP,
            hosts=fleet,
        )
        assert_results_bitwise_equal(reference_result(), result)

    def test_zero_reachable_hosts_degrades_to_local(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.dist.dispatch"):
            result = run_distributed(
                EnsembleSpec(family="timeless", n_cores=N_CORES),
                scenario="major-loop",
                h_max=H_MAX,
                driver_step=STEP,
                hosts=["127.0.0.1:9"],  # discard port: refused, fast
                connect_timeout_s=1.0,
            )
        assert_results_bitwise_equal(reference_result(), result)
        assert any(
            "degrading to the local executor" in record.message
            for record in caplog.records
        )

    def test_killed_worker_requeues_onto_survivor(self, caplog):
        agent_a = WorkerAgent().start()
        agent_b = WorkerAgent().start()
        try:
            ensemble = EnsembleSpec(family="timeless", n_cores=N_CORES)
            job = prepare_job(ensemble, _drive(), 3, chunk_lanes=2)
            with caplog.at_level(
                logging.WARNING, logger="repro.dist.dispatch"
            ):
                with Dispatcher(
                    [agent_a.address, agent_b.address], deadline_s=30.0
                ) as dispatcher:
                    assert dispatcher.n_live == 2
                    # Kill one agent after the handshake: its serving
                    # thread loses the connection mid-job and the shard
                    # must requeue onto the survivor.
                    agent_a.stop()
                    (result,) = dispatcher.run_jobs([job])
            assert_results_bitwise_equal(reference_result(), result)
            assert any(
                "requeueing shard" in record.message
                for record in caplog.records
            )
        finally:
            agent_a.stop()
            agent_b.stop()

    def test_streamed_blocks_respect_buffer_ceiling(self, fleet):
        ensemble = EnsembleSpec(family="timeless", n_cores=N_CORES)
        job = prepare_job(ensemble, _drive(), 2, chunk_lanes=1)
        sample_count = len(job.h_full)
        # Generous enough for one block of at most chunk_lanes x samples
        # lane-samples, far below the full (samples, 7) result buffer.
        ceiling = 64 * sample_count
        with Dispatcher(fleet, max_buffer_bytes=ceiling) as dispatcher:
            (result,) = dispatcher.run_jobs([job])
        assert_results_bitwise_equal(reference_result(), result)
        assert 0 < dispatcher.budget.peak <= ceiling

    def test_identical_jobs_land_in_results_of_their_own(self, fleet):
        """Two identical jobs in one call are two jobs on the wire: each
        shard lands in the assembly of the job that sent it, so each
        job gets a result of its own, bitwise."""
        ensemble = EnsembleSpec(family="timeless", n_cores=N_CORES)
        jobs = [prepare_job(ensemble, _drive(), 2) for _ in range(2)]
        with Dispatcher(fleet) as dispatcher:
            first, second = dispatcher.run_jobs(jobs)
        assert not np.shares_memory(first.m, second.m)
        for result in (first, second):
            assert_results_bitwise_equal(reference_result(), result)

    def test_labels_never_repeat_across_run_jobs_calls(self):
        """A dispatcher numbers its shards from one counter, so a reused
        dispatcher never sends two shards under one label."""
        ensemble = EnsembleSpec(family="timeless", n_cores=N_CORES)
        with _LabelRecordingAgent() as agent:
            with Dispatcher([agent.address]) as dispatcher:
                for _ in range(2):
                    (result,) = dispatcher.run_jobs(
                        [prepare_job(ensemble, _drive(), 2)]
                    )
                    assert_results_bitwise_equal(reference_result(), result)
        assert len(agent.labels) == 4
        assert len(set(agent.labels)) == 4

    def test_worker_side_error_raises_dist_error(self, fleet):
        ensemble = EnsembleSpec(family="timeless", n_cores=N_CORES)
        job = prepare_job(ensemble, _drive(), 1)
        # Corrupt the rebuild route: deterministic worker-side failure,
        # which must surface as DistError — never a retry.
        job.specs[0] = dataclasses.replace(
            job.specs[0], ensemble=None, payload={"bogus": True}
        )
        with Dispatcher(fleet) as dispatcher:
            with pytest.raises(DistError, match="failed\\s+worker-side"):
                dispatcher.run_jobs([job])

    def test_undigestable_failing_shard_keeps_the_agent_serving(self):
        """A worker-side failure on a payload route the service's
        digest cannot canonicalise (a non-string key) is forwarded like
        any other, and the agent keeps answering ``ping`` afterwards."""
        ensemble = EnsembleSpec(family="timeless", n_cores=N_CORES)
        job = prepare_job(ensemble, _drive(), 1)
        job.specs[0] = dataclasses.replace(
            job.specs[0], ensemble=None, payload={1: "bogus"}
        )
        with WorkerAgent() as agent:
            with Dispatcher([agent.address], deadline_s=30.0) as dispatcher:
                with pytest.raises(DistError, match="KeyError"):
                    dispatcher.run_jobs([job])
            with Dispatcher([agent.address]) as dispatcher:
                assert dispatcher.n_live == 1

    def test_retries_exhausted_drains_locally(self, caplog):
        agent = WorkerAgent().start()
        try:
            ensemble = EnsembleSpec(family="timeless", n_cores=N_CORES)
            job = prepare_job(ensemble, _drive(), 1)
            with caplog.at_level(
                logging.WARNING, logger="repro.dist.dispatch"
            ):
                with Dispatcher(
                    [agent.address], retries=0, deadline_s=30.0
                ) as dispatcher:
                    agent.stop()  # the whole fleet dies pre-dispatch
                    (result,) = dispatcher.run_jobs([job])
            assert_results_bitwise_equal(reference_result(), result)
            assert any(
                "draining them through the local executor" in record.message
                for record in caplog.records
            )
        finally:
            agent.stop()


class _DoneWithoutBlocksAgent(WorkerAgent):
    """Declares every shard done without streaming a single block."""

    def _run(self, conn, label, spec) -> None:
        send_message(conn, (MSG_DONE, label, 0))


class TestSettledFailures:
    def test_dispatcher_side_failure_raises_instead_of_hanging(self):
        """An error the serving thread does not retry — here a ``done``
        that covered no lanes — fails its job: ``run_jobs`` raises with
        the shard and the original message instead of waiting forever
        on a job a dead thread still held."""
        ensemble = EnsembleSpec(family="timeless", n_cores=N_CORES)
        job = prepare_job(ensemble, _drive(), 3)
        with _DoneWithoutBlocksAgent() as bad, WorkerAgent() as good:
            with Dispatcher(
                [bad.address, good.address], deadline_s=30.0
            ) as dispatcher:
                outcome = _finishes_within(
                    5.0, lambda: dispatcher.run_jobs([job])
                )
                # The broken stream's connection retired with its job.
                assert dispatcher.n_live == 1
        error = outcome.get("error")
        assert isinstance(error, DistError), outcome
        assert "shard [0, 3) failed dispatcher-side" in str(error)
        assert "streamed 0 lanes but declared done" in str(error)

    def test_agent_outlives_a_dispatcher_hanging_up_mid_stream(self):
        """A failed job retires its connection while the agent is still
        streaming blocks into it; the agent drops that connection and
        keeps serving."""
        ensemble = EnsembleSpec(family="timeless", n_cores=32)
        job = prepare_job(ensemble, _drive(), 1, chunk_lanes=1)
        stale = dataclasses.replace(
            job, extras_schema={"bogus": np.dtype(np.int32)}
        )
        with WorkerAgent() as agent:
            with Dispatcher([agent.address], deadline_s=30.0) as dispatcher:
                with pytest.raises(DistError, match="bogus.*stale"):
                    dispatcher.run_jobs([stale])
            with Dispatcher([agent.address]) as dispatcher:
                assert dispatcher.n_live == 1
                (result,) = dispatcher.run_jobs([job])
        assert_results_bitwise_equal(reference_result(32), result)


def _finishes_within(seconds, fn) -> dict:
    """``fn``'s outcome (``value`` or ``error``), run on a daemon thread
    so a call that blocks forever fails the test instead of hanging it."""
    outcome = {}

    def run():
        try:
            outcome["value"] = fn()
        except Exception as exc:  # noqa: BLE001 - handed to the test
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still blocked after {seconds}s"
    return outcome


# -- bad peer input, and the one outcome each gets ------------------------


class _BadAgent(WorkerAgent):
    """A worker agent that breaks the protocol; ``met`` is set once it
    has, so every row proves the dispatcher really met its bad input."""

    def __init__(self) -> None:
        super().__init__()
        self.met = threading.Event()


class _PongAgent(_BadAgent):
    """Answers the handshake ping with :attr:`pong`, then serves."""

    pong: tuple = ()

    def _handle(self, conn) -> None:
        recv_message(conn, None)
        self.met.set()
        send_message(conn, self.pong)
        super()._handle(conn)


class _OtherVersionAgent(_PongAgent):
    pong = (MSG_PONG, PROTOCOL_VERSION + 1)


class _VersionlessPongAgent(_PongAgent):
    pong = (MSG_PONG,)


class _EchoingPingAgent(_PongAgent):
    pong = (MSG_ECHO, PROTOCOL_VERSION)


class _BarePongAgent(_PongAgent):
    pong = MSG_PONG


class _StreamAgent(_BadAgent):
    """Streams each shard's blocks as :meth:`rewrite` returns them."""

    def rewrite(self, spec, blocks) -> list:
        raise NotImplementedError

    def _run(self, conn, label, spec) -> None:
        blocks = self.rewrite(spec, shard_blocks(spec))
        self.met.set()
        for block in blocks:
            send_message(conn, (MSG_BLOCK, label, block))
        send_message(conn, (MSG_DONE, label, len(blocks)))


def _shifted(block, rows: int):
    return dataclasses.replace(
        block, row_start=block.row_start + rows, row_stop=block.row_stop + rows
    )


class _ShardLocalAgent(_StreamAgent):
    """Labels every block's rows from 0, in a frame of its own instead
    of the job's sample axis."""

    def rewrite(self, spec, blocks):
        return [_shifted(block, -block.row_start) for block in blocks]


class _RepeatedBlockAgent(_StreamAgent):
    """Sends its first block twice and never the second."""

    def rewrite(self, spec, blocks):
        return [blocks[0]] * len(blocks)


class _OverlappingBlockAgent(_StreamAgent):
    """Labels every block after the first one row early."""

    def rewrite(self, spec, blocks):
        return blocks[:1] + [_shifted(block, -1) for block in blocks[1:]]


class _OverlongBlockAgent(_StreamAgent):
    """Labels its last block one row past the job's last sample."""

    def rewrite(self, spec, blocks):
        last = blocks[-1]
        return blocks[:-1] + [
            dataclasses.replace(last, row_stop=last.row_stop + 1)
        ]


def _with_rows(block, rows: slice):
    """``block`` with every per-sample array cut to ``rows``, its row
    range kept."""
    return dataclasses.replace(
        block, m=block.m[rows], b=block.b[rows], updated=block.updated[rows],
        extras={k: v[rows] for k, v in block.extras.items()},
    )


class _ShortBlockAgent(_StreamAgent):
    """Drops the last sample of every block, keeping its row range."""

    def rewrite(self, spec, blocks):
        return [_with_rows(block, slice(-1)) for block in blocks]


class _BroadcastRowsAgent(_StreamAgent):
    """Sends one row of every block, keeping its row range: NumPy would
    broadcast that row down the whole range."""

    def rewrite(self, spec, blocks):
        return [_with_rows(block, slice(1)) for block in blocks]


class _Float32Agent(_StreamAgent):
    """Sends ``m`` as float32 and ``updated`` as float64: NumPy would
    cast both back into the buffers."""

    def rewrite(self, spec, blocks):
        return [
            dataclasses.replace(
                block, m=block.m.astype(np.float32),
                updated=block.updated.astype(np.float64),
            )
            for block in blocks
        ]


class _Float64UpdatedAgent(_StreamAgent):
    """Sends ``updated`` as float64 and every other channel intact:
    NumPy would cast it back into the bool buffer."""

    def rewrite(self, spec, blocks):
        return [
            dataclasses.replace(
                block, updated=block.updated.astype(np.float64)
            )
            for block in blocks
        ]


class _NarrowCountersAgent(_StreamAgent):
    """Sends every counter one lane wide."""

    def rewrite(self, spec, blocks):
        return [
            dataclasses.replace(
                block, counters={k: v[:1] for k, v in block.counters.items()}
            )
            for block in blocks
        ]


class _LaneBlockAgent(_StreamAgent):
    """Streams its shard as two lane blocks over every row, the way a
    version-1 agent cut it."""

    def rewrite(self, spec, blocks):
        (whole,) = blocks
        half = spec.width // 2
        return [
            dataclasses.replace(
                whole, start=spec.start + lo, stop=spec.start + hi,
                m=whole.m[:, lo:hi], b=whole.b[:, lo:hi],
                updated=whole.updated[:, lo:hi],
                extras={k: v[:, lo:hi] for k, v in whole.extras.items()},
                counters={k: v[lo:hi] for k, v in whole.counters.items()},
            )
            for lo, hi in ((0, half), (half, spec.width))
        ]


class _SkippingAgent(_StreamAgent):
    """Never sends its second block."""

    def rewrite(self, spec, blocks):
        return blocks[:1] + blocks[2:]


class _EarlyDoneAgent(_StreamAgent):
    """Declares its shard done before sending its last block."""

    def rewrite(self, spec, blocks):
        return blocks[:-1]


class _ForeignExtraAgent(_StreamAgent):
    """Adds an extras channel its family never declared to every block."""

    def rewrite(self, spec, blocks):
        return [
            dataclasses.replace(
                block,
                extras={**block.extras, "bogus": np.zeros_like(block.m)},
            )
            for block in blocks
        ]


#: A label no shard of the bad-peer job is sent under.
FOREIGN_LABEL = "f" * 64


class _ForeignLabelBlockAgent(_BadAgent):
    """Labels every block with another shard's label."""

    def _run(self, conn, label, spec) -> None:
        self.met.set()
        for block in shard_blocks(spec):
            send_message(conn, (MSG_BLOCK, FOREIGN_LABEL, block))
        send_message(conn, (MSG_DONE, label, 1))


class _ForeignLabelDoneAgent(_BadAgent):
    """Streams its blocks rightly, then labels ``done`` with another
    shard's label."""

    def _run(self, conn, label, spec) -> None:
        self.met.set()
        for block in shard_blocks(spec):
            send_message(conn, (MSG_BLOCK, label, block))
        send_message(conn, (MSG_DONE, FOREIGN_LABEL, 1))


class _ReplayedLabelAgent(_BadAgent):
    """Answers every shard under the label of the first shard it took."""

    def __init__(self) -> None:
        super().__init__()
        self.first = None

    def _run(self, conn, label, spec) -> None:
        if self.first is None:
            self.first = label
        else:
            self.met.set()
        super()._run(conn, self.first, spec)


class _NotATupleAgent(_BadAgent):
    """Answers a run request with a bare integer."""

    def _run(self, conn, label, spec) -> None:
        self.met.set()
        send_message(conn, 42)


class _PongMidStreamAgent(_BadAgent):
    """Answers a run request with a handshake reply."""

    def _run(self, conn, label, spec) -> None:
        self.met.set()
        send_message(conn, (MSG_PONG, PROTOCOL_VERSION))


class _StallingAgent(_BadAgent):
    """Streams its first block, then goes silent until it is stopped."""

    def _run(self, conn, label, spec) -> None:
        block = shard_blocks(spec)[0]
        self.met.set()
        send_message(conn, (MSG_BLOCK, label, block))
        self._closed.wait(30.0)


class _HangUpAgent(_BadAgent):
    """Streams every block, then hangs up instead of sending ``done``."""

    def _run(self, conn, label, spec) -> None:
        for block in shard_blocks(spec):
            send_message(conn, (MSG_BLOCK, label, block))
        self.met.set()
        conn.close()


#: The bad-peer job: 8 timeless lanes in two shards, [0, 4) and [4, 8),
#: over 44 samples.  chunk_lanes=2 cuts each shard's rows [0, 22) +
#: [22, 44); chunk_lanes=1 cuts them in four blocks of 11 rows.
BAD_PEER_LANES = 8


def _run_jobs(addresses, chunk_lanes=None, **options):
    job = prepare_job(
        EnsembleSpec(family="timeless", n_cores=BAD_PEER_LANES),
        _drive(), 2, chunk_lanes=chunk_lanes,
    )
    with Dispatcher(addresses, **options) as dispatcher:
        (result,) = dispatcher.run_jobs([job])
    return result


def on_bad(**options):
    """Run the bad-peer job on the bad agent alone."""
    return lambda bad, live: _run_jobs([bad], **options)


def on_bad_then_live(**options):
    """Run the bad-peer job on the bad agent and a live survivor."""
    return lambda bad, live: _run_jobs([bad, live], **options)


def _unknown_kind_then_ping(bad, live):
    from multiprocessing.connection import Client

    with Client(
        parse_address(bad), family="AF_INET", authkey=DEFAULT_AUTHKEY
    ) as conn:
        replies = []
        for message in (("frobnicate",), ("ping",)):
            send_message(conn, message)
            replies.append(recv_message(conn, 5.0))
    return replies


#: The outcome a bad-peer row yields: the single-process result, bit
#: for bit, after the dispatcher requeued the bad agent's shard.
BITWISE = "bitwise after a requeue"

#: What a ``pong`` without a version is told it should have said.
VERSIONLESS_PONG = (
    rf"answered \('pong',\); expected \('pong', {PROTOCOL_VERSION}\)"
)

#: (id, agent, call(bad, live), outcome, live agent reconnects).  The
#: outcome is an (exception type, message regex), BITWISE, or the
#: exact value the call returns.
BAD_PEERS = [
    ("version-mismatch", _OtherVersionAgent,
     lambda bad, live: Dispatcher([bad]),
     (DistError, "mismatched protocol versions"), False),
    ("version-mismatch-after-a-live-agent", _OtherVersionAgent,
     lambda bad, live: Dispatcher([live, bad]),
     (DistError, "mismatched protocol versions"), True),
    ("malformed-entry-after-a-live-agent", WorkerAgent,
     lambda bad, live: run_scenario_grid(
         ["timeless"], ["major-loop"], [8e3], 4, driver_step=400.0,
         hosts=[live, "localhost"],
     ),
     (DistError, "must be 'host:port', got 'localhost'"), True),
    ("pong-without-a-version", _VersionlessPongAgent,
     lambda bad, live: Dispatcher([bad]),
     (DistError, VERSIONLESS_PONG), False),
    ("probe-pong-without-a-version", _VersionlessPongAgent,
     lambda bad, live: probe_link_overhead(bad),
     (DistError, VERSIONLESS_PONG), False),
    ("ping-answered-with-another-kind", _EchoingPingAgent,
     lambda bad, live: Dispatcher([bad]),
     (DistError, "expected a 'pong' message, got 'echo'"), False),
    ("ping-answered-with-a-non-tuple", _BarePongAgent,
     lambda bad, live: Dispatcher([bad]),
     (DistError, "malformed wire message 'pong'"), False),
    ("probe-other-version", _OtherVersionAgent,
     lambda bad, live: probe_link_overhead(bad),
     (DistError, "mismatched protocol versions"), False),
    ("shard-local-labels", _ShardLocalAgent, on_bad(chunk_lanes=1),
     (DistError, r"shard \[0, 4\) received rows \[0, 11\); the next "
      r"block must start at row 11"), False),
    ("repeated-block", _RepeatedBlockAgent, on_bad(chunk_lanes=2),
     (DistError, r"shard \[0, 4\) received rows \[0, 22\); the next "
      r"block must start at row 22"), False),
    ("overlapping-block", _OverlappingBlockAgent, on_bad(chunk_lanes=2),
     (DistError, r"shard \[0, 4\) received rows \[21, 43\); the next "
      r"block must start at row 22"), False),
    ("block-past-its-shard", _OverlongBlockAgent, on_bad(chunk_lanes=2),
     (DistError, r"shard \[0, 4\) received rows \[22, 45\); .* end "
      r"within 44"), False),
    ("lanes-not-the-shards", _LaneBlockAgent, on_bad(),
     (DistError, r"shard \[0, 4\) received lanes \[0, 2\); every block "
      r"must carry the shard's lanes"), False),
    ("skipped-rows", _SkippingAgent, on_bad(chunk_lanes=1),
     (DistError, r"shard \[0, 4\) received rows \[22, 33\); the next "
      r"block must start at row 11"), False),
    ("done-before-the-last-row", _EarlyDoneAgent, on_bad(chunk_lanes=2),
     (DistError, r"shard \[0, 4\) streamed 4 lanes but declared done "
      r"at row 22 of 44"), False),
    ("stall-mid-stream", _StallingAgent,
     on_bad_then_live(chunk_lanes=2, deadline_s=1.0), BITWISE, False),
    ("hang-up-before-done", _HangUpAgent, on_bad_then_live(chunk_lanes=2),
     BITWISE, False),
    ("block-over-the-byte-ceiling", WorkerAgent,
     on_bad(max_buffer_bytes=64),
     (DistError, r"shard \[0, 4\) failed dispatcher-side(?s:.*)"
      r"64-byte result-buffer ceiling"), False),
    ("foreign-label-block", _ForeignLabelBlockAgent, on_bad(),
     (DistError, r"shard \[0, 4\) failed dispatcher-side(?s:.*)"
      r"received a 'block' message labelled 'f{64}'"), False),
    ("foreign-label-done", _ForeignLabelDoneAgent, on_bad(),
     (DistError, r"shard \[0, 4\) failed dispatcher-side(?s:.*)"
      r"received a 'done' message labelled 'f{64}'"), False),
    ("replayed-label", _ReplayedLabelAgent, on_bad(),
     (DistError, r"shard \[4, 8\) failed dispatcher-side(?s:.*)"
      r"sent under label 1 but received a 'block' message labelled 0"),
     False),
    ("foreign-extras-channel", _ForeignExtraAgent, on_bad(),
     (DistError, r"shard \[0, 4\) failed dispatcher-side(?s:.*)"
      r"recorded extras .*bogus.* is stale"), False),
    ("handshake-reply-mid-stream", _PongMidStreamAgent, on_bad(),
     (DistError, r"unexpected 'pong' message mid-stream for shard "
      r"\[0, 4\)"), False),
    ("not-a-tuple", _NotATupleAgent, on_bad(),
     (DistError, r"shard \[0, 4\) failed dispatcher-side(?s:.*)"
      r"TypeError"), False),
    ("wrong-sample-count", _ShortBlockAgent, on_bad(chunk_lanes=2),
     (DistError, r"shard \[0, 4\) failed dispatcher-side(?s:.*)"
      r"lanes \[0, 4\) rows \[0, 22\): channel 'm' is a \(21, 4\) "
      r"float64 array, expected a \(22, 4\) float64 array"), False),
    ("broadcast-rows", _BroadcastRowsAgent, on_bad(),
     (DistError, r"shard \[0, 4\) failed dispatcher-side(?s:.*)"
      r"lanes \[0, 4\) rows \[0, 44\): channel 'm' is a \(1, 4\) "
      r"float64 array, expected a \(44, 4\) float64 array"), False),
    ("float32-m", _Float32Agent, on_bad(),
     (DistError, r"shard \[0, 4\) failed dispatcher-side(?s:.*)"
      r"lanes \[0, 4\) rows \[0, 44\): channel 'm' is a \(44, 4\) "
      r"float32 array, expected a \(44, 4\) float64 array"), False),
    ("float64-updated", _Float64UpdatedAgent, on_bad(),
     (DistError, r"shard \[0, 4\) failed dispatcher-side(?s:.*)"
      r"lanes \[0, 4\) rows \[0, 44\): channel 'updated' is a \(44, 4\) "
      r"float64 array, expected a \(44, 4\) bool array"), False),
    ("narrow-counters", _NarrowCountersAgent, on_bad(),
     (DistError, r"shard \[0, 4\) failed dispatcher-side(?s:.*)"
      r"lanes \[0, 4\) rows \[0, 44\): counter 'clamped_slopes' is a "
      r"\(1,\) int64 array, expected a \(4,\) array"), False),
    ("unknown-kind-to-an-agent", WorkerAgent, _unknown_kind_then_ping,
     [("error", None, "unknown message kind 'frobnicate'"),
      ("pong", PROTOCOL_VERSION)], False),
]


@pytest.mark.parametrize(
    "agent, call, outcome, live_reconnects",
    [row[1:] for row in BAD_PEERS],
    ids=[row[0] for row in BAD_PEERS],
)
def test_bad_peer_input_gets_its_one_outcome(
    agent, call, outcome, live_reconnects
):
    """Every bad input a peer can send maps to one exact outcome, within
    a bounded wall time: an error naming what was wrong, or — when the
    peer merely died or stalled — the bitwise result from a survivor."""
    with agent() as bad, WorkerAgent() as live:
        got = _finishes_within(
            10.0, lambda: call(bad.address, live.address)
        )
        if isinstance(outcome, tuple):
            kind, pattern = outcome
            assert isinstance(got.get("error"), kind), got
            assert re.search(pattern, str(got["error"])), got["error"]
        elif outcome == BITWISE:
            reference = reference_result(BAD_PEER_LANES)
            assert_results_bitwise_equal(reference, got["value"])
        else:
            assert got.get("value") == outcome, got
        if live_reconnects:
            # ``got`` still holds the exception, and with it the frames
            # of the call that raised: no connection may outlive them.
            again = _finishes_within(
                1.0, lambda: Dispatcher([live.address])
            )
            with again["value"] as dispatcher:
                assert dispatcher.n_live == 1
        if isinstance(bad, _BadAgent):
            assert bad.met.is_set()


def _sockopt(conn, level, option, *buflen):
    """Read one socket option off a connection's descriptor (a dup)."""
    with socket.fromfd(
        conn.fileno(), socket.AF_INET, socket.SOCK_STREAM
    ) as sock:
        return sock.getsockopt(level, option, *buflen)


class TestConnections:
    def test_nodelay_on_both_ends_of_every_connection(self):
        with WorkerAgent() as a, WorkerAgent() as b:
            with Dispatcher([a.address, b.address]) as dispatcher:
                assert dispatcher.n_live == 2
                for conn in dispatcher._workers.values():
                    assert _sockopt(
                        conn, socket.IPPROTO_TCP, socket.TCP_NODELAY
                    )
                    # The handshake's receive timeout is cleared after
                    # it: recv_message owns deadlines from then on.
                    timeval = _sockopt(
                        conn, socket.SOL_SOCKET, socket.SO_RCVTIMEO, 16
                    )
                    assert timeval == bytes(16)
                # The pong came back, so each agent holds its accepted
                # connection by now.
                for agent in (a, b):
                    assert _sockopt(
                        agent._active_conn,
                        socket.IPPROTO_TCP,
                        socket.TCP_NODELAY,
                    )

    def test_connect_interoperates_with_a_stock_listener(self):
        """The dispatcher side runs the stdlib handshake bytes, so an
        agent on a stock authkey ``Listener`` still answers it."""
        from multiprocessing.connection import Listener

        received = []
        with Listener(
            ("127.0.0.1", 0), family="AF_INET", authkey=DEFAULT_AUTHKEY
        ) as listener:

            def serve_one():
                with listener.accept() as conn:
                    received.append(recv_message(conn, 5.0))
                    send_message(conn, ("pong", PROTOCOL_VERSION))

            thread = threading.Thread(target=serve_one, daemon=True)
            thread.start()
            conn = connect(listener.address, DEFAULT_AUTHKEY, 5.0)
            conn.close()
            thread.join(5.0)
        assert not thread.is_alive()
        assert received == [("ping",)]

    def test_wrong_authkey_dispatcher_is_refused(self, fleet):
        with Dispatcher(fleet[:1], authkey=b"wrong") as dispatcher:
            assert dispatcher.n_live == 0
        with Dispatcher(fleet[:1]) as dispatcher:
            assert dispatcher.n_live == 1

    def test_silent_listener_cannot_block_connect_or_probe(self):
        """``connect_timeout_s`` covers the TCP connect and the
        handshake, not just the ping: a listener that accepts and never
        speaks costs one budget, then the host is skipped."""
        with socket.create_server(("127.0.0.1", 0)) as silent:
            address = format_address(silent.getsockname())
            outcome = _finishes_within(
                2.0, lambda: Dispatcher([address], connect_timeout_s=0.5)
            )
            with outcome["value"] as dispatcher:
                assert dispatcher.n_live == 0
            outcome = _finishes_within(
                2.0, lambda: probe_link_overhead(address, timeout_s=0.5)
            )
            assert isinstance(outcome.get("error"), DistError), outcome

    def test_silent_client_cannot_wedge_the_agent(self, monkeypatch):
        monkeypatch.setattr("repro.dist.worker.CONNECT_TIMEOUT_S", 0.3)
        with WorkerAgent() as agent:
            with socket.create_connection(
                parse_address(agent.address), timeout=5.0
            ) as silent:
                # The challenge arriving proves the agent is now stuck
                # in this connection's handshake.
                assert silent.recv(64)
                outcome = _finishes_within(
                    2.0, lambda: Dispatcher([agent.address])
                )
                with outcome["value"] as dispatcher:
                    assert dispatcher.n_live == 1


class TestProbe:
    def test_link_overhead_is_positive_seconds(self, fleet):
        overhead = probe_link_overhead(fleet[0], repeats=3)
        assert 0.0 < overhead < 5.0

    def test_probe_validates_parameters(self, fleet):
        with pytest.raises(ParameterError):
            probe_link_overhead(fleet[0], repeats=0)
        with pytest.raises(ParameterError):
            probe_link_overhead(fleet[0], payload_bytes=0)

    def test_unreachable_probe_raises(self):
        with pytest.raises(DistError, match="unreachable"):
            probe_link_overhead("127.0.0.1:9", timeout_s=1.0)


class TestExecutorRouting:
    def test_run_distributed_hosts_matches_single_process(self, fleet):
        result = run_distributed(
            EnsembleSpec(family="timeless", n_cores=N_CORES),
            scenario="major-loop",
            h_max=H_MAX,
            driver_step=STEP,
            hosts=fleet,
            n_workers=3,
            chunk_lanes=3,
        )
        assert_results_bitwise_equal(reference_result(), result)

    def test_run_sharded_runs_on_this_host_only(self, fleet):
        """One run reaches a fleet through run_distributed alone:
        run_sharded takes no hosts=."""
        with pytest.raises(TypeError, match="hosts"):
            run_sharded(
                EnsembleSpec(family="timeless", n_cores=N_CORES),
                scenario="major-loop",
                h_max=H_MAX,
                driver_step=STEP,
                hosts=fleet,
            )

    def test_chunked_serial_run_is_bitwise_identical(self):
        result = run_sharded(
            EnsembleSpec(family="timeless", n_cores=N_CORES),
            scenario="major-loop",
            h_max=H_MAX,
            driver_step=STEP,
            n_workers=1,
            chunk_lanes=2,
        )
        assert_results_bitwise_equal(reference_result(), result)


class TestGridRouting:
    def test_grid_over_hosts_matches_local_grid(self, fleet):
        kwargs = dict(
            families=["timeless"],
            scenarios=["major-loop"],
            h_max_values=[H_MAX, 2 * H_MAX],
            n_cores=5,
            driver_step=STEP,
        )
        local = run_scenario_grid(**kwargs, n_workers=1)
        hosted = run_scenario_grid(**kwargs, hosts=fleet)
        assert len(local) == len(hosted)
        for ours, theirs in zip(local, hosted):
            assert ours.key == theirs.key
            assert_results_bitwise_equal(ours.result, theirs.result)


class TestWorkerAgent:
    def test_ping_echo_and_version(self, fleet):
        from multiprocessing.connection import Client

        conn = Client(
            parse_address(fleet[0]), family="AF_INET", authkey=DEFAULT_AUTHKEY
        )
        try:
            send_message(conn, ("ping",))
            assert recv_message(conn, 5.0) == ("pong", PROTOCOL_VERSION)
            send_message(conn, ("echo", b"abc"))
            assert recv_message(conn, 5.0) == ("echo", b"abc")
            send_message(conn, ("frobnicate",))
            reply = recv_message(conn, 5.0)
            assert reply[0] == "error"
            assert "frobnicate" in reply[2]
        finally:
            conn.close()

    def test_dispatcher_shutdown_stops_the_fleet(self):
        with WorkerAgent() as a, WorkerAgent() as b:
            dispatcher = Dispatcher([a.address, b.address])
            assert dispatcher.n_live == 2
            assert dispatcher.shutdown_workers() == 2
            assert dispatcher.n_live == 0
            # Both serve loops observed MSG_SHUTDOWN and closed up.
            assert a._closed.wait(5.0) and b._closed.wait(5.0)

    def test_wrong_authkey_never_kills_the_agent(self, fleet):
        from multiprocessing import AuthenticationError
        from multiprocessing.connection import Client

        with pytest.raises((AuthenticationError, OSError, EOFError)):
            conn = Client(
                parse_address(fleet[0]), family="AF_INET", authkey=b"wrong"
            )
            conn.close()
        # The agent survives the failed handshake and keeps serving.
        assert probe_link_overhead(fleet[0], repeats=1) > 0.0

    def test_cli_worker_serves_a_campaign(self, tmp_path):
        import subprocess
        import sys

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.dist.worker", "--bind",
             "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            banner = proc.stdout.readline().strip()
            prefix = "repro-dist worker listening on "
            assert banner.startswith(prefix)
            address = banner[len(prefix):]
            result = run_distributed(
                EnsembleSpec(family="timeless", n_cores=N_CORES),
                scenario="major-loop",
                h_max=H_MAX,
                driver_step=STEP,
                hosts=[address],
                chunk_lanes=3,
            )
            assert_results_bitwise_equal(reference_result(), result)
        finally:
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()
