"""Link-overhead measurement: what one round trip to an agent costs.

Every dispatched shard pays for moving its request out and its result
blocks back.  :func:`probe_link_overhead` measures that cost: it
round-trips a representative payload through a worker agent's
``echo`` handler and reports the median wall-clock seconds —
pickling, both socket directions, and unpickling included.  EXP-B8
reports it as its link row (``link_overhead_s``), and the benchmark's
fleet workload traces it per agent.
"""

from __future__ import annotations

import statistics
import time

from repro.dist.protocol import (
    CONNECT_ERRORS,
    DEFAULT_AUTHKEY,
    MSG_ECHO,
    connect,
    parse_address,
    recv_message,
    send_message,
)
from repro.errors import DistError, ParameterError

#: Default probe payload: roughly one small row block's pickle.
DEFAULT_PAYLOAD_BYTES = 64 * 1024


def probe_link_overhead(
    address: str,
    *,
    authkey: bytes = DEFAULT_AUTHKEY,
    payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
    repeats: int = 5,
    timeout_s: float = 5.0,
) -> float:
    """Median round-trip seconds to one worker agent.

    Each repeat sends ``payload_bytes`` of data through the agent's
    ``echo`` handler and times the full round trip under ``timeout_s``,
    which also bounds the connect, handshake and version ping.  The
    median resists one-off scheduler hiccups; raising ``repeats``
    tightens it.  Unreachable or silent agents raise
    :class:`~repro.errors.DistError`.
    """
    if repeats < 1:
        raise ParameterError(f"repeats must be >= 1, got {repeats}")
    if payload_bytes < 1:
        raise ParameterError(
            f"payload_bytes must be >= 1, got {payload_bytes}"
        )
    try:
        conn = connect(parse_address(address), authkey, timeout_s)
    except CONNECT_ERRORS as exc:
        raise DistError(
            f"cannot probe link overhead: worker {address} unreachable "
            f"({exc})"
        )
    payload = b"\x00" * payload_bytes
    try:
        samples = []
        for _ in range(repeats):
            started = time.perf_counter()
            send_message(conn, (MSG_ECHO, payload))
            reply = recv_message(conn, timeout_s)
            if reply[0] != MSG_ECHO or reply[1] != payload:
                raise DistError(
                    f"worker {address} echoed a corrupted probe payload"
                )
            samples.append(time.perf_counter() - started)
        return statistics.median(samples)
    finally:
        conn.close()
