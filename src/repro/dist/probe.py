"""Link-overhead measurement for multi-host planning.

The planner prices a remote shard as *compute on that host* plus the
cost of moving the request out and the result blocks back
(:func:`repro.sched.planner.enumerate_candidates`'s
``link_overhead_s``).  That link cost is measured, not guessed:
:func:`probe_link_overhead` round-trips a representative payload
through a worker agent's ``echo`` handler and reports the median
wall-clock seconds — pickling, both socket directions, and unpickling
included, because every dispatched shard pays all of them.
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

#: Default probe payload: roughly one small lane block's pickle.
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
    :class:`~repro.errors.DistError` — the caller decides whether an
    unprobeable host stays in the candidate fleet.
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


def probe_hosts(
    hosts,
    *,
    authkey: bytes = DEFAULT_AUTHKEY,
    payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
    repeats: int = 5,
    timeout_s: float = 5.0,
) -> "dict[str, float]":
    """Link overhead per reachable host; unreachable hosts are omitted
    (their absence, not an exception, is the planning signal)."""
    overheads: dict[str, float] = {}
    for address in hosts:
        try:
            overheads[address] = probe_link_overhead(
                address,
                authkey=authkey,
                payload_bytes=payload_bytes,
                repeats=repeats,
                timeout_s=timeout_s,
            )
        except DistError:
            continue
    return overheads
