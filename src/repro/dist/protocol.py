"""The repro.dist wire protocol: connections, framing, deadlines,
message shapes.

Transport is the stdlib :mod:`multiprocessing.connection` over TCP —
its ``Connection`` framing and HMAC ``authkey`` challenge, pickling
each message whole.  No third-party dependency, and the payloads are
exactly the picklable spec types the sharded executor already ships
across fork boundaries (:mod:`repro.parallel.spec`): a worker never
receives a live model, only the recipe to rebuild one.

Every connection is opened by one helper pair: :func:`connect` on the
dispatcher side, :func:`accept` on the agent side.  Both switch
``TCP_NODELAY`` on before the first handshake byte — the protocol is
small back-to-back writes (the handshake's replies, a ``block`` then
its ``done``), which Nagle's algorithm would otherwise hold for the
peer's ~40 ms delayed ACK — and both bound the handshake with a
kernel receive timeout.  The handshake bytes are the stdlib's own, so
a stock ``Client``/``Listener`` with the same authkey interoperates.

Message vocabulary (plain tuples, first element the kind):

``("ping",)`` → ``("pong", PROTOCOL_VERSION)``
    Reachability handshake; the version reply refuses mixed fleets.
``("echo", payload)`` → ``("echo", payload)``
    Link-overhead probe (:mod:`repro.dist.probe`).
``("run", digest, spec)``
    Execute one :class:`~repro.parallel.spec.ShardSpec`.  The worker
    streams back ``("block", digest, RowBlock)`` per row block, in row
    order (one block for an unchunked spec); each block carries the
    shard's whole lane range and its own row range.  It finishes with
    ``("done", digest, n_blocks)``; a worker-side exception arrives as
    ``("error", digest, message)``.  Version 2 carries row blocks;
    version 1 streamed lane blocks.
``("shutdown",)``
    Graceful agent stop (no reply; the connection closes).

After the handshake every receive in this package goes through
:func:`recv_message`, which polls with a deadline before touching
``Connection.recv`` — a dead or wedged peer surfaces as
:class:`~repro.errors.DistTimeoutError` instead of a forever-blocked
dispatcher (lint rule L005 enforces this pattern for all dist code).
"""

from __future__ import annotations

import math
import socket
import struct
import time
from multiprocessing import AuthenticationError
from multiprocessing.connection import (
    Connection,
    answer_challenge,
    deliver_challenge,
)

from repro.errors import DistError, DistTimeoutError

#: Bump on any incompatible message-shape change: mixed fleets refuse
#: each other at the ping handshake instead of failing mid-stream.
PROTOCOL_VERSION = 2

#: The message-tag vocabulary.  Every wire message is a tuple whose
#: first element is one of these; dispatch/worker/probe compare against
#: the constants, never the raw strings, so lint rule L010 can prove
#: the whole set is constructed, handled, and version-recorded.
MSG_PING = "ping"
MSG_PONG = "pong"
MSG_ECHO = "echo"
MSG_RUN = "run"
MSG_BLOCK = "block"
MSG_DONE = "done"
MSG_ERROR = "error"
MSG_SHUTDOWN = "shutdown"

#: Every tag, as a set — the introspection handle tests use.
MESSAGE_TAGS = frozenset(
    {
        MSG_PING,
        MSG_PONG,
        MSG_ECHO,
        MSG_RUN,
        MSG_BLOCK,
        MSG_DONE,
        MSG_ERROR,
        MSG_SHUTDOWN,
    }
)

#: Which sibling module(s) must pattern-match each tag (L010 checks
#: the named files really do).  ``worker`` consumes the dispatcher's
#: requests; ``dispatch`` consumes the worker's stream; the ``echo``
#: reply is consumed by both the worker (loopback) and the probe; the
#: ``pong`` reply by :func:`connect`, here.
TAG_HANDLERS = {
    MSG_PING: ("worker",),
    MSG_PONG: ("protocol",),
    MSG_ECHO: ("worker", "probe"),
    MSG_RUN: ("worker",),
    MSG_BLOCK: ("dispatch",),
    MSG_DONE: ("dispatch",),
    MSG_ERROR: ("dispatch",),
    MSG_SHUTDOWN: ("worker",),
}

#: The frozen record of each protocol version's (sorted) tag set.
#: Entries for shipped versions never change; growing or shrinking the
#: vocabulary means adding a new PROTOCOL_VERSION entry here — L010
#: flags a current tag set that does not match its history row.
TAG_HISTORY = {
    1: (
        MSG_BLOCK,
        MSG_DONE,
        MSG_ECHO,
        MSG_ERROR,
        MSG_PING,
        MSG_PONG,
        MSG_RUN,
        MSG_SHUTDOWN,
    ),
    2: (
        MSG_BLOCK,
        MSG_DONE,
        MSG_ECHO,
        MSG_ERROR,
        MSG_PING,
        MSG_PONG,
        MSG_RUN,
        MSG_SHUTDOWN,
    ),
}

#: Default HMAC authkey for the connection handshake.  Dispatch and
#: worker agents must agree; deployments sharing a network segment
#: should pass their own secret.
DEFAULT_AUTHKEY = b"repro-dist"

#: Budget for opening one connection: TCP connect, the HMAC handshake
#: and (dispatcher side) the version ping.
CONNECT_TIMEOUT_S = 5.0

#: What :func:`connect` / :func:`accept` raise for a peer that is
#: unreachable, silent or holds another authkey.  A protocol-version
#: mismatch is a plain DistError outside this set: it refuses the fleet.
CONNECT_ERRORS = (OSError, EOFError, AuthenticationError, DistTimeoutError)

#: Upper bound on one poll slice: even "wait forever" receives wake at
#: this cadence so an agent shutting down can notice promptly.
POLL_SLICE_S = 0.25


def parse_address(address: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` (IPv4/hostname form)."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise DistError(
            f"worker address must be 'host:port', got {address!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise DistError(
            f"worker address port must be an integer, got {address!r}"
        )


def format_address(address: tuple[str, int]) -> str:
    return f"{address[0]}:{address[1]}"


def send_message(conn, message: tuple) -> None:
    """Pickle one message onto the connection."""
    conn.send(message)


def recv_message(conn, deadline_s: "float | None"):
    """Receive one message, polling under a deadline.

    ``deadline_s`` is the remaining time budget in seconds (``None``:
    wait indefinitely, in :data:`POLL_SLICE_S` slices so the caller's
    surrounding loop can still observe shutdown flags between slices).
    Raises :class:`~repro.errors.DistTimeoutError` when the budget runs
    out; ``EOFError``/``OSError`` from a dead peer propagate to the
    caller, which owns the requeue decision.
    """
    if deadline_s is not None and deadline_s <= 0:
        raise DistTimeoutError(
            "deadline expired before the peer sent anything"
        )
    limit = None if deadline_s is None else time.monotonic() + deadline_s
    while True:
        remaining = None if limit is None else limit - time.monotonic()
        if remaining is not None and remaining <= 0:
            raise DistTimeoutError(
                f"peer sent nothing within the {deadline_s:.3g}s deadline"
            )
        slice_s = (
            POLL_SLICE_S
            if remaining is None
            else min(POLL_SLICE_S, remaining)
        )
        if conn.poll(slice_s):
            return conn.recv()


def check_message(message, expected_kind: str) -> tuple:
    """Assert one message's kind, with a protocol-mismatch error."""
    if not isinstance(message, tuple) or not message:
        raise DistError(
            f"malformed wire message {message!r} (expected a non-empty "
            "tuple)"
        )
    if message[0] != expected_kind:
        raise DistError(
            f"expected a {expected_kind!r} message, got {message[0]!r}"
        )
    return message


# -- connections --------------------------------------------------------------


def _tune(conn, recv_timeout_s: float) -> None:
    """Set ``TCP_NODELAY`` and the kernel receive timeout on ``conn``.

    ``SO_RCVTIMEO`` makes a blocking read of the raw descriptor fail
    with ``EAGAIN`` (``BlockingIOError``) once ``recv_timeout_s``
    passes without data; ``0`` clears it.  The socket object only
    borrows the descriptor — ``detach`` hands it back open.
    """
    sock = socket.socket(fileno=conn.fileno())
    try:
        # Connection reads the descriptor directly, so it must block.
        sock.setblocking(True)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Rounded up: a positive budget must never become 0 (no limit).
        micros = math.ceil(recv_timeout_s * 1e6)
        sock.setsockopt(
            socket.SOL_SOCKET,
            socket.SO_RCVTIMEO,
            struct.pack("ll", *divmod(micros, 1_000_000)),
        )
    finally:
        sock.detach()


def _handshake(conn, authkey: bytes, timeout_s: float, steps) -> None:
    """Run the stdlib HMAC challenge ``steps`` on a fresh connection.

    ``TCP_NODELAY`` goes on before the first byte, and each read waits
    at most ``timeout_s``.  The receive timeout is cleared on success:
    :func:`recv_message` owns deadlines from then on.
    """
    if timeout_s <= 0:
        raise DistTimeoutError("connect budget spent before the handshake")
    _tune(conn, timeout_s)
    try:
        for step in steps:
            step(conn, authkey)
    except BlockingIOError:
        raise DistTimeoutError(
            f"peer went silent mid-handshake ({timeout_s:.3g}s read timeout)"
        ) from None
    _tune(conn, 0.0)


def connect(address: "tuple[str, int]", authkey: bytes, timeout_s: float):
    """Open one verified connection to a worker agent (dispatcher side).

    The TCP connect, the HMAC handshake (the stdlib's
    ``answer_challenge`` then ``deliver_challenge``, as a stock
    ``Client`` runs them) and a ``ping`` that must answer
    ``("pong", PROTOCOL_VERSION)`` share one ``timeout_s`` budget: each
    step, and each handshake read, waits at most for what is left of it.
    A refused, silent or unauthenticated peer raises one of
    :data:`CONNECT_ERRORS` (expiry is
    :class:`~repro.errors.DistTimeoutError`); any other reply to the
    ping — another version, a ``pong`` with no version — raises
    :class:`~repro.errors.DistError`.
    """
    limit = time.monotonic() + timeout_s
    try:
        sock = socket.create_connection(address, timeout=timeout_s)
    except TimeoutError:
        raise DistTimeoutError(
            f"no TCP connection to {format_address(address)} within "
            f"{timeout_s:.3g}s"
        ) from None
    conn = Connection(sock.detach())
    try:
        _handshake(
            conn,
            authkey,
            limit - time.monotonic(),
            (answer_challenge, deliver_challenge),
        )
        send_message(conn, (MSG_PING,))
        reply = recv_message(conn, limit - time.monotonic())
        if check_message(reply, MSG_PONG) != (MSG_PONG, PROTOCOL_VERSION):
            raise DistError(
                f"worker {format_address(address)} answered {reply!r}; "
                f"expected ('pong', {PROTOCOL_VERSION}) — mismatched "
                "protocol versions cannot share a fleet"
            )
    except BaseException:
        conn.close()
        raise
    return conn


def accept(listener, authkey: bytes, timeout_s: float):
    """Take one authenticated connection off an agent's listener.

    The listener carries no authkey: the HMAC handshake (the stdlib's
    ``deliver_challenge`` then ``answer_challenge``, as a stock
    ``Listener`` runs them) happens here, after ``TCP_NODELAY`` is on,
    each read bounded by ``timeout_s`` so a client that never speaks
    cannot wedge the agent.  A failed handshake closes the connection
    and raises one of :data:`CONNECT_ERRORS`.
    """
    conn = listener.accept()
    try:
        _handshake(
            conn, authkey, timeout_s, (deliver_challenge, answer_challenge)
        )
    except BaseException:
        conn.close()
        raise
    return conn
