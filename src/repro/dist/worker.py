"""The repro.dist worker agent: one socket, shard specs in, row
blocks out.

``python -m repro.dist.worker --bind HOST:PORT`` starts an agent that
accepts dispatcher connections (one at a time — a dispatcher holds one
connection per agent for a whole campaign), rebuilds each received
:class:`~repro.parallel.spec.ShardSpec` into its sub-ensemble
worker-side (never a shipped live model), executes it through the same
:func:`repro.parallel.blocks.iter_shard_blocks` generator the local
executor uses, and streams every row block back, in row order, as
soon as it exists — a chunked shard never materialises its full result
on either side of the socket.

:class:`WorkerAgent` is also usable in-process (``start()`` runs the
accept loop on a daemon thread), which is how the test suite and the
link-overhead probe spin up localhost fleets without subprocesses.
"""

from __future__ import annotations

import logging
import socket
import threading
import traceback

from multiprocessing.connection import Listener

from repro.dist.protocol import (
    CONNECT_ERRORS,
    CONNECT_TIMEOUT_S,
    DEFAULT_AUTHKEY,
    MSG_BLOCK,
    MSG_DONE,
    MSG_ECHO,
    MSG_ERROR,
    MSG_PING,
    MSG_PONG,
    MSG_RUN,
    MSG_SHUTDOWN,
    PROTOCOL_VERSION,
    accept,
    format_address,
    recv_message,
    send_message,
)
from repro.parallel.blocks import iter_shard_blocks

_log = logging.getLogger(__name__)


class WorkerAgent:
    """One dispatchable execution agent bound to a TCP address.

    ``port=0`` binds an ephemeral port; read the actual address back
    from :attr:`address` (the CLI prints it, so orchestration scripts
    can scrape it from the first stdout line).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        authkey: bytes = DEFAULT_AUTHKEY,
    ) -> None:
        # No authkey on the listener: protocol.accept runs the HMAC
        # handshake itself, after TCP_NODELAY is on.
        self._listener = Listener((host, port), family="AF_INET")
        self._authkey = authkey
        # Cached at bind time: the listener forgets its address on
        # close, and stop() must stay idempotent.
        self._address = self._listener.address
        self._closed = threading.Event()
        self._thread: threading.Thread | None = None
        self._conn_lock = threading.Lock()
        self._active_conn = None

    @property
    def address(self) -> str:
        """The bound ``"host:port"`` (ephemeral port resolved)."""
        return format_address(self._address)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "WorkerAgent":
        """Serve on a daemon thread (in-process fleets for tests).

        Idempotent: a second call while the serve thread is alive is a
        no-op, so ``with WorkerAgent() as agent`` composes with an
        explicit ``start()``.
        """
        if self._thread is not None and self._thread.is_alive():
            return self
        self._thread = threading.Thread(
            target=self.serve_forever, name=f"repro-dist-{self.address}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting and drop the active connection."""
        self._closed.set()
        with self._conn_lock:
            conn = self._active_conn
            self._active_conn = None
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        # Closing a listening socket does not wake an accept() blocked
        # in another thread; poke one throwaway connection in so the
        # serve loop observes the closed flag promptly.
        try:
            poke = socket.create_connection(self._address, timeout=1.0)
            poke.close()
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "WorkerAgent":
        # A bound-but-unserved listener accepts TCP connects into the
        # backlog and then never answers the authkey handshake — a
        # client would wait out its whole connect budget — so entering
        # the context serves.
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- serving -----------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept → handle, until :meth:`stop` closes the listener."""
        while not self._closed.is_set():
            try:
                conn = accept(
                    self._listener, self._authkey, CONNECT_TIMEOUT_S
                )
            except CONNECT_ERRORS as exc:
                # Listener closed (stop()), or a client failed the
                # handshake — keep serving in the latter case.
                if self._closed.is_set():
                    return
                _log.warning(
                    "repro.dist agent %s rejected a connection: %s",
                    self.address, exc,
                )
                continue
            with self._conn_lock:
                self._active_conn = conn
            try:
                self._handle(conn)
            except (EOFError, OSError) as exc:
                # The dispatcher hung up mid-stream (it retires a
                # connection whose job failed or timed out): that ends
                # this connection, never the agent.
                _log.warning(
                    "repro.dist agent %s lost its dispatcher: %s",
                    self.address, exc,
                )
            finally:
                with self._conn_lock:
                    self._active_conn = None
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already torn down
                    pass

    def _handle(self, conn) -> None:
        """One dispatcher connection: request loop until it hangs up."""
        while not self._closed.is_set():
            try:
                message = recv_message(conn, None)
            except (EOFError, OSError):
                return
            kind = message[0]
            if kind == MSG_PING:
                send_message(conn, (MSG_PONG, PROTOCOL_VERSION))
            elif kind == MSG_ECHO:
                send_message(conn, (MSG_ECHO, message[1]))
            elif kind == MSG_RUN:
                _, digest, spec = message
                self._run(conn, digest, spec)
            elif kind == MSG_SHUTDOWN:
                self._closed.set()
                try:
                    self._listener.close()
                except OSError:  # pragma: no cover - already torn down
                    pass
                return
            else:
                send_message(
                    conn, (MSG_ERROR, None, f"unknown message kind {kind!r}")
                )

    def _run(self, conn, digest: str, spec) -> None:
        """Execute one shard spec, streaming its row blocks back.

        Worker-side exceptions travel as ``("error", ...)`` messages —
        a failed rebuild or a family-schema error must reach the
        dispatcher as a campaign error, not a silent hang.  A broken
        pipe mid-stream just ends the connection; the dispatcher
        requeues from its side.
        """
        n_blocks = 0
        try:
            for block in iter_shard_blocks(spec):
                send_message(conn, (MSG_BLOCK, digest, block))
                n_blocks += 1
            send_message(conn, (MSG_DONE, digest, n_blocks))
        except (EOFError, OSError):
            raise
        except Exception as exc:  # noqa: BLE001 - forwarded to dispatcher
            # %.12s: the digest is None on undigestable payload routes.
            _log.warning("shard %.12s failed worker-side: %s", digest, exc)
            try:
                send_message(
                    conn,
                    (
                        MSG_ERROR,
                        digest,
                        f"{type(exc).__name__}: {exc}\n"
                        + traceback.format_exc(limit=8),
                    ),
                )
            except (EOFError, OSError):  # pragma: no cover - peer gone too
                pass


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry: ``python -m repro.dist.worker --bind HOST:PORT``."""
    import argparse

    from repro.dist.protocol import parse_address

    parser = argparse.ArgumentParser(
        prog="python -m repro.dist.worker",
        description="Serve repro shard specs over one TCP socket.",
    )
    parser.add_argument(
        "--bind",
        default="127.0.0.1:0",
        help="HOST:PORT to listen on (port 0: ephemeral, printed on start)",
    )
    parser.add_argument(
        "--authkey",
        default=None,
        help="connection authkey (default: the library-wide default)",
    )
    args = parser.parse_args(argv)
    host, port = parse_address(args.bind)
    authkey = (
        DEFAULT_AUTHKEY if args.authkey is None else args.authkey.encode()
    )
    agent = WorkerAgent(host=host, port=port, authkey=authkey)
    # The scrape-able contract: first stdout line names the bound
    # address (ephemeral ports resolved), nothing else precedes it.
    print(f"repro-dist worker listening on {agent.address}", flush=True)
    try:
        agent.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        agent.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
