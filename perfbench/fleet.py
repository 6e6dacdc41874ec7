"""A localhost fleet of ``python -m repro.dist.worker`` agents.

:class:`Fleet` starts the agents as subprocesses, scrapes each bound
address from the agent's first stdout line, captures its stderr to a
file in the run directory, and always reaps: a graceful
``Dispatcher.shutdown_workers()`` first, then a kill for any agent still
alive, in a ``finally`` — so no agent outlives the run, whether it ends
normally or by an exception.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import sys
import time
from pathlib import Path

#: Prefix of the agent's first stdout line (``repro.dist.worker.main``).
LISTENING = "repro-dist worker listening on "
#: Seconds every agent of a fleet has to announce its address.
START_TIMEOUT_S = 60.0


class FleetError(RuntimeError):
    """An agent failed to start or to announce its address."""


def _first_line(proc: subprocess.Popen, deadline: float) -> str:
    """The first stdout line of ``proc``, or :class:`FleetError` when
    none arrives before ``deadline`` (``time.monotonic`` seconds)."""
    fd = proc.stdout.fileno()
    buffered = b""
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while b"\n" not in buffered:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not sel.select(remaining):
                raise FleetError("agent announced no address in time")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise FleetError(
                    f"agent exited with code {proc.wait()} before "
                    "announcing its address"
                )
            buffered += chunk
    return buffered.split(b"\n", 1)[0].decode()


class Fleet:
    """``n_agents`` worker agents on 127.0.0.1, ephemeral ports."""

    def __init__(self, n_agents: int, log_dir: Path, env: dict) -> None:
        self.n_agents = n_agents
        self.log_dir = Path(log_dir)
        self.env = env
        self.procs: list[subprocess.Popen] = []
        self.hosts: list[str] = []

    @property
    def pids(self) -> list[int]:
        return [proc.pid for proc in self.procs]

    def start(self) -> "Fleet":
        deadline = time.monotonic() + START_TIMEOUT_S
        try:
            for i in range(self.n_agents):
                with open(self.log_dir / f"agent-{i}.stderr", "wb") as err:
                    self.procs.append(
                        subprocess.Popen(
                            [sys.executable, "-m", "repro.dist.worker",
                             "--bind", "127.0.0.1:0"],
                            stdout=subprocess.PIPE,
                            stderr=err,
                            stdin=subprocess.DEVNULL,
                            env=self.env,
                        )
                    )
            for proc in self.procs:
                line = _first_line(proc, deadline)
                if not line.startswith(LISTENING):
                    raise FleetError(f"unexpected agent banner {line!r}")
                self.hosts.append(line[len(LISTENING):].strip())
        except BaseException:
            self.close()
            raise
        return self

    def close(self) -> None:
        """Shut every agent down, then kill and reap what is left."""
        try:
            if self.hosts:
                from repro.dist.dispatch import Dispatcher

                with Dispatcher(self.hosts, connect_timeout_s=5.0) as fleet:
                    fleet.shutdown_workers()
        finally:
            for proc in self.procs:
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
            self.procs = []
            self.hosts = []

    def __enter__(self) -> "Fleet":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
