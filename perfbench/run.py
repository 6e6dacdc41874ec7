"""The repository benchmark: one workload, one seed, one command.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with tracing off: it starts the load process
(``perfbench/load.py``) ``SETUP_SAMPLES`` times, timing each from launch
to ready (``setup_s`` is their median), and the last start goes on to
run the workload for ``--seconds``.  ``--trace 1`` makes one traced run
that reports the per-layer metrics.  Every result is checked bitwise
against an in-process reference.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every operation succeeded.
All files a run writes go under ``.perfbench_runs/`` in the root.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaign", "service-mix", "fleet")
SETUP_SAMPLES = 3
#: Wall-clock budget of one run, every load process included.
RUN_BUDGET_S = 170.0
POOL_WORKERS = 2

END_TO_END = {
    "setup_s": "s",
    "pass_p50_s": "s",
    "requests_per_s": "1/s",
    "lane_samples_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

#: Printed by ``--trace 0`` beside the end-to-end metrics, where they apply.
REPORTED = {
    "hit_p50_s": "s",
    "miss_p50_s": "s",
    "miss_p90_s": "s",
    "misses": "count",
}

PER_LAYER = {
    "models.build_s": "s",
    "models.lanes_built": "count",
    "scenarios.samples_s": "s",
    "scenarios.lane_samples": "count",
    "batch.timeless.run_s": "s",
    "batch.time-domain.run_s": "s",
    "batch.preisach.run_s": "s",
    "batch.lane_samples": "count",
    "batch.lane_samples_per_s": "1/s",
    "parallel.pool_spawn_s": "s",
    "parallel.prepare_s": "s",
    "parallel.execute_s": "s",
    "parallel.shm_bytes": "bytes",
    "parallel.shards": "count",
    "parallel.speedup": "ratio",
    "parallel.serial_s": "s",
    "parallel.pooled_s": "s",
    "service.spawn_s": "s",
    "service.digest_s": "s",
    "service.get_s": "s",
    "service.disk_get_s": "s",
    "service.put_s": "s",
    "service.execute_s": "s",
    "service.requests": "count",
    "service.hits": "count",
    "service.misses": "count",
    "service.disk_hits": "count",
    "service.evictions": "count",
    "service.coalesced": "count",
    "service.unique_keys": "count",
    "service.hit_ratio": "ratio",
    "service.hit_p50_s": "s",
    "service.miss_p50_s": "s",
    "service.miss_p90_s": "s",
    "dist.spawn_s": "s",
    "dist.first_run_jobs_s": "s",
    "dist.connect_s": "s",
    "dist.run_jobs_s": "s",
    "dist.link_rtt_s": "s",
    "dist.blocks": "count",
    "dist.peak_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


class BenchError(RuntimeError):
    """A load process failed, timed out or printed no result."""


def _lines(proc: subprocess.Popen, deadline: float):
    """Yield ``(seconds since launch, line)`` for each stdout line of
    ``proc`` until EOF; :class:`BenchError` past ``deadline``."""
    fd = proc.stdout.fileno()
    pending = b""
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not sel.select(remaining):
                raise BenchError("load process ran past the run budget")
            chunk = os.read(fd, 65536)
            stamp = time.perf_counter()
            if not chunk:
                if pending:
                    yield stamp, pending.decode()
                return
            pending += chunk
            while b"\n" in pending:
                line, pending = pending.split(b"\n", 1)
                yield stamp, line.decode()


def _become_subreaper() -> None:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``), so
    this process can wait for the ones that outlive their parent."""
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # elsewhere the group is still killed, just not waited for


def _reap_orphans() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _reap_group(pgid: int) -> None:
    """Wait until a finished load process's group is empty, reaping each
    member as it ends.  Multiprocessing's resource tracker exits just
    after its parent; anything still there after 5 s is killed."""
    limit = time.monotonic() + 5.0
    while _group_alive(pgid) and time.monotonic() < limit:
        _reap_orphans()
        time.sleep(0.01)
    if _group_alive(pgid):
        print(f"perfbench: killing stray processes of group {pgid}",
              file=sys.stderr)
        os.killpg(pgid, signal.SIGKILL)
        limit = time.monotonic() + 5.0
        while _group_alive(pgid) and time.monotonic() < limit:
            _reap_orphans()
            time.sleep(0.01)


def run_load(args: list[str], env: dict, deadline: float):
    """Start ``load.py``; returns ``(seconds to READY or None, the JSON
    object it printed last or None)``."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "load.py"), *args],
        stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        cwd=ROOT,
        env=env,
        start_new_session=True,
    )
    ready_s, last = None, None
    try:
        for stamp, line in _lines(proc, deadline):
            if line == "READY" and ready_s is None:
                ready_s = stamp - started
            elif line.strip():
                last = line
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        _reap_group(proc.pid)
    if code != 0:
        raise BenchError(f"load process exited with code {code}")
    return ready_s, (json.loads(last) if last is not None else None)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    _become_subreaper()
    # A terminated run still runs the finally blocks that stop its load
    # process and everything that process started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + RUN_BUDGET_S
    run_dir = ROOT / ".perfbench_runs" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    )
    (run_dir / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        REPRO_BACKEND="numpy",
        REPRO_CALIBRATION_FILE=str(run_dir / "calibration.json"),
        REPRO_PARALLEL_MAX_WORKERS=str(POOL_WORKERS),
        TMPDIR=str(run_dir / "tmp"),
    )
    common = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--run-dir", str(run_dir),
    ]
    try:
        if args.trace:
            _, figures = run_load(common + ["--trace", "1"], env, deadline)
            table = PER_LAYER
            metrics = {name: figures.get(name, 0) for name in PER_LAYER}
        else:
            setup = []
            for _ in range(SETUP_SAMPLES - 1):
                ready_s, _ = run_load(common + ["--setup-only"], env, deadline)
                setup.append(ready_s)
            ready_s, figures = run_load(common, env, deadline)
            setup.append(ready_s)
            table = END_TO_END
            metrics = {"setup_s": statistics.median(setup)}
            metrics.update(
                {name: figures[name] for name in END_TO_END if name != "setup_s"}
            )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir / "tmp", ignore_errors=True)

    attempted, failed = figures["attempted"], figures["failed"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, unit in table.items():
        print(f"  {name:28s} {_fmt(metrics[name]):>14s} {unit}")
    if not args.trace:
        print(f"  {'setup_s samples':28s} {' '.join(_fmt(s) for s in setup)}")
        print(f"  {'pass samples':28s} {' '.join(_fmt(s) for s in figures['pass_s'])}")
        for name, unit in REPORTED.items():
            if name in figures:
                print(f"  {name:28s} {_fmt(figures[name]):>14s} {unit}")
    print(f"  {'failed_ratio':28s} {_fmt(failed / max(attempted, 1)):>14s} "
          f"ratio ({failed} of {attempted})")
    correct = attempted > 0 and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in table.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
