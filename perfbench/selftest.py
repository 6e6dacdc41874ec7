"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the repository root; takes a few minutes.  Checks that

* ``BENCHMARK.json`` names the workloads and metrics ``run.py`` prints;
* two traced runs of one seed repeat every count that does not hang on
  thread timing (``batch.lane_samples``, ``parallel.shm_bytes``,
  ``dist.blocks``, ``service.unique_keys``), and another seed changes
  the service request stream;
* top-level spans cover at least 90% of each traced run's wall time;
* a benchmark run leaves ``git status --porcelain`` as it found it;
* no ``repro.dist.worker`` agent outlives a run, including a fleet
  torn down by an exception.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

#: Counts that must repeat exactly for one seed, per workload.
DETERMINISTIC = {
    "campaign": ("batch.lane_samples", "parallel.shm_bytes", "parallel.shards"),
    "service-mix": ("batch.lane_samples", "service.unique_keys"),
    "fleet": ("batch.lane_samples", "dist.blocks", "parallel.shards"),
}
MIN_COVERAGE = 0.9
#: ``--seconds`` of every benchmark run the self-test makes.
SELFTEST_SECONDS = 2


def bench(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SELFTEST_SECONDS),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if out.returncode != 0:
        raise AssertionError(
            f"{workload} seed {seed} trace {trace} exited {out.returncode}:\n"
            f"{out.stderr[-2000:]}"
        )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def agent_pids() -> set[int]:
    """Live processes running ``repro.dist.worker``."""
    pids = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if b"repro.dist.worker" in cmdline:
            pids.add(int(entry.name))
    return pids


def git_status() -> "str | None":
    if not (ROOT / ".git").exists():
        return None
    return subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
        text=True, check=True,
    ).stdout


def check_contract() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def check_traced_runs() -> None:
    for workload, counts in DETERMINISTIC.items():
        first = bench(workload, 1, trace=1)
        second = bench(workload, 1, trace=1)
        for name in counts:
            assert first[name] == second[name] > 0, (workload, name)
        for figures in (first, second):
            assert figures["trace.coverage"] >= MIN_COVERAGE, (
                workload, figures["trace.coverage"]
            )
        print(f"ok  {workload}: counts repeat, coverage "
              f"{first['trace.coverage']:.3f} / {second['trace.coverage']:.3f}")


def check_stream_seeded() -> None:
    from load import pass_stream

    assert pass_stream(1, 0) == pass_stream(1, 0)
    assert pass_stream(1, 0) != pass_stream(2, 0)
    assert pass_stream(1, 0) != pass_stream(1, 1)
    print("ok  service stream: same seed repeats, another seed changes it")


def check_fleet_abort() -> None:
    from fleet import Fleet

    run_dir = ROOT / ".perfbench_runs" / f"selftest-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    pids = []
    try:
        with Fleet(2, run_dir, env) as fleet:
            pids = fleet.pids
            assert set(pids) <= agent_pids()
            raise KeyboardInterrupt("abort the run")
    except KeyboardInterrupt:
        pass
    assert pids and not set(pids) & agent_pids(), pids
    print("ok  fleet: agents reaped after an aborted run")


def main() -> int:
    check_contract()
    print("ok  BENCHMARK.json matches run.py")
    check_stream_seeded()
    before_agents = agent_pids()
    before_status = git_status()
    check_traced_runs()
    bench("fleet", 2, trace=0)
    assert agent_pids() <= before_agents, agent_pids() - before_agents
    print("ok  fleet: no agent outlives a run")
    after_status = git_status()
    if before_status is None:
        print("--  git status: not a git checkout, skipped")
    else:
        assert after_status == before_status, (before_status, after_status)
        print("ok  git status unchanged by benchmark runs")
    check_fleet_abort()
    return 0


if __name__ == "__main__":
    sys.exit(main())
