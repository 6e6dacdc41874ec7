"""One-time per-host micro-calibration of the execution stack.

The planner (:mod:`repro.sched.planner`) chooses between backends, pool
widths and lane-thread counts from *measured* numbers, not guesses.
This module produces those numbers: :func:`run_calibration` times every
registered family × backend (× pinned thread count, on backends with a
real thread pool) on a small ladder of ``(lanes, samples)`` probes plus
a pool spin-up probe, and the result persists as schema-versioned,
host-stamped JSON (:class:`Calibration`) — stored next to the benchmark
records (``results/calibration.json`` by default, overridable through
the ``REPRO_CALIBRATION_FILE`` environment variable).

The probes deliberately run the *real* execution paths — the registry
factories, ``run_batch_series``'s fused dispatch, a real
``multiprocessing`` pool — so fork cost, JIT warm-up (timed separately
from the steady-state probe) and per-sample vectorised work are all
measured where they actually occur.  Probe budgets are tiny: the
default ladder runs in a few seconds per backend; CI smoke budgets
(:data:`SMOKE_BUDGET`) in well under one.

A calibration is content-addressed: :attr:`Calibration.calibration_id`
is a short digest of the canonical payload, stamped into experiment
headers (see :func:`repro.experiments.runner.results_header`) so a
recorded table names the exact calibration that planned it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import socket
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ParameterError, ReproError

#: Bump when the JSON layout changes incompatibly; load() rejects files
#: written by a different schema.
SCHEMA_VERSION = 1

#: Environment override for the calibration file location.
CALIBRATION_ENV = "REPRO_CALIBRATION_FILE"

#: Default location, versioned alongside the benchmark records.
DEFAULT_CALIBRATION_PATH = Path("results") / "calibration.json"

#: The tiny probe budget CI smoke runs (and in-process auto-calibration)
#: use: one warm repeat over a 2-point ladder per family x backend.
SMOKE_BUDGET = {"lanes": (4, 16), "samples": (32, 128), "repeats": 1}


def default_calibration_path() -> Path:
    """The calibration file location (environment override first)."""
    env = os.environ.get(CALIBRATION_ENV, "").strip()
    return Path(env) if env else DEFAULT_CALIBRATION_PATH


@dataclass(frozen=True)
class Probe:
    """One timed probe: a family on a backend, pinned thread count,
    ``lanes`` lanes over ``samples`` driver samples, in ``seconds``
    (best of the repeats — the least-noise estimator on shared hosts)."""

    family: str
    backend: str
    threads: int
    lanes: int
    samples: int
    seconds: float


@dataclass(frozen=True)
class Calibration:
    """A persisted micro-calibration: host stamp, probe timings, pool
    overhead.  Everything the cost model needs, nothing executable."""

    host: dict
    probes: tuple
    pool: dict
    created: str = ""
    schema_version: int = SCHEMA_VERSION
    notes: tuple = ()

    def __post_init__(self) -> None:
        # Normalise probes to Probe records (from_json hands in dicts).
        object.__setattr__(
            self,
            "probes",
            tuple(
                p if isinstance(p, Probe) else Probe(**p) for p in self.probes
            ),
        )

    @property
    def calibration_id(self) -> str:
        """Short content digest — the id experiment headers stamp."""
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    @property
    def families(self) -> tuple:
        return tuple(sorted({p.family for p in self.probes}))

    @property
    def backends(self) -> tuple:
        return tuple(sorted({p.backend for p in self.probes}))

    def thread_counts(self, family: str, backend: str) -> tuple:
        """The pinned thread counts probed for one family × backend."""
        return tuple(
            sorted(
                {
                    p.threads
                    for p in self.probes
                    if p.family == family and p.backend == backend
                }
            )
        )

    # -- persistence -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Calibration":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"calibration file is not JSON: {exc}")
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ParameterError(
                f"calibration schema {version!r} does not match this "
                f"build's schema {SCHEMA_VERSION}; re-run the calibration "
                "(python -m repro.sched.calibrate)"
            )
        try:
            return cls(
                host=payload["host"],
                probes=tuple(payload["probes"]),
                pool=payload["pool"],
                created=payload.get("created", ""),
                schema_version=version,
                notes=tuple(payload.get("notes", ())),
            )
        except (KeyError, TypeError) as exc:
            raise ParameterError(f"calibration file is incomplete: {exc}")

    def save(self, path: "Path | str | None" = None) -> Path:
        """Persist atomically: write a temp file in the target directory
        and ``os.replace`` it over the destination.  ``get_calibration``
        auto-creates this file mid-run; a reader racing (or a writer
        crashing) must see either the old complete file or the new one,
        never a truncated JSON that would fail every later load."""
        target = Path(path) if path is not None else default_calibration_path()
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=target.parent, prefix=target.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(self.to_json())
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except FileNotFoundError:
                pass
            raise
        return target

    @classmethod
    def load(cls, path: "Path | str | None" = None) -> "Calibration":
        target = Path(path) if path is not None else default_calibration_path()
        if not target.exists():
            raise ParameterError(
                f"no calibration file at {target}; run "
                "python -m repro.sched.calibrate (or pass plan=None for "
                "explicit knobs)"
            )
        return cls.from_json(target.read_text())


def host_stamp() -> dict:
    """The host fingerprint stamped into every calibration."""
    from repro.backend import has_threading, max_threads
    from repro.parallel.executor import available_cpus

    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "hostname": socket.gethostname(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba_version,
        "cpus": available_cpus(),
        "max_threads": max_threads() if has_threading() else 1,
    }


def probe_drive(h_scale: float, samples: int) -> np.ndarray:
    """A shared sine drive with exactly ``samples`` points at the
    family's amplitude — representative per-sample work (threshold
    crossings, relay scans) without scenario machinery in the timing."""
    if samples < 2:
        raise ParameterError(f"probe needs >= 2 samples, got {samples}")
    phase = np.linspace(0.0, 2.0 * np.pi, samples)
    return float(h_scale) * np.sin(phase)


def _time_run(batch, h: np.ndarray, repeats: int) -> float:
    """Best-of-``repeats`` wall time of one fused series run."""
    from repro.batch.sweep import run_batch_series

    best = np.inf
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        run_batch_series(batch, h)
        best = min(best, time.perf_counter() - start)
    return float(best)


def _pool_overhead() -> dict:
    """Measured pool spin-up: fork + one trivial map + teardown, split
    into a base and a per-worker component from two pool widths.  It
    forks as every pool of the executor does
    (:func:`repro.parallel.pool.fork_context`); where ``fork`` is
    missing, the pooled route cannot run, and its spin-up is priced
    infinite, so no plan picks it."""
    from repro.parallel.pool import fork_context

    try:
        ctx = fork_context()
    except ReproError:
        return {"base_seconds": math.inf, "per_worker_seconds": math.inf}

    def spin(workers: int) -> float:
        start = time.perf_counter()
        with ctx.Pool(processes=workers) as pool:
            pool.map(int, range(workers))
        return time.perf_counter() - start

    t1 = spin(1)
    t2 = spin(2)
    per_worker = max(t2 - t1, 0.0)
    base = max(t1 - per_worker, 0.0)
    return {"base_seconds": base, "per_worker_seconds": per_worker}


def _thread_ladder(backend_name: str, cpus: int) -> "tuple[int, ...]":
    """Thread counts worth probing for one backend: only backends with
    compiled drivers have a lane thread pool, and only multi-CPU hosts
    can exploit it."""
    from repro.backend import get_backend, has_threading, max_threads

    if not has_threading() or not get_backend(backend_name).fused_families:
        return (1,)
    cap = min(cpus, max_threads())
    ladder = sorted({1, min(2, cap), min(4, cap), cap})
    return tuple(t for t in ladder if t >= 1)


def run_calibration(
    families: "Sequence[str] | None" = None,
    backends: "Sequence[str] | None" = None,
    lanes: Iterable[int] = (4, 16, 64),
    samples: Iterable[int] = (64, 256),
    repeats: int = 2,
    seed: int = 0,
) -> Calibration:
    """Run the micro-calibration and return the (unsaved) result.

    For every family × backend, each ``(lanes, samples)`` ladder cell is
    timed on the fused single-process path — JIT backends get one
    untimed warm-up call per (family, thread count) first, so the probe
    measures steady state, and thread counts above 1 are probed only on
    backends with compiled drivers (:func:`_thread_ladder`).  One pool
    spin-up probe measures the fork/IPC fixed cost the sharded executor
    pays per worker.
    """
    from repro.backend import get_backend, list_backends, thread_limit
    from repro.models.registry import get_family, list_families

    lanes = tuple(sorted({int(n) for n in lanes}))
    samples = tuple(sorted({int(s) for s in samples}))
    if not lanes or min(lanes) < 1:
        raise ParameterError(f"probe lanes must be >= 1, got {lanes}")
    if not samples or min(samples) < 2:
        raise ParameterError(f"probe samples must be >= 2, got {samples}")

    family_records = (
        [get_family(name) for name in families]
        if families is not None
        else list_families()
    )
    backend_records = (
        [get_backend(name) for name in backends]
        if backends is not None
        else list_backends()
    )

    host = host_stamp()
    probes: list[Probe] = []
    for family in family_records:
        for backend in backend_records:
            for threads in _thread_ladder(backend.name, host["cpus"]):
                with thread_limit(threads) as effective:
                    if effective != threads:
                        continue  # clamped: this host cannot pin it
                    warmed = False
                    for n in lanes:
                        batch = family.make_batch(
                            n, seed=seed, backend=backend.name
                        )
                        for count in samples:
                            h = probe_drive(family.h_scale, count)
                            if not backend.exact and not warmed:
                                # JIT warm-up, untimed (recorded runs
                                # measure steady state; the compile cost
                                # is per process and per kernel variant).
                                _time_run(batch, h, repeats=1)
                                warmed = True
                            probes.append(
                                Probe(
                                    family=family.name,
                                    backend=backend.name,
                                    threads=threads,
                                    lanes=n,
                                    samples=count,
                                    seconds=_time_run(batch, h, repeats),
                                )
                            )

    return Calibration(
        host=host,
        probes=tuple(probes),
        pool=_pool_overhead(),
        created=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    )


def get_calibration(
    path: "Path | str | None" = None,
    create: bool = True,
) -> Calibration:
    """Load the persisted calibration, micro-calibrating once if absent.

    The auto-created calibration uses the :data:`SMOKE_BUDGET` ladder —
    coarse but measured — and persists, so the cost is paid once per
    host; regenerate with a fuller budget via
    ``python -m repro.sched.calibrate`` when plans matter.
    """
    target = Path(path) if path is not None else default_calibration_path()
    if target.exists():
        return Calibration.load(target)
    if not create:
        raise ParameterError(
            f"no calibration file at {target}; run "
            "python -m repro.sched.calibrate"
        )
    calibration = run_calibration(**SMOKE_BUDGET)
    calibration.save(target)
    return calibration
