"""The benchmark's load process: one workload, one seed, one process.

``perfbench/run.py`` starts this script and times it from launch.  On
stdout it prints the line ``READY`` once set-up is done (imports, pool /
service / agent spawn and a warm-up pass, which pays the cold ensemble
identification wherever the route pays it), then, unless
``--setup-only``, one JSON line with the run's figures.  With
``--trace 1`` it instead drives the same routes with a span around each
layer call they make, and prints the per-layer figures.  Every file it
writes lands under ``--run-dir``.

Results are fingerprinted as they arrive and compared at the end with
references from the in-process ``run_batch_series``, computed after the
timed phase: computed before it, they would leave this process's
Preisach identification cache warm, and the workers that
``run_scenario_grid`` forks would inherit a cache its callers do not
have.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from fleet import Fleet
from spans import Trace

BACKEND = "numpy"
SCENARIOS = ("major-loop", "minor-loop-ladder", "harmonic", "forc-family")
AMPLITUDES = (4e3, 6e3, 8e3)  # A/m

#: campaign: (families, lanes) per run_scenario_grid call of one pass.
#: Preisach runs 8 lanes: both pool workers identify the whole ensemble
#: (~0.13 s a lane) on every pass, and a pass of under 3 s leaves room
#: for enough passes in a run to take a steady median.
CAMPAIGN_GROUPS = ((("timeless", "time-domain"), 512), (("preisach",), 8))
CAMPAIGN_STEP = 150.0  # A/m; the Preisach ensemble's own hint is ~3.3 kA/m

FLEET_FAMILIES = ("timeless", "preisach")
FLEET_LANES = 32
FLEET_STEP = 400.0
FLEET_CHUNK_LANES = 8  # two blocks per shard
FLEET_AGENTS = 2

SERVICE_FAMILIES = ("timeless", "time-domain")
SERVICE_ENSEMBLES = 4  # ensemble seeds per family
SERVICE_LANES = 64
SERVICE_AMPLITUDES = (8e3, 12e3, 16e3)  # A/m
#: Driver samples per request: each key's step is sized to give this
#: many, and the smallest step (~150 A/m) stays above every timeless
#: lane's dhmax, so a request's kernel cost does not hang on the seed.
SERVICE_SAMPLES = 240
SERVICE_WORKERS = 2
SERVICE_CACHE_ENTRIES = 16  # below the 96-key catalogue
SERVICE_CLIENTS = 2
SERVICE_PASS_REQUESTS = 48
ZIPF_EXPONENT = 1.0

#: Stream index of the service's warm-up pass (timed passes count from 0).
WARM_UP_PASS = 1_000_000

#: Timed runs, and each phase of a traced run, make at least this many passes.
MIN_PASSES = 3


def fingerprint(result) -> str:
    """sha256 over the bytes, dtype and shape of ``m``, ``b`` and
    ``updated``: equal fingerprints mean bitwise-equal outputs."""
    digest = hashlib.sha256()
    for arr in (result.m, result.b, result.updated):
        arr = np.ascontiguousarray(arr)
        digest.update(f"{arr.dtype.str}{arr.shape}".encode())
        digest.update(arr)
    return digest.hexdigest()


def reference_fingerprint(spec, drive) -> str:
    """The in-process ``run_batch_series`` result every route must match."""
    from repro.batch.sweep import run_batch_series

    samples = drive.full_samples(spec.n_cores)
    return fingerprint(run_batch_series(spec.build_batch(), samples))


def percentile(values, q: float) -> float:
    """``statistics.quantiles`` percentile ``q`` (0-100), inclusive."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(q) - 1]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tally:
    """Operations attempted and failed.  Each result is fingerprinted as
    it arrives (an exception counts as failed); :meth:`settle` compares
    the fingerprints with the references once those exist."""

    def __init__(self) -> None:
        self.outcomes: list[tuple[int, "str | None"]] = []
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    def record(self, key: int, result) -> None:
        """One operation's outcome; ``key`` indexes the references."""
        self.outcomes.append(
            (key, None if isinstance(result, BaseException) else fingerprint(result))
        )

    def settle(self, references: list[str]) -> None:
        self.failed = sum(
            found is None or found != references[key]
            for key, found in self.outcomes
        )


def summarise(passes: list[dict]) -> dict:
    """End-to-end figures of the timed passes.  Rates are medians of the
    per-pass rates, like the pass time, so a burst of outside load that
    slows a few passes barely moves them.  All read 0 when no pass ran."""

    def median(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    return {
        "pass_s": [p["elapsed"] for p in passes],
        "pass_p50_s": median(p["elapsed"] for p in passes),
        "requests_per_s": median(p["ops"] / p["elapsed"] for p in passes),
        "lane_samples_per_s": median(
            p["lane_samples"] / p["elapsed"] for p in passes
        ),
    }


def note_job(span: dict, job, args) -> None:
    """``annotate`` hook for ``prepare_job``: the job's shards, lane
    blocks and the shared-memory bytes its outputs take (``m`` and ``b``
    float64, ``updated`` bool, plus the extras channels)."""
    from repro.parallel.blocks import plan_lane_blocks

    per_lane_sample = 8 + 8 + 1 + sum(
        np.dtype(dtype).itemsize for dtype in job.extras_schema.values()
    )
    span["attrs"].update(
        shards=len(job.specs),
        blocks=sum(
            len(plan_lane_blocks(s.start, s.stop, s.chunk_lanes))
            for s in job.specs
        ),
        shm_bytes=len(job.h_full) * job.n_total * per_lane_sample,
    )


def first_pass_sum(tr: Trace, name: str, attr: str) -> int:
    """``attr`` summed over the first pass's (op 0) ``name`` spans."""
    return tr.per_op_totals(name, value=lambda s: s["attrs"][attr]).get(0, 0)


def trace_in_process(tr: Trace, cells: list, metrics: dict) -> list[str]:
    """The models, scenarios and batch layers, in this process.

    First the cold ``build_batch`` of every recipe, then ``MIN_PASSES``
    cell-by-cell passes through ``DriveSpec.full_samples`` and
    ``run_batch_series``, one top-level span each.  Returns the first
    pass's fingerprints: the references every served result must match.
    """
    from repro.batch.sweep import run_batch_series

    recipes = list(dict.fromkeys(spec for spec, _ in cells))
    for spec in recipes:
        with tr.span("models.build", family=spec.family):
            spec.build_batch()
    references = []
    lane_samples = {"scenarios": 0, "batch": 0}
    for p in range(MIN_PASSES):
        with tr.span("in_process.pass", op=p):
            for spec, drive in cells:
                with tr.span("scenarios.samples"):
                    samples = drive.full_samples(spec.n_cores)
                with tr.span("models.rebuild", family=spec.family):
                    batch = spec.build_batch()
                with tr.span("batch.run", family=spec.family):
                    result = run_batch_series(batch, samples)
                if p == 0:
                    lane_samples["scenarios"] += samples.size
                    lane_samples["batch"] += result.m.size
                    with tr.span("check"):
                        references.append(fingerprint(result))

    metrics["models.build_s"] = sum(tr.durations("models.build"))
    metrics["models.lanes_built"] = sum(spec.n_cores for spec in recipes)
    metrics["scenarios.samples_s"] = tr.median_per_op("scenarios.samples")
    metrics["scenarios.lane_samples"] = lane_samples["scenarios"]
    for family in ("timeless", "time-domain", "preisach"):
        metrics[f"batch.{family}.run_s"] = tr.median_per_op(
            "batch.run", family=family
        )
    metrics["batch.lane_samples"] = lane_samples["batch"]
    metrics["batch.lane_samples_per_s"] = (
        lane_samples["batch"] / tr.median_per_op("batch.run")
    )
    return references


def overhead(traced: list[float], untraced: list[float]) -> float:
    return statistics.median(traced) - statistics.median(untraced)


# -- grid workloads: campaign and fleet ---------------------------------------


class GridLoad:
    """Back-to-back ``run_scenario_grid`` passes; one op is one cell."""

    groups: tuple = ()
    step = 0.0

    def __init__(self, seed: int, run_dir: Path) -> None:
        self.seed = seed

    def cells(self):
        """``(spec, drive)`` per cell, in the order a pass returns them."""
        from repro.parallel.spec import DriveSpec, EnsembleSpec

        out = []
        for families, lanes in self.groups:
            for family in families:
                spec = EnsembleSpec(family, lanes, self.seed, backend=BACKEND)
                for scenario in SCENARIOS:
                    for h_max in AMPLITUDES:
                        drive = DriveSpec(
                            scenario=scenario, h_max=h_max,
                            driver_step=self.step,
                        )
                        out.append((spec, drive))
        return out

    def grid_kwargs(self) -> dict:
        return {}

    def run_pass(self, scenarios=SCENARIOS, amplitudes=AMPLITUDES) -> list:
        from repro.parallel.grid import run_scenario_grid

        results = []
        for families, lanes in self.groups:
            cells = run_scenario_grid(
                families, scenarios, amplitudes, lanes,
                seed=self.seed, driver_step=self.step, backend=BACKEND,
                **self.grid_kwargs(),
            )
            results.extend(cell.result for cell in cells)
        return results

    def setup(self) -> None:
        """One cell per family: the route's cold start (pool or agents,
        and the Preisach identification where the route pays it)."""
        self.run_pass(SCENARIOS[:1], AMPLITUDES[:1])

    def references(self) -> list[str]:
        return [reference_fingerprint(spec, drive) for spec, drive in self.cells()]

    def timed(self, seconds: float, tally: Tally) -> dict:
        passes = []
        deadline = time.perf_counter() + seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            started = time.perf_counter()
            try:
                results = self.run_pass()
            except Exception as exc:  # noqa: BLE001 - counted, then reported
                traceback.print_exc()
                for key in range(len(self.cells())):
                    tally.record(key, exc)
                break
            elapsed = time.perf_counter() - started
            for key, result in enumerate(results):
                tally.record(key, result)
            passes.append({
                "elapsed": elapsed,
                "ops": len(results),
                "lane_samples": sum(result.m.size for result in results),
            })
            del results  # or the next pass runs beside this one's arrays
        return summarise(passes)

    # -- traced run ---------------------------------------------------------

    def instrument(self, tr: Trace, stack: ExitStack) -> None:
        """Span the public calls this workload's route makes."""
        raise NotImplementedError

    def trace_passes(self, tr: Trace, seconds: float, tally: Tally):
        """Instrumented passes for ``seconds`` (at least ``MIN_PASSES``),
        then as many plain ones.  Returns both lists of pass times."""
        traced, untraced = [], []
        deadline = time.perf_counter() + seconds
        with ExitStack() as stack:
            self.instrument(tr, stack)
            while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
                with tr.span("pass", op=len(traced)) as record:
                    results = self.run_pass()
                traced.append(record["end"] - record["start"])
                self.trace_check(tr, results, tally)
        for _ in traced:
            with tr.span("untraced.pass") as record:
                results = self.run_pass()
            untraced.append(record["end"] - record["start"])
            self.trace_check(tr, results, tally)
        return traced, untraced

    @staticmethod
    def trace_check(tr: Trace, results: list, tally: Tally) -> None:
        with tr.span("check"):
            for key, result in enumerate(results):
                tally.record(key, result)


class CampaignLoad(GridLoad):
    """Default route: one fork pool of ``available_cpus()`` per call.

    Nothing builds an ensemble in this process before a pass, so every
    pass's forked workers identify the Preisach ensemble afresh, as they
    do for any caller that passes ``driver_step``."""

    groups = CAMPAIGN_GROUPS
    step = CAMPAIGN_STEP

    def close(self) -> None:
        pass

    def instrument(self, tr: Trace, stack: ExitStack) -> None:
        import multiprocessing.context
        import multiprocessing.pool

        from repro.parallel import grid

        tr.patch(stack, multiprocessing.context.BaseContext, "Pool",
                 "parallel.pool_spawn")
        tr.patch(stack, multiprocessing.pool.Pool, "__exit__", "parallel.close")
        tr.patch(stack, grid, "prepare_job", "parallel.prepare", note_job)
        tr.patch(stack, grid, "execute_jobs_pooled", "parallel.execute")

    def traced(self, tr: Trace, seconds: float, tally: Tally):
        metrics: dict = {}
        traced, untraced = self.trace_passes(tr, seconds / 2, tally)
        references = trace_in_process(tr, self.cells(), metrics)

        stages = ("pool_spawn", "prepare", "execute")
        for name in stages:
            metrics[f"parallel.{name}_s"] = tr.median_per_op(f"parallel.{name}")
        metrics["parallel.shm_bytes"] = first_pass_sum(
            tr, "parallel.prepare", "shm_bytes"
        )
        metrics["parallel.shards"] = first_pass_sum(tr, "parallel.prepare", "shards")
        serial = tr.median_per_op("batch.run")
        pooled = sum(metrics[f"parallel.{name}_s"] for name in stages)
        metrics["parallel.serial_s"] = serial
        metrics["parallel.pooled_s"] = pooled
        metrics["parallel.speedup"] = serial / pooled
        metrics["trace.overhead_s"] = overhead(traced, untraced)
        return metrics, references


class FleetLoad(GridLoad):
    """The ``hosts=`` route over localhost ``repro.dist.worker`` agents.
    Each agent's first Preisach shard identifies the whole ensemble, so
    the warm-up cell's two Preisach shards warm both agents."""

    groups = ((FLEET_FAMILIES, FLEET_LANES),)
    step = FLEET_STEP

    def __init__(self, seed: int, run_dir: Path) -> None:
        super().__init__(seed, run_dir)
        self.fleet = Fleet(FLEET_AGENTS, run_dir, dict(os.environ))

    def grid_kwargs(self) -> dict:
        return {"hosts": self.fleet.hosts, "chunk_lanes": FLEET_CHUNK_LANES}

    def setup(self) -> None:
        self.fleet.start()
        super().setup()

    def close(self) -> None:
        self.fleet.close()

    def instrument(self, tr: Trace, stack: ExitStack) -> None:
        from repro.dist.dispatch import Dispatcher
        from repro.parallel import grid

        def note_peak(span, _, args):
            span["attrs"]["peak_bytes"] = args[0].budget.peak

        tr.patch(stack, Dispatcher, "__init__", "dist.connect")
        tr.patch(stack, Dispatcher, "run_jobs", "dist.run_jobs")
        tr.patch(stack, Dispatcher, "close", "dist.close", note_peak)
        tr.patch(stack, grid, "prepare_job", "parallel.prepare", note_job)

    def traced(self, tr: Trace, seconds: float, tally: Tally):
        from repro.dist.probe import probe_link_overhead

        metrics: dict = {}
        with tr.span("dist.spawn"):
            self.fleet.start()
        try:
            with tr.span("dist.link_rtt"):
                rtts = [probe_link_overhead(host) for host in self.fleet.hosts]
            # Pass 0 meets cold agents: its run_jobs is their rebuild.
            traced, untraced = self.trace_passes(tr, seconds / 2, tally)
        finally:
            with tr.span("dist.shutdown"):
                self.fleet.close()
        references = trace_in_process(tr, self.cells(), metrics)

        run_jobs = tr.per_op_totals("dist.run_jobs")
        metrics["dist.spawn_s"] = sum(tr.durations("dist.spawn"))
        metrics["dist.link_rtt_s"] = statistics.median(rtts)
        metrics["dist.first_run_jobs_s"] = run_jobs[0]
        metrics["dist.run_jobs_s"] = statistics.median(
            total for op, total in run_jobs.items() if op > 0
        )
        metrics["dist.connect_s"] = statistics.median(tr.durations("dist.connect"))
        metrics["dist.blocks"] = first_pass_sum(tr, "parallel.prepare", "blocks")
        metrics["dist.peak_bytes"] = max(
            s["attrs"]["peak_bytes"] for s in tr.select("dist.close")
        )
        metrics["parallel.prepare_s"] = tr.median_per_op("parallel.prepare")
        metrics["parallel.shards"] = first_pass_sum(tr, "parallel.prepare", "shards")
        # Traced pass 0 met cold agents; every untraced pass is warm.
        metrics["trace.overhead_s"] = overhead(traced[1:], untraced)
        return metrics, references


# -- service-mix ---------------------------------------------------------------


def _scenario_length(scenario: str) -> float:
    """Driver samples per A/m of amplitude per A/m of step."""
    from repro.scenarios import get_scenario

    step = 1e-3
    rows = len(get_scenario(scenario).samples(1.0, step, n_cores=SERVICE_LANES))
    return rows * step


def service_catalogue(seed: int) -> list[tuple]:
    """The 96 request keys ``(family, ensemble_seed, scenario, h_max)``."""
    return [
        (family, SERVICE_ENSEMBLES * seed + ensemble, scenario, h_max)
        for family in SERVICE_FAMILIES
        for scenario in SCENARIOS
        for ensemble in range(SERVICE_ENSEMBLES)
        for h_max in SERVICE_AMPLITUDES
    ]


def zipf_counts(requests: int, n_keys: int) -> np.ndarray:
    """Requests per popularity rank: Zipf frequencies rounded to whole
    counts by largest remainder, so they sum to ``requests``."""
    weights = 1.0 / np.arange(1, n_keys + 1) ** ZIPF_EXPONENT
    expected = requests * weights / weights.sum()
    counts = np.floor(expected).astype(int)
    short = requests - counts.sum()
    counts[np.argsort(-(expected - counts), kind="stable")[:short]] += 1
    return counts


def pass_stream(seed: int, index: int) -> list[list[int]]:
    """One pass's requests as catalogue indices, one list per client.

    Every pass has the same Zipf popularity profile
    (:func:`zipf_counts`); the seed picks which key holds each rank and
    the order requests arrive in.  Ranks are stratified: each run of
    eight consecutive ranks holds one key of every (family, scenario)
    pair, so every pass's hot set has the same make-up.
    """
    rng = np.random.default_rng([seed, index])
    per_stratum = SERVICE_ENSEMBLES * len(SERVICE_AMPLITUDES)
    n_strata = len(SERVICE_FAMILIES) * len(SCENARIOS)
    members = [rng.permutation(per_stratum) for _ in range(n_strata)]
    ranked = [
        stratum * per_stratum + members[stratum][level]
        for level in range(per_stratum)
        for stratum in rng.permutation(n_strata)
    ]
    requests = np.repeat(ranked, zipf_counts(SERVICE_PASS_REQUESTS, len(ranked)))
    rng.shuffle(requests)
    return [
        requests[c::SERVICE_CLIENTS].tolist() for c in range(SERVICE_CLIENTS)
    ]


def interleaved(seed: int, index: int) -> list[int]:
    """One pass's requests in the order one caller would send them."""
    return [key for keys in zip(*pass_stream(seed, index)) for key in keys]


def classify(records) -> tuple[list, list, int]:
    """Split one pass's ``(key, start, end, result)`` records, from a
    cleared cache, into hit and computing latencies plus a coalesced
    count.  A key's first request computes it; requests for the key that
    started before that one ended waited on it (coalesced); the rest
    were served from memory or disk."""
    hits, misses, coalesced = [], [], 0
    by_key: dict = {}
    for record in sorted(records, key=lambda r: r[1]):
        by_key.setdefault(record[0], []).append(record)
    for group in by_key.values():
        first = group[0]
        misses.append(first[2] - first[1])
        for _, start, end, _ in group[1:]:
            if start < first[2]:
                coalesced += 1
            else:
                hits.append(end - start)
    return hits, misses, coalesced


class ServiceLoad:
    """Two asyncio clients against one warm ``HysteresisService``; one op
    is one request.  Each pass starts from an emptied cache (memory and
    spill), so every pass recomputes its distinct keys."""

    def __init__(self, seed: int, run_dir: Path) -> None:
        self.seed = seed
        self.keys = service_catalogue(seed)
        self.service = None
        # One spill directory per load process: a later set-up must not
        # find an earlier one's spilled results.
        self.cache_dir = run_dir / f"cache-{os.getpid()}"
        self._lengths: dict = {}

    def request(self, key: int):
        """``(EnsembleSpec, DriveSpec)`` of one catalogue key; the step
        gives every request about ``SERVICE_SAMPLES`` driver samples."""
        from repro.parallel.spec import DriveSpec, EnsembleSpec

        family, ensemble, scenario, h_max = self.keys[key]
        if scenario not in self._lengths:
            self._lengths[scenario] = _scenario_length(scenario)
        step = self._lengths[scenario] * h_max / SERVICE_SAMPLES
        return (
            EnsembleSpec(family, SERVICE_LANES, ensemble, backend=BACKEND),
            DriveSpec(scenario=scenario, h_max=h_max, driver_step=step),
        )

    def open_service(self):
        from repro.service import HysteresisService

        return HysteresisService(
            SERVICE_WORKERS,
            cache_entries=SERVICE_CACHE_ENTRIES,
            cache_dir=self.cache_dir,
            dispatch_threads=SERVICE_CLIENTS,
        )

    def setup(self) -> None:
        self.service = self.open_service()
        asyncio.run(self.closed_loop(pass_stream(self.seed, WARM_UP_PASS)))

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def references(self) -> list[str]:
        return [
            reference_fingerprint(*self.request(key))
            for key in range(len(self.keys))
        ]

    async def closed_loop(self, stream) -> list:
        """Every client submits its next request once the last returns."""
        records = []

        async def client(indices):
            for key in indices:
                spec, drive = self.request(key)
                started = time.perf_counter()
                try:
                    result = await self.service.submit(spec, drive)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    traceback.print_exc()
                    result = exc
                records.append((key, started, time.perf_counter(), result))

        await asyncio.gather(*(client(indices) for indices in stream))
        return records

    async def _passes(self, seconds, min_passes, tally, max_passes=None):
        """Closed-loop passes until ``seconds`` ran, each from an emptied
        cache.  Results are recorded into ``tally`` as each pass ends,
        then dropped."""
        out = []
        deadline = time.perf_counter() + seconds
        while len(out) < min_passes or (
            time.perf_counter() < deadline
            and (max_passes is None or len(out) < max_passes)
        ):
            self.service.cache.clear(spilled=True)
            before = self.service.cache.stats
            stream = pass_stream(self.seed, len(out))
            started = time.perf_counter()
            records = await self.closed_loop(stream)
            elapsed = time.perf_counter() - started
            after = self.service.cache.stats
            stats = {k: after[k] - before[k] for k in after if k != "entries"}
            stats["computed"] = len(list(self.cache_dir.glob("*.npz")))
            lane_samples = 0
            for key, _, _, result in records:
                tally.record(key, result)
                if not isinstance(result, BaseException):
                    lane_samples += result.m.size
            hits, misses, coalesced = classify(records)
            out.append({
                "elapsed": elapsed, "ops": len(records),
                "lane_samples": lane_samples, "hits": hits, "misses": misses,
                "coalesced": coalesced, "stats": stats,
            })
        return out

    @staticmethod
    def latencies(passes: list[dict]) -> dict:
        hits = [s for p in passes for s in p["hits"]]
        misses = [s for p in passes for s in p["misses"]]
        return {
            "hit_p50_s": statistics.median(hits) if hits else float("nan"),
            "miss_p50_s": statistics.median(misses),
            "miss_p90_s": percentile(misses, 90),
            "misses": len(misses),
        }

    def timed(self, seconds: float, tally: Tally) -> dict:
        passes = asyncio.run(self._passes(seconds, MIN_PASSES, tally))
        figures = summarise(passes)
        figures.update(self.latencies(passes))
        return figures

    # -- traced run ---------------------------------------------------------

    def instrument(self, tr: Trace, stack: ExitStack) -> None:
        """Span the calls ``HysteresisService.run`` makes: digest, cache
        lookup (memory, disk or miss), then on a miss ``prepare_job``,
        ``WorkerPool.execute`` and ``ResultCache.put`` with its spill."""
        from repro.parallel import executor

        service, cache = self.service, self.service.cache
        seen = {"disk_hits": cache.disk_hits}

        def note_outcome(span, result, _):
            span["attrs"]["outcome"] = (
                "miss" if result is None
                else "disk" if cache.disk_hits > seen["disk_hits"]
                else "memory"
            )
            seen["disk_hits"] = cache.disk_hits

        tr.patch(stack, service, "digest_for", "service.digest")
        tr.patch(stack, cache, "get", "service.get", note_outcome)
        tr.patch(stack, executor, "prepare_job", "parallel.prepare", note_job)
        tr.patch(stack, service.pool, "execute", "service.execute")
        tr.patch(stack, cache, "put", "service.put")

    def sequential_pass(self, tr: Trace, name: str, index: int, tally: Tally):
        """One pass through ``HysteresisService.run``, one request at a
        time, from an emptied cache.  Returns its wall time."""
        service = self.service
        with tr.span("service.clear"):
            service.cache.clear(spilled=True)
        with tr.span(name, op=index) as record:
            results = [
                (key, service.run(*self.request(key)))
                for key in interleaved(self.seed, index)
            ]
        with tr.span("check"):
            for key, result in results:
                tally.record(key, result)
        return record["end"] - record["start"]

    def traced(self, tr: Trace, seconds: float, tally: Tally):
        metrics: dict = {}
        phase = seconds / 3
        with tr.span("service.spawn"):
            self.service = self.open_service()
        try:
            traced = []
            deadline = time.perf_counter() + phase
            with ExitStack() as stack:
                self.instrument(tr, stack)
                while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
                    traced.append(
                        self.sequential_pass(tr, "pass", len(traced), tally)
                    )
            untraced = [
                self.sequential_pass(tr, "untraced.pass", index, tally)
                for index in range(len(traced))
            ]
            # The real closed loop, untraced, for the figures that need
            # two concurrent clients (coalescing) and the latencies.
            with tr.span("untraced.closed_loop"):
                passes = asyncio.run(
                    self._passes(phase, 1, tally, max_passes=len(traced))
                )
        finally:
            self.close()
        cells = [self.request(key) for key in range(len(self.keys))]
        references = trace_in_process(tr, cells, metrics)

        metrics["service.spawn_s"] = sum(tr.durations("service.spawn"))
        for name, outcome in (("get_s", "memory"), ("disk_get_s", "disk")):
            values = tr.durations("service.get", outcome=outcome)
            metrics[f"service.{name}"] = statistics.median(values) if values else 0.0
        for name in ("digest", "put", "execute"):
            metrics[f"service.{name}_s"] = statistics.median(
                tr.durations(f"service.{name}")
            )
        metrics["parallel.prepare_s"] = statistics.median(
            tr.durations("parallel.prepare")
        )
        metrics["parallel.shards"] = first_pass_sum(tr, "parallel.prepare", "shards")
        totals = {
            k: sum(p["stats"][k] for p in passes)
            for k in ("hits", "misses", "disk_hits", "evictions", "computed")
        }
        requests = totals["hits"] + totals["misses"]
        metrics["service.requests"] = requests
        metrics["service.hits"] = totals["hits"]
        metrics["service.misses"] = totals["misses"]
        metrics["service.disk_hits"] = totals["disk_hits"]
        metrics["service.evictions"] = totals["evictions"]
        metrics["service.coalesced"] = totals["misses"] - totals["computed"]
        metrics["service.hit_ratio"] = totals["hits"] / requests
        metrics["service.unique_keys"] = len(set(interleaved(self.seed, 0)))
        for name, value in self.latencies(passes).items():
            if name != "misses":
                metrics[f"service.{name}"] = value
        metrics["trace.overhead_s"] = overhead(traced, untraced)
        return metrics, references


LOADS = {"campaign": CampaignLoad, "service-mix": ServiceLoad, "fleet": FleetLoad}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(LOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    load = LOADS[args.workload](args.seed, args.run_dir)
    tally = Tally()
    if args.trace:
        tr = Trace()
        with tr.span("import"):
            import repro.dist.dispatch  # noqa: F401
            import repro.parallel.grid  # noqa: F401
            import repro.service  # noqa: F401
        figures, references = load.traced(tr, args.seconds, tally)
        figures["trace.coverage"] = tr.coverage()
        tr.write(args.run_dir / "trace.json")
    else:
        try:
            load.setup()
            print("READY", flush=True)
            if args.setup_only:
                return 0
            figures = load.timed(args.seconds, tally)
        finally:
            load.close()
        figures["peak_rss_mib"] = peak_rss_mib()
        references = load.references()
    tally.settle(references)
    figures.update(attempted=tally.attempted, failed=tally.failed)
    print(json.dumps(figures), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
