"""Command-line runner: regenerate paper artefacts to a results directory.

Usage::

    repro-experiments --list
    repro-experiments EXP-F1 EXP-T2
    repro-experiments --all --output results/

Each experiment writes ``<id>.txt`` (tables + notes) and any extra
artefacts (e.g. the ASCII Figure 1, CSV data) under the output
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.backend import BACKEND_ENV, list_backends, resolve_backend
from repro.errors import ExperimentError
from repro.experiments.registry import list_experiments, run_experiment
from repro.io.csvio import write_bh_csv


def measure(fn, repeats: int, warmup: int = 0):
    """Time ``fn()`` over ``repeats`` calls after ``warmup`` untimed ones.

    Returns ``(seconds, value)``: the wall time of every timed call, in
    call order (at least one), and the last call's return value.  The
    caller reduces the samples, e.g. ``min(seconds)`` for a best-of
    figure.  ``warmup`` calls absorb one-time costs such as JIT
    compilation.
    """
    for _ in range(warmup):
        fn()
    seconds, value = [], None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        value = fn()
        seconds.append(time.perf_counter() - start)
    return seconds, value


def results_header(
    backend: "str | None" = None,
    workers: "int | None" = None,
    threads: "int | None" = None,
    calibration: "str | None" = None,
) -> str:
    """The shared ``# key: value`` stamp every results file leads with.

    One helper instead of per-file f-strings so the header vocabulary
    stays fixed — ``backend`` (array backend actually measured),
    ``workers`` (pool width), ``threads`` (lane threads per worker) and
    ``calibration`` (the :attr:`Calibration.calibration_id` that planned
    the run) — and so a grep for ``# backend:`` works across every
    ``results/`` artefact.  ``None`` fields are omitted, keeping old
    single-axis records byte-compatible.
    """
    fields = (
        ("backend", backend),
        ("workers", workers),
        ("threads", threads),
        ("calibration", calibration),
    )
    return "".join(
        f"# {key}: {value}\n" for key, value in fields if value is not None
    )


def write_bench_json(
    path: Path,
    experiment_id: str,
    records: "list[dict]",
    *,
    backend: "str | None" = None,
    workers: "int | None" = None,
    threads: "int | None" = None,
    calibration: "str | None" = None,
) -> Path:
    """Machine-readable bench trajectory: ``results/BENCH-<exp>.json``.

    The JSON twin of :func:`results_header` + the ``.txt`` tables: the
    same stamp vocabulary (backend / workers / threads / calibration)
    at the top level, plus one record per measured operation — each a
    dict with at least ``op``, ``n`` and ``seconds``, free to carry
    more.  Benchmarks write these alongside the text reports so the
    performance trajectory is diffable and plottable across runs
    without parsing tables.  Written atomically (temp file +
    ``os.replace``) — CI uploads these as artifacts and must never
    capture a half-written file.
    """
    for record in records:
        missing = {"op", "n", "seconds"} - set(record)
        if missing:
            raise ExperimentError(
                f"bench record is missing {sorted(missing)}: {record!r}"
            )
    payload = {
        "experiment": experiment_id,
        "records": list(records),
    }
    for key, value in (
        ("backend", backend),
        ("workers", workers),
        ("threads", threads),
        ("calibration", calibration),
    ):
        if value is not None:
            payload[key] = value
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except FileNotFoundError:
            pass
        raise
    return path


def _write_result(result, output_dir: Path, backend_name: str) -> list[Path]:
    output_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    # The backend header makes every regenerated table attributable:
    # the same experiment on a JIT backend is a different measurement.
    header = results_header(backend=backend_name)
    report_path = output_dir / f"{result.experiment_id}.txt"
    report_path.write_text(header + result.render() + "\n")
    written.append(report_path)

    for stem, text in result.artifacts.items():
        artifact_path = output_dir / f"{result.experiment_id}_{stem}.txt"
        artifact_path.write_text(text + "\n")
        written.append(artifact_path)

    h = result.data.get("h")
    b = result.data.get("b")
    if isinstance(h, np.ndarray) and isinstance(b, np.ndarray):
        csv_path = output_dir / f"{result.experiment_id}_bh.csv"
        write_bh_csv(csv_path, h, b, metadata={"experiment": result.experiment_id})
        written.append(csv_path)
    return written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's figures/tables (see DESIGN.md).",
    )
    parser.add_argument("ids", nargs="*", help="experiment ids (e.g. EXP-F1)")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--output",
        default="results",
        help="output directory (default: ./results)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        help=(
            "array backend for batch engines (registered: "
            + ", ".join(b.name for b in list_backends())
            + f"); defaults to ${BACKEND_ENV} or numpy"
        ),
    )
    args = parser.parse_args(argv)

    backend = resolve_backend(args.backend)
    if args.backend is not None:
        # Experiments construct their models through the registry and
        # scenario surfaces, which resolve the environment default —
        # exporting the choice is what makes --backend reach them.
        os.environ[BACKEND_ENV] = backend.name

    if args.list:
        for experiment in list_experiments():
            print(f"{experiment.experiment_id}: {experiment.title}")
        return 0

    ids = [e.experiment_id for e in list_experiments()] if args.all else args.ids
    if not ids:
        parser.print_usage()
        print("error: give experiment ids, --all or --list", file=sys.stderr)
        return 2

    output_dir = Path(args.output)
    for experiment_id in ids:
        print(f"running {experiment_id} (backend: {backend.name}) ...", flush=True)
        result = run_experiment(experiment_id)
        print(result.render())
        print()
        for path in _write_result(result, output_dir, backend.name):
            print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
