"""EXP-B4: pluggable array backends — fused sweep vs per-sample dispatch.

The scaling story of the backend layer, measured on the timeless family
(the paper's model, and the family with a compiled JIT driver):

1. **per-sample dispatch** — the reference executor loop
   (``run_batch_series(..., fused=False)``): one Python round-trip per
   driver sample (``step`` + property probes + extras dict);
2. **fused sweep, numpy backend** — ``step_series`` advances the whole
   sample axis in one call over the same NumPy ufuncs, **bitwise
   identical** to the per-sample loop (asserted here, lane by lane);
3. **fused sweep, numba backend** — when numba is importable, the whole
   recurrence runs as one nopython-compiled loop, held to the
   backend's ``rtol`` tier instead (the JIT's libm kernels differ from
   NumPy's by 1 ulp; discretiser decisions still match exactly).

A second table records the kernel layer itself, per family and width:
the NumPy fused loop's microseconds per row (one driver sample across
every lane; the median of repeated runs) at a service-mix width and a
stacked-campaign width, each checked bitwise against the per-sample run.
It carries no timing bar.

``benchmarks/test_bench_backend.py`` asserts the headline (fused >= 2x
over per-sample at N = 256) and regenerates both tables into
``results/EXP-B4.txt``.
"""

from __future__ import annotations

import statistics

import numpy as np

from repro.backend import BACKEND_ENV, list_backends, resolve_backend
from repro.batch.engine import BatchTimelessModel
from repro.batch.sweep import run_batch_series
from repro.experiments.registry import ExperimentResult, register
from repro.experiments.runner import measure
from repro.io.table import TextTable
from repro.models.registry import get_family
from repro.scenarios import scenario_samples


def make_timeless_batch(
    n_cores: int, seed: int = 0, backend: str | None = "numpy"
) -> BatchTimelessModel:
    """The benchmark ensemble: the registry's heterogeneous timeless
    recipe (perturbed materials, per-core ``dhmax``/``accept_equal``),
    stacked onto an explicit backend."""
    models = get_family("timeless").make_models(n_cores, seed)
    return BatchTimelessModel.from_scalar_models(models).use_backend(
        resolve_backend(backend)
    )


def bitwise_equal_lanes(reference, candidate) -> int:
    """Lanes of ``candidate`` bitwise equal to ``reference`` (NaN-aware)."""
    equal = np.all(
        (candidate.m == reference.m) | (np.isnan(candidate.m) & np.isnan(reference.m)),
        axis=0,
    ) & np.all(
        (candidate.b == reference.b) | (np.isnan(candidate.b) & np.isnan(reference.b)),
        axis=0,
    )
    return int(np.sum(equal & np.all(candidate.updated == reference.updated, axis=0)))


#: (family, lanes) rows of the kernel-layer table: a service-mix width
#: and a stacked-campaign width (Preisach lanes each carry a relay grid).
KERNEL_ROWS = (
    ("timeless", 64),
    ("timeless", 1536),
    ("time-domain", 64),
    ("time-domain", 1536),
    ("preisach", 8),
    ("preisach", 96),
)

#: Timed runs per kernel-layer row; the row reports their median.
KERNEL_REPEATS = 5


def kernel_rows(seed: int = 0) -> list[dict]:
    """Time each family's NumPy fused loop per row over a major loop
    and check it bitwise against the per-sample run."""
    rows = []
    for name, lanes in KERNEL_ROWS:
        family = get_family(name)
        h = scenario_samples("major-loop", family.h_scale, family.h_scale / 50.0)
        batch = family.make_batch(lanes, seed, backend="numpy")
        twin = type(batch).from_shard_payload(batch.shard_payload(0, lanes))
        reference = run_batch_series(twin, h, fused=False)
        seconds, fused = measure(
            lambda: run_batch_series(batch, h), KERNEL_REPEATS
        )
        bitwise = (
            bitwise_equal_lanes(reference, fused) == lanes
            and all(
                np.array_equal(fused.extras[key], reference.extras[key])
                for key in reference.extras
            )
            and all(
                np.array_equal(fused.counters[key], reference.counters[key])
                for key in reference.counters
            )
        )
        rows.append(
            {
                "family": name,
                "lanes": lanes,
                "rows": len(h),
                "us_per_row": statistics.median(seconds) / len(h) * 1e6,
                "bitwise": bitwise,
            }
        )
    return rows


def max_relative_deviation(reference, candidate) -> float:
    """Largest |Δb| / max|b| over the whole trajectory matrix."""
    scale = float(np.max(np.abs(reference.b)))
    return float(np.max(np.abs(candidate.b - reference.b))) / max(scale, 1e-300)


@register("EXP-B4", "Array backends: fused sweep vs per-sample dispatch")
def run(
    n_cores: int = 256,
    h_max: float = 10e3,
    driver_step: float = 100.0,
    seed: int = 0,
) -> ExperimentResult:
    h = scenario_samples("minor-loop-ladder", h_max, driver_step)
    core_steps = n_cores * len(h)

    (per_sample_seconds,), reference = measure(
        lambda: run_batch_series(
            make_timeless_batch(n_cores, seed), h, fused=False
        ),
        1,
    )

    rows = [
        {
            "backend": "numpy",
            "mode": "per-sample loop",
            "seconds": per_sample_seconds,
            "speedup": 1.0,
            "equivalence": "reference",
        }
    ]
    fused_speedup = 0.0
    equal_lanes = -1
    for backend in list_backends():
        batch = make_timeless_batch(n_cores, seed, backend=backend.name)
        # JIT backends: one warm-up run outside the timing.
        (seconds,), fused = measure(
            lambda: run_batch_series(batch, h), 1,
            warmup=0 if backend.exact else 1,
        )
        speedup = per_sample_seconds / max(seconds, 1e-12)
        if backend.exact:
            lanes = bitwise_equal_lanes(reference, fused)
            equivalence = f"bitwise {lanes}/{n_cores} lanes"
            if backend.name == "numpy":
                fused_speedup = speedup
                equal_lanes = lanes
        else:
            deviation = max_relative_deviation(reference, fused)
            within = deviation <= backend.rtol
            equivalence = (
                f"max rel dev {deviation:.2e} "
                f"({'within' if within else 'OUTSIDE'} rtol {backend.rtol:g})"
            )
        rows.append(
            {
                "backend": backend.name,
                "mode": "fused step_series",
                "seconds": seconds,
                "speedup": speedup,
                "equivalence": equivalence,
            }
        )

    table = TextTable(
        [
            "backend",
            "sweep path",
            "seconds",
            "speedup",
            "core-steps / s",
            "equivalence vs per-sample",
        ],
        title=(
            f"timeless family, {n_cores} cores x {len(h)} samples "
            f"(minor-loop-ladder, step {driver_step:g} A/m)"
        ),
    )
    for row in rows:
        table.add_row(
            row["backend"],
            row["mode"],
            row["seconds"],
            f"{row['speedup']:.1f}x",
            core_steps / max(row["seconds"], 1e-12),
            row["equivalence"],
        )

    kernel = kernel_rows(seed=seed)
    kernel_table = TextTable(
        ["family", "lanes", "rows", "fused us / row", "vs per-sample"],
        title=(
            "kernel layer: NumPy fused loop per row "
            f"(major loop, median of {KERNEL_REPEATS})"
        ),
    )
    for row in kernel:
        kernel_table.add_row(
            row["family"],
            row["lanes"],
            row["rows"],
            f"{row['us_per_row']:.1f}",
            "bitwise" if row["bitwise"] else "DIFFERS",
        )

    registered = ", ".join(b.name for b in list_backends())
    result = ExperimentResult(
        experiment_id="EXP-B4",
        title="Array backends: fused sweep vs per-sample dispatch",
    )
    result.tables = [table, kernel_table]
    result.notes = [
        f"registered backends: {registered}; default for this run: "
        f"{resolve_backend(None).name} (selectable per call or via "
        f"${BACKEND_ENV})",
        "the numpy fused path executes the per-sample loop's exact "
        "IEEE operation sequence with the per-sample Python dispatch "
        "stripped out — bitwise, not approximate",
        "the numba fused path (when registered) compiles the whole "
        "recurrence to one nopython loop and is held to the backend's "
        "rtol tier; discretiser decisions still match exactly",
    ]
    result.data = {
        "rows": rows,
        "n_cores": n_cores,
        "samples": len(h),
        "per_sample_seconds": per_sample_seconds,
        "fused_speedup": fused_speedup,
        "equal_lanes": equal_lanes,
        "backends": [b.name for b in list_backends()],
        "kernel_rows": kernel,
    }
    return result
