"""EXP-B2: non-JA batch families — bitwise equivalence and throughput.

The EXP-B1 claim, extended to the families the protocol refactor made
batchable:

1. **exactness** — every :class:`~repro.batch.preisach.BatchPreisachModel`
   and :class:`~repro.batch.time_domain.BatchTimeDomainModel` lane
   reproduces the corresponding scalar model over the same driver
   samples *bitwise*;
2. **throughput** — one vectorised update per sample beats the scalar
   per-model Python loop (``benchmarks/test_bench_preisach.py`` asserts
   >= 5x at N = 64 for the relay tensor).

The Preisach ensemble is built by identifying one base model and
perturbing its relay weights per lane (cheap, heterogeneous, and keeps
the ``alpha >= beta`` validity by construction); the time-domain
ensemble runs unguarded on perturbed materials, so its frozen-lane
accounting is exercised too.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.time_domain import TimeDomainJAModel
from repro.batch.preisach import BatchPreisachModel
from repro.batch.sweep import run_batch_series
from repro.batch.time_domain import BatchTimeDomainModel
from repro.core.slope import SlopeGuards
from repro.experiments.registry import ExperimentResult, register
from repro.experiments.runner import measure
from repro.io.table import TextTable
from repro.ja.parameters import PAPER_PARAMETERS
from repro.models.registry import perturbed_parameters
from repro.preisach.identification import identify_from_ja
from repro.preisach.model import PreisachModel
from repro.scenarios import scenario_samples


def make_preisach_ensemble(
    n_cores: int,
    n_cells: int = 24,
    h_sat: float = 20e3,
    identification_dhmax: float = 200.0,
    seed: int = 2006,
) -> list[PreisachModel]:
    """N heterogeneous Preisach cores sharing one identified grid.

    One Everett identification, then per-lane log-uniform weight
    perturbations (±30%): non-negativity and the half-plane constraint
    survive multiplication by positive factors, so every lane stays a
    valid relay model while the ensemble is genuinely heterogeneous.
    """
    base, _ = identify_from_ja(
        PAPER_PARAMETERS,
        n_cells=n_cells,
        h_sat=h_sat,
        dhmax=identification_dhmax,
    )
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(n_cores):
        factors = np.exp(rng.uniform(np.log(0.7), np.log(1.3), base.weights.shape))
        models.append(
            PreisachModel(
                weights=base.weights * factors,
                alpha_thresholds=base.alpha_thresholds,
                beta_thresholds=base.beta_thresholds,
                m_sat=base.m_sat * float(rng.uniform(0.8, 1.2)),
            )
        )
    return models


def make_time_domain_ensemble(
    n_cores: int, seed: int = 2006
) -> list[TimeDomainJAModel]:
    """N unguarded time-domain lanes over perturbed materials."""
    return [
        TimeDomainJAModel(p, guards=SlopeGuards.none())
        for p in perturbed_parameters(n_cores, seed)
    ]


def make_drive(h_max: float, driver_step: float) -> np.ndarray:
    """The shared benchmark drive: the minor-loop-ladder scenario."""
    return scenario_samples("minor-loop-ladder", h_max, driver_step)


def run_scalar_ensemble(models, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-model Python loop the batch engines replace (reference)."""
    samples = len(h)
    n = len(models)
    m_out = np.empty((samples, n))
    b_out = np.empty((samples, n))
    for i, model in enumerate(models):
        model.reset()
        for s in range(samples):
            b_out[s, i] = model.apply_field(float(h[s]))
            m_out[s, i] = model.m
    return m_out, b_out


def _family_row(label, batch, scalars, h):
    """Time batch vs scalar over ``h``; count bitwise-equal lanes."""
    (batch_seconds,), result = measure(lambda: run_batch_series(batch, h), 1)
    (scalar_seconds,), (m_scalar, b_scalar) = measure(
        lambda: run_scalar_ensemble(scalars, h), 1
    )

    equal_lanes = int(
        np.sum(
            np.all(
                (result.b == b_scalar)
                | (np.isnan(result.b) & np.isnan(b_scalar)),
                axis=0,
            )
            & np.all(
                (result.m == m_scalar)
                | (np.isnan(result.m) & np.isnan(m_scalar)),
                axis=0,
            )
        )
    )
    speedup = scalar_seconds / max(batch_seconds, 1e-12)
    return {
        "label": label,
        "batch_seconds": batch_seconds,
        "scalar_seconds": scalar_seconds,
        "speedup": speedup,
        "equal_lanes": equal_lanes,
        "n_cores": batch.n_cores,
        "samples": len(h),
        "result": result,
    }


@register("EXP-B2", "Batch families: non-JA bitwise equivalence and throughput")
def run(
    n_cores: int = 64,
    n_cells: int = 24,
    h_max: float = 10e3,
    driver_step: float = 100.0,
    seed: int = 2006,
) -> ExperimentResult:
    h = make_drive(h_max, driver_step)

    preisach_models = make_preisach_ensemble(n_cores, n_cells=n_cells, seed=seed)
    rows = [
        _family_row(
            "preisach",
            BatchPreisachModel.from_scalar_models(preisach_models),
            preisach_models,
            h,
        ),
        _family_row(
            "time-domain",
            BatchTimeDomainModel.from_scalar_models(
                make_time_domain_ensemble(n_cores, seed=seed)
            ),
            make_time_domain_ensemble(n_cores, seed=seed),
            h,
        ),
    ]

    table = TextTable(
        [
            "family",
            "batch [s]",
            "scalar loop [s]",
            "speedup",
            "core-steps / s",
            "bitwise-equal lanes",
        ],
        title=(
            f"{n_cores} cores x {len(h)} samples "
            f"(minor-loop-ladder drive, step {driver_step:g} A/m)"
        ),
    )
    for row in rows:
        core_steps = row["n_cores"] * row["samples"]
        table.add_row(
            row["label"],
            row["batch_seconds"],
            row["scalar_seconds"],
            f"{row['speedup']:.1f}x",
            core_steps / max(row["batch_seconds"], 1e-12),
            f"{row['equal_lanes']}/{row['n_cores']}",
        )

    result = ExperimentResult(
        experiment_id="EXP-B2",
        title="Batch families: non-JA bitwise equivalence and throughput",
    )
    result.tables = [table]
    result.notes = [
        "equivalence is bitwise (NaN-aware for deliberately unguarded "
        "time-domain lanes), the same standard as EXP-B1's timeless "
        "engine — the batch models are the scalar models, amortised",
        "the Preisach relay tensor switches all cores in one masked "
        "NumPy update per sample; the time-domain lanes share one "
        "vectorised guarded-slope evaluation",
    ]
    result.data = {row["label"]: row for row in rows}
    return result
