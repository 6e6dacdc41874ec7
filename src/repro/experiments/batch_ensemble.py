"""EXP-B1: batch-ensemble engine — scalar equivalence and throughput.

The enabling claim of the batch subsystem is twofold:

1. **exactness** — advancing N heterogeneous cores in lockstep through
   the pure step kernel reproduces N independent scalar
   :class:`~repro.core.model.TimelessJAModel` runs *bitwise* (not
   approximately: the same IEEE operations execute per lane);
2. **throughput** — one Python-level dispatch per sample amortised over
   N cores beats the per-model scalar loop by well over an order of
   magnitude at ensemble sizes the scaling roadmap cares about.

This experiment measures both on a heterogeneous ensemble:
per-core-perturbed material parameters, per-core ``dhmax``, mixed
``accept_equal`` and per-core waveforms (phase-shifted, amplitude-scaled
major loops).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stability import audit_trajectory_batch
from repro.batch import BatchTimelessModel, run_batch_series
from repro.constants import DEFAULT_DHMAX, FIG1_H_MAX
from repro.core.model import TimelessJAModel
from repro.core.sweep import waypoint_samples
from repro.experiments.registry import ExperimentResult, register
from repro.experiments.runner import measure
from repro.io.table import TextTable
from repro.ja.parameters import PAPER_PARAMETERS, JAParameters
from repro.waveforms.sweeps import major_loop_waypoints


def make_ensemble(
    n_cores: int,
    seed: int = 2006,
    dhmax_base: float = DEFAULT_DHMAX,
) -> tuple[list[JAParameters], np.ndarray, np.ndarray]:
    """A reproducible heterogeneous ensemble: params, dhmax, accept_equal.

    Material parameters are log-uniformly perturbed around the paper's
    set (±30% on ``k``/``a2``/``m_sat``, c in [0.05, 0.4]); ``dhmax``
    spans half to double the base quantum.
    """
    rng = np.random.default_rng(seed)

    def perturb(value: float, spread: float = 0.3) -> float:
        return float(value * np.exp(rng.uniform(np.log(1 - spread), np.log(1 + spread))))

    params = [
        PAPER_PARAMETERS.with_updates(
            k=perturb(PAPER_PARAMETERS.k),
            a2=perturb(PAPER_PARAMETERS.a2),
            m_sat=perturb(PAPER_PARAMETERS.m_sat),
            c=float(rng.uniform(0.05, 0.4)),
            name=f"ensemble-{i}",
        )
        for i in range(n_cores)
    ]
    dhmax = dhmax_base * rng.uniform(0.5, 2.0, size=n_cores)
    accept_equal = rng.random(n_cores) < 0.5
    return params, dhmax, accept_equal


def make_waveforms(
    n_cores: int,
    h_max: float = FIG1_H_MAX,
    driver_step: float = DEFAULT_DHMAX / 4.0,
    seed: int = 2006,
) -> np.ndarray:
    """Per-core waveforms: one shared major-loop schedule, scaled per core.

    All columns share the sample count (lockstep requires it); each core
    sees its own amplitude scale in [0.6, 1.0].
    """
    rng = np.random.default_rng(seed + 1)
    base = waypoint_samples(major_loop_waypoints(h_max, cycles=1), driver_step)
    scales = rng.uniform(0.6, 1.0, size=n_cores)
    return base[:, None] * scales[None, :]


def run_scalar_ensemble(
    params: list[JAParameters],
    dhmax: np.ndarray,
    accept_equal: np.ndarray,
    h: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The per-model Python loop the batch engine replaces (reference)."""
    samples, n = h.shape
    b_out = np.empty((samples, n))
    m_out = np.empty((samples, n))
    for i in range(n):
        model = TimelessJAModel(
            params[i], dhmax=float(dhmax[i]), accept_equal=bool(accept_equal[i])
        )
        model.reset(h_initial=float(h[0, i]))
        step = model._integrator.step
        for s in range(samples):
            step(float(h[s, i]))
            m_out[s, i] = model.m
            b_out[s, i] = model.b
    return m_out, b_out


@register("EXP-B1", "Batch ensemble: bitwise scalar equivalence and throughput")
def run(
    n_cores: int = 64,
    h_max: float = FIG1_H_MAX,
    dhmax_base: float = DEFAULT_DHMAX,
    seed: int = 2006,
) -> ExperimentResult:
    params, dhmax, accept_equal = make_ensemble(
        n_cores, seed=seed, dhmax_base=dhmax_base
    )
    h = make_waveforms(n_cores, h_max=h_max, seed=seed)
    samples = h.shape[0]

    # -- batch engine --------------------------------------------------------
    batch = BatchTimelessModel(params, dhmax=dhmax, accept_equal=accept_equal)
    (batch_seconds,), result = measure(lambda: run_batch_series(batch, h), 1)

    # -- the scalar loop it replaces -----------------------------------------
    (scalar_seconds,), (m_scalar, b_scalar) = measure(
        lambda: run_scalar_ensemble(params, dhmax, accept_equal, h), 1
    )

    equal_lanes = int(
        np.sum(
            np.all(result.b == b_scalar, axis=0)
            & np.all(result.m == m_scalar, axis=0)
        )
    )
    max_delta_b = float(np.max(np.abs(result.b - b_scalar)))
    audits = audit_trajectory_batch(h, result.b)
    acceptable = int(sum(audit.acceptable() for audit in audits))
    core_steps = n_cores * samples
    speedup = scalar_seconds / max(batch_seconds, 1e-12)

    table = TextTable(
        ["engine", "wall time [s]", "core-steps / s", "bitwise-equal lanes"],
        title=(
            f"{n_cores} heterogeneous cores x {samples} samples "
            f"(dhmax in [{dhmax.min():.0f}, {dhmax.max():.0f}] A/m)"
        ),
    )
    table.add_row(
        "scalar loop", scalar_seconds, core_steps / max(scalar_seconds, 1e-12), "-"
    )
    table.add_row(
        "batch ensemble",
        batch_seconds,
        core_steps / max(batch_seconds, 1e-12),
        f"{equal_lanes}/{n_cores}",
    )

    result_obj = ExperimentResult(
        experiment_id="EXP-B1",
        title="Batch ensemble: bitwise scalar equivalence and throughput",
    )
    result_obj.tables = [table]
    result_obj.notes = [
        f"batch vs scalar speedup: {speedup:.1f}x at N = {n_cores}",
        f"max |B_batch - B_scalar| = {max_delta_b:.3e} T "
        "(0 = bitwise, by construction of the shared step kernel)",
        f"stability: {acceptable}/{n_cores} lanes acceptable under the "
        "EXP-T2 audit",
    ]
    result_obj.data = {
        "n_cores": n_cores,
        "samples": samples,
        "batch_seconds": batch_seconds,
        "scalar_seconds": scalar_seconds,
        "speedup": speedup,
        "equal_lanes": equal_lanes,
        "max_delta_b": max_delta_b,
        "audits": audits,
        "batch_result": result,
    }
    return result_obj
