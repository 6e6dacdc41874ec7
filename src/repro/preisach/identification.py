"""Preisach identification from first-order reversal curves (FORCs).

The Everett function ``E(alpha, beta)`` is the half-difference between
the ascending major branch at ``alpha`` and the first-order reversal
curve that turns around at ``alpha`` and descends to ``beta``::

    E(alpha, beta) = (m_asc(alpha) - m_forc(alpha -> beta)) / 2

For a true Preisach material ``E`` equals the integral of the weight
density over the triangle ``{beta <= b <= a <= alpha}``, so cell
weights follow from the mixed second difference of ``E`` on the grid.
Generating the FORCs from the timeless JA model and feeding the
resulting weights to :class:`repro.preisach.model.PreisachModel` yields
a Preisach model *identified against JA* — the cross-model experiment
EXP-X4 measures how well it predicts JA behaviour it was not fitted to
(minor loops).

JA is not exactly a Preisach material, so small negative second
differences occur; they are clipped to zero and the clipped mass is
reported (a few percent for the paper's parameters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.model import TimelessJAModel
from repro.core.sweep import run_sweep, waypoint_samples
from repro.errors import ParameterError
from repro.ja.parameters import JAParameters
from repro.preisach.model import PreisachModel


@dataclass(frozen=True)
class EverettMap:
    """Everett function sampled on the node grid.

    ``values[i, j] = E(nodes[i], nodes[j])`` for ``nodes[j] <= nodes[i]``
    (0 elsewhere).
    """

    nodes: np.ndarray
    values: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def adaptive_nodes(
    params: JAParameters,
    n_cells: int,
    h_sat: float,
    dhmax: float = 50.0,
) -> np.ndarray:
    """Threshold nodes at equal magnetisation quantiles.

    The intuition: a uniform grid wastes cells on the flat saturation
    tails while the steep region around +/-Hc stays under-resolved, so
    place nodes at equal increments of |dm| along the major branch
    (symmetrised for both polarities).

    Measured outcome (kept as a documented negative result, see
    EXP-X4): on the paper's JA parameters this *hurts* — the squeezed
    steep-region cells concentrate the JA model's non-Preisach negative
    Everett mass (clipped fraction grows from ~2% to ~10%) and the
    identified model gets worse everywhere.  ``everett_from_ja``
    therefore defaults to the uniform grid; this function remains for
    experimentation.
    """
    model = TimelessJAModel(params, dhmax=dhmax)
    run_sweep(model, [0.0, h_sat, -h_sat, h_sat])
    descent = run_sweep(model, [h_sat, -h_sat], reset=False)
    h_branch = descent.h[::-1]  # ascending order for interpolation
    m_branch = (descent.m / params.m_sat)[::-1]
    slope = np.abs(np.gradient(m_branch, h_branch))
    if not np.any(slope > 0.0):
        raise ParameterError("descending branch shows no magnetisation change")

    # Symmetrise: alpha thresholds need resolution where the *ascending*
    # branch is steep (+Hc side), beta thresholds where the descending
    # one is (-Hc side); for a symmetric loop the ascending density is
    # the mirrored descending one.  A small uniform floor keeps the
    # saturation tails from collapsing to zero-width cells.
    grid = np.linspace(-h_sat, h_sat, 4001)
    density = np.interp(grid, h_branch, slope)
    density = density + density[::-1]
    density += 0.05 * np.max(density)
    cumulative = np.concatenate([[0.0], np.cumsum(
        0.5 * (density[1:] + density[:-1]) * np.diff(grid)
    )])
    targets = np.linspace(0.0, cumulative[-1], n_cells + 1)
    nodes = np.interp(targets, cumulative, grid)
    nodes[0] = -h_sat
    nodes[-1] = h_sat
    # Enforce strict monotonicity (degenerate only if n_cells is huge).
    min_gap = (2.0 * h_sat) / (100.0 * n_cells)
    for i in range(1, len(nodes)):
        if nodes[i] <= nodes[i - 1] + min_gap:
            nodes[i] = nodes[i - 1] + min_gap
    nodes[-1] = max(nodes[-1], h_sat)
    return nodes


#: Cores measured per stacked FORC pass.  Each core adds ``n_cells``
#: lanes, and a pass records every lane's whole FORC, so the width caps
#: identification's transient memory: on the registry's 12-cell grid a
#: 64-core pass adds ~26 MiB of peak RSS where one 512-core pass adds
#: ~150 MiB.
_IDENTIFY_GROUP = 64
#: Lane-samples per pass (a 16 MiB float64 record).  Fine grids have
#: long FORCs, so they run fewer cores per pass: 64 cores on
#: ``identify_ensemble_from_ja``'s default 40-cell, dhmax = 50 grid
#: would record ~220 MiB per channel.
_IDENTIFY_LANE_SAMPLES = 2**21


def _forc_drive(
    nodes: np.ndarray, h_sat: float, dhmax: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The FORC family's drive as ``(h, ascent, descent)``.

    ``h`` is ``(samples, n_cells)``: lane ``k`` is the FORC at
    ``alpha = nodes[k + 1]`` (the bottom node's FORC is a point), with
    the scalar FORC loop's exact driver samples — the ascent
    ``[0, +sat, -sat, alpha]``, then the descent ``[alpha, bottom]``
    whose leading ``alpha`` repeats the ascent's last sample, as a
    ``reset=False`` re-walk does.  Shorter lanes hold their final
    field, a no-op for the event discretiser.  ``ascent`` / ``descent``
    are the per-lane sample counts.
    """
    driver_step = dhmax / 4.0  # run_sweep's default driver step
    ups = [waypoint_samples([0.0, h_sat, -h_sat, a], driver_step) for a in nodes[1:]]
    downs = [waypoint_samples([a, nodes[0]], driver_step) for a in nodes[1:]]
    ascent = np.array([len(up) for up in ups])
    descent = np.array([len(down) for down in downs])
    h = np.empty(((ascent + descent).max(), len(ups)))
    for k, lane in enumerate(map(np.concatenate, zip(ups, downs))):
        h[: len(lane), k] = lane
        h[len(lane) :, k] = lane[-1]
    return h, ascent, descent


def everett_maps_from_ja(
    params_seq: Sequence[JAParameters],
    n_cells: int = 40,
    h_sat: float = 20e3,
    dhmax: float = 50.0,
    nodes: np.ndarray | None = None,
) -> list[EverettMap]:
    """Measure the Everett map of every JA parameter set via FORCs.

    One FORC per alpha node: saturate negative, ascend the major branch
    to ``alpha``, then descend; the descent *is* the FORC and is sampled
    at every beta node on the way down.  ``nodes`` defaults to a uniform
    grid (measured to beat the adaptive alternative — see
    :func:`adaptive_nodes`).

    The drive depends only on ``(nodes, h_sat, dhmax)``, so it is built
    once and tiled: each group of up to ``_IDENTIFY_GROUP`` cores (fewer
    on grids whose FORC families exceed ``_IDENTIFY_LANE_SAMPLES``) runs
    as one ``cores x n_cells``-lane
    :class:`~repro.batch.engine.BatchTimelessModel` on the exact NumPy
    backend, through the fused ``step_series`` path cut at every
    distinct ascent length.  ``m(alpha)`` is read from the lanes'
    normalised state at those cuts and the descents from the recorded
    magnetisation, so every map is **bitwise** the scalar sweep loop's
    (``run_sweep`` per FORC, scalar ``np.interp`` per beta node), on
    any ``REPRO_BACKEND``.
    """
    params_list = list(params_seq)
    if not params_list:
        raise ParameterError("need at least one parameter set to identify")
    if n_cells < 4:
        raise ParameterError(f"n_cells must be >= 4, got {n_cells}")
    if not (math.isfinite(h_sat) and h_sat > 0.0):
        raise ParameterError(f"h_sat must be finite and > 0, got {h_sat!r}")
    if nodes is None:
        nodes = np.linspace(-h_sat, h_sat, n_cells + 1)
    else:
        nodes = np.array(nodes, dtype=float)
        if len(nodes) != n_cells + 1:
            raise ParameterError(f"need {n_cells + 1} nodes, got {len(nodes)}")
        if not np.isfinite(nodes).all():
            raise ParameterError(f"nodes must be finite, got {nodes!r}")
        if np.any(np.diff(nodes) <= 0):
            raise ParameterError("nodes must strictly increase")
    drive, ascent, descent = _forc_drive(nodes, h_sat, dhmax)
    width = min(_IDENTIFY_GROUP, max(1, _IDENTIFY_LANE_SAMPLES // drive.size))
    maps: list[EverettMap] = []
    for start in range(0, len(params_list), width):
        group = params_list[start : start + width]
        maps.extend(_measure_group(group, nodes, drive, ascent, descent, dhmax))
    return maps


def _measure_group(
    group: list[JAParameters],
    nodes: np.ndarray,
    drive: np.ndarray,
    ascent: np.ndarray,
    descent: np.ndarray,
    dhmax: float,
) -> list[EverettMap]:
    """One stacked FORC pass over ``group``; lane ``c * n_cells + k`` is
    core ``c``'s FORC at ``nodes[k + 1]``."""
    from repro.batch.engine import BatchTimelessModel

    n_cells = drive.shape[1]
    # The drive starts at 0 A/m, so the constructor's reset is exactly
    # run_sweep's reset(h_initial=0.0).
    batch = BatchTimelessModel(
        [params for params in group for _ in range(n_cells)],
        dhmax=dhmax,
        backend="numpy",
    )
    lane_ascent = np.tile(ascent, len(group))
    m = np.empty((len(drive), batch.n_cores))
    m_alpha = np.empty(batch.n_cores)
    done = 0
    for cut in [*np.unique(ascent), len(drive)]:
        if cut > done:
            h = np.tile(drive[done:cut], (1, len(group)))
            m[done:cut] = batch.step_series(h)[0]
            done = cut
        at_alpha = lane_ascent == cut
        m_alpha[at_alpha] = batch.state.m_total[at_alpha]
    # The record is m_sat * m_total; the scalar loop's FORC values are
    # that record over m_sat (which is not always m_total again).
    m /= batch.params.m_sat

    spans = [slice(a, a + d) for a, d in zip(ascent, descent)]
    h_desc = [drive[span, k][::-1] for k, span in enumerate(spans)]
    maps = []
    for c in range(len(group)):
        values = np.zeros((len(nodes), len(nodes)))
        for k, span in enumerate(spans):
            lane = c * n_cells + k
            m_forc = np.interp(nodes[: k + 2], h_desc[k], m[span, lane][::-1])
            values[k + 1, : k + 2] = 0.5 * (m_alpha[lane] - m_forc)
        maps.append(EverettMap(nodes=nodes, values=values))
    return maps


def everett_from_ja(
    params: JAParameters,
    n_cells: int = 40,
    h_sat: float = 20e3,
    dhmax: float = 50.0,
    nodes: np.ndarray | None = None,
) -> EverettMap:
    """Measure the Everett map of one JA parameter set via FORCs — the
    one-core case of :func:`everett_maps_from_ja` (same grid, same
    bitwise contract)."""
    return everett_maps_from_ja(
        [params], n_cells=n_cells, h_sat=h_sat, dhmax=dhmax, nodes=nodes
    )[0]


def weights_from_everett(
    everett: EverettMap,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Cell weights as the mixed second difference of the Everett map.

    Returns ``(weights, alpha_thresholds, beta_thresholds, clipped_fraction)``
    where ``clipped_fraction`` is the negative mass (JA's departure from
    Preisach behaviour) that was clipped, as a fraction of the total.
    """
    nodes = everett.nodes
    e = everett.values
    # weights[i - 1, j]: alpha cell between nodes[i-1], nodes[i], beta
    # cell between nodes[j], nodes[j+1]; only j < i lies on the
    # alpha >= beta half-plane.
    weights = np.tril(e[1:, :-1] - e[:-1, :-1] - e[1:, 1:] + e[:-1, 1:])
    negative_mass = float(-np.sum(weights[weights < 0.0]))
    total_mass = float(np.sum(np.abs(weights)))
    weights = np.clip(weights, 0.0, None)
    clipped = negative_mass / total_mass if total_mass > 0 else 0.0
    # Relay thresholds at the cell EDGES: up-switch at the cell's upper
    # alpha node, down-switch at its lower beta node.  A sweep that
    # stops exactly on a node then switches exactly the cells inside
    # the Everett triangle — node-field FORCs are reproduced with no
    # half-cell bias.
    alpha_thresholds = nodes[1:].copy()
    beta_thresholds = nodes[:-1].copy()
    return weights, alpha_thresholds, beta_thresholds, clipped


def identify_models_from_ja(
    params_seq: Sequence[JAParameters],
    n_cells: int = 160,
    h_sat: float = 20e3,
    dhmax: float = 50.0,
) -> tuple[list[PreisachModel], np.ndarray]:
    """Identify one Preisach model per JA parameter set.

    Returns ``(models, clipped_fractions)``: the Everett maps come from
    one stacked :func:`everett_maps_from_ja` measurement, and each
    model's ``m_sat`` is its source parameter set's.
    """
    params_list = list(params_seq)
    maps = everett_maps_from_ja(
        params_list, n_cells=n_cells, h_sat=h_sat, dhmax=dhmax
    )
    models, clipped = [], []
    for params, everett in zip(params_list, maps):
        weights, alpha_thresholds, beta_thresholds, fraction = (
            weights_from_everett(everett)
        )
        models.append(
            PreisachModel(weights, alpha_thresholds, beta_thresholds, params.m_sat)
        )
        clipped.append(fraction)
    return models, np.array(clipped)


def identify_from_ja(
    params: JAParameters,
    n_cells: int = 160,
    h_sat: float = 20e3,
    dhmax: float = 50.0,
) -> tuple[PreisachModel, float]:
    """Build a Preisach model identified against a JA parameter set.

    Returns ``(model, clipped_fraction)``.
    """
    models, clipped = identify_models_from_ja(
        [params], n_cells=n_cells, h_sat=h_sat, dhmax=dhmax
    )
    return models[0], float(clipped[0])


def identify_ensemble_from_ja(
    params_seq: Sequence[JAParameters],
    n_cells: int = 40,
    h_sat: float = 20e3,
    dhmax: float = 50.0,
):
    """Identify one Preisach core per JA parameter set and stack them.

    Returns ``(batch, clipped_fractions)`` where ``batch`` is a
    :class:`repro.batch.preisach.BatchPreisachModel` with one lane per
    input parameter set (all sharing the ``n_cells`` grid shape, as the
    lockstep relay tensor requires) and ``clipped_fractions`` records
    each lane's clipped non-Preisach Everett mass.  The whole ensemble's
    FORCs are measured in stacked passes (:func:`everett_maps_from_ja`),
    and every lane is bitwise the core identified on its own.
    """
    from repro.batch.preisach import BatchPreisachModel

    models, clipped = identify_models_from_ja(
        params_seq, n_cells=n_cells, h_sat=h_sat, dhmax=dhmax
    )
    return BatchPreisachModel.from_scalar_models(models), clipped
