"""Optional numba JIT backend (registered only when numba imports).

The backend's value is one **fused series driver per registered model
family**: the whole ``(samples, cores)`` recurrence runs as one
nopython-compiled loop nest — no per-sample ufunc dispatch, no
temporaries —

* **timeless** — the paper's recurrence as a per-lane double loop, a
  transliteration of the scalar fast path of
  :func:`repro.core.kernel.step_kernel` (the published SystemC
  processes);
* **preisach** — the ``(cores, nα, nβ)`` masked relay-tensor switching
  as threshold scans over each lane's flattened relay grid, with the
  Everett-weighted relay sum recomputed only on samples that actually
  switched a weighted relay;
* **time-domain** — the per-lane explicit dM/dH chain with the
  pathology counters (negative-slope evaluations) and the sticky
  ``diverged`` freeze of runaway lanes.

The compiled loops evaluate through libm (``math.atan``) where the
reference evaluates through NumPy's SIMD kernels — 1 ulp per
transcendental call — and the Preisach relay sum reduces sequentially
where NumPy reduces pairwise.  That makes this backend ``exact=False``:
the conformance suite holds trajectories to ``rtol`` instead of the
bitwise pin.  Threshold decisions still match the reference exactly —
the timeless discretiser comparison (hence ``euler_steps``), Preisach
relay switching (hence ``updated`` and ``switch_events``) and the
time-domain ``dh != 0`` activity mask (hence ``steps``) all involve
only exactly-representable operands.

Configurations a compiled loop does not cover — any anhysteretic curve
other than the paper's modified Langevin for the JA families — are
*declined* (the driver returns ``None``) and the engine falls back to
its vectorised ``xp`` loop, which on this backend evaluates through
NumPy unchanged.  Every loop body is a plain importable function:
hosts without numba validate the semantics by interpreting it
(``tests/test_backend.py``), and the JIT wrapper compiles it once per
process on first use.

Each family has **two** loop bodies: the sample-major double loop (the
original transliteration, compiled sequentially) and a lane-major
variant whose outer loop runs over lanes via ``numba.prange`` — the
intra-shard threading axis of the execution planner
(:mod:`repro.sched`).  Lanes are independent, so the lane-major order
re-executes each lane's exact arithmetic sequence: a threaded run is
bitwise identical to the sequential fused run on this backend
(``tests/test_backend_threaded.py`` pins it).  The drivers dispatch on
:func:`repro.backend.threads.active_threads`: more than one pinned
thread selects the ``parallel=True`` lane-major kernel.
"""

from __future__ import annotations

import math

import numpy as np

from repro.backend.base import ArrayBackend
from repro.backend.threads import active_threads, prange
from repro.constants import MU0, TWO_OVER_PI
from repro.errors import ParameterError


def build_numba_backend() -> "ArrayBackend | None":
    """The numba backend, or ``None`` when numba is not installed."""
    try:
        import numba  # noqa: F401
    except ImportError:  # pragma: no cover - exercised on the numba CI leg
        return None
    return ArrayBackend(
        name="numba",
        xp=np,
        exact=False,
        rtol=1e-9,
        description="numba JIT backend (fused nopython series loops)",
        fused_series={
            "timeless": _timeless_fused_series,
            "preisach": _preisach_fused_series,
            "time-domain": _time_domain_fused_series,
        },
    )


_KERNEL_CACHE: dict = {}

_TWO_OVER_PI = float(TWO_OVER_PI)
_MU0 = float(MU0)


def timeless_series_loop(
    h2d,
    shape,
    am,
    one_c,
    c_arr,
    k_arr,
    m_sat,
    dhmax,
    accept_equal,
    clamp_negative,
    drop_opposing,
    h_acc,
    m_irr,
    m_tot,
    delta_st,
    m_out,
    b_out,
    man_out,
    upd,
    euler,
    clamped_n,
    dropped_n,
):
    """The fused timeless recurrence as a plain nopython-compilable
    double loop — a transliteration of the scalar fast path of
    :func:`repro.core.kernel.step_kernel` (the published SystemC
    processes), operating on preallocated arrays only.

    Kept importable without numba so the semantics are testable on any
    host; :func:`_timeless_kernel` wraps it in ``numba.njit`` once per
    process when the backend is actually used.
    """
    n_samples, n_cores = h2d.shape
    for i in range(n_samples):
        for j in range(n_cores):
            h = h2d[i, j]
            # core: algebraic refresh at the new field
            m_an = _TWO_OVER_PI * math.atan((h + am[j] * m_tot[j]) / shape[j])  # repro-lint: disable=L002 -- deliberate libm: this backend's documented rtol tier (PR 4)
            m_rev = c_arr[j] * m_an / one_c[j]
            # monitorH: the discretiser decision
            dh = h - h_acc[j]
            magnitude = abs(dh)
            if accept_equal[j]:
                accepted = magnitude >= dhmax[j]
            else:
                accepted = magnitude > dhmax[j]
            if accepted:
                # Integral: one guarded Forward Euler step
                delta = 1.0 if dh > 0.0 else -1.0
                delta_m = m_an - (m_rev + m_irr[j])
                denominator = one_c[j] * (delta * k_arr[j] - am[j] * delta_m)
                if denominator == 0.0:
                    if delta_m > 0.0:
                        raw = math.inf
                    elif delta_m < 0.0:
                        raw = -math.inf
                    else:
                        raw = 0.0
                else:
                    raw = delta_m / denominator
                dmdh = raw
                if clamp_negative[j] and not (dmdh > 0.0):
                    dmdh = 0.0
                    if raw != 0.0:
                        clamped_n[j] += 1
                if math.isnan(dmdh):
                    dm = math.nan
                else:
                    dm = dh * dmdh
                    if drop_opposing[j] and dm * dh < 0.0:
                        dm = 0.0
                        dropped_n[j] += 1
                m_irr[j] = m_irr[j] + dm
                h_acc[j] = h
                delta_st[j] = delta
                euler[j] += 1
                upd[i, j] = True
            m_tot[j] = m_rev + m_irr[j]
            man_out[i, j] = m_an
            m_out[i, j] = m_tot[j] * m_sat[j]
            b_out[i, j] = _MU0 * (h + m_sat[j] * m_tot[j])


def timeless_lane_series_loop(
    h2d,
    shape,
    am,
    one_c,
    c_arr,
    k_arr,
    m_sat,
    dhmax,
    accept_equal,
    clamp_negative,
    drop_opposing,
    h_acc,
    m_irr,
    m_tot,
    delta_st,
    m_out,
    b_out,
    man_out,
    upd,
    euler,
    clamped_n,
    dropped_n,
):
    """Lane-major twin of :func:`timeless_series_loop`: the outer loop
    runs over *lanes* via ``prange``, each lane walking its whole sample
    column sequentially.  Lanes are independent (no state or reduction
    crosses the lane axis), so each lane executes the identical
    arithmetic sequence — the threaded kernel is bitwise equal to the
    sequential one on this backend.

    Kept importable without numba (``prange`` degrades to ``range``) so
    the semantics are testable interpreted on any host;
    :func:`_timeless_parallel_kernel` compiles it with ``parallel=True``
    once per process when a plan pins more than one thread.
    """
    n_samples, n_cores = h2d.shape
    for j in prange(n_cores):
        for i in range(n_samples):
            h = h2d[i, j]
            m_an = _TWO_OVER_PI * math.atan((h + am[j] * m_tot[j]) / shape[j])  # repro-lint: disable=L002 -- deliberate libm: this backend's documented rtol tier (PR 4)
            m_rev = c_arr[j] * m_an / one_c[j]
            dh = h - h_acc[j]
            magnitude = abs(dh)
            if accept_equal[j]:
                accepted = magnitude >= dhmax[j]
            else:
                accepted = magnitude > dhmax[j]
            if accepted:
                delta = 1.0 if dh > 0.0 else -1.0
                delta_m = m_an - (m_rev + m_irr[j])
                denominator = one_c[j] * (delta * k_arr[j] - am[j] * delta_m)
                if denominator == 0.0:
                    if delta_m > 0.0:
                        raw = math.inf
                    elif delta_m < 0.0:
                        raw = -math.inf
                    else:
                        raw = 0.0
                else:
                    raw = delta_m / denominator
                dmdh = raw
                if clamp_negative[j] and not (dmdh > 0.0):
                    dmdh = 0.0
                    if raw != 0.0:
                        clamped_n[j] += 1
                if math.isnan(dmdh):
                    dm = math.nan
                else:
                    dm = dh * dmdh
                    if drop_opposing[j] and dm * dh < 0.0:
                        dm = 0.0
                        dropped_n[j] += 1
                m_irr[j] = m_irr[j] + dm
                h_acc[j] = h
                delta_st[j] = delta
                euler[j] += 1
                upd[i, j] = True
            m_tot[j] = m_rev + m_irr[j]
            man_out[i, j] = m_an
            m_out[i, j] = m_tot[j] * m_sat[j]
            b_out[i, j] = _MU0 * (h + m_sat[j] * m_tot[j])


def _compiled(key: str, body, parallel: bool = False):
    """Compile (once per process) one loop body under a cache key."""
    kernel = _KERNEL_CACHE.get(key)
    if kernel is not None:
        return kernel
    import numba

    kernel = numba.njit(cache=False, parallel=parallel)(body)
    _KERNEL_CACHE[key] = kernel
    return kernel


def _timeless_kernel():
    """Compile (once per process) the fused timeless series loop."""
    return _compiled("timeless", timeless_series_loop)


def _timeless_parallel_kernel():
    """Compile (once per process) the ``prange`` lane-major variant."""
    return _compiled("timeless-lanes", timeless_lane_series_loop, parallel=True)


def _lane_array(value, n: int, dtype) -> np.ndarray:
    """Broadcast a scalar-or-array config value to one writable lane array."""
    return np.ascontiguousarray(
        np.broadcast_to(np.asarray(value, dtype=dtype), (n,))
    ).copy()


def _timeless_fused_series(batch, h_arr: np.ndarray):
    """Fused series driver for :class:`repro.batch.engine.BatchTimelessModel`.

    ``h_arr`` arrives validated (1-D or ``(samples, cores)`` float).
    Returns ``(m, b, updated, extras)`` with state and counters advanced
    exactly as per-sample stepping would have advanced them (within the
    backend's rtol tier), or ``None`` to decline a configuration the
    compiled loop does not cover.
    """
    from repro.ja.anhysteretic import ModifiedLangevinAnhysteretic

    curve = batch.anhysteretic
    if type(curve) is not ModifiedLangevinAnhysteretic:
        return None

    from repro.batch.lanes import as_lane_matrix

    n = batch.n_cores
    n_samples = len(h_arr)
    h2d = np.ascontiguousarray(as_lane_matrix(h_arr, n))

    params = batch.params
    am = params.alpha * params.m_sat
    one_c = 1.0 + params.c
    shape = _lane_array(curve.shape, n, float)
    accept_equal = _lane_array(batch.accept_equal, n, bool)
    clamp_negative = _lane_array(batch.guards.clamp_negative, n, bool)
    drop_opposing = _lane_array(batch.guards.drop_opposing, n, bool)

    state = batch.state
    h_acc = state.h_accepted.copy()
    m_irr = state.m_irr.copy()
    m_tot = state.m_total.copy()
    delta_st = state.delta.copy()

    m_out = np.empty((n_samples, n))
    b_out = np.empty((n_samples, n))
    man_out = np.empty((n_samples, n))
    updated = np.zeros((n_samples, n), dtype=np.bool_)
    euler = np.zeros(n, dtype=np.int64)
    clamped_n = np.zeros(n, dtype=np.int64)
    dropped_n = np.zeros(n, dtype=np.int64)

    kernel = (
        _timeless_parallel_kernel()
        if active_threads() > 1
        else _timeless_kernel()
    )
    kernel(
        h2d,
        shape,
        am,
        one_c,
        params.c,
        params.k,
        params.m_sat,
        batch.dhmax,
        accept_equal,
        clamp_negative,
        drop_opposing,
        h_acc,
        m_irr,
        m_tot,
        delta_st,
        m_out,
        b_out,
        man_out,
        updated,
        euler,
        clamped_n,
        dropped_n,
    )

    state.h_applied = h2d[-1].copy()
    state.h_accepted = h_acc
    state.m_irr = m_irr
    state.m_an = man_out[-1].copy()
    state.m_rev = params.c * state.m_an / one_c
    state.m_total = m_tot
    state.delta = delta_st
    state.updates += euler
    counters = batch.counters
    counters.field_events += n_samples
    counters.observations += n_samples
    counters.euler_steps += euler
    counters.acceptances += euler
    counters.clamped_slopes += clamped_n
    counters.dropped_increments += dropped_n

    return m_out, b_out, updated, {"m_an": man_out}


def preisach_series_loop(
    h2d,
    state,
    weights,
    valid,
    alpha,
    beta,
    m_sat,
    h_cur,
    m_norm,
    m_out,
    b_out,
    upd,
    switches,
):
    """The fused Preisach switching recurrence as a plain
    nopython-compilable loop nest over each lane's flattened relay grid
    — the same masked row/column writes as
    :meth:`repro.batch.preisach.BatchPreisachModel.step`, relay by
    relay, Everett weighting included.

    The weighted relay sum is recomputed only on samples that changed a
    *weighted* relay (zero-weight and sign-of-zero flips cannot move
    the reference's float sum either), and reduces sequentially where
    NumPy reduces pairwise — which is why trajectories hold the
    backend's rtol tier while the switching decisions, the ``updated``
    mask and ``switch_events`` stay exact: threshold comparisons
    involve only exactly-representable driver samples and grid values,
    and any weighted switch moves the exact sum by at least twice the
    smallest non-zero weight (orders of magnitude above summation
    rounding).

    Kept importable without numba so the semantics are testable on any
    host; :func:`_preisach_kernel` wraps it in ``numba.njit`` once per
    process when the backend is actually used.
    """
    n_samples, n_cores = h2d.shape
    n_alpha = alpha.shape[1]
    n_beta = beta.shape[1]
    for i in range(n_samples):
        for j in range(n_cores):
            h = h2d[i, j]
            weighted_switch = False
            if h > h_cur[j]:
                for ia in range(n_alpha):
                    if alpha[j, ia] <= h:
                        for ib in range(n_beta):
                            new = 1.0 if valid[j, ia, ib] else 0.0
                            if (
                                state[j, ia, ib] != new
                                and weights[j, ia, ib] != 0.0
                            ):
                                weighted_switch = True
                            state[j, ia, ib] = new
            elif h < h_cur[j]:
                for ib in range(n_beta):
                    if beta[j, ib] >= h:
                        for ia in range(n_alpha):
                            new = -1.0 if valid[j, ia, ib] else 0.0
                            if (
                                state[j, ia, ib] != new
                                and weights[j, ia, ib] != 0.0
                            ):
                                weighted_switch = True
                            state[j, ia, ib] = new
            h_cur[j] = h
            changed = False
            if weighted_switch:
                total = 0.0
                for ia in range(n_alpha):
                    for ib in range(n_beta):
                        total += weights[j, ia, ib] * state[j, ia, ib]
                changed = total != m_norm[j]
                m_norm[j] = total
            if changed:
                switches[j] += 1
            upd[i, j] = changed
            m_phys = m_norm[j] * m_sat[j]
            m_out[i, j] = m_phys
            b_out[i, j] = _MU0 * (h + m_phys)


def preisach_lane_series_loop(
    h2d,
    state,
    weights,
    valid,
    alpha,
    beta,
    m_sat,
    h_cur,
    m_norm,
    m_out,
    b_out,
    upd,
    switches,
):
    """Lane-major twin of :func:`preisach_series_loop`: ``prange`` over
    lanes, each lane scanning its own relay grid through the whole
    series sequentially.  All state (relay tensor rows, ``h_cur``,
    ``m_norm``, ``switches``) is per-lane, so the threaded kernel is
    bitwise equal to the sequential one — including the sequential relay
    sum that defines this backend's rtol tier.

    Kept importable without numba; :func:`_preisach_parallel_kernel`
    compiles it with ``parallel=True`` once per process.
    """
    n_samples, n_cores = h2d.shape
    n_alpha = alpha.shape[1]
    n_beta = beta.shape[1]
    for j in prange(n_cores):
        for i in range(n_samples):
            h = h2d[i, j]
            weighted_switch = False
            if h > h_cur[j]:
                for ia in range(n_alpha):
                    if alpha[j, ia] <= h:
                        for ib in range(n_beta):
                            new = 1.0 if valid[j, ia, ib] else 0.0
                            if (
                                state[j, ia, ib] != new
                                and weights[j, ia, ib] != 0.0
                            ):
                                weighted_switch = True
                            state[j, ia, ib] = new
            elif h < h_cur[j]:
                for ib in range(n_beta):
                    if beta[j, ib] >= h:
                        for ia in range(n_alpha):
                            new = -1.0 if valid[j, ia, ib] else 0.0
                            if (
                                state[j, ia, ib] != new
                                and weights[j, ia, ib] != 0.0
                            ):
                                weighted_switch = True
                            state[j, ia, ib] = new
            h_cur[j] = h
            changed = False
            if weighted_switch:
                total = 0.0
                for ia in range(n_alpha):
                    for ib in range(n_beta):
                        total += weights[j, ia, ib] * state[j, ia, ib]
                changed = total != m_norm[j]
                m_norm[j] = total
            if changed:
                switches[j] += 1
            upd[i, j] = changed
            m_phys = m_norm[j] * m_sat[j]
            m_out[i, j] = m_phys
            b_out[i, j] = _MU0 * (h + m_phys)


def _preisach_kernel():
    """Compile (once per process) the fused Preisach series loop."""
    return _compiled("preisach", preisach_series_loop)


def _preisach_parallel_kernel():
    """Compile (once per process) the ``prange`` lane-major variant."""
    return _compiled("preisach-lanes", preisach_lane_series_loop, parallel=True)


def _preisach_fused_series(batch, h_arr: np.ndarray):
    """Fused series driver for
    :class:`repro.batch.preisach.BatchPreisachModel`.

    ``h_arr`` arrives validated (1-D or ``(samples, cores)`` float).
    Returns ``(m, b, updated, extras)`` with relay state and counters
    advanced exactly as per-sample stepping would have advanced them
    (switching and ``switch_events`` exact, trajectories within the
    backend's rtol tier).
    """
    from repro.batch.lanes import as_lane_matrix

    if not np.isfinite(h_arr).all():
        raise ParameterError(f"h must be finite, got {h_arr!r}")
    n = batch.n_cores
    n_samples = len(h_arr)
    h2d = np.ascontiguousarray(as_lane_matrix(h_arr, n))

    h_cur = batch.h.copy()
    # Seeded with the kernels' own sequential relay sum (the order the
    # loops add in; ``cumsum`` accumulates strictly left to right), not
    # the engine's pairwise one: a series cut into several fused calls
    # (row blocks) then carries exactly the value one call would have.
    relays = (batch.weights * batch.relay_state()).reshape(n, -1)
    m_norm = np.cumsum(relays, axis=1)[:, -1].copy()
    switches = np.zeros(n, dtype=np.int64)
    m_out = np.empty((n_samples, n))
    b_out = np.empty((n_samples, n))
    updated = np.zeros((n_samples, n), dtype=np.bool_)

    kernel = (
        _preisach_parallel_kernel()
        if active_threads() > 1
        else _preisach_kernel()
    )
    kernel(
        h2d,
        batch.relay_state(),
        batch.weights,
        batch.relay_validity(),
        batch.alpha_thresholds,
        batch.beta_thresholds,
        batch.m_sat,
        h_cur,
        m_norm,
        m_out,
        b_out,
        updated,
        switches,
    )

    batch.commit_fused_series(h_cur, switches)
    return m_out, b_out, updated, {}


def time_domain_series_loop(
    h2d,
    am,
    one_c,
    rev_coeff,
    k_arr,
    shape,
    clamp_negative,
    limit,
    m_sat,
    h_cur,
    m,
    diverged,
    m_out,
    b_out,
    upd,
    steps,
    negatives,
):
    """The fused classic dM/dH chain as a plain nopython-compilable
    double loop — a transliteration of the scalar sample-driven path of
    :meth:`repro.baselines.time_domain.TimeDomainJAModel.apply_field`
    (forward Euler in H, slope evaluated at the *previous* field), with
    the per-lane pathology counters and the sticky ``diverged`` freeze.

    Kept importable without numba so the semantics are testable on any
    host; :func:`_time_domain_kernel` wraps it in ``numba.njit`` once
    per process when the backend is actually used.
    """
    n_samples, n_cores = h2d.shape
    for i in range(n_samples):
        for j in range(n_cores):
            h = h2d[i, j]
            dh = h - h_cur[j]
            if dh != 0.0 and not diverged[j]:
                delta = 1.0 if dh >= 0.0 else -1.0
                h_eff = h_cur[j] + am[j] * m[j]
                x = h_eff / shape[j]
                m_an = _TWO_OVER_PI * math.atan(x)  # repro-lint: disable=L002 -- deliberate libm: this backend's documented rtol tier (PR 4)
                delta_m = m_an - m[j]
                denominator = one_c[j] * (delta * k_arr[j] - am[j] * delta_m)
                if denominator == 0.0:
                    if delta_m > 0.0:
                        slope = math.inf
                    elif delta_m < 0.0:
                        slope = -math.inf
                    else:
                        slope = 0.0
                else:
                    slope = delta_m / denominator
                if slope < 0.0:
                    negatives[j] += 1
                    if clamp_negative[j]:
                        slope = 0.0
                slope = slope + rev_coeff[j] * (
                    _TWO_OVER_PI / (1.0 + x * x) / shape[j]
                )
                m[j] = m[j] + slope * dh
                steps[j] += 1
                if (
                    math.isnan(m[j])
                    or math.isinf(m[j])
                    or abs(m[j]) > limit[j]
                ):
                    diverged[j] = True
                upd[i, j] = True
            h_cur[j] = h
            m_phys = m[j] * m_sat[j]
            m_out[i, j] = m_phys
            b_out[i, j] = _MU0 * (h + m_phys)


def time_domain_lane_series_loop(
    h2d,
    am,
    one_c,
    rev_coeff,
    k_arr,
    shape,
    clamp_negative,
    limit,
    m_sat,
    h_cur,
    m,
    diverged,
    m_out,
    b_out,
    upd,
    steps,
    negatives,
):
    """Lane-major twin of :func:`time_domain_series_loop`: ``prange``
    over lanes, each lane stepping its own explicit dM/dH chain through
    the whole series sequentially — pathology counters and the sticky
    ``diverged`` freeze included, all per-lane, so the threaded kernel
    is bitwise equal to the sequential one.

    Kept importable without numba; :func:`_time_domain_parallel_kernel`
    compiles it with ``parallel=True`` once per process.
    """
    n_samples, n_cores = h2d.shape
    for j in prange(n_cores):
        for i in range(n_samples):
            h = h2d[i, j]
            dh = h - h_cur[j]
            if dh != 0.0 and not diverged[j]:
                delta = 1.0 if dh >= 0.0 else -1.0
                h_eff = h_cur[j] + am[j] * m[j]
                x = h_eff / shape[j]
                m_an = _TWO_OVER_PI * math.atan(x)  # repro-lint: disable=L002 -- deliberate libm: this backend's documented rtol tier (PR 4)
                delta_m = m_an - m[j]
                denominator = one_c[j] * (delta * k_arr[j] - am[j] * delta_m)
                if denominator == 0.0:
                    if delta_m > 0.0:
                        slope = math.inf
                    elif delta_m < 0.0:
                        slope = -math.inf
                    else:
                        slope = 0.0
                else:
                    slope = delta_m / denominator
                if slope < 0.0:
                    negatives[j] += 1
                    if clamp_negative[j]:
                        slope = 0.0
                slope = slope + rev_coeff[j] * (
                    _TWO_OVER_PI / (1.0 + x * x) / shape[j]
                )
                m[j] = m[j] + slope * dh
                steps[j] += 1
                if (
                    math.isnan(m[j])
                    or math.isinf(m[j])
                    or abs(m[j]) > limit[j]
                ):
                    diverged[j] = True
                upd[i, j] = True
            h_cur[j] = h
            m_phys = m[j] * m_sat[j]
            m_out[i, j] = m_phys
            b_out[i, j] = _MU0 * (h + m_phys)


def _time_domain_kernel():
    """Compile (once per process) the fused time-domain series loop."""
    return _compiled("time-domain", time_domain_series_loop)


def _time_domain_parallel_kernel():
    """Compile (once per process) the ``prange`` lane-major variant."""
    return _compiled(
        "time-domain-lanes", time_domain_lane_series_loop, parallel=True
    )


def _time_domain_fused_series(batch, h_arr: np.ndarray):
    """Fused series driver for
    :class:`repro.batch.time_domain.BatchTimeDomainModel`.

    ``h_arr`` arrives validated (1-D or ``(samples, cores)`` float).
    Returns ``(m, b, updated, extras)`` with state and counters
    advanced exactly as per-sample stepping would have advanced them
    (the ``dh != 0`` activity mask and ``steps`` exact, trajectories
    within the backend's rtol tier), or ``None`` to decline a
    configuration the compiled loop does not cover.
    """
    from repro.batch.lanes import as_lane_matrix
    from repro.ja.anhysteretic import ModifiedLangevinAnhysteretic

    curve = batch.anhysteretic
    if type(curve) is not ModifiedLangevinAnhysteretic:
        return None

    n = batch.n_cores
    n_samples = len(h_arr)
    h2d = np.ascontiguousarray(as_lane_matrix(h_arr, n))

    params = batch.params
    am = params.alpha * params.m_sat
    one_c = 1.0 + params.c
    rev_coeff = params.c / one_c
    shape = _lane_array(curve.shape, n, float)
    clamp_negative = _lane_array(batch.guards.clamp_negative, n, bool)

    h_cur = batch.h.copy()
    m = batch.m_normalised
    diverged = batch.diverged.copy()
    m_out = np.empty((n_samples, n))
    b_out = np.empty((n_samples, n))
    updated = np.zeros((n_samples, n), dtype=np.bool_)
    steps = np.zeros(n, dtype=np.int64)
    negatives = np.zeros(n, dtype=np.int64)

    kernel = (
        _time_domain_parallel_kernel()
        if active_threads() > 1
        else _time_domain_kernel()
    )
    kernel(
        h2d,
        am,
        one_c,
        rev_coeff,
        params.k,
        shape,
        clamp_negative,
        batch.divergence_limit,
        params.m_sat,
        h_cur,
        m,
        diverged,
        m_out,
        b_out,
        updated,
        steps,
        negatives,
    )

    batch.commit_fused_series(h_cur, m, diverged, steps, negatives)
    return m_out, b_out, updated, {}
