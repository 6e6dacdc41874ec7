"""The NumPy fused loops, branch by branch: one table, two pins per row.

Every route ends in a batch engine's fused ``step_series`` loop, which
advances the paper's guarded Forward-Euler recurrence one NumPy row (one
driver sample, every lane) at a time.  The NumPy loops take exact
shortcuts the per-sample ``step`` paths do not: one comparison for both
discretiser variants, guard 2 skipped behind an all-lanes guard 1,
unmasked merges on rows where every lane fired, a plain division where
the per-sample path selects the slope's pole values, a shared
``h_eff/shape``, and counters, ``m_sat`` scaling and ``B`` formed after
the loop.

One table, in ``BAD_PEERS``' idiom (``tests/test_dist.py``), maps a
(family, how the batch is built, drive) row to two pins, every batch
pinned to ``backend="numpy"`` whatever ``REPRO_BACKEND`` says (on the
numba leg this is the loop a compiled driver falls back to when it
declines):

* the fused run is bitwise the ``fused=False`` run: ``m``, ``b``,
  ``updated``, extras, counters and the post-run snapshot, compared as
  raw bytes (so signed zeros and NaN payloads count), with neither run
  raising a ``RuntimeWarning``;
* the same drive cut into two ``reset=False`` calls is bitwise one
  call, at three cut points.

Every run continues from the state the row's builder returns (a fresh
batch, or a restored relay state no drive from the demagnetised
staircase reaches), so no run resets it.

The rows hit every branch the loops take: ``|dh|`` exactly ``dhmax`` on
``accept_equal`` and strict lanes, held samples and a signed-zero drive,
NaN and infinite samples (repeated infinities too), rows where every
lane fires and rows where only some do, all-clamp, mixed and no guards,
the Langevin and Brillouin curves, an exactly-zero slope denominator, a time-domain lane
that diverges mid-series, Preisach samples exactly on the switching
thresholds, Preisach lanes rising while others fall from a restored
relay state, per-core 2-D drives and one-lane batches.
"""

import warnings

import numpy as np
import pytest

from repro.batch.engine import BatchTimelessModel
from repro.batch.preisach import BatchPreisachModel
from repro.batch.sweep import run_batch_series
from repro.batch.time_domain import BatchTimeDomainModel
from repro.core.slope import SlopeGuards
from repro.core.sweep import waypoint_samples
from repro.ja.anhysteretic import (
    Anhysteretic,
    BrillouinAnhysteretic,
    LangevinAnhysteretic,
)
from repro.ja.parameters import JAParameters
from repro.models.registry import get_family, perturbed_parameters

LANES = 4

PAPER = SlopeGuards()
NO_GUARDS = SlopeGuards.none()
CLAMP_ONLY = SlopeGuards(clamp_negative=True, drop_opposing=False)
DROP_ONLY = SlopeGuards(clamp_negative=False, drop_opposing=True)


class PoleCurve(Anhysteretic):
    """``m_an`` pinned at 0.25.  With ``alpha * m_sat = 1024``,
    ``c = 0`` and ``k = 256``, a core at ``m = 0`` meets an exactly
    zero slope denominator on its first rising step."""

    kind = "pole-test"

    def curve(self, x):
        return 0.25 + 0.0 * x

    def curve_derivative(self, x):
        return 0.0 * x


class FlatCurve(Anhysteretic):
    """``m_an`` a signed zero: fired lanes meet raw slopes of exactly
    ``+0.0`` and ``-0.0``, which guard 1 zeroes without counting."""

    kind = "flat-test"

    def curve(self, x):
        return 0.0 * x

    def curve_derivative(self, x):
        return 0.0 * x


def pole_parameters(n: int) -> list:
    """Lanes 0, 2, ... hit the pole; the others (k = 300) do not."""
    return [
        JAParameters(
            m_sat=2.0**20, a=1000.0, k=256.0 if i % 2 == 0 else 300.0,
            c=0.0, alpha=2.0**-10, name=f"pole-{i}",
        )
        for i in range(n)
    ]


# -- builders: each returns a fresh batch on the exact NumPy backend ------


def timeless(n=LANES, curve=None, params=None, **options):
    params = params or perturbed_parameters(n, seed=3)
    shape = np.array([p.a for p in params])
    anhysteretic = None if curve is None else curve(shape)
    return lambda: BatchTimelessModel(
        params, anhysteretic=anhysteretic, backend="numpy", **options
    )


def time_domain(n=LANES, curve=None, params=None, **options):
    params = params or perturbed_parameters(n, seed=5)
    shape = np.array([p.a for p in params])
    anhysteretic = None if curve is None else curve(shape)
    return lambda: BatchTimeDomainModel(
        params, anhysteretic=anhysteretic, backend="numpy", **options
    )


def registry(family, n=LANES):
    return lambda: get_family(family).make_batch(n, seed=1, backend="numpy")


_PREISACH_GRIDS: dict = {}


def preisach(n=LANES):
    def build():
        if n not in _PREISACH_GRIDS:
            model = get_family("preisach").make_batch(n, seed=2)
            _PREISACH_GRIDS[n] = (
                model.weights, model.alpha_thresholds,
                model.beta_thresholds, model.m_sat,
            )
        return BatchPreisachModel(*_PREISACH_GRIDS[n], backend="numpy")

    return build


def preisach_restored(n=LANES):
    """A relay state no drive from the demagnetised staircase reaches:
    even lanes all down at their top threshold, odd lanes all up at
    their bottom one, relays off the half-plane at ``-0.0``.  Only masks
    restricted to the rising (falling) lanes leave the others' relays
    alone."""

    def build():
        batch = preisach(n)()
        valid = batch.relay_validity()
        even = (np.arange(n) % 2 == 0)[:, None, None]
        state = np.where(valid, np.where(even, -1.0, 1.0), -0.0)
        h = np.where(
            even[:, 0, 0],
            batch.alpha_thresholds[:, -1],
            batch.beta_thresholds[:, 0],
        )
        batch.restore((state, h, np.zeros(n, dtype=np.int64)))
        return batch

    return build


def brillouin(shape):
    return BrillouinAnhysteretic(shape, j=1.5)


# -- drives: each maps a fresh batch to its samples -----------------------


def loop(h_max, step, turns=(1.0, -1.0, 0.5, -0.3, 1.0)):
    samples = waypoint_samples([0.0] + [t * h_max for t in turns], step)
    return lambda batch: samples


#: Steps of exactly 50 A/m, then of 100, then 25: ``|dh| == dhmax``
#: for ``dhmax = 50``, and twice it once two held-back steps add up.
EXACT_STEPS = np.concatenate(
    [np.arange(0, 21) * 50.0, np.arange(20, -21, -2) * 50.0,
     np.arange(-40, 41) * 25.0]
)


def exact_steps(batch):
    return EXACT_STEPS


def held(h_max, step):
    samples = np.repeat(waypoint_samples([0.0, h_max, -h_max], step), 3)
    return lambda batch: samples


def signed_zeros(h_max, step):
    samples = waypoint_samples([0.0, h_max, -h_max, 0.0], step)
    zeros = np.array([0.0, -0.0, -0.0, 0.0, 0.0, -0.0])
    middle = len(samples) // 2
    samples = np.concatenate(
        [zeros, samples[:middle], zeros, samples[middle:], zeros]
    )
    return lambda batch: samples


def with_non_finite(h_max, step):
    samples = waypoint_samples([0.0, h_max, -h_max, h_max], step).copy()
    at = len(samples) // 5
    samples[at] = np.nan
    samples[2 * at : 2 * at + 2] = np.inf
    samples[2 * at + 5] = np.nan
    samples[3 * at] = -np.inf
    samples[3 * at + 1] = 0.5 * h_max
    return lambda batch: samples


def repeated_infinities(h_max, step):
    """``[0, inf, inf, -inf, -inf, 5]`` ahead of a loop: every
    difference of two equal infinities is NaN."""
    head = np.array([0.0, np.inf, np.inf, -np.inf, -np.inf, 5.0])
    samples = np.concatenate(
        [head, waypoint_samples([0.0, h_max, -h_max], step)]
    )
    return lambda batch: samples


def per_core(h_max, step, hold_every=3, non_finite=False):
    """One waveform per lane, each scaled differently, with lane ``j``
    held on every ``hold_every``-th row from row ``j``: rows where only
    some lanes move or fire."""

    def drive(batch):
        base = waypoint_samples([0.0, h_max, -h_max, 0.5 * h_max], step)
        scale = np.linspace(0.6, 1.4, batch.n_cores)
        samples = base[:, None] * scale[None, :]
        for j in range(batch.n_cores):
            rows = np.arange(j + 1, len(base), hold_every)
            samples[rows, j] = samples[rows - 1, j]
        if non_finite:
            samples[7, 0] = np.nan
            samples[11, -1] = np.inf
            samples[12, -1] = -np.inf
        return samples

    return drive


def opposite(h_max, step):
    """Odd lanes run the drive mirrored: rows where some lanes rise and
    others fall."""

    def drive(batch):
        base = waypoint_samples([0.0, h_max, -h_max, h_max], step)
        sign = np.where(np.arange(batch.n_cores) % 2 == 0, 1.0, -1.0)
        return base[:, None] * sign[None, :]

    return drive


def on_thresholds(batch):
    """Lane 0's own switching thresholds, exactly: up through every
    alpha, down through every beta, up again through every other alpha."""
    alpha = batch.alpha_thresholds[0]
    beta = batch.beta_thresholds[0]
    return np.concatenate([[0.0], alpha, beta[::-1], alpha[::2]])


def on_own_thresholds(batch):
    """Each lane's own switching thresholds, exactly (a 2-D drive)."""
    alpha = batch.alpha_thresholds
    beta = batch.beta_thresholds
    zeros = np.zeros((batch.n_cores, 1))
    return np.concatenate([zeros, alpha, beta[:, ::-1], alpha], axis=1).T.copy()


def across_the_grid(batch):
    """From each lane's start field to the other end of its grid: even
    lanes fall while odd lanes rise."""
    start = batch.h.copy()
    end = np.where(
        np.arange(batch.n_cores) % 2 == 0,
        batch.beta_thresholds[:, 0],
        batch.alpha_thresholds[:, -1],
    )
    return np.linspace(start, end, 40)


def within_a_cell(batch):
    """Wiggles smaller than any cell after a rise: rows with rising and
    falling lanes that switch no relay."""
    cell = float(np.min(np.diff(batch.alpha_thresholds, axis=1)))
    centre = float(batch.alpha_thresholds[0, len(batch.alpha_thresholds[0]) // 2])
    wiggle = centre + cell * np.array([0.1, 0.3, 0.2, 0.25, 0.05, 0.3])
    return np.concatenate([np.linspace(0.0, centre, 12), wiggle])


MIXED_GUARDS = [PAPER, NO_GUARDS, CLAMP_ONLY, DROP_ONLY]
CLAMPED_MIXED_DROP = [PAPER, CLAMP_ONLY, PAPER, CLAMP_ONLY]

#: (id, family, build, drive).  The registry's timeless recipe draws
#: dhmax from 25-100 A/m per lane, so a 150 A/m step fires every lane.
FUSED_ROWS = [
    ("timeless-registry-some-lanes-fire", "timeless",
     registry("timeless"), loop(8e3, 40.0)),
    ("timeless-registry-every-lane-fires", "timeless",
     registry("timeless"), loop(8e3, 150.0)),
    ("timeless-dh-exactly-dhmax-mixed-accept", "timeless",
     timeless(dhmax=50.0, accept_equal=[True, False, True, False]),
     exact_steps),
    ("timeless-dh-exactly-dhmax-accept-equal", "timeless",
     timeless(dhmax=50.0, accept_equal=True), exact_steps),
    ("timeless-dh-exactly-dhmax-strict", "timeless",
     timeless(dhmax=50.0, accept_equal=False), exact_steps),
    ("timeless-held-samples", "timeless",
     timeless(dhmax=[40.0, 60.0, 90.0, 130.0]), held(6e3, 100.0)),
    ("timeless-signed-zero-drive", "timeless",
     timeless(dhmax=40.0, accept_equal=True), signed_zeros(3e3, 40.0)),
    ("timeless-nan-and-inf-samples", "timeless",
     timeless(dhmax=[40.0, 60.0, 90.0, 130.0]), with_non_finite(6e3, 75.0)),
    ("timeless-nan-and-inf-samples-no-guards", "timeless",
     timeless(dhmax=40.0, guards=NO_GUARDS), with_non_finite(6e3, 75.0)),
    ("timeless-repeated-infinities", "timeless",
     timeless(dhmax=40.0, guards=MIXED_GUARDS), repeated_infinities(6e3, 75.0)),
    ("timeless-no-guards", "timeless",
     timeless(dhmax=40.0, guards=NO_GUARDS), loop(8e3, 60.0)),
    ("timeless-guard-2-only", "timeless",
     timeless(dhmax=40.0, guards=DROP_ONLY), loop(8e3, 60.0)),
    ("timeless-mixed-guards", "timeless",
     timeless(dhmax=[40.0, 60.0, 90.0, 130.0], guards=MIXED_GUARDS),
     loop(8e3, 70.0)),
    ("timeless-every-lane-clamps-mixed-drop", "timeless",
     timeless(dhmax=40.0, guards=CLAMPED_MIXED_DROP), loop(8e3, 60.0)),
    ("timeless-langevin-curve", "timeless",
     timeless(dhmax=[40.0, 60.0, 90.0, 130.0], curve=LangevinAnhysteretic,
              guards=MIXED_GUARDS),
     loop(8e3, 70.0)),
    ("timeless-brillouin-curve", "timeless",
     timeless(dhmax=40.0, curve=brillouin), loop(8e3, 70.0)),
    ("timeless-zero-denominator", "timeless",
     timeless(dhmax=40.0, curve=PoleCurve, params=pole_parameters(LANES),
              guards=MIXED_GUARDS),
     loop(2e3, 50.0)),
    ("timeless-signed-zero-slopes", "timeless",
     timeless(dhmax=40.0, curve=FlatCurve, guards=MIXED_GUARDS),
     loop(4e3, 70.0)),
    ("timeless-per-core-drive", "timeless",
     timeless(dhmax=[40.0, 60.0, 90.0, 130.0], accept_equal=[True, False] * 2),
     per_core(6e3, 50.0)),
    ("timeless-per-core-drive-nan-and-inf", "timeless",
     timeless(dhmax=40.0, guards=MIXED_GUARDS), per_core(6e3, 50.0, non_finite=True)),
    ("timeless-one-lane", "timeless",
     timeless(n=1, dhmax=40.0), loop(8e3, 60.0)),
    ("time-domain-registry-paper-guards", "time-domain",
     registry("time-domain"), loop(8e3, 100.0)),
    ("time-domain-no-guards", "time-domain",
     time_domain(), loop(8e3, 100.0)),
    ("time-domain-mixed-clamp", "time-domain",
     time_domain(guards=MIXED_GUARDS), loop(8e3, 100.0)),
    ("time-domain-held-samples", "time-domain",
     time_domain(guards=PAPER), held(6e3, 100.0)),
    ("time-domain-signed-zero-drive", "time-domain",
     time_domain(guards=PAPER), signed_zeros(3e3, 50.0)),
    ("time-domain-nan-and-inf-samples", "time-domain",
     time_domain(guards=MIXED_GUARDS), with_non_finite(6e3, 75.0)),
    ("time-domain-nan-and-inf-samples-infinite-limit", "time-domain",
     time_domain(divergence_limit=np.inf), with_non_finite(6e3, 75.0)),
    ("time-domain-repeated-infinities", "time-domain",
     time_domain(guards=MIXED_GUARDS), repeated_infinities(6e3, 75.0)),
    ("time-domain-lanes-diverge-mid-series", "time-domain",
     time_domain(divergence_limit=[1e6, 0.3, 0.6, 0.9]), loop(8e3, 100.0)),
    ("time-domain-langevin-curve", "time-domain",
     time_domain(curve=LangevinAnhysteretic, guards=MIXED_GUARDS),
     loop(8e3, 100.0)),
    ("time-domain-brillouin-curve", "time-domain",
     time_domain(curve=brillouin, guards=PAPER), loop(8e3, 100.0)),
    ("time-domain-zero-denominator", "time-domain",
     time_domain(curve=PoleCurve, params=pole_parameters(LANES)),
     loop(2e3, 50.0)),
    ("time-domain-per-core-drive-some-lanes-move", "time-domain",
     time_domain(guards=PAPER), per_core(6e3, 50.0)),
    ("time-domain-per-core-drive-nan-and-inf", "time-domain",
     time_domain(guards=MIXED_GUARDS, divergence_limit=[1e6, 0.3, 1e6, 1e6]),
     per_core(6e3, 50.0, non_finite=True)),
    ("time-domain-one-lane", "time-domain",
     time_domain(n=1, guards=PAPER), loop(8e3, 100.0)),
    ("preisach-registry-loop", "preisach",
     preisach(), loop(20e3, 500.0)),
    ("preisach-on-lane-0-thresholds", "preisach",
     preisach(), on_thresholds),
    ("preisach-on-own-thresholds-per-core", "preisach",
     preisach(), on_own_thresholds),
    ("preisach-held-samples", "preisach",
     preisach(), held(20e3, 1000.0)),
    ("preisach-lanes-rise-while-others-fall", "preisach",
     preisach(), opposite(20e3, 700.0)),
    ("preisach-restored-relays-rise-and-fall", "preisach",
     preisach_restored(), across_the_grid),
    ("preisach-moves-within-a-cell", "preisach",
     preisach(), within_a_cell),
    ("preisach-per-core-drive", "preisach",
     preisach(), per_core(20e3, 600.0)),
    ("preisach-one-lane", "preisach",
     preisach(n=1), loop(20e3, 500.0)),
]


def leaves(value, path="") -> "list[tuple[str, np.ndarray]]":
    """Every array of a run, snapshot or counter record, by path."""
    if isinstance(value, dict):
        return [
            leaf for key in sorted(value)
            for leaf in leaves(value[key], f"{path}.{key}")
        ]
    if isinstance(value, (tuple, list)):
        return [
            leaf for i, item in enumerate(value)
            for leaf in leaves(item, f"{path}[{i}]")
        ]
    if hasattr(value, "__dataclass_fields__"):
        return [
            leaf for name in value.__dataclass_fields__
            for leaf in leaves(getattr(value, name), f"{path}.{name}")
        ]
    return [(path, np.asarray(value))]


def assert_same_bits(actual, expected, label: str) -> None:
    got, want = leaves(actual), leaves(expected)
    assert [p for p, _ in got] == [p for p, _ in want], label
    for (path, a), (_, b) in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, f"{label}{path}"
        assert a.tobytes() == b.tobytes(), f"{label}{path} differs"


def run_record(result) -> dict:
    return {
        "m": result.m, "b": result.b, "updated": result.updated,
        "extras": result.extras, "counters": result.counters,
    }


@pytest.mark.parametrize(
    "family, build, drive",
    [row[1:] for row in FUSED_ROWS],
    ids=[row[0] for row in FUSED_ROWS],
)
def test_fused_run_is_the_per_sample_run(family, build, drive):
    fused_batch, loop_batch = build(), build()
    assert fused_batch.family == family
    assert fused_batch.backend.name == "numpy"
    h = drive(fused_batch)
    with warnings.catch_warnings():
        # Both paths run under one error state: a NaN or infinite
        # sample warns on neither.
        warnings.simplefilter("error", RuntimeWarning)
        fused = run_batch_series(fused_batch, h, reset=False, fused=True)
        loop = run_batch_series(loop_batch, h, reset=False, fused=False)
    assert_same_bits(run_record(fused), run_record(loop), "run")
    assert_same_bits(fused_batch.snapshot(), loop_batch.snapshot(), "snapshot")


@pytest.mark.parametrize(
    "family, build, drive",
    [row[1:] for row in FUSED_ROWS],
    ids=[row[0] for row in FUSED_ROWS],
)
def test_fused_run_cut_in_two_is_one_call(family, build, drive):
    whole = build()
    h = drive(whole)
    one = run_batch_series(whole, h, reset=False, fused=True)
    for cut in (1, len(h) // 2, len(h) - 1):
        batch = build()
        first = run_batch_series(batch, h[:cut], reset=False, fused=True)
        second = run_batch_series(batch, h[cut:], reset=False, fused=True)
        joined = {
            "m": np.concatenate([first.m, second.m]),
            "b": np.concatenate([first.b, second.b]),
            "updated": np.concatenate([first.updated, second.updated]),
            "extras": {
                key: np.concatenate([first.extras[key], second.extras[key]])
                for key in first.extras
            },
            "counters": {
                key: first.counters[key] + second.counters[key]
                for key in first.counters
            },
        }
        assert_same_bits(joined, run_record(one), f"cut at {cut}")
        assert_same_bits(batch.snapshot(), whole.snapshot(), f"cut at {cut}")
