"""Anhysteretic magnetisation curves and their derivatives.

The anhysteretic curve ``Man(He)`` is the hysteresis-free magnetisation a
material would reach at effective field ``He`` given unlimited thermal
relaxation.  The Jiles-Atherton model drags the actual magnetisation
towards it.  Three families are provided:

* :class:`LangevinAnhysteretic` — the classic
  ``L(x) = coth(x) - 1/x`` of the original 1984 paper, with the
  series-expanded small-``x`` branch needed for numerical robustness;
* :class:`ModifiedLangevinAnhysteretic` — the arctangent form
  ``(2/pi) * atan(x)`` of Wilson et al. used by the paper's SystemC code
  (``Lang_mod``);
* :class:`BrillouinAnhysteretic` — the quantum-mechanical Brillouin
  function, included as an extension point (the paper cites only the two
  above).

All curves are *normalised*: they return ``m_an = Man / Msat`` in
``(-1, 1)`` and their derivative with respect to the normalised argument.
This matches the published SystemC code, which carries magnetisation as
``mtotal = M / ms`` throughout.

**Ufunc safety.**  ``curve``/``curve_derivative``/``value``/``derivative``
accept scalars or NumPy arrays; the ``shape`` parameter itself may be an
array (one shape per ensemble member), which is how the batch engine
(:mod:`repro.batch`) evaluates heterogeneous materials in one call.
Scalar arguments keep the original ``math``-based fast path; the array
branches use the NumPy ufuncs backed by the same libm kernels, so the
two evaluate bitwise identically element-wise (asserted by the
batch/scalar equivalence tests).

**Backend threading.**  The array branches evaluate through the
curve's ``xp`` attribute — an array-backend ufunc namespace
(:mod:`repro.backend`), defaulting to the ``numpy`` module itself (the
exact reference backend, for which the indirection changes no bits).
Assign a different namespace (``curve.xp = cupy`` style) to evaluate a
curve's array path on another backend; the scalar fast paths always
use NumPy's kernels, which is the 1-ulp parity rule the bitwise lane
contract relies on.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from repro.constants import TWO_OVER_PI
from repro.errors import ParameterError
from repro.ja.parameters import JAParameters

#: Below this |x| the Langevin function switches to its Taylor series to
#: avoid catastrophic cancellation in ``coth(x) - 1/x``.
_LANGEVIN_SERIES_CUTOFF = 1e-4

#: Above this |x|, ``1/sinh(x)**2`` has underflowed to zero while
#: ``sinh(x)`` itself would overflow near 710 — switch to asymptotics.
_SINH_OVERFLOW_CUTOFF = 350.0


class Anhysteretic(ABC):
    """A normalised anhysteretic curve ``m_an(He)``.

    Parameters
    ----------
    shape:
        Shape (scale) parameter in A/m: the effective field is divided by
        it before evaluating the dimensionless curve.  May be an array
        (one shape per ensemble member) for batch evaluation.
    """

    #: Registry key used by :func:`make_anhysteretic`.
    kind: str = "abstract"

    #: Array-backend ufunc namespace the array branches evaluate
    #: through (class default: the exact NumPy reference backend).
    xp = np

    def __init__(self, shape: float | np.ndarray) -> None:
        if np.ndim(shape) == 0:
            if not math.isfinite(shape) or shape <= 0.0:
                raise ParameterError(
                    f"anhysteretic shape parameter must be finite and > 0, "
                    f"got {shape!r}"
                )
            self.shape = float(shape)
        else:
            shape = np.asarray(shape, dtype=float)
            if not (np.isfinite(shape).all() and (shape > 0.0).all()):
                raise ParameterError(
                    "anhysteretic shape parameters must all be finite and "
                    f"> 0, got {shape!r}"
                )
            self.shape = shape

    @abstractmethod
    def curve(self, x: float | np.ndarray) -> float | np.ndarray:
        """Dimensionless curve value at dimensionless argument ``x``."""

    @abstractmethod
    def curve_derivative(self, x: float | np.ndarray) -> float | np.ndarray:
        """Derivative of :meth:`curve` with respect to ``x``."""

    def value(self, h_effective: float | np.ndarray) -> float | np.ndarray:
        """Normalised anhysteretic magnetisation at effective field [A/m]."""
        return self.curve(h_effective / self.shape)

    def derivative(self, h_effective: float | np.ndarray) -> float | np.ndarray:
        """d(m_an)/d(He) at effective field [A/m] (units 1/(A/m))."""
        return self.curve_derivative(h_effective / self.shape) / self.shape

    def value_array(self, h_effective: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`value` for analysis code."""
        flat = np.asarray(h_effective, dtype=float)
        return np.asarray(self.value(flat), dtype=float)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.shape!r})"


class LangevinAnhysteretic(Anhysteretic):
    """Classic Langevin anhysteretic ``L(x) = coth(x) - 1/x``.

    Near ``x = 0`` the closed form loses all significance, so the Taylor
    series ``x/3 - x**3/45 + 2*x**5/945`` is used instead; the switchover
    point keeps both branches agreeing to better than 1e-12.
    """

    kind = "langevin"

    def curve(self, x: float | np.ndarray) -> float | np.ndarray:
        # np.tanh/np.sinh (not math.*) in the scalar branches: NumPy's
        # SIMD kernels differ from libm by 1 ulp at some inputs, and
        # batch lanes must match the scalar path bitwise.
        if np.ndim(x) == 0:
            if abs(x) < _LANGEVIN_SERIES_CUTOFF:
                x2 = x * x
                return x * (1.0 / 3.0 - x2 / 45.0 + 2.0 * x2 * x2 / 945.0)
            return 1.0 / float(np.tanh(x)) - 1.0 / x
        xp = self.xp
        x = xp.asarray(x, dtype=float)
        x2 = x * x
        series = x * (1.0 / 3.0 - x2 / 45.0 + 2.0 * x2 * x2 / 945.0)
        small = xp.abs(x) < _LANGEVIN_SERIES_CUTOFF
        safe = xp.where(small, 1.0, x)
        closed = 1.0 / xp.tanh(safe) - 1.0 / safe
        return xp.where(small, series, closed)

    def curve_derivative(self, x: float | np.ndarray) -> float | np.ndarray:
        if np.ndim(x) == 0:
            if abs(x) < _LANGEVIN_SERIES_CUTOFF:
                x2 = x * x
                return 1.0 / 3.0 - x2 / 15.0 + 2.0 * x2 * x2 / 189.0
            if abs(x) > _SINH_OVERFLOW_CUTOFF:
                # 1/sinh(x)^2 underflows long before sinh overflows.
                return 1.0 / (x * x)
            sinh = float(np.sinh(x))
            return 1.0 / (x * x) - 1.0 / (sinh * sinh)
        xp = self.xp
        x = xp.asarray(x, dtype=float)
        x2 = x * x
        series = 1.0 / 3.0 - x2 / 15.0 + 2.0 * x2 * x2 / 189.0
        small = xp.abs(x) < _LANGEVIN_SERIES_CUTOFF
        overflow = xp.abs(x) > _SINH_OVERFLOW_CUTOFF
        safe = xp.where(small, 1.0, x)
        inv_x2 = 1.0 / (safe * safe)
        sinh = xp.sinh(xp.where(small | overflow, 1.0, x))
        closed = inv_x2 - 1.0 / (sinh * sinh)
        return xp.where(small, series, xp.where(overflow, inv_x2, closed))


class ModifiedLangevinAnhysteretic(Anhysteretic):
    """Arctangent anhysteretic ``(2/pi) * atan(x)`` (Wilson et al. 2004).

    This is the ``Lang_mod`` function of the paper's SystemC listing.  It
    saturates more slowly than the classic Langevin and is cheap and
    singularity-free, which is why the behavioural HDL models prefer it.
    """

    kind = "modified-langevin"

    def curve(self, x: float | np.ndarray) -> float | np.ndarray:
        # np.arctan (not math.atan) in BOTH branches: NumPy's SIMD
        # kernel differs from libm by 1 ulp at some inputs, and the
        # batch engine's lanes must match the scalar path bitwise.
        if np.ndim(x) == 0:
            return TWO_OVER_PI * float(np.arctan(x))
        return TWO_OVER_PI * self.xp.arctan(x)

    def curve_derivative(self, x: float | np.ndarray) -> float | np.ndarray:
        return TWO_OVER_PI / (1.0 + x * x)


class BrillouinAnhysteretic(Anhysteretic):
    """Brillouin-function anhysteretic ``B_J(x)`` for total spin ``J``.

    ``B_J(x) -> L(x)`` as ``J -> inf`` and ``B_1/2(x) = tanh(x)``.
    Included as an extension beyond the paper's two curves; the series
    branch mirrors the Langevin treatment.
    """

    kind = "brillouin"

    def __init__(self, shape: float, j: float = 0.5) -> None:
        super().__init__(shape)
        if not math.isfinite(j) or j <= 0.0:
            raise ParameterError(f"Brillouin spin J must be > 0, got {j!r}")
        self.j = float(j)

    def curve(self, x: float | np.ndarray) -> float | np.ndarray:
        j = self.j
        c1 = (2.0 * j + 1.0) / (2.0 * j)
        c2 = 1.0 / (2.0 * j)
        if np.ndim(x) == 0:
            if abs(x) < _LANGEVIN_SERIES_CUTOFF:
                # B_J(x) ~ (J+1)/(3J) * x for small x.
                return (j + 1.0) / (3.0 * j) * x
            return c1 / float(np.tanh(c1 * x)) - c2 / float(np.tanh(c2 * x))
        xp = self.xp
        x = xp.asarray(x, dtype=float)
        series = (j + 1.0) / (3.0 * j) * x
        small = xp.abs(x) < _LANGEVIN_SERIES_CUTOFF
        safe = xp.where(small, 1.0, x)
        closed = c1 / xp.tanh(c1 * safe) - c2 / xp.tanh(c2 * safe)
        return xp.where(small, series, closed)

    def curve_derivative(self, x: float | np.ndarray) -> float | np.ndarray:
        j = self.j
        c1 = (2.0 * j + 1.0) / (2.0 * j)
        c2 = 1.0 / (2.0 * j)
        if np.ndim(x) == 0:
            if abs(x) < _LANGEVIN_SERIES_CUTOFF:
                return (j + 1.0) / (3.0 * j)

            def csch_squared(y: float) -> float:
                if abs(y) > _SINH_OVERFLOW_CUTOFF:
                    return 0.0
                sinh = float(np.sinh(y))
                return 1.0 / (sinh * sinh)

            return (c2 * c2) * csch_squared(c2 * x) - (c1 * c1) * csch_squared(
                c1 * x
            )
        xp = self.xp
        x = xp.asarray(x, dtype=float)
        small = xp.abs(x) < _LANGEVIN_SERIES_CUTOFF

        def csch_squared_array(y: np.ndarray) -> np.ndarray:
            overflow = xp.abs(y) > _SINH_OVERFLOW_CUTOFF
            sinh = xp.sinh(xp.where(overflow, 1.0, y))
            return xp.where(overflow, 0.0, 1.0 / (sinh * sinh))

        safe = xp.where(small, 1.0, x)
        closed = (c2 * c2) * csch_squared_array(c2 * safe) - (
            c1 * c1
        ) * csch_squared_array(c1 * safe)
        return xp.where(small, (j + 1.0) / (3.0 * j), closed)


_KINDS: dict[str, type[Anhysteretic]] = {
    LangevinAnhysteretic.kind: LangevinAnhysteretic,
    ModifiedLangevinAnhysteretic.kind: ModifiedLangevinAnhysteretic,
    BrillouinAnhysteretic.kind: BrillouinAnhysteretic,
}


def make_anhysteretic(
    params: JAParameters,
    kind: str = "modified-langevin",
    use_a2: bool = True,
) -> Anhysteretic:
    """Build the anhysteretic curve for a parameter set.

    Parameters
    ----------
    params:
        Jiles-Atherton parameters carrying the shape values ``a``/``a2``.
    kind:
        One of ``"langevin"``, ``"modified-langevin"``, ``"brillouin"``.
        The paper's model uses ``"modified-langevin"``.
    use_a2:
        For the modified curve only: use ``params.a2`` (the paper's
        override) when True, else fall back to ``params.a``.  The classic
        Langevin always uses ``a`` as in Jiles & Atherton (1984).
    """
    try:
        cls = _KINDS[kind]
    except KeyError:
        known = ", ".join(sorted(_KINDS))
        raise ParameterError(f"unknown anhysteretic kind {kind!r}; known: {known}")
    if cls is ModifiedLangevinAnhysteretic and use_a2:
        return cls(params.modified_shape)
    return cls(params.a)


def slice_anhysteretic(
    curve: Anhysteretic, start: int, stop: int
) -> Anhysteretic:
    """The lane range ``[start, stop)`` of a batch-evaluated curve.

    A curve with a scalar shape serves any ensemble width unchanged and
    is returned as-is; an array-shaped curve is rebuilt over the sliced
    shapes (Brillouin ``j`` carried along).  Because every built-in
    curve evaluates element-wise, the sliced curve is bitwise identical
    per lane to the full-width one — the property the sharded executor
    (:mod:`repro.parallel`) relies on.
    """
    if np.ndim(curve.shape) == 0:
        return curve
    shapes = np.asarray(curve.shape)
    n = len(shapes)
    if not (0 <= start < stop <= n):
        raise ParameterError(
            f"lane slice [{start}, {stop}) outside curve of {n} lanes"
        )
    extra: dict[str, float] = {}
    j = getattr(curve, "j", None)
    if j is not None:
        extra["j"] = j
    try:
        return type(curve)(shapes[start:stop].copy(), **extra)
    except TypeError as exc:
        raise ParameterError(
            f"cannot slice a {type(curve).__name__}: its constructor is "
            "not (shape)-compatible; use a scalar-shape curve or override "
            "slicing for the custom family"
        ) from exc


def tile_anhysteretic(curve: Anhysteretic, copies: int) -> Anhysteretic:
    """``copies`` of a batch-evaluated curve's lanes side by side, in
    lane order: the curve of a stack of equal shards
    (:func:`repro.parallel.blocks.drain_stack`).

    A scalar-shape curve serves any width and is returned as-is; an
    array-shaped one is rebuilt over its repeated shapes, as
    :func:`slice_anhysteretic` rebuilds it over a slice, so each lane
    evaluates bitwise as in the curve it came from.
    """
    if np.ndim(curve.shape) == 0:
        return curve
    extra: dict[str, float] = {}
    j = getattr(curve, "j", None)
    if j is not None:
        extra["j"] = j
    try:
        return type(curve)(np.tile(np.asarray(curve.shape), copies), **extra)
    except TypeError as exc:
        raise ParameterError(
            f"cannot tile a {type(curve).__name__}: its constructor is "
            "not (shape)-compatible"
        ) from exc
