"""Struct-of-arrays Jiles-Atherton parameters for the batch engine.

:class:`BatchJAParameters` holds one NumPy array per JA parameter, one
lane per ensemble member.  It is attribute-compatible with
:class:`repro.ja.parameters.JAParameters` for everything the equation
layer reads (``m_sat``, ``a``, ``k``, ``c``, ``alpha``,
``modified_shape``), so :mod:`repro.ja.equations`,
:func:`repro.ja.anhysteretic.make_anhysteretic` and the pure step
kernel accept it unchanged — that duck typing is the whole trick that
lets one kernel serve both the scalar wrappers and the vectorised
ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.batch.lanes import check_lane_range
from repro.errors import ParameterError
from repro.ja.parameters import JAParameters


@dataclass(frozen=True, slots=True)
class BatchJAParameters:
    """Immutable stacked JA parameter sets (one array lane per member).

    ``a2`` uses NaN for members without a modified-Langevin override,
    mirroring ``a2=None`` on the scalar record; ``modified_shape``
    resolves those lanes to ``a`` exactly like the scalar property.
    """

    m_sat: np.ndarray
    a: np.ndarray
    k: np.ndarray
    c: np.ndarray
    alpha: np.ndarray
    a2: np.ndarray
    names: tuple[str, ...]

    @classmethod
    def from_sequence(cls, params: Sequence[JAParameters]) -> "BatchJAParameters":
        """Stack individually validated scalar parameter sets."""
        if len(params) == 0:
            raise ParameterError("need at least one JAParameters to stack")
        for p in params:
            if not isinstance(p, JAParameters):
                raise ParameterError(
                    f"expected JAParameters members, got {type(p).__name__}"
                )
        return cls(
            m_sat=np.array([p.m_sat for p in params], dtype=float),
            a=np.array([p.a for p in params], dtype=float),
            k=np.array([p.k for p in params], dtype=float),
            c=np.array([p.c for p in params], dtype=float),
            alpha=np.array([p.alpha for p in params], dtype=float),
            a2=np.array(
                [np.nan if p.a2 is None else p.a2 for p in params], dtype=float
            ),
            names=tuple(p.name for p in params),
        )

    @property
    def modified_shape(self) -> np.ndarray:
        """Per-member shape for the modified Langevin curve (``a2`` or ``a``)."""
        return np.where(np.isnan(self.a2), self.a, self.a2)

    def member(self, index: int) -> JAParameters:
        """Rebuild the scalar parameter record of one lane."""
        a2 = float(self.a2[index])
        return JAParameters(
            m_sat=float(self.m_sat[index]),
            a=float(self.a[index]),
            k=float(self.k[index]),
            c=float(self.c[index]),
            alpha=float(self.alpha[index]),
            a2=None if np.isnan(a2) else a2,
            name=self.names[index],
        )

    def lane_slice(self, start: int, stop: int) -> "BatchJAParameters":
        """The contiguous lane range ``[start, stop)`` as a new stack.

        The shard planner's construction primitive: each array is
        copied, so the slice is independent of (and picklable without)
        the parent ensemble.
        """
        check_lane_range(start, stop, len(self))
        return BatchJAParameters(
            m_sat=self.m_sat[start:stop].copy(),
            a=self.a[start:stop].copy(),
            k=self.k[start:stop].copy(),
            c=self.c[start:stop].copy(),
            alpha=self.alpha[start:stop].copy(),
            a2=self.a2[start:stop].copy(),
            names=self.names[start:stop],
        )

    def tile(self, copies: int) -> "BatchJAParameters":
        """``copies`` of this stack side by side, in lane order: the
        lanes of a stack of equal shards
        (:func:`repro.parallel.blocks.drain_stack`), one array repeat
        per parameter."""
        return BatchJAParameters(
            m_sat=np.tile(self.m_sat, copies),
            a=np.tile(self.a, copies),
            k=np.tile(self.k, copies),
            c=np.tile(self.c, copies),
            alpha=np.tile(self.alpha, copies),
            a2=np.tile(self.a2, copies),
            names=self.names * copies,
        )

    def __len__(self) -> int:
        return len(self.m_sat)

    def __iter__(self) -> Iterator[JAParameters]:
        return (self.member(i) for i in range(len(self)))


def stack_parameters(
    params: "Sequence[JAParameters] | BatchJAParameters",
) -> BatchJAParameters:
    """Coerce a parameter collection into a :class:`BatchJAParameters`."""
    if isinstance(params, BatchJAParameters):
        return params
    return BatchJAParameters.from_sequence(params)
