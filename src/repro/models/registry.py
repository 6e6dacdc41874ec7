"""Registry of hysteresis model families.

One :class:`ModelFamily` record per implementation family maps the
family name to factories for scalar models, heterogeneous scalar
ensembles and the stacked batch model, so generic code — the protocol
conformance suite, the scenario-grid experiment EXP-X5, the non-JA
batch benchmark — can iterate over *all* families without knowing any
of them:

    for family in list_families():
        batch = family.make_batch(n_cores=8, seed=0)
        result = run_batch_series(batch, samples)

Families register themselves here at import; third-party families can
call :func:`register_family` with their own record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from repro.errors import ParameterError
from repro.ja.parameters import PAPER_PARAMETERS, JAParameters


@dataclass(frozen=True)
class ModelFamily:
    """One registered hysteresis model family.

    Attributes
    ----------
    name:
        Registry key (``"timeless"``, ``"preisach"``, ``"time-domain"``).
    description:
        One-line description for listings and experiment tables.
    make_models:
        ``(n, seed) -> list`` of N heterogeneous scalar models
        conforming to :class:`repro.models.protocol.HysteresisModel`.
    stack:
        Stacks a scalar-model list into the family's batch model
        (each family's ``from_scalar_models``).
    h_scale:
        A drive amplitude [A/m] that exercises the family's full loop
        (used by generic tests and scenario defaults).
    extras_channels:
        The per-sample channels the family's batch model records
        (``probe_extras`` keys) — the output schema the sharded
        executor (:mod:`repro.parallel`) allocates shared buffers from.
        Each entry is either a bare channel name (``float64``, the
        overwhelmingly common case) or a ``(name, dtype)`` pair for
        families recording integer/boolean channels;
        :meth:`extras_schema` resolves the normalised mapping.
    counter_channels:
        Names of the per-core counter totals (``counter_totals`` keys),
        ``int64`` each.  Documentation/introspection only: the sharded
        executor collects counters from the workers' actual totals, so
        lazily registered counters need no registry entry.
    batch_from_payload:
        Rebuilds the family's batch model from a picklable
        ``shard_payload`` dict (each engine's ``from_shard_payload``);
        required, and keyword-only.  Every shard's sub-ensemble is
        built through it
        (:meth:`~repro.parallel.spec.ShardSpec.build_batch`), a
        recipe's from the payload its whole ensemble cuts, so no route
        ships a live model.  Payload arrays must be lane-major, one
        entry per lane along axis 0: a stack of equal shards repeats
        the payload side by side along that axis
        (:func:`repro.parallel.spec.tile_payload`).  A payload holding
        an array of another length, or one the hook refuses once
        repeated, runs its shards one at a time.
    """

    name: str
    description: str
    make_models: Callable[[int, int], list]
    stack: Callable[[Sequence], object]
    h_scale: float = 10e3
    extras_channels: "tuple[str | tuple[str, str], ...]" = ()
    counter_channels: tuple[str, ...] = ()
    batch_from_payload: Callable[[dict], object] = field(kw_only=True)

    def extras_schema(self) -> "dict[str, np.dtype]":
        """The extras channels as ``{name: dtype}`` — bare names resolve
        to ``float64``, ``(name, dtype)`` entries to their declared
        dtype.  This is the allocation schema of the sharded executor's
        shared output buffers; a wrong declared dtype would silently
        coerce what the in-process executor records from the probed
        arrays, so families with non-float extras must declare them."""
        schema: dict[str, np.dtype] = {}
        for entry in self.extras_channels:
            if isinstance(entry, str):
                schema[entry] = np.dtype(np.float64)
            else:
                name, dtype = entry
                schema[name] = np.dtype(dtype)
        return schema

    def make_scalar(self, seed: int = 0):
        """One scalar model of this family."""
        return self.make_models(1, seed)[0]

    def make_batch(self, n_cores: int, seed: int = 0, backend=None):
        """A stacked batch model over a heterogeneous ensemble.

        ``backend`` selects the array backend (name or
        :class:`repro.backend.ArrayBackend`); ``None`` resolves the
        ``REPRO_BACKEND`` environment default (:func:`repro.backend.
        resolve_backend`) — this is one of the surfaces where the
        environment wins, unlike direct engine construction.
        """
        return self._on_backend(self.stack(self.make_models(n_cores, seed)), backend)

    def make_pair(self, n_cores: int, seed: int = 0, backend=None):
        """Matched ``(batch, scalars)`` built from the *same* ensemble —
        the inputs of a lane-by-lane equivalence check (bitwise on
        exact backends, ``rtol``-tiered on JIT backends)."""
        scalars = self.make_models(n_cores, seed)
        reference = self.make_models(n_cores, seed)
        return self._on_backend(self.stack(scalars), backend), reference

    @staticmethod
    def _on_backend(batch, backend):
        from repro.backend import resolve_backend

        if hasattr(batch, "use_backend"):
            batch.use_backend(resolve_backend(backend))
        return batch


_FAMILIES: dict[str, ModelFamily] = {}


def register_family(family: ModelFamily) -> ModelFamily:
    if family.name in _FAMILIES:
        raise ParameterError(f"duplicate model family {family.name!r}")
    _FAMILIES[family.name] = family
    return family


def unregister_family(name: str) -> ModelFamily:
    """Remove a registered family (tests and plug-in teardown).

    The built-in families are permanent: code all over the repo names
    them, so removing one would only manufacture confusing failures.
    """
    if name in ("timeless", "preisach", "time-domain"):
        raise ParameterError(f"cannot unregister built-in family {name!r}")
    try:
        return _FAMILIES.pop(name)
    except KeyError:
        known = ", ".join(sorted(_FAMILIES))
        raise ParameterError(f"unknown model family {name!r}; known: {known}")


def get_family(name: str) -> ModelFamily:
    try:
        return _FAMILIES[name]
    except KeyError:
        known = ", ".join(sorted(_FAMILIES))
        raise ParameterError(f"unknown model family {name!r}; known: {known}")


def list_families() -> list[ModelFamily]:
    return [_FAMILIES[k] for k in sorted(_FAMILIES)]


def perturbed_parameters(
    n: int, seed: int = 0, base: JAParameters = PAPER_PARAMETERS
) -> list[JAParameters]:
    """Reproducible heterogeneous JA parameter sets around ``base``.

    The shared ensemble recipe of the family factories: ±30% log-uniform
    on ``k``/``m_sat``, ``c`` in [0.05, 0.4].
    """
    rng = np.random.default_rng(seed)

    def perturb(value: float, spread: float = 0.3) -> float:
        return float(
            value * np.exp(rng.uniform(np.log(1 - spread), np.log(1 + spread)))
        )

    return [
        base.with_updates(
            k=perturb(base.k),
            m_sat=perturb(base.m_sat),
            c=float(rng.uniform(0.05, 0.4)),
            name=f"{base.name}-pert-{seed}-{i}",
        )
        for i in range(n)
    ]


# -- built-in families -------------------------------------------------------


def _make_timeless_models(n: int, seed: int = 0) -> list:
    from repro.core.model import TimelessJAModel

    rng = np.random.default_rng(seed + 17)
    params = perturbed_parameters(n, seed)
    return [
        TimelessJAModel(
            params[i],
            dhmax=float(rng.uniform(25.0, 100.0)),
            accept_equal=bool(rng.random() < 0.5),
        )
        for i in range(n)
    ]


def _stack_timeless(models: Sequence) -> object:
    from repro.batch.engine import BatchTimelessModel

    return BatchTimelessModel.from_scalar_models(list(models))


def _timeless_from_payload(payload: dict) -> object:
    from repro.batch.engine import BatchTimelessModel

    return BatchTimelessModel.from_shard_payload(payload)


@lru_cache(maxsize=8)
def _identified_preisach_ensemble(
    n: int, seed: int, n_cells: int, h_sat: float, dhmax: float
) -> tuple:
    """Identify N Preisach cores from perturbed JA sets.

    One stacked FORC measurement per group of up to 64 cores
    (:func:`repro.preisach.identification.everett_maps_from_ja`), each
    core bitwise its own identification.  Cached because campaign
    workers rebuild the same ensemble for every Preisach cell they
    serve."""
    from repro.preisach.identification import identify_models_from_ja

    models, _ = identify_models_from_ja(
        perturbed_parameters(n, seed), n_cells=n_cells, h_sat=h_sat, dhmax=dhmax
    )
    return tuple(models)


def _make_preisach_models(
    n: int,
    seed: int = 0,
    n_cells: int = 12,
    h_sat: float = 20e3,
    dhmax: float = 400.0,
) -> list:
    """N Preisach cores, each Everett-identified against a perturbed JA
    set.  Coarse defaults keep the registry factory quick; experiments
    that need finer grids identify their own ensembles."""
    models = _identified_preisach_ensemble(n, seed, n_cells, h_sat, dhmax)
    return [model.clone() for model in models]


def _stack_preisach(models: Sequence) -> object:
    from repro.batch.preisach import BatchPreisachModel

    return BatchPreisachModel.from_scalar_models(list(models))


def _preisach_from_payload(payload: dict) -> object:
    from repro.batch.preisach import BatchPreisachModel

    return BatchPreisachModel.from_shard_payload(payload)


def _make_time_domain_models(n: int, seed: int = 0) -> list:
    from repro.baselines.time_domain import TimeDomainJAModel
    from repro.core.slope import SlopeGuards

    params = perturbed_parameters(n, seed)
    return [TimeDomainJAModel(p, guards=SlopeGuards.paper()) for p in params]


def _stack_time_domain(models: Sequence) -> object:
    from repro.batch.time_domain import BatchTimeDomainModel

    return BatchTimeDomainModel.from_scalar_models(list(models))


def _time_domain_from_payload(payload: dict) -> object:
    from repro.batch.time_domain import BatchTimeDomainModel

    return BatchTimeDomainModel.from_shard_payload(payload)


register_family(
    ModelFamily(
        name="timeless",
        description="timeless slope discretisation (the paper's model)",
        make_models=_make_timeless_models,
        stack=_stack_timeless,
        extras_channels=("m_an",),
        counter_channels=(
            "euler_steps",
            "clamped_slopes",
            "dropped_increments",
        ),
        batch_from_payload=_timeless_from_payload,
    )
)

register_family(
    ModelFamily(
        name="preisach",
        description="discrete Preisach relay grid (Everett-identified)",
        make_models=_make_preisach_models,
        stack=_stack_preisach,
        h_scale=20e3,
        counter_channels=("switch_events",),
        batch_from_payload=_preisach_from_payload,
    )
)

register_family(
    ModelFamily(
        name="time-domain",
        description="classic dM/dH forward-Euler chain (pre-paper)",
        make_models=_make_time_domain_models,
        stack=_stack_time_domain,
        counter_channels=(
            "steps",
            "slope_evaluations",
            "negative_slope_evaluations",
            "diverged",
        ),
        batch_from_payload=_time_domain_from_payload,
    )
)
