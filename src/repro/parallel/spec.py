"""Picklable work descriptions for the sharded executor.

A pool worker never receives a live model: it receives a
:class:`ShardSpec` — which family, which contiguous lane range, and how
to rebuild that sub-ensemble (a registry recipe or a pre-sliced engine
payload) plus a :class:`DriveSpec` naming the drive — and reconstructs
everything on its side of the process boundary.  That keeps the task
pickle small, makes specs reproducible (the same spec always rebuilds
the same lanes), and is what lets the sharded run stay **bitwise**
equal to the single-process one: both sides construct the identical
sub-ensembles and slice the identical sample columns.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.backend import resolve_backend
from repro.batch.lanes import check_lane_range
from repro.batch.params import BatchJAParameters
from repro.core.slope import SlopeGuards, tile_guards
from repro.errors import ParameterError, ScenarioError
from repro.ja.anhysteretic import Anhysteretic, tile_anhysteretic
from repro.models.registry import ModelFamily, get_family

#: Whole recipe ensembles each process keeps for
#: :meth:`EnsembleSpec.build_batch`: a grid's few families, or a warm
#: pool's recent requests, without holding every recipe a long-lived
#: worker ever served.
_RECIPE_CACHE_SIZE = 8


@lru_cache(maxsize=_RECIPE_CACHE_SIZE)
def _recipe_batch(family: ModelFamily, n_cores: int, seed: int, backend: str):
    """One recipe's whole stacked ensemble, built once per process.

    Only ever cut into shard payloads: it is never run and never handed
    out, so every caller rebuilds fresh, reset lanes from it."""
    return family.make_batch(n_cores, seed, backend=backend)


@dataclass(frozen=True)
class EnsembleSpec:
    """Registry recipe for a whole batch ensemble: ``family.make_models
    (n_cores, seed)``, stacked.

    Workers rebuild the **full** scalar ensemble (once per process, see
    :meth:`build_batch`) and slice their lane range out of it — never
    ``make_models(width, seed)`` — because the factories draw every
    lane from one RNG stream: lane ``i`` of the ensemble only exists as
    the ``i``-th draw of the full recipe.

    ``backend`` names the array backend the rebuilt batch runs on; the
    executor pins ``None`` to the parent's resolved ``REPRO_BACKEND``
    default before dispatch (see
    :func:`repro.parallel.executor.prepare_job`), so every worker
    rebuilds its shard on the same backend the parent planned with.
    """

    family: str
    n_cores: int
    seed: int = 0
    backend: str | None = None

    def __post_init__(self) -> None:
        # Normalised to a Python int: a recipe is a cache and stack key,
        # so 4, np.int64(4) and 4.0 must not name three recipes (4.0 and
        # every other non-integer is refused here, before any worker).
        for name, least in (("n_cores", 1), ("seed", 0)):
            value = getattr(self, name)
            try:
                number = operator.index(value)
            except TypeError:
                number = None
            if number is None or isinstance(value, (bool, np.bool_)):
                raise ParameterError(
                    f"{name} must be an integer, got {value!r}"
                )
            if number < least:
                raise ParameterError(
                    f"{name} must be >= {least}, got {number}"
                )
            object.__setattr__(self, name, number)
        get_family(self.family)  # fail fast on unknown families
        if self.backend is not None:
            resolve_backend(self.backend)  # fail fast on unknown backends

    def build_models(self) -> list:
        return get_family(self.family).make_models(self.n_cores, self.seed)

    def build_batch(self, start: int = 0, stop: int | None = None):
        """Lanes ``[start, stop)`` of the recipe's ensemble, freshly
        reset, on the recipe's backend (``None``: the environment
        default): the family's ``batch_from_payload`` over the lanes'
        :meth:`shard_payload`, the route a live batch's shards already
        take.

        The whole ensemble is built once per process, so a worker
        serving many shards of one recipe pays ``make_models`` once.
        The last :data:`_RECIPE_CACHE_SIZE` recipes are kept, keyed by
        the family *record* (a family registered again under the same
        name never gets the old record's build), ``n_cores``, ``seed``
        and the *resolved* backend name (a ``backend=None`` spec
        follows a changed ``REPRO_BACKEND``).  The cache changes which
        process builds, never what is built.
        """
        stop = self.n_cores if stop is None else stop
        payload = self.shard_payload(start, stop)
        return get_family(self.family).batch_from_payload(payload)

    def shard_payload(self, start: int, stop: int) -> dict:
        """The ``shard_payload`` of lanes ``[start, stop)``, cut from the
        recipe's whole ensemble in this process's recipe cache (see
        :meth:`build_batch`)."""
        check_lane_range(start, stop, self.n_cores)
        family = get_family(self.family)
        backend = resolve_backend(self.backend).name
        whole = _recipe_batch(family, self.n_cores, self.seed, backend)
        return whole.shard_payload(start, stop)


@dataclass(frozen=True, eq=False)
class DriveSpec:
    """One drive, by scenario name or as explicit driver samples.

    Exactly one of ``scenario`` / ``samples`` is set.  A scenario drive
    carries the *resolved* ``driver_step`` (the executor resolves the
    model hint before sharding — a shard's own hint could differ, which
    would silently break bitwise equality).  Scenario samples are built
    at the full ensemble width and column-sliced per shard, so per-core
    scenarios see the same lane geometry as a single-process run.

    Equality is array-aware (the dataclass-generated ``__eq__`` would
    crash on the ndarray field); specs are not hashable.
    """

    scenario: str | None = None
    h_max: float | None = None
    driver_step: float | None = None
    samples: np.ndarray | None = None

    __hash__ = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, DriveSpec):
            return NotImplemented
        if (self.samples is None) != (other.samples is None):
            return False
        return (
            self.scenario == other.scenario
            and self.h_max == other.h_max
            and self.driver_step == other.driver_step
            and (
                self.samples is None
                or np.array_equal(self.samples, other.samples)
            )
        )

    def __post_init__(self) -> None:
        if (self.scenario is None) == (self.samples is None):
            raise ParameterError(
                "a DriveSpec needs exactly one of scenario / samples"
            )
        if self.scenario is not None:
            if self.h_max is None or self.driver_step is None:
                raise ScenarioError(
                    f"scenario drive {self.scenario!r} needs h_max and a "
                    "resolved driver_step"
                )
        else:
            arr = np.asarray(self.samples, dtype=float)
            if arr.ndim not in (1, 2) or len(arr) == 0:
                raise ParameterError(
                    "samples must be a non-empty 1-D or (samples, cores) "
                    f"array, got shape {arr.shape}"
                )
            object.__setattr__(self, "samples", arr)

    def full_samples(self, n_cores: int) -> np.ndarray:
        """The drive at full ensemble width (1-D when shared)."""
        if self.samples is not None:
            if self.samples.ndim == 2 and self.samples.shape[1] != n_cores:
                raise ParameterError(
                    f"per-core samples need {n_cores} columns, "
                    f"got {self.samples.shape[1]}"
                )
            return self.samples
        from repro.scenarios import get_scenario

        scenario = get_scenario(self.scenario)
        return scenario.samples(
            self.h_max, self.driver_step, n_cores=n_cores
        )

    def shard_samples(self, n_cores: int, start: int, stop: int) -> np.ndarray:
        """The columns a shard over lanes ``[start, stop)`` consumes."""
        full = self.full_samples(n_cores)
        if full.ndim == 1:
            return full
        return full[:, start:stop]


@dataclass(frozen=True, eq=False)
class ShardSpec:
    """One worker's task: rebuild lanes ``[start, stop)`` and drive them.

    The sub-ensemble is always rebuilt through the family registry's
    ``batch_from_payload`` hook (:meth:`build_batch`), from a payload
    that comes from exactly one of two places:

    ``payload``
        A pre-sliced engine construction dict (the engines'
        ``shard_payload``) — the cheap route when the parent already
        holds a live batch.
    ``ensemble``
        A registry :class:`EnsembleSpec`; the worker cuts its range's
        payload from the full recipe, which each process builds once
        (:meth:`EnsembleSpec.shard_payload`) — the route when only the
        recipe exists.

    Either route carries the parent's array-backend name — inside the
    payload dict (the engines ship ``backend`` in ``shard_payload``) or
    on the :class:`EnsembleSpec` — so workers rebuild their shard on
    the same backend regardless of their own ``REPRO_BACKEND``
    environment.

    Explicit-sample drives carried by a ShardSpec are **shard-local**:
    the executor pre-slices per-core matrices to this shard's columns
    before dispatch, so workers never unpickle the full-width drive.
    A scenario drive stays name-sized and is rebuilt worker-side only
    on a route whose workers share this process's scenario registry,
    a per-core one only for a shard that spans the whole ensemble (see
    :func:`repro.parallel.executor.prepare_job`).

    ``threads`` is the lane-thread count this shard pins while it runs
    (see :mod:`repro.backend.threads`): the executing process wraps
    each row block's run in ``thread_limit(threads)``
    (:func:`repro.parallel.blocks.drain_stack`), so the thread choice
    travels with the task instead of leaking ambient state across the
    fork.  The planner only emits ``threads > 1`` on single-shard
    serial plans; pooled shards always carry 1.

    ``chunk_lanes`` selects bounded-memory execution: the executing
    process streams the shard's result as contiguous row blocks —
    sample ranges across all ``width`` lanes — of at most
    ``chunk_lanes × samples`` lane-samples, one row at the least
    (:func:`repro.parallel.blocks.drain_stack`), instead of
    materialising the whole ``(samples, width)`` buffer at once.
    ``None`` (default) is one block, the one-shot run.  Chunking
    travels with the spec — like ``threads`` — so local pools and
    remote :mod:`repro.dist` workers honour the same bound.

    ShardSpecs compare by identity (``eq=False``): payloads hold
    ndarrays and engine configuration objects, for which a generated
    field-wise ``__eq__`` would be ill-defined — compare the scalar
    fields (and :class:`DriveSpec`, which is array-aware) explicitly
    if needed.
    """

    family: str
    n_cores_total: int
    start: int
    stop: int
    drive: DriveSpec
    ensemble: EnsembleSpec | None = None
    payload: dict | None = None
    threads: int = 1
    chunk_lanes: int | None = None

    def __post_init__(self) -> None:
        if (self.ensemble is None) == (self.payload is None):
            raise ParameterError(
                "a ShardSpec needs exactly one of ensemble / payload"
            )
        if self.threads < 1:
            raise ParameterError(
                f"shard threads must be >= 1, got {self.threads}"
            )
        if self.chunk_lanes is not None and self.chunk_lanes < 1:
            raise ParameterError(
                f"shard chunk_lanes must be >= 1, got {self.chunk_lanes}"
            )
        check_lane_range(self.start, self.stop, self.n_cores_total)

    @property
    def width(self) -> int:
        return self.stop - self.start

    def build_payload(self) -> dict:
        """This shard's construction payload: the one it carries, or the
        one its recipe's cache cuts."""
        if self.payload is not None:
            return self.payload
        return self.ensemble.shard_payload(self.start, self.stop)

    def build_batch(self):
        """Reconstruct this shard's sub-ensemble (freshly reset): the
        family's ``batch_from_payload`` over :meth:`build_payload`."""
        return get_family(self.family).batch_from_payload(
            self.build_payload()
        )

    def build_samples(self) -> np.ndarray:
        if self.drive.samples is not None:
            samples = self.drive.samples
            if samples.ndim == 2 and samples.shape[1] != self.width:
                raise ParameterError(
                    f"explicit samples in a ShardSpec are shard-local: "
                    f"expected {self.width} columns for lanes "
                    f"[{self.start}, {self.stop}), got {samples.shape[1]}"
                )
            return samples
        return self.drive.shard_samples(
            self.n_cores_total, self.start, self.stop
        )


#: Payload values that are one setting for every lane, not one per lane.
_SETTINGS = (str, bool, int, float, np.generic, type(None))


def tile_payload(payload: dict, width: int, copies: int) -> "dict | None":
    """``copies`` of one ``width``-lane ``shard_payload`` side by side,
    in lane order, as one payload — the lanes of a stack, whose members
    share recipe and lane range and so one payload — or ``None`` when a
    value is of a kind this does not know how to tile.

    Array operations only: a lane array (``width`` long on axis 0, the
    lane-major layout :attr:`ModelFamily.batch_from_payload` documents)
    repeats along its lane axis, the stacked parameters, anhysteretic
    curve and guards through their slicing twins' ``tile``
    counterparts, and a scalar setting (the backend name, a shared
    ``accept_equal``) passes through.  Any other array — a grid shared
    by every lane, or a 0-d one — is not known to be per lane, so the
    payload is left untiled.  Because every lane evaluates elementwise,
    the tiled batch runs each copy bitwise as the payload's own batch.
    """
    tiled = {}
    for key, value in payload.items():
        if isinstance(value, np.ndarray):
            if value.ndim == 0 or len(value) != width:
                return None
            tiled[key] = np.concatenate((value,) * copies)
        elif isinstance(value, BatchJAParameters):
            tiled[key] = value.tile(copies)
        elif isinstance(value, SlopeGuards):
            tiled[key] = tile_guards(value, copies)
        elif isinstance(value, Anhysteretic):
            tiled[key] = tile_anhysteretic(value, copies)
        elif isinstance(value, _SETTINGS):
            tiled[key] = value
        else:
            return None
    return tiled
