"""Warm-pool service layer: persistent workers, async submission,
content-addressed result caching.

The service sits **above** the parallel executor and the scheduler in
the layer stack: it owns a long-lived
:class:`~repro.parallel.pool.WorkerPool` the executors run on (forked,
like every pool wider than one; re-exported here from
:mod:`repro.parallel.pool`, with :func:`prewarm_fused_kernels`), a
:class:`~repro.service.cache.ResultCache` keyed by
:func:`~repro.service.digest.spec_digest`, and the async
:class:`~repro.service.api.HysteresisService` front-end.  Lower layers
never import this package — :func:`repro.parallel.grid.run_scenario_grid`
accepts a service duck-typed via its ``service=`` argument.
"""

from repro.parallel.pool import WorkerPool, prewarm_fused_kernels
from repro.service.api import DEFAULT_CACHE_DIR, HysteresisService
from repro.service.cache import ResultCache, load_result, save_result
from repro.service.digest import DIGEST_SCHEMA, digest_payload, spec_digest

__all__ = [
    "DEFAULT_CACHE_DIR",
    "DIGEST_SCHEMA",
    "HysteresisService",
    "ResultCache",
    "WorkerPool",
    "digest_payload",
    "load_result",
    "prewarm_fused_kernels",
    "save_result",
    "spec_digest",
]
