"""The service's warm pool, :class:`~repro.parallel.pool.WorkerPool`.

The pool lives in :mod:`repro.parallel.pool`, beside the process-wide
default pool that every local call without ``pool=``, ``service=`` or
``hosts=`` shares; the parallel layer may not import this package.
:class:`~repro.service.api.HysteresisService` owns a ``WorkerPool`` of
its own, and this module keeps ``repro.service.pool.WorkerPool`` and
:func:`prewarm_fused_kernels` importable from here.
"""

from repro.parallel.pool import WorkerPool, prewarm_fused_kernels

__all__ = ["WorkerPool", "prewarm_fused_kernels"]
