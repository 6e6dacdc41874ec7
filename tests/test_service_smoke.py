"""Service smoke: one warm service, the same request submitted twice.

The service layer's contract in one gate: through the async front door
the second submission must come back as the first's frozen cache
entry.  When a JIT backend is registered (``REPRO_BACKEND=numba``
legs), the pool must also have pre-compiled its fused kernels in the
parent before forking, which exercises the fork-inheritance warm-up end
to end.  Both CI tier-1 legs run this module explicitly.
"""

import asyncio

from repro.backend import list_backends
from repro.parallel.spec import DriveSpec, EnsembleSpec
from repro.service import HysteresisService


def test_second_submission_is_the_first_frozen_entry():
    spec = EnsembleSpec(family="timeless", n_cores=16, seed=1)
    step = float(spec.build_batch().driver_step_hint())
    drive = DriveSpec(scenario="major-loop", h_max=10e3, driver_step=step)
    with HysteresisService() as service:
        if any(not backend.exact for backend in list_backends()):
            assert service.pool.warmed, "JIT backends must be pre-warmed"

        async def twice():
            first = await service.submit(spec, drive)
            second = await service.submit(spec, drive)
            return first, second

        first, second = asyncio.run(twice())
        assert second is first, "second submission must be a cache hit"
        assert not first.m.flags.writeable, "cache entries are frozen"
        assert service.cache.stats["hits"] >= 1, service.cache.stats
