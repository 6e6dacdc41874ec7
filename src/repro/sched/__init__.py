"""Calibrated autoscheduling for the execution stack.

Three layers, each usable alone:

:mod:`repro.sched.calibration`
    One-time per-host micro-calibration — timed probes of every family
    × backend (× thread count) plus pool spin-up, persisted as
    schema-versioned, host-stamped JSON.
:mod:`repro.sched.model`
    A per-(family, backend, threads) linear cost model fitted from the
    calibration: ``seconds ~= samples * (c + a * lanes)``, plus the
    pool-overhead line and the shard-makespan composition.
:mod:`repro.sched.planner`
    Candidate enumeration and selection: :func:`plan_for` returns the
    cheapest executable :class:`ExecutionPlan`, which
    ``run_sharded(..., plan="auto")`` consumes — the one entry point
    that takes a plan, priced cold on a one-shot pool of its own.

Plans choose *where and how wide* a run executes, never *what* it
computes: the bitwise pins of the numpy paths and the rtol tier of the
JIT paths are invariant under any plan.
"""

from repro.sched.calibration import (
    CALIBRATION_ENV,
    SCHEMA_VERSION,
    Calibration,
    Probe,
    default_calibration_path,
    get_calibration,
    run_calibration,
)
from repro.sched.model import CostModel, GroupFit
from repro.sched.planner import (
    ExecutionPlan,
    describe_workload,
    enumerate_candidates,
    plan_for,
)

__all__ = [
    "CALIBRATION_ENV",
    "Calibration",
    "CostModel",
    "ExecutionPlan",
    "GroupFit",
    "Probe",
    "SCHEMA_VERSION",
    "default_calibration_path",
    "describe_workload",
    "enumerate_candidates",
    "get_calibration",
    "plan_for",
    "run_calibration",
]
