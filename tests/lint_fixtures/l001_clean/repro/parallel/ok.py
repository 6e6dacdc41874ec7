"""Clean twin of the L001 fixture: downward eager imports plus the
documented (parallel, sched) lazy cycle break.  Never imported."""

from repro.batch.sweep import run_batch_series  # downward: fine
from repro.errors import ParameterError  # foundation: fine


def plan_hook(plan):
    # The documented lazy cycle break — allowlisted in repro.lint.layers.
    from repro.sched.planner import plan_for

    if plan is None:
        raise ParameterError("no plan")
    return plan_for, run_batch_series
