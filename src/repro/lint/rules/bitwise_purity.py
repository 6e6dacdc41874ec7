"""L002 — no libm transcendentals in the kernel-parity modules.

The repo's bitwise lane contract (batch lane == scalar model, sharded
== single-process) rests on one PR 1 observation: ``math.atan`` and
``np.arctan`` differ by 1 ulp (libm vs NumPy's SIMD polynomials).  A
single ``math.*`` transcendental in a kernel path breaks bitwise lane
equality in ways the equivalence tests only catch by luck.  Likewise
the builtin ``sum`` accumulates left-to-right where NumPy reduces
pairwise — a different float result for the same values.

This rule patrols exactly the modules on both sides of the parity pin
(:data:`PARITY_MODULES`); everything else is untouched.  Exact
``math`` members — constants and predicates like ``math.inf`` and
``math.isnan`` — stay allowed, they produce identical bits everywhere.
A deliberately scalar path (e.g. the numba backend's documented libm
tier) carries an inline waiver **with a justification string**::

    m_an = math.atan(x)  # repro-lint: disable=L002 -- libm rtol tier
"""

from __future__ import annotations

import ast

from repro.lint.base import Module, Rule, Violation, register_rule

#: Modules holding (either side of) the bitwise lane-parity contract.
PARITY_MODULES = frozenset(
    {
        "repro.core.kernel",
        "repro.core.slope",
        "repro.ja.equations",
        "repro.ja.anhysteretic",
        "repro.batch.engine",
        "repro.batch.time_domain",
        "repro.batch.preisach",
        "repro.baselines.time_domain",
        "repro.preisach.model",
        "repro.backend.numpy_backend",
        "repro.backend.numba_backend",
    }
)

#: ``math`` members that are exact — identical bits from libm, NumPy
#: or pure Python — and therefore parity-safe.  Everything else
#: (``atan``, ``tanh``, ``exp``, ``fsum``, ...) is flagged.
EXACT_MATH_MEMBERS = frozenset(
    {
        "inf",
        "nan",
        "pi",
        "tau",
        "e",
        "isnan",
        "isinf",
        "isfinite",
        "copysign",
        "fabs",
        "floor",
        "ceil",
        "trunc",
    }
)


#: libm → numpy ufunc spellings where they differ (for the fix hint).
NUMPY_SPELLING = {
    "atan": "arctan",
    "atan2": "arctan2",
    "asin": "arcsin",
    "acos": "arccos",
    "atanh": "arctanh",
    "asinh": "arcsinh",
    "acosh": "arccosh",
    "pow": "power",
    "fsum": "sum",
    "fmod": "mod",
}


@register_rule
class BitwisePurityRule(Rule):
    id = "L002"
    name = "bitwise-purity"
    description = (
        "kernel-parity modules may not call math.* transcendentals "
        "(1 ulp off NumPy) or float-accumulating builtins like sum()"
    )

    def check_module(self, module: Module):
        if module.name not in PARITY_MODULES:
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "math"
                and node.attr not in EXACT_MATH_MEMBERS
            ):
                numpy_name = NUMPY_SPELLING.get(node.attr, node.attr)
                yield Violation(
                    self.id,
                    str(module.path),
                    node.lineno,
                    node.col_offset,
                    f"math.{node.attr} evaluates through libm — 1 ulp off "
                    f"NumPy's kernels and a silent bitwise-parity break; "
                    f"use np.{numpy_name} (or pragma-waive a deliberately "
                    "scalar path with a justification)",
                )
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                for alias in node.names:
                    if alias.name not in EXACT_MATH_MEMBERS:
                        yield Violation(
                            self.id,
                            str(module.path),
                            node.lineno,
                            node.col_offset,
                            f"from math import {alias.name} smuggles a libm "
                            "transcendental into a kernel-parity module; "
                            "import the np ufunc instead",
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
            ):
                yield Violation(
                    self.id,
                    str(module.path),
                    node.lineno,
                    node.col_offset,
                    "builtin sum() accumulates left-to-right — NumPy "
                    "reduces pairwise, so the float result differs; use "
                    "np.sum / the xp namespace",
                )
