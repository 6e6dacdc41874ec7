"""L009 — determinism provenance: no entropy, no unordered iteration,
in the modules whose output is a canonical payload.

L002 keeps the kernel-parity modules free of *libm* (value drift);
this rule extends the same idea from values to **identity**: the
content digests (:mod:`repro.service.digest`) and the lane-parity
modules must be pure functions of their inputs.  Two poisons qualify:

* **entropy sources** — ``time.*``, ``random.*``, ``os.urandom``,
  ``uuid.*``, ``secrets.*``: a digest that folds in a timestamp stops
  deduplicating, a kernel that consults the clock stops being
  bitwise-reproducible across hosts;
* **unordered iteration** — looping a ``dict``'s ``.items()`` /
  ``.keys()`` / ``.values()`` (or a ``set``) straight into output:
  insertion order is an execution detail, not a semantic field, so
  canonical forms must sort first (``for k in sorted(d)``), exactly
  like ``json.dumps(..., sort_keys=True)`` downstream.

Scope is deliberately narrow — the whole modules listed in
:data:`SCOPE_MODULES` (the digest module plus L002's
``PARITY_MODULES``); everything else, the dispatcher's deadlines
included, may read a clock.  Seeded randomness
(``np.random.default_rng(seed)``) is *not* entropy and is not flagged.
"""

from __future__ import annotations

import ast

from repro.lint.base import Module, Rule, Violation, register_rule
from repro.lint.resolve import ModuleResolver
from repro.lint.rules.bitwise_purity import PARITY_MODULES

#: Whole modules whose every function feeds canonical output.
SCOPE_MODULES: "frozenset[str]" = frozenset(
    {"repro.service.digest"} | set(PARITY_MODULES)
)

#: Canonical dotted prefixes whose calls inject entropy.
ENTROPY_PREFIXES = ("time.", "random.", "uuid.", "secrets.")
ENTROPY_EXACT = frozenset({"os.urandom", "time", "random"})

#: Dict views whose iteration order is insertion order, not canonical.
UNORDERED_VIEWS = frozenset({"items", "keys", "values"})


def _entropy_call(call: ast.Call, resolver: ModuleResolver) -> "str | None":
    canonical = resolver.canonical(call.func)
    if canonical is None:
        return None
    if canonical in ENTROPY_EXACT or canonical.startswith(ENTROPY_PREFIXES):
        return canonical
    return None


def _unsorted_iter(iter_expr: ast.AST) -> "str | None":
    """A loop source that exposes insertion/hash order directly."""
    if isinstance(iter_expr, ast.Call) and isinstance(
        iter_expr.func, ast.Attribute
    ):
        if iter_expr.func.attr in UNORDERED_VIEWS and not iter_expr.args:
            return f".{iter_expr.func.attr}()"
    if isinstance(iter_expr, ast.Set) or (
        isinstance(iter_expr, ast.Call)
        and isinstance(iter_expr.func, ast.Name)
        and iter_expr.func.id in ("set", "frozenset")
    ):
        return "a set"
    return None


@register_rule
class DeterminismRule(Rule):
    id = "L009"
    name = "determinism-provenance"
    description = (
        "digest/kernel-parity code must be entropy-free: no time/"
        "random/uuid/urandom calls, no unsorted dict or set iteration "
        "feeding canonical payloads"
    )

    def check_module(self, module: Module):
        if module.name not in SCOPE_MODULES:
            return
        resolver = ModuleResolver(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                source = _entropy_call(node, resolver)
                if source is not None:
                    yield Violation(
                        self.id,
                        str(module.path),
                        node.lineno,
                        node.col_offset,
                        f"{source}() injects entropy into a module that "
                        "feeds canonical payloads; determinism-scoped code "
                        "must be a pure function of its inputs",
                    )
            iters: "list[ast.AST]" = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for iter_expr in iters:
                what = _unsorted_iter(iter_expr)
                if what is not None:
                    yield Violation(
                        self.id,
                        str(module.path),
                        iter_expr.lineno,
                        iter_expr.col_offset,
                        f"iterating {what} exposes insertion/hash order to "
                        "canonical output; sort first (for k in "
                        "sorted(d): ...) so the digest never sees "
                        "execution order",
                    )
