"""The layer DAG of ``src/repro`` — the single authoritative statement.

This table is what rule **L001** enforces and what the README's
architecture section points at.  A package may import (at module
level) only packages in *strictly lower* layers; packages sharing a
layer are independent and may not import each other.  The ordering
encodes the stack the PRs grew bottom-up:

====  =======================================  =================================
rank  packages                                 role
====  =======================================  =================================
0     ``errors``, ``constants``                foundation (no repro imports)
1     ``solver``, ``waveforms``                numeric/drive primitives
2     ``ja``                                   Jiles–Atherton material equations
3     ``core``                                 timeless kernel + integrators
4     ``backend``, ``baselines``, ``hdl``,     kernels' service providers:
      ``models``, ``preisach``                 array backends, references,
                                               protocol/registry, Preisach
5     ``batch``                                lockstep ensemble engines
6     ``analysis``, ``io``, ``scenarios``      analysis + drive catalogue
7     ``magnetics``                            component models (use analysis)
8     ``parallel``                             sharded multi-process executor
9     ``sched``                                calibrated autoscheduler
10    ``service``, ``dist``                    warm-pool service + result
                                               cache; multi-host dispatch
11    ``experiments``, ``lint``, ``repro``     surfaces (CLI, checker, API)
====  =======================================  =================================

The layering rules most often restated by hand fall straight out of
the ranks: **``parallel`` never imports ``service``** (8 < 10, and no
allowlist entry exists), **``sched`` sits above ``parallel``** (9 > 8
— the executor's ``plan=`` hook reaches *up* lazily, which is exactly
why ``("parallel", "sched")`` is on the lazy allowlist), and
**``service`` and ``dist`` never import each other** (one rank, and no
allowlist entry either way, so L001 flags even a function-scoped
import between them).

:data:`LAZY_ALLOWLIST` names the documented function-scoped imports
that deliberately reach upward to break an import cycle; anything
upward and *eager* is always a violation, and an undocumented upward
lazy import is too.

Inside ``lint`` itself the same discipline holds one level down,
by convention rather than by rank (L001 ranks packages, not
modules): ``base`` and ``layers`` are the foundation, ``cfg`` and
``resolve`` sit above them with no knowledge of any rule, and
``rules/*`` compose all four.  A rule importing another rule is the
one exception, and only for shared *scope tables* (L009 reuses
L002's ``PARITY_MODULES`` so "kernel-parity module" can never mean
two different sets).
"""

from __future__ import annotations

#: The layer DAG, lowest layer first.  Packages in one tuple share a
#: rank and are mutually independent.
LAYER_ORDER: "tuple[tuple[str, ...], ...]" = (
    ("errors", "constants"),
    ("solver", "waveforms"),
    ("ja",),
    ("core",),
    ("backend", "baselines", "hdl", "models", "preisach"),
    ("batch",),
    ("analysis", "io", "scenarios"),
    ("magnetics",),
    ("parallel",),
    ("sched",),
    ("service", "dist"),
    ("experiments", "lint", "repro"),
)

#: ``{package: rank}`` lookup derived from :data:`LAYER_ORDER`.
RANK: "dict[str, int]" = {
    package: rank
    for rank, layer in enumerate(LAYER_ORDER)
    for package in layer
}

#: Documented lazy-import cycle breaks: ``(importer, imported)`` pairs
#: allowed to reach upward (or sideways) **from function scope only**.
#: Each entry exists for a recorded reason — keep this list short and
#: justified, it is the escape hatch L001 audits.
LAZY_ALLOWLIST: "frozenset[tuple[str, str]]" = frozenset(
    {
        # numba fused drivers rebuild lane matrices via
        # repro.batch.lanes; a top-level import would cycle through
        # repro.batch -> engine -> repro.backend (PR 5 gotcha).
        ("backend", "batch"),
        # TimelessJAModel.batch() convenience constructor builds the
        # ensemble engine that wraps it.
        ("core", "batch"),
        # The family registry's factory recipes build engines,
        # baselines and backends at call time; eagerly they would
        # invert models <- batch.
        ("models", "backend"),
        ("models", "baselines"),
        ("models", "batch"),
        ("models", "preisach"),
        # The executor's plan="auto" hook prices plans through the
        # autoscheduler one layer up; plan=None callers never pay for
        # (or depend on) repro.sched (PR 6 gotcha).
        ("parallel", "sched"),
        # The executor/grid hosts= hooks dispatch through repro.dist
        # two layers up; host-less callers never pay for (or depend
        # on) it — the same shape as the plan="auto" escape above.
        ("parallel", "dist"),
        # Everett/FORC identification batches per-lane waveforms
        # through the ensemble engine (PR 2).
        ("preisach", "batch"),
    }
)


def rank_of(package: "str | None") -> "int | None":
    """The layer rank of a package token (``None``: not layered —
    unknown packages are outside the DAG and L001 skips them)."""
    if package is None:
        return None
    return RANK.get(package)
