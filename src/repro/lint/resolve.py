"""Best-effort intra-module name and type resolution for lint rules.

The flow rules need to know *what a name is* before they can judge a
call on it: ``cond.wait()`` is only an L008 question if ``cond`` is a
``threading.Condition``, and ``shm.close()`` only releases something if
``shm`` came from ``SharedMemory(...)``.  Full type inference is out of
scope for a lint pass; what the rules actually need is much smaller and
fully decidable from one module's AST:

* an **import-alias map** — ``import threading as t`` and
  ``from multiprocessing.connection import Client as C`` both resolve
  references back to canonical dotted names;
* **constructor typing** — ``x = SharedMemory(...)`` (or any aliased or
  dotted spelling of a known constructor) records ``x``'s type for the
  scope it is assigned in, including tuple unpacking for the
  ``fd, path = mkstemp()`` idiom;
* **self-attribute typing** — the same, for ``self._lock = Lock()``
  style assignments anywhere in a class body, so methods can resolve
  ``self._lock`` even though ``__init__`` did the assigning.

Resolution is deliberately *best effort*: a name that is reassigned
from an unknown expression, shadowed, or passed in as a parameter
simply resolves to nothing, and the rules skip it.  Under-resolution
makes rules quieter, never wrong — every type this module does report
is syntactically certain within the module.
"""

from __future__ import annotations

import ast

#: Canonical constructor names → the short type tag rules match on.
#: Keys are full dotted paths *and* bare trailing names; the resolver
#: matches the longest known suffix of however the call site spells it.
KNOWN_CONSTRUCTORS: "dict[str, str]" = {
    "multiprocessing.shared_memory.SharedMemory": "SharedMemory",
    "shared_memory.SharedMemory": "SharedMemory",
    "SharedMemory": "SharedMemory",
    "multiprocessing.connection.Listener": "Listener",
    "connection.Listener": "Listener",
    "Listener": "Listener",
    "multiprocessing.connection.Client": "Client",
    "connection.Client": "Client",
    "Client": "Client",
    # repro.dist opens every connection through this helper pair.
    "repro.dist.protocol.connect": "Client",
    "repro.dist.protocol.accept": "Client",
    "multiprocessing.Pool": "Pool",
    "Pool": "Pool",
    "threading.Condition": "Condition",
    "Condition": "Condition",
    "threading.Lock": "Lock",
    "threading.RLock": "Lock",
    "Lock": "Lock",
    "RLock": "Lock",
    "multiprocessing.Lock": "Lock",
    "multiprocessing.RLock": "Lock",
    "threading.Semaphore": "Lock",
    "threading.BoundedSemaphore": "Lock",
    "tempfile.mkstemp": "mkstemp",
    "mkstemp": "mkstemp",
}

#: Constructors reached as methods on a context object rather than by
#: name: ``ctx.Pool(...)`` for any ``ctx = get_context(...)``.
METHOD_CONSTRUCTORS: "dict[str, str]" = {
    "Pool": "Pool",
    "Lock": "Lock",
    "RLock": "Lock",
    "Condition": "Condition",
}


def dotted_name(node: ast.AST) -> "str | None":
    """``a.b.c`` as a string for Name/Attribute chains, else ``None``."""
    parts: "list[str]" = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ModuleResolver:
    """Name/type facts for one module tree.

    Construction walks the tree once; queries are dict lookups.
    """

    def __init__(self, tree: ast.AST) -> None:
        #: local alias → canonical dotted prefix ("t" → "threading",
        #: "C" → "multiprocessing.connection.Client").
        self.aliases: "dict[str, str]" = {}
        #: id(function node) → {local name → type tag}.
        self._locals: "dict[int, dict[str, str]]" = {}
        #: class name → {attribute name → type tag} for self.X = ctor().
        self._attrs: "dict[str, dict[str, str]]" = {}
        self._collect_imports(tree)
        self._collect_assignments(tree)

    # -- construction ------------------------------------------------------

    def _collect_imports(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.aliases[local] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{node.module}.{alias.name}"

    def _collect_assignments(self, tree: ast.AST) -> None:
        class_stack: "list[str]" = []
        fn_stack: "list[ast.AST]" = []

        def visit(node: ast.AST) -> None:
            if isinstance(node, ast.ClassDef):
                class_stack.append(node.name)
                for child in ast.iter_child_nodes(node):
                    visit(child)
                class_stack.pop()
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn_stack.append(node)
                self._locals.setdefault(id(node), {})
                for child in ast.iter_child_nodes(node):
                    visit(child)
                fn_stack.pop()
                return
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                tag = self.constructor_of(node.value)
                if tag is not None:
                    self._record_targets(
                        node.targets, tag, class_stack, fn_stack
                    )
            elif (
                isinstance(node, ast.AnnAssign)
                and node.value is not None
                and isinstance(node.value, ast.Call)
            ):
                tag = self.constructor_of(node.value)
                if tag is not None:
                    self._record_targets(
                        [node.target], tag, class_stack, fn_stack
                    )
            for child in ast.iter_child_nodes(node):
                visit(child)

        visit(tree)

    def _record_targets(self, targets, tag, class_stack, fn_stack) -> None:
        scope = (
            self._locals[id(fn_stack[-1])] if fn_stack else None
        )
        for target in targets:
            if isinstance(target, ast.Name) and scope is not None:
                if tag == "mkstemp":
                    # Bare ``x = mkstemp()`` keeps the tuple; only the
                    # unpacked fd element is a trackable handle.
                    continue
                scope[target.id] = tag
            elif isinstance(target, ast.Tuple) and tag == "mkstemp":
                # fd, path = mkstemp(): the first element is the fd.
                if (
                    scope is not None
                    and target.elts
                    and isinstance(target.elts[0], ast.Name)
                ):
                    scope[target.elts[0].id] = "fd"
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and class_stack
                and tag != "mkstemp"
            ):
                self._attrs.setdefault(class_stack[-1], {})[target.attr] = tag

    # -- queries -----------------------------------------------------------

    def canonical(self, node: ast.AST) -> "str | None":
        """The alias-expanded dotted name of a Name/Attribute chain."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        expanded = self.aliases.get(head, head)
        return f"{expanded}.{rest}" if rest else expanded

    def constructor_of(self, call: ast.Call) -> "str | None":
        """The type tag a call produces, if its callee is a known
        constructor under any local spelling."""
        canonical = self.canonical(call.func)
        if canonical is not None:
            # Longest-known-suffix match: "mp.connection.Client" hits
            # "connection.Client" even if "mp" isn't an import alias.
            parts = canonical.split(".")
            for start in range(len(parts)):
                tag = KNOWN_CONSTRUCTORS.get(".".join(parts[start:]))
                if tag is not None:
                    return tag
        # ctx.Pool(...) style: a method constructor on any object.
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in METHOD_CONSTRUCTORS
            and dotted_name(call.func) is None
        ):
            return METHOD_CONSTRUCTORS[call.func.attr]
        return None

    def type_of(
        self,
        expr: ast.AST,
        fn: "ast.AST | None" = None,
        class_name: "str | None" = None,
    ) -> "str | None":
        """The type tag of a reference: a local name assigned from a
        known constructor in ``fn``, or a ``self.attr`` typed anywhere
        in ``class_name``'s body."""
        if isinstance(expr, ast.Name) and fn is not None:
            return self._locals.get(id(fn), {}).get(expr.id)
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and class_name is not None
        ):
            return self._attrs.get(class_name, {}).get(expr.attr)
        return None
