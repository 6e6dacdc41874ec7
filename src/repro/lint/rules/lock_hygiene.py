"""L008 — lock and condition hygiene.

Two concurrency rules the repo's own incident history (PR 7's
serialised pool, PR 9's campaign state) turned into policy:

* **``Condition.wait()`` only inside a ``while``-predicate loop.**
  POSIX condition variables wake spuriously and ``notify_all`` wakes
  every waiter regardless of whose predicate holds — an ``if``-guarded
  (or unguarded) ``wait()`` acts on a predicate that may already be
  false again.  ``wait_for`` carries its own predicate loop and is
  always fine.
* **No blocking calls while holding a resolved lock.**  A socket
  round-trip (``send_message``/``recv_message``), a pool fan-out
  (``Pool.map`` and friends, ``execute_jobs_pooled``) or a listener
  ``accept()`` under a held ``Lock``/``Condition`` turns one slow peer
  into a stalled process — every other thread piles up on the lock.

Both halves act only on names the resolver can type
(:mod:`repro.lint.resolve`): a ``wait()`` on an untyped object — a
``threading.Event``, a ``Barrier``, a mock — is skipped, never
guessed.  Waiting on the held condition itself is of course exempt:
``wait`` releases the lock while blocked; that is the one blocking
call a condition's critical section exists for.
"""

from __future__ import annotations

import ast

from repro.lint.base import Module, Rule, Violation, register_rule
from repro.lint.resolve import ModuleResolver

#: Free functions whose call is a known blocking operation.
BLOCKING_FUNCTIONS = frozenset(
    {"send_message", "recv_message", "execute_jobs_pooled"}
)

#: Blocking methods, gated on what the receiver resolves to.
BLOCKING_POOL_METHODS = frozenset(
    {"map", "starmap", "imap", "imap_unordered", "apply"}
)
BLOCKING_LISTENER_METHODS = frozenset({"accept"})


def _walk_functions(tree: ast.AST):
    """Yield ``(class_name, function_node)`` for every function,
    tracking the innermost enclosing class (``None`` at module level)."""

    def visit(node, class_name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield class_name, child
                yield from visit(child, class_name)
            else:
                yield from visit(child, class_name)

    yield from visit(tree, None)


def _parents_of(fn) -> "dict[ast.AST, ast.AST]":
    parents: "dict[ast.AST, ast.AST]" = {}
    for node in ast.walk(fn):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


@register_rule
class LockHygieneRule(Rule):
    id = "L008"
    name = "lock-hygiene"
    description = (
        "Condition.wait() only inside a while-predicate loop "
        "(spurious wakeups, over-notification); no blocking "
        "send/recv/pool-map calls while holding a resolved lock"
    )

    def check_module(self, module: Module):
        resolver = ModuleResolver(module.tree)
        for class_name, fn in _walk_functions(module.tree):
            yield from self._check_wait_loops(module, fn, class_name, resolver)
            yield from self._check_blocking_under_lock(
                module, fn, class_name, resolver
            )

    # -- Condition.wait() in a while loop -----------------------------------

    def _check_wait_loops(self, module, fn, class_name, resolver):
        parents = None
        for node in ast.walk(fn):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wait"
            ):
                continue
            if resolver.type_of(node.func.value, fn, class_name) != "Condition":
                continue
            if parents is None:
                parents = _parents_of(fn)
            if not self._has_while_ancestor(node, fn, parents):
                yield Violation(
                    self.id,
                    str(module.path),
                    node.lineno,
                    node.col_offset,
                    "Condition.wait() outside a while-predicate loop: "
                    "spurious wakeups and broad notify_all calls mean the "
                    "predicate must be re-checked after every wake "
                    "(while not pred: cond.wait() — or use wait_for)",
                )

    @staticmethod
    def _has_while_ancestor(node, fn, parents) -> bool:
        current = parents.get(node)
        while current is not None and current is not fn:
            if isinstance(current, ast.While):
                return True
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False  # nested function boundary
            current = parents.get(current)
        return False

    # -- blocking calls under a held lock -----------------------------------

    def _check_blocking_under_lock(self, module, fn, class_name, resolver):
        for node in ast.walk(fn):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            held = None
            for item in node.items:
                expr = item.context_expr
                if resolver.type_of(expr, fn, class_name) in (
                    "Lock",
                    "Condition",
                ):
                    held = ast.unparse(expr)
                    break
            if held is None:
                continue
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    blocked = self._blocking_call(
                        sub, fn, class_name, resolver
                    )
                    if blocked is not None:
                        yield Violation(
                            self.id,
                            str(module.path),
                            sub.lineno,
                            sub.col_offset,
                            f"{blocked} while holding {held}: a slow peer "
                            "stalls every thread queued on this lock; move "
                            "the blocking call outside the critical section",
                        )

    def _blocking_call(self, node, fn, class_name, resolver) -> "str | None":
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if isinstance(func, ast.Name) and func.id in BLOCKING_FUNCTIONS:
            return f"{func.id}()"
        if isinstance(func, ast.Attribute):
            receiver = resolver.type_of(func.value, fn, class_name)
            if (
                func.attr in BLOCKING_POOL_METHODS and receiver == "Pool"
            ) or (
                func.attr in BLOCKING_LISTENER_METHODS
                and receiver == "Listener"
            ):
                return f"{ast.unparse(func)}()"
        return None
