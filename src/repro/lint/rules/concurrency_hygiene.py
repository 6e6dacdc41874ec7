"""L005 — concurrency hygiene in ``parallel``/``service``/``dist``.

Four concurrency gotchas this repo hit (or pre-empted) once each and
must never hit again:

* **Caller-owned pools are never closed by executors** (PR 7): a
  :class:`~repro.parallel.pool.WorkerPool` outlives campaigns by
  design — its owner (a service, or the process-wide default pool)
  closes it, and a function handed a pool, as
  :func:`~repro.parallel.executor.execute_jobs_pooled` is, must not
  call ``close``/``terminate``/``join`` on it (nor enter it as a
  context manager, whose ``__exit__`` closes).  Detected as those
  calls on a function *parameter* named ``pool`` — a pool the
  function created locally is its own to close.
* **Worker-side ``SharedMemory`` attaches silence the resource
  tracker** (PR 3, CPython gh-82300): attaching by name re-registers
  the segment and the tracker then logs spurious leaks or unlinks it
  under the parent.  An attach site (``SharedMemory(...)`` without
  ``create=True``) must either pass ``track=False`` (3.13+) or sit in
  a scope that patches ``resource_tracker.register``.
* **Mutable default arguments are banned**: a shared ``[]``/``{}``
  default is cross-call (and with a warm pool, cross-*campaign*)
  state — exactly the aliasing the frozen-spec design exists to
  prevent.
* **Socket receives in ``dist`` must carry a deadline** (PR 9): a bare
  ``Connection.recv()`` blocks forever on a wedged or killed peer,
  turning one dead worker into a hung campaign.  Every dist-side
  receive must route through the protocol's poll-with-deadline wrapper
  (:func:`repro.dist.protocol.recv_message`) — a ``.recv()`` call
  anywhere else in the package is a violation.
"""

from __future__ import annotations

import ast

from repro.lint.base import Module, Rule, Violation, register_rule

#: Packages the hygiene rules patrol.
SCOPED_PACKAGES = frozenset({"parallel", "service", "dist"})

#: The one function allowed to call ``Connection.recv`` in dist code —
#: the protocol's poll-with-deadline wrapper.
RECV_WRAPPERS = frozenset({"recv_message"})

#: Parameter names that denote a caller-owned worker pool.
POOL_PARAMS = frozenset({"pool", "worker_pool"})

#: Methods that end a pool's life.
POOL_CLOSERS = frozenset({"close", "terminate", "join", "shutdown"})

MUTABLE_FACTORIES = frozenset({"list", "dict", "set"})


def _function_params(fn) -> "set[str]":
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            names.append(extra.arg)
    return set(names)


def _is_shared_memory_call(node: ast.Call) -> bool:
    fn = node.func
    if isinstance(fn, ast.Name):
        return fn.id == "SharedMemory"
    return isinstance(fn, ast.Attribute) and fn.attr == "SharedMemory"


def _keyword(node: ast.Call, name: str):
    for keyword in node.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def _is_true(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is True


def _is_false(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is False


def _silences_tracker(scope_body) -> bool:
    """Does this scope assign ``resource_tracker.register`` (the
    silencing idiom the executor uses around attaches)?"""
    for node in scope_body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign):
                for target in sub.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "register"
                    ):
                        return True
    return False


def _mutable_default(node) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in MUTABLE_FACTORIES
    )


@register_rule
class ConcurrencyHygieneRule(Rule):
    id = "L005"
    name = "concurrency-hygiene"
    description = (
        "parallel/service/dist: never close a caller-owned pool, "
        "silence the resource tracker at SharedMemory attach sites "
        "(gh-82300), no mutable default arguments, no un-deadlined "
        "blocking recv in dist code"
    )

    def check_module(self, module: Module):
        if module.package not in SCOPED_PACKAGES:
            return
        functions = [
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for fn in functions:
            yield from self._check_pool_ownership(module, fn)
            yield from self._check_attach_sites(module, fn.body)
            yield from self._check_defaults(module, fn)
            yield from self._check_recv_deadlines(module, fn)
        # Module-level attach sites have the module as their scope.
        top_level = [
            node
            for node in module.tree.body
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        yield from self._check_attach_sites(module, top_level)

    # -- caller-owned pools -------------------------------------------------

    def _check_pool_ownership(self, module: Module, fn):
        pool_params = _function_params(fn) & POOL_PARAMS
        if not pool_params:
            return
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in POOL_CLOSERS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in pool_params
            ):
                yield Violation(
                    self.id,
                    str(module.path),
                    node.lineno,
                    node.col_offset,
                    f"{node.func.value.id}.{node.func.attr}() closes a "
                    "caller-owned pool — a borrowed WorkerPool outlives "
                    "this call by design; only its owner may close it",
                )
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Name) and expr.id in pool_params:
                        yield Violation(
                            self.id,
                            str(module.path),
                            expr.lineno,
                            expr.col_offset,
                            f"entering caller-owned {expr.id!r} as a "
                            "context manager closes it on exit — the "
                            "borrower must not end the pool's life",
                        )

    # -- SharedMemory attach sites ------------------------------------------

    def _check_attach_sites(self, module: Module, scope_body):
        attaches = []
        for node in scope_body:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and _is_shared_memory_call(sub):
                    if _is_true(_keyword(sub, "create")):
                        continue  # owner-side creation, tracked on purpose
                    if _is_false(_keyword(sub, "track")):
                        continue  # 3.13+ explicit opt-out
                    attaches.append(sub)
        if attaches and not _silences_tracker(scope_body):
            for call in attaches:
                yield Violation(
                    self.id,
                    str(module.path),
                    call.lineno,
                    call.col_offset,
                    "worker-side SharedMemory attach re-registers the "
                    "segment with the resource tracker (CPython gh-82300: "
                    "spurious leak warnings / unlink-under-the-parent); "
                    "patch resource_tracker.register around the attach or "
                    "pass track=False",
                )

    # -- un-deadlined receives in dist code ---------------------------------

    def _check_recv_deadlines(self, module: Module, fn):
        if module.package != "dist":
            return
        if fn.name in RECV_WRAPPERS:
            return  # the wrapper itself owns the poll-with-deadline loop
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "recv"
            ):
                yield Violation(
                    self.id,
                    str(module.path),
                    node.lineno,
                    node.col_offset,
                    "bare Connection.recv() blocks forever on a wedged or "
                    "killed peer; route every dist receive through "
                    "protocol.recv_message (poll-with-deadline)",
                )

    # -- mutable defaults ---------------------------------------------------

    def _check_defaults(self, module: Module, fn):
        args = fn.args
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            if _mutable_default(default):
                yield Violation(
                    self.id,
                    str(module.path),
                    default.lineno,
                    default.col_offset,
                    f"mutable default argument in {fn.name}() is shared "
                    "across calls (and, under a warm pool, across "
                    "campaigns); default to None and build inside",
                )
