"""Per-function control-flow graphs for the flow-aware lint rules.

The PR 8 rules were single-pass pattern matchers: they could say *this
call exists* but never *this call happens on every path*.  The
resource-lifecycle rule (L006) needs exactly that second question —
"does this ``SharedMemory`` reach ``close()`` on the exception branch
too?" — so this module builds a small, deliberately conservative CFG
per function:

* every simple statement is one node; compound statements contribute a
  header node (the ``if``/``while``/``for`` test, the ``with`` items,
  the ``try`` keyword) plus their bodies;
* ``if``/``while``/``for`` fork and join; loops carry a back edge and
  a fall-through edge (every loop is modelled as maybe-zero-iteration
  and maybe-terminating — sound for leak detection, where *more* paths
  can only add violations the author must then prove impossible with a
  ``finally``);
* ``break``/``continue``/``return``/``raise`` divert to the loop exit,
  the loop header, or the function :attr:`CFG.exit` — always routed
  through every enclosing ``finally`` body first, which is what makes
  "release it in a ``finally``" satisfy an all-paths query;
* every statement inside a ``try`` body gets an **exception edge** to
  each of its handlers (any statement may raise); exception edges are
  tagged so callers can ignore the edge leaving an acquisition
  statement itself (if the constructor raised, there is nothing to
  leak);
* ``with`` bodies are ordinary sequential flow — the ``__exit__``
  guarantee is a *rule-level* exemption (a resource named as a context
  manager is owned by the ``with``), not a CFG edge.

The graph is an over-approximation: it may contain paths no execution
takes (a ``finally`` that re-routes to both its normal and its abrupt
continuation, a ``while True`` modelled as terminating).  That is the
right direction for the rules built on it — a spurious path can only
produce a conservative finding, never hide a real one — and the README
documents the idiom for the rare deliberate case: release on the
spurious path too, or waive with a justified pragma.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

#: Node-kind tags (plain strings so dumps stay readable in tests).
ENTRY = "entry"
EXIT = "exit"
STMT = "stmt"

#: Safety valve for :meth:`CFG.paths` — path enumeration is exponential
#: in branch count, and the unit tests only ever need small graphs.
MAX_PATHS = 4096


@dataclass
class Node:
    """One CFG node: a statement (or synthetic entry/exit marker)."""

    index: int
    kind: str
    stmt: "ast.stmt | None" = None
    #: Normal-flow successor node indices, in creation order.
    succ: "list[int]" = field(default_factory=list)
    #: Exception-flow successors (statement may raise into a handler).
    succ_except: "list[int]" = field(default_factory=list)

    @property
    def line(self) -> int:
        return self.stmt.lineno if self.stmt is not None else 0

    def all_succ(self) -> "list[int]":
        return self.succ + self.succ_except


class CFG:
    """The control-flow graph of one function body."""

    def __init__(self, fn) -> None:
        self.fn = fn
        self.nodes: "list[Node]" = []
        self._by_stmt: "dict[int, int]" = {}
        builder = _Builder(self)
        self.entry = builder.entry
        self.exit = builder.exit
        builder.build(fn.body)

    # -- construction helpers (used by _Builder) ---------------------------

    def _add(self, kind: str, stmt: "ast.stmt | None" = None) -> int:
        node = Node(len(self.nodes), kind, stmt)
        self.nodes.append(node)
        if stmt is not None:
            self._by_stmt[id(stmt)] = node.index
        return node.index

    def _edge(self, a: int, b: int, exceptional: bool = False) -> None:
        bucket = self.nodes[a].succ_except if exceptional else self.nodes[a].succ
        if b not in bucket:
            bucket.append(b)

    # -- queries -----------------------------------------------------------

    def node_of(self, stmt: ast.stmt) -> "int | None":
        """The node index of one statement object (``None`` when the
        statement is not part of this graph)."""
        return self._by_stmt.get(id(stmt))

    def reaches_exit_avoiding(
        self,
        start: int,
        avoid: "set[int]",
        *,
        skip_initial_exception_edges: bool = False,
    ) -> bool:
        """Is there any path ``start → exit`` touching no node in
        ``avoid``?

        The all-paths question the flow rules ask, inverted: "released
        on every path" is exactly "no avoid-free path to exit".
        ``skip_initial_exception_edges`` drops the exception edges
        leaving ``start`` itself — an acquisition statement that raises
        never produced the resource, so its own handler path cannot
        leak it.
        """
        seen = set()
        first = self.nodes[start]
        frontier = list(
            first.succ if skip_initial_exception_edges else first.all_succ()
        )
        while frontier:
            index = frontier.pop()
            if index in seen or index in avoid:
                continue
            if index == self.exit:
                return True
            seen.add(index)
            frontier.extend(self.nodes[index].all_succ())
        return False

    def paths(self, max_paths: int = MAX_PATHS) -> "list[list[int]]":
        """Every simple (cycle-free) entry→exit path, as node-index
        lists.  Loop back edges are cut by the simple-path restriction,
        so one loop contributes its zero-iteration and one-iteration
        shapes.  Raises :class:`RecursionError`-free: iterative DFS,
        bounded by ``max_paths``."""
        found: "list[list[int]]" = []
        stack: "list[tuple[int, list[int]]]" = [(self.entry, [self.entry])]
        while stack and len(found) < max_paths:
            index, trail = stack.pop()
            if index == self.exit:
                found.append(trail)
                continue
            for succ in reversed(self.nodes[index].all_succ()):
                if succ not in trail:
                    stack.append((succ, trail + [succ]))
        return found

    def path_lines(self, max_paths: int = MAX_PATHS) -> "list[list[int]]":
        """:meth:`paths` rendered as source-line sequences (synthetic
        entry/exit nodes dropped) — what the unit tests assert against."""
        return [
            [self.nodes[i].line for i in path if self.nodes[i].kind == STMT]
            for path in self.paths(max_paths)
        ]


class _Frame:
    """One enclosing-construct record the builder threads through
    nested statement lists: where ``break``/``continue`` go, which
    handlers an exception can reach, and which ``finally`` bodies an
    abrupt exit must traverse first."""

    __slots__ = ("loop_header", "loop_breaks", "handlers", "finallys")

    def __init__(self, loop_header, loop_breaks, handlers, finallys):
        self.loop_header = loop_header
        self.loop_breaks = loop_breaks
        self.handlers = handlers
        self.finallys = finallys


class _Builder:
    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        self.entry = cfg._add(ENTRY)
        self.exit = cfg._add(EXIT)

    def build(self, body: "list[ast.stmt]") -> None:
        frame = _Frame(None, None, (), ())
        out = self._block(body, {self.entry}, frame)
        for index in out:
            self.cfg._edge(index, self.exit)

    # -- abrupt-exit routing ------------------------------------------------

    def _route_through_finallys(
        self, source: int, target: int, finallys
    ) -> None:
        """Edge ``source → target`` via the chain of finally bodies
        (innermost first).  ``finallys`` entries are ``(entry, outs)``."""
        hop_sources = [source]
        for fin_entry, fin_outs in finallys:
            for hop in hop_sources:
                self.cfg._edge(hop, fin_entry)
            hop_sources = list(fin_outs) or [fin_entry]
        for hop in hop_sources:
            self.cfg._edge(hop, target)

    # -- statement lists ----------------------------------------------------

    def _block(self, body, preds: "set[int]", frame: _Frame) -> "set[int]":
        """Build one statement list; returns the dangling out-set whose
        edges the caller connects to whatever follows."""
        current = set(preds)
        for stmt in body:
            if not current:
                # Unreachable code after an abrupt exit still gets
                # nodes (rules may anchor on it) but no in-edges.
                current = set()
            current = self._statement(stmt, current, frame)
        return current

    def _statement(self, stmt, preds, frame: _Frame) -> "set[int]":
        cfg = self.cfg
        add, edge = cfg._add, cfg._edge

        if isinstance(stmt, (ast.Return, ast.Raise)):
            node = add(STMT, stmt)
            for p in preds:
                edge(p, node)
            self._exception_edges(node, frame)
            # A raise under a try also lands in its handlers (wired by
            # _exception_edges just above); the exit route below models
            # the uncaught/unmatched case, always via the finallys.
            self._route_through_finallys(node, self.exit, frame.finallys)
            return set()

        if isinstance(stmt, ast.Break):
            node = add(STMT, stmt)
            for p in preds:
                edge(p, node)
            if frame.loop_breaks is not None:
                loop_finallys = self._finallys_inside_loop(frame)
                hop_sources = [node]
                for fin_entry, fin_outs in loop_finallys:
                    for hop in hop_sources:
                        edge(hop, fin_entry)
                    hop_sources = list(fin_outs) or [fin_entry]
                frame.loop_breaks.extend(hop_sources)
            return set()

        if isinstance(stmt, ast.Continue):
            node = add(STMT, stmt)
            for p in preds:
                edge(p, node)
            if frame.loop_header is not None:
                self._route_through_finallys(
                    node, frame.loop_header, self._finallys_inside_loop(frame)
                )
            return set()

        if isinstance(stmt, ast.If):
            node = add(STMT, stmt)
            for p in preds:
                edge(p, node)
            self._exception_edges(node, frame)
            then_out = self._block(stmt.body, {node}, frame)
            if stmt.orelse:
                else_out = self._block(stmt.orelse, {node}, frame)
            else:
                else_out = {node}
            return then_out | else_out

        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            node = add(STMT, stmt)
            for p in preds:
                edge(p, node)
            self._exception_edges(node, frame)
            breaks: "list[int]" = []
            loop_frame = _Frame(node, breaks, frame.handlers, frame.finallys)
            body_out = self._block(stmt.body, {node}, loop_frame)
            for out in body_out:
                edge(out, node)  # back edge
            after: "set[int]" = {node} | set(breaks)
            if stmt.orelse:
                after = self._block(stmt.orelse, after, frame)
            return after

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            node = add(STMT, stmt)
            for p in preds:
                edge(p, node)
            self._exception_edges(node, frame)
            return self._block(stmt.body, {node}, frame)

        if isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            return self._try(stmt, preds, frame)

        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # Nested definitions are control-flow no-ops here; their own
            # bodies get their own CFGs when a rule asks for them.
            node = add(STMT, stmt)
            for p in preds:
                edge(p, node)
            return {node}

        node = add(STMT, stmt)
        for p in preds:
            edge(p, node)
        self._exception_edges(node, frame)
        return {node}

    def _try(self, stmt: ast.Try, preds, frame: _Frame) -> "set[int]":
        cfg = self.cfg
        node = cfg._add(STMT, stmt)
        for p in preds:
            cfg._edge(p, node)
        self._exception_edges(node, frame)

        # Build the finally body first (entered with no preds; callers
        # wire into its entry), so abrupt exits inside the try can route
        # through it.
        fin: "tuple | None" = None
        if stmt.finalbody:
            fin_entry_mark = len(cfg.nodes)
            fin_outs = self._block(stmt.finalbody, set(), frame)
            fin = (fin_entry_mark, tuple(fin_outs))

        handler_nodes: "list[int]" = []
        handler_frame_finallys = ((fin,) if fin else ()) + frame.finallys
        inner_frame = _Frame(
            frame.loop_header,
            frame.loop_breaks,
            (),  # placeholder; set below once handler nodes exist
            handler_frame_finallys,
        )

        # Handlers need nodes before the body is built (the body's
        # exception edges point at them) — create the handler header
        # nodes now, bodies after.
        for handler in stmt.handlers:
            handler_nodes.append(cfg._add(STMT, handler))
        inner_frame.handlers = tuple(handler_nodes) + tuple(frame.handlers)

        body_mark_start = len(cfg.nodes)
        body_out = self._block(stmt.body, {node}, inner_frame)
        body_mark_stop = len(cfg.nodes)
        # Any statement in the try body may raise into each handler.
        for index in range(body_mark_start, body_mark_stop):
            if cfg.nodes[index].kind == STMT:
                for h in handler_nodes:
                    cfg._edge(index, h, exceptional=True)

        else_out = (
            self._block(stmt.orelse, body_out, inner_frame)
            if stmt.orelse
            else body_out
        )

        handler_outs: "set[int]" = set()
        handler_body_frame = _Frame(
            frame.loop_header,
            frame.loop_breaks,
            frame.handlers,
            handler_frame_finallys,
        )
        for handler, h_node in zip(stmt.handlers, handler_nodes):
            handler_outs |= self._block(
                handler.body, {h_node}, handler_body_frame
            )

        normal_out = else_out | handler_outs
        if fin is not None:
            fin_entry, fin_outs = fin
            for out in normal_out:
                cfg._edge(out, fin_entry)
            return set(fin_outs) or {fin_entry}
        return normal_out

    def _exception_edges(self, node: int, frame: _Frame) -> None:
        for handler in frame.handlers:
            self.cfg._edge(node, handler, exceptional=True)

    def _finallys_inside_loop(self, frame: _Frame) -> tuple:
        """The finally chain a break/continue must traverse: every
        finally opened *inside* the current loop.  The builder pushes
        loop and finally frames together, so the conservative answer —
        all currently-open finallys — is correct for the common shapes
        and over-approximates the rest (extra paths only)."""
        return frame.finallys


def build_cfg(fn) -> CFG:
    """The CFG of one ``ast.FunctionDef``/``AsyncFunctionDef``."""
    return CFG(fn)
