"""repro.lint — the AST invariant checker.

Every rule must catch its seeded-violation fixture, pass its clean
twin, respect inline ``disable=`` pragmas, and the real source tree
must be clean (the CI gate in executable form).
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.errors import ParameterError
from repro.lint import (
    DEFAULT_ROOT,
    Rule,
    Violation,
    get_rule,
    lint_paths,
    list_rules,
    register_rule,
)
from repro.lint.base import _RULES, Module
from repro.lint.cfg import STMT, build_cfg
from repro.lint.layers import LAYER_ORDER, LAZY_ALLOWLIST, RANK, rank_of

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[1]

ALL_RULES = (
    "L001",
    "L002",
    "L003",
    "L004",
    "L005",
    "L006",
    "L007",
    "L008",
    "L009",
    "L010",
)


def rules_hit(paths, **kwargs):
    violations, _ = lint_paths(paths, **kwargs)
    return violations, {v.rule for v in violations}


# ---------------------------------------------------------------------------
# Fixtures: every rule catches its seeded violation and passes its twin
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rule_id", ALL_RULES)
def test_rule_catches_seeded_fixture(rule_id):
    bad = FIXTURES / f"{rule_id.lower()}_bad"
    _, hit = rules_hit([bad])
    assert rule_id in hit, f"{rule_id} missed its seeded fixture"


@pytest.mark.parametrize("rule_id", ALL_RULES)
def test_rule_passes_clean_twin(rule_id):
    clean = FIXTURES / f"{rule_id.lower()}_clean"
    violations, hit = rules_hit([clean], select=[rule_id])
    assert not violations, (
        f"{rule_id} false-positives on its clean twin: "
        + "; ".join(v.render() for v in violations)
    )


def test_l001_flags_both_eager_and_unlisted_lazy():
    violations = rules_hit([FIXTURES / "l001_bad"], select=["L001"])[0]
    messages = "\n".join(v.message for v in violations)
    assert "module-level import" in messages
    assert "lazy import" in messages
    assert len(violations) == 2


@pytest.mark.parametrize(
    "importer, target",
    [("dist", "repro.service.digest"), ("service", "repro.dist.protocol")],
)
def test_l001_flags_a_lazy_import_between_service_and_dist(
    tmp_path, importer, target
):
    """``service`` and ``dist`` share a rank with no allowlist entry
    either way, so even a function-scoped import between them is
    flagged."""
    package = tmp_path / "repro" / importer
    package.mkdir(parents=True)
    (package / "reach.py").write_text(
        "def reach():\n"
        f"    import {target}\n"
        "\n"
        f"    return {target}\n"
    )
    violations = rules_hit([tmp_path], select=["L001"])[0]
    assert len(violations) == 1
    assert f"lazy import of {target!r}" in violations[0].message
    assert violations[0].line == 2


def test_l002_reports_both_transcendental_and_sum():
    violations = rules_hit([FIXTURES / "l002_bad"], select=["L002"])[0]
    messages = "\n".join(v.message for v in violations)
    assert "math.atan" in messages and "np.arctan" in messages
    assert "sum()" in messages


@pytest.mark.parametrize(
    "module",
    [
        "repro.batch.engine",
        "repro.batch.time_domain",
        "repro.batch.preisach",
        "repro.baselines.time_domain",
        "repro.preisach.model",
    ],
)
def test_l002_and_l009_patrol_both_sides_of_every_fused_pin(tmp_path, module):
    """Each fused loop and the per-sample path it is pinned to are
    kernel-parity modules: a libm call or a clock read in any of them
    is flagged."""
    path = tmp_path.joinpath(*module.split(".")).with_suffix(".py")
    path.parent.mkdir(parents=True)
    path.write_text(
        "import math\nimport time\n\n\n"
        "def step(x):\n"
        "    return math.atan(x) + time.time()\n"
    )
    _, hit = rules_hit([tmp_path], select=["L002", "L009"])
    assert hit == {"L002", "L009"}


def test_l003_reports_nested_body_with_block_and_lambda():
    violations = rules_hit([FIXTURES / "l003_bad"], select=["L003"])[0]
    messages = "\n".join(v.message for v in violations)
    assert "not module-level" in messages
    assert "context managers" in messages
    assert "_compiled()" in messages


def test_l004_names_the_skipped_field_and_excludes_execution_shape():
    violations = rules_hit([FIXTURES / "l004_bad"], select=["L004"])[0]
    assert len(violations) == 1
    assert "'anisotropy'" in violations[0].message
    # n_workers is execution shape — excluded, not a violation.
    assert "n_workers" not in violations[0].message


def test_l005_reports_all_four_hygiene_classes():
    violations = rules_hit([FIXTURES / "l005_bad"], select=["L005"])[0]
    messages = "\n".join(v.message for v in violations)
    assert "caller-owned pool" in messages
    assert "resource tracker" in messages
    assert "mutable default" in messages
    assert "recv_message" in messages
    assert len(violations) == 4


def test_l006_reports_path_leak_and_never_released():
    violations = rules_hit([FIXTURES / "l006_bad"], select=["L006"])[0]
    messages = "\n".join(v.message for v in violations)
    # Two flow shapes: a branch that skips the release, and a handle
    # that has no release at all.
    assert "skips every release" in messages
    assert "never released" in messages
    assert "SharedMemory handle 'shm'" in messages
    assert "fd handle 'fd'" in messages
    assert len(violations) == 3


def test_l006_tracks_the_dist_connection_helpers(tmp_path):
    """``repro.dist.protocol.connect``/``accept`` open connections the
    way ``Client`` does, so a handle from either must be released."""
    package = tmp_path / "repro" / "dist"
    package.mkdir(parents=True)
    (package / "leaky.py").write_text(
        "from repro.dist.protocol import accept, connect\n"
        "\n\n"
        "def dial(address, authkey):\n"
        "    conn = connect(address, authkey, 1.0)\n"
        "    conn.send_bytes(b'hello')\n"
        "\n\n"
        "def serve_one(listener, authkey):\n"
        "    conn = accept(listener, authkey)\n"
        "    try:\n"
        "        conn.send_bytes(b'hello')\n"
        "    finally:\n"
        "        conn.close()\n"
    )
    violations = rules_hit([tmp_path], select=["L006"])[0]
    assert len(violations) == 1
    assert "Client handle 'conn'" in violations[0].message
    assert violations[0].line == 5


def test_l007_reports_foreign_raise_and_silent_swallow():
    violations = rules_hit([FIXTURES / "l007_bad"], select=["L007"])[0]
    messages = "\n".join(v.message for v in violations)
    assert "escapes the ReproError taxonomy" in messages
    assert "swallows every failure in silence" in messages
    assert len(violations) == 2


def test_l008_reports_unlooped_wait_and_blocking_under_lock():
    violations = rules_hit([FIXTURES / "l008_bad"], select=["L008"])[0]
    messages = "\n".join(v.message for v in violations)
    assert "outside a while-predicate loop" in messages
    assert "send_message() while holding lock" in messages
    assert "self._pool.map() while holding self._lock" in messages
    assert len(violations) == 3


def test_l009_reports_entropy_and_unsorted_iteration():
    violations = rules_hit([FIXTURES / "l009_bad"], select=["L009"])[0]
    messages = "\n".join(v.message for v in violations)
    assert "time.time() injects entropy" in messages
    assert "uuid.uuid4() injects entropy" in messages
    assert "insertion/hash order" in messages
    assert len(violations) == 3


def test_l010_reports_all_four_protocol_drifts():
    violations = rules_hit([FIXTURES / "l010_bad"], select=["L010"])[0]
    messages = "\n".join(v.message for v in violations)
    assert "never constructed" in messages
    assert "missing from TAG_HANDLERS" in messages
    assert "must bump PROTOCOL_VERSION" in messages
    assert "the handler arm is missing" in messages
    assert len(violations) == 4
    # The missing-arm finding points at the handler module, not the
    # protocol module.
    arm = [v for v in violations if "handler arm" in v.message]
    assert arm[0].path.endswith("worker.py")


@pytest.mark.parametrize(
    "module_name, kept_handler",
    [
        # Delete the worker's MSG_PING arm; keep MSG_PONG constructed.
        (
            "worker.py",
            "from repro.dist.protocol import MSG_PONG, send_message\n"
            "\n\n"
            "def handle(conn, message):\n"
            "    send_message(conn, (MSG_PONG, 1))\n",
        ),
        # Delete the dispatcher's MSG_PONG arm; keep MSG_PING constructed.
        (
            "dispatch.py",
            "from repro.dist.protocol import MSG_PING, send_message\n"
            "\n\n"
            "def handshake(conn):\n"
            "    send_message(conn, (MSG_PING,))\n",
        ),
    ],
)
def test_l010_flags_any_deleted_handler_arm(tmp_path, module_name, kept_handler):
    """The full-tag-set round trip: start from the clean twin, delete
    one handler arm, and the rule must name that module."""
    target = tmp_path / "copy"
    shutil.copytree(FIXTURES / "l010_clean", target)
    (target / "repro" / "dist" / module_name).write_text(kept_handler)
    violations, hit = rules_hit([target], select=["L010"])
    assert hit == {"L010"}
    assert len(violations) == 1
    assert "the handler arm is missing" in violations[0].message
    assert violations[0].path.endswith(module_name)


# ---------------------------------------------------------------------------
# Pragmas
# ---------------------------------------------------------------------------


def test_pragma_suppresses_only_its_line():
    violations = rules_hit([FIXTURES / "l002_pragma"], select=["L002"])[0]
    assert len(violations) == 1
    assert "math.tanh" in violations[0].message


def test_pragma_parsing_multiple_rules_and_justification():
    source = "x = 1  # repro-lint: disable=L001, L002 -- reason here\n"
    module = Module(FIXTURES / "l002_bad" / "repro" / "core" / "kernel.py", source)
    assert module.pragmas == {1: frozenset({"L001", "L002"})}


# ---------------------------------------------------------------------------
# The real tree is clean (same property the CI gate enforces)
# ---------------------------------------------------------------------------


def test_real_tree_is_clean():
    violations, n_files = lint_paths([DEFAULT_ROOT])
    assert n_files > 100  # the whole src/repro tree, not a subset
    assert not violations, "\n".join(v.render() for v in violations)


def test_cli_exits_zero_on_real_tree_and_nonzero_on_fixture():
    env_path = str(REPO_ROOT / "src")
    ok = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--format", "json"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"},
    )
    assert ok.returncode == 0, ok.stdout + ok.stderr
    report = json.loads(ok.stdout)
    assert report["count"] == 0 and report["files"] > 100
    assert report["rules"] == list(ALL_RULES)

    bad = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.lint",
            "--format",
            "json",
            str(FIXTURES / "l001_bad"),
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"},
    )
    assert bad.returncode == 1
    report = json.loads(bad.stdout)
    assert report["count"] == 2
    assert {v["rule"] for v in report["violations"]} == {"L001"}


def test_cli_github_format_emits_workflow_annotations():
    env_path = str(REPO_ROOT / "src")
    bad = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.lint",
            "--format",
            "github",
            str(FIXTURES / "l001_bad"),
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"},
    )
    assert bad.returncode == 1
    annotations = [
        line for line in bad.stdout.splitlines() if line.startswith("::error ")
    ]
    assert len(annotations) == 2
    first = annotations[0]
    # ::error file=...,line=...,col=...,title=L001 layer-order::message
    assert "file=tests/lint_fixtures/l001_bad" in first
    assert "title=L001 layer-order::" in first
    # columns are 1-based in workflow-command land
    assert ",col=0," not in first


# ---------------------------------------------------------------------------
# The CFG core: path enumeration and the all-paths release query
# ---------------------------------------------------------------------------


def _cfg_of(source: str):
    tree = ast.parse(textwrap.dedent(source).strip())
    return build_cfg(tree.body[0])


def _node_at(cfg, line: int) -> int:
    for node in cfg.nodes:
        if node.kind == STMT and node.line == line:
            return node.index
    raise AssertionError(f"no statement node at line {line}")


class TestCFG:
    def test_if_else_enumerates_both_arms(self):
        cfg = _cfg_of(
            """
            def f(flag):
                if flag:
                    a = 1
                else:
                    b = 2
                return flag
            """
        )
        lines = {tuple(p) for p in cfg.path_lines()}
        assert (2, 3, 6) in lines  # then arm
        assert (2, 5, 6) in lines  # else arm
        assert len(lines) == 2

    def test_bare_if_keeps_the_fallthrough_path(self):
        cfg = _cfg_of(
            """
            def f(flag):
                if flag:
                    a = 1
                return flag
            """
        )
        lines = {tuple(p) for p in cfg.path_lines()}
        assert (2, 3, 4) in lines and (2, 4) in lines

    def test_early_return_routes_through_finally(self):
        cfg = _cfg_of(
            """
            def f(res):
                try:
                    if res:
                        return 1
                    x = 2
                finally:
                    res.close()
                return 3
            """
        )
        close_line = 7
        for path in cfg.path_lines():
            if 4 in path:  # the early return...
                assert close_line in path  # ...still runs the finally
        # and the normal continuation exists too
        assert any(8 in path for path in cfg.path_lines())

    def test_loop_has_back_edge_and_zero_iteration_path(self):
        cfg = _cfg_of(
            """
            def f(xs):
                for x in xs:
                    x = x + 1
                return xs
            """
        )
        header, body = _node_at(cfg, 2), _node_at(cfg, 3)
        assert header in cfg.nodes[body].succ  # back edge
        # maybe-zero-iteration: the loop header falls through directly
        assert (2, 4) in {tuple(p) for p in cfg.path_lines()}

    def test_break_reaches_the_statement_after_the_loop(self):
        cfg = _cfg_of(
            """
            def f(xs):
                while xs:
                    if xs:
                        break
                    xs = None
                return xs
            """
        )
        assert cfg.reaches_exit_avoiding(_node_at(cfg, 4), avoid=set())
        # break jumps over the rest of the body: no path pairs 4 with 5
        for path in cfg.path_lines():
            assert not (4 in path and 5 in path)

    def test_with_body_is_sequential_flow(self):
        cfg = _cfg_of(
            """
            def f(conn):
                with conn:
                    x = 1
                return x
            """
        )
        assert {tuple(p) for p in cfg.path_lines()} == {(2, 3, 4)}

    def test_try_body_has_exception_edges_into_its_handler(self):
        cfg = _cfg_of(
            """
            def f(res):
                try:
                    risky(res)
                except ValueError:
                    res.close()
                return res
            """
        )
        body, handler = _node_at(cfg, 3), _node_at(cfg, 4)
        assert handler in cfg.nodes[body].succ_except

    def test_reaches_exit_avoiding_is_the_release_query(self):
        leaky = _cfg_of(
            """
            def f(make, flag):
                h = make()
                if flag:
                    h.close()
                return 1
            """
        )
        assert leaky.reaches_exit_avoiding(
            _node_at(leaky, 2), avoid={_node_at(leaky, 4)}
        )

        held = _cfg_of(
            """
            def f(make):
                h = make()
                try:
                    work(h)
                finally:
                    h.close()
            """
        )
        assert not held.reaches_exit_avoiding(
            _node_at(held, 2), avoid={_node_at(held, 6)}
        )

    def test_skip_initial_exception_edges_exempts_failed_acquisition(self):
        cfg = _cfg_of(
            """
            def f(make):
                try:
                    h = make()
                except OSError:
                    return None
                h.close()
            """
        )
        acq, close = _node_at(cfg, 3), _node_at(cfg, 6)
        # With the acquisition's own raise path included, the handler's
        # early return routes around close()...
        assert cfg.reaches_exit_avoiding(acq, avoid={close})
        # ...but a constructor that raised produced nothing to leak, so
        # L006-style queries drop that initial edge and find no escape.
        assert not cfg.reaches_exit_avoiding(
            acq, avoid={close}, skip_initial_exception_edges=True
        )


# ---------------------------------------------------------------------------
# Selection, registry, runner plumbing
# ---------------------------------------------------------------------------


def test_select_and_ignore():
    bad = FIXTURES / "l002_bad"
    assert rules_hit([bad], select=["L001"])[1] == set()
    assert rules_hit([bad], ignore=["L002"])[1] == set()
    assert rules_hit([bad], select=["L002"])[1] == {"L002"}
    with pytest.raises(ParameterError, match="unknown lint rule"):
        lint_paths([bad], select=["L999"])


def test_registry_lists_ten_rules_and_rejects_duplicates():
    ids = [cls.id for cls in list_rules()]
    assert ids == list(ALL_RULES)
    assert get_rule("L001").name == "layer-order"
    assert get_rule("L006").name == "resource-lifecycle"
    assert get_rule("L010").name == "protocol-exhaustiveness"
    with pytest.raises(ParameterError, match="duplicate lint rule"):

        @register_rule
        class Duplicate(Rule):
            id = "L001"

    # a new id registers and unregisters cleanly (the backend idiom)
    @register_rule
    class Custom(Rule):
        id = "L999"
        name = "custom"

        def check_module(self, module):
            return [Violation("L999", str(module.path), 1, 0, "hello")]

    try:
        hit = rules_hit([FIXTURES / "l002_clean"], select=["L999"])[1]
        assert hit == {"L999"}
    finally:
        del _RULES["L999"]


def test_syntax_error_becomes_e000(tmp_path):
    broken = tmp_path / "repro" / "core"
    broken.mkdir(parents=True)
    (broken / "oops.py").write_text("def broken(:\n")
    violations, _ = lint_paths([tmp_path])
    assert [v.rule for v in violations] == ["E000"]


def test_unknown_path_is_an_error(tmp_path):
    with pytest.raises(ParameterError, match="not a Python file"):
        lint_paths([tmp_path / "missing.py"])


# ---------------------------------------------------------------------------
# The layer table itself
# ---------------------------------------------------------------------------


def test_layer_table_covers_every_real_package():
    packages = {
        child.name
        for child in (DEFAULT_ROOT).iterdir()
        if child.is_dir() and (child / "__init__.py").exists()
    }
    packages |= {"repro", "constants", "errors"}
    assert packages <= set(RANK), sorted(packages - set(RANK))


def test_layer_invariants_parallel_service_sched():
    assert RANK["parallel"] < RANK["service"]  # parallel never imports service
    assert RANK["sched"] > RANK["parallel"]  # sched sits above parallel
    assert ("parallel", "sched") in LAZY_ALLOWLIST  # the documented break
    assert ("parallel", "service") not in LAZY_ALLOWLIST
    assert ("dist", "service") not in LAZY_ALLOWLIST
    assert rank_of("nonexistent") is None
    assert len([p for layer in LAYER_ORDER for p in layer]) == len(RANK)
