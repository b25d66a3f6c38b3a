"""Tests for the concurrency-contract analyzer (repro.devtools.concurrency).

Each rule R007–R012 has a paired bad/good fixture under
``tests/fixtures/lint/concurrency/``; the bad file must produce
exactly the expected (rule, line) findings and the corrected file
none.  The suite also pins the acceptance criteria: the repo's own
``src/`` tree passes ``lint --concurrency`` clean, reasonless pragmas
are flagged as ``R000-style``, and the static lock graph resolves the
inheritance/wrapper chain (``ReplicatedShard`` around ``GraphStore``).
"""

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.devtools import lint_paths
from repro.devtools.concurrency import find_cycle, static_lock_edges

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
CONC = FIXTURES / "concurrency"
SRC = Path(__file__).parent.parent / "src"


def findings_of(path: Path) -> list[tuple[str, int]]:
    return [(f.rule, f.line) for f in lint_paths([path], concurrency=True)]


@pytest.mark.parametrize("fixture, expected", [
    ("r007_bad.py", [("R007", 15), ("R007", 25)]),
    ("r008_bad.py", [("R008", 15)]),
    ("r009_bad.py", [("R009", 11)]),
    ("r010_bad.py", [("R010", 11)]),
    ("r011_bad.py", [("R011", 6)]),
    ("r012_bad.py", [("R012", 15)]),
])
def test_bad_fixture_fires_exact_rules_and_lines(fixture, expected):
    assert findings_of(CONC / fixture) == expected


@pytest.mark.parametrize("fixture", [
    "r007_good.py", "r008_good.py", "r009_good.py",
    "r010_good.py", "r011_good.py", "r012_good.py",
])
def test_good_fixture_is_silent(fixture):
    assert findings_of(CONC / fixture) == []


def test_concurrency_rules_are_opt_in():
    # The classic ruleset must not grow new failures on old callers.
    assert lint_paths([CONC / "r012_bad.py"]) == []


def test_repo_src_tree_passes_concurrency_lint():
    findings = lint_paths([SRC], concurrency=True)
    assert findings == [], "\n".join(f.format() for f in findings)


def test_static_lock_graph_is_acyclic_and_resolves_wrappers():
    edges = static_lock_edges([SRC])
    assert find_cycle(edges) is None
    # The walker must see *through* the segment union type
    # (GraphStore | ReplicatedShard) to the hot cache the plain store
    # owns — the inheritance/wrapper chain of the storage layer.
    assert ("ShardedGraphStore._lock", "HotSetCache._lock") in edges
    assert ("ParallelEdgeQueryEngine._book_lock",
            "MetricsRegistry._lock") in edges


# ---------------------------------------------------------------- pragmas


def test_reasonless_pragma_is_flagged_not_honoured():
    # The bare pragma still waives R011 on its line (grandfathered
    # behaviour), but the pragma itself becomes an R000-style finding.
    assert findings_of(FIXTURES / "pragma_reasonless.py") == \
        [("R000-style", 5)]


def test_pragma_with_reason_waives_concurrency_rule(tmp_path):
    src = tmp_path / "waived.py"
    src.write_text(
        "def same_object(a, b):\n"
        "    return id(a) == id(b)"
        "  # lint: disable=R011 (callers hold both refs)\n"
    )
    assert findings_of(src) == []


def test_pragma_on_multiline_statement_goes_on_the_reported_line(tmp_path):
    # Findings anchor to the sub-expression's physical line, not the
    # statement's first line — so must the pragma.
    src = tmp_path / "multiline.py"
    src.write_text(
        "def check(a, b):\n"
        "    return (\n"
        "        id(a) == id(b)"
        "  # lint: disable=R011 (both refs pinned by the caller)\n"
        "    )\n"
    )
    assert findings_of(src) == []
    misplaced = tmp_path / "misplaced.py"
    misplaced.write_text(
        "def check(a, b):"
        "  # lint: disable=R011 (wrong line: finding is 3 lines down)\n"
        "    return (\n"
        "        id(a) == id(b)\n"
        "    )\n"
    )
    assert findings_of(misplaced) == [("R011", 3)]


# -------------------------------------------------------------------- CLI


def test_cli_concurrency_flag(capsys):
    assert cli_main(["lint", "--concurrency", str(SRC)]) == 0
    assert "clean" in capsys.readouterr().out
    assert cli_main(["lint", "--concurrency",
                     str(CONC / "r012_bad.py")]) == 1
    assert "R012" in capsys.readouterr().out


def test_cli_json_format(capsys):
    assert cli_main(["lint", "--concurrency", "--format", "json",
                     str(CONC / "r009_bad.py")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [(f["rule"], f["line"]) for f in payload] == [("R009", 11)]
    assert set(payload[0]) == {"path", "line", "col", "rule", "message"}

    assert cli_main(["lint", "--format", "json",
                     str(CONC / "r009_good.py")]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_cli_github_format(capsys):
    assert cli_main(["lint", "--concurrency", "--format", "github",
                     str(CONC / "r008_bad.py")]) == 1
    out = capsys.readouterr().out
    assert out.startswith("::error file=")
    assert "line=15," in out and "title=R008::" in out
