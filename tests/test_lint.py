"""Tests for repro.lint — the AST-based invariant checker.

Each rule is exercised against fixture trees under
``tests/lint_fixtures/{bad,good}/`` that mirror the repository layout
(the runner resolves rule scopes against a configurable root, so a
fixture at ``bad/src/repro/parallel/tasks.py`` exercises RL003's
path-scoped write analysis exactly as the real file would).  The
repository itself must lint clean — that test is the contract CI
enforces.
"""

from pathlib import Path

import pytest

from repro.lint import (
    Diagnostic,
    RULES,
    lint_file,
    parse_suppressions,
    run_lint,
)
from repro.lint.cli import main as lint_main
from repro.lint.engine import Rule, rule

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
BAD = FIXTURES / "bad"
GOOD = FIXTURES / "good"


def ids_for(root, rel):
    """Rule ids flagged in one fixture file, in line order."""
    findings = lint_file(root / rel, root)
    return [d.rule_id for d in sorted(findings)]


class TestRL001Determinism:
    def test_bad_fixture_trips(self):
        findings = sorted(lint_file(BAD / "src/repro/diffusion/rl001_bad.py", BAD))
        # Line 13's wall-clock RNG seed violates both the determinism
        # contract (RL001) and the obs clock discipline (RL008).
        assert [d.rule_id for d in findings] == ["RL001"] * 5 + ["RL008"]
        assert [d.line for d in findings] == [3, 10, 11, 12, 13, 13]

    def test_good_fixture_clean(self):
        assert ids_for(GOOD, "src/repro/diffusion/rl001_good.py") == []


class TestRL002CtxThreading:
    def test_bad_fixture_trips(self):
        findings = sorted(lint_file(BAD / "src/repro/rrset/rl002_bad.py", BAD))
        assert {d.rule_id for d in findings} == {"RL002"}
        messages = " | ".join(d.message for d in findings)
        assert "sequential" in messages
        assert "resolve_backend" in messages
        assert "environ" in messages
        # Every backend=/seed= parameter is a finding, whether it works,
        # is ignored, or only feeds the engine (tombstone, constructor).
        params = [d.message for d in findings if "parameter" in d.message]
        assert sorted(m.split("()")[0] for m in params) == [
            "legacy_constructor",
            "silently_ignored",
            "spread",
            "spread",
            "spread_with_knob",
            "spread_with_knob",
        ]

    def test_good_fixture_clean(self):
        assert ids_for(GOOD, "src/repro/rrset/rl002_good.py") == []


class TestRL003ShmSafety:
    def test_bad_task_trips(self):
        findings = sorted(lint_file(BAD / "src/repro/parallel/tasks.py", BAD))
        assert [d.rule_id for d in findings] == ["RL003"] * 5
        assert [d.line for d in findings] == [8, 9, 10, 11, 12]

    def test_shm_outside_home_trips(self):
        assert ids_for(BAD, "src/repro/parallel/rl003_shm_bad.py") == ["RL003"]

    def test_good_task_clean(self):
        assert ids_for(GOOD, "src/repro/parallel/tasks.py") == []


class TestRL004StoreFormat:
    def test_bad_fixture_trips(self):
        findings = sorted(lint_file(BAD / "src/repro/store/rl004_bad.py", BAD))
        assert {d.rule_id for d in findings} == {"RL004"}
        # magic bytes, dtype=, np dtype, astype, np.dtype, 3x bare 64
        assert len(findings) == 8
        assert findings[0].line == 5

    def test_good_fixture_clean(self):
        assert ids_for(GOOD, "src/repro/store/rl004_good.py") == []


class TestRL005TestHygiene:
    def test_bad_fixture_trips(self):
        findings = sorted(lint_file(BAD / "tests/rl005_bad.py", BAD))
        assert [d.rule_id for d in findings] == ["RL005"] * 3
        assert [d.line for d in findings] == [6, 8, 9]

    def test_good_fixture_clean(self):
        assert ids_for(GOOD, "tests/rl005_good.py") == []


class TestRL006BenchGates:
    def test_bad_fixture_trips(self):
        findings = sorted(
            lint_file(BAD / "benchmarks/bench_rl006_bad.py", BAD)
        )
        assert [d.rule_id for d in findings] == ["RL006"] * 6
        assert [d.line for d in findings] == [5, 6, 8, 9, 10, 11]
        messages = " | ".join(d.message for d in findings)
        assert "min_speedup" in messages
        assert "REPRO_BENCH_MIN_SPEEDUP" in messages

    def test_good_fixture_clean(self):
        assert ids_for(GOOD, "benchmarks/bench_rl006_good.py") == []

    def test_scope_excludes_bench_utils(self):
        rule = RULES["RL006"]
        assert rule.scope("benchmarks/bench_oracle_serving.py")
        assert not rule.scope("benchmarks/_bench_utils.py")
        assert not rule.scope("src/repro/store/service.py")


class TestRL007NoSleep:
    def test_bad_fixture_trips(self):
        findings = sorted(lint_file(BAD / "tests/rl007_bad.py", BAD))
        assert [d.rule_id for d in findings] == ["RL007"] * 3
        assert [d.line for d in findings] == [6, 7, 8]
        messages = " | ".join(d.message for d in findings)
        assert "Event" in messages

    def test_good_fixture_clean(self):
        assert ids_for(GOOD, "tests/rl007_good.py") == []

    def test_scope_is_tests_only(self):
        rule = RULES["RL007"]
        assert rule.scope("tests/test_serving.py")
        assert not rule.scope("benchmarks/bench_oracle_serving.py")
        assert not rule.scope("src/repro/serving/coalesce.py")


class TestRL008ObsDiscipline:
    def test_bad_fixture_trips(self):
        findings = sorted(lint_file(BAD / "src/repro/diffusion/rl008_bad.py", BAD))
        assert [d.rule_id for d in findings] == ["RL008"] * 4
        assert [d.line for d in findings] == [8, 9, 10, 11]
        messages = " | ".join(d.message for d in findings)
        assert "obs.emit" in messages
        assert "obs.stopwatch" in messages

    def test_good_fixture_clean(self):
        assert ids_for(GOOD, "src/repro/diffusion/rl008_good.py") == []

    def test_scope_exempts_obs_and_cli(self):
        rule = RULES["RL008"]
        assert rule.scope("src/repro/diffusion/welfare.py")
        assert rule.scope("src/repro/serving/app.py")
        assert not rule.scope("src/repro/obs/metrics.py")
        assert not rule.scope("src/repro/cli.py")
        assert not rule.scope("src/repro/lint/cli.py")
        assert not rule.scope("tests/test_obs.py")
        assert not rule.scope("benchmarks/bench_oracle_serving.py")


class TestSuppressions:
    def test_reasonless_suppression_silences_rule_but_flags_rl000(self):
        findings = lint_file(BAD / "src/repro/diffusion/rl000_reasonless.py", BAD)
        assert [d.rule_id for d in findings] == ["RL000"]
        assert "no reason" in findings[0].message

    def test_reasoned_suppressions_clean(self):
        rel = "src/repro/diffusion/suppressed_with_reason.py"
        assert ids_for(GOOD, rel) == []

    def test_parse_standalone_shields_next_line(self):
        table = parse_suppressions(
            "# repro-lint: disable=RL001 naming entropy\nx = rng()\n"
        )
        assert table.is_suppressed(2, "RL001")
        assert not table.is_suppressed(1, "RL001")
        assert table.reasonless == []

    def test_parse_trailing_shields_own_line(self):
        table = parse_suppressions(
            "x = rng()  # repro-lint: disable=RL001,RL002 shared entropy\n"
        )
        assert table.is_suppressed(1, "RL001")
        assert table.is_suppressed(1, "RL002")
        assert not table.is_suppressed(1, "RL003")

    def test_parse_reasonless_recorded(self):
        table = parse_suppressions("x = rng()  # repro-lint: disable=RL001\n")
        assert table.is_suppressed(1, "RL001")
        assert len(table.reasonless) == 1


class TestEngine:
    def test_syntax_error_becomes_rl999(self):
        findings = lint_file(BAD / "src/repro/rl999_syntax.py", BAD)
        assert [d.rule_id for d in findings] == ["RL999"]
        assert "does not parse" in findings[0].message

    def test_bad_tree_trips_every_rule(self):
        ids = {d.rule_id for d in run_lint(BAD)}
        assert ids == {
            "RL000",
            "RL001",
            "RL002",
            "RL003",
            "RL004",
            "RL005",
            "RL006",
            "RL007",
            "RL008",
            "RL999",
        }

    def test_good_tree_clean(self):
        assert run_lint(GOOD) == []

    def test_repository_lints_clean(self):
        """The contract CI enforces: the tree itself has zero findings."""
        assert [d.render() for d in run_lint(REPO_ROOT)] == []

    def test_duplicate_rule_id_rejected(self):
        class Clone(Rule):
            rule_id = "RL001"

        with pytest.raises(ValueError, match="duplicate"):
            rule(Clone)

    def test_registry_has_all_rules(self):
        assert set(RULES) == {
            "RL001",
            "RL002",
            "RL003",
            "RL004",
            "RL005",
            "RL006",
            "RL007",
            "RL008",
        }

    def test_diagnostic_render(self):
        diag = Diagnostic(
            path="src/repro/x.py",
            line=3,
            col=7,
            rule_id="RL001",
            message="boom",
        )
        assert diag.render() == "src/repro/x.py:3:7: RL001 boom"


class TestCli:
    def test_clean_tree_exits_zero(self, capsys):
        assert lint_main(["--root", str(GOOD)]) == 0
        err = capsys.readouterr().err
        assert "0 findings" in err

    def test_findings_exit_one(self, capsys):
        assert lint_main(["--root", str(BAD)]) == 1
        out = capsys.readouterr().out
        assert "RL001" in out
        assert "RL005" in out

    def test_select_restricts_rules(self, capsys):
        assert lint_main(["--root", str(BAD), "--select", "RL004"]) == 1
        out = capsys.readouterr().out
        assert ": RL004 " in out
        assert ": RL001 " not in out

    def test_unknown_rule_usage_error(self, capsys):
        assert lint_main(["--root", str(BAD), "--select", "RL777"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_target_usage_error(self, capsys):
        assert lint_main(["--root", str(GOOD), "no_such_dir"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_bad_root_usage_error(self, capsys):
        assert lint_main(["--root", str(GOOD / "nowhere")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_explicit_target_narrows_scan(self, capsys):
        assert lint_main(["--root", str(BAD), "tests"]) == 1
        out = capsys.readouterr().out
        assert "RL005" in out
        assert "RL001" not in out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "RL001",
            "RL002",
            "RL003",
            "RL004",
            "RL005",
            "RL006",
            "RL007",
            "RL008",
        ):
            assert rule_id in out

    def test_quiet_omits_summary(self, capsys):
        assert lint_main(["--root", str(GOOD), "-q"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""
