"""Tests for repro-lint: every rule against its fixture pair, the
suppression contract (justification required), configuration loading,
the CLI exit-code contract, and the whole-tree smoke (``src/`` must be
clean — the same gate CI runs).

Fixtures live in ``tests/lint_fixtures/``; see its README for why the
determinism fixtures live under a ``repro/simulator`` path.
"""

import json
from pathlib import Path

import pytest

from repro.devtools.lint import (
    LintConfig,
    LintConfigError,
    all_rules,
    families,
    load_config,
    run,
)
from repro.devtools.lint.cli import main as lint_main
from repro.devtools.lint.suppressions import scan

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[1]


def lint(*relpaths):
    findings, _ = run([FIXTURES / p for p in relpaths], LintConfig())
    return findings


def rules_hit(findings):
    return {f.rule for f in findings}


class TestRegistry:
    def test_every_rule_family_registers(self):
        assert set(families()) == {
            "determinism",
            "locks",
            "frozen-result",
            "hygiene",
        }

    def test_every_rule_documents_its_rationale(self):
        for rule in all_rules():
            assert rule.description and rule.rationale, rule.name


class TestDeterminismRules:
    def test_wall_clock_flagged_in_scope(self):
        findings = lint("repro/simulator/bad_determinism.py")
        clocks = [f for f in findings if f.rule == "wall-clock"]
        assert len(clocks) == 3  # time.time, perf_counter, datetime.now

    def test_unseeded_rng_flagged_in_scope(self):
        findings = lint("repro/simulator/bad_determinism.py")
        rng = [f for f in findings if f.rule == "unseeded-rng"]
        assert len(rng) == 3  # random.random, default_rng(), np.random.rand

    def test_good_fixture_is_clean(self):
        assert lint("repro/simulator/good_determinism.py") == []

    def test_determinism_rules_are_path_scoped(self, tmp_path):
        # The same bad source outside simulator/core/gp raises nothing.
        out_of_scope = tmp_path / "elsewhere.py"
        out_of_scope.write_text(
            (FIXTURES / "repro/simulator/bad_determinism.py").read_text()
        )
        findings, _ = run([out_of_scope], LintConfig())
        assert rules_hit(findings) & {"wall-clock", "unseeded-rng"} == set()

    def test_id_in_key(self):
        findings = lint("bad_id_in_key.py")
        assert len([f for f in findings if f.rule == "id-in-key"]) == 3
        assert lint("good_id_in_key.py") == []

    def test_unordered_iteration(self):
        findings = lint("bad_unordered_key.py")
        assert len([f for f in findings if f.rule == "unordered-iteration"]) == 3
        assert lint("good_unordered_key.py") == []


class TestLockDiscipline:
    def test_unlocked_mutations_flagged(self):
        findings = lint("bad_locks.py")
        locks = [f for f in findings if f.rule == "lock-discipline"]
        # record: append + +=; reset: clear-in-if + del
        assert len(locks) == 4
        assert {"UnlockedCounter.record", "UnlockedCounter.reset"} == {
            f.message.split()[0] for f in locks
        }

    def test_locked_class_is_clean(self):
        assert lint("good_locks.py") == []

    def test_deleting_the_with_block_fails_lint(self, tmp_path):
        # The acceptance mutation from the issue, in miniature: strip the
        # with-block from the real cache base class and lint the copy.
        source = (
            REPO_ROOT / "src/repro/simulator/_identity_cache.py"
        ).read_text()
        mutated = source.replace(
            "    def clear(self) -> None:\n        with self._lock:\n",
            "    def clear(self) -> None:\n        if True:\n",
        )
        assert mutated != source, "clear() changed shape; update this test"
        copy = tmp_path / "identity_cache.py"
        copy.write_text(mutated)
        findings, _ = run([copy], LintConfig())
        assert "lock-discipline" in rules_hit(findings)


class TestFrozenResult:
    def test_writes_and_thaws_flagged(self):
        findings = lint("bad_frozen.py")
        frozen = [f for f in findings if f.rule == "frozen-result"]
        assert len(frozen) == 6

    def test_reads_and_freezes_are_clean(self):
        assert lint("good_frozen.py") == []


class TestHygiene:
    def test_bad_fixture_trips_all_three(self):
        findings = lint("bad_hygiene.py")
        assert rules_hit(findings) == {
            "bare-except",
            "mutable-default",
            "print-call",
        }
        # two mutable defaults: [] display and dict() call
        assert len([f for f in findings if f.rule == "mutable-default"]) == 2

    def test_good_fixture_is_clean(self):
        assert lint("good_hygiene.py") == []

    def test_private_imports_flagged_in_all_three_forms(self):
        findings = lint("bad_private_import.py")
        assert [f.rule for f in findings] == ["private-import"] * 3
        assert [f.line for f in findings] == [3, 4, 5]

    def test_public_own_and_stdlib_accelerator_imports_are_clean(self):
        assert lint("good_private_import.py") == []

    def test_private_import_suppression_needs_a_reason(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "# repro-lint: disable=private-import(checked against the public API)\n"
            "from scipy.optimize._lbfgsb import setulb\n"
        )
        assert run([mod], LintConfig())[0] == []
        mod.write_text(
            "from scipy.optimize._lbfgsb import setulb"
            "  # repro-lint: disable=private-import\n"
        )
        findings, _ = run([mod], LintConfig())
        assert rules_hit(findings) == {
            "private-import",
            "suppression-missing-reason",
        }

    def test_print_allowed_modules_are_exempt(self, tmp_path):
        cli = tmp_path / "repro" / "cli.py"
        cli.parent.mkdir()
        cli.write_text("def main():\n    print('hello')\n")
        findings, _ = run([cli], LintConfig())
        assert findings == []


class TestSuppressions:
    def test_justified_suppressions_silence_findings(self):
        assert lint("repro/simulator/good_suppression.py") == []

    def test_missing_reason_is_a_finding_and_silences_nothing(self):
        findings = lint("repro/simulator/bad_suppression.py")
        assert rules_hit(findings) == {
            "wall-clock",
            "suppression-missing-reason",
        }

    def test_docstring_describing_the_syntax_is_not_a_suppression(self):
        source = '"""Docs: write # repro-lint: disable=wall-clock here."""\n'
        table = scan("mod.py", source)
        assert table.by_line == {} and table.malformed == []

    def test_multiple_rules_on_one_line(self):
        table = scan(
            "mod.py",
            "x = 1  # repro-lint: disable=rule-a(why a),rule-b(why b)\n",
        )
        assert table.covers(1, "rule-a") and table.covers(1, "rule-b")
        assert not table.covers(1, "rule-c")
        assert table.malformed == []


class TestConfig:
    def test_defaults_without_pyproject(self):
        config = load_config(None)
        assert "repro/simulator" in config.determinism_paths

    def test_unknown_key_is_an_error(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text("[tool.repro-lint]\ndeterminism-pathz = []\n")
        with pytest.raises(LintConfigError, match="determinism-pathz"):
            load_config(pyproject)

    def test_overrides_apply(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            '[tool.repro-lint]\ndisable = ["print-call"]\n'
        )
        config = load_config(pyproject)
        assert config.disable == ("print-call",)
        findings, _ = run([FIXTURES / "bad_hygiene.py"], config)
        assert "print-call" not in rules_hit(findings)

    def test_repo_pyproject_parses(self):
        config = load_config(REPO_ROOT / "pyproject.toml")
        assert config == LintConfig()


class TestCli:
    def test_findings_exit_1_and_render_locations(self, capsys):
        rc = lint_main([str(FIXTURES / "bad_hygiene.py")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "bad_hygiene.py:7:4 bare-except" in out

    def test_clean_exit_0(self, capsys):
        rc = lint_main([str(FIXTURES / "good_hygiene.py")])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_json_format(self, capsys):
        rc = lint_main(
            ["--format=json", str(FIXTURES / "bad_hygiene.py")]
        )
        report = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert report["checked_files"] == 1
        assert report["counts"]["bare-except"] == 1
        assert report["total"] == len(report["findings"])

    def test_missing_path_exits_2(self, capsys):
        assert lint_main([str(FIXTURES / "no_such_dir")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_bad_config_exits_2(self, tmp_path, capsys):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text("[tool.repro-lint]\nbogus = 1\n")
        rc = lint_main(
            ["--config", str(pyproject), str(FIXTURES / "good_hygiene.py")]
        )
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = {line.split()[0] for line in out.splitlines() if line[:1].strip()}
        assert listed == {rule.name for rule in all_rules()}
        assert "lock-discipline" in listed


class TestWholeTree:
    def test_src_is_clean_under_the_repo_config(self):
        # The same invocation CI gates on: src/ lints clean with the
        # committed pyproject configuration.
        config = load_config(REPO_ROOT / "pyproject.toml")
        findings, n_files = run([REPO_ROOT / "src"], config)
        assert findings == [], "\n".join(f.render() for f in findings)
        assert n_files > 50

    def test_every_committed_suppression_has_a_reason(self):
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            table = scan(str(path), path.read_text())
            assert table.malformed == [], path
