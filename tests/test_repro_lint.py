"""Tests of ``tools/repro_lint`` — the architecture & concurrency checker.

Each rule is exercised against a fixture tree with known violations
(``tests/lint_fixtures/violations``) and a known-clean twin
(``tests/lint_fixtures/clean``), both shaped like miniature ``src/repro``
checkouts so the rules' path-sensitive configuration applies unmodified.
The live tree itself must be finding-free modulo the committed baseline —
that test is what makes the suite *blocking*.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.repro_lint import Baseline, all_rules, run_lint  # noqa: E402
from tools.repro_lint.framework import main as lint_main  # noqa: E402

FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"
VIOLATIONS = FIXTURES / "violations"
CLEAN = FIXTURES / "clean"


def lint(root: Path):
    return run_lint(root, all_rules())


def rules_found(report) -> set[str]:
    return {finding.rule for finding in report.findings}


def findings_for(report, rule: str):
    return [finding for finding in report.findings if finding.rule == rule]


# --------------------------------------------------------------------- #
#  per-rule: the violation fixture fires, the clean twin does not
# --------------------------------------------------------------------- #
class TestSingleLoop:
    def test_violations_fire(self):
        found = findings_for(lint(VIOLATIONS), "single-loop")
        lines = {
            finding.line
            for finding in found
            if "operators" in finding.path and "while-loop" in finding.message
        }
        # drain()'s `while pool`, spin()'s `while frontier and ...`,
        # Engine.solve()'s `while self.open_pool`
        assert len(lines) == 3

    def test_driver_run_outside_driver_fires(self):
        found = findings_for(lint(VIOLATIONS), "single-loop")
        calls = [f for f in found if "operators" in f.path and "run(frontier" in f.message]
        # solve_by_hand()'s `driver.run(frontier, ...)`
        assert len(calls) == 1
        assert "run_search" in calls[0].message
        # the clean driver.py fixture's run_search() makes the same call
        assert not findings_for(lint(CLEAN), "single-loop")

    def test_clean_twin(self):
        assert not findings_for(lint(CLEAN), "single-loop")

    def test_driver_is_allowed(self):
        report = lint(CLEAN)
        # clean/bb/driver.py holds a bare `while frontier:` and stays clean
        assert not any(f.path.endswith("driver.py") for f in report.findings)

    def test_pool_size_is_not_a_pool(self):
        # `while width < pool_size:` must not match (clean twin contains it)
        found = findings_for(lint(CLEAN), "single-loop")
        assert not found


class TestLayerDag:
    def test_upward_imports_fire(self):
        found = findings_for(lint(VIOLATIONS), "layer-dag")
        upward = [f for f in found if f.path.endswith("bb/upward.py")]
        # both `from repro.service...` and `import repro.experiments...`
        assert len(upward) == 2
        assert all("higher layer" in f.message for f in upward)

    def test_protocol_module_level_solver_imports_fire(self):
        found = findings_for(lint(VIOLATIONS), "layer-dag")
        protocol = [f for f in found if f.path.endswith("service/protocol.py")]
        # numpy + repro.flowshop at module level
        assert len(protocol) == 2
        assert all("importable" in f.message for f in protocol)

    def test_clean_twin(self):
        # lazy function-level and TYPE_CHECKING imports are both fine
        assert not findings_for(lint(CLEAN), "layer-dag")


class TestGuardedBy:
    def test_unlocked_accesses_fire(self):
        found = findings_for(lint(VIOLATIONS), "guarded-by")
        dispatch = [f for f in found if "dispatch.py" in f.path]
        # submit()'s unlocked write + close()'s two post-with accesses
        assert len(dispatch) == 3

    def test_clean_twin(self):
        assert not findings_for(lint(CLEAN), "guarded-by")

    def test_wrapping_condition_counts_as_the_lock(self):
        # clean twin guards via `with self._wakeup:` for attributes declared
        # `guarded-by: _lock, _wakeup` — no finding
        assert not findings_for(lint(CLEAN), "guarded-by")

    def test_offload_pipeline_violations_fire(self):
        # a worker -> joiner hand-off: lock-guarded counter plus a
        # confined-to payload, in a module the rule scans
        found = findings_for(lint(VIOLATIONS), "guarded-by")
        handoff = [f for f in found if "bb/worksteal.py" in f.path]
        assert len(handoff) == 2
        messages = " | ".join(f.message for f in handoff)
        # submit()'s unlocked counter write (guarded-by)
        assert "'HandOff._inflight' is guarded by _lock" in messages
        # peek()'s payload read outside the declared hand-off pair
        assert "'HandOff._value' is confined to _finish, result" in messages
        assert "thread-confinement hand-off" in messages

    def test_offload_clean_twin(self):
        # locked counter, payload touched only from _finish/result, a
        # justified ignore-comment read, and an unannotated attr: silent
        report = lint(CLEAN)
        assert not any("bb/worksteal.py" in f.path for f in report.findings)


class TestDtype:
    def test_violations_fire(self):
        found = findings_for(lint(VIOLATIONS), "dtype")
        messages = " | ".join(f.message for f in found)
        assert len(found) == 3
        assert "without an explicit dtype" in messages
        assert "int16" in messages
        # the segment row-id cache built as int64: a documented dtype, but
        # the wrong one for that named column
        assert "self._seg_krow is documented as int32" in messages

    def test_clean_twin(self):
        assert not findings_for(lint(CLEAN), "dtype")


class TestBareExcept:
    def test_violations_fire(self):
        found = findings_for(lint(VIOLATIONS), "bare-except")
        # recovery.py: bare except, silent `except Exception`, silent tuple
        assert len(found) == 3
        assert all("recovery.py" in f.path for f in found)
        messages = " | ".join(f.message for f in found)
        assert "SystemExit" in messages  # the bare-except variant
        assert "restart/retry/degrade" in messages  # the silent-broad variant

    def test_out_of_scope_layers_are_ignored(self):
        # experiments/loader.py swallows broadly but lives outside
        # service/ and bb/ — not this rule's problem
        found = findings_for(lint(VIOLATIONS), "bare-except")
        assert not any("experiments" in f.path for f in found)

    def test_clean_twin(self):
        # acting handlers, narrow handlers, and one justified suppression
        assert not findings_for(lint(CLEAN), "bare-except")


class TestOffloadContract:
    def test_violations_fire(self):
        found = findings_for(lint(VIOLATIONS), "offload-contract")
        messages = " | ".join(f.message for f in found)
        assert len(found) == 4
        assert "2-tuple" in messages
        assert "siblings" in messages
        assert "ExtraArgOffload.bound_block: bound_block must take one required" in messages
        assert "bare return" in messages

    def test_clean_twin(self):
        assert not findings_for(lint(CLEAN), "offload-contract")


# --------------------------------------------------------------------- #
#  framework mechanics
# --------------------------------------------------------------------- #
class TestFramework:
    def test_violation_fixture_exits_nonzero(self, capsys):
        assert lint_main(["--root", str(VIOLATIONS), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert report["findings"]

    def test_clean_fixture_exits_zero(self, capsys):
        assert lint_main(["--root", str(CLEAN), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["suppressed"] >= 2  # the twins' justified suppressions

    def test_json_artifact_output(self, tmp_path, capsys):
        artifact = tmp_path / "lint.json"
        lint_main(["--root", str(CLEAN), "--output", str(artifact)])
        capsys.readouterr()
        payload = json.loads(artifact.read_text())
        assert payload["ok"] is True and payload["files_checked"] > 0

    def test_baseline_grandfathers_findings(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        code = lint_main(["--root", str(VIOLATIONS), "--update-baseline", "--baseline", str(baseline)])
        capsys.readouterr()
        assert code == 0 and baseline.exists()
        # with every finding baselined, the same tree lints clean
        assert lint_main(["--root", str(VIOLATIONS), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_baseline_fingerprints_survive_line_drift(self):
        entries = Baseline(
            [{"rule": "dtype", "path": "src/repro/bb/frontier.py", "snippet": "x = np.zeros(3)"}]
        )
        report = run_lint(VIOLATIONS, all_rules(), baseline=entries)
        # the fingerprint matches on (rule, path, stripped line), not line number
        assert entries.matches(
            findings_for(lint(VIOLATIONS), "dtype")[0], "depth = np.zeros(n)  # missing dtype: finding"
        ) is False
        assert report.baselined == 0

    def test_suppression_requires_matching_rule(self, tmp_path):
        tree = tmp_path / "src" / "repro" / "experiments"
        tree.mkdir(parents=True)
        (tree / "loop.py").write_text(
            "def f(pool):\n"
            "    while pool:  # repro-lint: ignore[dtype] -- wrong rule name\n"
            "        pool.pop()\n"
        )
        report = run_lint(tmp_path, all_rules())
        assert rules_found(report) == {"single-loop"}


# --------------------------------------------------------------------- #
#  the live tree is finding-free (this is what makes the suite blocking)
# --------------------------------------------------------------------- #
class TestLiveTree:
    def test_live_tree_is_clean_modulo_baseline(self):
        baseline = Baseline.load(REPO_ROOT / "tools" / "repro_lint" / "baseline.json")
        report = run_lint(REPO_ROOT, all_rules(), baseline=baseline)
        assert report.files_checked > 50
        assert report.findings == [], "\n".join(
            f"{f.path}:{f.line}: [{f.rule}] {f.message}" for f in report.findings
        )

    def test_live_guarded_by_annotations_exist(self):
        # the race detector only has teeth while the annotations stay put
        dispatch = (REPO_ROOT / "src" / "repro" / "service" / "dispatch.py").read_text()
        assert dispatch.count("# guarded-by:") >= 4
        worksteal = (REPO_ROOT / "src" / "repro" / "bb" / "worksteal.py").read_text()
        assert worksteal.count("# guarded-by:") >= 1

    def test_cli_subcommand(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--root", str(REPO_ROOT), "--format", "json"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ok"] is True


# --------------------------------------------------------------------- #
#  mypy satellite (runs only where mypy is installed, e.g. CI lint-arch)
# --------------------------------------------------------------------- #
class TestMypySurface:
    def test_strict_surfaces_pass(self):
        pytest.importorskip("mypy")
        from mypy import api as mypy_api

        stdout, stderr, code = mypy_api.run(
            ["--config-file", str(REPO_ROOT / "pyproject.toml"), str(REPO_ROOT / "src" / "repro")]
        )
        assert code == 0, stdout + stderr
