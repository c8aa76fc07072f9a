"""Smoke tests: the experiment scripts run and report success, and exit 1
when a check fails."""

import re
import runpy
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from diagcat import axioms as ax
from diagcat import stab

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(script, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _catalog_witnesses_ok(field):
    lines = _run("defining_degree_catalog.py", "--field", field, "--dmax", "3", "--cap", "4")
    return [line for line in lines if re.search(r"defining degree \d .*witnesses ok", line)]


def test_defining_degree_catalog_script():
    assert len(_catalog_witnesses_ok("F101")) == 8


def test_defining_degree_catalog_script_over_q():
    assert len(_catalog_witnesses_ok("Q")) == 8


def test_run_axiom_check_script():
    lines = _run("run_axiom_check.py", "--max-dim", "2", "--max-len", "1")
    ok = [line for line in lines if re.search(r"27/27 .* ok$", line)]
    assert len(ok) == 3


def test_run_axiom_check_script_times_the_sweep():
    lines = _run("run_axiom_check.py", "--max-dim", "2", "--max-len", "1", "--mutations")
    assert sum(line.endswith("] ok") for line in lines) == 3 + len(ax.MUTATIONS)
    assert re.fullmatch(rf"sweep: {len(ax.MUTATIONS)} corrupted models \[\d+\.\d\ds\]", lines[-1])


def _script_main(script, monkeypatch, *args):
    """The script's `main`, run in this process with the given arguments."""
    monkeypatch.setattr(sys, "argv", [script, *args])
    return runpy.run_path(str(SCRIPTS / script), run_name="script")["main"]


def test_run_axiom_check_exits_1_on_a_failed_model(monkeypatch, capsys):
    failed = SimpleNamespace(index=3, detail="forced")
    report = SimpleNamespace(all_pass=False, passed=26, skipped=(), failed=(failed,))
    monkeypatch.setattr(ax, "check_axioms", lambda *args: report)
    main = _script_main("run_axiom_check.py", monkeypatch, "--max-dim", "1")
    assert main() == 1
    assert "FAILED" in capsys.readouterr().out


def test_run_axiom_check_exits_1_on_an_unexpected_mutation(monkeypatch, capsys):
    passing = SimpleNamespace(all_pass=True, passed=27, skipped=(), failed=())
    monkeypatch.setattr(ax, "check_axioms", lambda *args: passing)
    monkeypatch.setattr(ax, "mutated_model", lambda *args: None)
    main = _script_main("run_axiom_check.py", monkeypatch, "--mutations")
    assert main() == 1
    out = capsys.readouterr().out
    assert "FAILED" not in out and out.count("UNEXPECTED") == len(ax.MUTATIONS)


def test_defining_degree_catalog_exits_1_on_bad_witnesses(monkeypatch, capsys):
    monkeypatch.setattr(stab.DefiningDegreeResult, "witness_ok", lambda self: False)
    main = _script_main(
        "defining_degree_catalog.py", monkeypatch, "--field", "F101", "--dmax", "1", "--cap", "2"
    )
    assert main() == 1
    assert "witnesses BAD" in capsys.readouterr().out


def test_answer_digest_matches_the_recorded_one():
    """The `exact-queries` and `degree-general` answers for seeds 1-3,
    cofactors and refutation points included, are byte-identical to the
    ones recorded in `tests/data/answer_digest.txt`: the whole file, one
    line per workload."""
    recorded = (SCRIPTS.parent / "tests" / "data" / "answer_digest.txt").read_text()
    digest = runpy.run_path(str(SCRIPTS / "answer_digest.py"), run_name="script")
    assert digest["answer_digest"]() == recorded
