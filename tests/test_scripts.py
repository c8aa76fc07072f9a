"""Smoke tests: the experiment scripts run and report success."""

import re
import subprocess
import sys
from pathlib import Path

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
