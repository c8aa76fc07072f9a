"""The benchmark still runs on the library: its per-layer tracer finds every
function it wraps, and its jobs give the answers their oracles expect."""

import random
import sys
from pathlib import Path

from diagcat import axioms, laurent
from diagcat.field import QQ

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _snapshot():
    """Every value a tracer may replace: diagcat module names, the traced
    class attributes and the axiom check list."""
    modules = {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name == "diagcat" or name.startswith("diagcat.")
    }
    return modules, list(axioms.AXIOM_CHECKS)


def test_tracer_install_and_uninstall_restore_originals():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing

        before = _snapshot()
        original = laurent.ideal_membership
        classes = {
            (owner, attr): vars(owner)[attr]
            for owner, attr, *_ in tracing.SPANNED + tracing.COUNTED
            if isinstance(owner, type)
        }
        tracer = tracing.Tracer()
        try:
            tracer.install()
            assert laurent.ideal_membership is not original
            f = laurent.z_var(QQ, 1, 0, 0)
            ideal = laurent.LaurentIdeal(QQ, 1, (f,))
            assert laurent.ideal_membership(f, ideal, 0).is_member
            assert tracer.totals()["laurent.ideal_membership.calls"] == 1
        finally:
            tracer.uninstall()
        assert _snapshot() == before
        assert {key: vars(key[0])[key[1]] for key in classes} == classes
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.modules.pop("tracing", None)


def test_benchmark_jobs_pass_their_oracles():
    """Every `exact-queries` and `degree-general` job at seed 1, run once and
    checked by the job's own oracle, as `perfbench/run.py` checks it."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import jobs

        for workload, decided, total in (
            ("exact-queries", 106, 108),
            ("degree-general", 10, 10),
        ):
            checks = [
                (job.id, *job.check(job.run()))
                for job in jobs.WORKLOADS[workload](random.Random(1))
            ]
            assert [c for c in checks if not c[1]] == [], workload
            assert (sum(c[2] for c in checks), len(checks)) == (decided, total)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.modules.pop("jobs", None)
