#!/usr/bin/env python3
"""Benchmark of diagcat's exact verdicts: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact-queries --seed 1 --seconds 30 --trace 0

Runs the workload's jobs one after another in this process (a closed loop
with one client) in interleaved rounds, each round in a fresh seeded order,
until the time is used. Every job is timed in every round; a job's time is
the median over its rounds, and the workload metrics are built from those
per-job medians. Each timing is scaled by a reference computation timed
between jobs (`reference.py`), so a slow period of the shared machine does
not read as a slow program. Set-up time is the median of several fresh
processes, taken between jobs across the run. Every answer is checked against its oracle
after the rounds (untimed). The last line of output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 1` rounds
alternate untraced and traced, and the metrics are the per-layer ones.
Exits 1 when an answer is wrong or a job raised.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402

SETUP_SAMPLES = 7
REFERENCE_INTERVAL_S = 0.5  # at most one reference sample per this much time
MIN_ROUNDS = 3
RAW_CAP = 1.3
OUT_DIR = HERE / "out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="import and build the seeded inputs, then exit (one set-up sample)",
    )
    return parser.parse_args(argv)


def build_jobs(workload: str, seed: int):
    from jobs import WORKLOADS

    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[workload](random.Random(seed))


def setup_sample(workload: str, seed: int) -> float:
    """Seconds for a fresh interpreter to import diagcat and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    # no timeout: Popen.wait with a timeout polls in steps of up to 50 ms
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Run:
    """One run: raw timings per mode and job, the first answer of each job,
    set-up and reference samples, and the failures seen."""

    def __init__(self, args, jobs):
        self.args = args
        self.jobs = jobs
        self.times = {mode: [[] for _ in jobs] for mode in ("plain", "traced")}
        self.first: list = [None] * len(jobs)
        self.digests: list = [None] * len(jobs)
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.setups: list[float] = []
        self.references: list[float] = []
        self.last_reference = float("-inf")
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def between_jobs(self):
        """Untimed housekeeping: a collected heap, then a reference sample
        when one is due and a set-up sample when one is due."""
        gc.collect()
        now = time.perf_counter()
        if now - self.last_reference >= REFERENCE_INTERVAL_S:
            self.references.append(reference.sample())
            self.last_reference = now
        due = self.args.seconds * len(self.setups) / SETUP_SAMPLES
        if len(self.setups) < SETUP_SAMPLES and self.elapsed() >= due:
            self.setups.append(setup_sample(self.args.workload, self.args.seed))

    def round(self, number: int, mode: str, tracer=None):
        order = list(range(len(self.jobs)))
        random.Random(self.args.seed * 7919 + number).shuffle(order)
        for j in order:
            self.between_jobs()
            job = self.jobs[j]
            self.attempted += 1
            if tracer is not None:
                tracer.job = j
            try:
                t0 = time.perf_counter()
                answer = job.run()
                dt = time.perf_counter() - t0
            except Exception:
                self.failed += 1
                self.errors.append(f"{job.id}: raised\n{traceback.format_exc()}")
                continue
            self.times[mode][j].append(dt)
            digest = job.digest(answer)
            if self.first[j] is None:
                self.first[j], self.digests[j] = answer, digest
            elif digest != self.digests[j]:
                self.failed += 1
                self.errors.append(f"{job.id}: answer changed between rounds")

    def check(self) -> int:
        decided = 0
        for j, job in enumerate(self.jobs):
            if self.first[j] is None:
                continue
            try:
                ok, is_decided, detail = job.check(self.first[j])
            except Exception:
                ok, is_decided, detail = False, False, traceback.format_exc()
            if not ok:
                self.failed += 1
                self.errors.append(f"{job.id}: wrong answer: {detail}")
            decided += is_decided
        return decided

    def scale(self) -> float:
        """Factor to seconds at the reference's nominal machine speed; one
        factor per run, from all its reference samples (a window of nearby
        samples tracked a job's own slowdown worse than the run median)."""
        return reference.factor(self.references)

    def per_job(self, mode: str, scaled: bool = True) -> list[float]:
        scale = self.scale() if scaled else 1.0
        return [statistics.median(ts) * scale for ts in self.times[mode] if ts]


def _another_round(run: Run, durations: list[float], number: int, untraced: bool) -> bool:
    scale = run.scale()
    next_round = statistics.median(durations)
    if untraced and number < MIN_ROUNDS and MIN_ROUNDS * next_round * scale <= run.args.seconds:
        return True
    end = run.elapsed() + 0.5 * next_round
    return end * scale < run.args.seconds and end < RAW_CAP * run.args.seconds


def run_rounds(run: Run, tracer) -> None:
    """Interleaved rounds until the time is used.

    Time here is reference-scaled, so a slow period of the machine makes a
    run longer rather than changing its number of rounds: a median of two
    timings and a median of three weigh a slow outlier differently. An
    untraced run takes at least MIN_ROUNDS rounds when they fit in
    `--seconds`; beyond that, another round starts while the run is
    expected to end within half a round of `--seconds`, and within
    RAW_CAP times `--seconds` of wall time."""
    modes = ["plain", "traced"] if tracer is not None else ["plain"]
    durations: dict[str, list[float]] = {mode: [] for mode in modes}
    number = 0
    while True:
        mode = modes[number % len(modes)]
        if number >= len(modes) and not _another_round(run, durations[mode], number, tracer is None):
            break
        t0 = time.perf_counter()
        if mode == "traced":
            tracer.install()
            try:
                run.round(number, mode, tracer)
            finally:
                tracer.uninstall()
        else:
            run.round(number, mode)
        durations[mode].append(time.perf_counter() - t0)
        number += 1
    while len(run.setups) < SETUP_SAMPLES:
        run.setups.append(setup_sample(run.args.workload, run.args.seed))
    gc.collect()
    run.references.append(reference.sample())


def end_to_end(run: Run, decided: int, rss_kb: int) -> dict:
    per_job = run.per_job("plain")
    return {
        "pass_s": (sum(per_job), "s"),
        "verdict_p50_s": (statistics.median(per_job), "s"),
        "decided_ratio": (decided / len(run.jobs), "ratio"),
        "setup_s": (statistics.median(run.setups) * run.scale(), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(run: Run, tracer) -> dict:
    from tracing import metric_names

    traced_rounds = min(len(ts) for ts in run.times["traced"])
    totals = tracer.totals()
    # self times get the run's reference scaling, like pass_s
    scale = run.scale()
    out = {}
    for name in metric_names():
        if name.endswith("_s"):
            out[name] = (totals.get(name, 0) * scale / traced_rounds, "s")
        else:
            out[name] = (totals.get(name, 0) / traced_rounds, "count")
    out["trace_overhead_ratio"] = (
        sum(run.per_job("traced")) / sum(run.per_job("plain")), "ratio"
    )
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "diagcat").is_dir():
        # measure the checkout's own sources, never an installed copy
        print(f"no diagcat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    jobs = build_jobs(args.workload, args.seed)
    if args.setup_only:
        return 0
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    run = Run(args, jobs)
    run_rounds(run, tracer)
    # peak RSS of the timed calls, before the oracles run
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    decided = run.check()
    metrics = per_layer(run, tracer) if tracer is not None else end_to_end(run, decided, rss_kb)
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}.jsonl", [j.id for j in jobs])
    for err in run.errors:
        print(err, file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"{args.workload} seed {args.seed}: jobs={len(jobs)} "
          f"rounds={len(run.times['plain'][0])} decided={decided} "
          f"raw_pass_s={sum(run.per_job('plain', False)):.4f} "
          f"raw_setup_s={statistics.median(run.setups):.4f} "
          f"reference_s={statistics.median(run.references):.5f} "
          f"references={len(run.references)}")
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
