#!/usr/bin/env python3
"""Steadiness self-check for the benchmark.

Run a set of seeds on each workload and print every end-to-end metric by
name with its unit, its median, quartiles and spread (quartile distance as a
share of the median) against the bound in BENCHMARK.json:

    python3 perfbench/steady.py run --seeds 1-10 --out perfbench/out/set-a.json

Compare two saved sets: for each workload and metric, do the two medians
agree, that is, differ in either direction by at most the metric's bound as
a share of the first median?

    python3 perfbench/steady.py compare perfbench/out/set-a.json perfbench/out/set-b.json

Summarise where a traced run's time went (self seconds by span and parent):

    python3 perfbench/steady.py spans perfbench/out/spans-degree-general.jsonl

Exits 1 when a run is incorrect, a spread exceeds its bound (`run`), or two
sets disagree (`compare`).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values) -> tuple[float, float, float, float]:
    """median, first quartile, third quartile, (q3 - q1) / median"""
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def cmd_run(args) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = str(spec["run_seconds"])
    results: dict[str, list] = defaultdict(list)
    bad = False
    # seed-major order, so slow periods of the machine spread over workloads
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", seconds, "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                bad = True
                continue
            res = json.loads(lines[-1])
            res.update(seed=seed, wall_s=wall, info=lines[-2] if len(lines) > 1 else "")
            results[w].append(res)
            print(f"{w} seed {seed}: correct={res['correct']} wall {wall:.1f}s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                  + f"\n    {res['info']}",
                  flush=True)
            bad |= not res["correct"]
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(results, indent=1))
    print()
    for w, runs in results.items():
        print(f"{w}: {len(runs)} runs, wall max {max(r['wall_s'] for r in runs):.1f}s")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            if len(values) < 2:
                continue
            med, q1, q3, rel = spread(values)
            if rel <= m["bound"] / 3:
                verdict = "steady"
            elif rel <= m["bound"]:
                verdict = "within bound"
            else:
                verdict, bad = "TOO NOISY", True
            print(f"  {m['name']:15s} {med:10.4f} {m['unit']:6s} q1 {q1:.4f} q3 {q3:.4f} "
                  f"spread {rel:6.2%} bound {m['bound']:.1%}  {verdict}")
    return 1 if bad else 0


def cmd_compare(args) -> int:
    spec = load_spec()
    a = json.loads(Path(args.first).read_text())
    b = json.loads(Path(args.second).read_text())
    bad = False
    for w in a:
        if w not in b:
            continue
        print(w)
        for m in spec["end_to_end"]:
            name = m["name"]
            ma = statistics.median(r["metrics"][name]["value"] for r in a[w])
            mb = statistics.median(r["metrics"][name]["value"] for r in b[w])
            moved = (mb - ma) / ma
            ok = abs(moved) <= m["bound"]
            bad |= not ok
            print(f"  {name:15s} {ma:10.4f} -> {mb:10.4f} {m['unit']:6s} "
                  f"moved {moved:+7.2%} (bound {m['bound']:.1%}) {'agree' if ok else 'DISAGREE'}")
    return 1 if bad else 0


SPANS_TOP = 20


def cmd_spans(args) -> int:
    """Self seconds of each span name under each parent span name."""
    spans = []
    with open(args.file) as fh:
        for line in fh:
            spans.append(json.loads(line))
    child = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            child[parent] += end - start
    by_pair: dict[tuple, float] = defaultdict(float)
    for (name, start, end, parent, job), inner in zip(spans, child):
        parent_name = spans[parent][0] if parent >= 0 else "-"
        by_pair[(name, parent_name)] += end - start - inner
    total = sum(by_pair.values())
    print(f"{'self_s':>9s} {'share':>7s}  span <- parent  (total {total:.3f}s)")
    for (name, parent_name), s in sorted(by_pair.items(), key=lambda kv: -kv[1])[:SPANS_TOP]:
        print(f"{s:9.3f} {s / total:7.2%}  {name} <- {parent_name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run", help="run seeds and print spreads")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", default="")
    p.set_defaults(fn=cmd_run)
    p = sub.add_parser("compare", help="compare the medians of two saved sets")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=cmd_compare)
    p = sub.add_parser("spans", help="self time by span and parent in a traced run")
    p.add_argument("file")
    p.set_defaults(fn=cmd_spans)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
