#!/usr/bin/env python3
"""Compares two sets of hqr_bench runs metric by metric (stdlib only).

    python3 hqr_bench/compare.py --base parent/*.out --change change/*.out
    python3 hqr_bench/compare.py --spread runs/*.out

Each file is the captured standard output of one `hqr_bench/run.py` run: its
`# <workload> seed=<n> ...` header names the workload and seed, its last
line is the result JSON. Runs pair up by (workload, seed).

For every workload x end-to-end metric of BENCHMARK.json it prints each
side's median and quartiles, the pairs the change wins, and a verdict:

  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's own spread (quartile distance over median)
              exceeds the bound, and not every change run beats every parent
              run
  better      at least 10 pairs, the change wins >= 9/10 of them (ties count
              for neither), and the medians differ by more than the parent's
              quartile distance
  same        otherwise

and exits 1 when any verdict is `worse`. --spread reports one set's spread
per metric against its bound instead (flagging spreads above a third of it).
"""
import argparse
import json
import os
import re
import statistics
import sys

HEADER = re.compile(r"^# (\S+) seed=(\d+) traced=(\d)")


def load_runs(paths):
    """{(workload, seed): metrics} from run.py outputs (untraced only)."""
    runs = {}
    for path in paths:
        with open(path) as f:
            lines = [l.rstrip("\n") for l in f if l.strip()]
        head = next((HEADER.match(l) for l in lines if HEADER.match(l)), None)
        if head is None or not lines:
            sys.exit(f"{path}: no '# <workload> seed=' header")
        if head.group(3) == "1":
            print(f"warning: {path}: traced run skipped", file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        if not result.get("correct", False) or result.get("failed", 1) != 0:
            print(f"warning: {path}: run not correct or has failed ops",
                  file=sys.stderr)
        runs[(head.group(1), int(head.group(2)))] = {
            k: v["value"] for k, v in result["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(base, change, better):
    """Relative change, positive when the change is worse."""
    if base == 0:
        return 0.0
    rel = (change - base) / abs(base)
    return rel if better == "lower" else -rel


def verdict(base, change, pairs, metric):
    b1, bm, b3 = quartiles(base)
    _, cm, _ = quartiles(change)
    spread = (b3 - b1) / abs(bm) if bm else 0.0
    lower = metric["better"] == "lower"
    beats = (lambda c, b: c < b) if lower else (lambda c, b: c > b)
    wins = sum(1 for b, c in pairs if beats(c, b))
    all_better = all(beats(c, b) for c in change for b in base)
    if worse_by(bm, cm, metric["better"]) > metric["bound"]:
        return "worse", wins, spread
    if spread > metric["bound"] and not all_better:
        return "unresolved", wins, spread
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and beats(cm, bm)
            and abs(cm - bm) > b3 - b1):
        return "better", wins, spread
    return "same", wins, spread


def fmt(x):
    return f"{x:.4g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    ap.add_argument("--base", nargs="+")
    ap.add_argument("--change", nargs="+")
    ap.add_argument("--spread", nargs="+")
    args = ap.parse_args()
    with open(args.spec) as f:
        metrics = json.load(f)["end_to_end"]

    if args.spread:
        runs = load_runs(args.spread)
        bad = False
        for w in sorted({w for w, _ in runs}):
            print(f"== {w} ({sum(1 for x, _ in runs if x == w)} runs)")
            for m in metrics:
                vals = [r[m["name"]] for (x, _), r in runs.items() if x == w]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / abs(med) if med else 0.0
                flag = ("over bound" if spread > m["bound"]
                        else "over bound/3" if spread > m["bound"] / 3 else "ok")
                bad |= spread > m["bound"] and m["name"] != "setup_s"
                print(f"  {m['name']:16} median {fmt(med):>10}  [{fmt(q1)}, {fmt(q3)}]"
                      f"  spread {spread:7.2%}  bound {m['bound']:.0%}  {flag}")
        return 1 if bad else 0

    if not (args.base and args.change):
        ap.error("give --base and --change, or --spread")
    base, change = load_runs(args.base), load_runs(args.change)
    any_worse = False
    for w in sorted({w for w, _ in base} | {w for w, _ in change}):
        seeds = sorted(s for x, s in base if x == w and (x, s) in change)
        print(f"== {w} ({len(seeds)} pairs)")
        for m in metrics:
            n = m["name"]
            bv = [r[n] for (x, _), r in base.items() if x == w]
            cv = [r[n] for (x, _), r in change.items() if x == w]
            if not bv or not cv:
                print(f"  {n:16} missing on one side")
                continue
            pairs = [(base[(w, s)][n], change[(w, s)][n]) for s in seeds]
            v, wins, spread = verdict(bv, cv, pairs, m)
            any_worse |= v == "worse"
            b1, bm, b3 = quartiles(bv)
            c1, cm, c3 = quartiles(cv)
            print(f"  {n:16} base {fmt(bm)} [{fmt(b1)}, {fmt(b3)}]"
                  f"  change {fmt(cm)} [{fmt(c1)}, {fmt(c3)}]"
                  f"  {worse_by(bm, cm, m['better']):+.2%} worse"
                  f"  wins {wins}/{len(pairs)}  spread {spread:.2%}"
                  f"  bound {m['bound']:.0%}  {v}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
