#!/usr/bin/env python3
"""Repeat the benchmark and summarise it: run-to-run spread, or a parent-vs-
change A/B.

    # Ten seeds of one workload in this checkout: per-metric unit, median,
    # quartiles and spread, checked against the bounds in BENCHMARK.json.
    python3 perfbench/compare.py spread --workload fleet_stream --runs 10

    # Every workload once: each end-to-end metric with its unit.
    python3 perfbench/compare.py spread --runs 1 --workload single_overload \\
        --workload fleet_stream --workload trace_report

    # Interleaved A/B of two checkouts (each with its own .bench_build/):
    # pair i runs seed first_seed+i on both sides, alternating which side
    # goes first, and prints a verdict per end-to-end metric.
    python3 perfbench/compare.py ab --parent ../parent --change . \\
        --workload single_overload --pairs 10

Each run is `python3 perfbench/run.py ...` in the checkout's root, for
BENCHMARK.json's run_seconds unless --seconds says otherwise.  --out FILE
keeps every result line as JSON lines.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

import benchstats

HERE = Path(__file__).resolve().parent


def load_spec(checkout):
    return json.loads((Path(checkout) / "BENCHMARK.json").read_text())


def run_once(checkout, workload, seed, seconds, trace):
    """One benchmark run in `checkout`; returns its parsed result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.rstrip("\n").splitlines()[-1])


def record(out, **fields):
    if out is not None:
        out.write(json.dumps(fields) + "\n")
        out.flush()


def cmd_spread(args):
    spec = load_spec(args.checkout)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workload:
        values = {}
        units = {}
        failed = 0
        attempted = 0
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(args.checkout, workload, seed, seconds, args.trace)
            record(args.out, workload=workload, seed=seed, result=result)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"{workload}: {args.runs} runs of {seconds:g} s, error_rate "
              f"{failed}/{attempted}")
        for name, vals in values.items():
            q1, med, q3 = benchstats.quartiles(vals)
            share = benchstats.spread(vals)
            bound = bounds.get(name) if not args.trace else None
            note = ""
            if bound:
                note = f"  bound {bound:g}: {'OK' if share < bound / 3 else 'WIDE'}"
                if name != "setup_s":
                    worst = max(worst, share / bound)
            print(f"  {name:26s} {units[name]:6s} median {med:<12.6g} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {share:.4f}{note}")
    return 0 if worst < 1.0 else 1


def cmd_ab(args):
    spec = load_spec(args.change)
    seconds = args.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    values = {side: {} for side in sides}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            result = run_once(sides[side], args.workload, seed, seconds, 0)
            record(args.out, side=side, workload=args.workload, seed=seed,
                   result=result)
            if result["failed"]:
                print(f"{side} seed {seed}: {result['failed']} failed run(s)")
            for name, metric in result["metrics"].items():
                values[side].setdefault(name, []).append(metric["value"])
    print(f"{args.workload}: {args.pairs} interleaved pairs, {seconds:g} s each")
    for name, metric in metrics.items():
        parent, change = values["parent"][name], values["change"][name]
        p_q1, p_med, p_q3 = benchstats.quartiles(parent)
        c_q1, c_med, c_q3 = benchstats.quartiles(change)
        verdict = benchstats.ab_verdict(parent, change, metric["better"],
                                        metric["bound"])
        print(f"  {name:18s} parent {p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]  "
              f"change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}] {metric['unit']}  "
              f"{verdict}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    spread = sub.add_parser("spread", help="run-to-run spread in one checkout")
    spread.add_argument("--checkout", default=str(HERE.parent))
    spread.add_argument("--workload", action="append", required=True)
    spread.add_argument("--runs", type=int, default=10)
    spread.add_argument("--trace", type=int, choices=(0, 1), default=0)
    spread.set_defaults(func=cmd_spread)

    ab = sub.add_parser("ab", help="interleaved parent-vs-change pairs")
    ab.add_argument("--parent", required=True)
    ab.add_argument("--change", default=str(HERE.parent))
    ab.add_argument("--workload", required=True)
    ab.add_argument("--pairs", type=int, default=10)
    ab.set_defaults(func=cmd_ab)

    for p in (spread, ab):
        p.add_argument("--first-seed", type=int, default=1)
        p.add_argument("--seconds", type=float, default=None)
        p.add_argument("--out", type=argparse.FileType("w"), default=None)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
