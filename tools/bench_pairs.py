"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/bench_pairs.py <parent-checkout> <change-checkout> \\
        --workload W --pairs N --seconds S --seed0 K

Pair i runs ``perfbench/run.py --workload W --seed K+i --seconds S
--trace 0`` once in each checkout, from that checkout's root, with both
runs of the pair on the same seed; the parent runs first in even pairs
and the change first in odd ones, so a steady drift of the machine's
speed falls on both sides alike. Each run's last stdout line is the
benchmark's JSON summary.

For every end-to-end metric that ``BENCHMARK.json`` of the change
checkout declares, it prints each side's median and quartiles, the
change/parent ratio of the medians, the pairs the change won (a tie
counts for neither side), whether the change's median is better than
the parent's by more than the parent's interquartile range, whether a
gain may be claimed (the change wins at least ceil(0.9 * pairs) pairs
and is better by more than that range), and whether the change's
median is worse than the parent's by more than the metric's bound.
That last column reads ``unresolved`` instead of ``no`` when the
parent's interquartile range is wider than the bound (relative to its
median) and not every change run beats every parent run: a spread that
wide could hide a loss the size of the bound. Then it prints the
`failed` total of each side and, as the last line, one JSON object with
every run's values and the summary rows. Exit code 1 when a run printed
no JSON summary.
"""
from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON summary of one untraced benchmark run in checkout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{checkout} seed {seed}: no JSON summary "
                         f"(exit {proc.returncode})\n{proc.stderr}")
    return {"seed": seed, "failed": summary["failed"],
            "metrics": {k: v["value"] for k, v in summary["metrics"].items()}}


def summarize(runs: dict, declared: list[dict]) -> list[dict]:
    """One row per declared end-to-end metric from the paired runs
    (``runs[side][i]`` is pair i's run of that side)."""
    rows = []
    for metric in declared:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {side: np.array([r["metrics"][name] for r in runs[side]])
                  for side in SIDES}
        q = {side: np.percentile(values[side], [25, 50, 75]) for side in SIDES}
        parent, change = q["parent"][1], q["change"][1]
        gain = sign * (values["change"] - values["parent"])
        wins = int((gain > 0).sum())
        spread = q["parent"][2] - q["parent"][0]
        better = bool(sign * (change - parent) > spread)
        beats_all = (sign * values["change"]).min() > (sign * values["parent"]).max()
        rows.append({
            "metric": name, "unit": metric["unit"], "better": metric["better"],
            "parent": q["parent"].tolist(), "change": q["change"].tolist(),
            "ratio": change / parent if parent else float("nan"),
            "wins": wins, "pairs": len(gain),
            "better_beyond_iqr": better,
            "claim_holds": better and wins >= math.ceil(0.9 * len(gain)),
            "worse_than_bound": bool(sign * (change - parent)
                                     < -metric["bound"] * abs(parent)),
            "unresolved": bool(spread > metric["bound"] * abs(parent)
                               and not beats_all),
        })
    return rows


def table(rows: list[dict]) -> list[str]:
    def quartiles(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    out = ["| metric | parent median [q1, q3] | change median [q1, q3] | "
           "change/parent | change wins | better beyond parent IQR | "
           "claim holds | worse than bound |",
           "|---|---|---|---|---|---|---|---|"]
    for r in rows:
        worse = ("YES" if r["worse_than_bound"] else
                 "unresolved" if r["unresolved"] else "no")
        out.append(f"| `{r['metric']}` ({r['unit']}, {r['better']} is better) | "
                   f"{quartiles(r['parent'])} | {quartiles(r['change'])} | "
                   f"{r['ratio']:.3f} | {r['wins']}/{r['pairs']} | "
                   f"{'yes' if r['better_beyond_iqr'] else 'no'} | "
                   f"{'yes' if r['claim_holds'] else 'no'} | "
                   f"{worse} |")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed0", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {path} has no perfbench/run.py")
    declared = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        seed = args.seed0 + i
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            run = run_once(checkouts[side], args.workload, seed, args.seconds)
            runs[side].append(run)
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: "
                  + json.dumps(run["metrics"]), file=sys.stderr)

    print(f"{args.workload}: {args.pairs} alternating pairs of {args.seconds:g} s "
          f"runs, seeds {args.seed0}-{args.seed0 + args.pairs - 1}")
    rows = summarize(runs, declared)
    print("\n".join(table(rows)))
    for side in SIDES:
        print(f"{side} failed: {sum(r['failed'] for r in runs[side])} "
              f"over {args.pairs} runs")
    print(json.dumps({"workload": args.workload, "seconds": args.seconds,
                      "runs": runs, "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
