"""Alternating before/after runs of perfbench, summarized into a BENCH file.

    python3 scripts/bench_pairs.py --before <parent checkout> --after <checkout> \
        --pairs 10 --seed 11 --out BENCH_1.json [--claim verify-desk:wall_s]

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout on
every workload, with the same seed (``--seed`` plus the pair index); even
pairs run the before side first, odd pairs the after side.  Each side's
end-to-end metrics are summarized by their median and quartiles, and each
pair is a win, a loss or a tie for the after side in the metric's better
direction.  A claim holds when the after side wins at least nine tenths of
the pairs and the medians differ by more than the before side's
interquartile range.  One traced run (``--trace 1``) per side and traced
workload adds the per-layer metrics named by ``--traced``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("comparison-256", "verify-desk", "nonneg-128-t2")


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    print(f"{checkout.name} {workload} seed {seed} trace {trace}: correct={result['correct']}",
          file=sys.stderr, flush=True)
    return result


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(before: list, after: list, better: str) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (a - b) > 0 for b, a in zip(before, after))
    losses = sum(sign * (a - b) < 0 for b, a in zip(before, after))
    b, a = summary(before), summary(after)
    return {
        "before": b,
        "after": a,
        "better": better,
        "wins": wins,
        "losses": losses,
        "pairs": len(before),
        "gain_holds": wins >= 0.9 * len(before)
        and sign * (a["median"] - b["median"]) > b["q3"] - b["q1"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--after", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--traced", nargs="*", default=["verify-desk:kernel.eval_calls",
                                                        "verify-desk:kernel.eval_s"])
    parser.add_argument("--claim", nargs="*", default=["verify-desk:wall_s"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((args.after / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    sides = {"before": args.before.resolve(), "after": args.after.resolve()}
    runs = {w: {"before": [], "after": []} for w in args.workloads}
    for i in range(args.pairs):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        for workload in args.workloads:
            for side in order:
                runs[workload][side].append(
                    run(sides[side], workload, args.seed + i, args.seconds, 0)
                )

    report = {
        "command": "perfbench/run.py --trace 0",
        "seconds": args.seconds,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "workloads": {},
    }
    for workload, by_side in runs.items():
        correct = all(r["correct"] for side in by_side.values() for r in side)
        metrics = {
            name: compare(*([r["metrics"][name]["value"] for r in by_side[s]]
                            for s in ("before", "after")), better[name])
            for name in by_side["after"][0]["metrics"]
        }
        report["workloads"][workload] = {"all_correct": correct, "end_to_end": metrics}

    traced = {}
    for item in args.traced:
        workload, name = item.split(":")
        traced.setdefault(workload, []).append(name)
    for workload, names in traced.items():
        metrics = {
            side: run(checkout, workload, args.seed, args.seconds, 1)["metrics"]
            for side, checkout in sides.items()
        }
        report["workloads"].setdefault(workload, {})["traced"] = {
            name: {side: metrics[side][name]["value"] for side in sides} for name in names
        }

    report["claims"] = {}
    for item in args.claim:
        workload, name = item.split(":")
        report["claims"][item] = report["workloads"][workload]["end_to_end"][name]["gain_holds"]
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report["claims"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
