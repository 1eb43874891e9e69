"""Alternating before/after runs of perfbench, summarized into a BENCH file.

    python3 scripts/bench_pairs.py --before <parent checkout> --after <checkout> \
        --pairs 10 --seed 11 --out BENCH_2.json [--claim verify-desk:wall_s ...]

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout on
every workload, with the same seed (``--seed`` plus the pair index); even
pairs run the before side first, odd pairs the after side.  Each side's
end-to-end metrics are summarized by their median and quartiles, and each
pair is a win, a loss or a tie for the after side in the metric's better
direction.  Every end-to-end metric is ``within_bound`` when the after
median is worse than the before median by at most the metric's relative
``bound`` in ``BENCHMARK.json``.  A claim, made only with ``--claim``,
holds when the after side wins at least nine tenths of the pairs and the
medians differ by more than the before side's interquartile range.  One
traced run (``--trace 1``) per side and traced workload adds the
per-layer metrics named by ``--traced``.  The arguments are checked before
the first run: a ``--claim`` or ``--traced`` item that is not
``<workload>:<metric>``, with the workload among ``--workloads`` and the
metric in ``BENCHMARK.json`` (an end-to-end one for a claim), an unknown
workload, or fewer than two pairs exits 2.  A run that crashes before
its JSON line counts as incorrect, and each metric is summarized over
the runs that measured it, so one failed run cannot lose the others.
The line count of each checkout's ``src/`` (its ``.py`` files, as
``wc -l`` counts them) is recorded next to the seconds, and so are the
commit each checkout is at and whether its files differ from it
(``dirty``; both null outside a git checkout).
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
    try:
        result = json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):  # crashed before its JSON line: no metrics
        result = {"correct": False, "metrics": {}}
    print(f"{checkout.name} {workload} seed {seed} trace {trace}: correct={result['correct']}",
          file=sys.stderr, flush=True)
    return result


def src_lines(checkout: Path) -> int:
    """Newlines in the ``.py`` files under the checkout's ``src/``."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src").rglob("*.py"))


def revision(checkout: Path) -> dict:
    """The commit the checkout is at and whether its files differ from it:
    a changed tracked file or an untracked one that is not ignored."""
    def git(*args):
        out = subprocess.run(["git", "-C", str(checkout), *args],
                             capture_output=True, text=True, check=False)
        return out.stdout if out.returncode == 0 else None

    commit, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    if commit is None or status is None:
        return {"commit": None, "dirty": None}
    return {"commit": commit.strip(), "dirty": bool(status)}


def value(result: dict, name: str):
    """A run's value of one metric, or None if the run did not measure it."""
    return result["metrics"].get(name, {}).get("value")


def summary(values: list) -> dict:
    """Median and quartiles of the runs that measured the metric."""
    values = [v for v in values if v is not None]
    if len(values) < 2:
        q1 = median = q3 = values[0] if values else None
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(before: list, after: list, better: str, bound: float) -> dict:
    """Pairs in which either run lacks the metric are neither won nor lost;
    they still count among the pairs a claim must win."""
    sign = 1.0 if better == "higher" else -1.0
    both = [(b, a) for b, a in zip(before, after) if b is not None and a is not None]
    wins = sum(sign * (a - b) > 0 for b, a in both)
    losses = sum(sign * (a - b) < 0 for b, a in both)
    b, a = summary(before), summary(after)
    measured = b["median"] is not None and a["median"] is not None
    return {
        "before": b,
        "after": a,
        "better": better,
        "bound": bound,
        "wins": wins,
        "losses": losses,
        "pairs": len(before),
        "within_bound": measured
        and sign * (a["median"] - b["median"]) >= -bound * abs(b["median"]),
        "gain_holds": measured and wins >= 0.9 * len(before)
        and sign * (a["median"] - b["median"]) > b["q3"] - b["q1"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--after", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--traced", nargs="*", default=["verify-desk:kernel.eval_calls",
                                                        "verify-desk:kernel.eval_s"])
    parser.add_argument("--claim", nargs="*", default=[])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: quartiles need two runs per side")

    bench = json.loads((args.after / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    def split(item: str, metrics) -> tuple:
        workload, _, name = item.partition(":")
        if workload not in args.workloads or name not in metrics:
            parser.error(f"{item!r} is not <workload>:<metric> with a workload among "
                         f"--workloads and a metric among {sorted(metrics)}")
        return workload, name

    # Checked before the first run: a bad item would otherwise fail after all of them.
    for item in args.claim:
        split(item, bound)
    traced = {}
    for workload, name in (split(item, better) for item in args.traced):
        traced.setdefault(workload, []).append(name)
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
        "src_lines": {side: src_lines(checkout) for side, checkout in sides.items()},
        "revisions": {side: revision(checkout) for side, checkout in sides.items()},
        "workloads": {},
    }
    for workload, by_side in runs.items():
        correct = all(r["correct"] for side in by_side.values() for r in side)
        names = dict.fromkeys(n for side in by_side.values() for r in side for n in r["metrics"])
        metrics = {
            name: compare(*([value(r, name) for r in by_side[s]]
                            for s in ("before", "after")), better[name], bound[name])
            for name in names
        }
        report["workloads"][workload] = {"all_correct": correct, "end_to_end": metrics}

    for workload, names in traced.items():
        results = {
            side: run(checkout, workload, args.seed, args.seconds, 1)
            for side, checkout in sides.items()
        }
        report["workloads"].setdefault(workload, {})["traced"] = {
            name: {side: value(results[side], name) for side in sides} for name in names
        }

    report["claims"] = {}
    for item in args.claim:
        workload, name = item.split(":")
        measured = report["workloads"][workload]["end_to_end"].get(name)
        report["claims"][item] = bool(measured and measured["gain_holds"])
    report["within_bounds"] = {
        f"{workload}:{name}": metric["within_bound"]
        for workload, entry in report["workloads"].items()
        for name, metric in entry.get("end_to_end", {}).items()
    }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"claims": report["claims"], "within_bounds": report["within_bounds"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
