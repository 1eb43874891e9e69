"""Regenerate perfbench/reference.json from the current checkout.

    python3 perfbench/make_reference.py

Runs one untraced repetition of every workload for each master seed of
its pool (20250810 ... 20250825; the configs' own seeds for a workload
that is not reseeded) and stores the fields of each report that
``run.py`` pins: verdict, path count, estimates, per-path extremes.
Stops without writing if any verdict fails.  Regenerate only on a commit
whose reports are trusted: the reference is what later commits are
checked against.
"""

import json
import sys

import run

POOL = tuple(20_250_810 + i for i in range(16))


def main() -> int:
    workloads = {}
    for name, workload in run.WORKLOADS.items():
        pool = workloads[name] = {}
        for seed in POOL if workload.seeded else (None,):
            out = run.OUT / "reference"
            rep = run.run_rep(workload, seed, workload.threads, False, out)
            if "error" in rep:
                print(f"{name} seed {seed}: {rep['error']}", file=sys.stderr)
                return 1
            entry = {}
            reports = sorted(run.reports_of(rep["files"]).items())
            for (label, report_name), report in reports:
                if report["pass"] is not True:
                    where = f"{name} seed {seed}: {label}/{report_name}"
                    print(f"{where} failed", file=sys.stderr)
                    return 1
                entry.setdefault(label, {})[report_name] = run.report_entry(report)
            pool[run.UNSEEDED if seed is None else str(seed)] = entry
            print(f"{name} seed {seed}: {rep['wall_s']:.2f} s", flush=True)
    with open(run.BENCH / "reference.json", "w", encoding="utf-8") as fh:
        json.dump({"workloads": workloads}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
