"""Check every pool entry of perfbench/reference.json against fresh verify runs.

    python3 scripts/check_reference.py [--workload NAME ...] [--threads N]

For each workload of ``perfbench/reference.json`` and each entry of its
pool (a master seed, or ``shipped`` for the configs' own seeds), runs
``stableheat verify`` on the workload's configs, in this process and
into a temporary directory, and compares the reports with the stored
ones through ``reports_of``, ``report_entry`` and ``mismatches`` of
``perfbench/run.py``, within its ``REL_TOL``/``ABS_TOL``.  The benchmark
itself checks one pool entry per run; this checks them all.  Prints
every mismatch, then per workload the largest absolute and relative
drift of the pinned numbers (estimates and per-path extremes) and where
it is.  Exits 1 on any mismatch or failed verdict, else 0.  Run from the
root of a source checkout; the package is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402  (perfbench/run.py)
from stableheat import cli  # noqa: E402


def numbers(entry, where=""):
    """(path, value) of every numeric leaf of a reference entry."""
    if isinstance(entry, dict):
        for key, value in entry.items():
            yield from numbers(value, f"{where}.{key}")
    elif isinstance(entry, (int, float)) and not isinstance(entry, bool):
        yield where, float(entry)


def verify(workload: run.Workload, seed: int | None, threads: int, out: Path) -> dict:
    """Deterministic output files of ``verify`` on each of the workload's configs."""
    for config in workload.configs:
        label = os.path.splitext(os.path.basename(config))[0]
        argv = ["verify", "--config", str(ROOT / config), "--out", str(out / label)]
        argv += ["--threads", str(threads)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        cli.main(argv)
    return run.deterministic_files(out)


def check(name: str, pool: dict, threads: int) -> bool:
    workload = run.WORKLOADS[name]
    problems, worst_abs, worst_rel = [], (0.0, "-"), (0.0, "-")
    for key in sorted(pool):
        seed = None if key == run.UNSEEDED else int(key)
        with tempfile.TemporaryDirectory() as tmp:
            got = run.reports_of(verify(workload, seed, threads, Path(tmp)))
        for label, reports in pool[key].items():
            for report_name, ref in reports.items():
                where = f"{name}[{key}] {label}/{report_name}"
                report = got.get((label, report_name))
                if report is None:
                    problems.append(f"{where}: report missing")
                    continue
                entry = run.report_entry(report)
                if report.get("pass") is not True:
                    problems.append(f"{where}: verdict failed")
                problems += [f"{where}{m}" for m in run.mismatches(ref, entry)]
                values = dict(numbers(entry))
                for path, want in numbers(ref):
                    if path not in values:
                        continue
                    drift = abs(values[path] - want)
                    worst_abs = max(worst_abs, (drift, where + path))
                    if want != 0.0:
                        worst_rel = max(worst_rel, (drift / abs(want), where + path))
    for line in problems:
        print(f"MISMATCH {line}")
    print(
        f"{name}: {len(pool)} pool entries, {len(problems)} mismatches; "
        f"max abs drift {worst_abs[0]:.3g} ({worst_abs[1]}), "
        f"max rel drift {worst_rel[0]:.3g} ({worst_rel[1]})"
    )
    return not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)
    with open(ROOT / "perfbench" / "reference.json", encoding="utf-8") as fh:
        pools = json.load(fh)["workloads"]
    ok = [check(name, pools[name], args.threads) for name in args.workload or sorted(pools)]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
