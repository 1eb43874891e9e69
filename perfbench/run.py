"""stableheat benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload comparison-256 --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there, nothing is installed.  Each repetition is a fresh
interpreter (``perfbench/rep.py``) that runs ``stableheat verify`` on the
workload's configs, because users pay import and lag-matrix set-up on
every invocation.  Repetitions run while the next one fits in
``--seconds`` (at least three of them), and all repetitions of one run
use the same inputs.  With more than one path worker, OpenBLAS is capped
so that workers times BLAS threads do not exceed the cores (``rep_env``);
oversubscribed, the timings measured the scheduler more than the program.

``--seed`` picks the master seed of the run from the workload's pool in
``reference.json``, which stores the reports of every pool seed;
``verify-desk`` runs the shipped configs with their own seeds.  Every
verdict must pass, every report estimate must match the stored one
within ``REL_TOL``/``ABS_TOL``, and the deterministic report files must
be byte-identical across the repetitions of a run, whatever their worker
count.  Any failure is counted, makes ``correct`` false and the exit
code 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes the
same untraced repetitions, then one untraced repetition at the other
worker count (scaling and byte-identity probe), one at two workers with
default BLAS threading (oversubscription probe) and one traced repetition
at each worker count, and prints the per-layer metrics of the traced
repetition at the workload's worker count.  The metric names and units
are those declared in ``BENCHMARK.json``.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".perfbench_out"
PACKAGE = ROOT / "src" / "stableheat"

# Report estimates must match the stored reference within this.  A
# rewrite that only reorders floating-point sums drifts by about 1e-13;
# a change of verdict, of quadrature or of a seed moves far more.
REL_TOL = 1e-9
ABS_TOL = 1e-10

MIN_REPS = 3
REP_TIMEOUT_S = 150.0
NPROC = len(os.sched_getaffinity(0))
# Reference key of a workload that runs its configs' own master seeds.
UNSEEDED = "shipped"


@dataclass(frozen=True)
class Workload:
    configs: tuple  # config files, relative to the checkout root
    threads: int  # stableheat verify --threads
    calibrate: bool  # build the lag matrices during set-up
    seeded: bool  # pass --seed (else the configs' own master seeds)


WORKLOADS = {
    # Criterion 7 shape at 256x128: GEMM-bound mild solves.
    "comparison-256": Workload(("perfbench/workloads/comparison-256.json",), 1, True, True),
    # The CLI run users make at 64x32, on the shipped configs as shipped:
    # per-call overhead, noise sampling, the exact tol=0 solves, Galerkin
    # runs and report I/O.  Not reseeded: galerkin_convergence fails on
    # several other master seeds (see README.md).
    "verify-desk": Workload(
        ("configs/desk_verify.json", "configs/comparison_demo.json"), 1, False, False
    ),
    # Criterion 8 shape at 128x64 on the path-parallel thread pool, under
    # default (unpinned) BLAS threading.
    "nonneg-128-t2": Workload(("perfbench/workloads/nonneg-128-t2.json",), 2, True, True),
}


# -- one repetition -----------------------------------------------------


def rep_env(threads: int, capped: bool = True) -> dict:
    """Environment of a repetition.

    ``capped`` limits OpenBLAS to ``NPROC // threads`` threads when more
    than one path worker runs, so that workers times BLAS threads never
    exceed the cores; otherwise BLAS threading is left at its default.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if capped and threads > 1:
        blas = str(max(1, NPROC // threads))
        env.update(OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas)
    return env


def run_rep(
    workload: Workload, seed: int, threads: int, trace: bool, out: Path, capped: bool = True
) -> dict:
    """Run one repetition in a fresh interpreter and collect what it left.

    Returns the child's ``rep.json`` fields plus ``setup_s`` and
    ``files`` (deterministic output files by relative path), or
    ``{"error": ...}`` when the child did not finish.
    """
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    spec = {
        "configs": list(workload.configs),
        "seed": seed,
        "threads": threads,
        "calibrate": workload.calibrate,
        "trace": trace,
        "out": str(out),
    }
    env = rep_env(threads, capped)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "rep.py"), json.dumps(spec)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"repetition exceeded {REP_TIMEOUT_S:.0f} s"}
    if proc.returncode != 0 or not (out / "rep.json").exists():
        tail = proc.stderr.strip()[-2000:]
        return {"error": f"repetition exited {proc.returncode}: {tail}"}
    rep = json.loads((out / "rep.json").read_text())
    if Path(rep["package"]).resolve().parent != PACKAGE.resolve():
        return {"error": f"imported stableheat from {rep['package']}, not {PACKAGE}"}
    rep["setup_s"] = rep["setup_end"] - spawned
    rep["files"] = deterministic_files(out)
    if trace:
        rep["spans"] = json.loads((out / "spans.json").read_text())
    return rep


def deterministic_files(out: Path) -> dict:
    """Output files of a repetition that must not depend on time or workers."""
    files = {}
    for path in sorted(out.rglob("*")):
        rel = path.relative_to(out).as_posix()
        if path.is_file() and "/" in rel and not rel.endswith("_timing.json"):
            files[rel] = path.read_bytes()
    return files


def report_entry(report: dict) -> dict:
    """The fields of a report that the reference pins."""
    return {k: report[k] for k in ("pass", "n_paths", "estimates", "per_path_extremes")}


def reports_of(files: dict) -> dict:
    """(config label, report name) -> parsed report JSON."""
    out = {}
    for rel, blob in files.items():
        parts = rel.split("/")
        if (
            len(parts) == 3
            and parts[1] == "reports"
            and parts[2].endswith(".json")
            and parts[2] != "summary.json"
        ):
            out[(parts[0], parts[2][: -len(".json")])] = json.loads(blob)
    return out


def mismatches(ref, got, where: str = "") -> list:
    """Where ``got`` departs from ``ref`` beyond REL_TOL/ABS_TOL.

    Keys present only in ``got`` are ignored, so a report may gain fields.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [where or "report"]
        out = []
        for key, value in ref.items():
            if key not in got:
                out.append(f"{where}.{key} missing")
            else:
                out += mismatches(value, got[key], f"{where}.{key}")
        return out
    numeric = (int, float)
    if (
        isinstance(ref, numeric)
        and not isinstance(ref, bool)
        and isinstance(got, numeric)
        and not isinstance(got, bool)
    ):
        ok = abs(got - ref) <= ABS_TOL + REL_TOL * abs(ref)
    else:
        ok = got == ref
    return [] if ok else [f"{where}: {got!r} != reference {ref!r}"]


def check_rep(rep: dict, expected: dict, first: dict | None) -> tuple:
    """(attempted, failed, problems) over the verdicts one repetition owes.

    ``expected`` maps config label -> report name -> reference entry;
    ``first`` is the first repetition of the run, whose deterministic
    files this one must reproduce byte for byte.
    """
    attempted = sum(len(v) for v in expected.values())
    if "error" in rep:
        return attempted, attempted, [rep["error"]]
    got = reports_of(rep["files"])
    failed, problems = 0, []
    for label, reports in expected.items():
        for name, entry in reports.items():
            where = f"{label}/{name}"
            report = got.get((label, name))
            if report is None:
                issues = ["report missing"]
            else:
                issues = [] if report.get("pass") is True else ["verdict failed"]
                issues += mismatches(entry, report_entry(report))
                if first is not None and "files" in first:
                    for suffix in (".json", "_paths.csv"):
                        rel = f"{label}/reports/{name}{suffix}"
                        if rep["files"].get(rel) != first["files"].get(rel):
                            issues.append(
                                f"{name}{suffix} not byte-identical to the first repetition"
                            )
            if issues:
                failed += 1
                problems += [f"{where}: {i}" for i in issues]
    return attempted, failed, problems


def solver_paths(rep: dict) -> int:
    """Monte Carlo paths that ran a PDE solve, from the reports' n_paths."""
    return sum(
        int(report["n_paths"])
        for (_, name), report in reports_of(rep["files"]).items()
        if name != "stopping_law"
    )


# -- one run ------------------------------------------------------------


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_reference(name: str, seed: int) -> tuple:
    """(master seed, expected reports) for ``--seed``: the pool's seed-th entry.

    The master seed is None for a workload that is not reseeded.
    """
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        pool = json.load(fh)["workloads"][name]
    key = sorted(pool)[seed % len(pool)]
    return (int(key) if key != UNSEEDED else None), pool[key]


def end_to_end(reps: list, checks: tuple) -> dict:
    ok = [r for r in reps if "error" not in r]
    attempted, failed = checks
    m = {"pass_frac": 1.0 - failed / attempted}
    if ok:
        m.update(
            wall_s=tracing.median([r["wall_s"] for r in ok]),
            paths_per_s=tracing.median([solver_paths(r) / r["wall_s"] for r in ok]),
            setup_s=tracing.median([r["setup_s"] for r in ok]),
            peak_rss_mb=tracing.median([r["peak_rss_mb"] for r in ok]),
        )
    return m


def count_problems(a: dict, b: dict) -> list:
    return [
        f"{name}: {a.get(name)} at one worker count, {b.get(name)} at the other"
        for name in tracing.COUNT_METRICS
        if a.get(name) != b.get(name)
    ]


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Return (correct, attempted, failed, metrics, notes) for one run."""
    workload = WORKLOADS[name]
    master, expected = load_reference(name, seed)
    out = OUT / name
    if out.exists():
        shutil.rmtree(out)
    # Compile the package's bytecode once, so no repetition pays for it.
    subprocess.run(
        [sys.executable, "-c", "import stableheat.cli"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        check=True,
        timeout=REP_TIMEOUT_S,
    )

    reps, attempted, failed, problems = [], 0, 0, []

    def rep(threads: int, traced: bool, capped: bool = True) -> dict:
        nonlocal attempted, failed
        r = run_rep(workload, master, threads, traced, out / f"rep{len(reps)}", capped)
        a, f, p = check_rep(r, expected, reps[0] if reps else None)
        attempted, failed = attempted + a, failed + f
        problems.extend(p)
        reps.append(r)
        return r

    # A repetition starts only when the ones still owed fit in --seconds,
    # to the nearest half repetition, at the median pace so far: the
    # untimed ones of a traced run (two probes and two traced repetitions,
    # slower than the rest) and itself.
    owed = 5.5 if trace else 1.0
    start = time.monotonic()
    paces = []
    while len(reps) < MIN_REPS or (
        time.monotonic() - start + (owed - 0.5) * tracing.median(paces) <= seconds
    ):
        began = time.monotonic()
        rep(workload.threads, False)
        paces.append(time.monotonic() - began)
    timed = list(reps)
    notes = [
        f"workload {name}: seed {seed} -> master seed {master or 'of each config'}, "
        f"{len(timed)} repetitions at --threads {workload.threads}"
    ]
    if not trace:
        metrics = end_to_end(timed, (attempted, failed))
        ok = [r for r in timed if "error" not in r]
        if ok:
            walls = sorted(r["wall_s"] for r in ok)
            notes.append(
                f"wall_s per repetition {', '.join(f'{w:.3f}' for w in walls)}; "
                f"{solver_paths(ok[0])} solver paths per repetition"
            )
        return not problems, attempted, failed, metrics, notes + problems

    other = 2 if workload.threads == 1 else 1
    probe = rep(other, False)
    uncapped = rep(2, False, capped=False)
    traced = rep(workload.threads, True)
    traced_other = rep(other, True)
    if any("error" in r for r in reps):
        return False, attempted, failed, {}, notes + problems

    base = tracing.median([r["wall_s"] for r in timed])
    t1, t2 = (base, probe["wall_s"]) if workload.threads == 1 else (probe["wall_s"], base)
    metrics = tracing.layer_metrics(traced["spans"])
    metrics["experiments.scaling_eff"] = t1 / (2.0 * t2)
    metrics["experiments.blas_oversub_ratio"] = uncapped["wall_s"] / t2
    metrics["trace_overhead_frac"] = traced["wall_s"] / base - 1.0
    mismatch = count_problems(metrics, tracing.layer_metrics(traced_other["spans"]))
    attempted += 1
    if mismatch:
        failed += 1
        problems.append(
            "deterministic counts differ between worker counts: " + "; ".join(mismatch)
        )
    p, _ = tracing.high_percentile(tracing.solver_paths(traced["spans"]))
    notes.append(
        f"traced at --threads {workload.threads}; experiments.path_s_hi is the p{p:g} "
        f"of {metrics['experiments.paths']} paths; scaling_eff from "
        f"t1 {t1:.3f} s and t2 {t2:.3f} s; blas_oversub_ratio from t2 "
        f"{uncapped['wall_s']:.3f} s with default BLAS threading"
    )
    return not problems, attempted, failed, metrics, notes + problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no stableheat sources at {PACKAGE}", file=sys.stderr)
        return 2

    spec = load_spec()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    correct, attempted, failed, values, notes = run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    metrics = {}
    for m in declared:
        value = values.get(m["name"])
        if value is None:
            if m["name"] not in tracing.OPTIONAL_METRICS:
                notes.append(f"metric {m['name']} was not measured")
                correct = False
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    notes.append(f"failed_frac {failed}/{attempted} = {failed / attempted:g}")
    for line in notes:
        print(f"# {line}")
    for key, m in metrics.items():
        print(f"{key:32s} {m['value']:>16.6g} {m['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed}
    print(json.dumps(dict(result, metrics=metrics)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
