"""Self-tests of the benchmark harness.

Covers the span arithmetic (self-time of nested and threaded spans,
solver-path grouping), the high-percentile rule, the counting of failed
verdicts, and a tiny-grid smoke run of every workload through a fresh
interpreter, traced at both worker counts.
"""

import json
import threading
import time
from pathlib import Path

import pytest

import run
import tracing


def span(sid, parent, name, start, end, thread=1, attrs=None):
    return (sid, parent, thread, name, start, end, attrs)


# -- span arithmetic ----------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        span(1, 0, "a", 0.0, 10.0),
        span(2, 1, "b", 1.0, 3.0),
        span(3, 1, "c", 4.0, 8.0),
        span(4, 3, "d", 5.0, 6.0),
    ]
    assert tracing.self_times(spans) == pytest.approx({1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0})


def test_self_time_ignores_spans_of_other_threads():
    spans = [
        span(1, 0, "a", 0.0, 10.0, thread=1),
        span(2, 0, "b", 2.0, 9.0, thread=2),
        span(3, 2, "c", 3.0, 4.0, thread=2),
    ]
    assert tracing.self_times(spans) == pytest.approx({1: 10.0, 2: 6.0, 3: 1.0})


def test_self_time_counts_overlapping_children_once():
    spans = [
        span(1, 0, "a", 0.0, 10.0),
        span(2, 1, "b", 1.0, 5.0),
        span(3, 1, "c", 4.0, 6.0),
        span(4, 1, "d", 9.0, 12.0),
    ]
    assert tracing.self_times(spans)[1] == pytest.approx(4.0)


def test_tracer_nests_per_thread():
    tracer = tracing.Tracer()

    def inner():
        tracer.call("inner", time.sleep, (0.01,), {})

    def outer():
        tracer.call("outer", lambda: (inner(), inner()), (), {})

    workers = [threading.Thread(target=outer) for _ in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=10.0)
    assert not any(w.is_alive() for w in workers)

    spans = tracer.spans
    outers = {s[tracing.SID]: s for s in spans if s[tracing.NAME] == "outer"}
    inners = [s for s in spans if s[tracing.NAME] == "inner"]
    assert len(outers) == 2 and len(inners) == 4
    for s in inners:
        parent = outers[s[tracing.PARENT]]
        assert parent[tracing.THREAD] == s[tracing.THREAD]
    own = tracing.self_times(spans)
    for sid, s in outers.items():
        assert own[sid] < 0.5 * (s[tracing.END] - s[tracing.START])


def test_solver_paths_group_by_experiment_and_seed():
    def mild(seed, sweeps):
        return {"seed": seed, "exp": 1, "windows": 2, "sweeps": sweeps}

    def noise(seed, jumps):
        return {"seed": seed, "jumps": jumps, "exp": 1}

    spans = [
        span(1, 0, "experiments.run", 0.0, 20.0),
        # calibration solve on unsampled noise: not a path
        span(2, 1, "solvers.mild", 0.5, 1.0, attrs=mild(0, 6)),
        span(3, 1, "noise.sample", 1.0, 1.5, attrs=noise(11, 4)),
        span(4, 1, "solvers.mild", 1.5, 3.0, attrs=mild(11, 4)),
        # a Galerkin solve on the same noise in a worker thread
        span(5, 0, "solvers.galerkin", 2.0, 4.0, thread=2, attrs={"seed": 11, "exp": 1}),
        span(6, 1, "noise.sample", 5.0, 5.5, attrs=noise(12, 1)),
        span(7, 1, "solvers.mild", 5.5, 6.5, attrs=mild(12, 2)),
        # noise-only path (stopping law): not a solver path
        span(8, 1, "noise.sample", 7.0, 7.1, attrs=noise(13, 0)),
    ]
    assert tracing.solver_paths(spans) == pytest.approx([3.0, 1.5])
    m = tracing.layer_metrics(spans)
    assert m["experiments.paths"] == 2
    assert m["experiments.path_s"] == pytest.approx(2.25)
    assert m["noise.sample_calls"] == 3 and m["noise.jumps"] == 5
    assert m["solvers.mild_calls"] == 3 and m["solvers.galerkin_calls"] == 1
    assert m["solvers.mild_cold_s"] == pytest.approx(0.5)
    assert m["solvers.mild_windows"] == 6 and m["solvers.mild_sweeps"] == 12
    assert m["solvers.sweeps_per_window"] == pytest.approx(2.0)


def test_sweep_metrics_absent_without_picard_iterations():
    spans = [
        span(1, 0, "noise.sample", 0.0, 1.0, attrs={"seed": 5, "jumps": 1, "exp": 0}),
        span(2, 0, "solvers.mild", 1.0, 2.0, attrs={"seed": 5, "exp": 0}),
    ]
    m = tracing.layer_metrics(spans)
    assert m["solvers.mild_calls"] == 1
    assert not set(tracing.OPTIONAL_METRICS) & set(m)


# -- percentile rule ----------------------------------------------------


@pytest.mark.parametrize(
    "n, p, value",
    [
        (1, 50.0, 1.0),
        (6, 50.0, 3.5),
        (39, 50.0, 20.0),
        (40, 75.0, 30.0),
        (99, 75.0, 75.0),
        (100, 90.0, 90.0),
        (1000, 99.0, 990.0),
        (10000, 99.9, 9990.0),
    ],
)
def test_high_percentile_keeps_ten_samples_above(n, p, value):
    values = [float(i) for i in range(n, 0, -1)]
    assert tracing.high_percentile(values) == (p, value)


# -- verdict counting ---------------------------------------------------


def report(name, n_paths, estimates, passed=True):
    return {
        "name": name,
        "pass": passed,
        "n_paths": n_paths,
        "estimates": estimates,
        "per_path_extremes": {"x": {"min": 0.5, "max": 2.0}},
    }


def report_files(estimate=1.0, passed=True, drop=False):
    """Output files of a fake repetition with two reports."""
    reports = [report("stopping_law", 9, {"survival_frequency": 0.5})]
    if not drop:
        estimates = {"sup_moment": estimate, "label": "inf"}
        reports.append(report("moment_estimate", 4, estimates, passed))
    return {
        "files": {f"cfg/reports/{r['name']}.json": json.dumps(r).encode() for r in reports}
    }


def expected():
    reports = run.reports_of(report_files()["files"])
    return {"cfg": {name: run.report_entry(r) for (_, name), r in reports.items()}}


@pytest.mark.parametrize(
    "rep, failed",
    [
        (report_files(), 0),
        (report_files(estimate=1.0 + 1e-13), 0),  # reordered-sum drift is accepted
        (report_files(estimate=1.0 + 1e-6), 1),
        (report_files(passed=False), 1),
        (report_files(drop=True), 1),
        ({"error": "repetition exited 1"}, 2),
    ],
)
def test_check_rep_counts_failed_verdicts(rep, failed):
    attempted, n_failed, problems = run.check_rep(rep, expected(), None)
    assert (attempted, n_failed) == (2, failed)
    assert bool(problems) == bool(failed)
    assert run.end_to_end([], (attempted, n_failed))["pass_frac"] == 1.0 - failed / 2


def test_check_rep_requires_identical_bytes_across_repetitions():
    first = report_files()
    drifted = report_files(estimate=1.0 + 1e-13)
    _, failed, problems = run.check_rep(drifted, expected(), first)
    assert failed == 1 and "byte-identical" in problems[0]
    assert run.check_rep(report_files(), expected(), first)[1] == 0


def test_solver_paths_skip_stopping_law():
    assert run.solver_paths(report_files()) == 4


# -- repetition environment ---------------------------------------------


def test_blas_cap_keeps_workers_times_threads_within_cores(monkeypatch):
    monkeypatch.setattr(run, "NPROC", 2)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert run.rep_env(2)["OPENBLAS_NUM_THREADS"] == "1"
    assert "OPENBLAS_NUM_THREADS" not in run.rep_env(1)
    assert "OPENBLAS_NUM_THREADS" not in run.rep_env(2, capped=False)
    monkeypatch.setattr(run, "NPROC", 1)
    assert run.rep_env(2)["OPENBLAS_NUM_THREADS"] == "1"


# -- smoke run ----------------------------------------------------------


def tiny_config(path, tmp_path):
    """The workload's config on a 16x32 grid with a handful of paths."""
    raw = json.loads((run.ROOT / path).read_text())
    raw["grid"] = {"n_t": 16, "n_x": 32}
    for name, section in raw.get("experiments", {}).items():
        if "n_paths" in section:
            section["n_paths"] = 200 if name == "stopping_law" else 2
    out = tmp_path / Path(path).name
    out.write_text(json.dumps(raw))
    return str(out)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_run_of_each_workload(name, tmp_path):
    workload = run.WORKLOADS[name]
    tiny = run.Workload(
        tuple(tiny_config(p, tmp_path) for p in workload.configs),
        workload.threads,
        workload.calibrate,
        workload.seeded,
    )
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    traced, files = {}, {}
    seed = 20_250_810 if tiny.seeded else None
    for threads in (1, 2):
        rep = run.run_rep(tiny, seed, threads, True, tmp_path / f"t{threads}")
        assert "error" not in rep, rep.get("error")
        assert rep["wall_s"] > 0.0 and rep["setup_s"] > 0.0 and rep["peak_rss_mb"] > 0.0
        assert run.solver_paths(rep) > 0
        traced[threads] = tracing.layer_metrics(rep["spans"])
        files[threads] = rep["files"]
    assert files[1] == files[2]
    measured_by_run = {
        "experiments.scaling_eff",
        "experiments.blas_oversub_ratio",
        "trace_overhead_frac",
    }
    names = {m["name"] for m in declared["per_layer"]} - measured_by_run
    assert names <= set(traced[1])
    assert run.count_problems(traced[1], traced[2]) == []
