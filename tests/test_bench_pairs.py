import importlib.util
import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


@pytest.fixture
def runs(monkeypatch):
    """Counts the perfbench runs main starts, and fakes their results."""
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append((workload, trace))
        names = END_TO_END + trace * ["kernel.eval_calls", "kernel.eval_points"]
        return {"correct": True, "metrics": {name: {"value": 1.0} for name in names}}

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    return calls


def argv(tmp_path, *extra):
    return ["--before", str(ROOT), "--after", str(ROOT), "--pairs", "2",
            "--out", str(tmp_path / "bench.json"), *extra]


@pytest.mark.parametrize(
    "extra",
    [
        ["--traced", "verify-desk"],  # no ":metric"
        ["--traced", "verify-desk:no_such_metric"],
        ["--traced", "no-such-workload:kernel.eval_calls"],
        ["--workloads", "comparison-256", "--traced", "verify-desk:kernel.eval_calls"],
        ["--claim", "verify-desk"],
        ["--claim", "verify-desk:kernel.eval_calls"],  # claims are end-to-end metrics
        ["--claim", "verify-desk:wall_s:extra"],
        ["--workloads", "no-such-workload"],
        ["--pairs", "1"],  # one run per side has no quartiles
    ],
)
def test_malformed_item_exits_2_before_any_run(tmp_path, runs, extra):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv(tmp_path, *extra))
    assert exc.value.code == 2
    assert runs == []
    assert not (tmp_path / "bench.json").exists()


def test_well_formed_items_run_and_write(tmp_path, runs):
    assert bench_pairs.main(argv(
        tmp_path, "--workloads", "verify-desk",
        "--traced", "verify-desk:kernel.eval_calls", "verify-desk:kernel.eval_points",
        "--claim", "verify-desk:wall_s",
    )) == 0
    assert runs == [("verify-desk", 0)] * 4 + [("verify-desk", 1)] * 2
    report = json.loads((tmp_path / "bench.json").read_text())
    assert set(report["claims"]) == {"verify-desk:wall_s"}
    assert set(report["workloads"]["verify-desk"]["traced"]) == {
        "kernel.eval_calls", "kernel.eval_points",
    }


@pytest.mark.parametrize("stdout", ["", "Traceback (most recent call last):\n  ...\n"])
def test_run_without_a_json_line_is_incorrect(monkeypatch, stdout):
    monkeypatch.setattr(
        bench_pairs.subprocess, "run", lambda *args, **kwargs: SimpleNamespace(stdout=stdout)
    )
    assert bench_pairs.run(ROOT, "verify-desk", 1, 1.0, 0) == {"correct": False, "metrics": {}}


def test_failed_runs_do_not_abort_the_summary(tmp_path, monkeypatch):
    # the third run crashed and the fourth timed nothing (every repetition
    # errored, so only pass_frac is reported); the others still count
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append(trace)
        if len(calls) == 3 or trace:
            return {"correct": False, "metrics": {}}
        names = ["pass_frac"] if len(calls) == 4 else END_TO_END
        return {"correct": True, "metrics": {n: {"value": float(len(calls))} for n in names}}

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    assert bench_pairs.main(
        ["--before", str(ROOT), "--after", str(ROOT), "--pairs", "3",
         "--out", str(tmp_path / "bench.json"), "--workloads", "verify-desk",
         "--traced", "verify-desk:kernel.eval_calls", "--claim", "verify-desk:wall_s"]
    ) == 0
    assert calls == [0] * 6 + [1] * 2
    entry = json.loads((tmp_path / "bench.json").read_text())["workloads"]["verify-desk"]
    assert entry["all_correct"] is False
    wall = entry["end_to_end"]["wall_s"]
    # pair 0 ran before (1), after (2); pair 1 after (crashed), before
    # (pass_frac only); pair 2 before (5), after (6)
    assert wall["before"]["runs"] == [1.0, 5.0] and wall["after"]["runs"] == [2.0, 6.0]
    assert wall["pairs"] == 3 and wall["wins"] + wall["losses"] == 2
    assert entry["end_to_end"]["pass_frac"]["before"]["runs"] == [1.0, 4.0, 5.0]
    assert entry["traced"] == {"kernel.eval_calls": {"before": None, "after": None}}


def test_src_line_counts_of_both_checkouts_are_recorded(tmp_path, runs):
    sides = {}
    for side, lines in (("before", 5), ("after", 3)):
        package = tmp_path / side / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "a.py").write_text("x = 1\n" * (lines - 1))
        (package / "b.py").write_text("y = 2\n")
        (package / "notes.txt").write_text("not code\n" * 7)
        sides[side] = tmp_path / side
    (sides["after"] / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "bench.json"
    assert bench_pairs.main(
        ["--before", str(sides["before"]), "--after", str(sides["after"]), "--pairs", "2",
         "--out", str(out), "--workloads", "verify-desk", "--traced"]
    ) == 0
    assert json.loads(out.read_text())["src_lines"] == {"before": 5, "after": 3}
    assert bench_pairs.src_lines(ROOT) == sum(
        len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")
    )


def test_revision_of_each_checkout_is_recorded(tmp_path, runs, monkeypatch):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))  # no repository above
    def git(repo, *args):
        subprocess.run(
            ["git", "-C", str(repo), "-c", "user.name=bench", "-c", "user.email=bench@example.com",
             "-c", "commit.gpgsign=false", *args],
            check=True, capture_output=True,
        )

    sides = {}
    for side in ("before", "after"):
        repo = sides[side] = tmp_path / side
        (repo / "src").mkdir(parents=True)
        (repo / "src" / "a.py").write_text("x = 1\n")
        (repo / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
        git(repo, "init", "-q")
        git(repo, "add", "-A")
        git(repo, "commit", "-q", "-m", side)
    (sides["after"] / "src" / "a.py").write_text("x = 2\n")  # a change not committed
    out = tmp_path / "bench.json"
    assert bench_pairs.main(
        ["--before", str(sides["before"]), "--after", str(sides["after"]), "--pairs", "2",
         "--out", str(out), "--workloads", "verify-desk", "--traced"]
    ) == 0
    revisions = json.loads(out.read_text())["revisions"]
    assert [revisions[side]["dirty"] for side in ("before", "after")] == [False, True]
    for side, repo in sides.items():
        head = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
        assert revisions[side]["commit"] == head and len(head) == 40
    (sides["before"] / "new.py").write_text("")  # an untracked file counts as dirty
    assert bench_pairs.revision(sides["before"])["dirty"] is True
    plain = tmp_path / "plain"  # not a git checkout
    plain.mkdir()
    assert bench_pairs.revision(plain) == {"commit": None, "dirty": None}
