"""Span capture around stableheat's public names, and the span arithmetic.

Capture (``Tracer`` and ``install``) runs inside one repetition's
interpreter: it replaces the public names where their callers look them
up (``experiments.solve_mild``, ``KernelEvaluator.eval``, ...) with
wrappers that record one span per call.  Nothing inside the package is
edited; the layers are timed from outside.

A span is the tuple ``(id, parent, thread, name, start, end, attrs)``.
A thread-local stack gives ``parent`` (0 at a thread's root), so spans
on a worker thread never count as children of a span on another thread.
Spans stay in a list in memory and are written out once, when the
repetition ends.

The arithmetic (``self_times``, ``high_percentile``, ``layer_metrics``)
imports nothing from stableheat, so the harness self-tests can feed it
synthetic spans.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time

# -- capture ------------------------------------------------------------


class Tracer:
    """In-memory span recorder shared by every wrapped call in a process."""

    def __init__(self):
        self.spans: list = []
        # next() on itertools.count and list.append are each one
        # bytecode-level call into C, so worker threads need no lock here.
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Experiments run one at a time from the main thread; pool
        # threads read this to attribute their spans to the running one.
        self.current_experiment = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float, attrs=None) -> None:
        """Add a span measured by the caller (e.g. the package import)."""
        self.spans.append(
            (next(self._ids), 0, threading.get_ident(), name, start, end, attrs)
        )

    def call(self, name, fn, args, kwargs, info=None, experiment=False):
        stack = self._stack()
        parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        if experiment:
            previous, self.current_experiment = self.current_experiment, sid
        done = False
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            done = True
            return out
        finally:
            end = time.perf_counter()
            stack.pop()
            if experiment:
                self.current_experiment = previous
            attrs = info(args, kwargs, out) if done and info else None
            self.spans.append(
                (sid, parent, threading.get_ident(), name, start, end, attrs)
            )

    def wrap(self, owner, attr: str, name: str, info=None, experiment=False) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``experiment=True`` marks the span as the running experiment, so
        spans on its worker threads can be attributed to it.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, info, experiment)

        wrapper.__wrapped__ = fn
        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _noise_arg(args, kwargs):
    return kwargs["noise"] if "noise" in kwargs else args[1]


def install(tracer: Tracer) -> None:
    """Wrap every public name the benchmark measures, where callers look it up.

    ``stableheat verify`` reaches sampling, solvers and audits only
    through ``experiments`` (and ``ProblemSpec.validate`` in ``solvers``),
    so those are the modules whose names are replaced.
    """
    from stableheat import cli, coefficients, experiments, kernel, solvers

    def sample_info(args, kwargs, out):
        return {
            "seed": out.seed,
            "jumps": out.jump_count,
            "exp": tracer.current_experiment,
        }

    def mild_info(args, kwargs, out):
        attrs = {"seed": _noise_arg(args, kwargs).seed, "exp": tracer.current_experiment}
        # Sweep counts come from a field the causal-march rewrite deletes;
        # once it is gone the two metrics are reported absent, not as errors.
        iterations = getattr(out, "picard_iterations", None)
        if iterations is not None:
            attrs["windows"] = len(iterations)
            attrs["sweeps"] = int(sum(iterations))
        return attrs

    def galerkin_info(args, kwargs, out):
        return {"seed": _noise_arg(args, kwargs).seed, "exp": tracer.current_experiment}

    def write_info(args, kwargs, out):
        report, directory = args[0], args[1] if len(args) > 1 else kwargs["directory"]
        base = os.path.join(directory, report.name)
        # The _timing.json sidecar holds a wall time, so its length varies;
        # only the deterministic files are counted.
        return {
            "bytes": sum(
                os.path.getsize(p)
                for p in (base + ".json", base + "_paths.csv")
                if os.path.exists(p)
            )
        }

    tracer.wrap(
        kernel.KernelEvaluator, "eval", "kernel.eval",
        info=lambda args, kwargs, out: {"points": int(getattr(out, "size", 1))},
    )
    tracer.wrap(coefficients.CoefficientSpec, "evaluate", "coefficients.evaluate")
    for module in (experiments, solvers):
        tracer.wrap(module, "validate_hypothesis", "coefficients.audit")
    tracer.wrap(experiments, "dominates", "coefficients.audit")
    tracer.wrap(experiments, "sample_noise", "noise.sample", info=sample_info)
    tracer.wrap(experiments, "solve_mild", "solvers.mild", info=mild_info)
    tracer.wrap(experiments, "solve_galerkin", "solvers.galerkin", info=galerkin_info)
    for attr in sorted(experiments.__all__):
        if attr.startswith("run_"):
            tracer.wrap(experiments, attr, "experiments.run", experiment=True)
    tracer.wrap(experiments, "calibrate_grid_error", "experiments.calibrate")
    tracer.wrap(experiments.ExperimentReport, "write", "experiments.write", info=write_info)
    tracer.wrap(cli.RunConfig, "parse", "cli.parse")


# -- arithmetic ---------------------------------------------------------

SID, PARENT, THREAD, NAME, START, END, ATTRS = range(7)

# Deterministic counts: identical across runs and worker counts.
COUNT_METRICS = (
    "noise.sample_calls",
    "noise.jumps",
    "kernel.eval_calls",
    "kernel.eval_points",
    "coefficients.evaluate_calls",
    "solvers.mild_calls",
    "solvers.mild_windows",
    "solvers.mild_sweeps",
    "solvers.galerkin_calls",
    "experiments.paths",
    "experiments.report_bytes",
)

# Metrics that rest on GridSolution.picard_iterations and disappear with it.
OPTIONAL_METRICS = (
    "solvers.mild_windows",
    "solvers.mild_sweeps",
    "solvers.sweeps_per_window",
)

HIGH_PERMILLES = (999, 990, 950, 900, 750)


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that its children cover."""
    by_id = {s[SID]: s for s in spans}
    children: dict = {}
    for s in spans:
        if s[PARENT] in by_id:
            children.setdefault(s[PARENT], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s[START], s[END]
        covered = _union_length(
            (max(c[START], lo), min(c[END], hi))
            for c in children.get(s[SID], ())
            if c[END] > lo and c[START] < hi
        )
        out[s[SID]] = (hi - lo) - covered
    return out


def high_percentile(values) -> tuple:
    """(p, value) at the highest percentile with at least ten samples above it.

    Nearest-rank percentile above the median.  With fewer than 40
    samples the median (p=50) is returned, even below 20 samples, where
    not even the median has ten samples above it.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    for permille in HIGH_PERMILLES:
        rank = -(-permille * n // 1000)  # ceil in integers: no rounding at the edge
        if n - rank >= 10:
            return permille / 10.0, xs[rank - 1]
    return 50.0, median(xs)


def median(values) -> float:
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    mid = n // 2
    return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def _duration(span) -> float:
    return span[END] - span[START]


def _outermost(spans, name) -> list:
    """Spans called ``name`` that have no ancestor of the same name."""
    by_id = {s[SID]: s for s in spans}
    out = []
    for s in spans:
        if s[NAME] != name:
            continue
        parent = by_id.get(s[PARENT])
        while parent is not None and parent[NAME] != name:
            parent = by_id.get(parent[PARENT])
        if parent is None:
            out.append(s)
    return out


def solver_paths(spans) -> list:
    """Wall time of each Monte Carlo path that ran at least one PDE solve.

    A path is the noise sampled for one seed inside one experiment call
    together with every solve on that noise, in any thread.  It lasts
    from the start of the sampling to the end of its last solve.  Noise
    that no solver uses (stopping-law paths) is not a solver path.
    """
    starts = {}
    for s in spans:
        if s[NAME] == "noise.sample" and s[ATTRS]:
            key = (s[ATTRS]["exp"], s[ATTRS]["seed"])
            starts[key] = min(starts.get(key, s[START]), s[START])
    ends = {}
    for s in spans:
        if s[NAME] in ("solvers.mild", "solvers.galerkin") and s[ATTRS]:
            key = (s[ATTRS]["exp"], s[ATTRS]["seed"])
            if key in starts:
                ends[key] = max(ends.get(key, s[END]), s[END])
    return [ends[k] - starts[k] for k in sorted(ends)]


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced repetition, keyed by metric name."""
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s[NAME] == name]

    def self_sum(name):
        return sum((own[s[SID]] for s in named(name)), 0.0)

    def inclusive_sum(name):
        return sum((_duration(s) for s in _outermost(spans, name)), 0.0)

    def attr_sum(name, key):
        return sum(s[ATTRS][key] for s in named(name) if s[ATTRS])

    mild = named("solvers.mild")
    first_mild = min(mild, key=lambda s: s[START]) if mild else None
    path_s = solver_paths(spans)
    m = {
        "noise.sample_calls": len(named("noise.sample")),
        "noise.jumps": attr_sum("noise.sample", "jumps"),
        "noise.sample_s": self_sum("noise.sample"),
        "kernel.eval_calls": len(named("kernel.eval")),
        "kernel.eval_points": attr_sum("kernel.eval", "points"),
        "kernel.eval_s": self_sum("kernel.eval"),
        "coefficients.evaluate_calls": len(named("coefficients.evaluate")),
        "coefficients.evaluate_s": self_sum("coefficients.evaluate"),
        "coefficients.audit_s": inclusive_sum("coefficients.audit"),
        "solvers.mild_calls": len(mild),
        "solvers.mild_s": self_sum("solvers.mild"),
        "solvers.mild_cold_s": _duration(first_mild) if mild else 0.0,
        "solvers.galerkin_calls": len(named("solvers.galerkin")),
        "solvers.galerkin_s": self_sum("solvers.galerkin"),
        "experiments.paths": len(path_s),
        "experiments.calibrate_s": inclusive_sum("experiments.calibrate"),
        "experiments.write_s": inclusive_sum("experiments.write"),
        "experiments.report_bytes": attr_sum("experiments.write", "bytes"),
        "cli.import_s": inclusive_sum("cli.import"),
        "cli.parse_s": inclusive_sum("cli.parse"),
    }
    if path_s:
        m["experiments.path_s"] = median(path_s)
        m["experiments.path_s_hi"] = high_percentile(path_s)[1]
    if mild and all(s[ATTRS] and "windows" in s[ATTRS] for s in mild):
        windows = attr_sum("solvers.mild", "windows")
        sweeps = attr_sum("solvers.mild", "sweeps")
        m["solvers.mild_windows"] = windows
        m["solvers.mild_sweeps"] = sweeps
        m["solvers.sweeps_per_window"] = sweeps / windows
    return m
