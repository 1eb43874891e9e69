"""Seeded Monte Carlo harness turning each structural claim into a check.

Every experiment follows the same discipline: hypotheses are audited
before any path is solved (a gate failure names the violated
hypothesis), per-path seeds derive from the master seed by a documented
mixing rule, aggregation is an ordered reduction over path indices so
the result is identical at any worker count, and the emitted JSON
contains only deterministic fields (wall-clock timing goes to a
sidecar).

Seed rule: path i uses the first 64-bit word generated by
``numpy.random.SeedSequence([master_seed, i])``.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from typing import Sequence

import numpy as np

from . import noise as noise_mod
from .coefficients import (
    dominates,
    ic_sine_mode,
    sine_modulated,
    validate_hypothesis,
    zero,
)
from .errors import HypothesisError, ParameterError, StableHeatError
from .noise import (
    NoiseRealization,
    SpaceTimeDomain,
    StableParams,
    TruncationSpec,
    sample_noise,
    stopping_time,
    survival_probability,
)
from .solvers import (
    GridSpec,
    ProblemSpec,
    grid_h_norm,
    grid_lp_norm_p,
    solve_galerkin,
    solve_mild,
    spectral_to_grid,
)

__all__ = [
    "ExperimentReport",
    "positive_part_energy",
    "path_seed",
    "calibrate_grid_error",
    "run_stopping_law",
    "run_comparison",
    "run_nonnegativity",
    "run_consistency",
    "run_galerkin_convergence",
    "run_moment_estimate",
]

SEED_RULE = "first uint64 of numpy.random.SeedSequence([master_seed, path_index])"

CONSISTENCY_REL_TOL = 1e-12


def path_seed(master_seed: int, path_index: int) -> int:
    """Derived per-path seed; order-independent and collision-resistant."""
    ss = np.random.SeedSequence([int(master_seed), int(path_index)])
    return int(ss.generate_state(1, np.uint64)[0])


def _json_safe(obj):
    """Replace non-finite floats by strings so reports stay strict JSON."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _map_paths(worker, n_paths: int, threads: int, where: str) -> list:
    """[worker(i) for i in range(n_paths)] on ``threads`` workers; a package
    error of item i gets ``f"{where} {i}: "`` in front of its message."""
    if n_paths < 1:
        raise ParameterError("experiment needs n_paths >= 1")

    def located(i):
        try:
            return worker(i)
        except StableHeatError as exc:
            exc.args = (f"{where} {i}: {exc}",)
            raise

    if threads <= 1:
        return [located(i) for i in range(n_paths)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(located, range(n_paths)))


@dataclass
class ExperimentReport:
    """Machine-readable outcome of one experiment.

    ``passed`` is a pure function of the estimates, the confidence
    interval, and the target; the report is reproducible bit-for-bit
    from (inputs, master seed).  ``runtime_seconds`` is informational
    and excluded from the serialized report so that byte-identical
    reproducibility is checkable on the emitted files.
    """

    name: str
    n_paths: int
    estimates: dict
    confidence_interval: tuple | None
    target: object
    passed: bool
    master_seed: int
    inputs_hash: str
    runtime_seconds: float = 0.0
    per_path: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        per_path_extremes = {
            k: {"min": float(np.min(v)), "max": float(np.max(v))}
            for k, v in self.per_path.items()
            if len(v)
        }
        return _json_safe(
            {
                "name": self.name,
                "inputs_hash": self.inputs_hash,
                "n_paths": self.n_paths,
                "estimates": self.estimates,
                "confidence_interval": self.confidence_interval,
                "target": self.target,
                "pass": self.passed,
                "master_seed": self.master_seed,
                "seed_rule": SEED_RULE,
                "per_path_extremes": per_path_extremes,
                "details": self.details,
            }
        )

    def write(self, directory) -> None:
        """Emit report JSON, per-path CSV, and a timing sidecar."""
        os.makedirs(directory, exist_ok=True)
        base = os.path.join(directory, self.name)
        with open(base + ".json", "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        if self.per_path:
            cols = sorted(self.per_path)
            rows = list(zip(*(self.per_path[c] for c in cols), strict=True))
            with open(base + "_paths.csv", "w", encoding="utf-8") as fh:
                fh.write("path_index," + ",".join(cols) + "\n")
                for i, row in enumerate(rows):
                    fh.write(f"{i}," + ",".join(f"{v:.17g}" for v in row) + "\n")
        with open(base + "_timing.json", "w", encoding="utf-8") as fh:
            json.dump({"runtime_seconds": self.runtime_seconds}, fh)
            fh.write("\n")


def _hashed(value):
    """``value`` as it enters an inputs hash (see ``_experiment``)."""
    if isinstance(value, ProblemSpec):
        return value.canonical()
    if isinstance(value, GridSpec):
        return (value.n_t, value.n_x)
    if is_dataclass(value):
        return asdict(value)
    return value


def _experiment(run):
    """Make ``run_<name>`` return a timed report named ``<name>``.

    The body returns the report's other fields.  The inputs hash covers
    the experiment name and every argument of the call but ``threads``,
    defaults applied: a ``ProblemSpec`` enters by ``canonical()``, a
    ``GridSpec`` as ``(n_t, n_x)`` and any other dataclass by its fields.
    """
    name = run.__name__.removeprefix("run_")
    signature = inspect.signature(run)

    @functools.wraps(run)
    def timed(*args, **kwargs):
        t_start = time.perf_counter()
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        inputs = {k: _hashed(v) for k, v in call.arguments.items() if k != "threads"}
        blob = json.dumps({"experiment": name, **inputs}, sort_keys=True, default=str).encode()
        fields = run(*call.args, **call.kwargs)
        return ExperimentReport(
            name=name,
            master_seed=call.arguments["seed"],
            inputs_hash=hashlib.sha256(blob).hexdigest()[:16],
            runtime_seconds=time.perf_counter() - t_start,
            **fields,
        )

    return timed


def positive_part_energy(w, dx: float):
    """Trapezoid int (w^+)^2 dx over grid-node values, per row of a 2-d array.

    Strictly positive node weights make the value vanish exactly when
    w <= 0 at every node.
    """
    return grid_lp_norm_p(np.maximum(np.asarray(w, dtype=float), 0.0), dx, 2.0)


def _require_one_sided_jumps(params: StableParams, theorem: str) -> None:
    """A jump adds the point mass phi(u(tau-, x)) z delta_x, and just after
    tau the kernel at x grows like (t - tau)^(-1/2): a negative z where
    phi > 0 pushes u below zero, and where phi(u) < phi(v) flips the order
    of u and v, however large the state is.  So both theorems need jumps of
    one sign."""
    if params.c_minus != 0.0:
        raise HypothesisError(
            f"{theorem} hypothesis violated: the theorem needs one-sided "
            f"(c_minus = 0) jumps, got c_minus = {params.c_minus}"
        )


# -- tolerance calibration ------------------------------------------------


def _empty_realization(params, dom, big_cutoff) -> NoiseRealization:
    return NoiseRealization(
        params=params,
        truncation=TruncationSpec(big_cutoff, big_cutoff * (1.0 - 1e-9)),
        domain=dom,
        taus=np.zeros(0),
        xs=np.zeros(0),
        zs=np.zeros(0),
        seed=0,
    )


# window_steps is accepted and ignored: perfbench/rep.py passes it (ROADMAP item 1).
def calibrate_grid_error(problem: ProblemSpec, grid: GridSpec, *, window_steps=None) -> float:
    """Observed sup-error of a deterministic analytically-solvable case.

    The calibration case keeps the problem's domain and grid but swaps
    in mode-one initial data with mode-one constant forcing and no
    noise coefficient, so the exact solution is a single exponentially
    relaxing sine amplitude.  Its sup-error exercises the same kernel
    quadrature and drift time-quadrature channels as a stochastic solve
    at this grid.
    """
    T, L = problem.dom.horizon_T, problem.dom.length_L
    forcing_amp = 0.5
    calib = _empty_realization(problem.params, problem.dom, problem.trunc.big_cutoff_K)
    calib_problem = replace(
        problem,
        trunc=calib.truncation,
        drift=sine_modulated(forcing_amp, 1, 0.0, L),
        noise_coef=zero(),
        init=ic_sine_mode(1, 1.0, L),
    )
    sol = solve_mild(calib_problem, calib, grid)
    lam = (math.pi / L) ** 2 / 2.0
    times = grid.times(T)
    amp = np.exp(-lam * times) + forcing_amp * (1.0 - np.exp(-lam * times)) / lam
    exact = amp[:, None] * np.sin(math.pi * grid.nodes(L)[None, :] / L)
    return float(np.max(np.abs(sol.values - exact)))


# -- experiments ----------------------------------------------------------


@_experiment
def run_stopping_law(
    params: StableParams,
    K: float,
    dom: SpaceTimeDomain,
    n_paths: int,
    seed: int,
    *,
    observe_factor: float = 1000.0,
    threads: int = 1,
) -> ExperimentReport:
    """Empirical frequency of {first big jump after the horizon} vs its law.

    Paths sample only the observable magnitudes (K, K*observe_factor];
    smaller jumps cannot trigger the event and would only cost time.
    Passes when the exact survival probability lies inside the 3-sigma
    binomial interval around the estimate.
    """
    if K <= 0.0:
        raise ParameterError("K must be positive")
    trunc = TruncationSpec(big_cutoff_K=K * observe_factor, small_cutoff_eps=K)
    target = survival_probability(params, K, dom)

    def worker(i: int) -> float:
        r = sample_noise(params, trunc, dom, path_seed(seed, i))
        return 1.0 if stopping_time(r, K) > dom.horizon_T else 0.0

    survived = _map_paths(worker, n_paths, threads, "stopping_law path")
    est = float(np.mean(survived))
    sigma = math.sqrt(max(est * (1.0 - est), target * (1.0 - target)) / n_paths)
    ci = (est - 3.0 * sigma, est + 3.0 * sigma)
    passed = ci[0] <= target <= ci[1]
    return dict(
        n_paths=n_paths,
        estimates={"survival_frequency": est, "sigma": sigma},
        confidence_interval=ci,
        target=target,
        passed=passed,
        per_path={"survived": [float(s) for s in survived]},
        details={"observe_factor": observe_factor},
    )


@_experiment
def run_comparison(
    problem_u: ProblemSpec,
    problem_v: ProblemSpec,
    grid: GridSpec,
    n_paths: int,
    seed: int,
    *,
    threads: int = 1,
) -> ExperimentReport:
    """Pathwise ordering of two solutions solved on the same noise.

    Gates: drift of the first problem must be dominated by the drift of
    the second, initial data must be ordered, and the two problems must
    share parameters, truncation, domain, and a monotone noise
    coefficient.  The jumps must be one-sided (c_minus = 0): a two-sided
    law is refused outright, even for a noise coefficient that does not
    depend on u, where the jumps would cancel in u - v.  Each path solves
    both problems on one shared realization and records the largest
    positive excursion of (u - v) over the grid; all excursions must stay
    below tol = 10 * calibrate_grid_error(problem_u, grid), and the
    positive-part energy must stay below tol^2 * L at every grid time.
    """
    if (
        problem_u.params != problem_v.params
        or problem_u.trunc != problem_v.trunc
        or problem_u.dom != problem_v.dom
    ):
        raise ParameterError(
            "comparison requires both problems to share parameters, truncation, "
            "and domain"
        )
    if problem_u.noise_coef != problem_v.noise_coef:
        raise ParameterError("comparison requires a shared noise coefficient")
    _require_one_sided_jumps(problem_u.params, "comparison")
    # the shared noise coefficient is audited once, with problem_u
    problem_u.validate(require_monotone=True)
    validate_hypothesis(problem_v.drift, problem_v.dom)
    L = problem_u.dom.length_L
    problem_v.init.validate_dirichlet(L)
    dominates(problem_u.drift, problem_v.drift, problem_u.dom)

    xs_dense = np.linspace(0.0, L, 4 * grid.n_x + 1)
    du0 = problem_u.init.values(xs_dense) - problem_v.init.values(xs_dense)
    if np.any(du0 > 1e-12):
        raise HypothesisError(
            "comparison hypothesis violated: initial data must satisfy "
            f"u0 <= v0 (max excess {float(du0.max()):.3e})"
        )

    tol = 10.0 * calibrate_grid_error(problem_u, grid)
    dx = grid.dx(L)
    energy_cap = tol * tol * L

    def worker(i: int):
        rn = sample_noise(
            problem_u.params, problem_u.trunc, problem_u.dom, path_seed(seed, i)
        )
        u = solve_mild(problem_u, rn, grid)
        v = solve_mild(problem_v, rn, grid)
        del rn  # and its jump table, before u - v is formed
        diff = u.values - v.values
        viol = float(max(0.0, diff.max()))
        energy = float(positive_part_energy(diff, dx).max())
        return viol, energy

    results = _map_paths(worker, n_paths, threads, "comparison path")
    violations = [r[0] for r in results]
    energies = [r[1] for r in results]
    max_viol = float(np.max(violations))
    max_energy = float(np.max(energies))
    passed = max_viol <= tol and max_energy <= energy_cap
    return dict(
        n_paths=n_paths,
        estimates={
            "max_violation": max_viol,
            "max_positive_part_energy": max_energy,
            "tolerance": tol,
            "energy_cap": energy_cap,
        },
        confidence_interval=None,
        target=f"per-path max (u-v)+ <= {tol:.6g}",
        passed=passed,
        per_path={"violation": violations, "positive_part_energy": energies},
        details={"tolerance": tol, "energy_cap": energy_cap},
    )


@_experiment
def run_nonnegativity(
    problem: ProblemSpec,
    grid: GridSpec,
    n_paths: int,
    seed: int,
    *,
    threads: int = 1,
) -> ExperimentReport:
    """Solutions from non-negative data stay above -tol on every path, with
    tol = 10 * calibrate_grid_error(problem, grid).

    Gates: the jumps must be one-sided (c_minus = 0), the initial profile
    must be non-negative and both coefficients must vanish at zero state
    by family structure, not just numerically.
    """
    _require_one_sided_jumps(problem.params, "non-negativity")
    if not problem.init.is_nonnegative(problem.dom.length_L):
        raise HypothesisError(
            "non-negativity hypothesis violated: initial data has a negative dip"
        )
    for label, spec in (("drift", problem.drift), ("noise", problem.noise_coef)):
        if not spec.vanishes_at_zero_state():
            raise HypothesisError(
                f"non-negativity hypothesis violated: {label} coefficient does "
                "not vanish at zero state"
            )
    problem.validate()
    tol = 10.0 * calibrate_grid_error(problem, grid)

    zero_case = problem.init.family == "zero"

    def worker(i: int):
        rn = sample_noise(
            problem.params, problem.trunc, problem.dom, path_seed(seed, i)
        )
        u = solve_mild(problem, rn, grid)
        exact_zero = bool(np.all(u.values == 0.0)) if zero_case else False
        return float(u.values.min()), exact_zero

    results = _map_paths(worker, n_paths, threads, "nonnegativity path")
    minima = [r[0] for r in results]
    min_all = float(np.min(minima))
    passed = min_all >= -tol
    details = {"tolerance": tol}
    if zero_case:
        details["zero_case_exact"] = all(r[1] for r in results)
        passed = passed and details["zero_case_exact"]
    return dict(
        n_paths=n_paths,
        estimates={"min_over_paths": min_all, "tolerance": tol},
        confidence_interval=None,
        target=f"per-path min >= {-tol:.6g}",
        passed=passed,
        per_path={"min_value": minima},
        details=details,
    )


@_experiment
def run_consistency(
    problem: ProblemSpec,
    seed: int,
    K_small: float,
    K_large: float,
    grid: GridSpec,
    *,
    n_paths: int = 1,
    threads: int = 1,
) -> ExperimentReport:
    """Coupled solves at two cutoffs agree before the first excess jump.

    Both solves compute their exact discrete fixed points on the same
    filtered realization, so grid rows strictly before the stopping time
    must agree to relative 1e-12 (they are bitwise equal by
    construction; the tolerance only guards the arithmetic).
    Asymmetric tails are refused: there the two cutoffs carry different
    compensator drifts, the solutions genuinely differ before the
    stopping time, and no finite tolerance separates that discrepancy
    from error.  A single path uses ``seed`` itself as its noise seed;
    with ``n_paths`` > 1, path i uses ``path_seed(seed, i)``.
    """
    if not problem.params.is_symmetric:
        raise HypothesisError(
            "consistency coupling requires symmetric tail weights: with "
            "asymmetric tails the per-cutoff compensators differ by a "
            "deterministic drift and the coupled solutions are not expected "
            "to coincide before the stopping time"
        )
    trunc = problem.trunc
    if not trunc.small_cutoff_eps < K_small < K_large <= trunc.big_cutoff_K:
        raise ParameterError(
            "need small_cutoff_eps < K_small < K_large <= big_cutoff_K"
        )
    problem.validate()

    def one_path(i: int):
        seed_i = seed if n_paths == 1 else path_seed(seed, i)
        rn = sample_noise(problem.params, trunc, problem.dom, seed_i)
        r_small = noise_mod.restrict(rn, K_small)
        r_large = noise_mod.restrict(rn, K_large)
        u_small = solve_mild(replace(problem, trunc=r_small.truncation), r_small, grid)
        u_large = solve_mild(replace(problem, trunc=r_large.truncation), r_large, grid)
        r_stop = stopping_time(r_large, K_small)
        i_max = grid.n_t if math.isinf(r_stop) else grid.step_of(problem.dom.horizon_T, r_stop)
        rows = slice(0, i_max + 1)
        diff = float(np.max(np.abs(u_small.values[rows] - u_large.values[rows])))
        scale = max(1.0, float(np.max(np.abs(u_small.values[rows]))))
        vacuous = i_max == 0
        return diff / scale, vacuous, math.inf if math.isinf(r_stop) else r_stop

    results = _map_paths(one_path, n_paths, threads, "consistency path")
    rels = [r[0] for r in results]
    vacuous_count = sum(1 for r in results if r[1])
    max_rel = float(np.max(rels))
    passed = max_rel <= CONSISTENCY_REL_TOL
    return dict(
        n_paths=n_paths,
        estimates={
            "max_relative_sup_difference": max_rel,
            "vacuous_paths": float(vacuous_count),
        },
        confidence_interval=None,
        target=f"relative sup-difference <= {CONSISTENCY_REL_TOL}",
        passed=passed,
        per_path={
            "relative_sup_difference": rels,
            "stopping_time": [r[2] for r in results],
        },
        details={"vacuous_paths": vacuous_count, "K_small": K_small, "K_large": K_large},
    )


@_experiment
def run_galerkin_convergence(
    problem: ProblemSpec,
    seed: int,
    m_list: Sequence[int],
    grid: GridSpec,
    *,
    threads: int = 1,
) -> ExperimentReport:
    """Mode-truncation error against the mild solve on one shared path.

    E(m) is the sup over grid times of the L2 distance between the
    synthesized m-mode solution and the mild solution, on the one path
    whose noise seed is ``seed`` itself.  Passes when the sequence is
    non-increasing up to 5% slack and the last error is below half the
    first.
    """
    m_list = [int(m) for m in m_list]
    if len(m_list) < 2 or any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise ParameterError(
            "m_list must contain at least two strictly increasing mode counts"
        )
    if max(m_list) > grid.n_x // 4:
        raise ParameterError(
            f"max mode count {max(m_list)} exceeds n_x/4 = {grid.n_x // 4}"
        )
    problem.validate()
    rn = sample_noise(problem.params, problem.trunc, problem.dom, seed)
    (mild,) = _map_paths(
        lambda i: solve_mild(problem, rn, grid),
        1, 1, "galerkin_convergence path",
    )
    dx = grid.dx(problem.dom.length_L)

    def worker(idx: int) -> float:
        m = m_list[idx]
        gal = spectral_to_grid(solve_galerkin(problem, rn, m, grid))
        return float(grid_h_norm(gal.values - mild.values, dx).max())

    errors = _map_paths(worker, len(m_list), threads, "galerkin_convergence m_list entry")
    non_increasing = all(
        e_next <= 1.05 * e_prev for e_prev, e_next in zip(errors, errors[1:])
    )
    halved = errors[-1] < 0.5 * errors[0]
    passed = non_increasing and halved
    return dict(
        n_paths=1,
        estimates={f"E_m{m}": float(e) for m, e in zip(m_list, errors)},
        confidence_interval=None,
        target="E non-increasing (5% slack) and E(max) < E(min)/2",
        passed=passed,
        per_path={"errors": [float(e) for e in errors]},
        details={"m_list": m_list, "jump_count": rn.jump_count},
    )


@_experiment
def run_moment_estimate(
    problem: ProblemSpec,
    grid: GridSpec,
    n_paths: int,
    p: float = 2.0,
    *,
    seed: int,
    threads: int = 1,
) -> ExperimentReport:
    """Monte Carlo estimate of the peak p-th moment of the solution norm.

    Estimates sup over grid times of E[ ||u(t,.)||_p^p ] with n_paths
    and with 2*n_paths (the first n_paths are reused), and passes when
    the estimate is finite and the doubling ratio stays within
    [0.8, 1.25].
    """
    if not problem.params.alpha < p <= 2.0:
        raise ParameterError(
            f"p must lie in (alpha, 2] = ({problem.params.alpha}, 2], got {p}"
        )
    problem.validate()
    dx = grid.dx(problem.dom.length_L)

    def worker(i: int) -> np.ndarray:
        rn = sample_noise(
            problem.params, problem.trunc, problem.dom, path_seed(seed, i)
        )
        u = solve_mild(problem, rn, grid)
        return grid_lp_norm_p(u.values, dx, p)

    norms = np.stack(_map_paths(worker, 2 * n_paths, threads, "moment_estimate path"))
    mean_half = norms[:n_paths].mean(axis=0)
    mean_full = norms.mean(axis=0)
    est_half = float(mean_half.max())
    idx_peak = int(np.argmax(mean_full))
    est_full = float(mean_full[idx_peak])
    se = float(norms[:, idx_peak].std(ddof=1) / math.sqrt(2 * n_paths))
    ratio = est_full / est_half if est_half > 0.0 else 1.0
    passed = math.isfinite(est_full) and 0.8 <= ratio <= 1.25
    return dict(
        n_paths=2 * n_paths,
        estimates={
            "sup_moment": est_full,
            "sup_moment_half_paths": est_half,
            "doubling_ratio": ratio,
            "peak_time_index": float(idx_peak),
        },
        confidence_interval=(est_full - 3.0 * se, est_full + 3.0 * se),
        target="finite with doubling ratio in [0.8, 1.25]",
        passed=passed,
        per_path={"sup_norm_p": [float(v) for v in norms.max(axis=1)]},
        details={"p": p},
    )
