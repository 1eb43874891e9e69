"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-
criterion lines; the suite is the package's exit gate and runs at the
full stated scale (roughly ten minutes end to end).
"""

import json
import math
import time

import numpy as np
import pytest

from oracles import check_semigroup, convolve, other_representation
from stableheat.coefficients import (
    affine,
    clipped_linear,
    ic_bump,
    ic_sine_mode,
    ic_zero,
    shifted,
    zero,
)
from stableheat.experiments import (
    run_comparison,
    run_consistency,
    run_galerkin_convergence,
    run_moment_estimate,
    run_nonnegativity,
    run_stopping_law,
)
from stableheat.kernel import KernelEvaluator
from stableheat.noise import (
    SpaceTimeDomain,
    StableParams,
    TruncationSpec,
    sample_noise,
)
from stableheat.solvers import (
    GridSpec,
    ProblemSpec,
    solve_galerkin,
    solve_mild,
    spectral_to_grid,
)

SYM = StableParams(1.5, 0.5, 0.5)
POS = StableParams(1.5, 1.0, 0.0)
DOM = SpaceTimeDomain(1.0, 1.0)
PHI = clipped_linear(0.4, 2.0)


def report(number: int, label: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:2d} {status} {label}: {detail}")
    assert passed, f"criterion {number} ({label}): {detail}"


def test_criterion_01_stopping_law():
    t0 = time.perf_counter()
    rep = run_stopping_law(SYM, 1.0, DOM, 10_000, seed=20_250_810)
    elapsed = time.perf_counter() - t0
    est = rep.estimates["survival_frequency"]
    target = rep.target
    ok = rep.passed and abs(est - target) <= 0.015 and elapsed <= 10.0
    report(
        1,
        "stopping law",
        ok,
        f"estimate {est:.5f} vs exp(-2/3) = {target:.5f} "
        f"(|diff| = {abs(est - target):.5f} <= 0.015), {elapsed:.1f}s <= 10s",
    )


def test_criterion_02_truncated_moment_identity():
    t0 = time.perf_counter()
    trunc = TruncationSpec(1.0, 0.01)
    n = 10_000
    target = (1.0**0.5 - 0.01**0.5) / 0.5  # = 1.8
    sums = np.empty(n)
    for i in range(n):
        sums[i] = np.sum(sample_noise(SYM, trunc, DOM, i).zs ** 2)
    est = float(sums.mean())
    se = float(sums.std(ddof=1) / math.sqrt(n))
    elapsed = time.perf_counter() - t0
    ok = abs(est - target) <= 3.0 * se and elapsed <= 10.0
    report(
        2,
        "truncated moment identity",
        ok,
        f"mean sum|z|^2 per unit area {est:.4f} vs 1.8 "
        f"(|diff| = {abs(est - target):.4f} <= 3 SE = {3 * se:.4f}), "
        f"{elapsed:.1f}s <= 10s",
    )


def test_criterion_03_kernel_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    ke = KernelEvaluator(1.0)

    n_pts = 1000
    ts = np.exp(rng.uniform(math.log(1e-3), 0.0, n_pts))
    xs, ys = rng.random(n_pts), rng.random(n_pts)
    assert ts.min() < ke.crossover_time < ts.max()

    # both representations, each against the other's oracle
    sym_exact = all(ke.eval(t, x, y) == ke.eval(t, y, x) for t, x, y in zip(ts, xs, ys))
    cross_max = max(
        abs(ke.eval(t, x, y) - other_representation(t, x, y)) for t, x, y in zip(ts, xs, ys)
    )

    semi_max = 0.0
    for _ in range(1000):
        s, t = np.exp(rng.uniform(math.log(0.01), math.log(0.5), 2))
        x, z = rng.random(2)
        semi_max = max(semi_max, check_semigroup(ke, s, t, x, z, 512))

    mass_max = 0.0
    ones = lambda y: np.ones_like(y)
    for t in np.geomspace(1e-3, 1.0, 24):
        conv = convolve(ke, t, ones, 512)
        mass_max = max(mass_max, float(np.max(conv(np.linspace(0, 1, 65)))))

    elapsed = time.perf_counter() - t0
    ok = (
        sym_exact
        and cross_max <= 2e-10
        and semi_max <= 1e-8
        and mass_max <= 1.0 + 1e-10
        and elapsed <= 30.0
    )
    report(
        3,
        "kernel suite",
        ok,
        f"symmetry exact: {sym_exact}, cross-agreement {cross_max:.2e} <= 2e-10, "
        f"semigroup {semi_max:.2e} <= 1e-8, mass {mass_max:.12f} <= 1+1e-10, "
        f"{elapsed:.1f}s <= 30s",
    )


def test_criterion_04_deterministic_oracle():
    t0 = time.perf_counter()
    grid = GridSpec(512, 256)
    trunc = TruncationSpec(1.0, 1.0 - 1e-9)  # empty jump window
    prob = ProblemSpec(SYM, trunc, DOM, zero(), zero(), ic_sine_mode(1, 1.0, 1.0))
    noise = sample_noise(SYM, trunc, DOM, 1)
    assert noise.jump_count == 0

    times = grid.times(1.0)
    nodes = grid.nodes(1.0)
    exact = np.exp(-math.pi**2 * times[:, None] / 2.0) * np.sin(math.pi * nodes)

    mild = solve_mild(prob, noise, grid)
    err_mild = float(np.max(np.abs(mild.values - exact)))
    gal = spectral_to_grid(solve_galerkin(prob, noise, 16, grid))
    err_gal = float(np.max(np.abs(gal.values - exact)))
    peak = float(mild.values[-1].max())

    elapsed = time.perf_counter() - t0
    ok = (
        err_mild <= 1e-4
        and err_gal <= 1e-4
        and abs(peak - math.exp(-math.pi**2 / 2.0)) < 1e-6
        and elapsed <= 30.0
    )
    report(
        4,
        "deterministic oracle",
        ok,
        f"sup-error mild {err_mild:.2e}, spectral {err_gal:.2e} (<= 1e-4), "
        f"final peak {peak:.7f} vs {math.exp(-math.pi**2 / 2.0):.7f}, "
        f"{elapsed:.1f}s <= 30s",
    )


def test_criterion_05_consistency():
    t0 = time.perf_counter()
    prob = ProblemSpec(
        SYM, TruncationSpec(1.0, 0.05), DOM, affine(0.0, 0.2), PHI,
        ic_sine_mode(1, 1.0, 1.0),
    )
    rep = run_consistency(prob, 20_250_810, 0.5, 1.0, GridSpec(64, 32), n_paths=100)
    elapsed = time.perf_counter() - t0
    max_rel = rep.estimates["max_relative_sup_difference"]
    ok = rep.passed and max_rel <= 1e-12 and elapsed <= 120.0
    report(
        5,
        "consistency across cutoffs",
        ok,
        f"max relative sup-difference {max_rel:.2e} <= 1e-12 over 100 coupled "
        f"paths ({int(rep.estimates['vacuous_paths'])} vacuous), "
        f"{elapsed:.1f}s <= 120s",
    )


def test_criterion_06_galerkin_convergence():
    t0 = time.perf_counter()
    prob = ProblemSpec(
        SYM, TruncationSpec(1.0, 0.05), DOM, affine(0.0, 0.2), PHI,
        ic_sine_mode(1, 1.0, 1.0),
    )
    m_list = [4, 8, 16, 32]
    rep = run_galerkin_convergence(prob, 42, m_list, GridSpec(256, 128))
    errors = [rep.estimates[f"E_m{m}"] for m in m_list]
    elapsed = time.perf_counter() - t0
    non_incr = all(b <= 1.05 * a for a, b in zip(errors, errors[1:]))
    halved = errors[-1] < 0.5 * errors[0]
    ok = rep.passed and non_incr and halved and elapsed <= 120.0
    report(
        6,
        "spectral mode convergence",
        ok,
        "E(m) = " + ", ".join(f"{m}: {e:.4g}" for m, e in zip(m_list, errors))
        + f"; non-increasing (5% slack): {non_incr}, E(32) < E(4)/2: {halved}, "
        f"{elapsed:.1f}s <= 120s",
    )


def test_criterion_07_comparison_principle():
    t0 = time.perf_counter()
    trunc = TruncationSpec(1.0, 0.05)
    g = affine(0.0, 0.3)
    problem_v = ProblemSpec(POS, trunc, DOM, g, PHI, ic_sine_mode(1, 1.0, 1.0))
    problem_u = ProblemSpec(
        POS, trunc, DOM, shifted(g, -0.5), PHI, ic_sine_mode(1, 0.8, 1.0)
    )
    grid = GridSpec(256, 128)
    rep = run_comparison(problem_u, problem_v, grid, 200, seed=20_250_810)
    elapsed = time.perf_counter() - t0
    tol = rep.estimates["tolerance"]
    viol = rep.estimates["max_violation"]
    energy = rep.estimates["max_positive_part_energy"]
    ok = rep.passed and viol <= tol and energy <= tol * tol * 1.0 and elapsed <= 300.0
    report(
        7,
        "comparison principle",
        ok,
        f"max (u-v)+ over 200 coupled paths {viol:.2e} <= calibrated tol "
        f"{tol:.2e}; max positive-part energy {energy:.2e} <= tol^2*L "
        f"{tol * tol:.2e}; {elapsed:.1f}s <= 300s",
    )


def test_criterion_08_nonnegativity():
    t0 = time.perf_counter()
    trunc = TruncationSpec(1.0, 0.05)
    prob = ProblemSpec(
        POS, trunc, DOM, affine(0.0, 0.2), PHI, ic_bump(1.0, 0.5, 0.6)
    )
    grid = GridSpec(128, 64)
    rep = run_nonnegativity(prob, grid, 200, seed=20_250_810)
    zero_prob = ProblemSpec(POS, trunc, DOM, affine(0.0, 0.2), PHI, ic_zero())
    zero_rep = run_nonnegativity(zero_prob, grid, 3, seed=20_250_810)
    elapsed = time.perf_counter() - t0
    tol = rep.estimates["tolerance"]
    min_val = rep.estimates["min_over_paths"]
    ok = (
        rep.passed
        and min_val >= -tol
        and zero_rep.passed
        and zero_rep.details["zero_case_exact"]
        and elapsed <= 300.0
    )
    report(
        8,
        "non-negativity",
        ok,
        f"min over 200 paths {min_val:.2e} >= -tol = {-tol:.2e}; zero-initial "
        f"case exactly zero: {zero_rep.details['zero_case_exact']}; "
        f"{elapsed:.1f}s <= 300s",
    )


def test_criterion_09_moment_stability():
    # noise coefficient nonzero at zero state, so the norm peak sits at a
    # stochastic interior time and the doubling check is informative
    prob = ProblemSpec(
        SYM, TruncationSpec(1.0, 0.05), DOM, affine(0.0, 0.2), affine(0.5, 0.3),
        ic_sine_mode(1, 0.5, 1.0),
    )
    rep = run_moment_estimate(prob, GridSpec(128, 64), 100, 2.0, seed=20_250_810)
    est = rep.estimates["sup_moment"]
    ratio = rep.estimates["doubling_ratio"]
    ok = (
        rep.passed
        and math.isfinite(est)
        and 0.8 <= ratio <= 1.25
        and rep.estimates["peak_time_index"] > 0
    )
    report(
        9,
        "moment stability",
        ok,
        f"sup_t E||u||_2^2 = {est:.4f} (finite, peak at interior grid time "
        f"{int(rep.estimates['peak_time_index'])}), doubling ratio 100->200 "
        f"paths {ratio:.4f} in [0.8, 1.25]",
    )


def test_criterion_10_determinism(tmp_path):
    # Two desk-scale configs cover all six experiments: coupled-cutoff
    # consistency demands symmetric tails, while the ordering experiments
    # run on spectrally positive noise, so no single config hosts both.
    from stableheat.cli import main

    base = {
        "version": 1,
        "master_seed": 20_250_810,
        "truncation": {"big_cutoff_K": 1.0, "small_cutoff_eps": 0.05},
        "domain": {"horizon_T": 1.0, "length_L": 1.0},
        "grid": {"n_t": 64, "n_x": 32},
        "coefficients": {
            "drift": {"family": "affine", "params": {"a": 0.0, "b": 0.2}},
            "noise_coef": {
                "family": "clipped_linear",
                "params": {"slope": 0.4, "cap": 2.0},
            },
        },
        "initial": {"family": "sine_mode", "params": {"mode": 1, "amplitude": 1.0}},
        "solver": {"method": "mild", "window_steps": 4},
    }
    symmetric = dict(
        base,
        stable={"alpha": 1.5, "c_plus": 0.5, "c_minus": 0.5},
        experiments={
            "stopping_law": {"K": 1.0, "n_paths": 2000},
            "consistency": {"K_small": 0.5, "K_large": 1.0, "n_paths": 5},
            "galerkin_convergence": {"m_list": [2, 4, 8]},
            "moment_estimate": {"n_paths": 8, "p": 2.0},
        },
    )
    one_sided = dict(
        base,
        stable={"alpha": 1.5, "c_plus": 1.0, "c_minus": 0.0},
        experiments={
            "comparison": {
                "n_paths": 6,
                "problem_u": {
                    "drift": {
                        "family": "shifted",
                        "params": {
                            "base": {"family": "affine", "params": {"a": 0.0, "b": 0.2}},
                            "delta": -0.5,
                        },
                    },
                    "initial": {
                        "family": "sine_mode",
                        "params": {"mode": 1, "amplitude": 0.8},
                    },
                },
            },
            "nonnegativity": {"n_paths": 6},
        },
    )

    total_files = 0
    identical = True
    for tag, config in (("sym", symmetric), ("pos", one_sided)):
        cfg_path = tmp_path / f"config_{tag}.json"
        cfg_path.write_text(json.dumps(config))
        outputs = {}
        for label, threads in (("a", 1), ("b", 4), ("c", 1)):
            out = tmp_path / f"{tag}_{label}"
            rc = main(
                ["verify", "--config", str(cfg_path), "--out", str(out),
                 "--threads", str(threads)]
            )
            assert rc == 0
            blobs = {}
            for path in sorted((out / "reports").glob("*.json")):
                if path.name.endswith("_timing.json"):
                    continue
                blobs[path.name] = path.read_bytes()
            blobs["effective_config.json"] = (out / "effective_config.json").read_bytes()
            outputs[label] = blobs
        same_names = set(outputs["a"]) == set(outputs["b"]) == set(outputs["c"])
        identical = identical and same_names and all(
            outputs["a"][k] == outputs["b"][k] == outputs["c"][k]
            for k in outputs["a"]
        )
        total_files += len(outputs["a"])

    report(
        10,
        "byte-identical reports",
        identical,
        f"{total_files} report files (all six experiments) identical across "
        "repeated runs at thread counts 1, 4, 1",
    )
