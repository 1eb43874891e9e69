import inspect
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stableheat import experiments, solvers
from stableheat.cli import RunConfig
from stableheat.coefficients import (
    affine,
    clipped_linear,
    ic_bump,
    ic_sine_mode,
    ic_zero,
    shifted,
    sine_modulated,
    zero,
)
from stableheat.errors import HypothesisError, ParameterError
from stableheat.experiments import (
    calibrate_grid_error,
    path_seed,
    positive_part_energy,
    run_comparison,
    run_consistency,
    run_galerkin_convergence,
    run_moment_estimate,
    run_nonnegativity,
    run_stopping_law,
)
from stableheat.noise import SpaceTimeDomain, StableParams, TruncationSpec
from stableheat.solvers import GridSpec, ProblemSpec

SYM = StableParams(1.5, 0.5, 0.5)
POS = StableParams(1.5, 1.0, 0.0)
DOM = SpaceTimeDomain(1.0, 1.0)
TRUNC = TruncationSpec(1.0, 0.05)
PHI = clipped_linear(0.4, 2.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def problem(params=SYM, drift=None, noise_coef=PHI, init=None, trunc=TRUNC):
    return ProblemSpec(
        params=params,
        trunc=trunc,
        dom=DOM,
        drift=drift if drift is not None else affine(0.0, 0.2),
        noise_coef=noise_coef,
        init=init or ic_sine_mode(1, 1.0, 1.0),
    )


class TestPositivePartEnergy:
    def test_nonpositive_gives_zero(self):
        w = -np.abs(np.random.default_rng(0).standard_normal(17))
        assert positive_part_energy(w, 1.0 / 16) == 0.0

    def test_unit_function(self):
        assert positive_part_energy(np.ones(33), 1.0 / 32) == pytest.approx(1.0)

    def test_sine_half(self):
        xs = np.linspace(0, 1, 65)
        val = positive_part_energy(np.sin(np.pi * xs), 1.0 / 64)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_zero_iff_no_positive_node(self):
        w = np.zeros(9)
        w[4] = 1e-8
        assert positive_part_energy(w, 0.125) > 0.0


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        assert path_seed(1, 0) == path_seed(1, 0)
        seeds = {path_seed(1, i) for i in range(100)}
        assert len(seeds) == 100
        assert path_seed(1, 0) != path_seed(2, 0)


class TestStoppingLaw:
    def test_desk_scale_passes(self):
        rep = run_stopping_law(SYM, 1.0, DOM, 1000, 314)
        assert rep.passed
        assert rep.target == pytest.approx(math.exp(-2.0 / 3.0))
        assert rep.confidence_interval[0] < rep.target < rep.confidence_interval[1]

    def test_large_threshold(self):
        rep = run_stopping_law(SYM, 10.0, DOM, 500, 314)
        assert rep.target == pytest.approx(math.exp(-(10.0**-1.5) / 1.5))
        assert rep.passed

    def test_zero_paths_rejected(self):
        with pytest.raises(ParameterError):
            run_stopping_law(SYM, 1.0, DOM, 0, 1)


class TestComparison:
    def test_identical_problems_zero_violation(self):
        p = problem(params=POS)
        rep = run_comparison(p, p, GridSpec(16, 8), 4, 5)
        assert rep.passed
        assert rep.estimates["max_violation"] == 0.0

    def test_ordered_drifts_pass(self):
        g = affine(0.0, 0.3)
        pu = problem(params=POS, drift=shifted(g, -0.5), init=ic_sine_mode(1, 0.8, 1.0))
        pv = problem(params=POS, drift=g)
        rep = run_comparison(pu, pv, GridSpec(32, 16), 6, 5)
        assert rep.passed
        assert rep.estimates["max_positive_part_energy"] <= rep.estimates["energy_cap"]

    def test_nonmonotone_noise_coef_gated(self):
        bad_phi = sine_modulated(1.0, 2, 1.0, 1.0)  # sign-changing in x
        pu = problem(params=POS, noise_coef=bad_phi)
        with pytest.raises(HypothesisError) as err:
            run_comparison(pu, pu, GridSpec(16, 8), 2, 5)
        assert "non-decreasing" in str(err.value)

    def test_understated_noise_lipschitz_bound_named(self):
        # a monotone noise coefficient whose declared Lipschitz bound is too
        # small fails the Lipschitz audit, not the monotonicity one
        lying = replace(PHI, lipschitz_bound=0.1)
        pu = problem(params=POS, noise_coef=lying)
        with pytest.raises(HypothesisError) as err:
            run_comparison(pu, pu, GridSpec(16, 8), 2, 5)
        assert str(err.value).startswith("Lipschitz bound 0.1 violated")
        assert "non-decreasing" not in str(err.value)

    def test_drift_order_checked_on_whole_domain(self):
        # f = -sin(pi x) is <= 0 on [0, 1] but equals 1 at x = 1.5 in [0, 2]
        dom = SpaceTimeDomain(1.0, 2.0)
        init = ic_sine_mode(1, 1.0, 2.0)
        pu = replace(
            problem(params=POS, drift=sine_modulated(-1.0, 2, 0.0, 2.0), init=init),
            dom=dom,
        )
        pv = replace(problem(params=POS, drift=zero(), init=init), dom=dom)
        with pytest.raises(HypothesisError):
            run_comparison(pu, pv, GridSpec(16, 8), 1, 5)

    def test_undominated_drift_gated(self):
        pu = problem(params=POS, drift=affine(0.0, 1.0))
        pv = problem(params=POS, drift=affine(0.0, 0.5))
        with pytest.raises(HypothesisError):
            run_comparison(pu, pv, GridSpec(16, 8), 2, 5)

    def test_unordered_initial_gated(self):
        g = affine(0.0, 0.3)
        pu = problem(params=POS, drift=shifted(g, -0.5), init=ic_sine_mode(1, 1.2, 1.0))
        pv = problem(params=POS, drift=g, init=ic_sine_mode(1, 1.0, 1.0))
        with pytest.raises(HypothesisError):
            run_comparison(pu, pv, GridSpec(16, 8), 2, 5)

    def test_mismatched_noise_coef_gated(self):
        pu = problem(params=POS, noise_coef=clipped_linear(0.3, 2.0))
        pv = problem(params=POS, noise_coef=clipped_linear(0.4, 2.0))
        with pytest.raises(ParameterError):
            run_comparison(pu, pv, GridSpec(16, 8), 2, 5)

    def test_the_shared_noise_coefficient_is_audited_once(self, monkeypatch):
        cfg = RunConfig.parse(json.loads((CONFIGS / "comparison_demo.json").read_text()))
        kwargs = cfg.experiments["comparison"]
        audits = []
        for module, name in (
            (experiments, "validate_hypothesis"),
            (solvers, "validate_hypothesis"),
            (experiments, "dominates"),
        ):
            def counted(*args, audit=getattr(module, name), name=name, **kw):
                audits.append((name, args[0]))
                return audit(*args, **kw)

            monkeypatch.setattr(module, name, counted)
        assert run_comparison(**kwargs).passed
        pu, pv = kwargs["problem_u"], kwargs["problem_v"]
        assert sorted(audits, key=lambda a: (a[0], a[1].family)) == [
            ("dominates", pu.drift),
            ("validate_hypothesis", pv.drift),  # affine
            ("validate_hypothesis", pu.noise_coef),  # clipped_linear
            ("validate_hypothesis", pu.drift),  # shifted
        ]


class TestNonnegativity:
    def test_zero_case_exact(self):
        p = problem(params=POS, init=ic_zero())
        rep = run_nonnegativity(p, GridSpec(16, 8), 3, 5)
        assert rep.passed
        assert rep.details["zero_case_exact"] is True
        assert rep.estimates["min_over_paths"] == 0.0

    def test_bump_case_passes(self):
        p = problem(params=POS, init=ic_bump(1.0, 0.5, 0.6))
        rep = run_nonnegativity(p, GridSpec(32, 16), 6, 5)
        assert rep.passed

    def test_negative_dip_gated(self):
        p = problem(params=POS, init=ic_sine_mode(2, 1.0, 1.0))
        with pytest.raises(HypothesisError):
            run_nonnegativity(p, GridSpec(16, 8), 2, 5)

    def test_nonvanishing_coefficient_gated(self):
        p = problem(params=POS, drift=affine(0.5, 0.2), init=ic_bump(1.0, 0.5, 0.6))
        with pytest.raises(HypothesisError) as err:
            run_nonnegativity(p, GridSpec(16, 8), 2, 5)
        assert "drift" in str(err.value)


class TestOneSidedJumpsGate:
    """A negative jump adds a negative point mass wherever phi > 0, so it
    drives u below zero and can flip the order of u and v: both theorems
    need one-sided jumps, and a two-sided law is refused before any solve."""

    @pytest.mark.parametrize("params", [
        SYM, StableParams(1.5, 0.0, 1.0), StableParams(1.5, 0.99, 0.01),
    ], ids=["symmetric", "negative", "nearly-one-sided"])
    @pytest.mark.parametrize("run", [run_nonnegativity, run_comparison])
    def test_two_sided_jumps_refused(self, run, params):
        p = problem(params=params, init=ic_bump(1.0, 0.5, 0.6))
        args = (p,) if run is run_nonnegativity else (p, p)
        with pytest.raises(HypothesisError, match=r"one-sided \(c_minus = 0\) jumps"):
            run(*args, GridSpec(16, 8), 2, 5)

    def test_comparison_demo_on_a_two_sided_law_is_refused(self):
        # with c_minus = 0.5 these paths used to end in a FAIL verdict
        # (violation 0.127 against tolerance 0.038) instead of this error
        cfg = RunConfig.parse(json.loads((CONFIGS / "comparison_demo.json").read_text()))
        two_sided = StableParams(1.5, 0.5, 0.5)
        for name in ("comparison", "nonnegativity"):
            kwargs = dict(cfg.experiments[name], n_paths=2)
            for key in ("problem", "problem_u", "problem_v"):
                if key in kwargs:
                    kwargs[key] = replace(kwargs[key], params=two_sided)
            run = getattr(experiments, f"run_{name}")
            with pytest.raises(HypothesisError, match=r"one-sided \(c_minus = 0\) jumps"):
                run(**kwargs)


class TestConsistency:
    def test_symmetric_coupling_passes_exactly(self):
        p = problem(trunc=TruncationSpec(1.0, 0.02))
        rep = run_consistency(p, 17, 0.5, 1.0, GridSpec(32, 16), n_paths=5)
        assert rep.passed
        assert rep.estimates["max_relative_sup_difference"] == 0.0

    def test_asymmetric_refused(self):
        p = problem(params=POS)
        with pytest.raises(HypothesisError) as err:
            run_consistency(p, 17, 0.5, 1.0, GridSpec(16, 8))
        assert "compensator" in str(err.value)

    def test_coefficients_audited(self):
        lying = replace(PHI, lipschitz_bound=0.1)
        p = problem(noise_coef=lying, trunc=TruncationSpec(1.0, 0.02))
        with pytest.raises(HypothesisError) as err:
            run_consistency(p, 17, 0.5, 1.0, GridSpec(16, 8))
        assert "Lipschitz bound 0.1 violated" in str(err.value)

    def test_bad_cutoffs_rejected(self):
        p = problem()
        with pytest.raises(ParameterError):
            run_consistency(p, 17, 1.0, 0.5, GridSpec(16, 8))
        with pytest.raises(ParameterError):
            run_consistency(p, 17, 0.5, 2.0, GridSpec(16, 8))

    def test_report_bytes_equal_at_any_thread_count(self, tmp_path):
        p = problem(trunc=TruncationSpec(1.0, 0.02))
        written = []
        for threads in (1, 3):
            out = tmp_path / f"threads{threads}"
            run_consistency(p, 17, 0.5, 1.0, GridSpec(16, 8), n_paths=4, threads=threads).write(out)
            written.append({
                path.name: path.read_bytes()
                for path in sorted(out.iterdir())
                if not path.name.endswith("_timing.json")
            })
        assert set(written[0]) == {"consistency.json", "consistency_paths.csv"}
        assert written[0] == written[1]


class TestGalerkinConvergence:
    def test_deterministic_tail_strictly_decreasing(self):
        # no noise effect: E(m) is the mode tail of the drift response
        p = problem(
            drift=sine_modulated(0.5, 3, 0.0, 1.0),
            noise_coef=zero(),
            init=ic_bump(1.0, 0.5, 0.8),
            trunc=TruncationSpec(1.0, 1.0 - 1e-9),
        )
        rep = run_galerkin_convergence(p, 3, [2, 4, 8], GridSpec(64, 32))
        errs = [rep.estimates[f"E_m{m}"] for m in (2, 4, 8)]
        assert errs[2] < errs[1] < errs[0]
        assert rep.passed

    def test_stochastic_trend(self):
        p = problem()
        rep = run_galerkin_convergence(p, 1001, [2, 4, 8], GridSpec(64, 32))
        assert rep.passed

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 4: the verdict fails on 4 of these 9 master seeds "
        "(e.g. 20250813: E = 0.0952, 0.0918, 0.0783)",
    )
    def test_desk_verdict_holds_on_every_pool_seed(self):
        # a certified verdict must not pass by choice of seed
        path = CONFIGS / "desk_verify.json"
        cfg = RunConfig.parse(json.loads(path.read_text()))
        m_list = cfg.experiments["galerkin_convergence"]["m_list"]
        failed = [
            seed
            for seed in range(20250810, 20250819)
            if not run_galerkin_convergence(cfg.problem, seed, m_list, cfg.grid).passed
        ]
        assert failed == []

    def test_singleton_rejected(self):
        with pytest.raises(ParameterError):
            run_galerkin_convergence(problem(), 1, [8], GridSpec(64, 32))

    def test_modes_capped_by_grid(self):
        with pytest.raises(ParameterError):
            run_galerkin_convergence(problem(), 1, [4, 64], GridSpec(64, 32))


class TestMomentEstimate:
    def test_zero_solution(self):
        p = problem(init=ic_zero())
        rep = run_moment_estimate(p, GridSpec(16, 8), 3, 2.0, seed=5)
        assert rep.passed
        assert rep.estimates["sup_moment"] == 0.0

    def test_deterministic_peak_at_initial_time(self):
        p = problem(drift=zero(), noise_coef=zero())
        rep = run_moment_estimate(p, GridSpec(32, 16), 2, 2.0, seed=5)
        assert rep.passed
        assert rep.estimates["peak_time_index"] == 0.0
        assert rep.estimates["sup_moment"] == pytest.approx(0.5, abs=1e-10)

    def test_stochastic_stability(self):
        p = problem()
        rep = run_moment_estimate(p, GridSpec(32, 16), 8, 2.0, seed=5)
        assert rep.passed
        assert 0.8 <= rep.estimates["doubling_ratio"] <= 1.25

    def test_p_out_of_range(self):
        with pytest.raises(ParameterError):
            run_moment_estimate(problem(), GridSpec(16, 8), 2, 1.2, seed=5)
        with pytest.raises(ParameterError):
            run_moment_estimate(problem(), GridSpec(16, 8), 2, 2.5, seed=5)


class TestReports:
    def test_json_schema_and_determinism(self, tmp_path):
        rep = run_stopping_law(SYM, 1.0, DOM, 200, 7)
        rep.write(tmp_path)
        payload = json.loads((tmp_path / "stopping_law.json").read_text())
        for key in (
            "name",
            "inputs_hash",
            "estimates",
            "confidence_interval",
            "target",
            "pass",
            "per_path_extremes",
        ):
            assert key in payload
        assert "runtime_seconds" not in payload
        assert (tmp_path / "stopping_law_paths.csv").exists()
        assert (tmp_path / "stopping_law_timing.json").exists()

        rep2 = run_stopping_law(SYM, 1.0, DOM, 200, 7)
        assert rep.to_json_dict() == rep2.to_json_dict()

    def test_ragged_per_path_columns_are_refused(self, tmp_path):
        # every run_* returns per-path columns of one length each; a
        # shorter column is a fault, not a row to pad
        rep = run_stopping_law(SYM, 1.0, DOM, 20, 7)
        short = rep.per_path["survived"][:-1]
        ragged = replace(rep, per_path=dict(rep.per_path, short=short))
        with pytest.raises(ValueError):
            ragged.write(tmp_path)
        assert not (tmp_path / "stopping_law_paths.csv").exists()

    def test_thread_count_invariance(self):
        p = problem()
        a = run_moment_estimate(p, GridSpec(16, 8), 4, 2.0, seed=5, threads=1)
        b = run_moment_estimate(p, GridSpec(16, 8), 4, 2.0, seed=5, threads=3)
        assert a.to_json_dict() == b.to_json_dict()


def hash_cases(run):
    """The arguments of ``run`` that have no default, and for every argument
    but ``seed`` and ``threads`` another value that the run accepts."""
    coupled = TruncationSpec(1.0, 0.02)
    return {
        run_stopping_law: (
            dict(params=SYM, K=1.0, dom=DOM, n_paths=20, seed=5),
            dict(params=POS, K=2.0, dom=SpaceTimeDomain(1.0, 2.0), n_paths=21,
                 observe_factor=100.0),
        ),
        run_comparison: (
            dict(problem_u=problem(POS), problem_v=problem(POS), grid=GridSpec(8, 4),
                 n_paths=1, seed=5),
            dict(problem_u=problem(POS, init=ic_sine_mode(1, 0.8, 1.0)),
                 problem_v=problem(POS, drift=shifted(affine(0.0, 0.2), 0.5)),
                 grid=GridSpec(8, 8), n_paths=2),
        ),
        run_nonnegativity: (
            dict(problem=problem(POS, init=ic_zero()), grid=GridSpec(8, 4), n_paths=1, seed=5),
            dict(problem=problem(POS, init=ic_bump(1.0, 0.5, 0.6)), grid=GridSpec(8, 8),
                 n_paths=2),
        ),
        run_consistency: (
            dict(problem=problem(trunc=coupled), seed=17, K_small=0.5, K_large=1.0,
                 grid=GridSpec(8, 4)),
            dict(problem=problem(drift=affine(0.0, 0.3), trunc=coupled), K_small=0.4,
                 K_large=0.9, grid=GridSpec(8, 8), n_paths=2),
        ),
        run_galerkin_convergence: (
            dict(problem=problem(), seed=3, m_list=[1, 2], grid=GridSpec(8, 12)),
            dict(problem=problem(drift=affine(0.0, 0.3)), m_list=[1, 3], grid=GridSpec(16, 12)),
        ),
        run_moment_estimate: (
            dict(problem=problem(), grid=GridSpec(8, 4), n_paths=1, seed=5),
            dict(problem=problem(drift=affine(0.0, 0.3)), grid=GridSpec(8, 8), n_paths=2, p=1.8),
        ),
    }[run]


RUNS = [getattr(experiments, name) for name in experiments.__all__ if name.startswith("run_")]


class TestInputsHash:
    @pytest.mark.parametrize("run", RUNS, ids=lambda run: run.__name__)
    def test_every_argument_but_threads_enters_the_hash(self, run):
        given, changed = hash_cases(run)
        parameters = inspect.signature(run).parameters
        assert set(parameters) - {"threads"} == {*given, *changed}
        digest = run(**given).inputs_hash
        # equal arguments, built anew or with every default spelled out
        defaults = {
            k: p.default for k, p in parameters.items()
            if p.default is not p.empty and k not in given
        }
        assert run(**hash_cases(run)[0], **defaults).inputs_hash == digest
        assert run(**given, threads=2).inputs_hash == digest
        for name, value in {**changed, "seed": given["seed"] + 1}.items():
            assert run(**{**given, name: value}).inputs_hash != digest, name


class TestCalibration:
    def test_error_shrinks_with_grid(self):
        p = problem()
        coarse = calibrate_grid_error(p, GridSpec(32, 16))
        fine = calibrate_grid_error(p, GridSpec(128, 64))
        assert fine < coarse
        assert fine > 0.0
