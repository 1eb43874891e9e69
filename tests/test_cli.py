import json
import math
import re

import numpy as np
import pytest

from stableheat.cli import (
    EXIT_EXPERIMENT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    RunConfig,
    main,
)
from stableheat.experiments import path_seed

BASE_CONFIG = {
    "version": 1,
    "master_seed": 11,
    "stable": {"alpha": 1.5, "c_plus": 0.5, "c_minus": 0.5},
    "truncation": {"big_cutoff_K": 1.0, "small_cutoff_eps": 0.05},
    "domain": {"horizon_T": 1.0, "length_L": 1.0},
    "grid": {"n_t": 16, "n_x": 8},
    "coefficients": {
        "drift": {"family": "affine", "params": {"a": 0.0, "b": 0.2}},
        "noise_coef": {"family": "clipped_linear", "params": {"slope": 0.4, "cap": 2.0}},
    },
    "initial": {"family": "sine_mode", "params": {"mode": 1, "amplitude": 1.0}},
}


def write_config(tmp_path, overrides=None, name="config.json"):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (overrides or {}).items():
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestSampleNoise:
    def test_byte_identical_across_runs(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["sample-noise", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["sample-noise", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        f1 = out1 / "noise" / "noise_seed11.txt"
        f2 = out2 / "noise" / "noise_seed11.txt"
        assert f1.read_bytes() == f2.read_bytes()
        meta = json.loads((out1 / "noise" / "noise_seed11.meta.json").read_text())
        assert meta["seed"] == 11
        lines = f1.read_text().splitlines()
        assert lines[0] == "# stableheat-noise v1"
        assert meta["n_jumps"] == len(lines) - 8

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert (
            main(["sample-noise", "--config", str(cfg), "--out", str(out), "--seed", "99"])
            == EXIT_OK
        )
        assert (out / "noise" / "noise_seed99.txt").exists()

    def test_invalid_truncation_exits_validation(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"truncation": {"big_cutoff_K": 0.5, "small_cutoff_eps": 0.5}},
        )
        assert (
            main(["sample-noise", "--config", str(cfg), "--out", str(tmp_path / "o")])
            == EXIT_VALIDATION
        )


class TestSolve:
    def test_deterministic_config_matches_analytic(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "coefficients": {
                    "drift": {"family": "zero"},
                    "noise_coef": {"family": "zero"},
                },
                "grid": {"n_t": 32, "n_x": 16},
                "solver": {"method": "both", "modes": 4},
            },
        )
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        rows = (out / "solutions" / "mild.csv").read_text().strip().splitlines()
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        times, vals = data[:, 0], data[:, 1:]
        nodes = np.linspace(0, 1, 17)
        exact = np.exp(-math.pi**2 * times[:, None] / 2) * np.sin(math.pi * nodes)
        assert np.max(np.abs(vals - exact)) < 1e-10
        disc = json.loads((out / "solutions" / "discrepancy.json").read_text())
        assert disc["max_abs_difference"] < 1e-10
        meta = json.loads((out / "solutions" / "mild.meta.json").read_text())
        assert "config_hash" in meta
        assert meta["grid"] == {"n_t": 32, "n_x": 16}

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_blow_up_exits_numerical(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "coefficients": {
                    "drift": {"family": "affine", "params": {"a": 0.0, "b": 1e21}},
                    "noise_coef": {"family": "zero"},
                },
                "solver": {"method": "mild", "window_steps": 1},
            },
        )
        assert (
            main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
            == EXIT_NUMERICAL
        )

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("method, where", [
        ("mild", r"step \([\d.]+, [\d.]+\] of the mild solve"),
        ("galerkin", r"step \([\d.]+, [\d.]+\] of the 2-mode Galerkin solve"),
    ], ids=["mild", "galerkin"])
    def test_blow_up_names_seed_and_time_window(self, tmp_path, capsys, method, where):
        cfg = write_config(
            tmp_path,
            {
                "coefficients": {
                    "drift": {"family": "affine", "params": {"a": 0.0, "b": 1e21}},
                    "noise_coef": {"family": "zero"},
                },
                "solver": {"method": method, "modes": 2},
                "master_seed": 12,
            },
        )
        assert (
            main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
            == EXIT_NUMERICAL
        )
        err = capsys.readouterr().err
        assert re.search(where, err), err
        assert "noise seed 12" in err

    @pytest.mark.parametrize(
        "overrides, where",
        [
            (
                {
                    "coefficients": {
                        "drift": {"family": "constant", "params": {"value": "abc"}},
                        "noise_coef": {"family": "zero"},
                    }
                },
                "coefficients.drift",
            ),
            (
                {
                    "coefficients": {
                        "drift": {"family": "affine", "params": None},
                        "noise_coef": {"family": "zero"},
                    }
                },
                "coefficients.drift",
            ),
            ({"grid": {"n_t": "x", "n_x": 8}}, "grid"),
            ({"stable": {"alpha": "x", "c_plus": 0.5, "c_minus": 0.5}}, "stable"),
            ({"stable": 3}, "stable"),
            (
                {
                    "coefficients": {
                        "drift": {"family": "zero", "lipschitz_bound": "big"},
                        "noise_coef": {"family": "zero"},
                    }
                },
                "coefficients.drift",
            ),
            (
                {
                    "coefficients": {
                        "drift": {"family": "zero"},
                        "noise_coef": {
                            "family": "shifted",
                            "params": {"base": 3, "delta": 0.5},
                        },
                    }
                },
                "coefficients.noise_coef.base",
            ),
            (
                {
                    "truncation": {
                        "big_cutoff_K": 1.0,
                        "small_cutoff_eps": 0.05,
                        "gaussian_correction": "false",
                    }
                },
                "truncation.gaussian_correction",
            ),
            ({"grid": {"n_t": 16.5, "n_x": 8}}, "grid.n_t"),
            ({"grid": {"n_t": 16, "n_x": True}}, "grid.n_x"),
            (
                {
                    "coefficients": {
                        "drift": {"family": "affine", "params": {"a": True, "b": 0.2}},
                        "noise_coef": {"family": "zero"},
                    }
                },
                "coefficients.drift.params.a",
            ),
            (
                {"initial": {"family": "sine_mode", "params": {"mode": 1, "amplitude": "1.5"}}},
                "initial.params.amplitude",
            ),
            (
                {"initial": {"family": "sine_mode", "params": {"mode": True, "amplitude": 1.0}}},
                "initial.params.mode",
            ),
            (
                {
                    "initial": {
                        "family": "tabulated",
                        "params": {"xs": [0.0, "0.5", 1.0], "values": [0.0, 1.0, 0.0]},
                    }
                },
                "initial.params.xs",
            ),
            ({"domain": {"horizon_T": 10**400, "length_L": 1.0}}, "domain.horizon_T"),
            (
                {
                    "coefficients": {
                        "drift": {"family": "affine", "params": {"a": 0.0, "b": -(10**400)}},
                        "noise_coef": {"family": "zero"},
                    }
                },
                "coefficients.drift.params.b",
            ),
            (
                {"initial": {"family": "sine_mode", "params": {"mode": 10**400, "amplitude": 1.0}}},
                "initial.params.mode",
            ),
        ],
        ids=[
            "non-numeric-param",
            "null-params",
            "non-integer-grid",
            "non-numeric-alpha",
            "section-not-object",
            "non-numeric-override",
            "base-not-object",
            "string-flag",
            "fractional-integer",
            "boolean-integer",
            "boolean-family-param",
            "string-family-param",
            "boolean-family-mode",
            "string-table-entry",
            "integer-beyond-double",
            "family-param-beyond-double",
            "integer-mode-beyond-double",
        ],
    )
    def test_malformed_value_exits_validation(self, tmp_path, capsys, overrides, where):
        cfg = write_config(tmp_path, overrides)
        assert (
            main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
            == EXIT_VALIDATION
        )
        assert where in capsys.readouterr().err

    def test_integral_float_accepted_for_integer_key(self, tmp_path):
        cfg = write_config(tmp_path, {"grid": {"n_t": 16.0, "n_x": 8}})
        out = tmp_path / "o"
        assert main(["sample-noise", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["grid"]["n_t"] == 16

    def test_integral_float_accepted_for_family_mode(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"initial": {"family": "sine_mode", "params": {"mode": 1.0, "amplitude": 1}}},
        )
        out = tmp_path / "o"
        assert main(["sample-noise", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["initial"]["params"] == {"mode": 1, "amplitude": 1.0, "length": 1.0}

    def test_missing_family_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "coefficients": {
                    "drift": {"family": "quadratic", "params": {}},
                    "noise_coef": {"family": "zero"},
                }
            },
        )
        assert (
            main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
            == EXIT_VALIDATION
        )


class TestVerify:
    def test_stopping_law_only(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"experiments": {"stopping_law": {"K": 1.0, "n_paths": 500}}},
        )
        out = tmp_path / "o"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "reports" / "stopping_law.json").read_text())
        assert report["pass"] is True
        summary = json.loads((out / "reports" / "summary.json").read_text())
        assert summary["all_passed"] is True
        assert (out / "effective_config.json").exists()

    def test_gate_failure_is_validation_error(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "coefficients": {
                    "drift": {"family": "affine", "params": {"a": 0.0, "b": 0.2}},
                    "noise_coef": {
                        "family": "sine_modulated",
                        "params": {"amplitude": 1.0, "mode": 2, "u_slope": 1.0},
                    },
                },
                "experiments": {
                    "comparison": {
                        "n_paths": 2,
                        "problem_u": {"drift": {"family": "affine", "params": {"a": 0.0, "b": 0.2}}},
                    }
                },
            },
        )
        assert (
            main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
            == EXIT_VALIDATION
        )

    def test_failing_experiment_exits_4(self, tmp_path, capsys):
        # pure mode-1 forcing: every mode count shares the same
        # time-integration floor, so the required halving between the
        # first and last mode error fails deterministically
        cfg = write_config(
            tmp_path,
            {
                "coefficients": {
                    "drift": {
                        "family": "sine_modulated",
                        "params": {"amplitude": 0.5, "mode": 1, "u_slope": 0.0},
                    },
                    "noise_coef": {"family": "zero"},
                },
                "grid": {"n_t": 16, "n_x": 16},
                "experiments": {"galerkin_convergence": {"m_list": [2, 4]}},
            },
        )
        assert (
            main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
            == EXIT_EXPERIMENT
        )
        assert "galerkin_convergence" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("experiment, section, seed", [
        ("consistency", {"K_small": 0.5, "K_large": 1.0, "n_paths": 3}, path_seed(11, 0)),
        ("moment_estimate", {"n_paths": 2}, path_seed(11, 0)),
        ("nonnegativity", {"n_paths": 2, "tol": 1.0}, path_seed(11, 0)),
        ("galerkin_convergence", {"m_list": [1, 2]}, 11),  # one path, the master seed
    ], ids=["consistency", "moment_estimate", "nonnegativity", "galerkin_convergence"])
    def test_blow_up_names_experiment_path_seed_and_window(
        self, tmp_path, capsys, experiment, section, seed
    ):
        cfg = write_config(
            tmp_path,
            {
                "coefficients": {
                    "drift": {"family": "affine", "params": {"a": 0.0, "b": 1e21}},
                    "noise_coef": {"family": "zero"},
                },
                "experiments": {experiment: section},
            },
        )
        out = tmp_path / "o"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert f"{experiment} path 0:" in err, err
        assert f"noise seed {seed}" in err, err
        assert re.search(r"step \([\d.]+, [\d.]+\] of the mild solve", err), err

    @pytest.mark.parametrize(
        "experiments, where",
        [
            ({"stopping_law": {"K": 1.0, "n_paths": 2.5}}, "stopping_law.n_paths"),
            ({"stopping_law": {"K": 1.0, "n_paths": True}}, "stopping_law.n_paths"),
            ({"galerkin_convergence": {"m_list": ["x", 4]}}, "galerkin_convergence.m_list"),
            ({"galerkin_convergence": {"m_list": 4}}, "galerkin_convergence.m_list"),
        ],
        ids=["fractional-n-paths", "boolean-n-paths", "non-integer-m", "m-list-not-list"],
    )
    def test_malformed_experiment_value_exits_validation(
        self, tmp_path, capsys, experiments, where
    ):
        cfg = write_config(tmp_path, {"experiments": experiments})
        out = tmp_path / "o"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        assert where in capsys.readouterr().err
        assert not (out / "reports" / "stopping_law.json").exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"extra_section": {"a": 1}})
        assert (
            main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
            == EXIT_VALIDATION
        )

    def test_missing_version_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"version": None})
        assert (
            main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
            == EXIT_VALIDATION
        )

    def test_no_experiments_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        assert (
            main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
            == EXIT_VALIDATION
        )

    def test_omitted_length_takes_domain_length(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "domain": {"horizon_T": 1.0, "length_L": 2.0},
                "coefficients": {
                    "drift": {
                        "family": "sine_modulated",
                        "params": {"amplitude": 0.5, "mode": 1},
                    },
                    "noise_coef": {"family": "zero"},
                },
            },
        )
        out = tmp_path / "o"
        assert main(["sample-noise", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["coefficients"]["drift"]["params"]["length"] == 2.0
        assert effective["coefficients"]["drift"]["params"]["u_slope"] == 0.0
        assert effective["initial"]["params"]["length"] == 2.0

    @pytest.mark.parametrize(
        "params, extra, declared",
        [
            ({"length": 0.5}, {}, False),
            ({"length": 0.5}, {"monotone_in_u": True}, True),
            ({"length": 0.5, "u_slope": 0.0}, {}, True),
            ({}, {}, True),
        ],
        ids=["shorter-than-domain", "explicit-override", "ignores-u", "whole-domain"],
    )
    def test_sine_modulated_monotone_only_on_its_length(self, params, extra, declared):
        # with length 0.5 the sine is negative on (0.5, 1), where
        # f = sin(pi x / 0.5) * (1 + u) decreases in u
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["coefficients"]["noise_coef"] = {
            "family": "sine_modulated",
            "params": dict({"amplitude": 1.0, "mode": 1, "u_slope": 1.0}, **params),
            **extra,
        }
        noise_coef = RunConfig.parse(raw).problem.noise_coef
        assert noise_coef.monotone_in_u is declared

    def test_window_steps_accepted_and_ignored(self, tmp_path):
        # a v1 key with no effect: every output but the wall-time sidecars
        # is byte-identical whatever it says, and it is not echoed
        experiments = {
            "consistency": {"K_small": 0.5, "K_large": 1.0, "n_paths": 2},
            "galerkin_convergence": {"m_list": [1, 2]},
            "moment_estimate": {"n_paths": 2},
            "nonnegativity": {"n_paths": 2},
        }
        outputs = []
        for i, solver in enumerate(
            ({"window_steps": 1}, {"window_steps": 4}, {"method": "mild"})
        ):
            cfg = write_config(
                tmp_path,
                {"solver": solver, "experiments": experiments},
                name=f"config{i}.json",
            )
            out = tmp_path / f"o{i}"
            main(["verify", "--config", str(cfg), "--out", str(out)])
            outputs.append({
                p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file() and not p.name.endswith("_timing.json")
            })
        assert len(outputs[0]) > 8
        assert outputs[0] == outputs[1] == outputs[2]
        assert "window_steps" not in outputs[0]["effective_config.json"].decode()

    def test_effective_config_echoed_with_defaults(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"experiments": {"stopping_law": {"K": 1.0, "n_paths": 50}}},
        )
        out = tmp_path / "o"
        main(["verify", "--config", str(cfg), "--out", str(out)])
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["solver"]["method"] == "mild"
        assert effective["truncation"]["gaussian_correction"] is False
