import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from stableheat import experiments
from stableheat.cli import (
    EXIT_EXPERIMENT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    EXPERIMENT_ORDER,
    RunConfig,
    main,
)
from stableheat.experiments import path_seed
from stableheat.noise import SpaceTimeDomain, StableParams, TruncationSpec
from stableheat.solvers import GridSpec

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
# comparison and nonnegativity refuse two-sided jumps; consistency needs symmetric ones
ONE_SIDED = {"alpha": 1.5, "c_plus": 1.0, "c_minus": 0.0}


# A valid block per experiment, and per experiment one key that takes a
# malformed value and one required key.
VALID_BLOCKS = {
    "stopping_law": {"K": 1.0, "n_paths": 50},
    "consistency": {"K_small": 0.5, "K_large": 1.0},
    "galerkin_convergence": {"m_list": [1, 2]},
    "moment_estimate": {"n_paths": 2},
    "comparison": {
        "n_paths": 2,
        "problem_u": {
            "drift": {
                "family": "shifted",
                "params": {"base": BASE_CONFIG["coefficients"]["drift"], "delta": -0.5},
            },
        },
    },
    "nonnegativity": {"n_paths": 2},
}
MALFORMED = {
    "stopping_law": ("K", "one"),
    "consistency": ("K_small", True),
    "galerkin_convergence": ("m_list", [1, 2.5]),
    "moment_estimate": ("p", "two"),
    "comparison": ("n_paths", "big"),
    "nonnegativity": ("n_paths", [0.1]),
}
REQUIRED = {
    "stopping_law": "n_paths",
    "consistency": "K_large",
    "galerkin_convergence": "m_list",
    "moment_estimate": "n_paths",
    "comparison": "problem_u",
    "nonnegativity": "n_paths",
}


def malformed_block_cases():
    """(experiments, where) per experiment: a malformed number, a missing
    required key, an unknown key.  A valid stopping_law block comes first,
    so a config checked only when each block's turn comes samples noise."""
    for name, valid in VALID_BLOCKS.items():
        key, bad = MALFORMED[name]
        required = REQUIRED[name]
        for case, block, key in (
            ("malformed", dict(valid, **{key: bad}), key),
            ("missing", {k: v for k, v in valid.items() if k != required}, required),
            ("unknown", dict(valid, extra=1), "extra"),
        ):
            yield pytest.param(
                {"stopping_law": VALID_BLOCKS["stopping_law"], name: block},
                f"{name}.{key}",
                id=f"{name}-{case}-{key}",
            )


# The fixed sections of a config and the class each one builds.
SECTIONS = {
    "stable": StableParams,
    "truncation": TruncationSpec,
    "domain": SpaceTimeDomain,
    "grid": GridSpec,
}


def fixed_section_cases():
    """(section, block, where) per parameter of each section's class, read
    from its signature: a string, a boolean (for a key that is not a bool),
    the key missing (when it is required) and the key misspelled."""
    for section, cls in SECTIONS.items():
        for key, param in inspect.signature(cls).parameters.items():
            blocks = {"string": dict(BASE_CONFIG[section], **{key: "x"})}
            if param.annotation != "bool":
                blocks["boolean"] = dict(BASE_CONFIG[section], **{key: True})
            if param.default is param.empty:
                blocks["missing"] = {k: v for k, v in BASE_CONFIG[section].items() if k != key}
            blocks["unknown"] = dict(BASE_CONFIG[section], **{f"{key}_typo": 1.0})
            for case, block in blocks.items():
                where = f"{section}.{key}_typo" if case == "unknown" else f"{section}.{key}"
                yield pytest.param(section, block, where, id=f"{section}-{case}-{key}")


@pytest.fixture
def no_sampling(monkeypatch):
    """Fail the test if an experiment samples noise: the config is refused
    while it is read, before any path runs."""

    def sample_noise(*args, **kwargs):
        raise AssertionError("noise sampled before the config was refused")

    monkeypatch.setattr(experiments, "sample_noise", sample_noise)


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
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
        assert not out.exists()

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
                "coefficients.noise_coef.params.base",
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

    def test_malformed_experiment_block_rejected(self, tmp_path, capsys):
        # every command validates the whole config, experiment blocks included
        cfg = write_config(
            tmp_path, {"experiments": {"moment_estimate": {"n_paths": 2, "p": "two"}}}
        )
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        assert "moment_estimate.p" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("modes", [0, -3, 9], ids=["zero", "negative", "n_x-plus-1"])
    def test_modes_outside_one_to_n_x_exits_validation(self, tmp_path, capsys, modes):
        # the Galerkin solver's own limit at n_x = 8, refused before any output
        cfg = write_config(tmp_path, {"solver": {"method": "both", "modes": modes}})
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        assert "solver.modes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "n_x, solver, modes",
        [(2, {}, 1), (3, {}, 1), (4, {}, 1), (64, {}, 16), (128, {}, 16), (8, {"modes": 8}, 8)],
        ids=["default-2", "default-3", "default-4", "default-64", "default-128", "n_x"],
    )
    def test_modes_default_at_least_one_and_n_x_accepted(self, tmp_path, n_x, solver, modes):
        solver = dict(solver, method="both")
        cfg = write_config(tmp_path, {"grid": {"n_t": 4, "n_x": n_x}, "solver": solver})
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "solutions" / "discrepancy.json").read_text())["modes"] == modes

    @pytest.mark.parametrize(
        "overrides, where",
        [
            ({"noise_coef": {"monotone_in_u": "false"}}, "coefficients.noise_coef.monotone_in_u"),
            ({"noise_coef": {"monotone_in_u": 1}}, "coefficients.noise_coef.monotone_in_u"),
            ({"drift": {"lipschitz_bound": True}}, "coefficients.drift.lipschitz_bound"),
            ({"version": True}, "config.version"),
        ],
        ids=["string-flag-override", "number-flag-override", "boolean-bound-override",
             "boolean-version"],
    )
    def test_value_of_the_wrong_type_exits_validation(self, tmp_path, capsys, overrides, where):
        raw = json.loads(json.dumps(BASE_CONFIG))
        for key, value in overrides.items():
            if key in raw["coefficients"]:
                raw["coefficients"][key].update(value)
            else:
                raw[key] = value
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        assert where in capsys.readouterr().err
        assert not out.exists()

    def test_null_family_param_counts_as_absent(self, tmp_path):
        outputs = []
        for i, extra in enumerate(({}, {"u_slope": None})):
            noise_coef = {
                "family": "sine_modulated",
                "params": dict({"amplitude": 0.5, "mode": 1}, **extra),
            }
            cfg = write_config(
                tmp_path,
                {"coefficients": dict(BASE_CONFIG["coefficients"], noise_coef=noise_coef)},
                name=f"config{i}.json",
            )
            out = tmp_path / f"o{i}"
            assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            outputs.append({
                p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file()
            })
        assert len(outputs[0]) == 3
        assert outputs[0] == outputs[1]

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

    def test_gate_failure_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "stable": ONE_SIDED,
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
        assert "non-decreasing" in capsys.readouterr().err

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
        ("nonnegativity", {"n_paths": 2}, path_seed(11, 0)),
        ("galerkin_convergence", {"m_list": [1, 2]}, 11),  # one path, the master seed
    ], ids=["consistency", "moment_estimate", "nonnegativity", "galerkin_convergence"])
    def test_blow_up_names_experiment_path_seed_and_window(
        self, tmp_path, capsys, experiment, section, seed
    ):
        cfg = write_config(
            tmp_path,
            {
                "stable": ONE_SIDED if experiment == "nonnegativity" else BASE_CONFIG["stable"],
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
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiments, where",
        [
            pytest.param(
                {"stopping_law": {"K": 1.0, "n_paths": 2.5}}, "stopping_law.n_paths",
                id="fractional-n-paths",
            ),
            pytest.param(
                {"stopping_law": {"K": 1.0, "n_paths": True}}, "stopping_law.n_paths",
                id="boolean-n-paths",
            ),
            pytest.param(
                {"galerkin_convergence": {"m_list": ["x", 4]}},
                "galerkin_convergence.m_list[0]",
                id="non-integer-m",
            ),
            pytest.param(
                {"galerkin_convergence": {"m_list": 4}}, "galerkin_convergence.m_list",
                id="m-list-not-list",
            ),
            *malformed_block_cases(),
            *(
                # the verdict's bar is ten times the calibration error, not a key
                pytest.param(
                    {name: dict(VALID_BLOCKS[name], tol=1.0)}, f"{name}.tol", id=f"{name}-tol"
                )
                for name in ("comparison", "nonnegativity")
            ),
        ],
    )
    def test_malformed_experiment_value_exits_validation(
        self, tmp_path, capsys, no_sampling, experiments, where
    ):
        cfg = write_config(tmp_path, {"experiments": experiments})
        out = tmp_path / "o"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        assert where in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, block, where", list(fixed_section_cases()))
    def test_malformed_fixed_section_exits_validation(
        self, tmp_path, capsys, no_sampling, section, block, where
    ):
        cfg = write_config(
            tmp_path,
            {section: block, "experiments": {"stopping_law": VALID_BLOCKS["stopping_law"]}},
        )
        out = tmp_path / "o"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        assert where in capsys.readouterr().err
        assert not out.exists()

    def test_grid_rejected_where_the_experiment_takes_none(self, tmp_path, capsys):
        block = dict(VALID_BLOCKS["stopping_law"], grid={"n_t": 8, "n_x": 4})
        cfg = write_config(tmp_path, {"experiments": {"stopping_law": block}})
        out = tmp_path / "o"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        assert "stopping_law.grid" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_overrides_where_the_experiment_takes_one(self):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["experiments"] = {
            name: dict(block, grid={"n_t": 8, "n_x": 4}) if name != "stopping_law" else block
            for name, block in VALID_BLOCKS.items()
        }
        cfg = RunConfig.parse(raw)
        for name, kwargs in cfg.experiments.items():
            if name != "stopping_law":
                assert kwargs["grid"] == GridSpec(8, 4), name

    @pytest.mark.parametrize("name", list(VALID_BLOCKS))
    def test_each_valid_block_passes_validation(self, tmp_path, capsys, name):
        # each block alone, on the jump law its experiment accepts
        stable = ONE_SIDED if name in ("comparison", "nonnegativity") else BASE_CONFIG["stable"]
        cfg = write_config(tmp_path, {"stable": stable, "experiments": {name: VALID_BLOCKS[name]}})
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code != EXIT_VALIDATION, capsys.readouterr().err

    def test_nan_length_exits_validation(self, tmp_path, capsys):
        # Python's json reads NaN; the domain refuses it before any sampling
        cfg = tmp_path / "config.json"
        raw = dict(BASE_CONFIG, experiments={"stopping_law": VALID_BLOCKS["stopping_law"]})
        cfg.write_text(json.dumps(dict(raw, domain={"horizon_T": 1.0, "length_L": math.nan})))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == (
            EXIT_VALIDATION
        )
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, overrides, where",
        [
            (["--seed", "-1"], {}, "--seed"),
            ([], {"master_seed": -1}, "config.master_seed"),
            (["--threads", "0"], {}, "--threads"),
            (["--threads", "-2"], {}, "--threads"),
        ],
    )
    def test_bad_seed_or_worker_count_exits_validation(
        self, tmp_path, capsys, flags, overrides, where
    ):
        overrides = dict(overrides, experiments={"moment_estimate": {"n_paths": 2}})
        cfg = write_config(tmp_path, overrides)
        argv = ["verify", "--config", str(cfg), "--out", str(tmp_path / "o"), *flags]
        assert main(argv) == EXIT_VALIDATION
        assert where in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # refused before any output

    @pytest.mark.parametrize("command", ["sample-noise", "solve"])
    def test_threads_is_a_verify_flag(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o"), "--threads", "2"]
        with pytest.raises(SystemExit) as refused:
            main(argv)
        assert refused.value.code == 2  # argparse's usage error
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_experiment_order_names_every_run(self):
        runs = {n.removeprefix("run_") for n in experiments.__all__ if n.startswith("run_")}
        assert set(EXPERIMENT_ORDER) == runs
        assert set(VALID_BLOCKS) == runs

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
            "comparison": {
                "n_paths": 2,
                "problem_u": {
                    "drift": {
                        "family": "shifted",
                        "params": {"base": BASE_CONFIG["coefficients"]["drift"], "delta": -0.5},
                    },
                },
            },
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
                {"stable": ONE_SIDED, "solver": solver, "experiments": experiments},
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


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Shipped configs with one value changed that only the command's own run
# refuses: a declared bound that the solve's audit refutes, an ordering that
# the comparison gate refutes, and a p that moment_estimate refuses after
# three experiments have run.
LATE_REFUSALS = [
    pytest.param(
        "solve", "desk_verify.json", ("coefficients", "drift", "lipschitz_bound"), 0.01,
        "Lipschitz bound", id="solve-audit",
    ),
    pytest.param(
        "verify", "comparison_demo.json",
        ("experiments", "comparison", "problem_u", "drift", "params", "delta"), 0.5,
        "ordering f <= g", id="comparison-gate",
    ),
    pytest.param(
        "verify", "desk_verify.json", ("experiments", "moment_estimate", "p"), 1.2,
        "p must lie in", id="moment-estimate-p",
    ),
]


@pytest.mark.parametrize("command, name, keys, value, why", LATE_REFUSALS)
def test_a_refused_run_writes_nothing(tmp_path, capsys, command, name, keys, value, why):
    raw = json.loads((CONFIGS / name).read_text())
    section = raw
    for key in keys[:-1]:
        section = section[key]
    section[keys[-1]] = value
    cfg = tmp_path / name
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert why in capsys.readouterr().err
    assert not out.exists()
