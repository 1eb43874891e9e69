"""Single command-line entry point: sample, solve, verify.

Every run is driven by one versioned JSON config; all randomness flows
from its single master seed (or the ``--seed`` override), so any output
is reproducible from the config file alone.  Each JSON object's keys
are the parameters of the constructor it builds (see ``_kwargs``);
unknown keys are rejected rather than ignored, and every command
validates the whole config, experiment blocks included, before it runs
anything.

Exit codes: 0 success, 2 validation/config error, 3 numerical error,
4 experiment failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import coefficients as coef
from . import experiments as exp
from .errors import (
    ConfigError,
    NumericalError,
    ParameterError,
    StableHeatError,
)
from .noise import (
    SpaceTimeDomain,
    StableParams,
    TruncationSpec,
    expected_jump_count,
    sample_noise,
)
from .solvers import (
    GridSpec,
    ProblemSpec,
    grid_h_norm,
    solve_galerkin,
    solve_mild,
    spectral_to_grid,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_EXPERIMENT = 4

CONFIG_VERSION = 1

# Fixed execution order so report files are written deterministically.
EXPERIMENT_ORDER = (
    "stopping_law",
    "consistency",
    "galerkin_convergence",
    "moment_estimate",
    "comparison",
    "nonnegativity",
)


def _object(section, where: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    return section


def _require_keys(section, allowed: set, required: set, where: str) -> None:
    """A required key that is null counts as missing; errors name ``where.key``."""
    unknown = set(_object(section, where)) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {[f'{where}.{k}' for k in sorted(unknown)]}")
    missing = {key for key in required if section.get(key) is None}
    if missing:
        raise ConfigError(f"missing key(s) {[f'{where}.{k}' for k in sorted(missing)]}")


def _scalar(kind, value, where: str):
    """``kind(value)`` for a JSON number; ``int`` also refuses fractions."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (kind is int and isinstance(value, float) and not value.is_integer())
    ):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where} must be {noun}, got {value!r}")
    try:
        float(value)  # an integer longer than any double is refused, int or not
    except OverflowError:
        raise ConfigError(f"{where} must be a number within the double range") from None
    return kind(value)


@functools.cache
def _parameters(fn):
    """The parameters of ``fn``'s signature, read once per function."""
    return inspect.signature(fn).parameters


# Annotations (strings: every module postpones them) of the parameters
# that hold a JSON number or a list of them.
_NUMBER_KINDS = {"float": float, "int": int, "float | None": float}
_LIST_KINDS = {"Sequence[float]": float, "Sequence[int]": int}


def _typed(annotation: str, value, where: str):
    """``value`` as the JSON type that ``annotation`` names: numbers under the
    rule of ``_scalar``, a ``bool`` only true or false, anything else as is."""
    if annotation in _NUMBER_KINDS:
        return _scalar(_NUMBER_KINDS[annotation], value, where)
    if annotation == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"{where} must be true or false, got {value!r}")
        return value
    if annotation in _LIST_KINDS:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        kind = _LIST_KINDS[annotation]
        return [_scalar(kind, v, f"{where}[{i}]") for i, v in enumerate(value)]
    return value


def _kwargs(fn, section, where: str, supplied=(), *, required: bool = True) -> dict:
    """Keyword arguments of ``fn`` read from the JSON object ``section``.

    Every parameter of ``fn`` not named in ``supplied`` is a key; it is
    required when it has no default (and ``required`` holds), and its
    annotation gives its JSON type through ``_typed``.  A null counts as
    absent.  Errors name ``where.key``.
    """
    params = _parameters(fn)
    keys = set(params) - set(supplied)
    needed = {k for k in keys if params[k].default is params[k].empty} if required else set()
    _require_keys(section, keys, needed, where)
    return {
        k: _typed(params[k].annotation, v, f"{where}.{k}")
        for k, v in section.items()
        if v is not None
    }


def _number(kind, section: dict, key: str, where: str, default=None):
    """``kind(section[key])``, or ``default`` when the key is absent or null."""
    value = section.get(key)
    return default if value is None else _scalar(kind, value, f"{where}.{key}")


def _parse_family(section, table: dict, length_L: float, where: str):
    """Build a coefficient or an initial condition from its config entry.

    ``table`` maps family names to entries whose ``make`` is the family's
    constructor; ``params`` are its keyword arguments, read by
    ``_kwargs``.  An omitted ``length`` takes the domain length and a
    ``base`` is parsed as a nested entry.  A ``sine_modulated`` entry
    shorter than the domain is not declared monotone in u unless it
    ignores u.  The entry's other keys override fields of the built
    object, such as a coefficient's declared bounds, typed by the
    annotations of its class and all optional.
    """
    _require_keys(section, set(_object(section, where)), {"family"}, where)
    family = section["family"]
    if not isinstance(family, str) or family not in table:
        raise ConfigError(f"unknown family {family!r} in {where}")
    make = table[family].make
    params = section.get("params")
    params = {} if params is None else dict(_object(params, f"{where}.params"))
    if "length" in _parameters(make) and params.get("length") is None:
        params["length"] = length_L
    if params.get("base") is not None:
        params["base"] = _parse_family(params["base"], table, length_L, where + ".params.base")
    params = _kwargs(make, params, f"{where}.params")
    overrides = {k: v for k, v in section.items() if k not in ("family", "params")}
    try:
        built = make(**params)
        p = built.params
        if family == "sine_modulated" and p["length"] < length_L:
            # Monotone in u for x in [0, length] only: beyond it the sine
            # turns negative, and f decreases in u unless it ignores u.
            ignores_u = p["amplitude"] * p["u_slope"] == 0.0
            built = replace(built, monotone_in_u=built.monotone_in_u and ignores_u)
        if overrides:
            changes = _kwargs(type(built), overrides, where, ("family", "params"), required=False)
            built = replace(built, **changes)
        return built
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value in {where}: {exc}") from exc


def _experiment_args(name: str, section, problem: ProblemSpec, grid: GridSpec, seed: int):
    """Keyword arguments of ``run_<name>`` from its config block.

    The run supplies the problem (``problem``, ``problem_v``, ``params``,
    ``dom``), the grid, the master seed and the worker count; every other
    parameter of ``run_<name>`` is a key, read by ``_kwargs``.  A ``grid``
    block overrides the grid of an experiment that takes one, and
    ``problem_u`` replaces the drift, and optionally the initial
    condition, of the config's problem.
    """
    run = getattr(exp, f"run_{name}")
    supplied = dict(
        problem=problem, problem_v=problem, params=problem.params, dom=problem.dom,
        grid=grid, seed=seed,
    )
    block = dict(_object(section, name))
    grid_block = block.pop("grid", None) if "grid" in _parameters(run) else None
    kwargs = _kwargs(run, block, name, (*supplied, "threads"))
    kwargs.update((k, v) for k, v in supplied.items() if k in _parameters(run))
    if grid_block is not None:
        kwargs["grid"] = GridSpec(**_kwargs(GridSpec, grid_block, f"{name}.grid"))
    if "problem_u" in kwargs:
        where, value = f"{name}.problem_u", kwargs["problem_u"]
        _require_keys(value, {"drift", "initial"}, {"drift"}, where)
        L = problem.dom.length_L
        drift = _parse_family(value["drift"], coef.COEFFICIENT_FAMILIES, L, f"{where}.drift")
        init = problem.init
        if value.get("initial") is not None:
            init = _parse_family(value["initial"], coef.INITIAL_FAMILIES, L, f"{where}.initial")
        kwargs["problem_u"] = replace(problem, drift=drift, init=init)
    return kwargs


@dataclass
class RunConfig:
    """Validated configuration with all module objects materialized."""

    master_seed: int
    problem: ProblemSpec
    grid: GridSpec
    solver_method: str
    solver_window_steps: int | None  # ignored; held for perfbench (ROADMAP item 1)
    solver_modes: int
    experiments: dict  # name -> keyword arguments of run_<name>, in EXPERIMENT_ORDER
    output_dir: str
    effective: dict

    @staticmethod
    def parse(raw: dict, *, seed_override: int | None = None) -> "RunConfig":
        required = {
            "version",
            "master_seed",
            "stable",
            "truncation",
            "domain",
            "grid",
            "coefficients",
            "initial",
        }
        optional = {"solver", "experiments", "output_dir"}
        _require_keys(raw, required | optional, required, "config")
        version = _number(int, raw, "version", "config")
        if version != CONFIG_VERSION:
            raise ConfigError(
                f"unsupported config version {version!r}; expected {CONFIG_VERSION}"
            )

        params = StableParams(**_kwargs(StableParams, raw["stable"], "stable"))
        trunc = TruncationSpec(**_kwargs(TruncationSpec, raw["truncation"], "truncation"))
        dom = SpaceTimeDomain(**_kwargs(SpaceTimeDomain, raw["domain"], "domain"))
        grid = GridSpec(**_kwargs(GridSpec, raw["grid"], "grid"))

        sec = raw["coefficients"]
        _require_keys(sec, {"drift", "noise_coef"}, {"drift", "noise_coef"}, "coefficients")
        drift, noise_coef = (
            _parse_family(sec[k], coef.COEFFICIENT_FAMILIES, dom.length_L, f"coefficients.{k}")
            for k in ("drift", "noise_coef")
        )
        init = _parse_family(raw["initial"], coef.INITIAL_FAMILIES, dom.length_L, "initial")
        problem = ProblemSpec(params, trunc, dom, drift, noise_coef, init)

        solver = raw.get("solver", {})
        # "tol" and "window_steps" are v1 keys with no effect: solve_mild
        # computes the exact fixed point in one pass over the whole horizon.
        # They are accepted so that existing configs still load, and they
        # are not echoed.
        _require_keys(
            solver, {"method", "tol", "window_steps", "modes"}, set(), "solver"
        )
        method = solver.get("method", "mild")
        if method not in ("mild", "galerkin", "both"):
            raise ConfigError("solver.method must be one of mild, galerkin, both")
        window_steps = _number(int, solver, "window_steps", "solver")
        modes = _number(int, solver, "modes", "solver", min(16, grid.n_x // 4))

        master_seed = _number(int, raw, "master_seed", "config")
        if seed_override is not None:
            master_seed = int(seed_override)

        blocks = raw.get("experiments", {})
        _require_keys(blocks, set(EXPERIMENT_ORDER), set(), "experiments")
        experiments = {
            name: _experiment_args(name, blocks[name], problem, grid, master_seed)
            for name in EXPERIMENT_ORDER
            if name in blocks
        }
        canonical = problem.canonical()
        effective = {
            "version": CONFIG_VERSION,
            "master_seed": master_seed,
            "stable": canonical["params"],
            "truncation": canonical["truncation"],
            "domain": canonical["domain"],
            "grid": {"n_t": grid.n_t, "n_x": grid.n_x},
            "coefficients": {
                "drift": canonical["drift"],
                "noise_coef": canonical["noise_coef"],
            },
            "initial": canonical["init"],
            "solver": {"method": method, "modes": modes},
            "experiments": blocks,
            "output_dir": raw.get("output_dir", "stableheat-out"),
        }
        return RunConfig(
            master_seed=master_seed,
            problem=problem,
            grid=grid,
            solver_method=method,
            solver_window_steps=window_steps,
            solver_modes=modes,
            experiments=experiments,
            output_dir=effective["output_dir"],
            effective=effective,
        )


def _load_config(path: str, seed_override: int | None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return RunConfig.parse(raw, seed_override=seed_override)


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _echo_config(cfg: RunConfig, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "effective_config.json"), cfg.effective)


def _config_hash(cfg: RunConfig) -> str:
    blob = json.dumps(cfg.effective, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# -- subcommands ----------------------------------------------------------


def cmd_sample_noise(cfg: RunConfig, out_dir: str) -> int:
    """Write one noise realization in the columnar format plus metadata."""
    _echo_config(cfg, out_dir)
    noise_dir = os.path.join(out_dir, "noise")
    os.makedirs(noise_dir, exist_ok=True)
    realization = sample_noise(
        cfg.problem.params, cfg.problem.trunc, cfg.problem.dom, cfg.master_seed
    )
    base = os.path.join(noise_dir, f"noise_seed{cfg.master_seed}")
    realization.save_text(base + ".txt")
    _write_json(
        base + ".meta.json",
        {
            "config_hash": _config_hash(cfg),
            "seed": cfg.master_seed,
            "n_jumps": realization.jump_count,
            "compensator_mu": realization.compensator_mu,
            "expected_jump_count": expected_jump_count(
                cfg.problem.params, cfg.problem.trunc, cfg.problem.dom
            ),
        },
    )
    return EXIT_OK


def cmd_solve(cfg: RunConfig, out_dir: str) -> int:
    """Run the selected solver(s) and write CSV + metadata (+ discrepancy)."""
    _echo_config(cfg, out_dir)
    sol_dir = os.path.join(out_dir, "solutions")
    os.makedirs(sol_dir, exist_ok=True)
    cfg.problem.validate()
    realization = sample_noise(
        cfg.problem.params, cfg.problem.trunc, cfg.problem.dom, cfg.master_seed
    )
    solvers = {
        "mild": lambda: solve_mild(cfg.problem, realization, cfg.grid),
        "galerkin": lambda: spectral_to_grid(
            solve_galerkin(cfg.problem, realization, cfg.solver_modes, cfg.grid)
        ),
    }
    written = {}
    for name, solve in solvers.items():
        if cfg.solver_method not in (name, "both"):
            continue
        sol = written[name] = solve()
        sol.save_csv(os.path.join(sol_dir, f"{name}.csv"))
        meta = sol.metadata()
        meta.update({"config_hash": _config_hash(cfg), "seed": cfg.master_seed})
        _write_json(os.path.join(sol_dir, f"{name}.meta.json"), meta)
    if cfg.solver_method == "both":
        mild, galerkin = written["mild"], written["galerkin"]
        delta = mild.values - galerkin.values
        dx = cfg.grid.dx(cfg.problem.dom.length_L)
        _write_json(
            os.path.join(sol_dir, "discrepancy.json"),
            {
                "max_abs_difference": float(np.abs(delta).max()),
                "max_h_norm_difference": float(grid_h_norm(delta, dx).max()),
                "modes": cfg.solver_modes,
            },
        )
    return EXIT_OK


def cmd_verify(cfg: RunConfig, out_dir: str, threads: int = 1) -> int:
    """Run every selected experiment; exit 0 only if all pass."""
    if not cfg.experiments:
        raise ConfigError("verify requires at least one experiment in the config")
    _echo_config(cfg, out_dir)
    report_dir = os.path.join(out_dir, "reports")
    os.makedirs(report_dir, exist_ok=True)
    outcomes = []
    for name, kwargs in cfg.experiments.items():
        report = getattr(exp, f"run_{name}")(**kwargs, threads=threads)
        report.write(report_dir)
        outcomes.append((name, report.passed))
    _write_json(
        os.path.join(report_dir, "summary.json"),
        {
            "config_hash": _config_hash(cfg),
            "results": {name: passed for name, passed in outcomes},
            "all_passed": all(p for _, p in outcomes),
        },
    )
    failing = [name for name, passed in outcomes if not passed]
    if failing:
        print(f"experiment failed: {failing[0]} (see {report_dir})", file=sys.stderr)
        return EXIT_EXPERIMENT
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stableheat",
        description="Sampling, solving, and verification for the truncated "
        "jump-noise heat equation laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("sample-noise", "solve", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--threads", type=int, default=1, help="path-level workers")

    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config, args.seed)
        out_dir = args.out or cfg.output_dir
        if args.command == "sample-noise":
            return cmd_sample_noise(cfg, out_dir)
        if args.command == "solve":
            return cmd_solve(cfg, out_dir)
        return cmd_verify(cfg, out_dir, threads=args.threads)
    except ParameterError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except StableHeatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
