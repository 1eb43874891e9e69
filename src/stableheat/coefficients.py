"""Closed registry of coefficient families and initial conditions.

Coefficients are declarative (family name plus parameters), never
arbitrary user code: that keeps configs serializable, lets the Lipschitz
/ growth / monotonicity metadata be derived analytically, and makes
every audit reproducible.  The registered families:

==================  ====================================================
zero                0
constant            c
affine              a + b*u
clipped_linear      clip(slope*u, -cap, cap)
sine_modulated      amplitude * sin(mode*pi*x/length) * (1 + u_slope*u)
shifted             base(t, x, u) + delta
==================  ====================================================

A family is one entry of ``COEFFICIENT_FAMILIES`` (or, for initial
conditions, ``INITIAL_FAMILIES``), keyed by its name: its constructor,
its evaluator and, for coefficients, its zero-state rule and extra
extreme u-points.  Evaluation, the structural checks, the audits and the
config parser read only that table, so adding a family takes one entry.

Each constructor fills in tight declared bounds; audits re-check the
declarations by randomized finite differences plus the family's
analytic extreme points, and any failure carries a concrete witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import HypothesisError, ParameterError

__all__ = [
    "CoefficientSpec",
    "InitialCondition",
    "AuditReport",
    "zero",
    "constant",
    "affine",
    "clipped_linear",
    "sine_modulated",
    "shifted",
    "validate_hypothesis",
    "dominates",
    "ic_zero",
    "ic_constant",
    "ic_sine_mode",
    "ic_bump",
    "ic_tabulated",
]

@dataclass(frozen=True)
class CoefficientSpec:
    """One registered coefficient with machine-checkable metadata."""

    family: str
    params: Mapping[str, Any]
    lipschitz_bound: float
    growth_bound: float
    monotone_in_u: bool

    def __post_init__(self):
        if self.family not in COEFFICIENT_FAMILIES:
            raise ParameterError(f"unknown coefficient family {self.family!r}")
        if self.lipschitz_bound < 0.0 or self.growth_bound < 0.0:
            raise ParameterError("declared bounds must be non-negative")

    def evaluate(self, t, x, u):
        """Pure pointwise evaluation; arguments broadcast together."""
        tb = np.asarray(t, float)
        xb = np.asarray(x, float)
        ub = np.asarray(u, float)
        shape = np.broadcast_shapes(tb.shape, xb.shape, ub.shape)
        out = COEFFICIENT_FAMILIES[self.family].evaluate(self.params, tb, xb, ub)
        if out.shape != shape:
            out = np.broadcast_to(out, shape).copy()
        return out if out.ndim else float(out)

    def vanishes_at_zero_state(self) -> bool:
        """True when the family gives f(t, x, 0) = 0 identically (analytic)."""
        return COEFFICIENT_FAMILIES[self.family].vanishes_at_zero(self.params)

    def canonical(self) -> dict:
        """JSON-friendly canonical form (used in config echo and hashing)."""
        return {
            "family": self.family,
            "params": {
                k: v.canonical() if isinstance(v, CoefficientSpec) else v
                for k, v in self.params.items()
            },
            "lipschitz_bound": self.lipschitz_bound,
            "growth_bound": self.growth_bound,
            "monotone_in_u": self.monotone_in_u,
        }


def zero() -> CoefficientSpec:
    return CoefficientSpec("zero", {}, 0.0, 0.0, True)


def constant(value: float) -> CoefficientSpec:
    return CoefficientSpec("constant", {"value": float(value)}, 0.0, abs(value), True)


def affine(a: float, b: float) -> CoefficientSpec:
    return CoefficientSpec(
        "affine",
        {"a": float(a), "b": float(b)},
        abs(b),
        max(abs(a), abs(b)),
        b >= 0.0,
    )


def clipped_linear(slope: float, cap: float) -> CoefficientSpec:
    if cap <= 0.0:
        raise ParameterError("cap must be positive")
    return CoefficientSpec(
        "clipped_linear",
        {"slope": float(slope), "cap": float(cap)},
        abs(slope),
        min(abs(slope), cap),
        slope >= 0.0,
    )


def _sine_mode(mode, length) -> int:
    if not float(mode).is_integer() or mode < 1 or length <= 0.0:
        raise ParameterError(f"mode must be an integer >= 1 and length positive, got {mode!r}")
    return int(mode)


def sine_modulated(
    amplitude: float, mode: int, u_slope: float = 0.0, length: float = 1.0
) -> CoefficientSpec:
    mode = _sine_mode(mode, length)
    monotone = mode == 1 and amplitude * u_slope >= 0.0
    return CoefficientSpec(
        "sine_modulated",
        {
            "amplitude": float(amplitude),
            "mode": mode,
            "u_slope": float(u_slope),
            "length": float(length),
        },
        abs(amplitude * u_slope),
        abs(amplitude) * max(1.0, abs(u_slope)),
        monotone,
    )


def shifted(base: CoefficientSpec, delta: float) -> CoefficientSpec:
    return CoefficientSpec(
        "shifted",
        {"base": base, "delta": float(delta)},
        base.lipschitz_bound,
        base.growth_bound + abs(delta),
        base.monotone_in_u,
    )


class Family(NamedTuple):
    """One registered family of coefficients or of initial conditions.

    ``make`` is the public constructor, whose parameters are the config
    ``params``.  ``evaluate`` is the formula on the ``params`` mapping p:
    ``evaluate(p, t, x, u)`` for a coefficient, broadcast by
    :meth:`CoefficientSpec.evaluate`, and ``evaluate(p, x)`` for an
    initial condition.  Coefficients also carry the analytic zero-state
    rule ``vanishes_at_zero(p)`` and ``u_edges(p)``, the u-values where
    the formula has a kink, which the audits sample.
    """

    make: Callable[..., Any]
    evaluate: Callable[..., Any]
    vanishes_at_zero: Callable[[Mapping], bool] | None = None
    u_edges: Callable[[Mapping], list] = lambda p: []


def _clip_edges(p) -> list:
    if p["slope"] == 0.0:
        return []
    edge = p["cap"] / abs(p["slope"])
    return [edge, -edge]


COEFFICIENT_FAMILIES = {
    "zero": Family(zero, lambda p, t, x, u: np.float64(0.0), lambda p: True),
    "constant": Family(
        constant,
        lambda p, t, x, u: np.float64(p["value"]),
        lambda p: p["value"] == 0.0,
    ),
    "affine": Family(
        affine, lambda p, t, x, u: p["a"] + p["b"] * u, lambda p: p["a"] == 0.0
    ),
    "clipped_linear": Family(
        clipped_linear,
        lambda p, t, x, u: np.clip(p["slope"] * u, -p["cap"], p["cap"]),
        lambda p: True,
        _clip_edges,
    ),
    "sine_modulated": Family(
        sine_modulated,
        lambda p, t, x, u: p["amplitude"]
        * np.sin(p["mode"] * math.pi * x / p["length"])
        * (1.0 + p["u_slope"] * u),
        lambda p: p["amplitude"] == 0.0,
    ),
    "shifted": Family(
        shifted,
        lambda p, t, x, u: np.asarray(p["base"].evaluate(t, x, u)) + p["delta"],
        lambda p: p["base"].vanishes_at_zero_state() and p["delta"] == 0.0,
        lambda p: COEFFICIENT_FAMILIES[p["base"].family].u_edges(p["base"].params),
    ),
}


# -- audits -------------------------------------------------------------

# Seed, state range and sample count of every audit, so that a verdict is a
# pure function of the coefficients and the (t, x) ranges audited.
_AUDIT_SEED = 0
_AUDIT_U_RANGE = (-50.0, 50.0)
_AUDIT_SAMPLES = 10000


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a randomized coefficient audit."""

    passed: bool
    n_samples: int
    checked: tuple[str, ...]
    witness: tuple | None = None
    message: str = ""


def _sample_points(n, t_range, x_range, extremes):
    """n random (t, x, u, v) points, then u = ``extremes`` (v reversed)
    at the earliest time, spread over the x range."""
    rng = np.random.default_rng(_AUDIT_SEED)
    k = extremes.size
    t = np.concatenate([rng.uniform(*t_range, size=n), np.full(k, t_range[0])])
    x = np.concatenate([rng.uniform(*x_range, size=n), np.linspace(*x_range, k)])
    u = np.concatenate([rng.uniform(*_AUDIT_U_RANGE, size=n), extremes])
    v = np.concatenate([rng.uniform(*_AUDIT_U_RANGE, size=n), np.flip(extremes)])
    return t, x, u, v


def _u_extremes(spec: CoefficientSpec) -> np.ndarray:
    edges = COEFFICIENT_FAMILIES[spec.family].u_edges(spec.params)
    return np.asarray([*_AUDIT_U_RANGE, 0.0, *edges])


def validate_hypothesis(
    spec: CoefficientSpec,
    require_monotone: bool = False,
    *,
    n_samples: int = _AUDIT_SAMPLES,
    t_range=(0.0, 1.0),
    x_range=(0.0, 1.0),
) -> AuditReport:
    """Randomized audit of the declared Lipschitz/growth/monotone metadata.

    Raises :class:`HypothesisError` with a witness tuple on the first
    violation; the audit samples random (t, x, u, v) quadruples plus the
    family's analytic extreme u-values, so a pass is backed by at least
    ``n_samples`` points.
    """
    slack = 1e-9 * (1.0 + spec.lipschitz_bound + spec.growth_bound)
    t_all, x_all, u_all, v_all = _sample_points(
        n_samples, t_range, x_range, _u_extremes(spec)
    )

    fu = np.asarray(spec.evaluate(t_all, x_all, u_all))
    fv = np.asarray(spec.evaluate(t_all, x_all, v_all))

    lip_lhs = np.abs(fu - fv)
    lip_rhs = spec.lipschitz_bound * np.abs(u_all - v_all) + slack
    bad = np.flatnonzero(lip_lhs > lip_rhs)
    if bad.size:
        i = int(bad[0])
        witness = (float(t_all[i]), float(x_all[i]), float(u_all[i]), float(v_all[i]))
        raise HypothesisError(
            f"Lipschitz bound {spec.lipschitz_bound} violated at "
            f"(t,x,u,v)={witness}: |f(u)-f(v)|={lip_lhs[i]:.6g}",
            witness=witness,
        )

    growth_bad = np.flatnonzero(
        np.abs(fu) > spec.growth_bound * (1.0 + np.abs(u_all)) + slack
    )
    if growth_bad.size:
        i = int(growth_bad[0])
        witness = (float(t_all[i]), float(x_all[i]), float(u_all[i]))
        raise HypothesisError(
            f"growth bound {spec.growth_bound} violated at (t,x,u)={witness}",
            witness=witness,
        )

    checked = ["lipschitz", "growth"]
    if require_monotone:
        if not spec.monotone_in_u:
            raise HypothesisError(
                f"family {spec.family!r} with params {dict(spec.params)} is not "
                "declared monotone in u",
                witness=None,
            )
        lo = np.minimum(u_all, v_all)
        hi = np.maximum(u_all, v_all)
        flo = np.asarray(spec.evaluate(t_all, x_all, lo))
        fhi = np.asarray(spec.evaluate(t_all, x_all, hi))
        mono_bad = np.flatnonzero(flo > fhi + slack)
        if mono_bad.size:
            i = int(mono_bad[0])
            witness = (float(t_all[i]), float(x_all[i]), float(lo[i]), float(hi[i]))
            raise HypothesisError(
                f"monotonicity violated at (t,x,u,v)={witness}", witness=witness
            )
        checked.append("monotone")

    return AuditReport(
        passed=True,
        n_samples=int(t_all.size),
        checked=tuple(checked),
    )


def dominates(
    spec_f: CoefficientSpec,
    spec_g: CoefficientSpec,
    *,
    t_range=(0.0, 1.0),
    x_range=(0.0, 1.0),
) -> AuditReport:
    """Randomized check that f <= g on the sampled set (ordering gate)."""
    extremes = np.concatenate([_u_extremes(spec_f), _u_extremes(spec_g)])
    t, x, u, _ = _sample_points(_AUDIT_SAMPLES, t_range, x_range, extremes)
    fv = np.asarray(spec_f.evaluate(t, x, u))
    gv = np.asarray(spec_g.evaluate(t, x, u))
    slack = 1e-12 * (1.0 + np.abs(gv))
    bad = np.flatnonzero(fv > gv + slack)
    if bad.size:
        i = int(bad[0])
        witness = (float(t[i]), float(x[i]), float(u[i]))
        raise HypothesisError(
            f"ordering f <= g violated at (t,x,u)={witness}: "
            f"f={fv[i]:.6g} > g={gv[i]:.6g}",
            witness=witness,
        )
    return AuditReport(passed=True, n_samples=int(u.size), checked=("ordering",))


# -- initial conditions ---------------------------------------------------

@dataclass(frozen=True)
class InitialCondition:
    """Initial profile on [0, L], declarative like the coefficients."""

    family: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in INITIAL_FAMILIES:
            raise ParameterError(f"unknown initial-condition family {self.family!r}")

    def values(self, x) -> np.ndarray:
        xa = np.asarray(x, dtype=float)
        return INITIAL_FAMILIES[self.family].evaluate(self.params, xa)

    def validate_dirichlet(self, length_L: float, n_check: int = 512) -> None:
        """Finiteness plus exact vanishing at both endpoints."""
        xs = np.linspace(0.0, length_L, n_check)
        v = self.values(xs)
        if not np.all(np.isfinite(v)):
            raise ParameterError("initial condition is non-finite on [0, L]")
        if abs(float(self.values(0.0))) > 1e-14 or abs(
            float(self.values(length_L))
        ) > 1e-12 * (1.0 + float(np.max(np.abs(v)))):
            raise ParameterError(
                "initial condition must vanish at x=0 and x=L for the "
                "absorbing boundary"
            )

    def is_nonnegative(self, length_L: float, n_check: int = 2048) -> bool:
        xs = np.linspace(0.0, length_L, n_check)
        return bool(np.all(self.values(xs) >= 0.0))

    def canonical(self) -> dict:
        p = {
            k: (list(v) if isinstance(v, (np.ndarray, list, tuple)) else v)
            for k, v in self.params.items()
        }
        return {"family": self.family, "params": p}


def ic_zero() -> InitialCondition:
    return InitialCondition("zero", {})


def ic_constant(value: float) -> InitialCondition:
    return InitialCondition("constant", {"value": float(value)})


def ic_sine_mode(mode: int, amplitude: float, length: float) -> InitialCondition:
    mode = _sine_mode(mode, length)
    return InitialCondition(
        "sine_mode",
        {"mode": mode, "amplitude": float(amplitude), "length": float(length)},
    )


def ic_bump(amplitude: float, center: float, width: float) -> InitialCondition:
    if width <= 0.0:
        raise ParameterError("width must be positive")
    return InitialCondition(
        "bump",
        {"amplitude": float(amplitude), "center": float(center), "width": float(width)},
    )


def ic_tabulated(xs: Sequence[float], values: Sequence[float]) -> InitialCondition:
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    if xs.ndim != 1 or xs.shape != values.shape or xs.size < 2:
        raise ParameterError("tabulated initial condition needs matching 1-d tables")
    return InitialCondition(
        "tabulated", {"xs": tuple(xs.tolist()), "values": tuple(values.tolist())}
    )


def _bump_values(p, x) -> np.ndarray:
    half = 0.5 * p["width"]
    s = (x - p["center"]) / half
    out = np.zeros_like(x)
    inside = np.abs(s) < 1.0
    out[inside] = p["amplitude"] * np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


INITIAL_FAMILIES = {
    "zero": Family(ic_zero, lambda p, x: np.zeros_like(x)),
    "constant": Family(ic_constant, lambda p, x: np.full_like(x, p["value"])),
    "sine_mode": Family(
        ic_sine_mode,
        lambda p, x: p["amplitude"] * np.sin(p["mode"] * math.pi * x / p["length"]),
    ),
    "bump": Family(ic_bump, _bump_values),
    "tabulated": Family(ic_tabulated, lambda p, x: np.interp(x, p["xs"], p["values"])),
}
