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
its formula and, for coefficients, its zero-state rule and extra
extreme u-points.  Evaluation, the structural checks, the audits and the
config parser read only that table, so adding a family takes one entry.
``CoefficientSpec.bind`` resolves the parameters into the bare formula
``(t, x, u) -> values`` once (a ``shifted`` base is bound with it), for
callers that evaluate one coefficient many times; ``evaluate`` is that
formula plus broadcasting.

Each constructor fills in tight declared bounds; audits re-check the
declarations on the problem's own domain [0, T] x [0, L] by randomized
finite differences plus the family's analytic extreme points, and any
failure carries a concrete witness, the first violating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import HypothesisError, ParameterError
from .noise import SpaceTimeDomain

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

    def bind(self) -> Callable:
        """The family's formula ``(t, x, u) -> values`` on these parameters.

        Its values equal :meth:`evaluate`'s bitwise, but it skips the
        argument conversion and broadcasting: ``zero`` and ``constant``
        give a scalar whatever the arguments' shapes.
        """
        return COEFFICIENT_FAMILIES[self.family].bind(self.params)

    def evaluate(self, t, x, u):
        """Pure pointwise evaluation; arguments broadcast together."""
        tb = np.asarray(t, float)
        xb = np.asarray(x, float)
        ub = np.asarray(u, float)
        shape = np.broadcast_shapes(tb.shape, xb.shape, ub.shape)
        out = self.bind()(tb, xb, ub)
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
    ``params``.  ``bind(p)`` resolves the ``params`` mapping p into the
    family's formula: ``(t, x, u) -> values`` for a coefficient, broadcast
    by :meth:`CoefficientSpec.evaluate`, and ``x -> values`` for an
    initial condition.  Coefficients also carry the analytic zero-state
    rule ``vanishes_at_zero(p)`` and ``u_edges(p)``, the u-values where
    the formula has a kink, which the audits sample.
    """

    make: Callable[..., Any]
    bind: Callable[[Mapping], Callable]
    vanishes_at_zero: Callable[[Mapping], bool] | None = None
    u_edges: Callable[[Mapping], list] = lambda p: []


def _clip_edges(p) -> list:
    # a zero or subnormal slope puts the kink at no finite u
    edge = p["cap"] / abs(p["slope"]) if p["slope"] else math.inf
    return [edge, -edge] if math.isfinite(edge) else []


def _bind_affine(p):
    a, b = p["a"], p["b"]
    return lambda t, x, u: a + b * u


def _bind_clipped_linear(p):
    slope, cap = p["slope"], p["cap"]
    # np.clip, without its per-call wrapper (costly on the scalar u of a jump)
    return lambda t, x, u: np.minimum(np.maximum(slope * u, -cap), cap)


def _bind_sine_modulated(p):
    amplitude, wave, u_slope = p["amplitude"], p["mode"] * math.pi, p["u_slope"]
    length = p["length"]
    return lambda t, x, u: amplitude * np.sin(wave * x / length) * (1.0 + u_slope * u)


def _bind_shifted(p):
    base, delta = p["base"].bind(), p["delta"]
    return lambda t, x, u: base(t, x, u) + delta


def _bind_value(value):
    value = np.float64(value)
    return lambda t, x, u: value


COEFFICIENT_FAMILIES = {
    "zero": Family(zero, lambda p: _bind_value(0.0), lambda p: True),
    "constant": Family(
        constant, lambda p: _bind_value(p["value"]), lambda p: p["value"] == 0.0
    ),
    "affine": Family(affine, _bind_affine, lambda p: p["a"] == 0.0),
    "clipped_linear": Family(
        clipped_linear, _bind_clipped_linear, lambda p: True, _clip_edges
    ),
    "sine_modulated": Family(
        sine_modulated, _bind_sine_modulated, lambda p: p["amplitude"] == 0.0
    ),
    "shifted": Family(
        shifted,
        _bind_shifted,
        lambda p: p["base"].vanishes_at_zero_state() and p["delta"] == 0.0,
        lambda p: COEFFICIENT_FAMILIES[p["base"].family].u_edges(p["base"].params),
    ),
}


# -- audits -------------------------------------------------------------

# Seed, state range and sample counts of every audit, so that a verdict is
# a pure function of the coefficients (or initial data) and the domain.
_AUDIT_SEED = 0
_AUDIT_U_RANGE = (-50.0, 50.0)
_AUDIT_SAMPLES = 10000
_DIRICHLET_SAMPLES = 512
_NONNEGATIVE_SAMPLES = 2048


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a randomized coefficient audit that passed."""

    passed: bool
    n_samples: int


def _sample_points(n, dom: SpaceTimeDomain, extremes):
    """n random (t, x, u, v) points of [0, T] x [0, L], then u = ``extremes``
    (v reversed) at t = 0, spread over [0, L]."""
    rng = np.random.default_rng(_AUDIT_SEED)
    k = extremes.size
    T, L = dom.horizon_T, dom.length_L
    t = np.concatenate([rng.uniform(0.0, T, size=n), np.full(k, 0.0)])
    x = np.concatenate([rng.uniform(0.0, L, size=n), np.linspace(0.0, L, k)])
    u = np.concatenate([rng.uniform(*_AUDIT_U_RANGE, size=n), extremes])
    v = np.concatenate([rng.uniform(*_AUDIT_U_RANGE, size=n), np.flip(extremes)])
    return t, x, u, v


def _u_extremes(spec: CoefficientSpec) -> np.ndarray:
    edges = COEFFICIENT_FAMILIES[spec.family].u_edges(spec.params)
    return np.asarray([*_AUDIT_U_RANGE, 0.0, *edges])


def _raise_at_first(bad, what, **coords) -> None:
    """Raise :class:`HypothesisError` saying ``what`` is violated at the first
    point where ``bad`` holds; the ``coords`` arrays read there are the witness."""
    hits = np.flatnonzero(bad)
    if hits.size:
        witness = tuple(float(c[hits[0]]) for c in coords.values())
        raise HypothesisError(
            f"{what} violated at ({','.join(coords)})={witness}", witness=witness
        )


def validate_hypothesis(
    spec: CoefficientSpec,
    dom: SpaceTimeDomain,
    require_monotone: bool = False,
    *,
    n_samples: int = _AUDIT_SAMPLES,
) -> AuditReport:
    """Randomized audit of the declared Lipschitz/growth/monotone metadata on
    the problem's domain: t in [0, T] and x in [0, L] of ``dom``.

    Raises :class:`HypothesisError` with a witness tuple on the first
    violation; the audit samples random (t, x, u, v) quadruples plus the
    family's analytic extreme u-values, so a pass is backed by at least
    ``n_samples`` points.
    """
    slack = 1e-9 * (1.0 + spec.lipschitz_bound + spec.growth_bound)
    t, x, u, v = _sample_points(n_samples, dom, _u_extremes(spec))
    fu, fv = spec.evaluate(t, x, u), spec.evaluate(t, x, v)
    _raise_at_first(
        np.abs(fu - fv) > spec.lipschitz_bound * np.abs(u - v) + slack,
        f"Lipschitz bound {spec.lipschitz_bound}", t=t, x=x, u=u, v=v,
    )
    _raise_at_first(
        np.abs(fu) > spec.growth_bound * (1.0 + np.abs(u)) + slack,
        f"growth bound {spec.growth_bound}", t=t, x=x, u=u,
    )
    if require_monotone:
        if not spec.monotone_in_u:
            raise HypothesisError(
                f"family {spec.family!r} with params {dict(spec.params)} is not "
                "declared non-decreasing in u"
            )
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        _raise_at_first(
            spec.evaluate(t, x, lo) > spec.evaluate(t, x, hi) + slack,
            "non-decreasing in u", t=t, x=x, u=lo, v=hi,
        )
    return AuditReport(passed=True, n_samples=int(t.size))


def dominates(
    spec_f: CoefficientSpec, spec_g: CoefficientSpec, dom: SpaceTimeDomain
) -> AuditReport:
    """Randomized check that f <= g on the problem's domain: t in [0, T] and
    x in [0, L] of ``dom`` (ordering gate)."""
    extremes = np.concatenate([_u_extremes(spec_f), _u_extremes(spec_g)])
    t, x, u, _ = _sample_points(_AUDIT_SAMPLES, dom, extremes)
    gv = spec_g.evaluate(t, x, u)
    _raise_at_first(
        spec_f.evaluate(t, x, u) > gv + 1e-12 * (1.0 + np.abs(gv)),
        "ordering f <= g", t=t, x=x, u=u,
    )
    return AuditReport(passed=True, n_samples=int(u.size))


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
        return INITIAL_FAMILIES[self.family].bind(self.params)(xa)

    def validate_dirichlet(self, length_L: float) -> None:
        """Finiteness plus exact vanishing at both endpoints."""
        xs = np.linspace(0.0, length_L, _DIRICHLET_SAMPLES)
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

    def is_nonnegative(self, length_L: float) -> bool:
        xs = np.linspace(0.0, length_L, _NONNEGATIVE_SAMPLES)
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


def _bind_bump(p):
    amplitude, center, half = p["amplitude"], p["center"], 0.5 * p["width"]

    def bump(x):
        s = (x - center) / half
        out = np.zeros_like(x)
        inside = np.abs(s) < 1.0
        out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
        return out

    return bump


INITIAL_FAMILIES = {
    "zero": Family(ic_zero, lambda p: np.zeros_like),
    "constant": Family(ic_constant, lambda p: lambda x: np.full_like(x, p["value"])),
    "sine_mode": Family(
        ic_sine_mode,
        lambda p: lambda x: p["amplitude"] * np.sin(p["mode"] * math.pi * x / p["length"]),
    ),
    "bump": Family(ic_bump, _bind_bump),
    "tabulated": Family(
        ic_tabulated, lambda p: lambda x: np.interp(x, p["xs"], p["values"])
    ),
}
