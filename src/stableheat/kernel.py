"""Dirichlet heat kernel on [0, L] for the operator d/dt - (1/2) d2/dx2.

Two equivalent representations are implemented and cross-checked:

image sum
    ``G_t(x,y) = (2*pi*t)**-0.5 * sum_k [exp(-(y-x+2kL)^2/(2t))
    - exp(-(y+x+2kL)^2/(2t))]`` -- terms decay fast in k when t is
    small relative to L^2.

spectral series
    ``G_t(x,y) = (2/L) * sum_n sin(n pi x/L) sin(n pi y/L)
    * exp(-n^2 pi^2 t / (2 L^2))`` -- terms decay fast in n when t is
    large relative to L^2.

The default method switches between them at t = L^2/pi, where the two
tail bounds are comparable, so the configured absolute tolerance is
certified analytically at every call: evaluations whose truncation
bound exceeds ``abs_tol`` raise instead of silently degrading.

At t = 0 the kernel is a delta distribution; pointwise evaluation is
refused and :meth:`KernelEvaluator.convolve` implements the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    AccuracyError,
    DeltaSingularityError,
    NumericalError,
    ParameterError,
)

__all__ = ["KernelEvaluator"]

_METHODS = ("auto", "image_sum", "spectral")


@dataclass(frozen=True)
class KernelEvaluator:
    """Configured evaluator; immutable, shareable, all methods pure."""

    length_L: float
    method: str = "auto"
    image_terms: int = 8
    spectral_modes: int = 128
    abs_tol: float = 1e-10

    def __post_init__(self):
        if self.length_L <= 0.0:
            raise ParameterError("length_L must be positive")
        if self.method not in _METHODS:
            raise ParameterError(f"method must be one of {_METHODS}")
        if self.image_terms < 1 or self.spectral_modes < 1:
            raise ParameterError("image_terms and spectral_modes must be >= 1")
        if self.abs_tol <= 0.0:
            raise ParameterError("abs_tol must be positive")

    # -- representation selection and certified truncation bounds ------

    @property
    def crossover_time(self) -> float:
        """Hand-off point between image sum (below) and series (above)."""
        return self.length_L ** 2 / math.pi

    def _method_for(self, t: float) -> str:
        if self.method != "auto":
            return self.method
        return "image_sum" if t < self.crossover_time else "spectral"

    def image_tail_bound(self, t: float) -> float:
        """Upper bound on the dropped |k| > image_terms image terms."""
        L, M = self.length_L, self.image_terms
        # |y-x+2kL| >= (2|k|-1)L and |y+x+2kL| >= (2|k|-2)L for |k| > M,
        # x, y in [0, L]; four tail branches, summed until negligible.
        total = 0.0
        for j in range(M + 1, M + 60):
            term = 2.0 * math.exp(-((2 * j - 1) * L) ** 2 / (2.0 * t)) + 2.0 * math.exp(
                -((2 * j - 2) * L) ** 2 / (2.0 * t)
            )
            total += term
            if term < 1e-300:
                break
        return total / math.sqrt(2.0 * math.pi * t)

    def spectral_tail_bound(self, t: float) -> float:
        """Upper bound on the dropped n > spectral_modes series terms."""
        L, N = self.length_L, self.spectral_modes
        rate = math.pi ** 2 * t / (2.0 * L ** 2)
        total = 0.0
        for n in range(N + 1, N + 400):
            term = math.exp(-rate * n * n)
            total += term
            if term < 1e-300:
                break
        return 2.0 / L * total

    def truncation_bound(self, t: float, method: str | None = None) -> float:
        method = method or self._method_for(t)
        if method == "image_sum":
            return self.image_tail_bound(t)
        return self.spectral_tail_bound(t)

    def _check_accuracy(self, t: float, method: str) -> None:
        bound = self.truncation_bound(t, method)
        if bound > self.abs_tol:
            raise AccuracyError(
                f"kernel truncation bound {bound:.3e} exceeds abs_tol "
                f"{self.abs_tol:.3e} for method={method} at t={t:.3e}; "
                "increase image_terms/spectral_modes or evaluate at larger t"
            )

    # -- pointwise evaluation ------------------------------------------

    def eval(self, t: float, x, y):
        """Kernel value(s) at time t > 0; x, y broadcast together."""
        if t < 0.0:
            raise ParameterError(f"t must be non-negative, got {t}")
        if t == 0.0:
            raise DeltaSingularityError(
                "kernel at t=0 is a delta distribution; use convolve for t=0"
            )
        method = self._method_for(t)
        self._check_accuracy(t, method)
        if method == "image_sum":
            return self._eval_image(t, x, y)
        return self._eval_spectral(t, x, y)

    def _boundary_mask(self, xb, yb):
        # The kernel vanishes identically on the boundary; the truncated
        # sums only reproduce that up to their tail bound, so exact
        # endpoint hits are zeroed outright.
        L = self.length_L
        return (xb == 0.0) | (xb == L) | (yb == 0.0) | (yb == L)

    def _eval_image(self, t: float, x, y):
        L = self.length_L
        xb, yb = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        shifts = 2.0 * L * np.arange(-self.image_terms, self.image_terms + 1)
        shifts = shifts.reshape((-1,) + (1,) * xb.ndim)
        diff = yb - xb + shifts
        summ = yb + xb + shifts
        val = np.exp(-diff * diff / (2.0 * t)) - np.exp(-summ * summ / (2.0 * t))
        out = val.sum(axis=0) / math.sqrt(2.0 * math.pi * t)
        out = np.where(self._boundary_mask(xb, yb), 0.0, out)
        return out if out.ndim else float(out)

    def _eval_spectral(self, t: float, x, y):
        L = self.length_L
        xb, yb = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        n = np.arange(1, self.spectral_modes + 1)
        decay = np.exp(-(n * math.pi / L) ** 2 * t / 2.0)
        n = n.reshape((-1,) + (1,) * xb.ndim)
        decay = decay.reshape((-1,) + (1,) * xb.ndim)
        val = np.sin(n * math.pi * xb / L) * np.sin(n * math.pi * yb / L) * decay
        out = 2.0 / L * val.sum(axis=0)
        out = np.where(self._boundary_mask(xb, yb), 0.0, out)
        return out if out.ndim else float(out)

    # -- integral operations -------------------------------------------

    def quad_nodes(self, n_quad: int) -> tuple[np.ndarray, float]:
        """Composite-midpoint nodes and weight on [0, L]."""
        if n_quad < 2:
            raise ParameterError("n_quad must be >= 2")
        w = self.length_L / n_quad
        return (np.arange(n_quad) + 0.5) * w, w

    def convolve(
        self, t: float, h: Callable[[np.ndarray], np.ndarray], n_quad: int
    ) -> Callable[[np.ndarray], np.ndarray]:
        """Return x -> integral of G_t(x, y) h(y) dy by midpoint quadrature.

        t = 0 returns h itself (the kernel degenerates to the identity).
        """
        if t == 0.0:
            return lambda x: np.asarray(h(np.asarray(x, float)), float)
        nodes, w = self.quad_nodes(n_quad)
        hv = np.asarray(h(nodes), dtype=float)
        if hv.shape != nodes.shape:
            hv = np.broadcast_to(hv, nodes.shape).copy()
        if not np.all(np.isfinite(hv)):
            raise NumericalError("convolution input is non-finite on [0, L]")

        def conv(x):
            xa = np.asarray(x, dtype=float)
            vals = self.eval(t, xa[..., None], nodes)
            return np.asarray(vals * hv).sum(axis=-1) * w

        return conv

    def check_semigroup(
        self, s: float, t: float, x: float, z: float, n_quad: int
    ) -> float:
        """|integral G_s(x,y) G_t(y,z) dy - G_(s+t)(x,z)|."""
        if s <= 0.0 or t <= 0.0:
            raise ParameterError("semigroup check needs s, t > 0")
        nodes, w = self.quad_nodes(n_quad)
        lhs = float(np.sum(self.eval(s, x, nodes) * self.eval(t, nodes, z)) * w)
        rhs = float(self.eval(s + t, x, z))
        return abs(lhs - rhs)

    def lp_norm_bound_check(
        self, t: float, x: float, p: float, n_quad: int
    ) -> tuple[float, float]:
        """Quadrature value of int |G_t(x,y)|^p dy and its fitted bound.

        The bound is C * t**(-(p-1)/2) with C fitted as the maximum of
        ``value * t'**((p-1)/2)`` over a logarithmic sweep of the
        validity range [1e-3 L^2, L^2] at the same x.
        """
        if p < 1.0:
            raise ParameterError("p must be >= 1")
        if t <= 0.0:
            raise ParameterError("t must be positive")
        nodes, w = self.quad_nodes(n_quad)

        def value_at(tq: float) -> float:
            return float(np.sum(np.abs(self.eval(tq, x, nodes)) ** p) * w)

        sweep = np.geomspace(1e-3 * self.length_L ** 2, self.length_L ** 2, 25)
        c_fit = max(value_at(tq) * tq ** ((p - 1.0) / 2.0) for tq in sweep)
        value = value_at(t)
        c_fit = max(c_fit, value * t ** ((p - 1.0) / 2.0))
        return value, c_fit * t ** (-(p - 1.0) / 2.0)
