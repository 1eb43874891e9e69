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

Each image-sum value sums only its own image count M(t): the smallest
M <= ``image_terms`` whose tail bound is within ``_TAIL_FRACTION``
of ``abs_tol`` (three images at the lags the solvers use).  Below the
crossover the tail bound grows with t, so M(t) is a step function whose
limits are bisected once per evaluator configuration.

``eval`` takes arrays of t that broadcast with x and y, and certifies a
batch once per method: the image sum at the batch's largest t, the
series at its smallest, since the image bound grows and the series
bound falls with t.  A value depends on its own (t, x, y) only, never on
the batch around it: the batch is evaluated at its largest image count,
the shifts beyond an element's own count are exact zeros, and terms are
summed in order along one axis, so a batched value equals the scalar
one bitwise.

A solver propagating in N sine modes takes N from ``propagator_modes``,
certified like M(t) at its shortest lag and so at every longer one.

At t = 0 the kernel is a delta distribution; pointwise evaluation is
refused and :meth:`KernelEvaluator.convolve` implements the identity.
"""

from __future__ import annotations

import functools
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

# An image sum stops at the first image count, and a solver's sine
# propagator at the first mode count, whose tail bound is within this
# fraction of abs_tol; only image_terms itself is held to abs_tol.
_TAIL_FRACTION = 1e-3


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

    def image_tail_bound(self, t: float, M: int | None = None) -> float:
        """Upper bound on the dropped |k| > M image terms (M = image_terms by default)."""
        L = self.length_L
        M = self.image_terms if M is None else M
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

    def spectral_tail_bound(self, t: float, N: int | None = None) -> float:
        """Upper bound on the dropped n > N series terms (N = spectral_modes by default)."""
        L = self.length_L
        N = self.spectral_modes if N is None else N
        rate = math.pi ** 2 * t / (2.0 * L ** 2)
        total = 0.0
        for n in range(N + 1, N + 400):
            term = math.exp(-rate * n * n)
            total += term
            if term < 1e-300:
                break
        else:  # the terms beyond n sum to at most the integral of exp(-rate s^2) from n
            total += 0.5 * math.sqrt(math.pi / rate) * math.erfc(n * math.sqrt(rate))
        return 2.0 / L * total

    def propagator_modes(self, t_min: float) -> int:
        """Fewest series modes whose tail bound at t_min, and so at every
        later t, is within ``_TAIL_FRACTION`` of ``abs_tol``."""
        target = _TAIL_FRACTION * self.abs_tol
        N = 1
        while self.spectral_tail_bound(t_min, N) > target:
            N += 1
        return N

    def _image_counts(self, t: np.ndarray) -> np.ndarray:
        """The certified image count M(t) of each element of t."""
        return 1 + np.searchsorted(_image_count_limits(self), t, "left")

    def _check_accuracy(self, t: float, method: str) -> None:
        if method == "image_sum":
            bound = self.image_tail_bound(t)
        else:
            bound = self.spectral_tail_bound(t)
        if bound > self.abs_tol:
            raise AccuracyError(
                f"kernel truncation bound {bound:.3e} exceeds abs_tol "
                f"{self.abs_tol:.3e} for method={method} at t={t:.3e}; "
                "increase image_terms/spectral_modes or evaluate at larger t"
            )

    # -- pointwise evaluation ------------------------------------------

    def eval(self, t, x, y):
        """Kernel value(s) at times t > 0; t, x and y broadcast together."""
        tb, xb, yb = np.broadcast_arrays(*(np.asarray(v, float) for v in (t, x, y)))
        if tb.size == 0:
            return np.zeros(tb.shape)
        t_min = tb.min()
        if t_min < 0.0:
            raise ParameterError(f"t must be non-negative, got {t_min}")
        if t_min == 0.0:
            raise DeltaSingularityError(
                "kernel at t=0 is a delta distribution; use convolve for t=0"
            )
        if self.method == "auto":
            on_image = tb < self.crossover_time
        else:
            on_image = np.full(tb.shape, self.method == "image_sum")
        if on_image.all():
            out = self._eval_image(tb, xb, yb)
        elif not on_image.any():
            out = self._eval_spectral(tb, xb, yb)
        else:  # the batch straddles the crossover: each side by its method
            out = np.empty(tb.shape)
            rest = ~on_image
            out[on_image] = self._eval_image(tb[on_image], xb[on_image], yb[on_image])
            out[rest] = self._eval_spectral(tb[rest], xb[rest], yb[rest])
        out = np.where(self._boundary_mask(xb, yb), 0.0, out)
        return out if out.ndim else float(out)

    def _boundary_mask(self, xb, yb):
        # The kernel vanishes identically on the boundary; the truncated
        # sums only reproduce that up to their tail bound, so exact
        # endpoint hits are zeroed outright.
        L = self.length_L
        return (xb == 0.0) | (xb == L) | (yb == 0.0) | (yb == L)

    def _eval_image(self, t, x, y):
        t_max = float(t.max())
        # The tail bound grows with t below the crossover, so the largest
        # t certifies the batch; beyond it every t is checked.
        for t_check in [t_max] if t_max < self.crossover_time else np.unique(t):
            self._check_accuracy(float(t_check), "image_sum")
        counts = self._image_counts(t)
        m = int(counts.max())
        k = np.arange(-m, m + 1).reshape((-1,) + (1,) * t.ndim)
        shifts = 2.0 * self.length_L * k
        diff = y - x + shifts
        summ = y + x + shifts
        val = np.exp(-diff * diff / (2.0 * t)) - np.exp(-summ * summ / (2.0 * t))
        # Shifts beyond an element's own count add exact zeros.
        val = np.where(np.abs(k) <= counts, val, 0.0)
        return _in_order_sum(val) / np.sqrt(2.0 * math.pi * t)

    def _eval_spectral(self, t, x, y):
        # The series tail bound falls as t grows: the smallest t certifies.
        self._check_accuracy(float(t.min()), "spectral")
        L = self.length_L
        n = np.arange(1, self.spectral_modes + 1).reshape((-1,) + (1,) * t.ndim)
        decay = np.exp(-(n * math.pi / L) ** 2 * t / 2.0)
        val = np.sin(n * math.pi * x / L) * np.sin(n * math.pi * y / L) * decay
        return 2.0 / L * _in_order_sum(val)

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


def _in_order_sum(terms: np.ndarray) -> np.ndarray:
    """Sum along axis 0 one term after another.

    ``terms.sum(axis=0)`` sums a 1-d array pairwise but a wider one row by
    row, so its result would depend on the shape of the batch.
    """
    return np.add.accumulate(terms, axis=0)[-1]


@functools.lru_cache(maxsize=16)
def _image_count_limits(ke: KernelEvaluator) -> tuple:
    """limits[M-1]: a t up to which M < image_terms images are certified.

    Each limit is bisected on (0, crossover_time], where the tail bound
    grows with t, and is a t at which the bound holds (or 0.0).  More
    images hold the bound at every t where fewer do, so the bisections
    part ways in order and the limits come out sorted.
    """
    target = _TAIL_FRACTION * ke.abs_tol
    limits = []
    for m in range(1, ke.image_terms):
        lo, hi = 0.0, ke.crossover_time
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if ke.image_tail_bound(mid, m) <= target:
                lo = mid
            else:
                hi = mid
        limits.append(lo)
    return tuple(limits)
