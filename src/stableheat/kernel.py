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

The image sum is ordered in levels by each image's least distance to
[0, L] over x, y in [0, L]: level 0 is the three images y-x, y+x and
y+x-2L, and every level m >= 1 holds two images at distance mL, so the
levels beyond n are bounded by ``sum_(m>n) 2 exp(-(mL)^2/(2t)) /
sqrt(2 pi t)``.  Each value sums only its own level count n(t): the
smallest n whose tail bound is within ``_TAIL_FRACTION`` of ``abs_tol``
(level 0 alone, three images, up to t = 0.0157 L^2, which covers every
lag within one step at n_t >= 64 and T = L^2; levels 0 and 1, five
images, up to t = 0.0644 L^2).  Below the crossover the tail bound
grows with t, so n(t) is a step function whose limits are bisected once
per evaluator configuration; ``image_terms`` caps it at the levels of
the shifts |k| <= image_terms, 2*image_terms - 1.

``eval`` takes arrays of t that broadcast with x and y, and certifies a
batch once per method: the image sum at the batch's largest t, the
series at its smallest, since the image bound grows and the series
bound falls with t.  A value depends on its own (t, x, y) only, never on
the batch around it: the batch is evaluated at its largest level count,
the levels beyond an element's own count are exact zeros, and levels are
summed in order, so a batched value equals the scalar one bitwise.  The
t-only quantities (2t, normalization, level counts, method split) are
computed at t's shape and the boundary mask at that of x and y, and the
image sum adds its images one at a time into one accumulator, so a batch
needs a few arrays of its output's shape, not one per image.

A solver propagating in N sine modes takes N from ``propagator_modes``,
certified like n(t) at its shortest lag and so at every longer one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DeltaSingularityError, ParameterError

__all__ = ["KernelEvaluator"]

_METHODS = ("auto", "image_sum", "spectral")

# An image sum stops at the first level count, and a solver's sine
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

    def image_tail_bound(self, t: float, level: int | None = None) -> float:
        """Upper bound on the dropped image levels beyond ``level`` (by
        default 2*image_terms - 1, the levels of the shifts |k| <= image_terms)."""
        L = self.length_L
        n = 2 * self.image_terms - 1 if level is None else level
        # Level m >= 1 holds two images at least mL from [0, L].
        total = 0.0
        for m in range(n + 1, n + 120):
            term = 2.0 * math.exp(-(m * L) ** 2 / (2.0 * t))
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
        later t, is within ``_TAIL_FRACTION`` of ``abs_tol``.

        The walk starts at a lower bound: below it the first dropped term,
        (2/L) exp(-rate (N+1)^2), alone exceeds the target."""
        target = _TAIL_FRACTION * self.abs_tol
        rate = math.pi ** 2 * t_min / (2.0 * self.length_L ** 2)
        first = math.log(max(2.0 / (self.length_L * target), 1.0)) / rate
        N = max(1, math.floor(math.sqrt(first)) - 1)
        while self.spectral_tail_bound(t_min, N) > target:
            N += 1
        return N

    def _image_levels(self, t: np.ndarray) -> np.ndarray:
        """The certified level count n(t) of each element of t."""
        return np.searchsorted(_image_level_limits(self), t, "left")

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
        t, x, y = (np.asarray(v, float) for v in (t, x, y))
        shape = np.broadcast_shapes(t.shape, x.shape, y.shape)
        if math.prod(shape) == 0:
            return np.zeros(shape)
        t_min = t.min()
        if t_min < 0.0:
            raise ParameterError(f"t must be non-negative, got {t_min}")
        if t_min == 0.0:
            raise DeltaSingularityError("kernel at t=0 is a delta distribution")
        if self.method == "auto":
            on_image = t < self.crossover_time
        else:
            on_image = np.full(t.shape, self.method == "image_sum")
        if on_image.all():
            out = np.asarray(self._eval_image(t, x, y))
        else:  # the series, or each side of the crossover by its method
            tb, xb, yb = np.broadcast_arrays(t, x, y)
            img = np.broadcast_to(on_image, shape)
            out = np.empty(shape)
            if img.any():
                out[img] = self._eval_image(tb[img], xb[img], yb[img])
            out[~img] = self._eval_spectral(tb[~img], xb[~img], yb[~img])
        # The kernel vanishes identically on the boundary; the truncated
        # sums only reproduce that up to their tail bound, so exact
        # endpoint hits are zeroed outright.
        L = self.length_L
        np.copyto(out, 0.0, where=(x == 0.0) | (x == L) | (y == 0.0) | (y == L))
        return out if out.ndim else float(out)

    def _eval_image(self, t, x, y):
        t_max = float(t.max())
        # The tail bound grows with t below the crossover, so the largest
        # t certifies the batch; beyond it every t is checked.
        for t_check in [t_max] if t_max < self.crossover_time else np.unique(t):
            self._check_accuracy(float(t_check), "image_sum")
        levels = self._image_levels(t)
        two_t = 2.0 * t
        buf = np.empty(np.broadcast_shapes(t.shape, x.shape, y.shape))

        def image(op, shift):  # exp(-(op(y, x) + shift)^2 / (2t)), through buf
            op(y, x, out=buf)
            if shift:
                np.add(buf, shift, out=buf)
            np.divide(np.multiply(buf, buf, out=buf), two_t, out=buf)
            return np.exp(np.negative(buf, out=buf))  # exp never in place

        L = self.length_L
        total = image(np.subtract, 0.0)  # level 0: y-x, y+x, y+x-2L
        total -= image(np.add, 0.0)
        total -= image(np.add, -2.0 * L)
        for m in range(1, int(levels.max()) + 1):
            if m % 2:  # y-x -+ (m+1)L, odd images
                val = image(np.subtract, -(m + 1) * L)
                val += image(np.subtract, (m + 1) * L)
            else:  # y+x + mL and y+x - (m+2)L, reflected images
                val = image(np.add, m * L)
                val += image(np.add, -(m + 2) * L)
            if m > levels.min():  # exact zeros beyond an element's count
                np.copyto(val, 0.0, where=m > levels)
            if m % 2:
                total += val
            else:
                total -= val
        return total / np.sqrt(2.0 * math.pi * t)

    def _eval_spectral(self, t, x, y):
        # The series tail bound falls as t grows: the smallest t certifies.
        self._check_accuracy(float(t.min()), "spectral")
        L = self.length_L
        n = np.arange(1, self.spectral_modes + 1).reshape((-1,) + (1,) * t.ndim)
        decay = np.exp(-(n * math.pi / L) ** 2 * t / 2.0)
        val = np.sin(n * math.pi * x / L) * np.sin(n * math.pi * y / L) * decay
        # Mode after mode: val.sum(axis=0) would sum a 1-d batch pairwise but a
        # wider one row by row, so a value would depend on its batch's shape.
        return 2.0 / L * np.add.accumulate(val, axis=0)[-1]


@functools.lru_cache(maxsize=16)
def _image_level_limits(ke: KernelEvaluator) -> tuple:
    """limits[n]: a t up to which the levels 0..n are certified, for each
    level count n below the cap 2*image_terms - 1.

    Each limit is bisected on (0, crossover_time], where the tail bound
    grows with t, and is a t at which the bound holds (or 0.0).  More
    levels hold the bound at every t where fewer do, so the bisections
    part ways in order and the limits come out sorted.
    """
    target = _TAIL_FRACTION * ke.abs_tol
    limits = []
    for n in range(2 * ke.image_terms - 1):
        lo, hi = 0.0, ke.crossover_time
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if ke.image_tail_bound(mid, n) <= target:
                lo = mid
            else:
                hi = mid
        limits.append(lo)
    return tuple(limits)
