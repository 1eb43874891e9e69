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

``eval`` serves t below the crossover t = L^2/pi from the image sum,
capped at level 15 (the shifts |k| <= 8), and the rest from 128 series
modes.  The image tail bound grows with t and the series bound falls,
so the crossover is each one's worst t: an evaluator certifies both
there against ``abs_tol`` = 1e-10 once, at construction, and raises
``AccuracyError`` if either misses; no evaluation checks again.

The image sum is ordered in levels by each image's least distance to
[0, L] over x, y in [0, L]: level 0 is the three images y-x, y+x and
y+x-2L, and every level m >= 1 holds two images at distance mL, so the
levels beyond n are bounded by ``sum_(m>n) 2 exp(-(mL)^2/(2t)) /
sqrt(2 pi t)``.  Each value sums only its own level count n(t), the
smallest n whose tail bound is within ``_TAIL_FRACTION`` of ``abs_tol``
(at L = 1, level 0 alone up to t = 0.0157, every lag within one step at
n_t >= 64 and T = 1, and levels 0 and 1 up to t = 0.0644; the bound is
not scale-free, and level 0's limit is 0.0154 L^2 at L = 0.5), a step
function whose limits are bisected once per length and level, on first
need: the limit of level n only when a batch holds a t above that of
level n-1, so solves whose lags all lie below the first limit bisect
that one alone.

``eval`` takes arrays of t that broadcast with x and y.  A value depends
on its own (t, x, y) only: the batch is evaluated at its largest level
count, the levels beyond an element's own count are exact zeros, and
levels are summed in order, so a batched value equals the scalar one
bitwise.  The t-only quantities are computed at t's shape and the
boundary mask at that of x and y, and the image sum forms each image in
one buffer and adds it into one accumulator (a level's pair first into a
third array), so a batch needs three arrays of its output's shape, two
at level 0 alone, and none per image.

A solver propagating in N sine modes takes N from ``propagator_modes``,
certified like n(t) at its shortest lag and so at every longer one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import AccuracyError, DeltaSingularityError, ParameterError

__all__ = ["KernelEvaluator"]

# The image sum's level cap (the levels of the shifts |k| <= 8), the
# series' mode count, and the tolerance both are certified to.
_IMAGE_LEVELS = 15
_SERIES_MODES = 128
_ABS_TOL = 1e-10

# An image sum stops at the first level count, and a solver's sine
# propagator at the first mode count, whose tail bound is within this
# fraction of abs_tol; only the level cap itself is held to abs_tol.
_TAIL_FRACTION = 1e-3


@dataclass(frozen=True)
class KernelEvaluator:
    """The kernel on [0, length_L]; immutable, shareable, all methods pure."""

    length_L: float
    abs_tol: ClassVar[float] = _ABS_TOL

    def __post_init__(self):
        if not 0.0 < self.length_L < math.inf:  # false for NaN
            raise ParameterError(f"length_L must be positive and finite, got {self.length_L}")
        t_c = self.crossover_time
        for name, bound in (
            ("image sum", self.image_tail_bound(t_c, _IMAGE_LEVELS)),
            ("sine series", self.spectral_tail_bound(t_c, _SERIES_MODES)),
        ):
            if bound > _ABS_TOL:
                raise AccuracyError(
                    f"{name} truncation bound {bound:.3e} at the crossover "
                    f"t={t_c:.3e} exceeds abs_tol {_ABS_TOL:.3e} for L={self.length_L}"
                )

    # -- representation selection and certified truncation bounds ------

    @property
    def crossover_time(self) -> float:
        """Hand-off point between image sum (below) and series (above)."""
        return self.length_L ** 2 / math.pi

    def image_tail_bound(self, t: float, level: int) -> float:
        """Upper bound on the dropped image levels beyond ``level``."""
        L = self.length_L
        # Level m >= 1 holds two images at least mL from [0, L].
        total = 0.0
        for m in range(level + 1, level + 120):
            term = 2.0 * math.exp(-(m * L) ** 2 / (2.0 * t))
            total += term
            if term < 1e-300:
                break
        return total / math.sqrt(2.0 * math.pi * t)

    def spectral_tail_bound(self, t: float, N: int) -> float:
        """Upper bound on the dropped n > N series terms."""
        L = self.length_L
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
        target = _TAIL_FRACTION * _ABS_TOL
        rate = math.pi ** 2 * t_min / (2.0 * self.length_L ** 2)
        first = math.log(max(2.0 / (self.length_L * target), 1.0)) / rate
        N = max(1, math.floor(math.sqrt(first)) - 1)
        while self.spectral_tail_bound(t_min, N) > target:
            N += 1
        return N

    def _image_levels(self, t: np.ndarray) -> np.ndarray:
        """The certified level count n(t) of each element of t.

        Limits are read in order up to the first one at or above t's
        largest element; the limits beyond it could not change the count."""
        t_max, limits = t.max(), []
        for n in range(_IMAGE_LEVELS):
            limits.append(_image_level_limit(self, n))
            if limits[-1] >= t_max:
                break
        return np.searchsorted(limits, t, "left")

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
        on_image = t < self.crossover_time
        if on_image.all():
            out = np.asarray(self._eval_image(t, x, y))
        else:  # the series, or each side of the crossover by its own
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
        levels = self._image_levels(t)
        minus_two_t = -2.0 * t
        shape = np.broadcast_shapes(t.shape, x.shape, y.shape)
        buf = np.empty(shape)

        def image(op, shift, out=buf):  # exp((op(y, x) + shift)^2 / (-2t)), into out
            op(y, x, out=buf)
            if shift:
                np.add(buf, shift, out=buf)
            # a / (-b) is -(a / b) exactly: exp(-(a / 2t)) with one pass less
            np.divide(np.multiply(buf, buf, out=buf), minus_two_t, out=buf)
            return np.exp(buf, out=out)

        L = self.length_L
        total = image(np.subtract, 0.0, np.empty(shape))  # level 0: y-x, y+x, y+x-2L
        total -= image(np.add, 0.0)
        total -= image(np.add, -2.0 * L)
        top = int(levels.max())
        val = np.empty(shape) if top else None
        for m in range(1, top + 1):
            if m % 2:  # y-x -+ (m+1)L, odd images
                image(np.subtract, -(m + 1) * L, val)
                val += image(np.subtract, (m + 1) * L)
            else:  # y+x + mL and y+x - (m+2)L, reflected images
                image(np.add, m * L, val)
                val += image(np.add, -(m + 2) * L)
            if m > levels.min():  # exact zeros beyond an element's count
                np.copyto(val, 0.0, where=m > levels)
            if m % 2:
                total += val
            else:
                total -= val
        total /= np.sqrt(2.0 * math.pi * t)
        return total

    def _eval_spectral(self, t, x, y):
        L = self.length_L
        n = np.arange(1, _SERIES_MODES + 1).reshape((-1,) + (1,) * t.ndim)
        decay = np.exp(-(n * math.pi / L) ** 2 * t / 2.0)
        val = np.sin(n * math.pi * x / L) * np.sin(n * math.pi * y / L) * decay
        # Mode after mode: val.sum(axis=0) would sum a 1-d batch pairwise but a
        # wider one row by row, so a value would depend on its batch's shape.
        return 2.0 / L * np.add.accumulate(val, axis=0)[-1]


@functools.lru_cache(maxsize=16 * _IMAGE_LEVELS)
def _image_level_limit(ke: KernelEvaluator, n: int) -> float:
    """A t up to which the levels 0..n are certified, for a level count n
    below the cap ``_IMAGE_LEVELS``; bisected on first need.

    The limit is bisected on (0, crossover_time], where the tail bound
    grows with t, and is a t at which the bound holds (or 0.0).  More
    levels hold the bound at every t where fewer do, so the bisections
    of successive n part ways in order and the limits rise with n.
    """
    target = _TAIL_FRACTION * _ABS_TOL
    lo, hi = 0.0, ke.crossover_time
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ke.image_tail_bound(mid, n) <= target:
            lo = mid
        else:
            hi = mid
    return lo
