"""Sampling of truncated heavy-tailed space-time jump noise.

The driving noise is a compensated Poisson random measure on
[0,T] x [0,L] x (R \\ {0}) whose jump-size intensity has density
``c_plus * z**(-alpha-1)`` on z > 0 and ``c_minus * (-z)**(-alpha-1)`` on
z < 0, with 1 < alpha < 2 and c_plus + c_minus = 1.  A realization keeps
only the jumps with magnitude in (eps, K]: magnitudes above the big
cutoff K are removed (that is the truncation the whole laboratory is
about), magnitudes below eps are too numerous to enumerate and are
dropped, optionally replaced by a matched-variance Gaussian field.

Sampling is direct: the total jump count on the window is Poisson with
mean ``T*L*(eps**-alpha - K**-alpha)/alpha``, times and positions are
i.i.d. uniform, and magnitudes come from the exact inverse CDF of the
truncated power-law density.  This is distributionally equivalent to
the textbook construction via exponential waiting times on a shell
partition of the jump space, but it is branch-free, fast, and makes
realizations for different cutoffs pathwise coupled by plain filtering.
A realization holds its jumps as three parallel time-sorted arrays
(``taus``, ``xs``, ``zs``); the solvers and the text format read those
arrays directly.

All objects here are immutable after construction and safe to share
across threads; parallelism is across seeds, never within a draw.  A
realization's memo for the solvers holds only deterministic functions of
its draw (a read-only jump table per grid), so sharing it stays safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace
from typing import get_type_hints

import numpy as np

from .errors import ParameterError, UnobservableEventError

__all__ = [
    "StableParams",
    "TruncationSpec",
    "SpaceTimeDomain",
    "NoiseRealization",
    "expected_jump_count",
    "compensator_drift",
    "sample_noise",
    "stopping_time",
    "survival_probability",
    "restrict",
]

# Stream tag mixed into the seed when deriving the Gaussian-correction field.
_GAUSSIAN_STREAM_TAG = 0x9E3779B9


@dataclass(frozen=True)
class StableParams:
    """Stability index and signed tail weights of the jump-size density."""

    alpha: float
    c_plus: float
    c_minus: float

    def __post_init__(self):
        if not 1.0 < self.alpha < 2.0:
            raise ParameterError(f"stability index must lie in (1, 2), got {self.alpha}")
        if not (self.c_plus >= 0.0 and self.c_minus >= 0.0):  # false for NaN
            raise ParameterError(
                f"tail weights must be non-negative, got {self.c_plus}, {self.c_minus}"
            )
        if abs(self.c_plus + self.c_minus - 1.0) > 1e-12:
            raise ParameterError(
                f"tail weights must sum to 1, got {self.c_plus + self.c_minus}"
            )

    @property
    def is_symmetric(self) -> bool:
        return self.c_plus == self.c_minus


@dataclass(frozen=True)
class TruncationSpec:
    """Jump-magnitude window (eps, K] kept in a sampled realization.

    ``gaussian_correction`` switches on an optional Gaussian field with
    the same variance density as the dropped small jumps,
    ``eps**(2-alpha)/(2-alpha)`` per unit dt*dx.  The field is a
    distribution, so it is only ever realized on a concrete cell grid;
    see :meth:`NoiseRealization.gaussian_increments`.
    """

    big_cutoff_K: float
    small_cutoff_eps: float
    gaussian_correction: bool = False

    def __post_init__(self):
        if not 0.0 < self.small_cutoff_eps < self.big_cutoff_K:
            raise ParameterError(
                f"need 0 < eps < K, got eps={self.small_cutoff_eps}, K={self.big_cutoff_K}"
            )

    def small_jump_variance_density(self, params: StableParams) -> float:
        """Variance per unit dt*dx of the dropped compensated small jumps."""
        eps, a = self.small_cutoff_eps, params.alpha
        return eps ** (2.0 - a) / (2.0 - a)


@dataclass(frozen=True)
class SpaceTimeDomain:
    """Time horizon and spatial length of the rectangle [0,T] x [0,L]."""

    horizon_T: float
    length_L: float

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.horizon_T, self.length_L)):
            raise ParameterError(
                "time horizon and spatial length must be positive and finite, got "
                f"T={self.horizon_T}, L={self.length_L}"
            )


def expected_jump_count(
    params: StableParams, trunc: TruncationSpec, dom: SpaceTimeDomain
) -> float:
    """Mean number of kept jumps, T*L*(eps**-a - K**-a)/a."""
    a = params.alpha
    eps, big = trunc.small_cutoff_eps, trunc.big_cutoff_K
    return dom.horizon_T * dom.length_L * (eps ** -a - big ** -a) / a


def compensator_drift(params: StableParams, trunc: TruncationSpec) -> float:
    """Deterministic drift density subtracted per unit dt*dx.

    Exact integral of z over the kept jump-size density:
    ``(c_plus - c_minus) * (eps**(1-a) - K**(1-a)) / (a - 1)``.
    Zero for symmetric tails.
    """
    a = params.alpha
    eps, big = trunc.small_cutoff_eps, trunc.big_cutoff_K
    return (params.c_plus - params.c_minus) * (
        eps ** (1.0 - a) - big ** (1.0 - a)
    ) / (a - 1.0)


@dataclass(frozen=True)
class NoiseRealization:
    """One sampled path of the truncated noise: finite jumps plus drift.

    ``taus``, ``xs``, ``zs`` are parallel arrays sorted by jump time
    (ties keep generation order), with every point in [0,T] x [0,L] and
    every magnitude in (eps, K]; construction refuses anything else,
    because the solvers assign jumps to time steps by that order.  A
    realization is its law (``params``, ``truncation``, ``domain``) plus
    its draw; the compensator drift is a function of the law alone.
    ``_jump_tables`` is not a field: ``replace`` starts with an empty
    memo, and ``==``, ``repr`` and the text format ignore it.
    """

    params: StableParams
    truncation: TruncationSpec
    domain: SpaceTimeDomain
    taus: np.ndarray
    xs: np.ndarray
    zs: np.ndarray
    seed: int

    def __post_init__(self):
        taus, xs, zs = self.taus, self.xs, self.zs
        if taus.ndim != 1 or xs.shape != taus.shape or zs.shape != taus.shape:
            raise ParameterError("taus, xs and zs must be 1-d arrays of one length")
        # Each test is written to fail on NaN; min and max propagate it.
        if taus.size:
            if not (taus[1:] >= taus[:-1]).all():
                raise ParameterError("jump times must be sorted in time")
            # Sorted, so the two endpoints bound every time.
            if not (taus[0] >= 0.0 and taus[-1] <= self.domain.horizon_T):
                raise ParameterError("jump times must lie in [0, T]")
            if not (xs.min() >= 0.0 and xs.max() <= self.domain.length_L):
                raise ParameterError("jump positions must lie in [0, L]")
            mags, trunc = np.abs(zs), self.truncation
            if not (mags.min() > trunc.small_cutoff_eps and mags.max() <= trunc.big_cutoff_K):
                raise ParameterError("jump magnitudes must lie in (eps, K]")
        for arr in (self.taus, self.xs, self.zs):
            arr.setflags(write=False)

    @functools.cached_property
    def _jump_tables(self) -> dict:
        """``solvers.solve_mild``'s jump tables of this draw, by ``GridSpec``."""
        return {}

    @property
    def compensator_mu(self) -> float:
        """Drift density of the law, :func:`compensator_drift`."""
        return compensator_drift(self.params, self.truncation)

    @property
    def jump_count(self) -> int:
        return int(self.taus.size)

    def gaussian_increments(self, n_time: int, n_space: int) -> np.ndarray:
        """Correction-field increments on an (n_time, n_space) cell grid.

        Cell (i, j) covers [i*T/n_time, (i+1)*T/n_time] x
        [j*L/n_space, (j+1)*L/n_space]; the increment is Gaussian with
        variance ``var_density * dt * dx``.  The draw is a pure function
        of (seed, n_time, n_space), so any two consumers that agree on
        the cell grid see the same field.  Returns zeros when the
        correction flag is off.
        """
        dt = self.domain.horizon_T / n_time
        dx = self.domain.length_L / n_space
        if not self.truncation.gaussian_correction:
            return np.zeros((n_time, n_space))
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, _GAUSSIAN_STREAM_TAG]))
        )
        var = self.truncation.small_jump_variance_density(self.params)
        std = math.sqrt(var) * math.sqrt(dt * dx)
        return std * rng.standard_normal((n_time, n_space))

    # -- serialization ------------------------------------------------

    def save_text(self, path) -> None:
        """Write the documented columnar text format (17 significant digits):
        one header line per law dataclass, then seed, drift and jump count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# stableheat-noise v1\n")
            for law in (self.params, self.truncation, self.domain):
                # .17g prints a bool as 1 or 0
                line = " ".join(f"{f.name}={getattr(law, f.name):.17g}" for f in fields(law))
                fh.write(f"# {line}\n")
            fh.write(f"# seed={self.seed}\n")
            fh.write(f"# compensator_mu={self.compensator_mu:.17g}\n")
            fh.write(f"# n_jumps={self.jump_count}\n")
            fh.write("tau,x,z\n")
            for t, x, z in zip(self.taus, self.xs, self.zs):
                fh.write(f"{t:.17g},{x:.17g},{z:.17g}\n")

    @staticmethod
    def load_text(path) -> "NoiseRealization":
        """Parse a file written by :meth:`save_text`, refusing a header that
        lacks a line, or whose compensator drift or jump count disagrees
        with its law or its rows."""
        header: dict[str, str] = {}
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline().strip()
            if first != "# stableheat-noise v1":
                raise ParameterError(f"unrecognized noise file header: {first!r}")
            for line in fh:
                line = line.strip()
                if line.startswith("#"):
                    for token in line[1:].split():
                        if "=" in token:
                            k, v = token.split("=", 1)
                            header[k] = v
                elif line and line != "tau,x,z":
                    rows.append([float(v) for v in line.split(",")])

        def read(key):
            if key not in header:
                raise ParameterError(f"noise file header lacks a {key}= line")
            return header[key]

        def law(cls):
            # every value reads as a number, a bool as 0 or 1
            kinds = get_type_hints(cls)
            return cls(**{f.name: kinds[f.name](float(read(f.name))) for f in fields(cls)})

        data = np.asarray(rows, dtype=float).reshape(-1, 3)
        realization = NoiseRealization(
            params=law(StableParams),
            truncation=law(TruncationSpec),
            domain=law(SpaceTimeDomain),
            taus=data[:, 0].copy(),
            xs=data[:, 1].copy(),
            zs=data[:, 2].copy(),
            seed=int(read("seed")),
        )
        for key, derived in (
            ("compensator_mu", realization.compensator_mu),
            ("n_jumps", realization.jump_count),
        ):
            if float(read(key)) != derived:
                raise ParameterError(
                    f"noise file header has {key}={header[key]}, "
                    f"but its law and rows give {derived!r}"
                )
        return realization


def sample_noise(
    params: StableParams,
    trunc: TruncationSpec,
    dom: SpaceTimeDomain,
    seed: int,
) -> NoiseRealization:
    """Draw one realization; identical inputs give bit-identical output.

    Jump count ~ Poisson(T*L*(eps**-a - K**-a)/a); times uniform on
    [0,T); positions uniform on [0,L); signs positive with probability
    c_plus; magnitudes by the exact inverse CDF
    ``(eps**-a - q*(eps**-a - K**-a))**(-1/a)`` with q in (0, 1], which
    lands in (eps, K].
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed)])))
    lam = expected_jump_count(params, trunc, dom)
    n = int(rng.poisson(lam))
    taus = rng.random(n) * dom.horizon_T
    xs = rng.random(n) * dom.length_L
    signs = np.where(rng.random(n) < params.c_plus, 1.0, -1.0)
    q = 1.0 - rng.random(n)  # in (0, 1]
    a = params.alpha
    lo = trunc.small_cutoff_eps ** -a
    hi = trunc.big_cutoff_K ** -a
    mags = (lo - q * (lo - hi)) ** (-1.0 / a)
    order = np.argsort(taus, kind="stable")
    return NoiseRealization(
        params=params,
        truncation=trunc,
        domain=dom,
        taus=taus[order],
        xs=xs[order],
        zs=(signs * mags)[order],
        seed=int(seed),
    )


def stopping_time(realization: NoiseRealization, K: float) -> float:
    """First jump time with magnitude above K; +inf if none occurs.

    Only decidable from a realization whose sampling window covers
    (K, big_cutoff_K]: K above the sampled cutoff would ask about jumps
    that were removed, K below the small cutoff about jumps that were
    never enumerated.
    """
    if K > realization.truncation.big_cutoff_K:
        raise UnobservableEventError(
            f"threshold K={K} exceeds the sampled cutoff "
            f"{realization.truncation.big_cutoff_K}; jumps above it were removed"
        )
    if K < realization.truncation.small_cutoff_eps:
        raise UnobservableEventError(
            f"threshold K={K} lies below the small cutoff "
            f"{realization.truncation.small_cutoff_eps}; such jumps were not sampled"
        )
    exceed = np.abs(realization.zs) > K
    idx = np.flatnonzero(exceed)
    if idx.size == 0:
        return math.inf
    return float(realization.taus[idx[0]])


def survival_probability(
    params: StableParams, K: float, dom: SpaceTimeDomain
) -> float:
    """Exact P[no jump of magnitude > K on the window] = exp(-T*L*K**-a/a)."""
    if K <= 0.0:
        raise ParameterError(f"threshold must be positive, got {K}")
    a = params.alpha
    return math.exp(-dom.horizon_T * dom.length_L * K ** -a / a)


def restrict(realization: NoiseRealization, K_new: float) -> NoiseRealization:
    """Drop jumps above K_new and recompute the compensator for that cutoff.

    Keeps the seed and the time order, so realizations at different
    cutoffs are pathwise coupled: they agree jump-for-jump up to the
    first magnitude above the smaller cutoff.
    """
    trunc = realization.truncation
    if not trunc.small_cutoff_eps < K_new <= trunc.big_cutoff_K:
        raise ParameterError(
            f"K_new={K_new} outside the restrictable window "
            f"({trunc.small_cutoff_eps}, {trunc.big_cutoff_K}]"
        )
    keep = np.abs(realization.zs) <= K_new
    return replace(
        realization,
        truncation=replace(trunc, big_cutoff_K=K_new),
        taus=realization.taus[keep].copy(),
        xs=realization.xs[keep].copy(),
        zs=realization.zs[keep].copy(),
    )
