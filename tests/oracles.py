"""Reference computations that only the tests use.

Each one is built from the package's public names alone, so a test that
holds the package against one holds it against a second spelling of the
same mathematics:

* ``series_oracle``, ``full_image_sum`` and ``image_sum``: the Dirichlet
  heat kernel from each of its representations, in plain floats, in
  40-digit decimals and in numpy, each at a fixed truncation, and
  ``other_representation``, which reads at each t the one that the
  kernel does not use there;
* ``midpoint_nodes``, ``convolve``, ``check_semigroup`` and ``lp_norm``:
  midpoint quadrature in y against the Dirichlet heat kernel;
* ``integrate`` and ``levy_moment``: the compensated integral of a test
  function against a noise realization, and the jump-size moments;
* ``weak_form_residual``: the variational identity that a mild solution
  satisfies up to its grid's discretization error.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from typing import Callable

import numpy as np

from stableheat.errors import NumericalError, ParameterError
from stableheat.kernel import KernelEvaluator
from stableheat.noise import NoiseRealization, StableParams
from stableheat.solvers import GridSolution

# -- the heat kernel ------------------------------------------------------

_PI_40 = Decimal("3.141592653589793238462643383279502884197")


def series_oracle(t, x, y, L=1.0, n_max=60):
    """G_t(x, y) from its first n_max sine modes, term by term in plain
    floats, and a bound on the dropped modes."""
    total = 0.0
    for n in range(1, n_max + 1):
        lam = (n * math.pi / L) ** 2 / 2.0
        total += (2.0 / L) * math.sin(n * math.pi * x / L) * math.sin(
            n * math.pi * y / L
        ) * math.exp(-lam * t)
    rate = math.pi**2 * t / (2 * L * L)
    tail = (2.0 / L) * math.exp(-rate * (n_max + 1) ** 2) / (1 - math.exp(-rate))
    return total, tail


def full_image_sum(t, x, y, L, shifts=8):
    """G_t(x, y) from the 2*shifts+1 image pairs, and the sum of the
    absolute terms that a float sum's rounding scales with.

    The floats are read exactly and everything after is taken in 40-digit
    decimals, so the oracle's own rounding is negligible next to a
    float's: at x = L, where the images cancel in pairs, it returns 0.
    """
    with localcontext(prec=40):
        t, x, y, L = (Decimal(v) for v in (t, x, y, L))
        total = scale = Decimal(0)
        for k in range(-shifts, shifts + 1):
            direct = (-((y - x + 2 * k * L) ** 2) / (2 * t)).exp()
            reflected = (-((y + x + 2 * k * L) ** 2) / (2 * t)).exp()
            total += direct - reflected
            scale += direct + reflected
        norm = (2 * _PI_40 * t).sqrt()
        return float(total / norm), float(scale / norm)


def image_sum(t, x, y, L, shifts=8):
    """G_t(x, y) from the 2*shifts+1 image pairs, all of them at every t,
    in numpy floats; t, x and y broadcast.

    Each image's exponent -(y -+ x + 2kL)^2 / (2t) and its exponential
    are formed by the same float operations as in the kernel's image sum,
    whose rounding an exact oracle would add to every difference (as a
    relative error of up to the exponent times eps); the images are
    summed in numpy's own order.  G vanishes on the boundary, where the
    images cancel only to rounding, so it is zero there.
    """
    t, x, y = (np.asarray(v, float) for v in (t, x, y))
    k = np.arange(-shifts, shifts + 1).reshape((-1,) + (1,) * max(t.ndim, x.ndim, y.ndim))
    diff = y - x + 2.0 * L * k
    summ = y + x + 2.0 * L * k
    val = np.exp(-(diff * diff) / (2.0 * t)) - np.exp(-(summ * summ) / (2.0 * t))
    val = val.sum(axis=0) / np.sqrt(2.0 * math.pi * t)
    return np.where((x == 0.0) | (x == L) | (y == 0.0) | (y == L), 0.0, val)


def other_representation(t, x, y, L=1.0):
    """G_t(x, y) from the oracle of the representation that the kernel
    does not use at t: the series below its crossover t = L^2/pi, the
    image sum above it."""
    if t < L * L / math.pi:
        value, tail = series_oracle(t, x, y, L, n_max=256)
        assert tail < 1e-20
        return value
    return full_image_sum(t, x, y, L)[0]


def midpoint_nodes(length_L: float, n_quad: int) -> tuple[np.ndarray, float]:
    """Composite-midpoint nodes and weight on [0, L]."""
    if n_quad < 2:
        raise ParameterError("n_quad must be >= 2")
    w = length_L / n_quad
    return (np.arange(n_quad) + 0.5) * w, w


def convolve(
    ke: KernelEvaluator, t: float, h: Callable[[np.ndarray], np.ndarray], n_quad: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Return x -> integral of G_t(x, y) h(y) dy by midpoint quadrature.

    t = 0 returns h itself (the kernel degenerates to the identity).
    """
    if t == 0.0:
        return lambda x: np.asarray(h(np.asarray(x, float)), float)
    nodes, w = midpoint_nodes(ke.length_L, n_quad)
    hv = np.asarray(h(nodes), dtype=float)
    if hv.shape != nodes.shape:
        hv = np.broadcast_to(hv, nodes.shape).copy()
    if not np.all(np.isfinite(hv)):
        raise NumericalError("convolution input is non-finite on [0, L]")

    def conv(x):
        xa = np.asarray(x, dtype=float)
        vals = ke.eval(t, xa[..., None], nodes)
        return np.asarray(vals * hv).sum(axis=-1) * w

    return conv


def check_semigroup(
    ke: KernelEvaluator, s: float, t: float, x: float, z: float, n_quad: int
) -> float:
    """|integral G_s(x,y) G_t(y,z) dy - G_(s+t)(x,z)|."""
    if s <= 0.0 or t <= 0.0:
        raise ParameterError("semigroup check needs s, t > 0")
    nodes, w = midpoint_nodes(ke.length_L, n_quad)
    lhs = float(np.sum(ke.eval(s, x, nodes) * ke.eval(t, nodes, z)) * w)
    rhs = float(ke.eval(s + t, x, z))
    return abs(lhs - rhs)


def lp_norm(ke: KernelEvaluator, t: float, x: float, p: float, n_quad: int) -> float:
    """integral |G_t(x,y)|^p dy by midpoint quadrature."""
    nodes, w = midpoint_nodes(ke.length_L, n_quad)
    return float(np.sum(np.abs(ke.eval(t, x, nodes)) ** p) * w)


# -- the noise ------------------------------------------------------------


def levy_moment(params: StableParams, K: float, p: float) -> float:
    """Absolute p-moment of the cutoff-K jump-size density, K**(p-a)/(p-a).

    Defined for p > alpha only; at and below alpha the integral diverges
    at the origin.
    """
    if K <= 0.0:
        raise ParameterError(f"cutoff must be positive, got {K}")
    if p <= params.alpha:
        raise ParameterError(
            f"moment integral diverges for p={p} <= stability index {params.alpha}"
        )
    return K ** (p - params.alpha) / (p - params.alpha)


def integrate(
    realization: NoiseRealization,
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    t_end: float,
    *,
    n_time_cells: int = 256,
    n_space_cells: int = 256,
) -> float:
    """Compensated integral of g against the realization up to t_end.

    Jump part: sum of ``g(tau_j, x_j) * z_j`` over jumps with
    tau_j <= t_end, in time order.  Drift part:
    ``mu * integral of g over [0, t_end] x [0, L]`` by composite
    midpoint on an (n_time_cells, n_space_cells) grid covering the full
    domain; cells whose center lies past t_end are excluded, so
    additivity over time windows holds exactly for windows aligned with
    cell boundaries.  With the Gaussian correction on, the field
    realized on the same cell grid is added with the same alignment
    rule.
    """
    if not 0.0 <= t_end <= realization.domain.horizon_T:
        raise ParameterError(
            f"t_end={t_end} outside [0, {realization.domain.horizon_T}]"
        )
    T, L = realization.domain.horizon_T, realization.domain.length_L

    mask = realization.taus <= t_end
    gj = np.asarray(
        g(realization.taus[mask], realization.xs[mask]), dtype=float
    )
    if not np.all(np.isfinite(gj)):
        raise NumericalError("integrand returned non-finite values at jump points")
    jump_part = float(np.sum(gj * realization.zs[mask]))

    dt = T / n_time_cells
    dx = L / n_space_cells
    t_centers = (np.arange(n_time_cells) + 0.5) * dt
    x_centers = (np.arange(n_space_cells) + 0.5) * dx
    t_keep = t_centers <= t_end
    drift_part = 0.0
    gauss_part = 0.0
    if np.any(t_keep):
        tt = t_centers[t_keep]
        gv = np.asarray(g(tt[:, None], x_centers[None, :]), dtype=float)
        gv = np.broadcast_to(gv, (tt.size, x_centers.size))
        if not np.all(np.isfinite(gv)):
            raise NumericalError(
                "integrand returned non-finite values on the quadrature grid"
            )
        drift_part = realization.compensator_mu * float(np.sum(gv)) * dt * dx
        if realization.truncation.gaussian_correction:
            dW = realization.gaussian_increments(n_time_cells, n_space_cells)
            gauss_part = float(np.sum(gv * dW[t_keep]))
    return jump_part - drift_part + gauss_part


# -- the solution ---------------------------------------------------------


def trapezoid(values: np.ndarray, dx: float):
    """Trapezoid rule over the last axis of grid-node values."""
    return dx * (0.5 * values[..., 0] + values[..., 1:-1].sum(axis=-1) + 0.5 * values[..., -1])


def weak_form_residual(sol: GridSolution, noise: NoiseRealization, *, t: float) -> float:
    """Absolute residual of the variational identity at grid time t.

    The test function is sin^3(pi x / L), which vanishes together with
    its first derivative at both endpoints.  All integrals are evaluated
    on the solution grid, so the residual carries the grid's
    discretization error and shrinks under refinement.  A jump reads the
    state at s_j, the left end of the step j that ``GridSpec.step_of``,
    the solvers' step rule, puts it in.
    """
    problem, grid = sol.problem, sol.grid
    T, L = problem.dom.horizon_T, problem.dom.length_L
    dt, dx = grid.dt(T), grid.dx(L)
    idx = int(round(t / dt))
    if not 0 <= idx <= grid.n_t or abs(t - idx * dt) > 1e-9 * max(T, 1.0):
        raise ParameterError(f"t={t} is not a grid time")

    def chi(x):
        return np.sin(math.pi * x / L) ** 3

    nodes = grid.nodes(L)
    chi_v = chi(nodes)
    hh = 1e-4 * L
    chi_dd = (chi(nodes + hh) - 2.0 * chi_v + chi(nodes - hh)) / hh**2

    rows = sol.values[: idx + 1]
    times = np.arange(idx + 1)[:, None] * dt

    lhs = trapezoid(rows[-1] * chi_v, dx)
    rhs = trapezoid(rows[0] * chi_v, dx)
    rhs += 0.5 * np.trapezoid(trapezoid(rows * chi_dd, dx), dx=dt)
    f_rows = np.asarray(problem.drift.evaluate(times, nodes, rows), float)
    rhs += np.trapezoid(trapezoid(f_rows * chi_v, dx), dx=dt)

    mu = noise.compensator_mu
    if mu != 0.0:
        phi_rows = np.asarray(problem.noise_coef.evaluate(times, nodes, rows), float)
        rhs -= mu * np.trapezoid(trapezoid(phi_rows * chi_v, dx), dx=dt)

    t_end = grid.times(T)[idx]
    for tau, xj, zj in zip(noise.taus, noise.xs, noise.zs):
        if tau > t_end:
            break
        u_pre = float(np.interp(xj, nodes, sol.values[grid.step_of(T, tau)]))
        phi_val = float(problem.noise_coef.evaluate(tau, xj, u_pre))
        rhs += phi_val * float(np.interp(xj, nodes, chi_v)) * zj

    if problem.trunc.gaussian_correction:
        y_q, _ = grid.quad_nodes(L)
        chi_q = chi(y_q)
        dW = noise.gaussian_increments(grid.n_t, y_q.size)
        for i in range(idx):
            u_row = np.interp(y_q, nodes, sol.values[i])
            pv = np.asarray(
                problem.noise_coef.evaluate(i * dt, y_q, u_row), float
            )
            rhs += float(np.sum(pv * chi_q * dW[i]))

    return abs(lhs - rhs)
