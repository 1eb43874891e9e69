"""Two independent solvers for the truncated jump-driven heat equation.

``solve_mild`` solves the heat-kernel integral form of the equation on
successive time windows.  Within a window the map is strictly causal:
drift integrals use left-endpoint quadrature on the grid times, and each
jump reads the state at its own left limit, so the discretized map is
strictly lower triangular in event order.  Grid sources reach later grid
times in N sine modes, where G_t is diagonal and N is certified by the
kernel's series tail bound at one step; jump terms, whose lags can be
shorter, stay on the kernel's image sum.  Two consequences of causality
are exploited deliberately:

* one forward pass in time order computes the exact fixed point of the
  map, with no iteration and no tolerance (the cross-cutoff consistency
  experiment demands agreement far below any iteration tolerance);
* values at times before the first event that distinguishes two coupled
  runs are bitwise identical between them.

``solve_galerkin`` projects every jump onto the first m sine modes
once, before it steps in time, and integrates the resulting finite
jump-driven stiff system exactly between events with an exponential
step, applying jumps at their exact times.

Both solvers are deterministic functions of (problem, noise, grid) and
share immutable inputs, so concurrent solves need no locking.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from .coefficients import CoefficientSpec, InitialCondition, validate_hypothesis
from .errors import BlowUpError, ParameterError
from .kernel import KernelEvaluator
from .noise import (
    NoiseRealization,
    SpaceTimeDomain,
    StableParams,
    TruncationSpec,
)

__all__ = [
    "GridSpec",
    "ProblemSpec",
    "GridSolution",
    "SpectralSolution",
    "solve_mild",
    "solve_galerkin",
    "spectral_to_grid",
    "weak_form_residual",
    "grid_h_norm",
    "grid_lp_norm_p",
]

# Lags shorter than this multiple of the quadrature spacing squared are
# treated as the identity (the kernel is narrower than the quadrature
# can resolve, and G_0 acts as a delta).
_LAG_MIN_FACTOR = 2.0


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time grid: n_t steps in time, n_x cells in space."""

    n_t: int
    n_x: int

    def __post_init__(self):
        if self.n_t < 2 or self.n_x < 2:
            raise ParameterError("need n_t >= 2 and n_x >= 2")

    def dt(self, horizon_T: float) -> float:
        return horizon_T / self.n_t

    def dx(self, length_L: float) -> float:
        return length_L / self.n_x

    def times(self, horizon_T: float) -> np.ndarray:
        return np.linspace(0.0, horizon_T, self.n_t + 1)

    def nodes(self, length_L: float) -> np.ndarray:
        return np.linspace(0.0, length_L, self.n_x + 1)


@dataclass(frozen=True)
class ProblemSpec:
    """Full data of one truncated equation instance."""

    params: StableParams
    trunc: TruncationSpec
    dom: SpaceTimeDomain
    drift: CoefficientSpec
    noise_coef: CoefficientSpec
    init: InitialCondition

    def validate(self, require_monotone: bool = False) -> None:
        """Audit the coefficient hypotheses and the initial condition."""
        t_range, x_range = (0.0, self.dom.horizon_T), (0.0, self.dom.length_L)
        validate_hypothesis(self.drift, t_range=t_range, x_range=x_range)
        validate_hypothesis(
            self.noise_coef, require_monotone, t_range=t_range, x_range=x_range
        )
        self.init.validate_dirichlet(self.dom.length_L)

    def with_truncation(self, trunc: TruncationSpec) -> "ProblemSpec":
        return replace(self, trunc=trunc)

    def canonical(self) -> dict:
        return {
            "params": asdict(self.params),
            "truncation": asdict(self.trunc),
            "domain": asdict(self.dom),
            "drift": self.drift.canonical(),
            "noise_coef": self.noise_coef.canonical(),
            "init": self.init.canonical(),
        }


@dataclass
class GridSolution:
    """Solution values on the space-time grid, boundaries exactly zero."""

    values: np.ndarray  # shape (n_t + 1, n_x + 1)
    problem: ProblemSpec
    grid: GridSpec
    # Passes per mild-solver window: always 1, since the causal march
    # never iterates.  perfbench/tracing.py counts windows and sweeps
    # from this list, and its smoke test requires those counters.
    picard_iterations: list = field(default_factory=list)
    solver_tag: str = "mild"

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise BlowUpError(f"non-finite values in {self.solver_tag} solution")

    def times(self) -> np.ndarray:
        return self.grid.times(self.problem.dom.horizon_T)

    def nodes(self) -> np.ndarray:
        return self.grid.nodes(self.problem.dom.length_L)

    def save_csv(self, path) -> None:
        nodes = self.nodes()
        times = self.times()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t," + ",".join(f"x={x:.17g}" for x in nodes) + "\n")
            for t, row in zip(times, self.values):
                fh.write(
                    f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n"
                )

    def metadata(self) -> dict:
        return {
            "solver_tag": self.solver_tag,
            "grid": {"n_t": self.grid.n_t, "n_x": self.grid.n_x},
        }


@dataclass
class SpectralSolution:
    """Mode-coefficient paths a_n(t_i) for the projected dynamics."""

    coeffs: np.ndarray  # shape (n_t + 1, m)
    m: int
    problem: ProblemSpec
    grid: GridSpec
    solver_tag: str = "galerkin"

    def __post_init__(self):
        if not np.all(np.isfinite(self.coeffs)):
            raise BlowUpError("non-finite coefficients in spectral solution")


def _basis_matrix(x: np.ndarray, m: int, length_L: float) -> np.ndarray:
    """Orthonormal sine basis sampled at x: shape (len(x), m)."""
    n = np.arange(1, m + 1)
    return math.sqrt(2.0 / length_L) * np.sin(
        np.pi * np.outer(np.asarray(x, float), n) / length_L
    )


def _mode_rates(m: int, length_L: float) -> np.ndarray:
    """Rates (n pi / L)^2 / 2 at which G_t damps the first m sine modes."""
    return (np.arange(1, m + 1) * math.pi / length_L) ** 2 / 2.0


def grid_h_norm(row: np.ndarray, dx: float) -> float:
    """Trapezoid L2 norm of grid-node values."""
    sq = np.asarray(row, float) ** 2
    return math.sqrt(dx * (0.5 * sq[0] + sq[1:-1].sum() + 0.5 * sq[-1]))


def grid_lp_norm_p(row: np.ndarray, dx: float, p: float) -> float:
    """Trapezoid value of int |row|^p dx (the p-th power, not its root)."""
    ap = np.abs(np.asarray(row, float)) ** p
    return float(dx * (0.5 * ap[0] + ap[1:-1].sum() + 0.5 * ap[-1]))


# -- mild-form causal-march solver ----------------------------------------

def _sine_factors(ke, x_all, y_q, w_q, dt, max_lag):
    """(basis, proj, decay): G_(k*dt) applied to a source column h on y_q and
    read on x_all is ``(decay[k-1] * (proj @ h)) @ basis.T`` for k = 1..max_lag,
    in the N modes the kernel certifies at the shortest lag, dt."""
    L = ke.length_L
    N = ke.propagator_modes(dt)
    basis = _basis_matrix(x_all, N, L)
    basis[(x_all == 0.0) | (x_all == L)] = 0.0  # G vanishes on the boundary
    proj = _basis_matrix(y_q, N, L).T * w_q
    decay = np.exp(-np.arange(1, max_lag + 1)[:, None] * dt * _mode_rates(N, L))
    return basis, proj, decay


def _integrand_column(problem, mu, s, y_q, u, gauss_row):
    """Drift-like integrand f - mu*phi (+ phi * Gaussian field) at one grid source."""
    col = np.asarray(problem.drift.evaluate(s, y_q, u), float)
    if mu != 0.0 or gauss_row is not None:
        pv = np.asarray(problem.noise_coef.evaluate(s, y_q, u), float)
        if mu != 0.0:
            col = col - mu * pv
        if gauss_row is not None:
            col = col + pv * gauss_row
    return col


def _jump_kernels(ke, x_all, y_q, w_q, src_times, t_targets, jt, jx, lag_min):
    """Every kernel value one window's jumps read, in one ``eval`` call per kind.

    With slot(l) the grid step whose jumps include jump l, returns
    (near, rows, jj, cols):

    * rows[l, k] = G(jt_l - s_k, jx_l, y_q) * w_q for sources k <= slot(l)
      whose lag is at least lag_min; ``near`` marks the shorter lags,
      where the kernel acts as the identity and the march interpolates;
    * jj[l, k] = G(jt_l - jt_k, jx_l, jx_k) for strictly earlier jumps k;
    * cols[l, i] = G(max(t_i - jt_l, 1e-18), x_all, jx_l) for i >= slot(l).
    """
    slot = np.searchsorted(t_targets, jt, "left")[:, None]
    steps = np.arange(t_targets.size)

    src_lag = jt[:, None] - src_times
    near = src_lag < lag_min
    use = (steps <= slot) & ~near
    rows = np.zeros(use.shape + y_q.shape)
    at = np.nonzero(use)[0]
    rows[use] = ke.eval(src_lag[use][:, None], jx[at, None], y_q) * w_q

    jj_lag = jt[:, None] - jt
    earlier = jj_lag > 0.0  # times are sorted, so only k < l qualify
    jj = np.zeros(earlier.shape)
    at_l, at_k = np.nonzero(earlier)
    jj[earlier] = ke.eval(jj_lag[earlier], jx[at_l], jx[at_k])

    ahead = steps >= slot
    cols = np.zeros(ahead.shape + x_all.shape)
    tgt_lag = np.maximum(t_targets - jt[:, None], 1e-18)
    at = np.nonzero(ahead)[0]
    cols[ahead] = ke.eval(tgt_lag[ahead][:, None], x_all, jx[at, None])
    return near, rows, jj, cols


def _solve_window(
    problem, noise, ke, x_all, y_q, w_q, factors, a_idx, w, dt, v_a_q, jumps, gauss_rows
):
    """The mild map on one window of w grid steps, solved in one causal pass.

    ``jumps`` holds the window's time-sorted jumps in (a, a + w*dt] and
    ``factors`` the sine propagator of ``_sine_factors``.  Returns
    (targets, u_left): targets has shape (w, len(x_all)) and u_left holds
    the state at each jump's left limit.
    """
    a = a_idx * dt
    n_q = y_q.size
    basis, proj, decay = factors
    lag_min = _LAG_MIN_FACTOR * (w_q * w_q)
    mu = noise.compensator_mu
    jt, jx, jz = jumps
    n_jump = jt.size
    t_targets = a + dt * np.arange(1, w + 1)
    # Each batched kernel value depends on its own arguments only, and the
    # march below keeps the per-jump order of the dot products and
    # updates, so the batches change no bit of the result (nor the
    # cross-cutoff prefix, whatever later jumps a batch holds).
    if n_jump:
        near, rows, jj, cols = _jump_kernels(
            ke, x_all, y_q, w_q, a + np.arange(w) * dt, t_targets, jt, jx, lag_min
        )

    # Kernel row of source k applied at jump l.  Lags below the
    # quadrature resolution fall back to interpolation (the kernel acts
    # as the identity there).
    def row_apply(l, k, vec_q):
        if near[l, k]:
            return float(np.interp(jx[l], y_q, vec_q))
        return float(rows[l, k] @ vec_q)

    # Propagation of the window-initial state to every target time.
    targets = (decay[:w] * (proj @ v_a_q)) @ basis.T
    h = np.empty((w, n_q))
    u_left = np.empty(n_jump)
    kick = np.empty(n_jump)  # phi(tau-, x, u(tau-)) * z per jump
    l = 0
    for j in range(w):
        # Sources s_0..s_(j-1) and every jump up to s_j have reached the
        # target at s_j, so the state there is final.
        u_j = v_a_q if j == 0 else targets[j - 1, -n_q:]
        h[j] = _integrand_column(
            problem, mu, a + j * dt, y_q, u_j,
            None if gauss_rows is None else gauss_rows[j],
        )
        # Source s_j reaches the later targets at lags dt..(w-j)*dt.
        targets[j:] += dt * ((decay[: w - j] * (proj @ h[j])) @ basis.T)

        # Jumps in (s_j, s_(j+1)], in time order: each reads v_a, the
        # drift sources s_0..s_j and the earlier jumps of the window.
        while l < n_jump and jt[l] <= t_targets[j]:
            val = row_apply(l, 0, v_a_q)
            for k in range(j + 1):
                s_k = a + k * dt
                weight = min(a + (k + 1) * dt, jt[l]) - s_k
                val += weight * row_apply(l, k, h[k])
            for k in range(l):
                if jt[l] > jt[k]:
                    val += float(jj[l, k]) * kick[k]
            u_left[l] = val
            phi = float(problem.noise_coef.evaluate(jt[l], jx[l], val))
            kick[l] = phi * jz[l]
            targets[j:] += cols[l, j:] * kick[l]
            l += 1

    if not (np.all(np.isfinite(targets)) and np.all(np.isfinite(u_left))):
        raise BlowUpError(
            f"non-finite state in window ({a:.6g}, {t_targets[-1]:.6g}] of the "
            f"mild solve, noise seed {noise.seed}",
            path_seed=noise.seed,
        )
    return targets, u_left


def solve_mild(
    problem: ProblemSpec,
    noise: NoiseRealization,
    grid: GridSpec,
    *,
    window_steps: int = 4,
) -> GridSolution:
    """Discretized heat-kernel integral equation, solved in one causal pass.

    Per window of ``window_steps`` grid steps the solution satisfies

        u(t) = G_(t-a) u(a) + sum_s dt * G_(t-s)[f - mu*phi](s, ., u(s))
               + sum_(a < tau_j <= t) G_(t-tau_j)(., x_j) phi(tau_j-, x_j,
                 u(tau_j-, x_j)) z_j

    with left-endpoint drift sources and each jump read at its own left
    limit.  The map is strictly lower triangular in event order, so one
    forward pass in time order computes its fixed point exactly: grid
    source, then the jumps up to the next grid time, then that target.
    """
    if window_steps < 1:
        raise ParameterError("window_steps must be >= 1")
    _check_noise_matches(problem, noise)

    T, L = problem.dom.horizon_T, problem.dom.length_L
    n_t, n_x = grid.n_t, grid.n_x
    dt = grid.dt(T)
    n_q = 4 * n_x
    ke = KernelEvaluator(length_L=L)
    x_out = grid.nodes(L)
    y_q, w_q = ke.quad_nodes(n_q)
    x_all = np.concatenate([x_out, y_q])
    factors = _sine_factors(ke, x_all, y_q, w_q, dt, window_steps)

    gauss = None
    if problem.trunc.gaussian_correction:
        # Scaled so that adding phi*gauss to the drift integrand
        # reproduces sum G * phi * dW over the cells of one step.
        gauss = noise.gaussian_increments(n_t, n_q) / (dt * w_q)

    values = np.empty((n_t + 1, n_x + 1))
    values[0] = problem.init.values(x_out)
    values[0, [0, -1]] = 0.0

    v_a_q = problem.init.values(y_q)
    windows = range(0, n_t, window_steps)
    for a_idx in windows:
        w = min(window_steps, n_t - a_idx)
        a = a_idx * dt
        in_window = (noise.taus > a) & (noise.taus <= a + w * dt)
        jumps = (noise.taus[in_window], noise.xs[in_window], noise.zs[in_window])
        gauss_rows = gauss[a_idx : a_idx + w] if gauss is not None else None
        targets, _ = _solve_window(
            problem, noise, ke, x_all, y_q, w_q, factors, a_idx, w, dt, v_a_q,
            jumps, gauss_rows,
        )
        values[a_idx + 1 : a_idx + w + 1] = targets[:, : n_x + 1]
        v_a_q = targets[-1, -n_q:]

    return GridSolution(
        values=values,
        problem=problem,
        grid=grid,
        picard_iterations=[1] * len(windows),
        solver_tag="mild",
    )


def _check_noise_matches(problem: ProblemSpec, noise: NoiseRealization) -> None:
    if noise.params != problem.params:
        raise ParameterError("noise realization and problem disagree on parameters")
    if noise.domain != problem.dom:
        raise ParameterError("noise realization and problem disagree on the domain")
    if noise.truncation != problem.trunc:
        raise ParameterError("noise realization and problem disagree on truncation")


# -- spectral projection solver ------------------------------------------


def _basis_integrals(m: int, length_L: float) -> np.ndarray:
    """Exact integrals of the basis functions over [0, L]."""
    n = np.arange(1, m + 1)
    return math.sqrt(2.0 / length_L) * length_L * (1.0 - np.cos(n * np.pi)) / (
        n * np.pi
    )


def _phi1(x: np.ndarray) -> np.ndarray:
    """(1 - exp(-x))/x, stable at the origin."""
    out = np.empty_like(x)
    small = x < 1e-8
    out[small] = 1.0 - 0.5 * x[small]
    out[~small] = -np.expm1(-x[~small]) / x[~small]
    return out


def solve_galerkin(
    problem: ProblemSpec,
    noise: NoiseRealization,
    m: int,
    grid: GridSpec,
) -> SpectralSolution:
    """Event-driven exponential integration of the m-mode projection.

    Between events each coefficient decays exactly at its mode rate
    while the drift (plus compensator, plus optional Gaussian
    correction) is frozen at the left state; at each jump time tau the
    coefficients gain the projected multiplication-operator action

        da_n = sum_k <phi(tau-, ., u(tau-)) e_k, e_n> e_k(x_j) z_j

    evaluated by quadrature at the jump's exact time.
    """
    if m < 1:
        raise ParameterError("m must be >= 1")
    _check_noise_matches(problem, noise)
    T, L = problem.dom.horizon_T, problem.dom.length_L
    n_t = grid.n_t
    dt = grid.dt(T)
    n_q = 4 * grid.n_x
    if m > n_q // 4:
        raise ParameterError(
            f"m={m} too large for quadrature resolution n_quad={n_q}"
        )
    y_q, w_q = KernelEvaluator(length_L=L).quad_nodes(n_q)
    basis = _basis_matrix(y_q, m, L)  # (n_q, m)
    rates = _mode_rates(m, L)
    mu = noise.compensator_mu
    comp_profile = basis @ _basis_integrals(m, L) if mu != 0.0 else None

    gauss = None
    if problem.trunc.gaussian_correction:
        gauss = noise.gaussian_increments(n_t, n_q) / (dt * w_q)

    a = basis.T @ (w_q * problem.init.values(y_q))
    coeffs = np.empty((n_t + 1, m))
    coeffs[0] = a

    def advance(a_vec, t_left, delta, step_idx):
        if delta <= 0.0:
            return a_vec
        u_q = basis @ a_vec
        b = basis.T @ (w_q * np.asarray(problem.drift.evaluate(t_left, y_q, u_q), float))
        if mu != 0.0 or gauss is not None:
            pv = np.asarray(problem.noise_coef.evaluate(t_left, y_q, u_q), float)
            if mu != 0.0:
                b = b - mu * (basis.T @ (w_q * pv * comp_profile))
            if gauss is not None:
                b = b + basis.T @ (w_q * pv * gauss[step_idx])
        lam_d = rates * delta
        return np.exp(-lam_d) * a_vec + delta * _phi1(lam_d) * b

    jump_idx = 0
    taus = noise.taus
    increments = _basis_matrix(noise.xs, m, L) * noise.zs[:, None]  # (n_jumps, m)
    for i in range(n_t):
        t0, t1 = i * dt, (i + 1) * dt
        t_cur = t0
        while jump_idx < taus.size and taus[jump_idx] <= t1:
            tau = float(taus[jump_idx])
            a = advance(a, t_cur, tau - t_cur, i)
            u_q = basis @ a
            pv = np.asarray(problem.noise_coef.evaluate(tau, y_q, u_q), float)
            spike = basis @ increments[jump_idx]
            a = a + basis.T @ (w_q * pv * spike)
            t_cur = tau
            jump_idx += 1
        a = advance(a, t_cur, t1 - t_cur, i)
        if not np.all(np.isfinite(a)):
            raise BlowUpError(
                f"non-finite coefficients in step ({t0:.6g}, {t1:.6g}] of the "
                f"{m}-mode Galerkin solve, noise seed {noise.seed}",
                path_seed=noise.seed,
            )
        coeffs[i + 1] = a

    return SpectralSolution(coeffs=coeffs, m=int(m), problem=problem, grid=grid)


def spectral_to_grid(sol: SpectralSolution, grid: GridSpec) -> GridSolution:
    """Synthesize mode coefficients onto grid nodes (boundaries exact zeros)."""
    if grid.n_t != sol.grid.n_t:
        raise ParameterError("grid time resolution must match the coefficient paths")
    L = sol.problem.dom.length_L
    nodes = grid.nodes(L)
    basis_nodes = _basis_matrix(nodes, sol.m, L)
    values = sol.coeffs @ basis_nodes.T
    values[:, 0] = 0.0
    values[:, -1] = 0.0
    return GridSolution(
        values=values,
        problem=sol.problem,
        grid=grid,
        solver_tag=f"galerkin(m={sol.m})",
    )


# -- weak-form residual diagnostic ----------------------------------------


def _default_test_fn(length_L: float) -> Callable[[np.ndarray], np.ndarray]:
    def chi(x):
        return np.sin(math.pi * np.asarray(x, float) / length_L) ** 3

    return chi


def weak_form_residual(
    sol: GridSolution,
    noise: NoiseRealization,
    test_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    *,
    t: float,
) -> float:
    """Absolute residual of the variational identity at grid time t.

    The test function must vanish together with its first derivative at
    both endpoints (checked numerically); default is sin^3(pi x / L).
    All integrals are evaluated on the solution grid, so the residual
    carries the grid's discretization error and shrinks under
    refinement.
    """
    problem, grid = sol.problem, sol.grid
    T, L = problem.dom.horizon_T, problem.dom.length_L
    dt, dx = grid.dt(T), grid.dx(L)
    idx = int(round(t / dt))
    if not 0 <= idx <= grid.n_t or abs(t - idx * dt) > 1e-9 * max(T, 1.0):
        raise ParameterError(f"t={t} is not a grid time")
    chi = test_fn or _default_test_fn(L)

    h = 1e-6 * L
    scale = float(np.max(np.abs(chi(np.linspace(0, L, 64))))) or 1.0
    for pt in (0.0, L):
        if abs(float(chi(np.asarray(pt)))) > 1e-8 * scale:
            raise ParameterError("test function must vanish at the boundary")
        inner = pt + h if pt == 0.0 else pt - h
        deriv = (float(chi(np.asarray(inner))) - float(chi(np.asarray(pt)))) / h
        if abs(deriv) > 1e-4 * scale / L:
            raise ParameterError(
                "test function's derivative must vanish at the boundary"
            )

    nodes = grid.nodes(L)
    chi_v = np.asarray(chi(nodes), float)
    hh = 1e-4 * L
    chi_dd = (
        np.asarray(chi(nodes + hh), float)
        - 2.0 * chi_v
        + np.asarray(chi(nodes - hh), float)
    ) / hh**2

    def pair(row, weights):
        prod = row * weights
        return dx * (0.5 * prod[0] + prod[1:-1].sum() + 0.5 * prod[-1])

    rows = sol.values[: idx + 1]
    times = np.arange(idx + 1) * dt

    lhs = pair(rows[-1], chi_v)
    rhs = pair(rows[0], chi_v)

    lap_terms = np.array([pair(r, chi_dd) for r in rows])
    rhs += 0.5 * np.trapezoid(lap_terms, dx=dt)

    f_terms = np.array(
        [pair(np.asarray(problem.drift.evaluate(s, nodes, r), float), chi_v)
         for s, r in zip(times, rows)]
    )
    rhs += np.trapezoid(f_terms, dx=dt)

    mu = noise.compensator_mu
    phi_rows = [
        np.asarray(problem.noise_coef.evaluate(s, nodes, r), float)
        for s, r in zip(times, rows)
    ]
    if mu != 0.0:
        comp_terms = np.array([pair(pr, chi_v) for pr in phi_rows])
        rhs -= mu * np.trapezoid(comp_terms, dx=dt)

    t_end = idx * dt
    for tau, xj, zj in zip(noise.taus, noise.xs, noise.zs):
        if tau > t_end:
            break
        i_pre = max(0, min(idx, int(math.ceil(tau / dt - 1e-12)) - 1))
        u_pre = float(np.interp(xj, nodes, sol.values[i_pre]))
        phi_val = float(problem.noise_coef.evaluate(tau, xj, u_pre))
        rhs += phi_val * float(np.interp(xj, nodes, chi_v)) * zj

    if problem.trunc.gaussian_correction:
        n_q = 4 * grid.n_x
        y_q, _ = KernelEvaluator(length_L=L).quad_nodes(n_q)
        chi_q = np.asarray(chi(y_q), float)
        dW = noise.gaussian_increments(grid.n_t, n_q)
        for i in range(idx):
            u_row = np.interp(y_q, nodes, sol.values[i])
            pv = np.asarray(
                problem.noise_coef.evaluate(i * dt, y_q, u_row), float
            )
            rhs += float(np.sum(pv * chi_q * dW[i]))

    return abs(lhs - rhs)
