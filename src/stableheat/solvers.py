"""Two independent solvers for the truncated jump-driven heat equation.

``solve_mild`` solves the heat-kernel integral form of the equation in
one pass over the whole horizon, with no time windows.  The map is
strictly causal: drift integrals use left-endpoint quadrature on the
grid times, and each jump reads the state at its own left limit, so the
discretized map is strictly lower triangular in event order.  One lag
rule splits the propagator: the N sine modes, where G_t is diagonal, are
read only at lags of one step or more, since N is certified by the
kernel's series tail bound at one step and so at every longer lag.  Two
mode vectors carry the state: one holds everything at or before the
previous grid time, the other the jumps of the last step, folded into
the first one step later.  A jump's own step and its pairs with the
jumps of its own step and the step before use the kernel's image sum,
evaluated once per solve since the jumps are known before any state is;
where dt <= 0.0157 L^2 (n_t >= 64 at T = L^2) own-step lags sum the
three nearest images only.  What depends on the grid alone (quadrature
nodes, sine factors, step decay) is built once per grid and shared
read-only, and a solve binds its two coefficient formulas once.  Two
consequences of causality are exploited deliberately:

* one forward pass in time order computes the exact fixed point of the
  map, with no iteration and no tolerance (the cross-cutoff consistency
  experiment demands agreement far below any iteration tolerance);
* values at times before the first event that distinguishes two coupled
  runs are bitwise identical between them.

``solve_galerkin`` projects every jump onto the first m sine modes
once, before it steps in time, and integrates the resulting finite
jump-driven stiff system exactly between events with an exponential
step, applying jumps at their exact times.  It and ``weak_form_residual``
take the quadrature nodes alone, from ``GridSpec.quad_nodes``.
Both solvers and the weak-form residual put a jump at time tau in the
step j with s_j < tau <= s_(j+1) of ``GridSpec.times`` (step 0 for
tau = 0): ``GridSpec.step_of`` is that one rule.

Both solvers are deterministic functions of (problem, noise, grid) and
share immutable inputs, so concurrent solves need no locking.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

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

    def step_of(self, horizon_T: float, t):
        """The step j with s_j < t <= s_(j+1) of ``times``, and 0 at t = 0:
        the one step rule for jumps in both solvers and the diagnostics."""
        return np.searchsorted(self.times(horizon_T)[1:-1], t, "left")

    def nodes(self, length_L: float) -> np.ndarray:
        return np.linspace(0.0, length_L, self.n_x + 1)

    def quad_nodes(self, length_L: float) -> tuple[np.ndarray, float]:
        """The 4*n_x composite midpoints on [0, L] and their weight: the
        quadrature nodes of both solvers and the weak-form residual."""
        return KernelEvaluator(length_L=length_L).quad_nodes(4 * self.n_x)


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
        validate_hypothesis(self.drift, self.dom)
        validate_hypothesis(self.noise_coef, self.dom, require_monotone)
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
    # [1] per mild solve, which never iterates; held for perfbench (ROADMAP item 1).
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


def _trapezoid(values: np.ndarray, dx: float):
    """Trapezoid rule over the last axis of grid-node values."""
    return dx * (0.5 * values[..., 0] + values[..., 1:-1].sum(axis=-1) + 0.5 * values[..., -1])


def grid_h_norm(values: np.ndarray, dx: float):
    """Trapezoid L2 norm of grid-node values, per row of a 2-d array."""
    return np.sqrt(_trapezoid(np.asarray(values, float) ** 2, dx))


def grid_lp_norm_p(values: np.ndarray, dx: float, p: float):
    """Trapezoid int |u|^p dx (the p-th power, not its root), per row of a 2-d array."""
    return _trapezoid(np.abs(np.asarray(values, float)) ** p, dx)


# -- mild-form causal-march solver ----------------------------------------

def _sine_factors(ke, x_all, y_q, w_q, dt):
    """(basis, proj, rates): G_t applied to a source column h on y_q and read
    on x_all is ``(np.exp(-t * rates) * (proj @ h)) @ basis.T``, in the N
    modes the kernel certifies at one step dt and so at every lag t >= dt."""
    L = ke.length_L
    N = ke.propagator_modes(dt)
    basis = _basis_matrix(x_all, N, L)
    basis[(x_all == 0.0) | (x_all == L)] = 0.0  # G vanishes on the boundary
    proj = _basis_matrix(y_q, N, L).T * w_q
    return basis, proj, _mode_rates(N, L)


class _Grid(NamedTuple):
    """The constants of a mild solve on one grid, shared read-only."""

    ke: KernelEvaluator
    dt: float
    x_out: np.ndarray  # grid nodes
    y_q: np.ndarray  # quadrature nodes, weight w_q
    w_q: float
    x_all: np.ndarray  # x_out then y_q: where a step's target is read
    basis: np.ndarray  # the _sine_factors triple
    proj: np.ndarray
    rates: np.ndarray
    step: np.ndarray  # exp(-dt * rates): one step of the sine propagator


@functools.lru_cache(maxsize=16)
def _grid_constants(length_L: float, horizon_T: float, grid: GridSpec) -> _Grid:
    """Build a grid's constants once; every mild solve on the grid shares
    them, so their arrays are made read-only."""
    ke = KernelEvaluator(length_L=length_L)
    dt = grid.dt(horizon_T)
    x_out = grid.nodes(length_L)
    y_q, w_q = grid.quad_nodes(length_L)
    x_all = np.concatenate([x_out, y_q])
    basis, proj, rates = _sine_factors(ke, x_all, y_q, w_q, dt)
    step = np.exp(-dt * rates)
    for arr in (x_out, y_q, x_all, basis, proj, rates, step):
        arr.setflags(write=False)
    return _Grid(ke, dt, x_out, y_q, w_q, x_all, basis, proj, rates, step)


def _integrand_column(drift, phi, mu, s, y_q, u, gauss_row):
    """Drift-like integrand f - mu*phi (+ phi * Gaussian field) at one grid
    source, from the formulas drift and phi (``CoefficientSpec.bind``)."""
    col = drift(s, y_q, u)
    if mu != 0.0 or gauss_row is not None:
        pv = phi(s, y_q, u)
        if mu != 0.0:
            col = col - mu * pv
        if gauss_row is not None:
            col = col + pv * gauss_row
    if col.shape != y_q.shape:  # a zero or constant f, alone
        col = np.broadcast_to(col, y_q.shape)
    return col


def _jump_table(g, noise, grid):
    """What the causal march reads of the jumps on ``grid`` (constants ``g``).

    None of it depends on the state, so a solve builds it once, with one
    ``eval`` call per kind.  ``GridSpec.step_of`` puts each jump in one
    step (s_j, s_(j+1)], back after its left end and ahead before its
    right end.  The table holds first (the jumps of step
    j are first[j]:first[j+1]) and, per time-sorted jump l, t, x, z, back,
    near[l] = back_l < lag_min (there the kernel acts as the identity),
    rows[l] = G(back_l, x_l, y_q) * w_q (zero where near), jj[l][k] =
    G(t_l - t_k, x_l, x_k) for the jumps k < l of its own step and the
    step before, from the first of them on (zero at equal times; older
    pairs are read in modes), cols[l] = G(max(ahead_l, 1e-18), x_all, x_l)
    and the modes e_back[l], e_ahead[l] = exp(-back_l rates) e(x_l),
    exp(-ahead_l rates) e(x_l).
    """
    ke, x_all, y_q, w_q, rates = g.ke, g.x_all, g.y_q, g.w_q, g.rates
    T, t, x, z = noise.domain.horizon_T, noise.taus, noise.xs, noise.zs
    s, in_step = grid.times(T), grid.step_of(T, t)
    first = np.searchsorted(in_step, np.arange(grid.n_t + 1), "left")
    back = t - s[in_step]
    ahead = s[in_step + 1] - t
    # Jump l pairs with the earlier jumps k = start_l .. l-1 of its own
    # step and the step before.
    start = first[np.maximum(in_step - 1, 0)]
    count = np.arange(t.size) - start
    offset = np.concatenate(([0], np.cumsum(count)))
    pair_l = np.repeat(np.arange(t.size), count)
    pair_k = start[pair_l] + np.arange(offset[-1]) - offset[pair_l]
    lag = t[pair_l] - t[pair_k]
    earlier = lag > 0.0
    near = back < _LAG_MIN_FACTOR * (w_q * w_q)
    rows, jj, cols = np.zeros((t.size, y_q.size)), np.zeros(lag.size), np.zeros((0, x_all.size))
    if t.size:
        cols = ke.eval(np.maximum(ahead, 1e-18)[:, None], x_all, x[:, None])
        rows[~near] = ke.eval(back[~near, None], x[~near, None], y_q) * w_q
        jj[earlier] = ke.eval(lag[earlier], x[pair_l[earlier]], x[pair_k[earlier]])
    e_jump = _basis_matrix(x, rates.size, ke.length_L)
    return (
        first, t, x, z, back, near, rows, [jj[i:k] for i, k in zip(offset[:-1], offset[1:])],
        cols, np.exp(-back[:, None] * rates) * e_jump, np.exp(-ahead[:, None] * rates) * e_jump,
    )


def _march(drift, phi, noise, g, v0_q, jumps, gauss, out):
    """The mild map over the whole horizon, solved in one causal pass.

    ``drift`` and ``phi`` are the bound coefficient formulas, ``g`` the
    grid's ``_Grid``, ``v0_q`` the initial data on y_q, ``jumps`` the
    tuple from ``_jump_table`` and ``gauss`` the scaled Gaussian field (or
    None).  Two N-vectors of sine modes carry the state: ``c`` holds the
    initial data, the drift sources and every jump at or before s_(j-1),
    propagated to s_j; ``c_prev`` holds the jumps of step j-1 at s_j and
    is folded into ``c`` by the next step factor, so nothing is read from
    the modes at a lag below dt.  A jump's own step (its row on the step's
    source, its column on the step's target) and jump-jump pairs in its
    own step and the step before use the image sum, precomputed in
    ``jumps``.  Step j's target on x_all is built in one buffer: its first
    ``out.shape[1]`` values go to ``out[j]`` and its values on y_q are the
    next step's source.  Returns u_left, the state at each jump's left
    limit.
    """
    dt, y_q, basis, proj, step = g.dt, g.y_q, g.basis, g.proj, g.step
    n_q, n_out = y_q.size, out.shape[1]
    mu = noise.compensator_mu
    first, jt, jx, jz, back, near, rows, jj, cols, e_back, e_ahead = jumps
    n_t = first.size - 1
    c, c_prev = np.zeros(step.size), 0.0
    u_j = v0_q  # the state on y_q at s_j
    bad = np.zeros(n_t, bool)  # steps whose target is non-finite
    probe = np.zeros(basis.shape[0])  # target @ probe is nan iff target is non-finite
    u_left = np.empty(jx.size)
    kick = np.empty(jx.size)  # phi(tau-, x, u(tau-)) * z per jump
    for j in range(n_t):
        # Every source and jump up to s_j has reached s_j: the state is final.
        h = _integrand_column(
            drift, phi, mu, j * dt, y_q, u_j, None if gauss is None else gauss[j]
        )
        own = v0_q if j == 0 else 0.0  # v_0 is read like step 0's source
        now = slice(first[j], first[j + 1])
        older = first[max(j - 1, 0)]
        # Jumps in (s_j, s_(j+1)], in time order: each reads its own step's
        # source on the image sum, the older state in modes, and the jumps
        # of its own step and the step before on the image sum.
        for l in range(now.start, now.stop):
            vec = own + back[l] * h
            val = float(np.interp(jx[l], y_q, vec)) if near[l] else float(rows[l] @ vec)
            val += float(e_back[l] @ c) + float(jj[l] @ kick[older:l])
            u_left[l] = val
            kick[l] = float(phi(jt[l], jx[l], val)) * jz[l]
        c = step * (c + c_prev + proj @ (own + dt * h))
        target = c @ basis.T
        c_prev = 0.0
        if now.start < now.stop:  # a step without jumps adds nothing
            target += kick[now] @ cols[now]
            c_prev = kick[now] @ e_ahead[now]
        bad[j] = math.isnan(target @ probe)  # a third the cost of np.isfinite().all()
        out[j] = target[:n_out]
        u_j = target[-n_q:]

    bad[np.repeat(np.arange(n_t), np.diff(first))[~np.isfinite(u_left)]] = True
    if bad.any():
        j = int(np.argmax(bad))
        raise BlowUpError(
            f"non-finite state in step ({j * dt:.6g}, {(j + 1) * dt:.6g}] of the "
            f"mild solve, noise seed {noise.seed}",
            path_seed=noise.seed,
        )
    return u_left


def solve_mild(
    problem: ProblemSpec,
    noise: NoiseRealization,
    grid: GridSpec,
) -> GridSolution:
    """Discretized heat-kernel integral equation, solved in one causal pass.

    On the grid times s_j = j*dt the solution satisfies

        u(t) = G_t u_0 + sum_(s_j < t) dt * G_(t-s_j)[f - mu*phi](s_j, ., u(s_j))
               + sum_(tau_l <= t) G_(t-tau_l)(., x_l) phi(tau_l-, x_l,
                 u(tau_l-, x_l)) z_l

    with left-endpoint drift sources and each jump read at its own left
    limit.  The map is strictly lower triangular in event order, so one
    forward pass in time order computes its fixed point exactly: grid
    source, then the jumps up to the next grid time, then that target.
    The grid's constants come from ``_grid_constants``, built once per
    grid, and f and phi are bound once per solve.
    """
    _check_noise_matches(problem, noise)

    n_t, n_x = grid.n_t, grid.n_x
    g = _grid_constants(problem.dom.length_L, problem.dom.horizon_T, grid)
    gauss = None
    if problem.trunc.gaussian_correction:
        # Scaled so that adding phi*gauss to the drift integrand
        # reproduces sum G * phi * dW over the cells of one step.
        gauss = noise.gaussian_increments(n_t, g.y_q.size) / (g.dt * g.w_q)

    values = np.empty((n_t + 1, n_x + 1))
    values[0] = problem.init.values(g.x_out)
    values[0, [0, -1]] = 0.0
    _march(
        problem.drift.bind(), problem.noise_coef.bind(), noise, g,
        problem.init.values(g.y_q), _jump_table(g, noise, grid), gauss, values[1:],
    )

    return GridSolution(
        values=values,
        problem=problem,
        grid=grid,
        picard_iterations=[1],
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
    y_q, w_q = grid.quad_nodes(L)
    n_q = y_q.size
    if m > n_q // 4:
        raise ParameterError(
            f"m={m} too large for quadrature resolution n_quad={n_q}"
        )
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
    drift, phi = problem.drift.bind(), problem.noise_coef.bind()

    def advance(a_vec, t_left, delta, step_idx):
        if delta <= 0.0:
            return a_vec
        u_q = basis @ a_vec
        # a zero or constant drift gives a scalar; basis.T needs a column
        b = basis.T @ (w_q * np.broadcast_to(drift(t_left, y_q, u_q), y_q.shape))
        if mu != 0.0 or gauss is not None:
            pv = phi(t_left, y_q, u_q)
            if mu != 0.0:
                b = b - mu * (basis.T @ (w_q * pv * comp_profile))
            if gauss is not None:
                b = b + basis.T @ (w_q * pv * gauss[step_idx])
        lam_d = rates * delta
        return np.exp(-lam_d) * a_vec + delta * _phi1(lam_d) * b

    taus, s = noise.taus, grid.times(T).tolist()
    first = np.searchsorted(grid.step_of(T, taus), np.arange(n_t + 1), "left")
    increments = _basis_matrix(noise.xs, m, L) * noise.zs[:, None]  # (n_jumps, m)
    for i in range(n_t):
        t_cur = s[i]
        for l in range(first[i], first[i + 1]):
            tau = float(taus[l])
            a = advance(a, t_cur, tau - t_cur, i)
            u_q = basis @ a
            pv = phi(tau, y_q, u_q)
            spike = basis @ increments[l]
            a = a + basis.T @ (w_q * pv * spike)
            t_cur = tau
        a = advance(a, t_cur, s[i + 1] - t_cur, i)
        if not np.all(np.isfinite(a)):
            raise BlowUpError(
                f"non-finite coefficients in step ({s[i]:.6g}, {s[i + 1]:.6g}] of the "
                f"{m}-mode Galerkin solve, noise seed {noise.seed}",
                path_seed=noise.seed,
            )
        coeffs[i + 1] = a

    return SpectralSolution(coeffs=coeffs, m=int(m), problem=problem, grid=grid)


def spectral_to_grid(sol: SpectralSolution) -> GridSolution:
    """Synthesize mode coefficients onto the nodes of the grid they were
    solved on (boundaries exact zeros)."""
    L, grid = sol.problem.dom.length_L, sol.grid
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


def weak_form_residual(sol: GridSolution, noise: NoiseRealization, *, t: float) -> float:
    """Absolute residual of the variational identity at grid time t.

    The test function is sin^3(pi x / L), which vanishes together with
    its first derivative at both endpoints.  All integrals are evaluated
    on the solution grid, so the residual carries the grid's
    discretization error and shrinks under refinement.
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

    lhs = _trapezoid(rows[-1] * chi_v, dx)
    rhs = _trapezoid(rows[0] * chi_v, dx)
    rhs += 0.5 * np.trapezoid(_trapezoid(rows * chi_dd, dx), dx=dt)
    f_rows = np.asarray(problem.drift.evaluate(times, nodes, rows), float)
    rhs += np.trapezoid(_trapezoid(f_rows * chi_v, dx), dx=dt)

    mu = noise.compensator_mu
    if mu != 0.0:
        phi_rows = np.asarray(problem.noise_coef.evaluate(times, nodes, rows), float)
        rhs -= mu * np.trapezoid(_trapezoid(phi_rows * chi_v, dx), dx=dt)

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
