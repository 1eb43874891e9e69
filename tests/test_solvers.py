import functools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableheat.coefficients import (
    affine,
    clipped_linear,
    constant,
    ic_sine_mode,
    ic_zero,
    sine_modulated,
    zero,
)
from stableheat import solvers
from stableheat.errors import BlowUpError, HypothesisError, ParameterError
from stableheat.experiments import positive_part_energy
from stableheat.kernel import _TAIL_FRACTION, KernelEvaluator
from stableheat.noise import (
    NoiseRealization,
    SpaceTimeDomain,
    StableParams,
    TruncationSpec,
    compensator_drift,
    restrict,
    sample_noise,
    stopping_time,
)
from stableheat.solvers import (
    GridSpec,
    ProblemSpec,
    grid_h_norm,
    grid_lp_norm_p,
    solve_galerkin,
    solve_mild,
    spectral_to_grid,
    weak_form_residual,
    _LAG_MIN_FACTOR,
    _basis_matrix,
    _grid_constants,
    _integrand_column,
    _jump_table,
    _march,
    _sine_factors,
)

SYM = StableParams(1.5, 0.5, 0.5)
DOM = SpaceTimeDomain(1.0, 1.0)
TRUNC = TruncationSpec(1.0, 0.05)


def make_problem(drift=None, noise_coef=None, init=None, trunc=TRUNC, params=SYM):
    return ProblemSpec(
        params=params,
        trunc=trunc,
        dom=DOM,
        drift=drift or zero(),
        noise_coef=noise_coef or zero(),
        init=init or ic_sine_mode(1, 1.0, 1.0),
    )


def manual_noise(taus, xs, zs, trunc=TRUNC, params=SYM):
    taus = np.asarray(taus, float)
    return NoiseRealization(
        params=params,
        truncation=trunc,
        domain=DOM,
        taus=taus,
        xs=np.asarray(xs, float),
        zs=np.asarray(zs, float),
        seed=0,
    )


HEAT_RATE = math.pi**2 / 2.0
ASYM = StableParams(1.5, 1.0, 0.0)


@functools.lru_cache(maxsize=4)
def lag_matrices(L, T, grid):
    """G_(k*dt)(x_all, y_q) * w_q on the image sum for k = 1..n_t: the
    kernel the solver's sine propagator stands in for, at every grid lag."""
    g = _grid_constants(L, T, grid)
    ke = KernelEvaluator(length_L=L, method="image_sum")
    return np.stack([
        ke.eval(k * g.dt, g.x_all[:, None], g.y_q[None, :]) * g.w_q
        for k in range(1, grid.n_t + 1)
    ])


def march(problem, noise, grid):
    """Grid values, the march's inputs, and its targets and left limits.

    Repeats solve_mild's set-up around the private whole-horizon march;
    ``inputs`` holds what a Picard sweep needs, with the kernel's own lag
    matrices at every grid lag in place of the sine propagator.
    """
    T, L = problem.dom.horizon_T, problem.dom.length_L
    g = _grid_constants(L, T, grid)
    ke, dt, x_all, y_q, w_q = g.ke, g.dt, g.x_all, g.y_q, g.w_q
    jumps = _jump_table(g, noise, grid)
    gauss = None
    if problem.trunc.gaussian_correction:
        gauss = noise.gaussian_increments(grid.n_t, y_q.size) / (dt * w_q)
    values = np.empty((grid.n_t + 1, grid.n_x + 1))
    values[0] = problem.init.values(g.x_out)
    values[0, [0, -1]] = 0.0
    v0_q = problem.init.values(y_q)
    drift, phi = problem.drift.bind(), problem.noise_coef.bind()
    targets = np.empty((grid.n_t, x_all.size))
    u_left = _march(drift, phi, noise, g, v0_q, jumps, gauss, targets)
    values[1:] = targets[:, : grid.n_x + 1]
    inputs = SimpleNamespace(
        ke=ke, x_all=x_all, y_q=y_q, w_q=w_q, factors=(g.basis, g.proj, g.rates),
        kmats=lag_matrices(L, T, grid), n_t=grid.n_t, dt=dt,
        v0_q=v0_q, jumps=jumps[1:4], gauss=gauss,
    )
    return values, inputs, targets, u_left


def integrand(problem, noise, s, y_q, u, gauss_row):
    """The solver's integrand column, evaluated through ``evaluate``."""
    return _integrand_column(
        problem.drift.evaluate, problem.noise_coef.evaluate, noise.compensator_mu,
        s, y_q, u, gauss_row,
    )


def picard_sweep(problem, noise, inputs, targets, u_left):
    """One successive-substitution sweep of the mild map on the whole horizon.

    Every term reads the previous iterate (targets on x_all at the n_t
    grid times, u_left at the jumps), never the one being built, so a
    state is the map's fixed point exactly when the sweep returns it.
    Every lag, however long, is read on the kernel's image sum (``ke.eval``
    and its lag matrices), never from the solver's sine modes.
    """
    x_all, y_q, w_q = inputs.x_all, inputs.y_q, inputs.w_q
    ke = KernelEvaluator(length_L=inputs.ke.length_L, method="image_sum")
    kmats, n_t, dt = inputs.kmats, inputs.n_t, inputs.dt
    v0_q, gauss = inputs.v0_q, inputs.gauss
    jt, jx, jz = inputs.jumps
    n_q = y_q.size
    s_times = np.arange(n_t) * dt
    t_targets = (np.arange(n_t) + 1) * dt
    sources = [v0_q] + [targets[j - 1, -n_q:] for j in range(1, n_t)]
    h = [
        integrand(problem, noise, s, y_q, u, None if gauss is None else gauss[j])
        for j, (s, u) in enumerate(zip(s_times, sources))
    ]
    kick = np.array([
        float(problem.noise_coef.evaluate(t, x, u)) * z
        for t, x, u, z in zip(jt, jx, u_left, jz)
    ])

    new_targets = np.empty_like(targets)
    for i in range(n_t):
        acc = kmats[i] @ v0_q
        for j in range(i + 1):
            acc = acc + dt * (kmats[i - j] @ h[j])
        seen = jt <= t_targets[i]
        lags = np.maximum(t_targets[i] - jt[seen], 1e-18)
        new_targets[i] = acc + kick[seen] @ ke.eval(lags[:, None], x_all, jx[seen, None])

    new_left = np.empty_like(u_left)
    for l in range(jt.size):
        # v_0 is read like step 0's source, with weight 1
        older = s_times < jt[l]
        lags = np.concatenate(([jt[l]], jt[l] - s_times[older]))
        weights = np.concatenate(([1.0], np.minimum(s_times[older] + dt, jt[l]) - s_times[older]))
        vecs = np.vstack([v0_q] + [h[j] for j in np.flatnonzero(older)])
        near = lags < _LAG_MIN_FACTOR * w_q * w_q  # kernel acts as the identity
        vals = np.empty(lags.size)
        vals[near] = [np.interp(jx[l], y_q, vec) for vec in vecs[near]]
        vals[~near] = np.sum(ke.eval(lags[~near, None], jx[l], y_q) * vecs[~near], axis=1) * w_q
        earlier = jt < jt[l]
        pairs = ke.eval(jt[l] - jt[earlier], jx[l], jx[earlier]) @ kick[earlier]
        new_left[l] = weights @ vals + pairs
    return new_targets, new_left


def per_jump_march(problem, noise, inputs):
    """The causal march with one kernel call per value.

    The order of every floating-point operation is that of ``_march``,
    which reads the same kernel values from the per-solve batches of
    ``_jump_table`` and the longer lags from the same sine modes.
    """
    ke, x_all, y_q, w_q = inputs.ke, inputs.x_all, inputs.y_q, inputs.w_q
    (basis, proj, rates), n_t, dt = inputs.factors, inputs.n_t, inputs.dt
    v0_q, gauss = inputs.v0_q, inputs.gauss
    jt, jx, jz = inputs.jumps
    n_q, N = y_q.size, rates.size
    step = np.exp(-dt * rates)
    c, c_prev = np.zeros(N), np.zeros(N)
    targets = np.empty((n_t, x_all.size))
    u_left, kick = np.empty(jt.size), np.empty(jt.size)
    l = older = 0  # the next jump, and the first jump of the step before
    for j in range(n_t):
        s_j, t_j = j * dt, (j + 1) * dt
        u_j = v0_q if j == 0 else targets[j - 1, -n_q:]
        h = integrand(problem, noise, s_j, y_q, u_j, None if gauss is None else gauss[j])
        own = v0_q if j == 0 else 0.0
        cols, e_ahead, first = [], [], l
        while l < jt.size and (jt[l] <= t_j or j == n_t - 1):
            back, ahead = jt[l] - s_j, t_j - jt[l]
            vec = own + back * h
            if back < _LAG_MIN_FACTOR * (w_q * w_q):
                val = float(np.interp(jx[l], y_q, vec))
            else:
                val = float((ke.eval(back, float(jx[l]), y_q) * w_q) @ vec)
            e_l = _basis_matrix(jx[l : l + 1], N, ke.length_L)[0]
            jj = np.array([
                ke.eval(jt[l] - jt[k], jx[l], jx[k]) if jt[l] > jt[k] else 0.0
                for k in range(older, l)
            ])
            val += float((np.exp(-back * rates) * e_l) @ c) + float(jj @ kick[older:l])
            u_left[l] = val
            kick[l] = float(problem.noise_coef.evaluate(jt[l], jx[l], val)) * jz[l]
            cols.append(ke.eval(max(ahead, 1e-18), x_all, jx[l]))
            e_ahead.append(np.exp(-ahead * rates) * e_l)
            l += 1
        c = step * (c + c_prev + proj @ (own + dt * h))
        targets[j] = c @ basis.T
        now = kick[first:l]
        if now.size:
            targets[j] += now @ np.array(cols)
            c_prev = now @ np.array(e_ahead)
        else:
            c_prev = np.zeros(N)
        older = first
    return targets, u_left


class TestMildDeterministicOracles:
    def test_pure_heat_flow(self):
        # analytic: u = exp(-pi^2 t / 2) sin(pi x)
        prob = make_problem()
        noise = sample_noise(SYM, TRUNC, DOM, 7)
        sol = solve_mild(prob, noise, GridSpec(64, 32))
        times, nodes = sol.times(), sol.nodes()
        exact = np.exp(-HEAT_RATE * times[:, None]) * np.sin(np.pi * nodes[None, :])
        assert np.max(np.abs(sol.values - exact)) < 1e-12

    def test_zero_fixed_point(self):
        prob = make_problem(init=ic_zero())
        noise = sample_noise(SYM, TRUNC, DOM, 7)
        sol = solve_mild(prob, noise, GridSpec(16, 8))
        assert np.all(sol.values == 0.0)

    def test_constant_noise_coef_superposition(self):
        # with state-independent noise coefficient the solve is affine:
        # full solution = stochastic convolution + deterministic heat flow
        noise = sample_noise(SYM, TRUNC, DOM, 99)
        grid = GridSpec(32, 16)
        full = solve_mild(make_problem(noise_coef=constant(0.7)), noise, grid)
        conv_only = solve_mild(
            make_problem(noise_coef=constant(0.7), init=ic_zero()), noise, grid
        )
        heat_only = solve_mild(make_problem(), noise, grid)
        np.testing.assert_allclose(
            full.values,
            conv_only.values + heat_only.values,
            atol=1e-10,
        )


def affine_jump_solution(b, noise, grid, modes=400):
    """Exact values at the grid of u for drift b*u, noise coefficient 1 and
    u_0 = sin(pi x / L):

        u(t) = e^(bt) G_t u_0 - mu int_0^t e^(b(t-s)) G_(t-s) 1 ds
               + sum_(tau_l < t) z_l e^(b(t-tau_l)) G_(t-tau_l)(., x_l).

    The first two terms and the jump lags of one step or more are summed in
    ``modes`` sine modes (the tail is below e^-3000 at dt >= 1/256); the
    shorter jump lags are read from ``KernelEvaluator.eval``."""
    T, L = noise.domain.horizon_T, noise.domain.length_L
    times, nodes = grid.times(T), grid.nodes(L)
    n = np.arange(1, modes + 1)
    rate = b - (n * math.pi / L) ** 2 / 2.0

    def sine(x):
        return math.sqrt(2.0 / L) * np.sin(np.multiply.outer(x, n) * math.pi / L)

    heat = np.exp(rate[0] * times)[:, None] * np.sin(math.pi * nodes / L)
    one = math.sqrt(2.0 / L) * L * (1.0 - np.cos(n * math.pi)) / (n * math.pi)
    coef = -noise.compensator_mu * np.expm1(rate * times[:, None]) / rate * one
    lag = times[:, None] - noise.taus
    far = lag >= grid.dt(T)
    for l, (z, e_l) in enumerate(zip(noise.zs, sine(noise.xs))):
        rows = far[:, l]
        coef[rows] += z * np.exp(np.multiply.outer(lag[rows, l], rate)) * e_l
    u = heat + coef @ sine(nodes).T
    ke = KernelEvaluator(length_L=L)
    for j, l in zip(*np.nonzero((lag > 0.0) & ~far)):
        u[j] += noise.zs[l] * math.exp(b * lag[j, l]) * ke.eval(lag[j, l], nodes, noise.xs[l])
    return u


class TestMildAffineJumpOracle:
    """Pathwise exact solutions with jumps: drift b*u, noise coefficient 1."""

    @staticmethod
    def sup_errors(b, params, grid, seeds):
        prob = make_problem(
            drift=affine(0.0, b), noise_coef=constant(1.0), params=params
        )
        errors = []
        for seed in seeds:
            noise = sample_noise(params, TRUNC, DOM, seed)
            u = solve_mild(prob, noise, grid).values
            errors.append(np.max(np.abs(u - affine_jump_solution(b, noise, grid))))
        return max(errors)

    def test_compensated_one_sided_law_converges_at_first_order(self):
        # the left-endpoint drift quadrature misses about 0.54 * mu * dt
        mu = compensator_drift(ASYM, TRUNC)
        errors = []
        for n_t in (64, 128, 256):
            grid = GridSpec(n_t, n_t // 2)
            errors.append(self.sup_errors(0.3, ASYM, grid, (0, 1)))
            assert errors[-1] <= mu * grid.dt(1.0)
        assert errors[0] / errors[1] >= 1.8 and errors[1] / errors[2] >= 1.8

    def test_symmetric_law_without_drift_is_exact(self):
        # no compensator and no drift: only the jump columns remain, and
        # the solver sums them exactly
        assert self.sup_errors(0.0, SYM, GridSpec(64, 32), range(4)) <= 1e-12


class TestSineFactors:
    """The sine propagator of the mild solver's grid lags against the
    kernel it stands in for."""

    @settings(max_examples=60, deadline=None)
    @given(
        L=st.floats(0.5, 3.0),
        dt=st.floats(1e-3, 0.25),
        n_x=st.integers(2, 64),
        max_lag=st.integers(1, 4),
        off_grid=st.lists(st.floats(1.0, 6.0), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(1e-3, 1e3),
    )
    def test_certified_modes_match_the_kernel(
        self, L, dt, n_x, max_lag, off_grid, seed, scale
    ):
        ke = KernelEvaluator(length_L=L)
        target = _TAIL_FRACTION * ke.abs_tol
        N = ke.propagator_modes(dt)
        # the fewest modes that hold the bound at the shortest lag
        assert ke.spectral_tail_bound(dt, N) <= target
        assert N == 1 or ke.spectral_tail_bound(dt, N - 1) > target
        assert target == 1e-3 * ke.abs_tol

        x_out = np.linspace(0.0, L, n_x + 1)
        y_q, w_q = ke.quad_nodes(4 * n_x)
        x_all = np.concatenate([x_out, y_q])
        basis, proj, rates = _sine_factors(ke, x_all, y_q, w_q, dt)
        assert basis.shape[1] == N and rates.shape == (N,)
        h = scale * np.random.default_rng(seed).standard_normal(y_q.size)
        # grid lags k*dt and drawn lags between grid times, all >= dt
        lags = [k * dt for k in range(1, max_lag + 1)] + [m * dt for m in off_grid]
        for lag in lags:
            applied = (np.exp(-lag * rates) * (proj @ h)) @ basis.T
            lag_matrix = ke.eval(lag, x_all[:, None], y_q[None, :]) * w_q
            reference = lag_matrix @ h
            # each kernel value of the reference is within target of G, and
            # the N-mode series within spectral_tail_bound(dt, N), which
            # bounds every longer lag; rounding is a few ulps of the sums of
            # absolute terms on either side
            mass = w_q * np.abs(h).sum()
            certified = (ke.spectral_tail_bound(dt, N) + target) * mass
            ulps = 16 * np.finfo(float).eps
            rounding = ulps * (N * (2.0 / L) * mass + np.abs(lag_matrix) @ np.abs(h))
            assert np.all(np.abs(applied - reference) <= certified + rounding)
            assert applied[0] == 0.0 and applied[n_x] == 0.0


class TestGridConstants:
    KEYS = [
        (1.0, 1.0, GridSpec(16, 8)),
        (1.0, 1.0, GridSpec(16, 16)),
        (1.0, 1.0, GridSpec(32, 8)),
        (2.0, 1.0, GridSpec(16, 8)),
        (1.0, 0.5, GridSpec(16, 8)),
    ]

    @staticmethod
    def arrays(g):
        return [v for v in g if isinstance(v, np.ndarray)]

    def test_each_grid_builds_its_own_read_only_constants(self):
        built = [_grid_constants(*key) for key in self.KEYS]
        for (L, T, grid), g in zip(self.KEYS, built):
            assert _grid_constants(L, T, grid) is g  # built once per grid
            ke = KernelEvaluator(length_L=L)
            y_q, w_q = ke.quad_nodes(4 * grid.n_x)
            x_all = np.concatenate([grid.nodes(L), y_q])
            fresh = _sine_factors(ke, x_all, y_q, w_q, grid.dt(T))
            assert g.dt == grid.dt(T) and g.w_q == w_q
            assert np.array_equal(g.x_all, x_all) and np.array_equal(g.y_q, y_q)
            for cached, want in zip((g.basis, g.proj, g.rates), fresh):
                assert np.array_equal(cached, want)
            assert np.array_equal(g.step, np.exp(-grid.dt(T) * g.rates))
            assert len(self.arrays(g)) == 7
            for arr in self.arrays(g):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr.flat[0] = 1.0
        # no two grids share an array, or any memory
        for i, g in enumerate(built):
            for other in built[i + 1 :]:
                for a in self.arrays(g):
                    assert not any(np.shares_memory(a, b) for b in self.arrays(other))


class TestStepOf:
    GRIDS = [(T, n_t) for T in (1.0, 0.3) for n_t in (8, 12, 49, 64)]

    @pytest.mark.parametrize("T, n_t", GRIDS)
    def test_each_time_lands_in_the_step_that_ends_at_or_after_it(self, T, n_t):
        # every grid time, its neighbours one ulp either side, 0 and T: step
        # j holds s_j < t <= s_(j+1) of grid.times(T), and step 0 holds t = 0
        grid = GridSpec(n_t, 16)
        s = grid.times(T)
        t = np.concatenate([[0.0, T], s, np.nextafter(s, -np.inf), np.nextafter(s, np.inf)])
        t = t[(t >= 0.0) & (t <= T)]
        j = grid.step_of(T, t)
        assert j.shape == t.shape and np.all((j >= 0) & (j < n_t))
        later = t > 0.0
        assert np.all(s[j[later]] < t[later]) and np.all(t <= s[j + 1])
        assert np.all(j[~later] == 0)
        assert grid.step_of(T, 0.0) == 0 and grid.step_of(T, T) == n_t - 1


class TestMildContracts:
    def test_bitwise_determinism(self):
        prob = make_problem(
            drift=affine(0.0, 0.2), noise_coef=clipped_linear(0.4, 2.0)
        )
        noise = sample_noise(SYM, TRUNC, DOM, 5)
        a = solve_mild(prob, noise, GridSpec(32, 16))
        b = solve_mild(prob, noise, GridSpec(32, 16))
        assert np.array_equal(a.values, b.values)

    def test_boundary_rows_exact(self):
        prob = make_problem(
            drift=affine(0.3, 0.2), noise_coef=clipped_linear(0.4, 2.0)
        )
        noise = sample_noise(SYM, TRUNC, DOM, 5)
        sol = solve_mild(prob, noise, GridSpec(32, 16))
        assert np.all(sol.values[:, 0] == 0.0)
        assert np.all(sol.values[:, -1] == 0.0)

    def test_exact_fixed_point_mode(self):
        # one Picard sweep of the mild map, with every lag read on the
        # kernel's image sum, applied to the march's own state, must hand
        # that state back: the march computes the map's fixed point, without
        # iterating, and its sine modes stand in for the kernel
        cases = [
            make_problem(drift=affine(0.0, 0.2), noise_coef=clipped_linear(0.4, 2.0)),
            make_problem(  # asymmetric tails: compensator drift mu != 0
                drift=affine(0.0, 0.2), noise_coef=clipped_linear(0.4, 2.0),
                params=ASYM,
            ),
            make_problem(  # Gaussian small-jump correction in the integrand
                noise_coef=clipped_linear(0.4, 2.0),
                trunc=TruncationSpec(1.0, 0.05, True),
            ),
            make_problem(  # strongly non-contracting drift
                drift=affine(0.0, 5.0), noise_coef=clipped_linear(0.4, 2.0)
            ),
        ]
        checked_jumps = 0
        for prob in cases:
            for seed in (5, 6, 7):
                noise = sample_noise(prob.params, prob.trunc, DOM, seed)
                for grid in (GridSpec(16, 8), GridSpec(32, 16)):
                    values, inputs, targets, u_left = march(prob, noise, grid)
                    # the march is exactly what solve_mild computes
                    assert np.array_equal(values, solve_mild(prob, noise, grid).values)
                    sweep_targets, sweep_left = picard_sweep(
                        prob, noise, inputs, targets, u_left
                    )
                    assert np.max(np.abs(sweep_targets - targets)) <= 1e-13
                    assert np.all(np.abs(sweep_left - u_left) <= 1e-13)
                    checked_jumps += u_left.size
        assert checked_jumps > 0

    def test_batched_window_equals_per_jump_march(self):
        # one kernel call per value, in the same order of operations:
        # the batches must change no bit of any target or left limit
        trunc = TruncationSpec(1.0, 0.05, True)
        cases = [
            make_problem(drift=affine(0.0, 0.2), noise_coef=clipped_linear(0.4, 2.0)),
            make_problem(
                drift=affine(0.3, 5.0), noise_coef=clipped_linear(0.4, 2.0),
                params=ASYM, trunc=trunc,
            ),
        ]
        jumps_seen = 0
        for prob in cases:
            for seed in (5, 6):
                noise = sample_noise(prob.params, prob.trunc, DOM, seed)
                for grid in (GridSpec(8, 8), GridSpec(16, 8), GridSpec(32, 16)):
                    _, inputs, targets, u_left = march(prob, noise, grid)
                    ref_targets, ref_left = per_jump_march(prob, noise, inputs)
                    assert targets.tobytes() == ref_targets.tobytes()
                    assert u_left.tobytes() == ref_left.tobytes()
                    jumps_seen += u_left.size
        assert jumps_seen > 100

    def test_kernel_calls_per_solve(self, monkeypatch):
        # a solve builds its kernel values in at most one call per kind
        # (jump rows, jump-jump values, jump-to-target columns) before the
        # march, and the march makes none; a fallback to per-step or
        # per-jump calls makes more.  Each jump reads one image row and
        # writes one image column, and each earlier jump of its own step or
        # the step before one jump-jump value: every longer lag is read from
        # the sine modes, and pairs further apart are never read
        calls, in_march = [], []
        eval_orig, march_orig = KernelEvaluator.eval, solvers._march

        def counting_eval(self, *args):
            calls.append(np.broadcast(*args).size)
            return eval_orig(self, *args)

        def counting_march(*args):
            before = len(calls)
            out = march_orig(*args)
            in_march.append(len(calls) - before)
            return out

        monkeypatch.setattr(KernelEvaluator, "eval", counting_eval)
        monkeypatch.setattr(solvers, "_march", counting_march)
        trunc = TruncationSpec(1.0, 0.01)
        prob = make_problem(
            drift=affine(0.0, 0.2), noise_coef=clipped_linear(0.4, 2.0), trunc=trunc
        )
        noise = sample_noise(SYM, trunc, DOM, 3)
        taus = noise.taus
        for grid in (GridSpec(16, 8), GridSpec(32, 16)):
            calls.clear()
            in_march.clear()
            solve_mild(prob, noise, grid)
            dt, n_q = grid.dt(1.0), 4 * grid.n_x
            step = np.ceil(taus / dt) - 1  # the step (j*dt, (j+1)*dt] of each jump
            adjacent = (step[:, None] - step[None, :] <= 1) & (taus[:, None] > taus)
            pairs = int(np.sum(adjacent))
            n_all = (grid.n_x + 1) + n_q
            assert in_march == [0]
            assert len(calls) <= 3
            assert sum(calls) <= noise.jump_count * (n_q + n_all) + pairs
            # every step holds jumps, so pairs further apart would be many
            assert pairs < noise.jump_count * (noise.jump_count - 1) // 2 - 1000

    def test_each_jump_is_read_by_exactly_one_step(self, monkeypatch):
        # jumps exactly at every step end j*dt and at j/n_t, which differ
        # from it in the last bit on some grids, so jumps sit on either side
        # of a step end, and at t = 0 and T (past the last right end
        # 0.9999999999999999 at n_t = 49).  The steps must split the jumps,
        # each step must hold only jumps in its (j*dt, (j+1)*dt], and u(T)
        # must hold each jump's heat-kernel column once
        seen = []
        march_orig = solvers._march

        def spy(*args):
            u_left = march_orig(*args)
            seen.append((args[5], u_left))
            return u_left

        monkeypatch.setattr(solvers, "_march", spy)
        prob = make_problem(noise_coef=constant(1.0), init=ic_zero())
        ke = KernelEvaluator(length_L=1.0)
        ulp_apart = 0
        for n_t in (10, 12, 14, 20, 7, 49):
            dt = 1.0 / n_t
            ends = [j * dt for j in range(n_t + 1)] + [j / n_t for j in range(n_t + 1)]
            ulp_apart += sum(j * dt != j / n_t for j in range(n_t + 1))
            taus = np.unique(ends + [1.0])
            noise = manual_noise(taus, np.full(taus.size, 0.3), np.full(taus.size, 0.5))
            seen.clear()
            sol = solve_mild(prob, noise, GridSpec(n_t, 8))
            [(jumps, u_left)] = seen
            first, back = jumps[0], jumps[4]
            assert first[0] == 0 and first[-1] == taus.size and np.all(np.diff(first) >= 0)
            for j in range(n_t):
                now = taus[first[j] : first[j + 1]]
                assert np.all((now > j * dt) | (now == 0.0))
                assert np.all(back[first[j] : first[j + 1]] >= 0.0)
                assert np.all(now <= (j + 1) * dt) or j == n_t - 1
            assert u_left.size == taus.size and np.all(np.isfinite(u_left))
            lags = np.maximum(1.0 - taus, 1e-18)
            exact = 0.5 * ke.eval(lags[:, None], sol.nodes(), 0.3).sum(axis=0)
            np.testing.assert_allclose(sol.values[-1], exact, rtol=0, atol=1e-10)
        assert ulp_apart >= 3  # the grids do exercise the last-bit mismatch

    @pytest.mark.parametrize("b", [0.5, 37 / 64, 0.75, 63 / 64])
    def test_jump_mass_is_continuous_across_a_window_end(self, b):
        # u(T) depends continuously on the jump time: with zero drift and a
        # constant noise coefficient the mass at T is that of one heat-kernel
        # column, smooth in tau.  Moving the jump from just after the step
        # end b to just before it must not lose or double that mass
        prob = make_problem(noise_coef=constant(1.0), init=ic_zero())
        grid = GridSpec(64, 32)

        def mass(tau):
            noise = manual_noise([tau], [0.3], [0.9])
            return float(np.sum(solve_mild(prob, noise, grid).values[-1])) / 32

        for delta in (1e-12, 1e-8, 1e-6):
            before, after = mass(b - delta), mass(b + delta)
            assert after > 0.05
            assert abs(before - after) <= 0.05 * after

    def test_former_image_sum_within_1e15(self, monkeypatch):
        # the image sum as it was before each value summed only its own
        # certified image count: all 2*image_terms+1 shifts at every lag,
        # reduced in numpy's own order; no grid value moves by over 1e-15
        ran = []

        def former_image_sum(self, t, x, y):
            ran.append(t.size)
            k = np.arange(-self.image_terms, self.image_terms + 1)
            shifts = (2.0 * self.length_L * k).reshape((-1,) + (1,) * t.ndim)
            diff = y - x + shifts
            summ = y + x + shifts
            val = np.exp(-diff * diff / (2.0 * t)) - np.exp(-summ * summ / (2.0 * t))
            return val.sum(axis=0) / np.sqrt(2.0 * math.pi * t)

        prob = make_problem(drift=affine(0.0, 0.2), noise_coef=clipped_linear(0.4, 2.0))
        moved = []
        for seed in (1, 2):
            noise = sample_noise(SYM, TRUNC, DOM, seed)
            for grid in (GridSpec(16, 8), GridSpec(64, 32)):
                now = solve_mild(prob, noise, grid).values
                ran.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(KernelEvaluator, "_eval_image", former_image_sum)
                    former = solve_mild(prob, noise, grid).values
                # the patch took effect: the former sum served this solve
                assert sum(ran) > 0
                moved.append(np.max(np.abs(now - former)))
        assert max(moved) <= 1e-15

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_blow_up_detected(self):
        prob = make_problem(drift=affine(0.0, 1e21))
        noise = sample_noise(SYM, TRUNC, DOM, 5)
        with pytest.raises(BlowUpError):
            solve_mild(prob, noise, GridSpec(16, 8))

    def test_noise_problem_mismatch(self):
        prob = make_problem()
        other = sample_noise(SYM, TruncationSpec(1.0, 0.1), DOM, 5)
        with pytest.raises(ParameterError):
            solve_mild(prob, other, GridSpec(8, 8))

    def test_cross_cutoff_prefix_bitwise(self):
        # the two restricted solves share every float op before the first
        # excess jump, so rows strictly before it agree bitwise
        prob = make_problem(
            drift=affine(0.0, 0.2), noise_coef=clipped_linear(0.4, 2.0)
        )
        base = sample_noise(SYM, TruncationSpec(1.0, 0.01), DOM, 321)
        r_small, r_large = restrict(base, 0.5), restrict(base, 1.0)
        grid = GridSpec(32, 16)
        u_s = solve_mild(prob.with_truncation(r_small.truncation), r_small, grid)
        u_l = solve_mild(prob.with_truncation(r_large.truncation), r_large, grid)
        r_stop = stopping_time(base, 0.5)
        rows = int(np.ceil(r_stop / grid.dt(1.0) - 1e-12))
        assert rows >= 1
        assert np.array_equal(u_s.values[:rows], u_l.values[:rows])


class TestProblemSpecValidate:
    def test_monotonicity_audited_on_whole_domain(self):
        # sin(pi x) * (1 + u) is non-decreasing in u for x in [0, 1] only;
        # on [0, 2] it decreases in u wherever 1 < x < 2
        prob = replace(
            make_problem(
                noise_coef=sine_modulated(1.0, 1, 1.0, 1.0),
                init=ic_sine_mode(1, 1.0, 2.0),
            ),
            dom=SpaceTimeDomain(1.0, 2.0),
        )
        with pytest.raises(HypothesisError):
            prob.validate(require_monotone=True)


class TestGaussianCorrectionSolves:
    def test_runs_and_stays_deterministic(self):
        trunc = TruncationSpec(1.0, 0.05, True)
        prob = make_problem(
            noise_coef=clipped_linear(0.4, 2.0), trunc=trunc
        )
        noise = sample_noise(SYM, trunc, DOM, 11)
        a = solve_mild(prob, noise, GridSpec(16, 8))
        b = solve_mild(prob, noise, GridSpec(16, 8))
        assert np.array_equal(a.values, b.values)
        assert np.all(a.values[:, 0] == 0.0)
        g1 = spectral_to_grid(solve_galerkin(prob, noise, 4, GridSpec(16, 8)))
        assert np.all(np.isfinite(g1.values))

    def test_zero_noise_coef_ignores_field(self):
        trunc = TruncationSpec(1.0, 0.05, True)
        prob_on = make_problem(trunc=trunc)
        noise_on = sample_noise(SYM, trunc, DOM, 11)
        prob_off = make_problem(trunc=TRUNC)
        noise_off = sample_noise(SYM, TRUNC, DOM, 11)
        a = solve_mild(prob_on, noise_on, GridSpec(16, 8))
        b = solve_mild(prob_off, noise_off, GridSpec(16, 8))
        # phi = 0 multiplies the correction away; jump sets share the seed
        np.testing.assert_allclose(a.values, b.values, atol=1e-14)


class TestGalerkin:
    def test_pure_eigenmode_decay(self):
        prob = make_problem()
        noise = sample_noise(SYM, TRUNC, DOM, 7)
        sol = solve_galerkin(prob, noise, 8, GridSpec(64, 32))
        times = sol.grid.times(1.0)
        a1 = math.sqrt(0.5) * np.exp(-HEAT_RATE * times)
        np.testing.assert_allclose(sol.coeffs[:, 0], a1, atol=1e-13)
        assert np.max(np.abs(sol.coeffs[:, 1:])) < 1e-14

    def test_single_jump_hand_value(self):
        # one jump, constant noise coefficient: the first mode gains
        # sigma * e_1(x_j) * z, then decays at the mode rate
        sigma, xj, zj, tau = 0.7, 0.37, 0.6, 0.3
        noise = manual_noise([tau], [xj], [zj])
        prob = make_problem(noise_coef=constant(sigma), init=ic_zero())
        grid = GridSpec(10, 8)
        sol = solve_galerkin(prob, noise, 1, grid)
        jump_size = sigma * math.sqrt(2.0) * math.sin(math.pi * xj) * zj
        times = grid.times(1.0)
        expected = np.where(
            times >= tau, jump_size * np.exp(-HEAT_RATE * np.maximum(times - tau, 0)), 0.0
        )
        np.testing.assert_allclose(sol.coeffs[:, 0], expected, atol=1e-13)

    @pytest.mark.parametrize("T, n_t", TestStepOf.GRIDS)
    def test_jump_channel_exact(self, T, n_t):
        # zero drift, phi = 1, zero data and symmetric tails: mode n gains
        # z_l e_n(x_l) at each jump and otherwise decays at its rate, so
        # a_n(s_i) = sum_(tau_l <= s_i) z_l e_n(x_l) exp(-lambda_n (s_i - tau_l)).
        # Jumps at 0, at T (n_t*dt < T at T = 1, n_t = 49), at every third
        # grid time and one ulp above every fifth
        dom, grid, m = SpaceTimeDomain(T, 1.0), GridSpec(n_t, 16), 4
        s = grid.times(T)
        taus = np.unique(np.concatenate([[0.0, T], s[::3], np.nextafter(s[:-1:5], np.inf)]))
        xs = np.linspace(0.05, 0.95, taus.size)
        zs = np.where(np.arange(taus.size) % 2, -0.6, 0.9)
        noise = replace(manual_noise(taus, xs, zs), domain=dom)
        prob = replace(make_problem(noise_coef=constant(1.0), init=ic_zero()), dom=dom)
        coeffs = solve_galerkin(prob, noise, m, grid).coeffs
        rates = (np.arange(1, m + 1) * math.pi) ** 2 / 2.0
        kicks = _basis_matrix(xs, m, 1.0) * zs[:, None]
        exact = np.array([
            (kicks * np.exp(-(si - taus)[:, None] * rates))[taus <= si].sum(axis=0)
            for si in s[1:]
        ])
        assert np.all(coeffs[0] == 0.0)
        np.testing.assert_allclose(coeffs[1:], exact, rtol=0, atol=1e-13)

    def test_galerkin_approaches_mild(self):
        prob = make_problem(
            drift=affine(0.0, 0.2), noise_coef=clipped_linear(0.4, 2.0)
        )
        noise = sample_noise(SYM, TRUNC, DOM, 7)
        grid = GridSpec(64, 32)
        mild = solve_mild(prob, noise, grid)
        dx = grid.dx(1.0)
        errs = []
        for m in (2, 4, 8):
            gal = spectral_to_grid(solve_galerkin(prob, noise, m, grid))
            errs.append(
                max(
                    grid_h_norm(gal.values[i] - mild.values[i], dx)
                    for i in range(grid.n_t + 1)
                )
            )
        assert errs[2] < errs[0]


class TestProjectNoise:
    """The jump projection inside solve_galerkin: with phi = 1, no drift
    and zero initial data, mode n jumps by e_n(x_j) * z_j and otherwise
    decays at its rate (plus the compensator drift)."""

    @staticmethod
    def coeffs(noise, m, grid=GridSpec(10, 8)):
        prob = make_problem(noise_coef=constant(1.0), init=ic_zero(), params=noise.params)
        return solve_galerkin(prob, noise, m, grid).coeffs

    def test_single_jump_midpoint(self):
        # the jump lands on grid time 0.4, so no decay has acted yet
        a = self.coeffs(manual_noise([0.4], [0.5], [0.9]), 1)
        assert a[4, 0] == pytest.approx(math.sqrt(2.0) * 0.9, rel=1e-12)

    def test_node_of_basis_kills_mode(self):
        a = self.coeffs(manual_noise([0.4], [1.0 / 3.0], [0.9]), 3)
        assert np.max(np.abs(a[:, 2])) < 1e-12
        assert abs(a[4, 0]) > 0.1

    def test_symmetric_drift_zero(self):
        assert np.all(self.coeffs(manual_noise([], [], []), 5) == 0.0)
        one_sided = manual_noise([], [], [], params=ASYM)
        assert self.coeffs(one_sided, 5)[-1, 0] < 0.0

    def test_path_values(self):
        noise = manual_noise([0.25, 0.75], [0.5, 0.5], [1.0, -1.0])
        a = self.coeffs(noise, 1, GridSpec(8, 8))[:, 0]
        decay = lambda t: math.exp(-HEAT_RATE * t)
        assert a[4] == pytest.approx(math.sqrt(2.0) * decay(0.25), rel=1e-12)
        expected = math.sqrt(2.0) * (decay(0.75) - decay(0.25))
        assert a[8] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 5, 8, 16, 32])
    def test_batched_rows_equal_per_jump_rows(self, m):
        # solve_galerkin projects all jumps in one call; each row must equal
        # the row of a one-jump call bitwise, so the batch changes no output
        for seed in range(5):
            noise = sample_noise(SYM, TRUNC, DOM, seed)
            rows = _basis_matrix(noise.xs, m, 1.0)
            for j, x in enumerate(noise.xs):
                one = _basis_matrix(np.asarray([x]), m, 1.0)[0]
                assert rows[j].tobytes() == one.tobytes()


class TestSpectralToGrid:
    def test_zero_coeffs(self):
        prob = make_problem(init=ic_zero())
        noise = sample_noise(SYM, TRUNC, DOM, 7)
        sol = solve_galerkin(prob, noise, 4, GridSpec(8, 8))
        grid_sol = spectral_to_grid(sol)
        assert np.all(grid_sol.values == 0.0)

    def test_single_mode_synthesis(self):
        prob = make_problem()
        noise = sample_noise(SYM, TRUNC, DOM, 7)
        sol = solve_galerkin(prob, noise, 2, GridSpec(8, 16))
        grid_sol = spectral_to_grid(sol)
        nodes = grid_sol.nodes()
        expected = sol.coeffs @ np.stack(
            [math.sqrt(2.0) * np.sin((n + 1) * np.pi * nodes) for n in range(2)]
        )
        np.testing.assert_allclose(grid_sol.values[:, 1:-1], expected[:, 1:-1], atol=1e-14)
        assert np.all(grid_sol.values[:, 0] == 0.0)
        assert np.all(grid_sol.values[:, -1] == 0.0)

    def test_synthesis_reprojection_roundtrip(self):
        # trapezoid re-projection on nodes is exactly orthogonal for m <= n_x/4
        rng = np.random.default_rng(4)
        n_x, m = 32, 8
        nodes = np.linspace(0.0, 1.0, n_x + 1)
        coeffs = rng.standard_normal(m)
        basis = math.sqrt(2.0) * np.sin(np.pi * np.outer(nodes, np.arange(1, m + 1)))
        field = basis @ coeffs
        dx = 1.0 / n_x
        back = np.array(
            [dx * np.sum(field[1:-1] * basis[1:-1, k]) for k in range(m)]
        )
        np.testing.assert_allclose(back, coeffs, atol=1e-12)


class TestWeakFormResidual:
    def test_zero_solution_zero_residual(self):
        prob = make_problem(init=ic_zero())
        noise = sample_noise(SYM, TRUNC, DOM, 7)
        sol = solve_mild(prob, noise, GridSpec(16, 8))
        assert weak_form_residual(sol, noise, t=0.5) == pytest.approx(0.0, abs=1e-14)

    def test_deterministic_residual_small_and_refining(self):
        empty = TruncationSpec(1.0, 1.0 - 1e-9)
        prob = make_problem(trunc=empty)
        noise = sample_noise(SYM, empty, DOM, 3)
        assert noise.jump_count == 0
        res = []
        for n_t, n_x in ((64, 32), (128, 64), (256, 128)):
            sol = solve_mild(prob, noise, GridSpec(n_t, n_x))
            res.append(weak_form_residual(sol, noise, t=0.5))
        assert res[0] < 1e-3
        assert res[1] < res[0] and res[2] < res[1]

    def test_stochastic_residual_refines(self):
        prob = make_problem(
            drift=affine(0.0, 0.2), noise_coef=clipped_linear(0.4, 2.0)
        )
        noise = sample_noise(SYM, TRUNC, DOM, 17)
        coarse = solve_mild(prob, noise, GridSpec(32, 16))
        fine = solve_mild(prob, noise, GridSpec(128, 64))
        r_coarse = weak_form_residual(coarse, noise, t=1.0)
        r_fine = weak_form_residual(fine, noise, t=1.0)
        assert r_fine < r_coarse

    @pytest.mark.parametrize("gaussian, factor", [(False, 3.0), (True, 2.0)])
    def test_compensator_and_gaussian_terms_refine(self, gaussian, factor):
        # a jump-free one-sided realization: the residual at t = 1 reads the
        # compensator term -mu*phi (mu = 6.944) and, with the correction on,
        # the Gaussian field's term; it must fall by factor per doubling
        trunc = TruncationSpec(1.0, 0.05, gaussian)
        noise = replace(manual_noise([], [], [], trunc=trunc, params=ASYM), seed=3)
        prob = make_problem(noise_coef=constant(1.0), trunc=trunc, params=ASYM)
        assert noise.compensator_mu == pytest.approx(6.944, abs=1e-3)
        res = [
            weak_form_residual(solve_mild(prob, noise, GridSpec(n_t, n_t // 2)), noise, t=1.0)
            for n_t in (32, 64, 128, 256)
        ]
        assert all(coarse >= factor * fine for coarse, fine in zip(res, res[1:]))

    def test_off_grid_time_rejected(self):
        prob = make_problem(init=ic_zero())
        noise = sample_noise(SYM, TRUNC, DOM, 7)
        sol = solve_mild(prob, noise, GridSpec(16, 8))
        with pytest.raises(ParameterError):
            weak_form_residual(sol, noise, t=0.33)


class TestNormHelpers:
    def test_h_norm_against_numpy(self):
        rng = np.random.default_rng(5)
        row = rng.standard_normal(33)
        row[0] = row[-1] = 0.0
        dx = 1.0 / 32
        assert grid_h_norm(row, dx) == pytest.approx(
            math.sqrt(np.trapezoid(row**2, dx=dx))
        )

    def test_lp_norm_p_values(self):
        xs = np.linspace(0, 1, 65)
        row = np.sin(np.pi * xs)
        val = grid_lp_norm_p(row, 1.0 / 64, 2.0)
        assert val == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n_rows", [1, 2, 17, 129])
    @pytest.mark.parametrize("n_nodes", [3, 9, 17, 33, 65, 257, 1025])
    def test_rows_of_a_2d_array_equal_the_row_calls_bitwise(self, n_rows, n_nodes):
        # the experiments take norms of whole solutions, so numpy's sum over
        # the last axis must add each row in the order of a 1-d sum
        values = np.random.default_rng(n_rows * n_nodes).standard_normal((n_rows, n_nodes))
        dx = 1.0 / (n_nodes - 1)
        for norm in (
            lambda v: grid_h_norm(v, dx),
            lambda v: grid_lp_norm_p(v, dx, 1.7),
            lambda v: grid_lp_norm_p(v, dx, 2.0),
            lambda v: positive_part_energy(v, dx),
        ):
            whole = norm(values)
            assert whole.shape == (n_rows,)
            assert whole.tobytes() == np.array([norm(row) for row in values]).tobytes()
