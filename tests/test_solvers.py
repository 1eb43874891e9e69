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
    _integrand_column,
    _sine_factors,
    _solve_window,
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
        compensator_mu=compensator_drift(params, trunc),
        seed=0,
    )


HEAT_RATE = math.pi**2 / 2.0
ASYM = StableParams(1.5, 1.0, 0.0)


def lag_matrices(ke, x_all, y_q, w_q, dt, max_lag):
    """G_(k*dt)(x_all, y_q) * w_q from ``ke.eval`` for k = 1..max_lag: the
    kernel the solver's sine propagator stands in for."""
    return np.stack(
        [ke.eval(k * dt, x_all[:, None], y_q[None, :]) * w_q for k in range(1, max_lag + 1)]
    )


def march_windows(problem, noise, grid, window_steps=4):
    """Grid values and a (window, targets, u_left) triple per window.

    Repeats solve_mild's set-up and window loop around the private
    per-window march; ``window`` holds the inputs a Picard sweep needs,
    with the kernel's own lag matrices in place of the sine propagator.
    """
    T, L = problem.dom.horizon_T, problem.dom.length_L
    dt, n_q = grid.dt(T), 4 * grid.n_x
    ke = KernelEvaluator(length_L=L)
    x_out = grid.nodes(L)
    y_q, w_q = ke.quad_nodes(n_q)
    x_all = np.concatenate([x_out, y_q])
    factors = _sine_factors(ke, x_all, y_q, w_q, dt, window_steps)
    kmats = lag_matrices(ke, x_all, y_q, w_q, dt, window_steps)
    gauss = None
    if problem.trunc.gaussian_correction:
        gauss = noise.gaussian_increments(grid.n_t, n_q) / (dt * w_q)
    values = np.empty((grid.n_t + 1, grid.n_x + 1))
    values[0] = problem.init.values(x_out)
    values[0, [0, -1]] = 0.0
    v_a_q = problem.init.values(y_q)
    windows = []
    for a_idx in range(0, grid.n_t, window_steps):
        w = min(window_steps, grid.n_t - a_idx)
        a = a_idx * dt
        keep = (noise.taus > a) & (noise.taus <= a + w * dt)
        jumps = (noise.taus[keep], noise.xs[keep], noise.zs[keep])
        gauss_rows = None if gauss is None else gauss[a_idx : a_idx + w]
        targets, u_left = _solve_window(
            problem, noise, ke, x_all, y_q, w_q, factors, a_idx, w, dt, v_a_q,
            jumps, gauss_rows,
        )
        values[a_idx + 1 : a_idx + w + 1] = targets[:, : grid.n_x + 1]
        window = SimpleNamespace(
            ke=ke, x_all=x_all, y_q=y_q, w_q=w_q, factors=factors, kmats=kmats,
            a=a, w=w, dt=dt, v_a_q=v_a_q, jumps=jumps, gauss_rows=gauss_rows,
        )
        windows.append((window, targets, u_left))
        v_a_q = targets[-1, -n_q:]
    return values, windows


def picard_sweep(problem, noise, window, targets, u_left):
    """One successive-substitution sweep of the windowed mild map.

    Every term reads the previous iterate (targets on x_all at the w
    grid times, u_left at the jumps), never the one being built, so a
    state is the map's fixed point exactly when the sweep returns it.
    """
    ke, x_all, y_q, w_q = window.ke, window.x_all, window.y_q, window.w_q
    kmats, a, w, dt = window.kmats, window.a, window.w, window.dt
    v_a_q, gauss_rows = window.v_a_q, window.gauss_rows
    jt, jx, jz = window.jumps
    n_q = y_q.size
    s_times = [a + j * dt for j in range(w)]
    t_targets = [a + (i + 1) * dt for i in range(w)]
    sources = [v_a_q] + [targets[j - 1, -n_q:] for j in range(1, w)]
    h = [
        _integrand_column(
            problem, noise.compensator_mu, s, y_q, u,
            None if gauss_rows is None else gauss_rows[j],
        )
        for j, (s, u) in enumerate(zip(s_times, sources))
    ]
    kick = [
        float(problem.noise_coef.evaluate(t, x, u)) * z
        for t, x, u, z in zip(jt, jx, u_left, jz)
    ]

    new_targets = np.empty_like(targets)
    for i in range(w):
        acc = kmats[i] @ v_a_q
        for j in range(i + 1):
            acc = acc + dt * (kmats[i - j] @ h[j])
        for l in range(jt.size):
            if jt[l] <= t_targets[i]:
                lag = max(t_targets[i] - jt[l], 1e-18)
                acc = acc + ke.eval(lag, x_all, jx[l]) * kick[l]
        new_targets[i] = acc

    def at_jump(lag, x_pt, vec):
        if lag < _LAG_MIN_FACTOR * w_q * w_q:  # kernel acts as the identity
            return float(np.interp(x_pt, y_q, vec))
        return float(ke.eval(lag, x_pt, y_q) @ vec) * w_q

    new_left = np.empty_like(u_left)
    for l in range(jt.size):
        val = at_jump(jt[l] - a, jx[l], v_a_q)
        for j in range(w):
            if s_times[j] < jt[l]:
                weight = min(s_times[j] + dt, jt[l]) - s_times[j]
                val += weight * at_jump(jt[l] - s_times[j], jx[l], h[j])
        for k in range(l):
            if jt[k] < jt[l]:
                val += float(ke.eval(jt[l] - jt[k], jx[l], jx[k])) * kick[k]
        new_left[l] = val
    return new_targets, new_left


def per_jump_window(problem, noise, window):
    """The causal march of one window with one kernel call per value.

    The order of every floating-point operation is that of
    ``_solve_window``, which builds the same kernel values in batches and
    propagates the grid sources with the same sine factors.
    """
    ke, x_all, y_q, w_q = window.ke, window.x_all, window.y_q, window.w_q
    (basis, proj, decay), a, w, dt = window.factors, window.a, window.w, window.dt
    v_a_q, gauss_rows = window.v_a_q, window.gauss_rows
    jt, jx, jz = window.jumps
    n_q = y_q.size
    t_targets = a + dt * np.arange(1, w + 1)

    def row_apply(lag, x_pt, vec_q):
        if lag < _LAG_MIN_FACTOR * (w_q * w_q):
            return float(np.interp(x_pt, y_q, vec_q))
        return float((ke.eval(lag, float(x_pt), y_q) * w_q) @ vec_q)

    targets = (decay[:w] * (proj @ v_a_q)) @ basis.T
    h = np.empty((w, n_q))
    u_left, kick = np.empty(jt.size), np.empty(jt.size)
    l = 0
    for j in range(w):
        u_j = v_a_q if j == 0 else targets[j - 1, -n_q:]
        h[j] = _integrand_column(
            problem, noise.compensator_mu, a + j * dt, y_q, u_j,
            None if gauss_rows is None else gauss_rows[j],
        )
        targets[j:] += dt * ((decay[: w - j] * (proj @ h[j])) @ basis.T)
        while l < jt.size and jt[l] <= t_targets[j]:
            val = row_apply(jt[l] - a, jx[l], v_a_q)
            for k in range(j + 1):
                s_k = a + k * dt
                weight = min(a + (k + 1) * dt, jt[l]) - s_k
                val += weight * row_apply(jt[l] - s_k, jx[l], h[k])
            for k in range(l):
                if jt[l] > jt[k]:
                    val += float(ke.eval(jt[l] - jt[k], jx[l], jx[k])) * kick[k]
            u_left[l] = val
            kick[l] = float(problem.noise_coef.evaluate(jt[l], jx[l], val)) * jz[l]
            for i in range(j, w):
                lag = max(t_targets[i] - jt[l], 1e-18)
                targets[i] += ke.eval(lag, x_all, jx[l]) * kick[l]
            l += 1
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


class TestSineFactors:
    """The sine propagator of the mild solver's grid lags against the
    kernel it stands in for."""

    @settings(max_examples=60, deadline=None)
    @given(
        L=st.floats(0.5, 3.0),
        dt=st.floats(1e-3, 0.25),
        n_x=st.integers(2, 64),
        max_lag=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(1e-3, 1e3),
    )
    def test_certified_modes_match_the_kernel(self, L, dt, n_x, max_lag, seed, scale):
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
        basis, proj, decay = _sine_factors(ke, x_all, y_q, w_q, dt, max_lag)
        assert basis.shape[1] == N and decay.shape == (max_lag, N)
        h = scale * np.random.default_rng(seed).standard_normal(y_q.size)
        for k in range(1, max_lag + 1):
            applied = (decay[k - 1] * (proj @ h)) @ basis.T
            lag_matrix = ke.eval(k * dt, x_all[:, None], y_q[None, :]) * w_q
            reference = lag_matrix @ h
            # each kernel value of the reference is within target of G, and
            # the N-mode series within spectral_tail_bound(dt, N); rounding
            # is a few ulps of the sums of absolute terms on either side
            mass = w_q * np.abs(h).sum()
            certified = (ke.spectral_tail_bound(dt, N) + target) * mass
            ulps = 16 * np.finfo(float).eps
            rounding = ulps * (N * (2.0 / L) * mass + np.abs(lag_matrix) @ np.abs(h))
            assert np.all(np.abs(applied - reference) <= certified + rounding)
            assert applied[0] == 0.0 and applied[n_x] == 0.0


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
        # one Picard sweep of the windowed mild map, applied to the march's
        # own state, must hand that state back: the march computes the
        # map's fixed point, without iterating
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
                    values, windows = march_windows(prob, noise, grid)
                    # the windows are exactly what solve_mild computes
                    assert np.array_equal(values, solve_mild(prob, noise, grid).values)
                    for window, targets, u_left in windows:
                        sweep_targets, sweep_left = picard_sweep(
                            prob, noise, window, targets, u_left
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
                    _, windows = march_windows(prob, noise, grid)
                    for window, targets, u_left in windows:
                        ref_targets, ref_left = per_jump_window(prob, noise, window)
                        assert targets.tobytes() == ref_targets.tobytes()
                        assert u_left.tobytes() == ref_left.tobytes()
                        jumps_seen += u_left.size
        assert jumps_seen > 100

    def test_kernel_calls_per_window(self, monkeypatch):
        # the window builds its kernel values in at most one call per kind
        # (jump rows, jump-jump values, jump-to-target columns); a fallback
        # to per-jump calls makes hundreds
        calls = []
        eval_orig, window_orig = KernelEvaluator.eval, solvers._solve_window

        def counting_eval(self, *args):
            calls.append(1)
            return eval_orig(self, *args)

        per_window = []

        def counting_window(*args):
            calls.clear()
            out = window_orig(*args)
            per_window.append((len(calls), out[1].size))
            return out

        monkeypatch.setattr(KernelEvaluator, "eval", counting_eval)
        monkeypatch.setattr(solvers, "_solve_window", counting_window)
        trunc = TruncationSpec(1.0, 0.01)
        prob = make_problem(
            drift=affine(0.0, 0.2), noise_coef=clipped_linear(0.4, 2.0), trunc=trunc
        )
        solve_mild(prob, sample_noise(SYM, trunc, DOM, 3), GridSpec(16, 8))
        assert len(per_window) == 4
        assert min(jumps for _, jumps in per_window) >= 10
        assert max(n for n, _ in per_window) <= 3

    def test_former_image_sum_within_1e15(self, monkeypatch):
        # the image sum as it was before each value summed only its own
        # certified image count: all 2*image_terms+1 shifts at every lag,
        # reduced in numpy's own order; no grid value moves by over 1e-15
        def former_image_sum(self, t, x, y):
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
                with monkeypatch.context() as patch:
                    patch.setattr(KernelEvaluator, "_eval_image", former_image_sum)
                    former = solve_mild(prob, noise, grid).values
                moved.append(np.max(np.abs(now - former)))
        assert 0.0 < max(moved) <= 1e-15

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
        g1 = spectral_to_grid(solve_galerkin(prob, noise, 4, GridSpec(16, 8)), GridSpec(16, 8))
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
            gal = spectral_to_grid(solve_galerkin(prob, noise, m, grid), grid)
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
        grid_sol = spectral_to_grid(sol, GridSpec(8, 8))
        assert np.all(grid_sol.values == 0.0)

    def test_single_mode_synthesis(self):
        prob = make_problem()
        noise = sample_noise(SYM, TRUNC, DOM, 7)
        sol = solve_galerkin(prob, noise, 2, GridSpec(8, 16))
        grid_sol = spectral_to_grid(sol, GridSpec(8, 16))
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

    def test_invalid_test_function_rejected(self):
        prob = make_problem(init=ic_zero())
        noise = sample_noise(SYM, TRUNC, DOM, 7)
        sol = solve_mild(prob, noise, GridSpec(16, 8))
        with pytest.raises(ParameterError):
            weak_form_residual(sol, noise, lambda x: np.cos(np.pi * x), t=0.5)
        with pytest.raises(ParameterError):
            # vanishes at the ends but with nonzero slope
            weak_form_residual(sol, noise, lambda x: np.sin(np.pi * x), t=0.5)

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
