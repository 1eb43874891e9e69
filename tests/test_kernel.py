import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    check_semigroup,
    convolve,
    full_image_sum,
    image_sum,
    lp_norm,
    other_representation,
    series_oracle,
)
from stableheat import kernel
from stableheat.errors import AccuracyError, DeltaSingularityError, ParameterError
from stableheat.kernel import (
    _IMAGE_LEVELS,
    _SERIES_MODES,
    _TAIL_FRACTION,
    KernelEvaluator,
    _image_level_limit,
)


def eager_limits(ke):
    """Every level's limit, bisected in one loop as the kernel once did at
    its first evaluation: the reference for the limits bisected on demand."""
    target = _TAIL_FRACTION * ke.abs_tol
    limits = []
    for n in range(_IMAGE_LEVELS):
        lo, hi = 0.0, ke.crossover_time
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if ke.image_tail_bound(mid, n) <= target:
                lo = mid
            else:
                hi = mid
        limits.append(lo)
    return limits


class TestPointwise:
    def test_reference_value(self):
        # five-term series with tail bound, cross-checked against the image sum
        oracle, tail = series_oracle(0.1, 0.5, 0.5, n_max=5)
        assert tail < 1e-6
        assert oracle == pytest.approx(1.24457, abs=1e-5)
        fine, fine_tail = series_oracle(0.1, 0.5, 0.5, n_max=60)
        assert fine_tail < 1e-300
        assert full_image_sum(0.1, 0.5, 0.5, 1.0)[0] == pytest.approx(fine, abs=1e-12)
        val = KernelEvaluator(1.0).eval(0.1, 0.5, 0.5)
        assert val == pytest.approx(oracle, abs=tail + 1e-12)
        assert val == pytest.approx(fine, abs=1e-12)

    def test_dirichlet_boundary_zero(self):
        ke = KernelEvaluator(1.0)
        for t in (0.01, 0.3, 1.0):
            assert ke.eval(t, 0.0, 0.37) == 0.0
            assert ke.eval(t, 1.0, 0.37) == 0.0
            assert ke.eval(t, 0.37, 0.0) == 0.0
            assert ke.eval(t, 0.37, 1.0) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        x, y = rng.random(200), rng.random(200)
        ke = KernelEvaluator(1.0)
        a = ke.eval(0.4, x, y)  # past the crossover: the series
        b = ke.eval(0.4, y, x)
        assert np.array_equal(a, b)  # bitwise for the spectral series
        np.testing.assert_allclose(  # the image sum
            ke.eval(0.05, x, y), ke.eval(0.05, y, x), atol=ke.abs_tol
        )

    def test_representation_agreement_sweep(self):
        # each side of the crossover against the other representation
        rng = np.random.default_rng(1)
        ke = KernelEvaluator(1.0)
        ts = np.exp(rng.uniform(math.log(1e-3), 0.0, size=200))
        xs, ys = rng.random(200), rng.random(200)
        assert ts.min() < ke.crossover_time < ts.max()
        for t, x, y in zip(ts, xs, ys):
            assert abs(ke.eval(t, x, y) - other_representation(t, x, y)) <= 2e-10

    def test_positivity(self):
        rng = np.random.default_rng(2)
        ke = KernelEvaluator(1.0)
        for t in np.geomspace(1e-3, 1.0, 12):
            vals = ke.eval(t, rng.random(64), rng.random(64))
            assert np.all(vals >= -ke.abs_tol)

    def test_delta_singularity(self):
        with pytest.raises(DeltaSingularityError):
            KernelEvaluator(1.0).eval(0.0, 0.5, 0.5)

    def test_accuracy_guard(self, monkeypatch):
        # both truncations hold abs_tol at the crossover, their worst t, for
        # lengths far beyond any problem's; a starved one fails construction
        for L in (1e-150, 1e-3, 1.0, 1e3, 1e150):
            ke = KernelEvaluator(L)
            t_c = ke.crossover_time
            assert ke.image_tail_bound(t_c, _IMAGE_LEVELS) <= ke.abs_tol
            assert ke.spectral_tail_bound(t_c, _SERIES_MODES) <= ke.abs_tol
        for name in ("_IMAGE_LEVELS", "_SERIES_MODES"):
            with monkeypatch.context() as patch:
                patch.setattr(kernel, name, 2)
                with pytest.raises(AccuracyError, match="exceeds abs_tol"):
                    KernelEvaluator(1.0)
            with monkeypatch.context() as patch:
                patch.setattr(kernel, name, 3)
                KernelEvaluator(1.0)  # the fewest that still certify

    def test_evaluation_checks_no_bound(self, monkeypatch):
        # the certificate is the evaluator's: no evaluation, on either side
        # of the crossover, computes a tail bound again
        ke = KernelEvaluator(1.0)
        ts = np.array([1e-4, 0.05, 0.3, 0.5, 2.0])
        expected = ke.eval(ts, 0.3, 0.6)  # the level limits are bisected here
        calls = []

        def counting(self, t, n):
            calls.append(n)
            return 0.0

        monkeypatch.setattr(KernelEvaluator, "image_tail_bound", counting)
        monkeypatch.setattr(KernelEvaluator, "spectral_tail_bound", counting)
        assert ke.eval(ts, 0.3, 0.6).tobytes() == expected.tobytes()
        assert ke.eval(0.05, 0.3, 0.6) == expected[1]
        assert calls == []

    def test_crossover_continuity(self):
        ke = KernelEvaluator(1.0)
        t_c = ke.crossover_time
        below = ke.eval(t_c * (1 - 1e-9), 0.3, 0.6)
        above = ke.eval(t_c * (1 + 1e-9), 0.3, 0.6)
        assert abs(below - above) < 1e-9

    def test_validation(self):
        # the length is the one configuration; the tolerance is a constant
        assert [f.name for f in dataclasses.fields(KernelEvaluator)] == ["length_L"]
        assert KernelEvaluator.abs_tol == KernelEvaluator(2.0).abs_tol == 1e-10
        for L in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError):
                KernelEvaluator(L)
        with pytest.raises(TypeError):
            KernelEvaluator(1.0, abs_tol=1e-6)


LENGTHS = st.floats(0.5, 3.0)
UNIT = st.floats(0.0, 1.0)


class TestImageCount:
    def test_three_images_at_solver_lags(self):
        # every lag within one step at n_t >= 64 on the unit interval sums
        # level 0 alone: the images y-x, y+x and y+x-2L
        ke = KernelEvaluator(1.0)
        lags = np.linspace(1e-6, 1.0 / 64.0, 50)
        assert np.all(ke._image_levels(lags) == 0)
        assert ke.image_tail_bound(1.0 / 64.0, 0) <= _TAIL_FRACTION * ke.abs_tol

    def test_five_images_up_to_a_sixteenth(self):
        # the jump-jump lags of two adjacent steps at dt <= 1/32 need at most level 1
        ke = KernelEvaluator(1.0)
        lags = np.linspace(1e-6, 1.0 / 16.0, 50)
        assert np.all(ke._image_levels(lags) <= 1)
        assert ke.image_tail_bound(1.0 / 16.0, 1) <= _TAIL_FRACTION * ke.abs_tol
        # the bisected limits of levels 0 and 1 at L = 1
        assert eager_limits(ke)[:2] == pytest.approx((0.015731, 0.064351), rel=1e-4)

    def test_limits_certify_their_count(self):
        for L in (0.5, 1.0, 2.0):
            ke = KernelEvaluator(L)
            limits = np.array(eager_limits(ke))
            assert limits.size == _IMAGE_LEVELS
            assert np.all(np.diff(limits) >= 0.0)
            assert np.all(limits <= ke.crossover_time)
            for n, t in enumerate(limits):
                assert ke.image_tail_bound(t, n) <= _TAIL_FRACTION * ke.abs_tol
                below, above = ke._image_levels(np.array([t, math.nextafter(t, math.inf)]))
                assert below <= n < above

    @pytest.mark.parametrize("L", [0.5, 1.0, 2.0])
    def test_limits_bisected_on_demand_equal_the_eager_ones(self, L, monkeypatch):
        ke = KernelEvaluator(L)
        eager = eager_limits(ke)
        _image_level_limit.cache_clear()
        bounds = []
        tail_bound = KernelEvaluator.image_tail_bound

        def counting_bound(self, t, level):
            bounds.append(level)
            return tail_bound(self, t, level)

        monkeypatch.setattr(KernelEvaluator, "image_tail_bound", counting_bound)
        # a batch below the first limit, as every solver lag at L = 1 = T, n_t >= 128
        lags = np.linspace(1e-9, 1.0, 40) * eager[0]
        assert np.all(ke._image_levels(lags) == 0)
        assert set(bounds) == {0}  # level 0 alone was bisected
        for n in range(_IMAGE_LEVELS):  # a batch reaching just past limit n-1
            t = np.array([eager[0] / 2, math.nextafter(eager[n - 1], math.inf) if n else eager[0]])
            np.testing.assert_array_equal(ke._image_levels(t), np.searchsorted(eager, t))
            # bisected up to the first limit at or above the batch's largest t
            assert max(bounds) == min(np.searchsorted(eager, t.max()), _IMAGE_LEVELS - 1)
        lazy = [_image_level_limit(ke, n) for n in range(_IMAGE_LEVELS)]
        assert lazy == eager  # bitwise: the same bisection, level by level
        t = np.array([ke.crossover_time * 0.999, *eager])
        np.testing.assert_array_equal(ke._image_levels(t), np.searchsorted(eager, t))

    @settings(max_examples=200, deadline=None)
    @given(L=LENGTHS, t_frac=st.floats(1e-4, 1.0, exclude_max=True), x=UNIT, y=UNIT)
    @example(L=2.66735077481476, t_frac=0.0078125, x=1.0, y=0.5)  # cancels at x = L
    def test_own_count_within_its_bound_of_all_images(self, L, t_frac, x, y):
        ke = KernelEvaluator(L)
        t, x, y = t_frac * ke.crossover_time, x * L, y * L
        (n,) = ke._image_levels(np.array([t]))
        assert 0 <= n <= _IMAGE_LEVELS
        bound = ke.image_tail_bound(t, int(n))
        if n < _IMAGE_LEVELS:
            assert bound <= _TAIL_FRACTION * ke.abs_tol
        # all images, each formed as the kernel forms it: the difference is
        # the truncation and the order of the sum, at x = L exactly zero
        full, (_, scale) = image_sum(t, x, y, L), full_image_sum(t, x, y, L)
        rounding = 64 * np.finfo(float).eps * scale
        assert abs(ke.eval(t, x, y) - full) <= bound + rounding


class TestSpectralTail:
    @pytest.mark.parametrize("t", [1e-6, 1e-4, 1e-2, 1.0])
    @pytest.mark.parametrize("N", [1, 40, 400])
    def test_bound_covers_the_whole_tail(self, t, N):
        # at small t the terms outlast the bound's 399 summed ones, and the
        # integral remainder must cover the rest
        L = 1.0
        ke = KernelEvaluator(L)
        n = np.arange(N + 1, N + 2_000_001, dtype=float)
        tail = 2.0 / L * np.exp(-math.pi**2 * t / (2.0 * L**2) * n * n).sum()
        assert tail * (1.0 - 1e-12) <= ke.spectral_tail_bound(t, N) <= tail * (1.0 + 1e-2) + 1e-300

    @settings(max_examples=200, deadline=None)
    @given(
        L=st.floats(0.1, 10.0),
        t_frac=st.floats(1e-4, 2.0),
        abs_tol=st.floats(1e-14, 1e-4),
    )
    def test_propagator_modes_equal_the_walk_from_one(self, L, t_frac, abs_tol):
        # the walk starts at an analytic lower bound on the fewest modes;
        # it must land where a walk from N = 1 does, whatever the tolerance
        ke = KernelEvaluator(L)
        t = t_frac * L * L
        N = 1
        while ke.spectral_tail_bound(t, N) > _TAIL_FRACTION * abs_tol:
            N += 1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernel, "_ABS_TOL", abs_tol)
            assert ke.propagator_modes(t) == N

    @pytest.mark.parametrize("n_t", [16, 64, 128, 256])
    def test_propagator_walk_is_short_at_solver_grids(self, n_t, monkeypatch):
        calls = []
        bound = KernelEvaluator.spectral_tail_bound

        def counting_bound(self, t, N):
            calls.append(N)
            return bound(self, t, N)

        ke = KernelEvaluator(1.0)  # construction certifies the 128 modes once
        monkeypatch.setattr(KernelEvaluator, "spectral_tail_bound", counting_bound)
        ke.propagator_modes(1.0 / n_t)
        assert len(calls) <= 3


def straddling_times(ke, data):
    """Times on both sides of the first image-level limits and of the crossover."""
    edges = eager_limits(ke)[:2] + [ke.crossover_time]
    near = [
        e * (1.0 + side * data.draw(st.floats(1e-12, 1e-3)))
        for e in edges
        for side in (-1.0, 1.0)
    ]
    spread = data.draw(st.lists(st.floats(1e-4, 2.0), min_size=1, max_size=6))
    return np.array(near + [f * ke.crossover_time for f in spread])


class TestBatchedEval:
    @settings(max_examples=60, deadline=None)
    @given(L=LENGTHS, data=st.data())
    def test_batch_equals_scalar_bitwise(self, L, data):
        ke = KernelEvaluator(L)
        ts = straddling_times(ke, data)
        n = ts.size
        xs = np.array(data.draw(st.lists(UNIT, min_size=n, max_size=n))) * L
        ys = np.array(data.draw(st.lists(UNIT, min_size=n, max_size=n))) * L
        ys[0] = L  # a boundary point rides along
        batch = ke.eval(ts, xs, ys)
        for i in range(n):
            assert batch[i] == ke.eval(float(ts[i]), float(xs[i]), float(ys[i]))
        # rows against a grid: each row equals its own one-t call
        grid = np.linspace(0.0, L, 9)
        rows = ke.eval(ts[:, None], xs[:, None], grid)
        for i in range(n):
            assert rows[i].tobytes() == ke.eval(float(ts[i]), float(xs[i]), grid).tobytes()
        assert ts.min() < ke.crossover_time < ts.max()

    def test_empty_batch(self):
        ke = KernelEvaluator(1.0)
        assert ke.eval(np.empty(0), 0.5, 0.5).shape == (0,)
        assert ke.eval(np.empty((0, 1)), 0.5, np.linspace(0, 1, 4)).shape == (0, 4)

    def test_rejects_non_positive_time_in_batch(self):
        ke = KernelEvaluator(1.0)
        with pytest.raises(DeltaSingularityError):
            ke.eval(np.array([0.1, 0.0]), 0.5, 0.5)
        with pytest.raises(ParameterError):
            ke.eval(np.array([0.1, -0.2]), 0.5, 0.5)


class TestImageSumMemory:
    def test_row_batch_peaks_at_a_few_output_arrays(self):
        # t and x per row, y per column, as the mild solver batches its jump
        # rows: the image sum works at the output's shape, one shift at a
        # image at a time, instead of stacking them
        ke = KernelEvaluator(1.0)
        n, P = 200, 641
        rng = np.random.default_rng(0)
        t = rng.uniform(1e-4, 0.25, (n, 1))
        x = rng.uniform(0.0, 1.0, (n, 1))
        y = np.linspace(0.0, 1.0, P)
        ke.eval(t, x, y)  # the image level limits are bisected once, here
        tracemalloc.start()
        try:
            out = ke.eval(t, x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (n, P)
        assert peak <= 6 * n * P * 8


class TestConvolve:
    def test_eigenfunction_identity(self):
        ke = KernelEvaluator(1.0)
        for t in (0.02, 0.1, 0.7):
            conv = convolve(ke, t, lambda y: np.sin(math.pi * y), 256)
            xs = np.linspace(0, 1, 41)
            expected = math.exp(-math.pi**2 * t / 2.0) * np.sin(math.pi * xs)
            np.testing.assert_allclose(conv(xs), expected, atol=1e-10)

    def test_mass_bound(self):
        ke = KernelEvaluator(1.0)
        ones = lambda y: np.ones_like(y)
        for t in np.geomspace(1e-3, 1.0, 10):
            vals = convolve(ke, t, ones, 256)(np.linspace(0, 1, 33))
            assert np.all(vals >= -ke.abs_tol)
            assert np.all(vals <= 1.0 + ke.abs_tol)

    def test_identity_at_zero_time(self):
        ke = KernelEvaluator(1.0)
        h = lambda y: np.cos(3.0 * y)
        conv = convolve(ke, 0.0, h, 64)
        xs = np.linspace(0, 1, 17)
        np.testing.assert_array_equal(conv(xs), h(xs))


class TestSemigroup:
    def test_reference_case(self):
        ke = KernelEvaluator(1.0)
        assert check_semigroup(ke, 0.05, 0.05, 0.5, 0.5, 512) < 1e-8

    def test_boundary_case(self):
        ke = KernelEvaluator(1.0)
        assert check_semigroup(ke, 0.05, 0.05, 0.0, 0.5, 512) < 1e-10

    def test_random_batch(self):
        rng = np.random.default_rng(3)
        ke = KernelEvaluator(1.0)
        for _ in range(50):
            s, t = np.exp(rng.uniform(math.log(0.01), math.log(0.5), 2))
            x, z = rng.random(2)
            assert check_semigroup(ke, s, t, x, z, 512) <= 10.0 * ke.abs_tol

    def test_rejects_zero_times(self):
        with pytest.raises(ParameterError):
            check_semigroup(KernelEvaluator(1.0), 0.0, 0.1, 0.5, 0.5, 128)


class TestLpBound:
    def test_analytic_estimate(self):
        # 0 <= G_t(x, .) <= the whole-line Gaussian of variance t, so
        # int G_t(x,y)^p dy <= (2 pi t)^(-(p-1)/2) p^(-1/2): the kernel
        # estimate behind the L^p theory for p in (alpha, 2].  Away from
        # the boundary at small t the kernel is that Gaussian to rounding,
        # so the value meets the bound (to 2e-16 at p = 1), and the bound
        # holds with a relative slack of 1e-12 only
        ke = KernelEvaluator(1.0)
        for p in (1.0, 1.5, 2.0):
            for t in np.geomspace(1e-3, 1.0, 8):
                bound = (2.0 * math.pi * t) ** (-(p - 1.0) / 2.0) / math.sqrt(p)
                for x in (0.005, 0.05, 0.25, 0.5):
                    assert lp_norm(ke, t, x, p, 512) <= bound * (1.0 + 1e-12)
            sharp = (2.0 * math.pi * 1e-3) ** (-(p - 1.0) / 2.0) / math.sqrt(p)
            assert lp_norm(ke, 1e-3, 0.5, p, 512) >= sharp * (1.0 - 1e-12)

    def test_p2_scaling(self):
        # halving t in the power-law regime grows the value by <= sqrt(2);
        # at larger t the value decays faster and only falls further below
        # the t**-1/2 envelope, which test_analytic_estimate's bound covers
        ke = KernelEvaluator(1.0)
        for t in (0.004, 0.01, 0.02):
            v_half = lp_norm(ke, t / 2.0, 0.5, 2.0, 1024)
            v = lp_norm(ke, t, 0.5, 2.0, 1024)
            assert v_half <= math.sqrt(2.0) * 1.001 * v

    def test_large_time_decay(self):
        ke = KernelEvaluator(1.0)
        value = lp_norm(ke, 1.0, 0.5, 2.0, 512)
        assert value < 1e-3

