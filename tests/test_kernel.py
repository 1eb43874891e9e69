import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableheat.errors import AccuracyError, DeltaSingularityError, ParameterError
from stableheat.kernel import _TAIL_FRACTION, KernelEvaluator, _image_level_limits


def series_oracle(t, x, y, L=1.0, n_max=60):
    """Independent sine-series evaluation with an explicit tail bound."""
    total = 0.0
    for n in range(1, n_max + 1):
        lam = (n * math.pi / L) ** 2 / 2.0
        total += (2.0 / L) * math.sin(n * math.pi * x / L) * math.sin(
            n * math.pi * y / L
        ) * math.exp(-lam * t)
    rate = math.pi**2 * t / (2 * L * L)
    tail = (2.0 / L) * math.exp(-rate * (n_max + 1) ** 2) / (1 - math.exp(-rate))
    return total, tail


class TestPointwise:
    def test_reference_value(self):
        # five-term series with tail bound, cross-checked against both methods
        oracle, tail = series_oracle(0.1, 0.5, 0.5, n_max=5)
        assert tail < 1e-6
        assert oracle == pytest.approx(1.24457, abs=1e-5)
        fine, fine_tail = series_oracle(0.1, 0.5, 0.5, n_max=60)
        assert fine_tail < 1e-300
        for method in ("image_sum", "spectral", "auto"):
            ke = KernelEvaluator(1.0, method=method)
            val = ke.eval(0.1, 0.5, 0.5)
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
        kes = KernelEvaluator(1.0, method="spectral")
        a = kes.eval(0.4, x, y)
        b = kes.eval(0.4, y, x)
        assert np.array_equal(a, b)  # bitwise for the spectral series
        kei = KernelEvaluator(1.0, method="image_sum")
        np.testing.assert_allclose(
            kei.eval(0.05, x, y), kei.eval(0.05, y, x), atol=kei.abs_tol
        )

    def test_representation_agreement_sweep(self):
        rng = np.random.default_rng(1)
        kei = KernelEvaluator(1.0, method="image_sum")
        kes = KernelEvaluator(1.0, method="spectral")
        ts = np.exp(rng.uniform(math.log(1e-3), 0.0, size=200))
        xs, ys = rng.random(200), rng.random(200)
        for t, x, y in zip(ts, xs, ys):
            assert abs(kei.eval(t, x, y) - kes.eval(t, x, y)) <= 2e-10

    def test_positivity(self):
        rng = np.random.default_rng(2)
        ke = KernelEvaluator(1.0)
        for t in np.geomspace(1e-3, 1.0, 12):
            vals = ke.eval(t, rng.random(64), rng.random(64))
            assert np.all(vals >= -ke.abs_tol)

    def test_delta_singularity(self):
        with pytest.raises(DeltaSingularityError):
            KernelEvaluator(1.0).eval(0.0, 0.5, 0.5)

    def test_accuracy_guard(self):
        starved = KernelEvaluator(1.0, method="spectral", spectral_modes=4)
        with pytest.raises(AccuracyError):
            starved.eval(1e-4, 0.5, 0.5)
        # same t is fine via the image representation
        assert KernelEvaluator(1.0, method="image_sum").eval(1e-4, 0.5, 0.5) > 0

    def test_accuracy_guard_on_batches(self):
        # one uncertifiable t fails the whole batch, whatever its position
        starved = KernelEvaluator(1.0, method="spectral", spectral_modes=4)
        assert np.all(starved.eval(np.array([0.5, 0.3]), 0.5, 0.5) > 0)
        with pytest.raises(AccuracyError):
            starved.eval(np.array([0.5, 1e-4, 0.3]), 0.5, 0.5)
        few_images = KernelEvaluator(1.0, method="image_sum", image_terms=1)
        assert np.all(few_images.eval(np.array([0.01, 0.05]), 0.3, 0.6) > 0)
        with pytest.raises(AccuracyError):
            few_images.eval(np.array([0.01, 5.0, 0.05]), 0.3, 0.6)
        with pytest.raises(AccuracyError):
            few_images.eval(np.array([[0.01], [0.5]]), np.linspace(0, 1, 5), 0.6)

    def test_crossover_continuity(self):
        ke = KernelEvaluator(1.0)
        t_c = ke.crossover_time
        below = ke.eval(t_c * (1 - 1e-9), 0.3, 0.6)
        above = ke.eval(t_c * (1 + 1e-9), 0.3, 0.6)
        assert abs(below - above) < 1e-9

    def test_validation(self):
        with pytest.raises(ParameterError):
            KernelEvaluator(0.0)
        with pytest.raises(ParameterError):
            KernelEvaluator(1.0, method="fourier")
        with pytest.raises(ParameterError):
            KernelEvaluator(1.0, abs_tol=0.0)


def full_image_sum(t, x, y, L, terms=8):
    """All 2*terms+1 images, term by term in plain floats."""
    total = sum(
        math.exp(-((y - x + 2 * k * L) ** 2) / (2 * t))
        - math.exp(-((y + x + 2 * k * L) ** 2) / (2 * t))
        for k in range(-terms, terms + 1)
    )
    scale = sum(
        math.exp(-((y - x + 2 * k * L) ** 2) / (2 * t))
        + math.exp(-((y + x + 2 * k * L) ** 2) / (2 * t))
        for k in range(-terms, terms + 1)
    )
    norm = math.sqrt(2 * math.pi * t)
    return total / norm, scale / norm


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
        assert _image_level_limits(ke)[:2] == pytest.approx((0.015731, 0.064351), rel=1e-4)

    def test_limits_certify_their_count(self):
        for L in (0.5, 1.0, 2.0):
            ke = KernelEvaluator(L)
            limits = np.array(_image_level_limits(ke))
            assert limits.size == 2 * ke.image_terms - 1
            assert np.all(np.diff(limits) >= 0.0)
            assert np.all(limits <= ke.crossover_time)
            for n, t in enumerate(limits):
                assert ke.image_tail_bound(t, n) <= _TAIL_FRACTION * ke.abs_tol
                below, above = ke._image_levels(np.array([t, math.nextafter(t, math.inf)]))
                assert below <= n < above

    def test_default_bound_covers_the_shifts_of_image_terms(self):
        # the guard's bound drops the levels beyond 2*image_terms - 1
        for terms in (1, 8):
            ke = KernelEvaluator(1.0, image_terms=terms)
            assert ke.image_tail_bound(0.2) == ke.image_tail_bound(0.2, 2 * terms - 1)

    @settings(max_examples=200, deadline=None)
    @given(L=LENGTHS, t_frac=st.floats(1e-4, 1.0, exclude_max=True), x=UNIT, y=UNIT)
    def test_own_count_within_its_bound_of_all_images(self, L, t_frac, x, y):
        ke = KernelEvaluator(L)
        t, x, y = t_frac * ke.crossover_time, x * L, y * L
        (n,) = ke._image_levels(np.array([t]))
        top = 2 * ke.image_terms - 1
        assert 0 <= n <= top
        bound = ke.image_tail_bound(t, int(n))
        if n < top:
            assert bound <= _TAIL_FRACTION * ke.abs_tol
        full, scale = full_image_sum(t, x, y, L)
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

    def test_default_count_is_spectral_modes(self):
        ke = KernelEvaluator(1.0, spectral_modes=7)
        assert ke.spectral_tail_bound(0.01) == ke.spectral_tail_bound(0.01, 7)

    @settings(max_examples=200, deadline=None)
    @given(
        L=st.floats(0.1, 10.0),
        t_frac=st.floats(1e-4, 2.0),
        abs_tol=st.floats(1e-14, 1e-4),
    )
    def test_propagator_modes_equal_the_walk_from_one(self, L, t_frac, abs_tol):
        # the walk starts at an analytic lower bound on the fewest modes;
        # it must land where a walk from N = 1 does
        ke = KernelEvaluator(L, abs_tol=abs_tol)
        t = t_frac * L * L
        N = 1
        while ke.spectral_tail_bound(t, N) > _TAIL_FRACTION * abs_tol:
            N += 1
        assert ke.propagator_modes(t) == N

    @pytest.mark.parametrize("n_t", [16, 64, 128, 256])
    def test_propagator_walk_is_short_at_solver_grids(self, n_t, monkeypatch):
        calls = []
        bound = KernelEvaluator.spectral_tail_bound

        def counting_bound(self, t, N=None):
            calls.append(N)
            return bound(self, t, N)

        monkeypatch.setattr(KernelEvaluator, "spectral_tail_bound", counting_bound)
        KernelEvaluator(1.0).propagator_modes(1.0 / n_t)
        assert len(calls) <= 3


def straddling_times(ke, data):
    """Times on both sides of the first image-level limits and of the crossover."""
    edges = list(_image_level_limits(ke)[:2]) + [ke.crossover_time]
    near = [
        e * (1.0 + side * data.draw(st.floats(1e-12, 1e-3)))
        for e in edges
        for side in (-1.0, 1.0)
    ]
    spread = data.draw(st.lists(st.floats(1e-4, 2.0), min_size=1, max_size=6))
    return np.array(near + [f * ke.crossover_time for f in spread])


class TestBatchedEval:
    @settings(max_examples=60, deadline=None)
    @given(L=LENGTHS, method=st.sampled_from(["auto", "image_sum"]), data=st.data())
    def test_batch_equals_scalar_bitwise(self, L, method, data):
        ke = KernelEvaluator(L, method=method)
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
            conv = ke.convolve(t, lambda y: np.sin(math.pi * y), 256)
            xs = np.linspace(0, 1, 41)
            expected = math.exp(-math.pi**2 * t / 2.0) * np.sin(math.pi * xs)
            np.testing.assert_allclose(conv(xs), expected, atol=1e-10)

    def test_mass_bound(self):
        ke = KernelEvaluator(1.0)
        ones = lambda y: np.ones_like(y)
        for t in np.geomspace(1e-3, 1.0, 10):
            vals = ke.convolve(t, ones, 256)(np.linspace(0, 1, 33))
            assert np.all(vals >= -ke.abs_tol)
            assert np.all(vals <= 1.0 + ke.abs_tol)

    def test_identity_at_zero_time(self):
        ke = KernelEvaluator(1.0)
        h = lambda y: np.cos(3.0 * y)
        conv = ke.convolve(0.0, h, 64)
        xs = np.linspace(0, 1, 17)
        np.testing.assert_array_equal(conv(xs), h(xs))


class TestSemigroup:
    def test_reference_case(self):
        ke = KernelEvaluator(1.0)
        assert ke.check_semigroup(0.05, 0.05, 0.5, 0.5, 512) < 1e-8

    def test_boundary_case(self):
        ke = KernelEvaluator(1.0)
        assert ke.check_semigroup(0.05, 0.05, 0.0, 0.5, 512) < 1e-10

    def test_random_batch(self):
        rng = np.random.default_rng(3)
        ke = KernelEvaluator(1.0)
        for _ in range(50):
            s, t = np.exp(rng.uniform(math.log(0.01), math.log(0.5), 2))
            x, z = rng.random(2)
            assert ke.check_semigroup(s, t, x, z, 512) <= 10.0 * ke.abs_tol

    def test_rejects_zero_times(self):
        with pytest.raises(ParameterError):
            KernelEvaluator(1.0).check_semigroup(0.0, 0.1, 0.5, 0.5, 128)


class TestLpBound:
    def test_mass_case(self):
        ke = KernelEvaluator(1.0)
        for t in np.geomspace(1e-3, 1.0, 8):
            value, bound = ke.lp_norm_bound_check(t, 0.5, 1.0, 512)
            assert value <= 1.0 + ke.abs_tol
            assert value <= bound + 1e-12

    def test_p2_scaling(self):
        # halving t in the power-law regime grows the value by <= sqrt(2);
        # at larger t the value decays faster and only falls further below
        # the t**-1/2 envelope, which test_mass_case's bound already covers
        ke = KernelEvaluator(1.0)
        for t in (0.004, 0.01, 0.02):
            v_half, _ = ke.lp_norm_bound_check(t / 2.0, 0.5, 2.0, 1024)
            v, _ = ke.lp_norm_bound_check(t, 0.5, 2.0, 1024)
            assert v_half <= math.sqrt(2.0) * 1.001 * v

    def test_large_time_decay(self):
        ke = KernelEvaluator(1.0)
        value, _ = ke.lp_norm_bound_check(1.0, 0.5, 2.0, 512)
        assert value < 1e-3

