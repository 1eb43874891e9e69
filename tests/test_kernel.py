import math

import numpy as np
import pytest

from stableheat.errors import AccuracyError, DeltaSingularityError, ParameterError
from stableheat.kernel import KernelEvaluator


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

