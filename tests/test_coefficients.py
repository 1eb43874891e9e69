import numpy as np
import pytest

from stableheat.coefficients import (
    CoefficientSpec,
    affine,
    clipped_linear,
    constant,
    dominates,
    ic_bump,
    ic_constant,
    ic_sine_mode,
    ic_tabulated,
    ic_zero,
    shifted,
    sine_modulated,
    validate_hypothesis,
    zero,
)
from stableheat.errors import HypothesisError, ParameterError
from stableheat.noise import SpaceTimeDomain

UNIT = SpaceTimeDomain(1.0, 1.0)


class TestEvaluate:
    def test_zero_family(self):
        spec = zero()
        assert spec.evaluate(0.3, 0.7, 123.0) == 0.0
        assert np.all(spec.evaluate(0.0, np.linspace(0, 1, 5), np.ones(5)) == 0.0)

    def test_affine_example(self):
        assert affine(1.0, 0.5).evaluate(0.0, 0.0, 2.0) == 2.0

    def test_clipped_saturation(self):
        spec = clipped_linear(1.0, 3.0)
        assert spec.evaluate(0.0, 0.0, 10.0) == 3.0
        assert spec.evaluate(0.0, 0.0, -10.0) == -3.0
        assert spec.evaluate(0.0, 0.0, 2.0) == 2.0

    def test_sine_modulated_shape(self):
        spec = sine_modulated(2.0, 1, 0.5, 1.0)
        assert spec.evaluate(0.0, 0.5, 1.0) == pytest.approx(2.0 * 1.5)
        assert spec.evaluate(0.0, 0.0, 1.0) == pytest.approx(0.0)

    def test_shifted_composition(self):
        base = affine(0.0, 0.3)
        f = shifted(base, -0.5)
        assert f.evaluate(0.0, 0.0, 2.0) == pytest.approx(0.1)

    def test_purity_bitwise(self):
        spec = sine_modulated(1.3, 2, 0.7, 2.0)
        args = (0.25, 1.3, -4.2)
        assert spec.evaluate(*args) == spec.evaluate(*args)

    def test_broadcasting(self):
        spec = affine(1.0, 2.0)
        out = spec.evaluate(0.0, np.zeros((3, 1)), np.arange(4.0))
        assert out.shape == (3, 4)


class TestValidateHypothesis:
    def test_zero_passes_with_monotone(self, monkeypatch):
        # each audit's pass is backed by at least 10 000 points
        sizes = []
        evaluate = CoefficientSpec.evaluate

        def counted(spec, t, x, u):
            sizes.append(np.size(u))
            return evaluate(spec, t, x, u)

        monkeypatch.setattr(CoefficientSpec, "evaluate", counted)
        for audit, args in (
            (validate_hypothesis, (zero(), UNIT, True)),
            (dominates, (zero(), zero(), UNIT)),
        ):
            sizes.clear()
            assert audit(*args) is None
            assert sizes and min(sizes) >= 10_000

    def test_decreasing_affine_fails_monotone(self):
        with pytest.raises(HypothesisError) as err:
            validate_hypothesis(affine(1.0, -0.5), UNIT, require_monotone=True)
        assert "monotone" in str(err.value) or "non-decreasing" in str(err.value)

    def test_understated_lipschitz_bound_fails(self):
        # finite-difference audit catches a declared slope below the true one
        from dataclasses import replace

        lying = replace(sine_modulated(2.0, 1, 1.0, 1.0), lipschitz_bound=0.5)
        with pytest.raises(HypothesisError) as err:
            validate_hypothesis(lying, UNIT)
        assert err.value.witness is not None

    def test_understated_growth_bound_fails(self):
        from dataclasses import replace

        lying = replace(constant(5.0), growth_bound=1.0)
        with pytest.raises(HypothesisError):
            validate_hypothesis(lying, UNIT)

    def test_families_pass_their_declared_bounds(self):
        for spec in (
            zero(),
            constant(-2.0),
            affine(1.0, 0.5),
            clipped_linear(0.4, 2.0),
            sine_modulated(1.5, 3, -0.25, 2.0),
            shifted(clipped_linear(1.0, 1.0), 0.3),
        ):
            validate_hypothesis(spec, UNIT)

    def test_monotone_audit_runs_on_the_given_domain(self):
        # sin(pi x) * (1 + u) is non-decreasing in u for x in [0, 1] only
        spec = sine_modulated(1.0, 1, 1.0, 1.0)
        validate_hypothesis(spec, UNIT, require_monotone=True)
        with pytest.raises(HypothesisError) as err:
            validate_hypothesis(spec, SpaceTimeDomain(1.0, 2.0), require_monotone=True)
        t, x, lo, hi = err.value.witness
        assert 1.0 < x <= 2.0 and lo < hi
        assert spec.evaluate(t, x, lo) > spec.evaluate(t, x, hi)
        assert "non-decreasing" in str(err.value)


class TestDominates:
    def test_equal_specs_pass(self):
        g = affine(0.0, 0.3)
        dominates(g, g, UNIT)

    def test_negative_shift_passes(self):
        g = affine(0.0, 0.3)
        dominates(shifted(g, -0.5), g, UNIT)

    def test_counterexample_found(self):
        with pytest.raises(HypothesisError) as err:
            dominates(affine(0.0, 1.0), affine(0.0, 0.5), UNIT)
        assert err.value.witness is not None


class TestInitialConditions:
    def test_zero_and_sine(self):
        assert np.all(ic_zero().values(np.linspace(0, 1, 9)) == 0.0)
        ic = ic_sine_mode(2, 1.5, 1.0)
        xs = np.linspace(0, 1, 33)
        np.testing.assert_allclose(ic.values(xs), 1.5 * np.sin(2 * np.pi * xs))

    def test_bump_support_and_sign(self):
        ic = ic_bump(2.0, 0.5, 0.6)
        xs = np.linspace(0, 1, 101)
        v = ic.values(xs)
        assert np.all(v >= 0.0)
        assert v.max() == pytest.approx(2.0)
        assert v[0] == 0.0 and v[-1] == 0.0
        assert ic.values(0.1) == 0.0  # outside the support

    def test_tabulated_interpolation(self):
        ic = ic_tabulated([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        assert ic.values(0.25) == pytest.approx(0.5)

    def test_dirichlet_validation(self):
        ic_sine_mode(1, 1.0, 1.0).validate_dirichlet(1.0)
        with pytest.raises(ParameterError):
            ic_constant(1.0).validate_dirichlet(1.0)

    def test_non_integer_mode_rejected(self):
        with pytest.raises(ParameterError):
            ic_sine_mode(1.7, 1.0, 1.0)
        with pytest.raises(ParameterError):
            sine_modulated(1.0, 1.7, 0.0, 1.0)
        assert ic_sine_mode(1.0, 1.0, 1.0) == ic_sine_mode(1, 1.0, 1.0)
        assert sine_modulated(1.0, 1.0, 0.0) == sine_modulated(1.0, 1, 0.0)

    def test_nonnegativity_detection(self):
        assert ic_bump(1.0, 0.5, 0.5).is_nonnegative(1.0)
        assert not ic_sine_mode(2, 1.0, 1.0).is_nonnegative(1.0)


class TestZeroStateStructure:
    def test_vanishing_families(self):
        assert zero().vanishes_at_zero_state()
        assert affine(0.0, 0.7).vanishes_at_zero_state()
        assert clipped_linear(0.4, 2.0).vanishes_at_zero_state()
        assert not affine(0.1, 0.7).vanishes_at_zero_state()
        assert not constant(1.0).vanishes_at_zero_state()
        assert not sine_modulated(1.0, 1, 1.0, 1.0).vanishes_at_zero_state()
        assert shifted(clipped_linear(1.0, 1.0), 0.0).vanishes_at_zero_state()
        assert not shifted(clipped_linear(1.0, 1.0), 0.5).vanishes_at_zero_state()
