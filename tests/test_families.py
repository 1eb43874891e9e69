"""Property tests over every registered coefficient and initial-condition
family: a new entry in ``COEFFICIENT_FAMILIES`` or ``INITIAL_FAMILIES`` is
covered here without editing this file, as long as its constructor's
parameter names appear in ``PARAMETERS`` below."""

import inspect
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stableheat.cli import RunConfig
from stableheat.coefficients import (
    _AUDIT_U_RANGE,
    COEFFICIENT_FAMILIES,
    INITIAL_FAMILIES,
    _u_extremes,
    affine,
    clipped_linear,
    dominates,
    shifted,
    validate_hypothesis,
)
from stableheat.errors import HypothesisError
from stableheat.noise import SpaceTimeDomain

# Zero is drawn often: it selects the families that vanish at zero state
# and the degenerate slopes.
FINITE = st.one_of(st.just(0.0), st.floats(-5.0, 5.0))
POSITIVE = st.floats(0.1, 5.0)
LENGTHS = st.floats(0.5, 3.0)

# Constructor parameters by name.  ``length`` is the domain length (the
# config default), because ``sine_modulated`` declares monotonicity for
# x in [0, length] only; ``values`` matches ``xs`` and ``base`` is a
# nested coefficient.
PARAMETERS = {
    "value": FINITE,
    "a": FINITE,
    "b": FINITE,
    "slope": FINITE,
    "cap": POSITIVE,
    "amplitude": FINITE,
    "mode": st.integers(1, 4),
    "u_slope": FINITE,
    "delta": FINITE,
    "center": FINITE,
    "width": POSITIVE,
    "xs": st.lists(FINITE, min_size=2, max_size=6),
}
OVERRIDES = st.fixed_dictionaries(
    {},
    optional={
        "lipschitz_bound": st.floats(0.0, 10.0),
        "growth_bound": st.floats(0.0, 10.0),
        "monotone_in_u": st.booleans(),
    },
)

FAMILY_SETTINGS = settings(max_examples=30, deadline=None)


def draw_family(data, table, family, length_L, *, overrides=False, depth=0):
    """A spec of ``family`` with drawn parameters (and, if asked, drawn
    overrides of the declared coefficient metadata at every level)."""
    kwargs = {}
    for name in inspect.signature(table[family].make).parameters:
        if name == "length":
            kwargs[name] = length_L
        elif name == "values":
            n = len(kwargs["xs"])
            kwargs[name] = data.draw(st.lists(FINITE, min_size=n, max_size=n))
        elif name == "base":
            # at most two levels of shifted, so a nested shifted occurs
            bases = sorted(f for f in COEFFICIENT_FAMILIES if depth < 1 or f != "shifted")
            kwargs[name] = draw_family(
                data,
                COEFFICIENT_FAMILIES,
                data.draw(st.sampled_from(bases)),
                length_L,
                overrides=overrides,
                depth=depth + 1,
            )
        else:
            kwargs[name] = data.draw(PARAMETERS[name], label=f"{family}.{name}")
    spec = table[family].make(**kwargs)
    return replace(spec, **data.draw(OVERRIDES)) if overrides else spec


def parse(length_L, drift=None, initial=None) -> RunConfig:
    """Run the config parser on a config file holding the given entries."""
    raw = {
        "version": 1,
        "master_seed": 1,
        "stable": {"alpha": 1.5, "c_plus": 0.5, "c_minus": 0.5},
        "truncation": {"big_cutoff_K": 1.0, "small_cutoff_eps": 0.05},
        "domain": {"horizon_T": 1.0, "length_L": length_L},
        "grid": {"n_t": 4, "n_x": 4},
        "coefficients": {
            "drift": drift or {"family": "zero"},
            "noise_coef": {"family": "zero"},
        },
        "initial": initial or {"family": "zero"},
    }
    return RunConfig.parse(json.loads(json.dumps(raw)))


@pytest.mark.parametrize("family", sorted(COEFFICIENT_FAMILIES))
@FAMILY_SETTINGS
@given(data=st.data(), length_L=LENGTHS)
def test_coefficient_canonical_round_trips_through_parser(family, data, length_L):
    spec = draw_family(data, COEFFICIENT_FAMILIES, family, length_L, overrides=True)
    assert parse(length_L, drift=spec.canonical()).problem.drift == spec


@pytest.mark.parametrize("family", sorted(INITIAL_FAMILIES))
@FAMILY_SETTINGS
@given(data=st.data(), length_L=LENGTHS)
def test_initial_canonical_round_trips_through_parser(family, data, length_L):
    ic = draw_family(data, INITIAL_FAMILIES, family, length_L)
    assert parse(length_L, initial=ic.canonical()).problem.init == ic


@pytest.mark.parametrize("family", sorted(COEFFICIENT_FAMILIES))
@FAMILY_SETTINGS
@given(data=st.data(), length_L=LENGTHS)
def test_vanishing_at_zero_state_holds_pointwise(family, data, length_L):
    spec = draw_family(data, COEFFICIENT_FAMILIES, family, length_L)
    if spec.vanishes_at_zero_state():
        rng = np.random.default_rng(0)
        t = rng.uniform(0.0, 1.0, 64)
        x = rng.uniform(0.0, length_L, 64)
        assert np.all(spec.evaluate(t, x, 0.0) == 0.0)


@pytest.mark.parametrize("family", sorted(COEFFICIENT_FAMILIES))
@FAMILY_SETTINGS
@given(data=st.data(), length_L=LENGTHS)
def test_declared_bounds_pass_the_audit(family, data, length_L):
    spec = draw_family(data, COEFFICIENT_FAMILIES, family, length_L)
    validate_hypothesis(spec, SpaceTimeDomain(1.0, length_L), spec.monotone_in_u)


@pytest.mark.parametrize("family", sorted(COEFFICIENT_FAMILIES))
@FAMILY_SETTINGS
@given(data=st.data(), length_L=LENGTHS, d=st.floats(1e-6, 10.0))
def test_ordering_gate_sees_a_constant_shift(family, data, length_L, d):
    g = draw_family(data, COEFFICIENT_FAMILIES, family, length_L)
    dom = SpaceTimeDomain(1.0, length_L)
    dominates(shifted(g, -d), g, dom)
    with pytest.raises(HypothesisError) as err:
        dominates(shifted(g, d), g, dom)
    assert 0.0 <= err.value.witness[1] <= length_L


# Affine coefficients, shifted or not, and shifted clipped-linear ones:
# piecewise linear in u, so on a u-grid holding the audit range's ends and
# every kink the largest excess of f over g is a grid value.
ORDERED_PAIR_SIDE = st.one_of(
    st.builds(affine, FINITE, FINITE),
    st.builds(shifted, st.builds(affine, FINITE, FINITE), FINITE),
    st.builds(shifted, st.builds(clipped_linear, FINITE, POSITIVE), FINITE),
)


@settings(max_examples=200, deadline=None)
@given(
    f=ORDERED_PAIR_SIDE,
    g=ORDERED_PAIR_SIDE,
    horizon_T=POSITIVE,
    length_L=LENGTHS,
)
def test_ordering_gate_matches_dense_evaluation(f, g, horizon_T, length_L):
    t_range, x_range = (0.0, horizon_T), (0.0, length_L)
    dom = SpaceTimeDomain(horizon_T, length_L)
    u = np.union1d(
        np.linspace(*_AUDIT_U_RANGE, 401),
        np.concatenate([_u_extremes(f), _u_extremes(g)]),
    )
    t, x, u = np.meshgrid(
        np.linspace(*t_range, 5), np.linspace(*x_range, 9), u, indexing="ij"
    )
    fv = np.broadcast_to(f.evaluate(t, x, u), u.shape)
    gv = np.broadcast_to(g.evaluate(t, x, u), u.shape)
    violated = fv > gv + 1e-12 * (1.0 + np.abs(gv))  # the gate's slack
    # no violation, or one on a set of non-negligible measure, which the
    # gate's 10,000 random points cannot all miss
    assume(not violated.any() or violated.mean() >= 0.01)
    if violated.any():
        with pytest.raises(HypothesisError) as err:
            dominates(f, g, dom)
        t_w, x_w, u_w = err.value.witness
        assert 0.0 <= t_w <= horizon_T and 0.0 <= x_w <= length_L
        assert f.evaluate(t_w, x_w, u_w) > g.evaluate(t_w, x_w, u_w)
    else:
        dominates(f, g, dom)


def test_ordering_gate_samples_the_kinks_of_a_shifted_base():
    # f > g exactly on 0 < u < 2e-4, a set no random audit point hits;
    # the unshifted pair is caught at the kink u = 1e-4 of clipped_linear,
    # and shifting both by zero must not hide it
    f, g = clipped_linear(1.0, 1e-4), clipped_linear(0.5, 1e-4)
    for pair in ((f, g), (shifted(f, 0.0), shifted(g, 0.0))):
        with pytest.raises(HypothesisError):
            dominates(*pair, SpaceTimeDomain(1.0, 1.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_subnormal_clip_slope_has_no_kink_at_infinity():
    # cap/|slope| overflows to inf; an edge at +-inf would make the audit
    # evaluate 0*inf in the zero-slope affine side
    g = shifted(clipped_linear(5e-324, 1.0), 0.0)
    assert _u_extremes(g).tolist() == [*_AUDIT_U_RANGE, 0.0]
    dominates(affine(0.0, 0.0), g, SpaceTimeDomain(1.0, 1.0))


def same_bits(got, want) -> bool:
    want = np.asarray(want, float)
    return np.broadcast_to(np.asarray(got, float), want.shape).tobytes() == want.tobytes()


@pytest.mark.parametrize("family", sorted(COEFFICIENT_FAMILIES))
@FAMILY_SETTINGS
@given(data=st.data(), length_L=LENGTHS, n=st.integers(1, 6))
def test_bound_formula_equals_evaluate_bitwise(family, data, length_L, n):
    # the mild solver reads the bound formula, everything else evaluate:
    # on arrays, 0-d arrays, numpy scalars, Python floats and the solver's
    # mixes of them, the two give the same bits (zero and constant give a
    # scalar, which only broadcasting tells apart)
    spec = draw_family(data, COEFFICIENT_FAMILIES, family, length_L)
    formula = spec.bind()

    def points(lo, hi):
        return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    t, x, u = points(0.0, 1.0), points(0.0, length_L), points(-60.0, 60.0)
    assert same_bits(formula(t, x, u), spec.evaluate(t, x, u))
    assert same_bits(formula(float(t[0]), x, u), spec.evaluate(float(t[0]), x, u))
    for i in range(n):
        want = spec.evaluate(t[i], x[i], u[i])
        assert isinstance(want, float)
        for args in (
            (float(t[i]), float(x[i]), float(u[i])),
            (np.asarray(t[i]), np.asarray(x[i]), np.asarray(u[i])),
            (t[i], x[i], float(u[i])),  # a jump's kick
        ):
            assert same_bits(formula(*args), want)


@pytest.mark.parametrize(
    "spec",
    [
        shifted(shifted(clipped_linear(0.4, 2.0), 0.1), -0.3),
        shifted(shifted(COEFFICIENT_FAMILIES["zero"].make(), 0.0), 0.5),
        shifted(COEFFICIENT_FAMILIES["constant"].make(-0.0), 0.0),
    ],
    ids=["shifted-shifted-clipped", "shifted-shifted-zero", "shifted-constant"],
)
def test_nested_bound_formula_equals_evaluate_bitwise(spec):
    rng = np.random.default_rng(0)
    t, x, u = rng.uniform(0, 1, 32), rng.uniform(0, 1, 32), rng.uniform(-60, 60, 32)
    u[:2] = 0.0, -0.0
    assert same_bits(spec.bind()(t, x, u), spec.evaluate(t, x, u))
    for i in range(32):
        assert same_bits(spec.bind()(float(t[i]), x[i], u[i]), spec.evaluate(t[i], x[i], u[i]))
