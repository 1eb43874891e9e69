"""Property tests over every registered coefficient and initial-condition
family: a new entry in ``COEFFICIENT_FAMILIES`` or ``INITIAL_FAMILIES`` is
covered here without editing this file, as long as its constructor's
parameter names appear in ``PARAMETERS`` below."""

import inspect
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableheat.cli import RunConfig
from stableheat.coefficients import (
    COEFFICIENT_FAMILIES,
    INITIAL_FAMILIES,
    dominates,
    shifted,
    validate_hypothesis,
)
from stableheat.errors import HypothesisError

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
    report = validate_hypothesis(
        spec, spec.monotone_in_u, n_samples=2000, x_range=(0.0, length_L)
    )
    assert report.passed


@pytest.mark.parametrize("family", sorted(COEFFICIENT_FAMILIES))
@FAMILY_SETTINGS
@given(data=st.data(), length_L=LENGTHS, d=st.floats(1e-6, 10.0))
def test_ordering_gate_sees_a_constant_shift(family, data, length_L, d):
    g = draw_family(data, COEFFICIENT_FAMILIES, family, length_L)
    x_range = (0.0, length_L)
    assert dominates(shifted(g, -d), g, x_range=x_range).passed
    with pytest.raises(HypothesisError) as err:
        dominates(shifted(g, d), g, x_range=x_range)
    assert 0.0 <= err.value.witness[1] <= length_L
