import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import integrate, levy_moment
from stableheat.errors import (
    ParameterError,
    UnobservableEventError,
)
from stableheat.noise import (
    NoiseRealization,
    SpaceTimeDomain,
    StableParams,
    TruncationSpec,
    compensator_drift,
    expected_jump_count,
    restrict,
    sample_noise,
    stopping_time,
    survival_probability,
)

ALPHA = 1.5
SYM = StableParams(ALPHA, 0.5, 0.5)
POS = StableParams(ALPHA, 1.0, 0.0)
DOM = SpaceTimeDomain(1.0, 1.0)


def density_integral(fn, eps, big, c_plus, c_minus, n=2_000_000):
    """Independent oracle: log-spaced midpoint quadrature of fn against
    the jump-size density over eps < |z| <= big."""
    edges = np.geomspace(eps, big, n + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    wid = np.diff(edges)
    dens = mid ** (-ALPHA - 1.0)
    pos = np.sum(fn(mid) * dens * wid) * c_plus
    neg = np.sum(fn(-mid) * dens * wid) * c_minus
    return pos + neg


class TestClosedForms:
    def test_expected_jump_count_vs_quadrature(self):
        trunc = TruncationSpec(1.0, 0.01)
        lam = expected_jump_count(SYM, trunc, DOM)
        assert lam == pytest.approx(666.0, abs=1e-9)
        oracle = density_integral(lambda z: np.ones_like(z), 0.01, 1.0, 0.5, 0.5)
        assert lam == pytest.approx(oracle, rel=1e-6)

    def test_degenerate_window_vanishes(self):
        lam = expected_jump_count(SYM, TruncationSpec(1.0, 1.0 - 1e-9), DOM)
        assert lam < 1e-5
        r = sample_noise(SYM, TruncationSpec(1.0, 1.0 - 1e-9), DOM, 3)
        assert r.jump_count == 0

    def test_compensator_symmetric_is_zero(self):
        assert compensator_drift(SYM, TruncationSpec(1.0, 0.01)) == 0.0

    def test_compensator_one_sided_vs_quadrature(self):
        mu = compensator_drift(POS, TruncationSpec(1.0, 0.01))
        assert mu == pytest.approx(18.0, abs=1e-12)
        oracle = density_integral(lambda z: z, 0.01, 1.0, 1.0, 0.0)
        assert mu == pytest.approx(oracle, rel=1e-6)

    def test_compensator_degenerate_window(self):
        assert compensator_drift(POS, TruncationSpec(1.0, 1.0 - 1e-12)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_levy_moment_values(self):
        assert levy_moment(SYM, 1.0, 2.0) == pytest.approx(2.0, abs=1e-12)
        assert levy_moment(SYM, 2.0, 2.0) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
        oracle = density_integral(lambda z: np.abs(z) ** 2, 1e-9, 2.0, 0.5, 0.5)
        assert levy_moment(SYM, 2.0, 2.0) == pytest.approx(oracle, rel=1e-4)

    def test_levy_moment_divergence(self):
        with pytest.raises(ParameterError, match="diverges"):
            levy_moment(SYM, 1.0, ALPHA)
        with pytest.raises(ParameterError, match="diverges"):
            levy_moment(SYM, 1.0, 1.2)

    def test_survival_probability_values(self):
        assert survival_probability(SYM, 1.0, DOM) == pytest.approx(
            math.exp(-2.0 / 3.0), abs=1e-15
        )
        assert survival_probability(SYM, 1e12, DOM) == pytest.approx(1.0, abs=1e-15)
        tiny_T = SpaceTimeDomain(1e-300, 1.0)
        assert survival_probability(SYM, 1.0, tiny_T) == 1.0


class TestSampling:
    def test_determinism(self):
        trunc = TruncationSpec(1.0, 0.05)
        a = sample_noise(SYM, trunc, DOM, 42)
        b = sample_noise(SYM, trunc, DOM, 42)
        assert np.array_equal(a.taus, b.taus)
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.zs, b.zs)
        c = sample_noise(SYM, trunc, DOM, 43)
        assert not np.array_equal(a.zs, c.zs)

    def test_supports_and_order(self):
        trunc = TruncationSpec(0.8, 0.05)
        r = sample_noise(SYM, trunc, DOM, 11)
        mags = np.abs(r.zs)
        assert np.all(mags > trunc.small_cutoff_eps)
        assert np.all(mags <= trunc.big_cutoff_K)
        assert np.all(np.diff(r.taus) >= 0.0)
        assert np.all((r.taus >= 0) & (r.taus <= DOM.horizon_T))
        assert np.all((r.xs >= 0) & (r.xs <= DOM.length_L))
        assert r.compensator_mu == compensator_drift(SYM, trunc)

    def test_one_sided_signs(self):
        r = sample_noise(POS, TruncationSpec(1.0, 0.05), DOM, 5)
        assert np.all(r.zs > 0)

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            StableParams(2.5, 0.5, 0.5)
        with pytest.raises(ParameterError):
            StableParams(1.5, 0.7, 0.7)
        with pytest.raises(ParameterError):
            TruncationSpec(0.5, 0.5)
        with pytest.raises(ParameterError):
            SpaceTimeDomain(0.0, 1.0)
        with pytest.raises(ParameterError):
            sample_noise(SYM, TruncationSpec(1.0, 0.05), DOM, -1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_domain_refused(self, bad):
        # a NaN fails no "<= 0" test, and an infinite domain has no grid
        with pytest.raises(ParameterError, match="finite"):
            SpaceTimeDomain(bad, 1.0)
        with pytest.raises(ParameterError, match="finite"):
            SpaceTimeDomain(1.0, bad)

    @pytest.mark.parametrize(
        "weights", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)]
    )
    def test_nan_tail_weight_refused(self, weights):
        with pytest.raises(ParameterError):
            StableParams(1.5, *weights)

    def test_jump_count_law(self):
        # mean and variance of the Poisson count, 3 standard errors
        trunc = TruncationSpec(1.0, 0.1)
        lam = expected_jump_count(SYM, trunc, DOM)
        n = 10_000
        counts = np.array(
            [sample_noise(SYM, trunc, DOM, s).jump_count for s in range(n)], float
        )
        se_mean = math.sqrt(lam / n)
        assert abs(counts.mean() - lam) < 3.0 * se_mean
        var = counts.var(ddof=1)
        m4 = np.mean((counts - counts.mean()) ** 4)
        se_var = math.sqrt(max(m4 - var**2, 0.0) / n)
        assert abs(var - lam) < 3.0 * se_var

    @pytest.mark.parametrize("p", [2.0, 1.8])
    def test_moment_law(self, p):
        trunc = TruncationSpec(1.0, 0.1)
        n = 10_000
        area = DOM.horizon_T * DOM.length_L
        target = (
            trunc.big_cutoff_K ** (p - ALPHA) - trunc.small_cutoff_eps ** (p - ALPHA)
        ) / (p - ALPHA)
        sums = np.array(
            [
                np.sum(np.abs(sample_noise(SYM, trunc, DOM, s).zs) ** p) / area
                for s in range(n)
            ]
        )
        se = sums.std(ddof=1) / math.sqrt(n)
        assert abs(sums.mean() - target) < 3.0 * se


class TestStoppingAndRestrict:
    def _manual(self, taus, zs, trunc=TruncationSpec(2.0, 0.1), params=SYM):
        taus = np.asarray(taus, float)
        zs = np.asarray(zs, float)
        return NoiseRealization(
            params=params,
            truncation=trunc,
            domain=DOM,
            taus=taus,
            xs=np.full_like(taus, 0.5),
            zs=zs,
            seed=0,
        )

    def test_stopping_time_explicit(self):
        r = self._manual([0.3, 0.7], [0.5, 1.4])
        assert stopping_time(r, 1.0) == 0.7

    def test_stopping_time_no_excess(self):
        r = self._manual([0.3, 0.7], [0.5, 0.9])
        assert stopping_time(r, 1.0) == math.inf

    def test_stopping_time_observability(self):
        r = self._manual([0.3], [0.5])
        with pytest.raises(UnobservableEventError):
            stopping_time(r, 3.0)  # above the sampled cutoff
        with pytest.raises(UnobservableEventError):
            stopping_time(r, 0.05)  # below the small cutoff

    def test_stopping_matches_survival_law(self):
        # Monte Carlo frequency vs the closed-form law, 2000 paths
        trunc = TruncationSpec(1000.0, 1.0)
        n = 2000
        hits = sum(
            stopping_time(sample_noise(SYM, trunc, DOM, s), 1.0) > DOM.horizon_T
            for s in range(n)
        )
        target = survival_probability(SYM, 1.0, DOM)
        se = math.sqrt(target * (1 - target) / n)
        assert abs(hits / n - target) < 3.0 * se

    def test_restrict_identity(self):
        r = sample_noise(SYM, TruncationSpec(1.0, 0.05), DOM, 9)
        same = restrict(r, 1.0)
        assert np.array_equal(same.taus, r.taus)
        assert np.array_equal(same.zs, r.zs)
        assert same.compensator_mu == r.compensator_mu

    def test_restrict_coupling_prefix(self):
        r = sample_noise(SYM, TruncationSpec(1.0, 0.01), DOM, 1234)
        small = restrict(r, 0.5)
        r_stop = stopping_time(r, 0.5)
        keep = r.taus < r_stop
        assert np.array_equal(small.taus[: keep.sum()], r.taus[keep])
        assert np.array_equal(small.zs[: keep.sum()], r.zs[keep])

    def test_restrict_compensator_value(self):
        r = sample_noise(POS, TruncationSpec(1.0, 0.01), DOM, 5)
        assert r.compensator_mu == pytest.approx(18.0, abs=1e-12)
        half = restrict(r, 0.5)
        assert half.compensator_mu == pytest.approx(2.0 * (10.0 - 0.5**-0.5), abs=1e-12)
        oracle = density_integral(lambda z: z, 0.01, 0.5, 1.0, 0.0)
        assert half.compensator_mu == pytest.approx(oracle, rel=1e-6)

    def test_restrict_out_of_range(self):
        r = sample_noise(SYM, TruncationSpec(1.0, 0.05), DOM, 9)
        with pytest.raises(ParameterError):
            restrict(r, 0.01)
        with pytest.raises(ParameterError):
            restrict(r, 2.0)


class TestIntegrate:
    def test_zero_integrand(self):
        r = sample_noise(SYM, TruncationSpec(1.0, 0.05), DOM, 21)
        assert integrate(r, lambda t, x: np.zeros(np.broadcast_shapes(np.shape(t), np.shape(x))), 1.0) == 0.0

    def test_constant_integrand_symmetric(self):
        r = sample_noise(SYM, TruncationSpec(1.0, 0.05), DOM, 21)
        val = integrate(r, lambda t, x: np.ones(np.broadcast_shapes(np.shape(t), np.shape(x))), 1.0)
        assert val == pytest.approx(float(np.sum(r.zs)), abs=1e-12)

    def test_rectangle_indicator_vs_enumeration(self):
        # rectangle aligned with quadrature cells, one-sided noise so the
        # compensator part is exercised
        r = sample_noise(POS, TruncationSpec(1.0, 0.05), DOM, 77)
        t_hi, x_lo, x_hi = 0.5, 0.25, 0.75

        def g(t, x):
            tt, xx = np.broadcast_arrays(np.asarray(t), np.asarray(x))
            return ((tt <= t_hi) & (xx >= x_lo) & (xx <= x_hi)).astype(float)

        val = integrate(r, g, 1.0, n_time_cells=256, n_space_cells=256)
        inside = (r.taus <= t_hi) & (r.xs >= x_lo) & (r.xs <= x_hi)
        oracle = float(np.sum(r.zs[inside])) - r.compensator_mu * t_hi * (x_hi - x_lo)
        assert val == pytest.approx(oracle, abs=1e-9)

    def test_linearity(self):
        r = sample_noise(POS, TruncationSpec(1.0, 0.05), DOM, 31)

        def g(t, x):
            return np.sin(np.pi * np.asarray(x)) * np.exp(-np.asarray(t))

        def h(t, x):
            return np.asarray(t) + np.asarray(x) ** 2

        a, b = 2.5, -1.25
        lhs = integrate(r, lambda t, x: a * g(t, x) + b * h(t, x), 0.8)
        rhs = a * integrate(r, g, 0.8) + b * integrate(r, h, 0.8)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)

    def test_window_additivity_on_aligned_edges(self):
        r = sample_noise(POS, TruncationSpec(1.0, 0.05), DOM, 31)

        def g(t, x):
            return np.cos(np.asarray(x)) + 0.0 * np.asarray(t)

        whole = integrate(r, g, 1.0, n_time_cells=8)
        # 0.5 is a cell edge for 8 cells on [0, 1]
        first = integrate(r, g, 0.5, n_time_cells=8)
        jump_top = np.sum(
            g(r.taus, r.xs) * r.zs * ((r.taus > 0.5) & (r.taus <= 1.0))
        )
        # drift over the second window, same midpoint cells as integrate
        x_mid = (np.arange(256) + 0.5) / 256
        drift_top = r.compensator_mu * 0.5 * float(np.cos(x_mid).mean())
        assert whole == pytest.approx(first + float(jump_top) - drift_top, rel=1e-10)


class TestGaussianCorrection:
    def test_disabled_gives_zeros(self):
        r = sample_noise(SYM, TruncationSpec(1.0, 0.05, False), DOM, 2)
        assert np.all(r.gaussian_increments(8, 8) == 0.0)

    def test_enabled_deterministic_and_scaled(self):
        trunc = TruncationSpec(1.0, 0.05, True)
        r = sample_noise(SYM, trunc, DOM, 2)
        a = r.gaussian_increments(64, 64)
        b = r.gaussian_increments(64, 64)
        assert np.array_equal(a, b)
        var_density = trunc.small_jump_variance_density(SYM)
        cell = (1.0 / 64) ** 2
        sample_var = a.var()
        assert sample_var == pytest.approx(var_density * cell, rel=0.15)

    def test_integrate_includes_field(self):
        trunc = TruncationSpec(1.0, 0.05, True)
        r = sample_noise(SYM, trunc, DOM, 2)

        def g(t, x):
            return np.ones(np.broadcast_shapes(np.shape(t), np.shape(x)))

        with_field = integrate(r, g, 1.0, n_time_cells=32, n_space_cells=32)
        plain = float(np.sum(r.zs))
        dW = r.gaussian_increments(32, 32)
        assert with_field == pytest.approx(plain + float(dW.sum()), abs=1e-12)


class TestConstructionInvariants:
    """The solvers rely on sorted jump times, magnitudes in (eps, K] and
    points inside [0, T] x [0, L]; construction refuses anything else."""

    @staticmethod
    def _make(taus, xs, zs, trunc=TruncationSpec(1.0, 0.05)):
        return NoiseRealization(
            params=SYM,
            truncation=trunc,
            domain=DOM,
            taus=np.asarray(taus, float),
            xs=np.asarray(xs, float),
            zs=np.asarray(zs, float),
            seed=0,
        )

    def test_valid_edges_accepted(self):
        r = self._make([0.0, 0.5, 0.5, 1.0], [0.0, 0.3, 0.6, 1.0], [1.0, -1.0, 0.06, -0.06])
        assert r.jump_count == 4

    @pytest.mark.parametrize(
        "taus, xs, zs",
        [
            ([0.7, 0.2], [0.5, 3.0], [50.0, 0.5]),  # all three at once
            ([0.7, 0.2], [0.5, 0.5], [0.5, 0.5]),  # unsorted times
            ([0.2, 0.7], [0.5, 0.5], [0.5, 50.0]),  # |z| above K
            ([0.2, 0.7], [0.5, 0.5], [0.5, -0.05]),  # |z| at eps, outside (eps, K]
            ([0.2, 0.7], [0.5, 3.0], [0.5, 0.5]),  # x beyond L
            ([-0.1, 0.7], [0.5, 0.5], [0.5, 0.5]),  # tau before 0
            ([0.2, 1.5], [0.5, 0.5], [0.5, 0.5]),  # tau beyond T
            ([0.2, np.nan], [0.5, 0.5], [0.5, 0.5]),  # non-finite time
            ([0.2, 0.7], [0.5, 0.5], [0.5]),  # ragged arrays
        ],
        ids=[
            "all-three", "unsorted", "z-above-K", "z-at-eps", "x-beyond-L",
            "tau-negative", "tau-beyond-T", "tau-nan", "ragged",
        ],
    )
    def test_violations_rejected(self, taus, xs, zs):
        with pytest.raises(ParameterError):
            self._make(taus, xs, zs)

    @pytest.mark.parametrize("where", [0, 2, 4])
    @pytest.mark.parametrize(
        "array, bad",
        [("taus", v) for v in (np.nan, np.inf, -np.inf, -0.1, 1.5)]
        + [("xs", v) for v in (np.nan, np.inf, -np.inf, -0.1, 1.5)]
        + [("zs", v) for v in (np.nan, np.inf, 0.0, 0.05, -1.5)],
    )
    def test_each_array_checked_at_every_position(self, array, bad, where):
        # first, middle and last jump of five, and the only jump of one
        data = {
            "taus": np.array([0.1, 0.3, 0.5, 0.7, 0.9]),
            "xs": np.array([0.0, 0.2, 0.4, 0.6, 1.0]),
            "zs": np.array([0.5, -0.5, 1.0, -1.0, 0.06]),
        }
        data[array][where] = bad
        with pytest.raises(ParameterError):
            self._make(**data)
        with pytest.raises(ParameterError):
            self._make(**{name: values[where : where + 1] for name, values in data.items()})

    def test_unsorted_middle_and_empty(self):
        with pytest.raises(ParameterError):
            self._make([0.1, 0.5, 0.3, 0.7], [0.5] * 4, [0.5] * 4)
        assert self._make([], [], []).jump_count == 0

    def test_load_text_rejects_edited_file(self, tmp_path):
        path = tmp_path / "noise.txt"
        sample_noise(SYM, TruncationSpec(1.0, 0.05), DOM, 4).save_text(path)
        lines = path.read_text().splitlines()
        first = lines.index("tau,x,z") + 1
        lines[first], lines[first + 1] = lines[first + 1], lines[first]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParameterError):
            NoiseRealization.load_text(path)

    @pytest.mark.parametrize("key, value", [("compensator_mu", "0"), ("n_jumps", "5")])
    def test_load_text_refuses_a_header_that_disagrees(self, tmp_path, key, value):
        # comparison_demo's one-sided law: mu = 6.944, 46 jumps at seed 3
        r = sample_noise(POS, TruncationSpec(1.0, 0.05), DOM, 3)
        assert (r.compensator_mu, r.jump_count) == (pytest.approx(6.944, abs=1e-3), 46)
        path = tmp_path / "noise.txt"
        r.save_text(path)
        lines = path.read_text().splitlines()
        (at,) = [i for i, line in enumerate(lines) if line.startswith(f"# {key}=")]
        lines[at] = f"# {key}={value}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParameterError, match=key):
            NoiseRealization.load_text(path)

    @pytest.mark.parametrize("key", ["alpha", "seed", "compensator_mu", "n_jumps"])
    def test_load_text_names_a_missing_header_line(self, tmp_path, key):
        path = tmp_path / "noise.txt"
        sample_noise(POS, TruncationSpec(1.0, 0.05), DOM, 3).save_text(path)
        lines = [
            line for line in path.read_text().splitlines()
            if not line.startswith(f"# {key}=")
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParameterError, match=f"lacks a {key}= line"):
            NoiseRealization.load_text(path)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        r = sample_noise(POS, TruncationSpec(1.0, 0.05, True), DOM, 99)
        path = tmp_path / "noise.txt"
        r.save_text(path)
        back = NoiseRealization.load_text(path)
        assert back.params == r.params
        assert back.truncation == r.truncation
        assert back.domain == r.domain
        assert back.seed == r.seed
        assert back.compensator_mu == r.compensator_mu
        assert np.array_equal(back.taus, r.taus)
        assert np.array_equal(back.xs, r.xs)
        assert np.array_equal(back.zs, r.zs)

    def test_byte_identical_rewrites(self, tmp_path):
        r = sample_noise(SYM, TruncationSpec(1.0, 0.05), DOM, 4)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        r.save_text(p1)
        sample_noise(SYM, TruncationSpec(1.0, 0.05), DOM, 4).save_text(p2)
        assert p1.read_bytes() == p2.read_bytes()


# -- properties over drawn realizations ------------------------------------

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def realizations(draw):
    """A valid realization with drawn parameters and drawn jump arrays
    (arbitrary floats, so the text round trip sees every digit)."""
    c_plus = draw(st.floats(0.0, 1.0))
    params = StableParams(draw(st.floats(1.01, 1.99)), c_plus, 1.0 - c_plus)
    eps = draw(st.floats(1e-3, 0.5))
    trunc = TruncationSpec(eps + draw(st.floats(1e-6, 10.0)), eps, draw(st.booleans()))
    dom = SpaceTimeDomain(draw(st.floats(0.1, 5.0)), draw(st.floats(0.1, 5.0)))
    n = draw(st.integers(0, 20))

    def column(elements):
        return np.asarray(draw(st.lists(elements, min_size=n, max_size=n)), float)

    mags = column(st.floats(eps, trunc.big_cutoff_K, exclude_min=True))
    signs = np.where(column(st.booleans()) > 0.0, 1.0, -1.0)
    return NoiseRealization(
        params=params,
        truncation=trunc,
        domain=dom,
        taus=np.sort(column(st.floats(0.0, dom.horizon_T))),
        xs=column(st.floats(0.0, dom.length_L)),
        zs=signs * mags,
        seed=draw(st.integers(0, 2**63 - 1)),
    )


def assert_same_arrays(a, b):
    for name in ("taus", "xs", "zs"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


@PROPERTY_SETTINGS
@given(r=realizations())
def test_save_load_round_trip_is_bitwise(tmp_path_factory, r):
    path = tmp_path_factory.mktemp("noise") / "noise.txt"
    r.save_text(path)
    back = NoiseRealization.load_text(path)
    assert_same_arrays(back, r)
    assert (back.params, back.truncation, back.domain) == (r.params, r.truncation, r.domain)
    assert (back.seed, back.compensator_mu) == (r.seed, r.compensator_mu)
    assert back.compensator_mu == compensator_drift(r.params, r.truncation)


@PROPERTY_SETTINGS
@given(data=st.data(), r=realizations())
def test_restrict_keeps_small_jumps_in_order_and_composes(data, r):
    eps, big = r.truncation.small_cutoff_eps, r.truncation.big_cutoff_K

    def cutoff(upper, label):
        # a cutoff equal to a jump magnitude tests the closed end of |z| <= K
        on_jump = [m for m in np.abs(r.zs).tolist() if m <= upper]
        drawn = st.floats(eps, upper, exclude_min=True)
        if on_jump:
            drawn = st.one_of(drawn, st.sampled_from(on_jump))
        return data.draw(drawn, label=label)

    k1 = cutoff(big, "K1")
    k2 = cutoff(k1, "K2")
    once = restrict(r, k2)
    keep = np.abs(r.zs) <= k2
    assert once.taus.tobytes() == r.taus[keep].tobytes()
    assert once.xs.tobytes() == r.xs[keep].tobytes()
    assert once.zs.tobytes() == r.zs[keep].tobytes()
    assert once.seed == r.seed and once.truncation.big_cutoff_K == k2
    twice = restrict(restrict(r, k1), k2)
    assert_same_arrays(twice, once)
    assert twice.truncation == once.truncation
    assert twice.compensator_mu == once.compensator_mu
