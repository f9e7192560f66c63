import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_genlaguerre

from trapmotion import (
    DegenerateSpec,
    coherent_amplitude,
    degenerate_probability,
    multi_axis_probability,
    transition_amplitude,
    transition_probability,
    transition_row,
    transition_table,
)
from trapmotion.errors import NumericalError


def _mp_probability(m, n, gamma):
    # P_mn at 50 significant digits, independently of the package
    with mpmath.workdps(50):
        mu, nu = min(m, n), max(m, n)
        g = mpmath.mpf(gamma)
        lag = mpmath.laguerre(mu, nu - mu, g)
        return mpmath.factorial(mu) / mpmath.factorial(nu) * g ** (nu - mu) * mpmath.exp(-g) * lag ** 2


# --- associated Laguerre polynomials, read back from the amplitudes -------------------

def _laguerre(n, alpha, x):
    # A_{n,n+alpha}(u) = sqrt(n!/(n+alpha)!) (-u*)^alpha L_n^(alpha)(|u|^2) e^{-|u|^2/2};
    # u = -sqrt(x) makes every factor but L real and positive
    amp = transition_amplitude(n, n + alpha, complex(-math.sqrt(x)))
    assert amp.imag == 0.0
    scale = math.exp(0.5 * (math.lgamma(n + 1) - math.lgamma(n + alpha + 1)
                            + alpha * math.log(x) - x))
    return amp.real / scale


def test_laguerre_degree_zero_is_one():
    for alpha in (0, 1, 7):
        assert _laguerre(0, alpha, 3.7) == pytest.approx(1.0, rel=1e-14)


def test_laguerre_degree_one_closed_form():
    # L_1^{(alpha)}(x) = 1 + alpha - x; x = 4 and 2.25 are exact squares
    assert transition_amplitude(1, 4, -2.0) == 0.0
    assert _laguerre(1, 3, 2.25) == pytest.approx(1.75, rel=1e-14)


def test_laguerre_degree_two_explicit_series():
    # L_2(x) = 1 - 2x + x^2/2 evaluated independently of the recurrence
    x = 1.0
    series = 1.0 - 2.0 * x + x ** 2 / 2.0
    assert _laguerre(2, 0, x) == pytest.approx(series, rel=1e-14)
    assert series == -0.5


def test_laguerre_input_validation():
    with pytest.raises(ValueError):
        transition_amplitude(-1, 0, 1.0)
    with pytest.raises(ValueError):
        transition_amplitude(1, -2, 1.0)
    with pytest.raises(ValueError):
        transition_amplitude(1.5, 0, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 40),
    alpha=st.integers(0, 12),
    x=st.floats(1e-6, 60.0),
)
def test_laguerre_matches_scipy(n, alpha, x):
    ours = _laguerre(n, alpha, x)
    ref = float(eval_genlaguerre(n, alpha, x))
    assert ours == pytest.approx(ref, rel=1e-9, abs=1e-9 * (1 + abs(ref)))


# --- transition probabilities --------------------------------------------------------

def test_zero_gamma_is_identity():
    for m in range(4):
        for n in range(4):
            assert transition_probability(m, n, 0.0) == (1.0 if m == n else 0.0)


@pytest.mark.parametrize("gamma", [0.1, 1.0, 5.0, 20.0])
def test_ground_row_is_poisson_bit_for_bit(gamma):
    for n in range(0, 40):
        want = math.exp(-gamma) * gamma ** n / math.factorial(n)
        assert transition_probability(0, n, gamma) == want


def test_first_level_diagonal_vanishes_at_unit_gamma():
    # e^{-1} (1 - 1)^2 through L_1^{(0)}
    assert transition_probability(1, 1, 1.0) == 0.0


def test_negative_gamma_rejected():
    with pytest.raises(ValueError):
        transition_probability(0, 0, -0.1)
    with pytest.raises(ValueError):
        transition_probability(-1, 0, 1.0)


def test_symmetry_is_exact():
    for gamma in (0.4, 3.0, 17.0):
        for m in range(0, 31, 5):
            for n in range(0, 31, 7):
                assert transition_probability(m, n, gamma) == \
                    transition_probability(n, m, gamma)


@settings(max_examples=50, deadline=None)
@given(
    m=st.integers(0, 25),
    n=st.integers(0, 25),
    gamma=st.floats(0.0, 30.0),
)
def test_probability_bounds(m, n, gamma):
    p = transition_probability(m, n, gamma)
    assert 0.0 <= p <= 1.0


@pytest.mark.parametrize("gamma", [0.1, 1.0, 5.0, 20.0])
@pytest.mark.parametrize("m", [0, 3, 10])
def test_row_completeness(m, gamma):
    top = int(gamma + m + 12 * math.sqrt(gamma + m + 1) + 60)
    total = math.fsum(transition_probability(m, n, gamma) for n in range(top))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_log_space_path_consistent_with_direct():
    # every probability is assembled in log space; compare against exact
    # rational arithmetic through the explicit Laguerre series
    from fractions import Fraction

    for m, n, gamma in [(3, 172, 2), (2, 180, 9), (175, 176, 9), (12, 20, 1)]:
        mu, d = min(m, n), abs(n - m)
        g = Fraction(gamma)
        lag = sum((-1) ** j * math.comb(mu + d, mu - j) * g ** j / math.factorial(j)
                  for j in range(mu + 1))
        exact = Fraction(math.factorial(mu), math.factorial(mu + d)) * g ** d * lag * lag
        want = float(exact) * math.exp(-gamma)
        assert transition_probability(m, n, float(gamma)) == pytest.approx(want, rel=1e-12)


# --- rows and tables ------------------------------------------------------------------

def test_transition_row_poisson_case():
    row = transition_row(0, 1.0, tail_epsilon=1e-6)
    poisson = [math.exp(-1.0) / math.factorial(n) for n in range(20)]
    assert np.allclose(row.probs[:20], poisson, rtol=0, atol=1e-15)
    assert math.fsum(row.probs[:20]) == pytest.approx(1.0, abs=1e-15)
    assert row.tail_bound < 1e-6


def test_transition_row_zero_gamma():
    row = transition_row(0, 0.0)
    assert row.probs[0] == 1.0
    assert np.all(row.probs[1:] == 0.0)


def test_transition_row_sums_with_tail():
    row = transition_row(3, 2.5, tail_epsilon=1e-8)
    assert math.fsum(row.probs) + row.tail_bound == pytest.approx(1.0, abs=1e-10)


def test_transition_row_validates_epsilon():
    with pytest.raises(ValueError):
        transition_row(0, 1.0, tail_epsilon=0.5)
    with pytest.raises(ValueError):
        transition_row(0, 1.0, tail_epsilon=0.0)


def test_transition_table_symmetric_and_bounded():
    table = transition_table(1.7, 12)
    assert np.array_equal(table.probs, table.probs.T)
    assert np.all(table.probs >= 0.0)
    assert np.all(table.probs <= 1.0)
    sums = table.probs.sum(axis=1) + table.tail_bounds
    assert np.allclose(sums, 1.0, atol=1e-10)


# --- coherent amplitudes ----------------------------------------------------------------

def test_vacuum_overlap_is_ground_state_survival():
    u = 0.3 + 0.4j
    amp = coherent_amplitude(0.0, 0.0, u, 0.0)
    assert abs(amp) ** 2 == pytest.approx(math.exp(-abs(u) ** 2), rel=1e-12)
    assert abs(amp) ** 2 == pytest.approx(transition_probability(0, 0, abs(u) ** 2), rel=1e-12)


def test_identical_coherent_states_overlap_fully_without_drive():
    for alpha in (0.5, 1.0 - 0.7j):
        amp = coherent_amplitude(alpha, alpha, 0.0, 0.0)
        assert abs(amp) ** 2 == pytest.approx(1.0, rel=1e-12)


def test_coherent_amplitude_rejects_non_finite():
    with pytest.raises(ValueError):
        coherent_amplitude(math.inf, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        coherent_amplitude(0.0, 0.0, 0.0, math.nan)


def test_transition_amplitude_modulus_matches_probability():
    u = 0.6 - 0.2j
    gamma = abs(u) ** 2
    for m in range(6):
        for n in range(6):
            amp = transition_amplitude(m, n, u, 0.3)
            assert abs(amp) ** 2 == pytest.approx(
                transition_probability(m, n, gamma), rel=1e-12, abs=1e-300)


def _series_overlap(alpha, beta, u, phi, top=40):
    # reconstruct <beta|alpha> from the amplitude matrix
    total = 0.0 + 0.0j
    for m in range(top):
        for n in range(top):
            coeff = (alpha ** m) * (beta.conjugate() ** n) / math.sqrt(
                math.factorial(m) * math.factorial(n))
            total += coeff * transition_amplitude(m, n, u, phi)
    return cmath.exp(-0.5 * (abs(alpha) ** 2 + abs(beta) ** 2)) * total


def test_generating_function_reconstructs_coherent_amplitude():
    rng = np.random.default_rng(5)
    for _ in range(4):
        alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        beta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        u = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        phi = rng.uniform(0, 2 * math.pi)
        direct = coherent_amplitude(alpha, beta, u, phi)
        series = _series_overlap(alpha, beta, u, phi)
        assert abs(direct - series) < 1e-10


# --- multi-axis and degenerate levels ------------------------------------------------------

def test_multi_axis_identity_at_zero_drive():
    assert multi_axis_probability((2, 3), (2, 3), (0.0, 0.0)) == 1.0
    assert multi_axis_probability((2, 3), (2, 4), (0.0, 0.0)) == 0.0


def test_multi_axis_product_value():
    # (e^-1 * 1) * (e^-1) for one quantum on the first axis
    got = multi_axis_probability((0, 0), (1, 0), (1.0, 1.0))
    assert got == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_multi_axis_length_mismatch():
    with pytest.raises(ValueError):
        multi_axis_probability((0, 0), (0,), (1.0, 1.0))


def test_first_level_total_depends_only_on_w():
    w = 1.3
    totals = []
    for xi in (0.0, 0.4, 1.3):
        eta = w - xi
        total = math.fsum(
            multi_axis_probability((0, 0), pair, (xi, eta))
            for pair in [(1, 0), (0, 1)]
        )
        totals.append(total)
    assert max(totals) - min(totals) < 1e-12
    assert totals[0] == pytest.approx(w * math.exp(-w), rel=1e-12)


def test_degenerate_spec_validation():
    with pytest.raises(ValueError):
        DegenerateSpec(())
    with pytest.raises(ValueError):
        DegenerateSpec((-0.1,))
    spec = DegenerateSpec((0.4, 0.6))
    assert spec.w == pytest.approx(1.0, rel=1e-15)


def test_ground_level_law_any_split():
    w = 1.0
    for xi in (0.0, 0.25, 0.8):
        spec = DegenerateSpec((xi, w - xi))
        got = degenerate_probability(0, 2, spec)
        assert got == pytest.approx(math.exp(-w) * w ** 2 / 2.0, abs=1e-14)


def test_two_dimensional_low_level_closed_forms():
    # sum over both initial level-1 substates in two dimensions
    w = 1.0
    spec = DegenerateSpec((0.35, 0.65))
    p12 = degenerate_probability(1, 2, spec, convention="sum")
    assert p12 == pytest.approx(0.5 * w * math.exp(-w) * (6 - 4 * w + w * w), abs=1e-13)
    p11 = degenerate_probability(1, 1, spec, convention="sum")
    lag1 = 1.0 - w
    assert p11 == pytest.approx(math.exp(-w) * (1 + lag1 ** 2), abs=1e-13)
    # averaged convention divides by the initial multiplicity
    assert degenerate_probability(1, 2, spec, convention="average") == pytest.approx(
        p12 / 2.0, rel=1e-14)


def test_degenerate_law_not_single_axis_formula():
    # substituting w for gamma in the one-axis formula is wrong for 1 -> 2
    w = 1.0
    spec = DegenerateSpec((0.5, 0.5))
    p12 = degenerate_probability(1, 2, spec, convention="sum")
    assert abs(p12 - transition_probability(1, 2, w)) > 1e-3


def test_three_dimensional_ground_law():
    w = 0.9
    spec = DegenerateSpec((0.2, 0.3, 0.4))
    for n in range(4):
        got = degenerate_probability(0, n, spec)
        assert got == pytest.approx(math.exp(-w) * w ** n / math.factorial(n), abs=1e-13)


def test_degenerate_dimension_and_convention_validation():
    spec = DegenerateSpec((0.5, 0.5))
    with pytest.raises(ValueError):
        degenerate_probability(0, 1, spec, convention="median")


def _compositions(total, parts):
    # all ordered splits of `total` into `parts` non-negative integers
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@pytest.mark.parametrize("dim, top", [(2, 7), (3, 5), (4, 4)])
def test_degenerate_matches_composition_enumeration(dim, top):
    rng = np.random.default_rng(dim)
    spec = DegenerateSpec(tuple(rng.uniform(0.05, 2.0, size=dim)))
    for m_level in range(top + 1):
        for n_level in range(top + 1):
            want = math.fsum(
                multi_axis_probability(mvec, nvec, spec.axis_gammas)
                for mvec in _compositions(m_level, dim)
                for nvec in _compositions(n_level, dim)
            )
            got = degenerate_probability(m_level, n_level, spec)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_degenerate_six_dimensions_high_levels():
    # 1.2e6 initial substates: far beyond any enumeration over multiplets
    spec = DegenerateSpec((0.1,) * 6)
    bound = math.comb(40 + 5, 5)
    total = degenerate_probability(40, 40, spec)
    assert math.isfinite(total) and 0.0 < total <= bound
    assert degenerate_probability(40, 40, spec, convention="average") == pytest.approx(
        total / bound, rel=1e-15)
    forward = degenerate_probability(40, 37, spec)
    assert math.isfinite(forward) and 0.0 < forward <= bound
    assert forward == pytest.approx(degenerate_probability(37, 40, spec), rel=1e-12)


def test_row_limit_guard_is_reported_as_numerical_error():
    # enormous gamma cannot reach the tail target within the row cap
    with pytest.raises(NumericalError):
        transition_row(0, 5e6, tail_epsilon=1e-3)


@pytest.mark.parametrize("m, n, gamma, log10_want", [
    (1000, 2000, 1.0, -1968.6), (200, 200, 1e5, -42179.6)],
    ids=["1000-2000-1.0", "200-200-100000.0"])
def test_extreme_probability_matches_mpmath(m, n, gamma, log10_want):
    # L_1000^(1000)(1) and L_200^(0)(1e5) are far outside the float range,
    # and P itself underflows
    want = _mp_probability(m, n, gamma)
    assert float(mpmath.log10(want)) == pytest.approx(log10_want, abs=0.05)
    assert transition_probability(m, n, gamma) == 0.0
    assert transition_probability(n, m, gamma) == 0.0


@pytest.mark.parametrize("m, n, gamma", [
    (1000, 1050, 40.0), (486, 700, 91.06), (300, 10100, 1e4), (1500, 1500, 2.5)])
def test_large_level_probability_matches_mpmath(m, n, gamma):
    want = float(_mp_probability(m, n, gamma))
    assert 0.0 < want
    assert transition_probability(m, n, gamma) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("m, gamma", [(400, 50.0), (486, 91.06), (478, 100.58), (999, 5.153)])
def test_extreme_row_matches_mpmath(m, gamma):
    # the Laguerre factors of these rows pass 1e308 for n beyond ~1100
    row = transition_row(m, gamma)
    assert np.all(np.isfinite(row.probs)) and row.tail_bound < 1e-8
    assert math.fsum(row.probs) + row.tail_bound == pytest.approx(1.0, abs=1e-9)
    peak = int(np.argmax(row.probs))
    last = len(row.probs) - 1
    for n in sorted({0, m // 2, m, peak, (peak + last) // 2, last}):
        want = float(_mp_probability(m, n, gamma))
        assert row.probs[n] == pytest.approx(want, rel=1e-9, abs=1e-300)


@settings(max_examples=12, deadline=None)
@given(m=st.integers(0, 2000), gamma=st.floats(0.0, 1e4))
def test_property_row_sums_to_one(m, gamma):
    row = transition_row(m, gamma)
    assert np.all(np.isfinite(row.probs))
    assert np.all((row.probs >= 0.0) & (row.probs <= 1.0))
    assert 0.0 <= row.tail_bound < 1e-8
    assert math.fsum(row.probs) + row.tail_bound == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(0, 2000), n=st.integers(0, 2000), gamma=st.floats(0.0, 1e4))
def test_property_symmetry_is_exact(m, n, gamma):
    p = transition_probability(m, n, gamma)
    assert 0.0 <= p <= 1.0
    assert p == transition_probability(n, m, gamma)


@settings(max_examples=8, deadline=None)
@given(m=st.integers(0, 1200), gamma=st.floats(0.0, 2e3))
def test_property_row_entries_equal_scalar_calls(m, gamma):
    row = transition_row(m, gamma)
    for n in range(0, len(row.probs), max(1, len(row.probs) // 25)):
        assert row.probs[n] == transition_probability(m, n, gamma)


@settings(max_examples=20, deadline=None)
@given(
    xi=st.floats(0.0, 2.0),
    eta=st.floats(0.0, 2.0),
    n=st.integers(0, 6),
)
def test_property_ground_row_isotropy(xi, eta, n):
    w = xi + eta
    spread = DegenerateSpec((xi, eta))
    even = DegenerateSpec((w / 2, w / 2))
    a = degenerate_probability(0, n, spread)
    b = degenerate_probability(0, n, even)
    assert a == pytest.approx(b, abs=1e-12)
