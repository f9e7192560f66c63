import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_genlaguerre

from trapmotion import (
    DegenerateSpec,
    ResourceError,
    coherent_amplitude,
    degenerate_probability,
    laguerre_assoc,
    multi_axis_probability,
    transition_amplitude,
    transition_probability,
    transition_row,
    transition_table,
)
from trapmotion.errors import NumericalError


# --- associated Laguerre polynomials ------------------------------------------------

def test_laguerre_degree_zero_is_one():
    for alpha in (0, 1, 7):
        assert laguerre_assoc(0, alpha, 3.7) == 1.0


def test_laguerre_degree_one_closed_form():
    # L_1^{(alpha)}(x) = 1 + alpha - x
    assert laguerre_assoc(1, 1, 2.0) == 0.0
    assert laguerre_assoc(1, 3, 1.5) == pytest.approx(2.5, rel=1e-15)


def test_laguerre_degree_two_explicit_series():
    # L_2(x) = 1 - 2x + x^2/2 evaluated independently of the recurrence
    x = 1.0
    series = 1.0 - 2.0 * x + x ** 2 / 2.0
    assert laguerre_assoc(2, 0, x) == pytest.approx(series, rel=1e-15)
    assert series == -0.5


def test_laguerre_input_validation():
    with pytest.raises(ValueError):
        laguerre_assoc(-1, 0, 1.0)
    with pytest.raises(ValueError):
        laguerre_assoc(1, -2, 1.0)
    with pytest.raises(ValueError):
        laguerre_assoc(1, 0, -1.0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 40),
    alpha=st.integers(0, 12),
    x=st.floats(0.0, 60.0),
)
def test_laguerre_matches_scipy(n, alpha, x):
    ours = laguerre_assoc(n, alpha, x)
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
    # straddle the direct-evaluation cutoff with reachable numbers
    gamma = 9.0
    for m, n in [(2, 180), (180, 2), (175, 176)]:
        p = transition_probability(m, n, gamma)
        assert 0.0 <= p <= 1.0
    # compare a moderately large case against exact rational arithmetic
    from fractions import Fraction

    m, n, gamma = 3, 172, 2.0
    mu, d = m, n - m
    lag = laguerre_assoc(mu, d, gamma)
    ratio = Fraction(math.factorial(mu), math.factorial(n))
    want = float(ratio) * gamma ** d * math.exp(-gamma) * lag * lag
    assert transition_probability(m, n, gamma) == pytest.approx(want, rel=1e-12)


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
        degenerate_probability(0, 1, spec, dimension=3)
    with pytest.raises(ValueError):
        degenerate_probability(0, 1, spec, convention="median")


def test_degenerate_enumeration_guard():
    spec = DegenerateSpec((0.1,) * 6)
    with pytest.raises(ResourceError):
        degenerate_probability(40, 40, spec)


def test_row_limit_guard_is_reported_as_numerical_error():
    # enormous gamma cannot reach the tail target within the row cap
    with pytest.raises(NumericalError):
        transition_row(0, 5e6, tail_epsilon=1e-3)


@pytest.mark.parametrize("m, n, gamma", [(1000, 2000, 1.0), (200, 200, 1e5)])
def test_laguerre_overflow_raises_instead_of_nan(m, n, gamma):
    # L_1000^(1000)(1) and L_200^(0)(1e5) exceed the float range
    with pytest.raises(NumericalError):
        transition_probability(m, n, gamma)


def test_transition_row_overflow_raises_instead_of_nan_row():
    # the row's Laguerre factors overflow past n ~ 1100; it used to sum to
    # NaN and report tail_bound 0
    with pytest.raises(NumericalError):
        transition_row(400, 50.0)


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
