import math

import numpy as np
import pytest

import trapmotion.quadrature as quadrature
from trapmotion.errors import NumericalError
from trapmotion.quadrature import (
    BlockGrid,
    QuadratureConfig,
    composite_simpson,
    cumulative_simpson,
    filon_exponential,
    oscillatory_integral,
    piece_bounds,
    refine,
)


def test_simpson_exact_for_cubics():
    ts = np.linspace(0.0, 2.0, 9)
    y = ts ** 3 - 2 * ts ** 2 + ts
    exact = 2.0 ** 4 / 4 - 2 * 2.0 ** 3 / 3 + 2.0 ** 2 / 2
    assert composite_simpson(y, ts[1] - ts[0]) == pytest.approx(exact, rel=1e-15)


def test_simpson_requires_even_interval_count():
    with pytest.raises(ValueError):
        composite_simpson(np.ones(4), 0.1)


def test_simpson_fourth_order_convergence():
    def err(n):
        ts = np.linspace(0.0, math.pi, n + 1)
        return abs(composite_simpson(np.sin(ts), ts[1] - ts[0]) - 2.0)

    assert err(64) / err(128) == pytest.approx(16.0, rel=0.05)


def test_cumulative_simpson_matches_antiderivative_exactly_for_cubics():
    ts = np.linspace(0.0, 1.0, 11)
    y = 3 * ts ** 2
    cum = cumulative_simpson(y, ts[1] - ts[0])
    assert cum[0] == 0.0
    assert np.allclose(cum, ts ** 3, rtol=1e-13, atol=1e-15)


def test_cumulative_simpson_converges_on_sine():
    ts = np.linspace(0.0, 3.0, 401)
    cum = cumulative_simpson(np.sin(ts), ts[1] - ts[0])
    assert np.max(np.abs(cum - (1 - np.cos(ts)))) < 1e-9


def test_cumulative_simpson_complex_dtype():
    ts = np.linspace(0.0, 1.0, 9)
    cum = cumulative_simpson(np.exp(1j * ts), ts[1] - ts[0])
    assert np.iscomplexobj(cum)


@pytest.mark.parametrize("omega", [7.0, -7.0, 0.6])
def test_filon_constant_integrand(omega):
    # integral of e^{i omega t} over [0, T]
    T = 3.3
    ts = np.linspace(0.0, T, 65)
    got = filon_exponential(np.ones_like(ts), ts, omega)
    want = (np.exp(1j * omega * T) - 1.0) / (1j * omega)
    assert got == pytest.approx(want, abs=1e-10)


def test_filon_linear_integrand():
    # integral of t e^{i omega t}: t/(i w) e^{iwt} + (e^{iwt} - 1)/w^2
    omega, T = 11.0, 2.0
    ts = np.linspace(0.0, T, 129)
    got = filon_exponential(ts.copy(), ts, omega)
    e = np.exp(1j * omega * T)
    want = T * e / (1j * omega) + (e - 1.0) / omega ** 2
    assert got == pytest.approx(want, abs=1e-9)


def test_filon_zero_frequency_falls_back_to_simpson():
    ts = np.linspace(0.0, 1.0, 17)
    y = ts ** 2
    assert filon_exponential(y, ts, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_filon_small_theta_series_consistent_with_closed_form():
    # same panel width, frequencies straddling the series/closed-form switch
    ts = np.linspace(0.0, 1.0, 257)
    y = np.cos(ts)
    lo = filon_exponential(y, ts, 40.0)   # theta just below 1/6
    hi = filon_exponential(y, ts, 44.0)   # theta just above 1/6

    def exact(w):
        # cos t = (e^{it} + e^{-it}) / 2 against e^{iwt}
        up = (np.exp(1j * (w + 1)) - 1.0) / (1j * (w + 1))
        dn = (np.exp(1j * (w - 1)) - 1.0) / (1j * (w - 1))
        return 0.5 * (up + dn)

    assert lo == pytest.approx(exact(40.0), abs=1e-8)
    assert hi == pytest.approx(exact(44.0), abs=1e-8)


def test_oscillatory_integral_converges_to_analytic_value():
    res = oscillatory_integral(lambda t: np.ones_like(t), 0.0, 5.0, -3.0,
                               QuadratureConfig(tol=1e-10))
    want = (np.exp(-15j) - 1.0) / (-3j)
    assert res.value == pytest.approx(want, abs=1e-10)
    assert res.n_intervals >= 32
    assert res.error_estimate >= 0.0


def test_oscillatory_integral_zero_span_and_zero_integrand():
    res = oscillatory_integral(lambda t: np.ones_like(t), 1.0, 1.0, 2.0)
    assert res.value == 0.0
    res = oscillatory_integral(lambda t: np.zeros_like(t), 0.0, 1.0, 2.0)
    assert res.value == 0.0


def test_oscillatory_integral_validates_inputs():
    with pytest.raises(ValueError):
        oscillatory_integral(lambda t: t, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        oscillatory_integral(lambda t: t, 0.0, 1.0, 1.0, QuadratureConfig(scheme="gauss"))


def test_oscillatory_integral_filon_matches_simpson():
    f = lambda t: np.cos(0.3 * t) * (1 + 0.1 * t)  # noqa: E731
    a = oscillatory_integral(f, 0.0, 20.0, -6.0,
                             QuadratureConfig(scheme="adaptive-simpson", tol=1e-10))
    b = oscillatory_integral(f, 0.0, 20.0, -6.0,
                             QuadratureConfig(scheme="composite-filon", tol=1e-10))
    assert a.value == pytest.approx(b.value, abs=1e-8)


def test_discontinuous_integrand_needs_breakpoints():
    t0 = 0.773  # never lands on a uniform grid node of [0, 2]

    def step(t):
        t = np.asarray(t, dtype=float)
        out = np.where(t < t0, 1.0, -1.0)
        return np.where(t == t0, 0.0, out)  # mean of one-sided limits

    with pytest.raises(NumericalError) as info:
        oscillatory_integral(step, 0.0, 2.0, -5.0, QuadratureConfig(max_doublings=6))
    assert info.value.residual is not None

    res = oscillatory_integral(step, 0.0, 2.0, -5.0, breakpoints=(t0,))
    piece = lambda a, b: (np.exp(-5j * b) - np.exp(-5j * a)) / (-5j)  # noqa: E731
    want = piece(0.0, t0) - piece(t0, 2.0)
    assert res.value == pytest.approx(want, abs=1e-9)


def test_refine_accepts_first_level_within_each_scale():
    # level L carries an error 2^-L on the scalar and 4^-L on each array element
    calls = []

    def evaluate(level):
        calls.append(level)
        values = (1.0 + 2.0 ** -level, np.array([3.0, 5.0]) + 4.0 ** -level)
        return values, (1.0, np.array([1.0, 100.0]))

    level, values, scales, change = refine(evaluate, QuadratureConfig(tol=0.1), "test", 32)
    assert (level, change) == (4, 2.0 ** -4)   # the scalar decides: 2^-4 <= 0.1 < 2^-3
    assert calls == [0, 1, 2, 3, 4]
    assert values[0] == 1.0 + 2.0 ** -4
    np.testing.assert_array_equal(values[1], [3.0 + 4.0 ** -4, 5.0 + 4.0 ** -4])
    assert scales[0] == 1.0


def test_refine_reports_residual_and_caps_intervals(monkeypatch):
    def evaluate(level):
        return (np.array([0.0, float(level)]),), (np.ones(2),)

    with pytest.raises(NumericalError, match="toy sum did not stabilize") as info:
        refine(evaluate, QuadratureConfig(max_doublings=3), "toy sum", 32)
    assert info.value.residual == 1.0

    monkeypatch.setattr(quadrature, "MAX_TOTAL_INTERVALS", 100)
    seen = []
    with pytest.raises(NumericalError, match="level 2 would need more than 100"):
        refine(lambda level: seen.append(level) or evaluate(level), QuadratureConfig(), "toy", 32)
    assert seen == [0, 1]


def test_piece_bounds_filters_interior_points():
    assert piece_bounds(0.0, 2.0, (1.0, 5.0, -1.0, 0.0, 2.0)) == [(0.0, 1.0), (1.0, 2.0)]
    assert piece_bounds(0.0, 2.0) == [(0.0, 2.0)]


# --- block grids ----------------------------------------------------------------

# one piece [0.3, 17] cut into two blocks, then a second piece [17, 20]
_BLOCKS = [(0.3, 17.0, 200, 0, 120), (0.3, 17.0, 200, 120, 200), (17.0, 20.0, 10, 0, 10)]


def _pieces():
    return np.linspace(0.3, 17.0, 201), np.linspace(17.0, 20.0, 11)


def _f(t):
    return np.cos(0.3 * t) + t ** 2


def test_block_grid_nodes_are_linspace_nodes():
    grid = BlockGrid(_BLOCKS)
    first, second = _pieces()
    np.testing.assert_array_equal(grid.ts, np.concatenate([first[:121], first[120:], second]))
    np.testing.assert_array_equal(grid.first, [0, 121, 202, 213])


def test_block_grid_rules_match_single_grid_rules():
    grid = BlockGrid(_BLOCKS)
    f = _f(grid.ts)
    first, second = _pieces()
    whole = composite_simpson(_f(first), first[1] - first[0])
    tail = composite_simpson(_f(second), second[1] - second[0])
    np.testing.assert_allclose(grid.integral(f)[1:], [whole, whole + tail], rtol=1e-14)
    trap = grid.trapezoid(f)
    assert trap[1] == pytest.approx(np.trapezoid(_f(first), first), rel=1e-14)
    for omega in (2.0, -2.0, 0.0):
        w = abs(omega)
        filon = grid.integral(f, omega, np.cos(w * grid.ts), np.sin(w * grid.ts))
        whole = filon_exponential(_f(first), first, omega)
        tail = filon_exponential(_f(second), second, omega)
        np.testing.assert_allclose(filon[1:], [whole, whole + tail], rtol=1e-13)


def test_block_grid_cumulative_runs_across_blocks():
    grid = BlockGrid(_BLOCKS)
    cum = grid.cumulative(_f(grid.ts))
    first, second = _pieces()
    ref = cumulative_simpson(_f(first), first[1] - first[0])
    np.testing.assert_allclose(cum[:121], ref[:121], rtol=1e-13)
    np.testing.assert_allclose(cum[121:202], ref[120:], rtol=1e-13)
    tail = ref[-1] + cumulative_simpson(_f(second), second[1] - second[0])
    np.testing.assert_allclose(cum[202:], tail, rtol=1e-13)


@pytest.mark.parametrize("omega", [1.7, -1.7])
def test_block_grid_cumulative_filon_is_exact_for_quadratics(omega):
    from scipy.integrate import quad

    grid = BlockGrid(_BLOCKS)
    ts = grid.ts
    w = abs(omega)

    def f(t):
        return 1.0 + 0.5 * t - 0.02 * t * t

    cum = grid.cumulative(f(ts), omega, np.cos(w * ts), np.sin(w * ts))
    for node in (1, 2, 57, 120, 121, 150, 202, 207, 212):
        t = ts[node]
        re = quad(lambda x: f(x) * math.cos(omega * x), 0.3, t, limit=200)[0]
        im = quad(lambda x: f(x) * math.sin(omega * x), 0.3, t, limit=200)[0]
        assert cum[node] == pytest.approx(complex(re, im), rel=1e-10, abs=1e-10)


def test_block_grid_cumulative_rejects_unresolved_oscillation():
    grid = BlockGrid([(0.0, 100.0, 10, 0, 10)])
    ts = grid.ts
    with pytest.raises(ValueError):
        grid.cumulative(np.ones_like(ts), 1.0, np.cos(ts), np.sin(ts))


def test_block_grid_insets_segment_ends_on_cuts():
    grid = BlockGrid(_BLOCKS)
    assert grid.sample_times(set()) is grid.ts
    te = grid.sample_times({17.0})
    moved = np.flatnonzero(te != grid.ts)
    np.testing.assert_array_equal(moved, [201, 202])
    assert 17.0 - te[201] == pytest.approx(1e-9 * 16.7 / 200, rel=1e-6)
    assert te[202] - 17.0 == pytest.approx(1e-9 * 3.0 / 10, rel=1e-6)
