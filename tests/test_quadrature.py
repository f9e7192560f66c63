import math

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, simpson

import trapmotion.quadrature as quadrature
from trapmotion.errors import NumericalError
from trapmotion.quadrature import BlockGrid, QuadratureConfig, piece_bounds, refine


def _uniform(lo, hi, n):
    """One block holding all n intervals of [lo, hi], and its nodes."""
    grid = BlockGrid([(lo, hi, n, 0, n)])
    return grid, grid.ts


def _filon(grid, fvals, omega):
    return grid.integral(fvals * np.exp(1j * omega * grid.ts), omega)[-1]


def test_simpson_exact_for_cubics():
    grid = BlockGrid([(0.0, 2.0, 8, 0, 4), (0.0, 2.0, 8, 4, 8)])
    ts = grid.ts
    y = ts ** 3 - 2 * ts ** 2 + ts
    exact = 2.0 ** 4 / 4 - 2 * 2.0 ** 3 / 3 + 2.0 ** 2 / 2
    assert grid.integral(y)[-1] == pytest.approx(exact, rel=1e-15)


def test_simpson_requires_even_interval_count():
    with pytest.raises(ValueError, match="pair into panels"):
        BlockGrid([(0.0, 1.0, 3, 0, 3)])
    with pytest.raises(ValueError, match="pair into panels"):
        BlockGrid([(0.0, 1.0, 8, 1, 5)])
    with pytest.raises(ValueError, match="pair into panels"):
        BlockGrid([(0.0, 1.0, 8, 4, 4)])


def test_simpson_fourth_order_convergence():
    def err(n):
        grid, ts = _uniform(0.0, math.pi, n)
        return abs(grid.integral(np.sin(ts))[-1] - 2.0)

    assert err(64) / err(128) == pytest.approx(16.0, rel=0.05)


def test_cumulative_simpson_matches_antiderivative_exactly_for_cubics():
    grid, ts = _uniform(0.0, 1.0, 10)
    y = 3 * ts ** 2
    cum = grid.cumulative(y)
    assert cum[0] == 0.0
    assert np.allclose(cum, ts ** 3, rtol=1e-13, atol=1e-15)
    ref = cumulative_simpson(y, x=ts, initial=0.0)
    np.testing.assert_allclose(cum, ref, rtol=1e-13, atol=1e-15)


def test_cumulative_simpson_converges_on_sine():
    grid, ts = _uniform(0.0, 3.0, 400)
    cum = grid.cumulative(np.sin(ts))
    assert np.max(np.abs(cum - (1 - np.cos(ts)))) < 1e-9


def test_cumulative_simpson_complex_dtype():
    grid, ts = _uniform(0.0, 1.0, 8)
    cum = grid.cumulative(np.exp(1j * ts))
    assert np.iscomplexobj(cum)
    ref = [cumulative_simpson(part, x=ts, initial=0.0) for part in (np.cos(ts), np.sin(ts))]
    np.testing.assert_allclose(cum, ref[0] + 1j * ref[1], rtol=1e-13)


@pytest.mark.parametrize("omega", [7.0, -7.0, 0.6])
def test_filon_constant_integrand(omega):
    # integral of e^{i omega t} over [0, T]
    T = 3.3
    grid, ts = _uniform(0.0, T, 64)
    got = _filon(grid, np.ones_like(ts), omega)
    want = (np.exp(1j * omega * T) - 1.0) / (1j * omega)
    assert got == pytest.approx(want, abs=1e-10)


def test_filon_linear_integrand():
    # integral of t e^{i omega t}: t/(i w) e^{iwt} + (e^{iwt} - 1)/w^2
    omega, T = 11.0, 2.0
    grid, ts = _uniform(0.0, T, 128)
    got = _filon(grid, ts.copy(), omega)
    e = np.exp(1j * omega * T)
    want = T * e / (1j * omega) + (e - 1.0) / omega ** 2
    assert got == pytest.approx(want, abs=1e-9)


def test_filon_zero_frequency_falls_back_to_simpson():
    # at omega = 0 the Filon panel weights (cumulative) are Simpson's (integral)
    grid, ts = _uniform(0.0, 1.0, 16)
    y = ts ** 2
    assert grid.cumulative(y)[-1] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert grid.cumulative(y)[-1] == pytest.approx(grid.integral(y)[-1], rel=1e-14)
    assert grid.integral(y)[-1] == pytest.approx(simpson(y, x=ts), rel=1e-14)


def test_filon_small_theta_series_consistent_with_closed_form():
    # same panel width, panel phases omega h just below and above 1/6
    grid, ts = _uniform(0.0, 1.0, 256)
    y = np.cos(ts)
    lo = _filon(grid, y, 40.0)
    hi = _filon(grid, y, 44.0)

    def exact(w):
        # cos t = (e^{it} + e^{-it}) / 2 against e^{iwt}
        up = (np.exp(1j * (w + 1)) - 1.0) / (1j * (w + 1))
        dn = (np.exp(1j * (w - 1)) - 1.0) / (1j * (w - 1))
        return 0.5 * (up + dn)

    assert lo == pytest.approx(exact(40.0), abs=1e-8)
    assert hi == pytest.approx(exact(44.0), abs=1e-8)


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

    monkeypatch.setattr(quadrature, "MAX_DOUBLINGS", 3)
    with pytest.raises(NumericalError, match="toy sum did not stabilize") as info:
        refine(evaluate, QuadratureConfig(), "toy sum", 32)
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
    np.testing.assert_array_equal(grid.starts, [0, 121, 202])
    np.testing.assert_array_equal(grid.ends, [120, 201, 212])
    np.testing.assert_array_equal(grid.dx, [first[1] - first[0]] * 2 + [second[1] - second[0]])


def test_block_grid_rules_match_single_grid_rules():
    grid = BlockGrid(_BLOCKS)
    f = _f(grid.ts)
    first, second = _pieces()
    whole = simpson(_f(first), x=first)
    tail = simpson(_f(second), x=second)
    np.testing.assert_allclose(grid.integral(f)[1:], [whole, whole + tail], rtol=1e-14)
    trap = grid.trapezoid(f)
    assert trap[1] == pytest.approx(np.trapezoid(_f(first), first), rel=1e-14)
    # Filon: splitting a segment into blocks changes nothing
    unsplit = [BlockGrid([(0.3, 17.0, 200, 0, 200)]), BlockGrid([(17.0, 20.0, 10, 0, 10)])]
    for omega in (2.0, -2.0):
        filon = grid.integral(f * np.exp(1j * omega * grid.ts), omega)
        whole, tail = (g.integral(_f(g.ts) * np.exp(1j * omega * g.ts), omega)[-1]
                       for g in unsplit)
        np.testing.assert_allclose(filon[1:], [whole, whole + tail], rtol=1e-13)


def test_block_grid_cumulative_runs_across_blocks():
    grid = BlockGrid(_BLOCKS)
    cum = grid.cumulative(_f(grid.ts))
    first, second = _pieces()
    ref = cumulative_simpson(_f(first), x=first, initial=0.0)
    np.testing.assert_allclose(cum[:121], ref[:121], rtol=1e-13)
    np.testing.assert_allclose(cum[121:202], ref[120:], rtol=1e-13)
    tail = ref[-1] + cumulative_simpson(_f(second), x=second, initial=0.0)
    np.testing.assert_allclose(cum[202:], tail, rtol=1e-13)


@pytest.mark.parametrize("omega", [1.7, -1.7])
def test_block_grid_cumulative_filon_is_exact_for_quadratics(omega):
    from scipy.integrate import quad

    grid = BlockGrid(_BLOCKS)
    ts = grid.ts

    def f(t):
        return 1.0 + 0.5 * t - 0.02 * t * t

    g = f(ts) * np.exp(1j * omega * ts)
    cum = grid.cumulative(g, omega)
    for node in (1, 2, 57, 120, 121, 150, 202, 207, 212):
        t = ts[node]
        re = quad(lambda x: f(x) * math.cos(omega * x), 0.3, t, limit=200)[0]
        im = quad(lambda x: f(x) * math.sin(omega * x), 0.3, t, limit=200)[0]
        assert cum[node] == pytest.approx(complex(re, im), rel=1e-10, abs=1e-10)
    # the block-end rule sums each block's odd and even nodes instead of its panels
    np.testing.assert_allclose(grid.integral(g, omega), cum[grid.ends], rtol=1e-13)


def test_block_grid_cumulative_rejects_unresolved_oscillation():
    grid = BlockGrid([(0.0, 100.0, 10, 0, 10)])
    ts = grid.ts
    with pytest.raises(ValueError):
        grid.cumulative(np.exp(1j * ts), 1.0)


def test_block_grid_insets_segment_ends_on_cuts():
    grid = BlockGrid(_BLOCKS)
    assert grid.sample_times(set()) is grid.ts
    te = grid.sample_times({17.0})
    moved = np.flatnonzero(te != grid.ts)
    np.testing.assert_array_equal(moved, [201, 202])
    assert 17.0 - te[201] == pytest.approx(1e-9 * 16.7 / 200, rel=1e-6)
    assert te[202] - 17.0 == pytest.approx(1e-9 * 3.0 / 10, rel=1e-6)
