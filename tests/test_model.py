import math

import numpy as np
import pytest

from trapmotion import (
    Axis,
    OscillatorParams,
    PiecewiseAccelerationFamily,
    TransportProblem,
    make_axis,
    make_circular,
    make_constant_acceleration,
    make_kick,
    make_polynomial,
    make_sinusoidal,
)
from trapmotion.model import _piecewise_axis


# --- oscillator parameters ---------------------------------------------------

def test_dimensionless_params_are_exactly_unity():
    p = OscillatorParams.dimensionless()
    assert (p.mass, p.omega, p.hbar) == (1.0, 1.0, 1.0)
    assert p.period == 2.0 * math.pi
    assert p.ground_width == 1.0


def test_si_params_default_hbar():
    p = OscillatorParams.si(1e-25, 100.0)
    assert p.hbar == 1.054571817e-34
    assert p.units_mode == "SI"


@pytest.mark.parametrize("kwargs", [
    dict(mass=-1.0, omega=1.0, hbar=1.0),
    dict(mass=1.0, omega=0.0, hbar=1.0),
    dict(mass=1.0, omega=1.0, hbar=math.nan),
    # each finite and positive, but a prefactor or the ground width leaves the float range
    dict(mass=1e-300, omega=1.0, hbar=1e-300),
    dict(mass=1.0, omega=1e300, hbar=1.0),
])
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        OscillatorParams(**kwargs)


def test_dimensionless_mode_rejects_other_values():
    with pytest.raises(ValueError):
        OscillatorParams(2.0, 1.0, 1.0, "dimensionless")


# --- constant acceleration ---------------------------------------------------

def test_constant_acceleration_zero_is_zero_trajectory():
    traj = make_constant_acceleration(0.0, 1.0)
    ax = traj.axes[0]
    ts = np.linspace(0.0, 1.0, 7)
    assert np.all(ax.b(ts) == 0.0)
    assert np.all(ax.bdot(ts) == 0.0)
    assert np.all(ax.bddot(ts) == 0.0)


def test_constant_acceleration_kinematics():
    traj = make_constant_acceleration(1.0, 2.0)
    ax = traj.axes[0]
    assert ax.b(2.0) == pytest.approx(2.0, rel=1e-15)
    assert ax.bdot(2.0) == pytest.approx(2.0, rel=1e-15)
    assert ax.bddot(2.0) == 1.0
    assert (ax.starts_at_zero, ax.starts_at_rest) == (True, True)


def test_constant_acceleration_derivative_consistency_at_interior_point():
    # central-difference oracle on the closed-form b
    T = math.pi
    traj = make_constant_acceleration(1.0, T)
    ax = traj.axes[0]
    h = 1e-6 * T
    t = 1.3
    approx_v = (ax.b(t + h) - ax.b(t - h)) / (2 * h)
    approx_a = (ax.bdot(t + h) - ax.bdot(t - h)) / (2 * h)
    assert approx_v == pytest.approx(ax.bdot(t), rel=1e-6)
    assert approx_a == pytest.approx(ax.bddot(t), rel=1e-6)


@pytest.mark.parametrize("T", [0.0, -1.0, math.inf])
def test_constant_acceleration_rejects_bad_duration(T):
    with pytest.raises(ValueError):
        make_constant_acceleration(1.0, T)


# --- kick ---------------------------------------------------------------------

def test_kick_zero_velocity_is_zero_trajectory():
    traj = make_kick(0.0, 0.1, 5.0)
    ts = np.linspace(0.0, 5.0, 11)
    assert np.all(traj.axes[0].b(ts) == 0.0)


def test_kick_profile_reaches_velocity_exactly():
    T_a = 0.01 * 2 * math.pi
    traj = make_kick(1.0, T_a, 10.0)
    ax = traj.axes[0]
    assert float(ax.bdot(10.0)) == 1.0
    assert float(ax.bdot(T_a)) == 1.0
    ts = np.linspace(2 * T_a, 10.0, 23)
    assert np.all(ax.bddot(ts) == 0.0)
    # ramp midpoint: smoothstep takes exactly half the asymptotic offset
    assert float(ax.b(T_a)) == pytest.approx(0.5 * T_a, rel=1e-12)


def test_kick_stop_brings_center_to_rest():
    T_a = 0.2
    traj = make_kick(2.0, T_a, 10.0, stop_at=5.0)
    ax = traj.axes[0]
    assert float(ax.bdot(5.0 + T_a)) == 0.0
    assert float(ax.bdot(9.0)) == 0.0
    assert float(ax.bddot(7.0)) == 0.0
    # displacement is frozen after the stop ramp
    assert float(ax.b(9.0)) == pytest.approx(float(ax.b(5.0 + T_a)), rel=1e-14)


def _smoothstep_kick(v, T_a, stop, t):
    """Reference kick from the quintic smoothstep sigma(u) = 10u^3 - 15u^4 + 6u^5,
    clamped to [0, 1]: (position, rate, acceleration) at times t."""
    def sigma(u):
        u = np.clip(u, 0.0, 1.0)
        return u ** 3 * (10.0 + u * (6.0 * u - 15.0))

    def sigma_rate(u):
        u = np.clip(u, 0.0, 1.0)
        return 30.0 * u ** 2 * (1.0 - u) ** 2

    def sigma_area(u):
        # integral of sigma from 0, equal to 1/2 at u = 1
        u = np.clip(u, 0.0, 1.0)
        return u ** 4 * (2.5 + u * (u - 3.0))

    def ramp(s):
        return (T_a * sigma_area(s / T_a) + np.maximum(s - T_a, 0.0),
                sigma(s / T_a), sigma_rate(s / T_a) / T_a)

    out = np.array(ramp(t))
    if stop is not None:
        out -= np.array(ramp(t - stop))
    return v * out


def _dense_grid(T, edges):
    edges = np.asarray(edges, dtype=float)
    return np.unique(np.concatenate((np.linspace(0.0, T, 20001), edges,
                                     np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf))))


@pytest.mark.parametrize("v,T_a,T,stop", [
    (1.3, 0.21, 9.0, None),
    (0.8, 0.3, 9.0, 5.0),
    (-2.0, 0.3, 9.0, 8.7),
])
def test_kick_matches_smoothstep_reference(v, T_a, T, stop):
    ax = make_kick(v, T_a, T, stop_at=stop).axes[0]
    edges = [0.0, T_a, T] + ([] if stop is None else [stop, stop + T_a])
    ts = _dense_grid(T, edges)
    for got, want in zip((ax.b(ts), ax.bdot(ts), ax.bddot(ts)), _smoothstep_kick(v, T_a, stop, ts)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    if stop is not None:
        assert float(ax.bdot(T)) == 0.0
        assert float(ax.bddot(T)) == 0.0


def test_circular_matches_smoothstep_reference():
    R, Omega, T_a, s = 0.9, 0.8, 0.05, 3
    traj = make_circular(R, Omega, T_a, s)
    T = traj.duration
    t_rev = T - T_a
    ts = _dense_grid(T, [0.0, T_a, t_rev, T])
    p, rate, accel = _smoothstep_kick(Omega, T_a, t_rev, ts)
    want = ((R * (1.0 - np.cos(p)), R * rate * np.sin(p),
             R * (accel * np.sin(p) + rate ** 2 * np.cos(p))),
            (R * np.sin(p), R * rate * np.cos(p),
             R * (accel * np.cos(p) - rate ** 2 * np.sin(p))))
    # near the end sin(p) ~ 0 and b'' is a small difference of large terms,
    # so it is compared with the size of those terms
    scales = (R, R * Omega, R * max(np.max(np.abs(accel)), Omega ** 2))
    for ax, axis_want in zip(traj.axes, want):
        got = (ax.b(ts), ax.bdot(ts), ax.bddot(ts))
        for g, w, scale in zip(got, axis_want, scales):
            assert np.max(np.abs(g - w)) <= 1e-13 * scale
        assert float(ax.bdot(T)) == 0.0
        assert float(ax.bddot(T)) == 0.0


@pytest.mark.parametrize("R,Omega,periods", [(1.1, 1.7, 5), (0.13, 0.36, 1e4)])
def test_sinusoid_matches_closed_form_reference(R, Omega, periods):
    period = 2.0 * math.pi / Omega
    T = periods * period
    ax = make_sinusoidal(R, Omega, T).axes[0]
    ts = np.concatenate((_dense_grid(T, [0.0, T]), np.linspace(T - period, T, 4001)))
    want = (R * (1.0 - np.cos(Omega * ts)), R * Omega * np.sin(Omega * ts),
            R * Omega ** 2 * np.cos(Omega * ts))
    scales = (R, R * Omega, R * Omega ** 2)
    for got, w, scale in zip((ax.b(ts), ax.bdot(ts), ax.bddot(ts)), want, scales):
        assert np.max(np.abs(got - w)) <= 1e-13 * scale


@pytest.mark.parametrize("kwargs", [
    dict(v=1.0, T_a=2.0, T=1.0),
    dict(v=1.0, T_a=0.5, T=10.0, stop_at=0.4),
    dict(v=1.0, T_a=0.5, T=10.0, stop_at=9.8),
    dict(v=1.0, T_a=-0.1, T=10.0),
])
def test_kick_rejects_bad_ordering(kwargs):
    with pytest.raises(ValueError):
        make_kick(**kwargs)


# --- sinusoidal ----------------------------------------------------------------

def test_sinusoidal_values_at_half_drive_period():
    traj = make_sinusoidal(1.0, 1.0, 10.0)
    ax = traj.axes[0]
    assert float(ax.b(math.pi)) == pytest.approx(2.0, rel=1e-15)
    assert float(ax.bdot(math.pi)) == pytest.approx(0.0, abs=1e-15)
    assert float(ax.bddot(math.pi)) == pytest.approx(-1.0, rel=1e-15)


def test_sinusoidal_zero_amplitude():
    traj = make_sinusoidal(0.0, 3.0, 1.0)
    ts = np.linspace(0.0, 1.0, 9)
    assert np.all(traj.axes[0].b(ts) == 0.0)


def test_sinusoidal_boundary_flags():
    traj = make_sinusoidal(1.0, 2.0, 2 * math.pi)
    ax, = traj.axes
    assert (ax.starts_at_zero, ax.starts_at_rest) == (True, True)


@pytest.mark.parametrize("kwargs", [
    dict(R=1.0, Omega=0.0, T=1.0),
    dict(R=1.0, Omega=1.0, T=0.0),
    dict(R=-1.0, Omega=1.0, T=1.0),
])
def test_sinusoidal_validation(kwargs):
    with pytest.raises(ValueError):
        make_sinusoidal(**kwargs)


# --- circular -------------------------------------------------------------------

def test_circular_zero_radius():
    traj = make_circular(0.0, 1.0, 0.01, 1)
    assert traj.dimension == 2
    ts = np.linspace(0.0, traj.duration, 9)
    for ax in traj.axes:
        assert np.all(ax.b(ts) == 0.0)


def test_circular_starts_at_rest_at_origin():
    traj = make_circular(1.0, 1.0, 0.01, 1)
    for ax in traj.axes:
        assert float(ax.b(0.0)) == 0.0
        assert float(ax.bdot(0.0)) == 0.0
        assert (ax.starts_at_zero, ax.starts_at_rest) == (True, True)


def test_split_gives_one_trajectory_per_axis():
    line = make_kick(1.0, 0.1, 5.0)
    parts = line.split()
    assert len(parts) == 1 and parts[0] is line
    circ = make_circular(1.0, 0.5, 0.1, 1)
    parts = circ.split()
    assert [p.dimension for p in parts] == [1, 1]
    assert [p.duration for p in parts] == [circ.duration] * 2
    assert all(p.axes[0] is ax for p, ax in zip(parts, circ.axes))


def test_circular_completes_whole_revolutions():
    R, Omega, T_a, s = 1.5, 0.7, 0.05, 3
    traj = make_circular(R, Omega, T_a, s)
    assert traj.duration == pytest.approx(2 * math.pi * s / Omega + T_a, rel=1e-15)
    T = traj.duration
    # stops at the starting point with zero velocity
    assert float(traj.axes[0].b(T)) == pytest.approx(0.0, abs=1e-12 * R)
    assert float(traj.axes[1].b(T)) == pytest.approx(0.0, abs=1e-12 * R)
    assert float(traj.axes[0].bdot(T)) == 0.0
    assert float(traj.axes[1].bdot(T)) == 0.0


def test_circular_plateau_follows_the_circle_exactly():
    R, Omega, T_a = 2.0, 1.3, 0.04
    traj = make_circular(R, Omega, T_a, 2)
    ts = np.linspace(2 * T_a, traj.duration - 2 * T_a, 57)
    phase = Omega * (ts - 0.5 * T_a)
    bx = np.asarray(traj.axes[0].b(ts))
    by = np.asarray(traj.axes[1].b(ts))
    # rounding-limited identity: the plateau is the circle with no profile error
    assert np.max(np.abs(bx - R * (1 - np.cos(phase)))) < 1e-13 * R
    assert np.max(np.abs(by - R * np.sin(phase))) < 1e-13 * R
    assert np.max(np.abs((bx - R) ** 2 + by ** 2 - R ** 2)) < 1e-13 * R ** 2


def test_circular_warns_on_long_ramp():
    with pytest.warns(UserWarning, match="ramp"):
        make_circular(1.0, 1.0, 7.0, 5)


def test_circular_rejects_ramp_longer_than_revolutions():
    with pytest.raises(ValueError):
        make_circular(1.0, 1.0, 7.0, 1)


# --- polynomial -----------------------------------------------------------------

def test_polynomial_matches_constant_acceleration():
    poly = make_polynomial([0.0, 0.0, 0.5], 2.0)
    accel = make_constant_acceleration(1.0, 2.0)
    ts = np.linspace(0.0, 2.0, 17)
    assert np.allclose(poly.axes[0].b(ts), accel.axes[0].b(ts), rtol=0, atol=0)
    assert np.allclose(poly.axes[0].bdot(ts), accel.axes[0].bdot(ts), rtol=0, atol=0)
    assert np.allclose(poly.axes[0].bddot(ts), accel.axes[0].bddot(ts), rtol=0, atol=0)


def test_polynomial_constant_offset_flags():
    traj = make_polynomial([1.0], 1.0)
    assert traj.axes[0].starts_at_zero is False
    assert traj.axes[0].starts_at_rest is True
    moving = make_polynomial([0.0, 2.0], 1.0).axes[0]
    assert (moving.starts_at_zero, moving.starts_at_rest) == (True, False)


def test_polynomial_smoothstep_displacement():
    traj = make_polynomial([0.0, 0.0, 3.0, -2.0], 1.0)
    ax = traj.axes[0]
    assert float(ax.b(1.0)) == pytest.approx(1.0, rel=1e-15)
    assert float(ax.bdot(1.0)) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("coeffs", [[], [1.0, math.nan], [math.inf]])
def test_polynomial_validation(coeffs):
    with pytest.raises(ValueError):
        make_polynomial(coeffs, 1.0)


@pytest.mark.parametrize("rows, harmonic", [
    ([(0.0, 0.0, math.nan)], None),
    ([(0.0, math.inf)], None),
    ([(1.0,)], (math.inf, [(0.0, 1.0)], False)),
    ([(1.0,)], (1.0, [(0.0, -math.inf)], True)),
], ids=["nan-row", "inf-row", "inf-amplitude", "inf-phase-row"])
def test_piece_tables_must_be_finite(rows, harmonic):
    with pytest.raises(ValueError, match="finite"):
        _piecewise_axis([0.0], rows, 1.0, harmonic)


@pytest.mark.parametrize("build", [
    lambda: make_kick(1.0, 1e-300, 1.0),
    lambda: make_kick(1.0, 1e-300, 1.0, stop_at=0.5),
    lambda: make_kick(1.0, 1e300, 1e300),
    lambda: make_circular(0.5, 0.45, 1e-300, 1),
], ids=["kick-short-ramp", "kick-stop-short-ramp", "kick-long-ramp", "circular-short-ramp"])
def test_ramps_beyond_the_float_range_are_value_errors(build):
    # a power of T_a underflows to 0 or overflows: inf rows, refused by the table
    with pytest.raises(ValueError, match="finite"):
        build()


# --- cross-family properties ------------------------------------------------------

def _families():
    return [
        ("constant", make_constant_acceleration(0.7, 9.0)),
        ("kick", make_kick(1.3, 0.21, 9.0)),
        ("kick_stop", make_kick(0.8, 0.3, 9.0, stop_at=5.0)),
        ("sinusoid", make_sinusoidal(1.1, 1.7, 9.0)),
        ("circular", make_circular(0.9, 0.8, 0.05, 1)),
        ("poly", make_polynomial([0.0, 0.0, 0.4, -0.05, 0.002], 9.0)),
        ("piecewise", _piecewise(5, 9.0, [0.02, -0.05, 0.03])[0]),
        ("sinusoid_1e4", make_sinusoidal(1.1, 1.7, 1e4 * 2.0 * math.pi / 1.7)),
        ("circular_20", make_circular(0.9, 0.8, 0.05, 20)),
    ]


def _piecewise(segments, T, free):
    family = PiecewiseAccelerationFamily(segments)
    problem = TransportProblem(1.0, T, OscillatorParams.dimensionless(), family)
    return family.build(problem, free), family.accelerations(problem, free)


@pytest.mark.parametrize("name,traj", _families())
def test_central_differences_reproduce_derivatives(name, traj):
    rng = np.random.default_rng(42)
    T = traj.duration
    # the step resolves at most 100 drive periods: over 1e4 periods 1e-6 T is
    # 1/16 rad of phase, and the difference quotient's own error would be ~1e-3;
    # nor may it span more than 1e-4 of the shortest piece (the axes share edges)
    edges = (0.0, *traj.axes[0].breakpoints, T)
    h = 1e-6 * min(T, 100 * (traj.axes[0].feature_time or T),
                   100 * min(hi - lo for lo, hi in zip(edges, edges[1:])))
    ts = rng.uniform(2 * h, T - 2 * h, size=100)
    # and three instants inside each piece, however short
    ts = np.concatenate([ts, *(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), size=3)
                               for lo, hi in zip(edges, edges[1:]))])
    # stay clear of acceleration kinks, where b'' has no two-sided derivative
    for ax in traj.axes:
        for cut in ax.breakpoints + (0.0, T):
            ts = ts[np.abs(ts - cut) > 10 * h]
        b = np.asarray(ax.b(ts + h))
        bm = np.asarray(ax.b(ts - h))
        v = np.asarray(ax.bdot(ts))
        v_scale = max(np.max(np.abs(v)), 1e-12)
        assert np.max(np.abs((b - bm) / (2 * h) - v)) < 1e-6 * v_scale
        vp = np.asarray(ax.bdot(ts + h))
        vm = np.asarray(ax.bdot(ts - h))
        a = np.asarray(ax.bddot(ts))
        a_scale = max(np.max(np.abs(a)), 1e-12)
        assert np.max(np.abs((vp - vm) / (2 * h) - a)) < 1e-6 * a_scale


def test_breakpoints_are_the_interior_piece_edges():
    cases = [
        (make_kick(1.3, 0.21, 9.0), (0.21,)),
        (make_kick(1.3, 9.0, 9.0), ()),
        (make_kick(0.8, 0.3, 9.0, stop_at=5.0), (0.3, 5.0, 5.3)),
        (make_kick(0.8, 0.3, 9.0, stop_at=8.7), (0.3, 8.7)),
        (make_circular(0.9, 0.8, 0.05, 1), (0.05, 2.0 * math.pi / 0.8)),
        (make_circular(0.9, 0.8, 0.05, 20), (0.05, 40.0 * math.pi / 0.8)),
        (make_sinusoidal(1.1, 1.7, 1e4 * 2.0 * math.pi / 1.7), ()),
        (_piecewise(5, 9.0, [0.02, -0.05, 0.03])[0], tuple(1.8 * np.arange(1, 5))),
        (make_constant_acceleration(0.7, 9.0), ()),
    ]
    for traj, edges in cases:
        for ax in traj.axes:
            assert ax.breakpoints == pytest.approx(edges, rel=1e-15)


def test_piecewise_acceleration_at_an_edge_is_the_right_hand_segment():
    traj, accel = _piecewise(5, 9.0, [0.02, -0.05, 0.03])
    ax = traj.axes[0]
    edges = np.array(ax.breakpoints)
    assert np.array_equal(ax.bddot(edges), accel[1:])
    assert [float(ax.bddot(t)) for t in edges] == accel[1:].tolist()
    # inside the segments and at the ends
    assert np.array_equal(ax.bddot(edges - 0.9), accel[:-1])
    assert float(ax.bddot(0.0)) == accel[0]
    assert float(ax.bddot(9.0)) == accel[-1]


def test_linear_offset_leaves_acceleration_unchanged():
    base = make_sinusoidal(1.0, 1.3, 8.0).axes[0]
    alpha, beta = 0.7, -0.4
    shifted = Axis(
        b=lambda t: base.b(t) + alpha + beta * np.asarray(t, dtype=float),
        bdot=lambda t: base.bdot(t) + beta,
        bddot=base.bddot,
        starts_at_zero=False,
        starts_at_rest=False,
    )
    ts = np.linspace(0.0, 8.0, 101)
    assert np.all(np.asarray(shifted.bddot(ts)) == np.asarray(base.bddot(ts)))


def test_make_axis_infers_boundary_flags():
    ax = make_axis(
        b=lambda t: np.sin(np.asarray(t, dtype=float)) ** 2,
        bdot=lambda t: np.sin(2 * np.asarray(t, dtype=float)),
        bddot=lambda t: 2 * np.cos(2 * np.asarray(t, dtype=float)),
        duration=3.0,
    )
    assert ax.starts_at_zero and ax.starts_at_rest
    ax2 = make_axis(
        b=lambda t: 1.0 + 0.0 * np.asarray(t, dtype=float),
        bdot=lambda t: 0.0 * np.asarray(t, dtype=float),
        bddot=lambda t: 0.0 * np.asarray(t, dtype=float),
        duration=3.0,
    )
    assert not ax2.starts_at_zero
    assert ax2.starts_at_rest


def test_trajectory_dimension_validation():
    from trapmotion import Trajectory

    ax = make_constant_acceleration(1.0, 1.0).axes[0]
    with pytest.raises(ValueError):
        Trajectory((ax, ax, ax), 1.0)
    with pytest.raises(ValueError):
        Trajectory((ax,), 0.0)
