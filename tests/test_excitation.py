import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trapmotion import (
    Axis,
    Grid,
    NumericalError,
    OscillatorParams,
    QuadratureConfig,
    ResonanceError,
    closed_form_circular,
    closed_form_circular_G,
    closed_form_circular_slow,
    closed_form_constant_accel,
    closed_form_kick_G,
    closed_form_kick_stop,
    closed_form_sinusoidal,
    closed_form_sinusoidal_resonance,
    coherent_state,
    excitation_amplitude,
    excitation_profile,
    fixed_frame_delta,
    fock_state,
    make_constant_acceleration,
    make_circular,
    make_grid,
    make_kick,
    make_polynomial,
    make_sinusoidal,
    measure_transitions,
    moving_frame_coherent_state,
    propagate,
    uniform_motion_gamma,
)
import trapmotion.quadrature as quadrature
from trapmotion.quadrature import BlockGrid

TWO_PI = 2.0 * math.pi


# --- configuration -------------------------------------------------------------

def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(steps_per_period=8)
    with pytest.raises(ValueError):
        QuadratureConfig(tol=0.0)


def test_time_range_is_validated(params):
    traj = make_constant_acceleration(1.0, 1.0)
    with pytest.raises(ValueError):
        excitation_amplitude(traj, params, -0.5)
    with pytest.raises(ValueError):
        excitation_amplitude(traj, params, 2.0)
    with pytest.raises(ValueError):
        fixed_frame_delta(traj, params, 2.0)


# --- excitation amplitude ---------------------------------------------------------

def test_zero_trajectory_gives_zero_everything(params):
    traj = make_constant_acceleration(0.0, 10.0)
    res = excitation_amplitude(traj, params, 4.0)
    assert res.u == 0.0
    assert res.gamma == 0.0
    assert res.phi == 0.0
    assert fixed_frame_delta(traj, params, 4.0) == 0.0


def test_constant_acceleration_gamma_at_half_period(params):
    traj = make_constant_acceleration(1.0, 8.0)
    res = excitation_amplitude(traj, params, math.pi)
    assert res.gamma == pytest.approx(2.0, rel=1e-6)


def test_constant_acceleration_returns_after_each_period(params):
    traj = make_constant_acceleration(1.0, 6 * TWO_PI)
    for k in (1, 3, 5):
        res = excitation_amplitude(traj, params, k * TWO_PI, with_phase=False)
        assert res.gamma < 1e-10


@pytest.mark.parametrize("t", [0.7, 2.1, math.pi, 5.9])
def test_constant_acceleration_matches_closed_form(params, t):
    traj = make_constant_acceleration(0.8, 8.0)
    res = excitation_amplitude(traj, params, t, with_phase=False)
    assert res.gamma == pytest.approx(
        closed_form_constant_accel(0.8, params, t), rel=1e-6, abs=1e-12)


def test_gamma_is_modulus_squared_of_u(params):
    traj = make_sinusoidal(1.0, 0.7, 30.0)
    for t in (1.0, 7.3, 22.1):
        res = excitation_amplitude(traj, params, t, with_phase=False)
        expect = abs(res.u) ** 2
        assert res.gamma == pytest.approx(expect, rel=1e-14)


_ONE_AXIS_CALLS = {
    "excitation_amplitude": lambda traj, p, state: excitation_amplitude(traj, p, 1.0),
    "fixed_frame_delta": lambda traj, p, state: fixed_frame_delta(traj, p, 1.0),
    "excitation_profile": lambda traj, p, state: excitation_profile(traj, p, [1.0]),
    "make_grid": lambda traj, p, state: make_grid(traj, p, 1024),
    "coherent_state": lambda traj, p, state: coherent_state(0.5, p, state.grid, 1.0, traj),
    "moving_frame_coherent_state":
        lambda traj, p, state: moving_frame_coherent_state(0.5, p, state.grid, 1.0, traj),
    "propagate": lambda traj, p, state: propagate(state, traj, p, 1.0, 500),
    "measure_transitions": lambda traj, p, state: measure_transitions(state, traj, p, 4),
}


@pytest.mark.parametrize("name", sorted(_ONE_AXIS_CALLS))
def test_two_dimensional_trajectory_is_refused(params, name):
    # each axis is its own oscillator: a 2-D trajectory must be split, not
    # silently read as its x axis
    state = fock_state(0, 0.0, 0.0, params, Grid(-20.0, 20.0, 1024))
    with pytest.raises(ValueError, match="split"):
        _ONE_AXIS_CALLS[name](make_circular(1.0, 0.5, 0.1, 1), params, state)


def test_accepts_bare_axis(params):
    traj = make_constant_acceleration(1.0, 8.0)
    res_t = excitation_amplitude(traj, params, 2.0)
    res_a = excitation_amplitude(traj.axes[0], params, 2.0)
    assert res_t.u == res_a.u


def test_u_depends_only_on_acceleration(params):
    # adding alpha + beta*t to the path leaves u unchanged; both on quadrature
    base = dataclasses.replace(make_sinusoidal(1.0, 1.4, 20.0).axes[0], pieces=None)
    shifted = Axis(
        b=lambda t: base.b(t) + 2.0 - 0.3 * np.asarray(t, dtype=float),
        bdot=lambda t: base.bdot(t) - 0.3,
        bddot=base.bddot,
        starts_at_zero=False,
        starts_at_rest=False,
        feature_time=base.feature_time,
    )
    for t in (3.0, 11.0, 17.5):
        u0 = excitation_amplitude(base, params, t, with_phase=False).u
        u1 = excitation_amplitude(shifted, params, t, with_phase=False).u
        assert u1 == pytest.approx(u0, rel=1e-12)


def test_phase_not_applicable_without_rest_start(params):
    traj = make_polynomial([0.5, 0.2, 0.1], 5.0)  # b(0) != 0, b'(0) != 0
    res = excitation_amplitude(traj, params, 2.0)
    assert res.phi is None
    assert res.gamma > 0.0


def test_phase_matches_hand_integrated_closed_form(params):
    # For b'' = a the amplitude is u(t) = a sqrt(M/(2 hbar w^3)) (e^{-iwt} - 1);
    # integrating Im[u' u*] + M b b''/hbar by hand gives
    # phi(t) = (M a^2 / hbar) * [t^3/6 - (t - sin(w t)/w) / (2 w^2)].
    a = 1.3
    traj = make_constant_acceleration(a, 8.0)
    for t in (1.0, math.pi, 6.5):
        res = excitation_amplitude(traj, params, t)
        want = a * a * (t ** 3 / 6.0 - (t - math.sin(t)) / 2.0)
        assert res.phi == pytest.approx(want, rel=1e-7, abs=1e-9)


def test_phase_matches_independent_quadrature(params):
    # scipy integrates the same phase integrand built from the analytic u(tau)
    from scipy.integrate import quad

    a, t_final = 0.9, 5.2
    traj = make_constant_acceleration(a, 8.0)
    res = excitation_amplitude(traj, params, t_final)

    amp = a * math.sqrt(1.0 / 2.0)

    def g(tau):
        u = amp * (np.exp(-1j * tau) - 1.0)
        udot = amp * (-1j) * np.exp(-1j * tau)
        return float(np.imag(udot * np.conj(u))) + 0.5 * a * a * tau ** 2

    want, _ = quad(g, 0.0, t_final, limit=200)
    assert res.phi == pytest.approx(want, rel=1e-8, abs=1e-10)


def test_non_convergence_raises_with_residual_estimate(params, monkeypatch):
    # a jump the quadrature is not told about defeats grid doubling
    ax = Axis(
        b=lambda t: np.where(np.asarray(t, dtype=float) < 0.777, 0.0, 1.0),
        bdot=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        bddot=lambda t: np.where(np.asarray(t, dtype=float) < 0.777, 1.0, -1.0),
        starts_at_zero=True,
        starts_at_rest=True,
    )
    from trapmotion import NumericalError

    monkeypatch.setattr(quadrature, "MAX_DOUBLINGS", 4)
    cfg = QuadratureConfig(tol=1e-12)
    with pytest.raises(NumericalError) as info:
        excitation_amplitude(ax, params, 2.0, cfg, with_phase=False)
    assert info.value.residual is not None


@pytest.mark.parametrize("with_phase", [False, True])
def test_values_beyond_the_float_range_are_numerical_errors(params, with_phase):
    # |u|^2 overflows to inf here; it is refused, not returned (nor an OverflowError)
    traj = make_sinusoidal(1e300, 0.7, 20.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError):
        excitation_amplitude(traj, params, 20.0, with_phase=with_phase)


def _simpson(g, t):
    """integral_0^t g by composite Simpson on the sampled g, doubling the
    grid until two estimates agree to 1e-12: a reference independent of the
    Filon weights."""
    n, prev = 64, None
    while True:
        grid = BlockGrid([(0.0, t, n, 0, n)])
        got = complex(grid.integral(g(grid.ts))[-1])
        if prev is not None and abs(got - prev) <= 1e-12:
            return got
        n, prev = 2 * n, got


def test_filon_scheme_agrees_with_simpson(params):
    traj = make_sinusoidal(1.0, 0.4, 40.0)
    cfg = QuadratureConfig(tol=1e-9)
    bddot = traj.axes[0].bddot
    for t in (9.7, 31.4):
        uf = excitation_amplitude(traj, params, t, cfg, with_phase=False).u
        us = U_PREF * _simpson(lambda x: bddot(x) * np.exp(-1j * x), t)
        assert uf == pytest.approx(us, abs=1e-8)


# --- single-instant integrals on a bare axis ---------------------------------------

def _axis(b=None, bddot=None, breakpoints=()):
    """Bare axis from the two evaluators the single-instant calls read; a
    missing one raises if sampled."""
    def missing(t):
        raise AssertionError("sampled an evaluator this integral does not need")

    return Axis(b=b or missing, bdot=missing, bddot=bddot or missing,
                starts_at_zero=True, starts_at_rest=True, breakpoints=breakpoints)


U_PREF = -1j / math.sqrt(2.0)       # u = U_PREF * integral b'' e^{-i t}, dimensionless
DELTA_PREF = -1j / math.sqrt(2.0)   # delta = DELTA_PREF * integral b e^{+i t}


def test_single_instant_integrals_converge_to_analytic_values(params):
    # b'' = 1 for u; b = t^2 / 2 for delta
    ax = _axis(b=lambda t: 0.5 * np.asarray(t) ** 2, bddot=lambda t: np.ones_like(np.asarray(t)))
    cfg = QuadratureConfig(tol=1e-10)
    T = 5.0
    u = excitation_amplitude(ax, params, T, cfg, with_phase=False).u
    assert u == pytest.approx(U_PREF * (np.exp(-1j * T) - 1.0) / -1j, abs=1e-10)
    moment = np.exp(1j * T) * (-1j * T * T + 2.0 * T + 2j) - 2j   # integral t^2 e^{it}
    delta = fixed_frame_delta(ax, params, T, cfg)
    assert delta == pytest.approx(DELTA_PREF * 0.5 * moment, abs=1e-9)


def test_single_instant_integrals_of_zero_span_and_zero_integrand(params):
    one = lambda t: np.ones_like(np.asarray(t, dtype=float))  # noqa: E731
    ones = _axis(b=one, bddot=one)
    assert excitation_amplitude(ones, params, 0.0, with_phase=False).u == 0.0
    assert fixed_frame_delta(ones, params, 0.0) == 0.0
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))  # noqa: E731
    zeros = _axis(b=zero, bddot=zero)
    assert excitation_amplitude(zeros, params, 1.0, with_phase=False).u == 0.0
    assert fixed_frame_delta(zeros, params, 1.0) == 0.0


def test_single_instant_integrals_validate_inputs(params):
    ax = _axis(b=lambda t: np.asarray(t), bddot=lambda t: np.asarray(t))
    with pytest.raises(ValueError):
        excitation_amplitude(ax, params, -1.0, with_phase=False)
    with pytest.raises(ValueError):
        fixed_frame_delta(ax, params, -1.0)


def test_single_instant_integrals_agree_across_schemes(params):
    f = lambda t: np.cos(0.3 * np.asarray(t)) * (1 + 0.1 * np.asarray(t))  # noqa: E731
    ax = _axis(b=f, bddot=f)
    filon = QuadratureConfig(tol=1e-10)
    for t in (6.0, 20.0):
        scale = t * 2.0   # bounds the L1 size of f times the prefactor
        u_s = U_PREF * _simpson(lambda x: f(x) * np.exp(-1j * x), t)
        u_f = excitation_amplitude(ax, params, t, filon, with_phase=False).u
        assert abs(u_s - u_f) <= 1e-9 * scale
        delta_s = DELTA_PREF * _simpson(lambda x: f(x) * np.exp(1j * x), t)
        assert abs(delta_s - fixed_frame_delta(ax, params, t, filon)) <= 1e-9 * scale


@pytest.mark.parametrize("which", ["u", "delta"])
def test_hidden_jump_needs_a_breakpoint(params, which, monkeypatch):
    t0 = 0.773  # never lands on a uniform grid node of [0, 2]

    def step(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < t0, 1.0, -1.0)

    def integral(breakpoints):
        if which == "u":
            ax = _axis(bddot=step, breakpoints=breakpoints)
            return excitation_amplitude(ax, params, 2.0, with_phase=False).u / U_PREF
        ax = _axis(b=step, breakpoints=breakpoints)
        return fixed_frame_delta(ax, params, 2.0) / DELTA_PREF

    with monkeypatch.context() as patched, pytest.raises(NumericalError) as info:
        patched.setattr(quadrature, "MAX_DOUBLINGS", 6)
        integral(())
    assert info.value.residual is not None
    sign = -1.0 if which == "u" else 1.0       # e^{-it} for u, e^{+it} for delta
    piece = lambda a, b: (np.exp(sign * 1j * b) - np.exp(sign * 1j * a)) / (sign * 1j)  # noqa: E731
    assert integral((t0,)) == pytest.approx(piece(0.0, t0) - piece(t0, 2.0), abs=1e-9)


def test_each_single_instant_call_samples_only_its_own_kernel(params):
    # gamma-only u reads b'' alone and delta reads b alone: the other raises
    traj = dataclasses.replace(make_kick(1.0, 0.01 * TWO_PI, 12.0, stop_at=5.0).axes[0],
                               pieces=None)
    full = traj
    only_acc = _axis(bddot=full.bddot, breakpoints=full.breakpoints)
    only_pos = _axis(b=full.b, breakpoints=full.breakpoints)
    u = excitation_amplitude(only_acc, params, 9.0, with_phase=False).u
    assert u == excitation_amplitude(traj, params, 9.0, with_phase=False).u
    delta = fixed_frame_delta(only_pos, params, 9.0)
    assert delta == fixed_frame_delta(traj, params, 9.0)


# --- kick ------------------------------------------------------------------------

def test_kick_quadrature_reaches_steady_G(params):
    v = 1.0
    traj = make_kick(v, 0.01 * TWO_PI, 10.0)
    G = closed_form_kick_G(v, params)
    res = excitation_amplitude(traj, params, 7.0, with_phase=False)
    assert res.gamma == pytest.approx(G, rel=0.01)


def test_kick_plateau_is_flat(params):
    traj = make_kick(1.0, 0.01 * TWO_PI, 10.0)
    values = [excitation_amplitude(traj, params, t, with_phase=False).gamma
              for t in (0.5, 2.0, 5.5, 9.0)]
    spread = (max(values) - min(values)) / values[0]
    assert spread < 1e-8


def test_kick_closed_forms(params):
    assert closed_form_kick_G(0.0, params) == 0.0
    si = OscillatorParams.si(1e-25, 100.0)
    G = closed_form_kick_G(1e-3, si)
    assert 4.6 <= G <= 4.9
    # sudden stop half a period after the start quadruples the excitation
    v = 2.0
    G = closed_form_kick_G(v, params)
    assert closed_form_kick_stop(v, params, math.pi) == pytest.approx(4 * G, rel=1e-15)


def test_kick_with_stop_matches_closed_form(params):
    v, T_a, stop = 1.0, 0.01 * TWO_PI, 5.0
    traj = make_kick(v, T_a, 12.0, stop_at=stop)
    res = excitation_amplitude(traj, params, 10.0, with_phase=False)
    assert res.gamma == pytest.approx(closed_form_kick_stop(v, params, stop), rel=0.01)


# --- sinusoidal --------------------------------------------------------------------

def test_sinusoidal_closed_form_trivials(params):
    assert closed_form_sinusoidal(0.0, 2.0, params, 5.0) == 0.0
    # R=1, Omega=2, s=1 return instant: 4 G (Omega w)^2/(Omega^2-w^2)^2 = 16/9 G, G = 2
    value = closed_form_sinusoidal(1.0, 2.0, params, TWO_PI / 2.0)
    assert value == pytest.approx(32.0 / 9.0, rel=1e-12)


def test_sinusoidal_quadrature_matches_closed_form(params):
    rng = np.random.default_rng(3)
    for _ in range(6):
        R = rng.uniform(0.3, 1.5)
        Omega = rng.uniform(0.2, 2.5)
        if abs(Omega - 1.0) < 0.06:
            Omega += 0.2
        traj = make_sinusoidal(R, Omega, 40.0)
        t = rng.uniform(1.0, 39.0)
        got = excitation_amplitude(traj, params, t, with_phase=False).gamma
        want = closed_form_sinusoidal(R, Omega, params, t)
        scale = closed_form_kick_G(R * Omega, params)
        assert abs(got - want) <= 1e-6 * max(want, scale)


def test_sinusoidal_resonance_guard(params):
    with pytest.raises(ResonanceError):
        closed_form_sinusoidal(1.0, 1.0, params, 3.0)
    assert closed_form_sinusoidal(1.0, 1.0 + 1e-6, params, 3.0) > 0.0


def test_resonance_error_is_a_package_error(params):
    from trapmotion import TrapmotionError

    with pytest.raises(TrapmotionError):
        closed_form_sinusoidal(1.0, 1.0, params, 3.0)
    try:
        closed_form_circular(1.0, 1.0, params, 1)
    except ValueError as err:  # existing ValueError handlers still catch it
        assert isinstance(err, ResonanceError)
    else:
        pytest.fail("no ResonanceError at resonance")


def test_sinusoidal_resonance_value(params):
    # G (pi s)^2 at the return instant, and quadrature agrees at resonance
    R, s = 0.1, 2
    want = closed_form_sinusoidal_resonance(R, params, s)
    G = params.mass * (R * params.omega) ** 2 / (2 * params.hbar * params.omega)
    assert want == pytest.approx(G * (math.pi * s) ** 2, rel=1e-15)
    traj = make_sinusoidal(R, 1.0, s * TWO_PI)
    got = excitation_amplitude(traj, params, s * TWO_PI, with_phase=False).gamma
    assert got == pytest.approx(want, rel=1e-6)


# --- circular ----------------------------------------------------------------------

def test_circular_closed_form_trivials(params):
    assert closed_form_circular(0.0, 0.5, params, 1) == 0.0
    # s pi w / Omega a multiple of pi: no net excitation
    assert closed_form_circular(1.0, 0.5, params, 1) == pytest.approx(0.0, abs=1e-30)
    si = OscillatorParams.si(1e-25, 100.0)
    G = closed_form_circular_G(0.1, 1e-2, si)
    assert 18.5 <= G <= 19.5
    with pytest.raises(ResonanceError):
        closed_form_circular(1.0, 1.0, params, 1)


def test_circular_slow_limit_consistent(params):
    # for Omega << omega the full expression approaches the slow form
    R, Omega, s = 1.0, 0.02, 3
    full = closed_form_circular(R, Omega, params, s)
    slow = closed_form_circular_slow(R, Omega, params, s)
    assert full == pytest.approx(slow, rel=1e-3)


def test_circular_quadrature_matches_closed_form(params):
    T_a = 0.02 * TWO_PI
    rng = np.random.default_rng(11)
    for _ in range(5):
        R = rng.uniform(0.3, 1.5)
        Omega = rng.uniform(0.25, 2.5)
        if abs(Omega - 1.0) < 0.06:
            Omega += 0.2
        s = int(rng.integers(1, 4))
        traj = make_circular(R, Omega, T_a, s)
        w = sum(
            excitation_amplitude(part, params, traj.duration, with_phase=False).gamma
            for part in traj.split()
        )
        want = closed_form_circular(R, Omega, params, s)
        scale = max(want, closed_form_circular_G(R, Omega, params))
        assert abs(w - want) <= 0.02 * scale


# --- fixed frame -------------------------------------------------------------------

def test_uniform_motion_gamma_values(params):
    assert uniform_motion_gamma(0.0, params, 5.0) == 0.0
    # (1/2) (2 pi)^2: only the secular term survives at a full period
    assert uniform_motion_gamma(1.0, params, TWO_PI) == pytest.approx(
        2 * math.pi ** 2, rel=1e-12)
    assert uniform_motion_gamma(1.0, params, 1e-4) < 1e-12


def test_fixed_frame_delta_matches_uniform_motion_law(params):
    v = 1.0
    traj = make_polynomial([0.0, v], 30.0)
    for t in (1.0, 6.0, 20.0):
        delta = fixed_frame_delta(traj, params, t)
        assert abs(delta) ** 2 == pytest.approx(
            uniform_motion_gamma(v, params, t), rel=1e-6)


def test_delta_and_u_coincide_at_return_instants(params):
    # centers of the moving and fixed oscillators coincide there
    R, Omega, s = 1.0, 0.3, 2
    t_s = TWO_PI * s / Omega
    traj = make_sinusoidal(R, Omega, t_s + 1.0)
    cfg = QuadratureConfig(tol=1e-10)
    gamma = excitation_amplitude(traj, params, t_s, cfg, with_phase=False).gamma
    delta_sq = abs(fixed_frame_delta(traj, params, t_s, cfg)) ** 2
    assert abs(delta_sq - gamma) < 1e-8


def test_delta_and_u_disagree_in_general(params):
    # kicked trap: bounded gamma, unbounded fixed-frame parameter
    traj = make_kick(1.0, 0.01 * TWO_PI, 10.0)
    t = TWO_PI
    gamma = excitation_amplitude(traj, params, t, with_phase=False).gamma
    delta_sq = abs(fixed_frame_delta(traj, params, t)) ** 2
    assert abs(delta_sq - gamma) > 1e-2


# --- SI/dimensionless consistency ---------------------------------------------------

def test_si_and_dimensionless_give_same_dimensionless_gamma():
    # gamma is dimensionless: the SI kick at matching G reproduces it
    si = OscillatorParams.si(1e-25, 100.0)
    G_si = closed_form_kick_G(1e-3, si)
    traj = make_kick(1e-3, 0.01 * TWO_PI / si.omega, 10.0 / si.omega)
    got = excitation_amplitude(traj, si, 5.0 / si.omega, with_phase=False).gamma
    assert got == pytest.approx(G_si, rel=0.01)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-2.0, 2.0, allow_nan=False),
    t=st.floats(0.01, 7.9),
)
def test_property_quadrature_tracks_closed_form(a, t):
    params = OscillatorParams.dimensionless()
    traj = make_constant_acceleration(a, 8.0)
    res = excitation_amplitude(traj, params, t, with_phase=False)
    want = closed_form_constant_accel(a, params, t)
    assert res.gamma == pytest.approx(want, rel=1e-6, abs=1e-12)
