"""One-pass time profiles: excitation_profile against closed forms and the
single-instant functions."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

import trapmotion.quadrature as quadrature
from trapmotion import (
    Axis,
    NumericalError,
    QuadratureConfig,
    closed_form_constant_accel,
    closed_form_kick_G,
    closed_form_kick_stop,
    closed_form_sinusoidal,
    excitation_amplitude,
    excitation_profile,
    fixed_frame_delta,
    make_constant_acceleration,
    make_kick,
    make_polynomial,
    make_sinusoidal,
)
from trapmotion.cli import Scenario, build_quadrature, parse_config
from trapmotion.quadrature import initial_intervals

TWO_PI = 2.0 * math.pi
# the values old configs give [run] quadrature_scheme, which one panel rule
# now serves alike
SCHEMES = ("adaptive-simpson", "composite-filon")
# unsorted, with a duplicate and two zeros
MIXED = (5.3, 0.0, 1.7, 7.9, 1.7, 3.2, 0.0)


def _cfg(scheme):
    scn = Scenario(parse_config(f"[run]\nquadrature_scheme = {scheme}\n"))
    cfg = build_quadrature(scn)
    assert cfg == QuadratureConfig()
    return cfg


@pytest.mark.parametrize("scheme", SCHEMES)
def test_constant_acceleration_gamma_and_phase(params, scheme):
    a = 1.3
    traj = make_constant_acceleration(a, 8.0)
    prof = excitation_profile(traj, params, MIXED, _cfg(scheme))
    for t, gamma, phi in zip(MIXED, prof.gamma, prof.phi):
        assert gamma == pytest.approx(closed_form_constant_accel(a, params, t), rel=1e-6, abs=1e-12)
        # hand-integrated phase, as in test_excitation
        want = a * a * (t ** 3 / 6.0 - (t - math.sin(t)) / 2.0)
        assert phi == pytest.approx(want, rel=1e-7, abs=1e-9)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_off_resonance_sinusoid(params, scheme):
    R, Omega = 0.8, 0.55
    traj = make_sinusoidal(R, Omega, 40.0)
    times = (33.0, 0.0, 4.1, 19.6, 4.1, 38.5)
    prof = excitation_profile(traj, params, times, _cfg(scheme))
    scale = closed_form_kick_G(R * Omega, params)
    for t, gamma in zip(times, prof.gamma):
        want = closed_form_sinusoidal(R, Omega, params, t) if t else 0.0
        assert abs(gamma - want) <= 1e-6 * max(want, scale)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_kick_with_stop(params, scheme):
    v, T_a, stop = 1.0, 0.01 * TWO_PI, 5.0
    traj = make_kick(v, T_a, 12.0, stop_at=stop)
    times = (10.0, 2.0, 0.0, 7.5, 2.0, 4.0)
    prof = excitation_profile(traj, params, times, _cfg(scheme))
    G = closed_form_kick_G(v, params)
    for t, gamma in zip(times, prof.gamma):
        if t == 0.0:
            assert gamma == 0.0
        elif t < stop:
            assert gamma == pytest.approx(G, rel=0.01)
        else:
            assert gamma == pytest.approx(closed_form_kick_stop(v, params, stop), rel=0.01)


def _polynomial_u(A, B, t):
    # b'' = A + B tau, omega = 1: u = -i/sqrt(2) * integral_0^t b'' e^{-i tau}
    e = cmath.exp(-1j * t)
    integral = A * 1j * (e - 1.0) + B * (e * (1j * t + 1.0) - 1.0)
    return -1j / math.sqrt(2.0) * integral


@pytest.mark.parametrize("scheme", SCHEMES)
def test_polynomial_matches_exact_u(params, scheme):
    c2, c3 = 0.4, -0.03
    traj = make_polynomial([0.0, 0.0, c2, c3], 9.0)
    prof = excitation_profile(traj, params, MIXED, _cfg(scheme))
    A, B = 2.0 * c2, 6.0 * c3
    for t, u in zip(MIXED, prof.u):
        l1 = abs(A) * t + abs(B) * t * t / 2.0
        assert abs(u - _polynomial_u(A, B, t)) <= 1e-7 * l1 + 1e-15


@pytest.mark.parametrize("scheme", SCHEMES)
def test_delta_agrees_with_fixed_frame_delta(params, scheme):
    cfg = _cfg(scheme)
    traj = make_kick(1.0, 0.01 * TWO_PI, 12.0, stop_at=5.0)
    times = (11.0, 0.5, 5.0, 8.2)
    prof = excitation_profile(traj, params, times, cfg)
    for t, delta in zip(times, prof.delta):
        want = fixed_frame_delta(traj, params, t, cfg)
        assert abs(delta - want) <= 1e-7 * abs(want)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_instants_on_kick_breakpoints(params, scheme):
    cfg = _cfg(scheme)
    T_a, stop = 0.01 * TWO_PI, 5.0
    traj = make_kick(1.0, T_a, 12.0, stop_at=stop)
    times = (stop + T_a, T_a, stop, 9.0)
    assert set(times[:3]) <= set(traj.axes[0].breakpoints)
    prof = excitation_profile(traj, params, times, cfg)
    for t, u, phi in zip(times, prof.u, prof.phi):
        single = excitation_amplitude(traj, params, t, cfg)
        assert abs(u - single.u) <= 1e-7 * max(abs(single.u), 1.0)
        assert phi == pytest.approx(single.phi, rel=1e-7, abs=1e-9)
    G = closed_form_kick_G(1.0, params)
    assert prof.gamma[1] == pytest.approx(G, rel=0.01)


def test_phase_is_none_for_offset_start(params):
    traj = make_polynomial([0.5, 0.2, 0.1], 5.0)
    times = (2.0, 0.0, 4.5)
    prof = excitation_profile(traj, params, times)
    assert prof.phi is None
    for t, u in zip(times, prof.u):
        want = excitation_amplitude(traj, params, t, with_phase=False).u
        assert abs(u - want) <= 1e-7 * max(abs(want), 1.0)


def test_output_follows_input_order(params):
    traj = make_sinusoidal(0.6, 0.7, 30.0)
    times = [25.0, 3.0, 17.0, 0.0, 9.5, 3.0]
    prof = excitation_profile(traj, params, times)
    ordered = excitation_profile(traj, params, sorted(times))
    assert list(prof.t) == times
    perm = np.argsort(times, kind="stable")
    np.testing.assert_array_equal(prof.u[perm], ordered.u)
    np.testing.assert_array_equal(prof.phi[perm], ordered.phi)
    np.testing.assert_array_equal(prof.delta[perm], ordered.delta)
    assert prof.u[1] == prof.u[5]


def test_single_instant_is_excitation_amplitude(params):
    traj = make_kick(1.0, 0.01 * TWO_PI, 10.0, stop_at=4.0)
    prof = excitation_profile(traj, params, [7.0])
    res = excitation_amplitude(traj, params, 7.0)
    assert (res.u, res.gamma, res.phi) == (prof.u[0], prof.gamma[0], prof.phi[0])


def _quadrature_axis(traj):
    """The trajectory's axis without its piece table, so on the quadrature path."""
    return dataclasses.replace(traj.axes[0], pieces=None)


def test_reports_level_and_intervals(params):
    t = 6.0
    prof = excitation_profile(_quadrature_axis(make_constant_acceleration(1.0, 8.0)), params, [t])
    assert prof.level >= 1
    assert prof.n_intervals == initial_intervals(t, 1.0, None, 64) << prof.level
    idle = excitation_profile(_quadrature_axis(make_constant_acceleration(1.0, 8.0)), params,
                              [0.0, 0.0])
    assert (idle.level, idle.n_intervals) == (0, 0)
    assert list(idle.gamma) == [0.0, 0.0] and list(idle.phi) == [0.0, 0.0]


def test_chunked_batches_match_one_batch(params, monkeypatch):
    traj = _quadrature_axis(make_kick(1.0, 0.01 * TWO_PI, 40.0, stop_at=17.0))
    times = (39.0, 17.0, 5.5, 22.25)
    whole = excitation_profile(traj, params, times)
    monkeypatch.setattr(quadrature, "BATCH_INTERVALS", 64)
    chunked = excitation_profile(traj, params, times)
    assert chunked.level == whole.level
    np.testing.assert_allclose(chunked.u, whole.u, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(chunked.phi, whole.phi, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(chunked.delta, whole.delta, rtol=1e-12)


def test_non_convergence_raises_with_residual(params, monkeypatch):
    # the hidden jump of test_excitation's non-convergence case
    ax = Axis(
        b=lambda t: np.where(np.asarray(t, dtype=float) < 0.777, 0.0, 1.0),
        bdot=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        bddot=lambda t: np.where(np.asarray(t, dtype=float) < 0.777, 1.0, -1.0),
        starts_at_zero=True,
        starts_at_rest=True,
    )
    monkeypatch.setattr(quadrature, "MAX_DOUBLINGS", 4)
    cfg = QuadratureConfig(tol=1e-12)
    with pytest.raises(NumericalError) as info:
        excitation_profile(ax, params, [2.0, 1.0], cfg)
    assert info.value.residual is not None
    assert info.value.residual > 0.0


def test_interval_cap_raises(params, monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_TOTAL_INTERVALS", 1000)
    with pytest.raises(NumericalError, match="quadrature intervals"):
        excitation_profile(_quadrature_axis(make_sinusoidal(0.5, 0.7, 200.0)), params,
                           [150.0, 190.0])


def test_times_are_validated(params):
    traj = make_constant_acceleration(1.0, 1.0)
    with pytest.raises(ValueError):
        excitation_profile(traj, params, [0.5, -0.1])
    with pytest.raises(ValueError):
        excitation_profile(traj, params, [0.5, 2.0])
    with pytest.raises(ValueError):
        excitation_profile(traj, params, [float("nan")])
