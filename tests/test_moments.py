"""The closed-form (moment) path against the quadrature path and mpmath.

Every axis built from a piece table carries ``Axis.pieces`` and takes the
moment path; the same axis with ``pieces=None`` takes the Filon quadrature,
which shares none of its code. The two must agree within the quadrature's
``tol`` times an L1 scale of each integrand, and an mpmath reference at 30
digits says which of them carries the error that remains.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from trapmotion import (
    NumericalError,
    OscillatorParams,
    PiecewiseAccelerationFamily,
    PolynomialFamily,
    QuadratureConfig,
    TransportProblem,
    excitation_amplitude,
    excitation_profile,
    make_circular,
    make_constant_acceleration,
    make_kick,
    make_polynomial,
    make_sinusoidal,
)
from trapmotion.model import _piecewise_axis

TWO_PI = 2.0 * math.pi
TOL = QuadratureConfig().tol


def _quadrature(ax):
    return dataclasses.replace(ax, pieces=None)


def _l1_scales(ax, times):
    """Running integrals of |b''|, |b| and |b b''| at ``times``, by a
    trapezoid over each piece at 32 nodes per period of its fastest term."""
    starts, _, harmonics = ax.pieces
    rate = max((abs(h[1]) for h in harmonics), default=0.0) + 1.0
    edges = [*starts, max(times)]
    grid = np.concatenate([np.linspace(a, b, max(65, int(32 * rate * (b - a) / TWO_PI)))
                           for a, b in zip(edges[:-1], edges[1:]) if b > a])
    b, acc = ax.b(grid), ax.bddot(grid)
    out = []
    for y in (np.abs(acc), np.abs(b), np.abs(b * acc)):
        run = np.concatenate(([0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(grid))))
        out.append(np.interp(times, grid, run))
    return out


@st.composite
def piece_tables(draw):
    """A random piece table: 1-6 pieces of degree <= 7 over 0.1-1e3 periods,
    with or without a linear harmonic (sometimes within 1e-6 of resonance),
    starting from rest at the origin or not, and instants inside every piece
    and on every edge."""
    # the decade apart, so that every decade is drawn as often as the first
    T = TWO_PI * 10.0 ** (draw(st.integers(-1, 2)) + draw(st.floats(0.0, 1.0)))
    n = draw(st.integers(1, 6))
    cuts = sorted(draw(st.lists(st.floats(0.01, 0.99), min_size=n - 1, max_size=n - 1,
                                unique=True)))
    starts = [0.0] + [c * T for c in cuts]
    if any(b - a < 1e-3 * T for a, b in zip(starts, starts[1:])):
        starts = [T * k / n for k in range(n)]
    widths = np.diff([*starts, T])
    rows = []
    for h in widths:
        degree = draw(st.integers(0, 7))
        rows.append([draw(st.floats(-1.0, 1.0)) / h ** m for m in range(degree + 1)] + [0.0])
    harmonic = None
    if draw(st.booleans()):
        near = draw(st.booleans())
        Omega = 1.0 + draw(st.floats(-1e-6, 1e-6)) if near else draw(st.floats(0.1, 3.0))
        r = draw(st.floats(-1.0, 1.0))
        phases = [(0.0 if k == 0 else draw(st.floats(0.0, TWO_PI)), Omega) for k in range(n)]
        harmonic = (r, phases, draw(st.booleans()))
    at_rest = draw(st.booleans())
    if at_rest:     # b(0) = b'(0) = 0 exactly, so that phi is defined
        r, _, odd = harmonic or (0.0, None, False)
        rows[0][0] = 0.0 if odd else -r
        rows[0][1] = -(r * harmonic[1][0][1]) if odd else 0.0
    inside = [a + f * h for a, h in zip(starts, widths)
              for f in draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))]
    times = sorted({*starts, *inside, T})
    return _piecewise_axis(starts, rows, T, harmonic), times, at_rest


@settings(max_examples=12, deadline=None)
@given(piece_tables())
def test_moments_match_quadrature_on_random_piece_tables(case):
    params = OscillatorParams.dimensionless()
    ax, times, at_rest = case
    assert ax.pieces is not None
    exact = excitation_profile(ax, params, times)
    try:
        quad = excitation_profile(_quadrature(ax), params, times)
    except NumericalError:
        # the quadrature converges each instant against its own L1 scale, so
        # an instant just after t = 0 can exhaust its doublings: no reference
        reject()
    assert (exact.level, exact.n_intervals) == (0, 0) and quad.level > 0
    assert (exact.phi is None) == (quad.phi is None)
    assert exact.phi is not None or not at_rest
    l1_acc, l1_b, l1_bb = _l1_scales(ax, times)
    pref = 1.0 / math.sqrt(2.0)
    assert np.all(np.abs(exact.u - quad.u) <= TOL * pref * l1_acc + 1e-300)
    assert np.all(np.abs(exact.delta - quad.delta) <= TOL * pref * l1_b + 1e-300)
    if exact.phi is not None:
        # |Im[u' u*]| <= |b''| integral|b''| / 2, so this bounds the phase integrand's L1
        phase_scale = 0.25 * l1_acc ** 2 + l1_bb
        assert np.all(np.abs(exact.phi - quad.phi) <= TOL * phase_scale + 1e-300)


# --- an mpmath reference at 30 digits -------------------------------------------------

def _reference_u(ax, t):
    """u(t) of a piece table by exact integration by parts in mpmath: on each
    piece, integral_0^h p(s) e^{a s} ds = [e^{a s} sum_j (-1)^j p^(j)(s) / a^(j+1)]_0^h
    for the polynomial, and the same with a -> a +- i Omega for the harmonic."""
    mpmath.mp.dps = 30
    starts, rows, harmonics = ax.pieces
    total = mpmath.mpc(0)
    edges = [s for s in starts if s < t] + [t]
    for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        h = mpmath.mpf(hi) - mpmath.mpf(lo)
        coeffs = [mpmath.mpf(c) for c in rows[k]]
        terms = [(mpmath.mpc(0, -1), [c * m * (m - 1) for m, c in enumerate(coeffs)][2:])]
        if harmonics:
            r, Omega, theta = (mpmath.mpf(x) for x in harmonics[k][:3])
            half = r / 2 * (mpmath.mpc(0, -1) if harmonics[k][3] else 1)
            for sign in (1, -1):
                amp = half * mpmath.expj(theta)
                amp = amp if sign > 0 else mpmath.conj(amp)
                terms.append((mpmath.mpc(0, sign * Omega - 1), [-Omega ** 2 * amp]))
        piece = mpmath.mpc(0)
        for a, p in terms:
            def q(s, p=p, a=a):
                out, deriv, sign = mpmath.mpc(0), list(p), 1
                while deriv:
                    out += sign * mpmath.polyval(deriv[::-1], s) / a ** (len(p) - len(deriv) + 1)
                    deriv = [c * m for m, c in enumerate(deriv)][1:]
                    sign = -sign
                return out
            piece += mpmath.exp(a * h) * q(h) - q(0)
        total += mpmath.expj(-mpmath.mpf(lo)) * piece
    return complex(mpmath.mpc(0, -1) / mpmath.sqrt(2) * total)


@pytest.mark.parametrize("traj", [
    make_kick(1.0, 0.01 * TWO_PI, 1e4 * TWO_PI, stop_at=5e3 * TWO_PI + 1.3),
    make_sinusoidal(0.3, 1.0 - 1e-7, 100 * TWO_PI),
    make_polynomial([0.0, 0.0, 3e-3, -2e-4, 5e-6, -4e-8, 1e-10, 2e-13], 30 * TWO_PI),
], ids=["kick-stop-1e4", "sinusoid-near-resonance", "degree-7"])
def test_moments_match_mpmath(params, traj):
    t = traj.duration
    scale = _l1_scales(traj.axes[0], [t])[0][0] / math.sqrt(2.0)
    want = _reference_u(traj.axes[0], t)
    exact = excitation_amplitude(traj, params, t, with_phase=False).u
    quad = excitation_amplitude(_quadrature(traj.axes[0]), params, t, with_phase=False).u
    assert abs(exact - want) <= 1e-13 * scale
    assert abs(quad - want) <= TOL * scale


# --- which path each family takes -------------------------------------------------------

def test_every_built_in_family_takes_the_moment_path(params):
    T = 5.0
    problems = [TransportProblem(1.0, T, params, family)
                for family in (PolynomialFamily(6), PiecewiseAccelerationFamily(5))]
    trajectories = [
        make_constant_acceleration(0.7, T), make_kick(1.0, 0.1, T), make_kick(1.0, 0.1, T, 2.0),
        make_sinusoidal(0.4, 0.6, T), make_polynomial([0.0, 0.0, 0.1, -0.01], T),
        *(p.family.build(p, p.family.seed(p)) for p in problems),
    ]
    for traj in trajectories:
        assert traj.axes[0].pieces is not None
        prof = excitation_profile(traj, params, [0.5 * T, T])
        assert (prof.level, prof.n_intervals) == (0, 0)
    for part in make_circular(0.5, 0.45, 0.1, 1).split():
        assert part.axes[0].pieces is None
        prof = excitation_profile(part, params, [part.duration])
        assert prof.level > 0 and prof.n_intervals > 0
