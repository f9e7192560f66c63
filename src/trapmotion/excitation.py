"""Excitation amplitude of the moving trap and its closed-form special cases.

The central object is the dimensionless complex amplitude

    u(t) = -i sqrt(M / (2 hbar omega)) * integral_0^t b''(tau) e^{-i omega tau} d tau,

the Fourier component of the center acceleration at the trap frequency. Its
squared magnitude gamma = |u|^2 is the mean number of quanta excited from the
ground state in the frame moving with the trap, and feeds the Fock transition
probabilities in :mod:`trapmotion.transitions`.

The fixed-frame counterpart

    delta(t) = -i (2 M hbar omega)^{-1/2} * integral_0^t f(tau) e^{+i omega tau} d tau,

with effective force f = M omega^2 b, measures excitation relative to the
non-moving oscillator center; |delta|^2 and gamma agree whenever the moving
and fixed centers coincide (b = b' = 0), and disagree otherwise - the classic
pitfall of applying the forced-oscillator formula to a moving trap.

The phase

    phi(t) = integral_0^t { Im[u'(tau) u*(tau)] + M b(tau) b''(tau) / hbar } d tau

completes the coherent-state transition amplitude; it is only meaningful for
trajectories starting from the origin at rest and is reported as None
otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Axis, OscillatorParams, Trajectory
from .quadrature import (
    BlockGrid,
    QuadratureConfig,
    initial_intervals,
    oscillatory_integral,
    piece_bounds,
    refine,
)
from .errors import ResonanceError

#: Relative detuning below which the sinusoidal/circular closed forms are
#: treated as singular and the resonance expression must be used instead.
RESONANCE_DETUNING = 1e-9


@dataclass(frozen=True)
class ExcitationResult:
    """Amplitude u(t), excitation parameter gamma = |u|^2, and phase phi.

    ``phi`` is None when the trajectory does not start from the origin at
    rest (the phase formula does not apply) or when the caller skipped the
    phase integral.
    """

    u: complex
    gamma: float
    phi: float | None
    t: float


def _resolve_axis(traj, axis: int) -> tuple[Axis, float | None]:
    if isinstance(traj, Trajectory):
        return traj.axes[axis], traj.duration
    if isinstance(traj, Axis):
        return traj, None
    raise TypeError(f"expected Trajectory or Axis, got {type(traj).__name__}")


def _check_time(t: float, duration: float | None) -> None:
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"time must be finite and >= 0, got {t!r}")
    if duration is not None and t > duration * (1.0 + 1e-12):
        raise ValueError(f"time {t!r} exceeds trajectory duration {duration!r}")


def _amplitude_prefactor(params: OscillatorParams) -> complex:
    return -1j * math.sqrt(params.mass / (2.0 * params.hbar * params.omega))


def _delta_prefactor(params: OscillatorParams) -> complex:
    omega = params.omega
    return -1j * params.mass * omega ** 2 / math.sqrt(2.0 * params.mass * params.hbar * omega)


def excitation_amplitude(traj, params: OscillatorParams, t: float,
                         cfg: QuadratureConfig | None = None, *,
                         axis: int = 0, with_phase: bool = True) -> ExcitationResult:
    """Moving-frame excitation amplitude u(t) by oscillatory quadrature.

    ``traj`` may be a :class:`Trajectory` (with ``axis`` selecting the
    component) or a bare :class:`Axis`. Set ``with_phase=False`` to skip the
    cumulative phase integral when only gamma is needed (e.g. inside
    optimizer loops). With the phase this is the one-instant case of
    :func:`excitation_profile`.
    """
    ax, duration = _resolve_axis(traj, axis)
    cfg = cfg or QuadratureConfig()
    _check_time(t, duration)
    flags_ok = ax.starts_at_zero and ax.starts_at_rest
    if t == 0.0:
        return ExcitationResult(0.0 + 0.0j, 0.0, 0.0 if (flags_ok and with_phase) else None, 0.0)

    pref = _amplitude_prefactor(params)
    omega = params.omega
    if not (with_phase and flags_ok):
        res = oscillatory_integral(ax.bddot, 0.0, t, -omega, cfg,
                                   feature_time=ax.feature_time, breakpoints=ax.breakpoints)
        u = pref * res.value
        return ExcitationResult(u, u.real ** 2 + u.imag ** 2, None, t)

    prof = excitation_profile(ax, params, (t,), cfg)
    return ExcitationResult(complex(prof.u[0]), float(prof.gamma[0]), float(prof.phi[0]), t)


def fixed_frame_delta(traj, params: OscillatorParams, t: float,
                      cfg: QuadratureConfig | None = None, *, axis: int = 0) -> complex:
    """Fixed-frame amplitude delta(t) from the effective force M omega^2 b."""
    ax, duration = _resolve_axis(traj, axis)
    cfg = cfg or QuadratureConfig()
    _check_time(t, duration)
    if t == 0.0:
        return 0.0 + 0.0j
    omega = params.omega
    pref = _delta_prefactor(params)
    res = oscillatory_integral(ax.b, 0.0, t, +omega, cfg,
                               feature_time=ax.feature_time, breakpoints=ax.breakpoints)
    return pref * res.value


# --- time profiles ------------------------------------------------------------

#: Intervals per vectorized batch of a profile refinement. Long windows are
#: streamed in batches of this size with running totals carried across, so
#: memory stays flat however long the window.
PROFILE_CHUNK = 1 << 14


@dataclass(frozen=True)
class ExcitationProfile:
    """u, gamma, phi and the fixed-frame delta at a list of instants.

    Arrays follow the order of the requested instants, duplicates included.
    ``phi`` is None when the trajectory does not start from the origin at
    rest. ``level`` is the refinement level the profile converged at and
    ``n_intervals`` the quadrature intervals it used there (both 0 when no
    instant lies after t = 0).
    """

    t: np.ndarray
    u: np.ndarray
    gamma: np.ndarray
    phi: np.ndarray | None
    delta: np.ndarray
    level: int
    n_intervals: int


def _profile_segments(ax: Axis, omega: float, instants: np.ndarray, steps_per_period: int):
    """Level-0 segments ``(lo, hi, intervals, instant index or -1)`` over [0, instants[-1]].

    Each breakpoint piece keeps the interval count :func:`piece_grids` gives
    it; the instants inside it become extra nodes, and each sub-piece gets
    the fewest even intervals (at least 2) whose step is no longer than the
    piece's own.
    """
    t_end = float(instants[-1])
    index = {float(t): k for k, t in enumerate(instants)}
    segments = []
    for lo, hi in piece_bounds(0.0, t_end, ax.breakpoints):
        n0 = initial_intervals(hi - lo, omega, ax.feature_time, steps_per_period)
        nodes = [lo, *(float(t) for t in instants if lo < t < hi), hi]
        for a, b in zip(nodes[:-1], nodes[1:]):
            m = max(2, math.ceil((b - a) / (hi - lo) * n0 - 1e-9))
            segments.append((a, b, m + m % 2, index.get(b, -1)))
    return segments


def _level_batches(segments, level: int):
    """The segments of refinement ``level`` as :class:`BlockGrid` batches of
    at most :data:`PROFILE_CHUNK` intervals.

    Yields ``(blocks, instants)``: block rows ``(lo, hi, m, j0, j1)`` and,
    per block, the index of the instant read at its end (-1 when none is).
    """
    blocks, instants, size = [], [], 0
    for lo, hi, m0, k in segments:
        m = m0 << level
        j0 = 0
        while j0 < m:
            j1 = min(m, j0 + PROFILE_CHUNK - size)
            blocks.append((lo, hi, m, j0, j1))
            instants.append(k if j1 == m else -1)
            size += j1 - j0
            j0 = j1
            if size == PROFILE_CHUNK:
                yield blocks, np.array(instants)
                blocks, instants, size = [], [], 0
    if blocks:
        yield blocks, np.array(instants)


def _profile_level(ax: Axis, params: OscillatorParams, segments, cuts, level: int,
                   filon: bool, with_phase: bool, n_instants: int):
    """Running u-kernel, phi and delta-kernel integrals and their L1 scales,
    read at every instant, on the grid of refinement ``level``.

    Instants sit at block ends. A batch gives running integrals from its
    first node; the totals carried in from earlier batches are added on.
    """
    omega = params.omega
    pref_sq = params.mass / (2.0 * params.hbar * omega)
    mass_over_hbar = params.mass / params.hbar
    # u kernel, phi, delta kernel, then the L1 scale of each
    readings = (np.zeros(n_instants, complex), np.zeros(n_instants), np.zeros(n_instants, complex),
                np.zeros(n_instants), np.zeros(n_instants), np.zeros(n_instants))
    totals = [0.0 + 0.0j, 0.0, 0.0 + 0.0j, 0.0, 0.0, 0.0]
    for blocks, instants in _level_batches(segments, level):
        grid = BlockGrid(blocks)
        te = grid.sample_times(cuts)
        acc = np.asarray(ax.bddot(te), dtype=float)
        pos = np.asarray(ax.b(te), dtype=float)
        c, s = np.cos(omega * te), np.sin(omega * te)
        k_re, k_im = acc * c, -(acc * s)         # u kernel acc e^{-i omega t}
        # Filon integrates acc against e^{-i omega t}; Simpson the sampled kernel
        u_rule = (acc, -omega, c, s) if filon else (k_re + 1j * k_im,)
        d_rule = (pos, omega, c, s) if filon else (pos * c + 1j * (pos * s),)
        running = [None, None, grid.integral(*d_rule),
                   grid.trapezoid(np.abs(acc)), None, grid.trapezoid(np.abs(pos))]
        if with_phase:
            cum = grid.cumulative(*u_rule)
            running[0] = cum[grid.ends]
            # Im[u' u*] = |pref|^2 Im[kernel * conj(running kernel integral)]
            cum += totals[0]
            g = pref_sq * (k_im * cum.real - k_re * cum.imag) + mass_over_hbar * pos * acc
            running[1] = grid.integral(g)
            running[4] = grid.trapezoid(np.abs(g))
        else:
            running[0] = grid.integral(*u_rule)
        read = instants >= 0
        for q, run in enumerate(running):
            if run is not None:
                readings[q][instants[read]] = totals[q] + run[read]
                totals[q] += run[-1]
    return readings[:3], readings[3:]


def excitation_profile(traj, params: OscillatorParams, times,
                       cfg: QuadratureConfig | None = None, *, axis: int = 0) -> ExcitationProfile:
    """u, gamma, phi and delta at every instant of ``times`` from one refinement.

    All instants are prefixes of the same cumulative integrals, so one grid
    over [0, max(times)] serves them all: it is split at the acceleration
    breakpoints (sampled one-sidedly, as in :func:`piece_grids`) and at each
    instant (a plain node), and doubled until every instant's u, phi (when
    defined) and delta each change by at most ``cfg.tol`` times their own L1
    scale up to that instant. Instants may repeat, come in any order, and
    include t = 0. Fails with :class:`NumericalError` like
    :func:`excitation_amplitude`.
    """
    ax, duration = _resolve_axis(traj, axis)
    cfg = cfg or QuadratureConfig()
    t_req = np.array([float(t) for t in times], dtype=float)
    for t in t_req:
        _check_time(t, duration)
    with_phase = ax.starts_at_zero and ax.starts_at_rest
    instants, where = np.unique(t_req, return_inverse=True)
    n = len(instants)
    raw, phi, d_raw = np.zeros(n, complex), np.zeros(n), np.zeros(n, complex)
    level = n_intervals = 0
    if n and instants[-1] > 0.0:
        segments = _profile_segments(ax, params.omega, instants, cfg.steps_per_period)
        cuts = set(p for p in ax.breakpoints if 0.0 < p < instants[-1])
        filon = cfg.scheme == "composite-filon"
        intervals = sum(m for _, _, m, _ in segments)
        level, (raw, phi, d_raw), _, _ = refine(
            lambda level: _profile_level(ax, params, segments, cuts, level, filon, with_phase, n),
            cfg, "excitation quadrature", intervals)
        n_intervals = intervals << level
    u = _amplitude_prefactor(params) * raw[where]
    return ExcitationProfile(
        t=t_req,
        u=u,
        gamma=u.real ** 2 + u.imag ** 2,
        phi=phi[where] if with_phase else None,
        delta=_delta_prefactor(params) * d_raw[where],
        level=level,
        n_intervals=n_intervals,
    )


# --- closed forms -----------------------------------------------------------

def closed_form_constant_accel(a: float, params: OscillatorParams, t: float) -> float:
    """gamma(t) for b'' = a: (2 M a^2 / hbar omega^3) sin^2(omega t / 2).

    Vanishes at every full period, so uniform acceleration never heats the
    oscillator permanently.
    """
    w = params.omega
    return (2.0 * params.mass * a * a / (params.hbar * w ** 3)) * math.sin(0.5 * w * t) ** 2


def closed_form_kick_G(v: float, params: OscillatorParams) -> float:
    """Steady excitation G = M v^2 / (2 hbar omega) after a short velocity ramp.

    Holds for any ramp profile once the ramp time is well under one trap
    period.
    """
    return params.mass * v * v / (2.0 * params.hbar * params.omega)


def closed_form_kick_stop(v: float, params: OscillatorParams, T: float) -> float:
    """Excitation 4 G sin^2(omega T / 2) after a sudden stop at time T."""
    return 4.0 * closed_form_kick_G(v, params) * math.sin(0.5 * params.omega * T) ** 2


def _guard_resonance(Omega: float, params: OscillatorParams) -> None:
    if abs(Omega - params.omega) < RESONANCE_DETUNING * params.omega:
        raise ResonanceError(
            "drive frequency is at the trap resonance; the generic closed form "
            "is singular there - use closed_form_sinusoidal_resonance for the "
            "return-instant value"
        )


def closed_form_sinusoidal(R: float, Omega: float, params: OscillatorParams, t: float) -> float:
    """gamma(t) for b = R (1 - cos(Omega t)), away from resonance.

    At return instants t = 2 pi s / Omega this reduces to
    4 G (Omega omega)^2 / (Omega^2 - omega^2)^2 * sin^2(s pi omega / Omega)
    with G = M (R Omega)^2 / (2 hbar omega).
    """
    _guard_resonance(Omega, params)
    w = params.omega
    G = params.mass * (R * Omega) ** 2 / (2.0 * params.hbar * w)
    wm = w - Omega
    wp = w + Omega
    sm = math.sin(0.5 * wm * t)
    sp = math.sin(0.5 * wp * t)
    bracket = (sm / wm) ** 2 + (sp / wp) ** 2 + 2.0 * math.cos(Omega * t) * sm * sp / (wm * wp)
    return G * Omega ** 2 * bracket


def closed_form_sinusoidal_resonance(R: float, params: OscillatorParams, s: float) -> float:
    """Resonant drive (Omega = omega) after s full drive periods: G (pi s)^2."""
    G = params.mass * (R * params.omega) ** 2 / (2.0 * params.hbar * params.omega)
    return G * (math.pi * s) ** 2


def closed_form_circular(R: float, Omega: float, params: OscillatorParams, s: float) -> float:
    """Total excitation w_s after s revolutions of a circularly driven 2-D trap.

    w_s = 2 M (R Omega omega)^2 (omega^2 + Omega^2)
          / [hbar omega (omega^2 - Omega^2)^2] * sin^2(s pi omega / Omega),
    assuming the rotation starts and stops over windows much shorter than the
    trap period.
    """
    _guard_resonance(Omega, params)
    w = params.omega
    num = 2.0 * params.mass * (R * Omega * w) ** 2 * (w ** 2 + Omega ** 2)
    den = params.hbar * w * (w ** 2 - Omega ** 2) ** 2
    return (num / den) * math.sin(s * math.pi * w / Omega) ** 2


def closed_form_circular_G(R: float, Omega: float, params: OscillatorParams) -> float:
    """Slow-rotation excitation scale G = 2 M R^2 Omega^2 / (hbar omega)."""
    return 2.0 * params.mass * R * R * Omega * Omega / (params.hbar * params.omega)


def closed_form_circular_slow(R: float, Omega: float, params: OscillatorParams, s: float) -> float:
    """Slow-rotation (Omega << omega) limit: w_s = G sin^2(s pi omega / Omega)."""
    return closed_form_circular_G(R, Omega, params) * math.sin(s * math.pi * params.omega / Omega) ** 2


def uniform_motion_gamma(v: float, params: OscillatorParams, t: float) -> float:
    """Fixed-frame gamma(t) for a uniformly moving center b = v t.

    Grows without bound: the t^2 term is just the potential energy of the
    displaced fixed-frame origin in units of hbar omega, which is why the
    fixed-frame formula must not be read as trap heating.
    """
    w = params.omega
    wt = w * t
    bracket = wt ** 2 + 4.0 * math.sin(0.5 * wt) ** 2 - 2.0 * wt * math.sin(wt)
    return params.mass * v * v / (2.0 * params.hbar * w) * bracket
