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
from .quadrature import QuadratureConfig, running_integrals
from .errors import NumericalError, ResonanceError

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


def _resolve_axis(traj) -> tuple[Axis, float | None]:
    """The one axis of ``traj`` and the duration its times must not pass."""
    if isinstance(traj, Trajectory):
        if traj.dimension != 1:
            raise ValueError("a 2-D trajectory is two oscillators: pass each of its split()")
        return traj.axes[0], traj.duration
    if isinstance(traj, Axis):
        return traj, None
    raise TypeError(f"expected Trajectory or Axis, got {type(traj).__name__}")


def _check_time(t: float, duration: float | None) -> None:
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"time must be finite and >= 0, got {t!r}")
    if duration is not None and t > duration * (1.0 + 1e-12):
        raise ValueError(f"time {t!r} exceeds trajectory duration {duration!r}")


def _prefactors(params: OscillatorParams) -> dict[str, complex]:
    """The factors that make amplitudes of the "u" and "delta" integrals."""
    omega, mass = params.omega, params.mass
    return {"u": -1j * math.sqrt(mass / (2.0 * params.hbar * omega)),
            "delta": -1j * mass * omega ** 2 / math.sqrt(2.0 * mass * params.hbar * omega)}


def excitation_amplitude(traj, params: OscillatorParams, t: float,
                         cfg: QuadratureConfig | None = None, *,
                         with_phase: bool = True) -> ExcitationResult:
    """Moving-frame excitation amplitude u(t) by oscillatory quadrature.

    ``traj`` is a 1-D :class:`Trajectory` or a bare :class:`Axis`; a 2-D
    trajectory raises ValueError (take its axes from ``traj.split()``). Set
    ``with_phase=False`` to skip the cumulative phase integral when only
    gamma is needed (e.g. inside optimizer loops); only b'' is then sampled.
    With the phase this is the one-instant case of :func:`excitation_profile`.
    """
    _, got, _, _ = _excite(traj, params, (t,), cfg,
                           ("u", "phi", "delta") if with_phase else ("u",), ("u",))
    phi = float(got["phi"][0]) if "phi" in got else None
    return ExcitationResult(complex(got["u"][0]), float(got["gamma"][0]), phi, t)


def fixed_frame_delta(traj, params: OscillatorParams, t: float,
                      cfg: QuadratureConfig | None = None) -> complex:
    """Fixed-frame amplitude delta(t) from the effective force M omega^2 b;
    only b is sampled. ``traj`` is a 1-D Trajectory or a bare Axis."""
    _, got, _, _ = _excite(traj, params, (t,), cfg, ("delta",), ("delta",))
    return complex(got["delta"][0])


# --- time profiles ------------------------------------------------------------

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


def _integrate(axes: tuple[Axis, ...], params: OscillatorParams, instants: np.ndarray,
               cfg: QuadratureConfig, kernels: tuple[str, ...], level: int | None = None):
    """Converged running integrals of ``kernels`` at the sorted, unique
    ``instants``: a subsequence of ("u", "phi", "delta"), where "u" and
    "delta" are the integrals before their prefactors and "phi" needs "u".

    Only the evaluators the kernels need are sampled: b'' for u, b for
    delta, both for phi. ``axes`` share the first one's breakpoints and
    feature time, so one grid serves them all. Returns ``(level, values,
    n_intervals)`` as :func:`running_integrals` does (``level``, if given,
    unrefined), with a row per kernel of each axis in turn.
    """
    omega = params.omega
    pref_sq = params.mass / (2.0 * params.hbar * omega)
    mass_over_hbar = params.mass / params.hbar
    phase = "phi" in kernels

    def batch(grid, te, carried):
        wt = omega * te
        c, s = np.cos(wt), np.sin(wt)
        values, scales = [], []     # in kernel order: u, phi, delta
        for i, ax in enumerate(axes):
            if "u" in kernels:
                acc = np.asarray(ax.bddot(te), dtype=float)
                kernel = acc * (c - 1j * s)         # acc e^{-i omega t}
                if phase:
                    cum = grid.cumulative(kernel, -omega)
                values.append(cum[grid.ends] if phase else grid.integral(kernel, -omega))
                scales.append(grid.trapezoid(np.abs(acc)))
            if phase or "delta" in kernels:
                pos = np.asarray(ax.b(te), dtype=float)
            if phase:
                # Im[u' u*] = |pref|^2 Im[kernel * conj(running kernel integral)]
                cum += carried[i * len(kernels)]    # this axis's u
                g = (pref_sq * (kernel.imag * cum.real - kernel.real * cum.imag)
                     + mass_over_hbar * pos * acc)
                values.append(grid.integral(g))
                scales.append(grid.trapezoid(np.abs(g)))
            if "delta" in kernels:
                values.append(grid.integral(pos * (c + 1j * s), omega))
                scales.append(grid.trapezoid(np.abs(pos)))
        return values, scales

    return running_integrals(batch, len(kernels) * len(axes), instants, cfg,
                             "excitation quadrature", omega=omega, level=level,
                             feature_time=axes[0].feature_time, breakpoints=axes[0].breakpoints)


def _excite(traj, params: OscillatorParams, times, cfg: QuadratureConfig | None,
            kernels: tuple[str, ...], phaseless: tuple[str, ...]):
    """Resolve ``traj``, check ``times`` and converge ``kernels`` at their
    unique instants (``phaseless`` where phi is undefined). Returns the
    times, each kernel's prefactored values in request order (phi real,
    gamma beside u), the level and the interval count (both 0 if all t = 0).
    A value that is not finite raises NumericalError."""
    ax, duration = _resolve_axis(traj)
    t_req = np.array([float(t) for t in times], dtype=float)
    for t in t_req:
        _check_time(t, duration)
    if not (ax.starts_at_zero and ax.starts_at_rest):
        kernels = phaseless
    # a sorted set, not np.unique: 2 us against 9 us for one instant
    instants = np.array(sorted(set(t_req.tolist())))
    where = np.searchsorted(instants, t_req)
    level, values, n_intervals = 0, np.zeros((len(kernels), len(instants))), 0
    if len(instants) and instants[-1] > 0.0:
        level, values, n_intervals = _integrate((ax,), params, instants,
                                                cfg or QuadratureConfig(), kernels)
    prefactors = _prefactors(params)
    got = {k: prefactors[k] * row[where] if k in prefactors else row.real[where]
           for k, row in zip(kernels, values)}
    if "u" in got:
        got["gamma"] = got["u"].real ** 2 + got["u"].imag ** 2
    for k, row in got.items():
        bad = ~np.isfinite(row)
        if bad.any():
            raise NumericalError(f"excitation {k} is {row[bad][0]} at t = {t_req[bad][0]}")
    return t_req, got, level, n_intervals


def excitation_profile(traj, params: OscillatorParams, times,
                       cfg: QuadratureConfig | None = None) -> ExcitationProfile:
    """u, gamma, phi and delta at every instant of ``times`` from one refinement.

    All instants are prefixes of the same cumulative integrals, so one grid
    over [0, max(times)] serves them all: it is split at the acceleration
    breakpoints (sampled one-sidedly) and at each instant (a plain node), and
    doubled until every instant's u, phi (when defined) and delta each change
    by at most ``cfg.tol`` times their own L1 scale up to that instant.
    Instants may repeat, come in any order, and include t = 0. ``traj`` is a
    1-D Trajectory or a bare Axis. Fails with :class:`NumericalError` like
    :func:`excitation_amplitude`.
    """
    t_req, got, level, n_intervals = _excite(traj, params, times, cfg,
                                             ("u", "phi", "delta"), ("u", "delta"))
    return ExcitationProfile(t=t_req, u=got["u"], gamma=got["gamma"], phi=got.get("phi"),
                             delta=got["delta"], level=level, n_intervals=n_intervals)


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
