"""Oscillator parameters and trap-center trajectories.

The trap is a harmonic well of fixed frequency whose center follows a
prescribed path b(t). A :class:`Trajectory` bundles, per spatial axis, exact
closed-form evaluators for the center position, velocity, and acceleration,
together with flags recording whether the motion starts from the origin at
rest. Every built-in family keeps the acceleration continuous: sudden starts
and stops are represented by short C2 quintic-smoothstep ramps, so downstream
quadratures never see a distributional kick.

Evaluators accept a float or a numpy array and are pure functions of time;
all types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: CODATA 2018 reduced Planck constant, J*s. Configuration default for SI
#: mode, not a fitted quantity.
HBAR_SI = 1.054571817e-34

DIMENSIONLESS = "dimensionless"
SI = "SI"


@dataclass(frozen=True)
class OscillatorParams:
    """Static parameters of the harmonic trap.

    In dimensionless mode the mass, angular frequency, and Planck constant
    are all exactly 1; SI mode takes explicit values with ``hbar`` defaulting
    to the CODATA value.
    """

    mass: float
    omega: float
    hbar: float = HBAR_SI
    units_mode: str = SI

    def __post_init__(self):
        if self.units_mode not in (SI, DIMENSIONLESS):
            raise ValueError(f"unknown units_mode {self.units_mode!r}")
        for name in ("mass", "omega", "hbar"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if self.units_mode == DIMENSIONLESS and not (
            self.mass == 1.0 and self.omega == 1.0 and self.hbar == 1.0
        ):
            raise ValueError("dimensionless mode requires mass = omega = hbar = 1")

    @classmethod
    def dimensionless(cls) -> "OscillatorParams":
        """Natural units: mass = omega = hbar = 1."""
        return cls(1.0, 1.0, 1.0, DIMENSIONLESS)

    @classmethod
    def si(cls, mass: float, omega: float, hbar: float = HBAR_SI) -> "OscillatorParams":
        return cls(mass, omega, hbar, SI)

    @property
    def period(self) -> float:
        """Oscillation period 2*pi/omega."""
        return 2.0 * math.pi / self.omega

    @property
    def ground_width(self) -> float:
        """Ground-state length scale sqrt(hbar/(mass*omega))."""
        return math.sqrt(self.hbar / (self.mass * self.omega))


Evaluator = Callable[[np.ndarray | float], np.ndarray | float]


@dataclass(frozen=True)
class Axis:
    """Per-axis evaluable triple (b, b', b'') with boundary flags.

    ``feature_time`` is a global drive timescale (e.g. the period of a
    periodic center motion); quadratures resolve it in addition to the
    oscillator period. ``breakpoints`` lists interior times where b'' is not
    smooth; quadratures split their grids there and sample each smooth piece
    one-sidedly, so evaluators never need two-sided limits.
    """

    b: Evaluator
    bdot: Evaluator
    bddot: Evaluator
    starts_at_zero: bool
    starts_at_rest: bool
    feature_time: float | None = None
    breakpoints: tuple[float, ...] = ()


@dataclass(frozen=True)
class Trajectory:
    """One- or two-dimensional trap-center motion on [0, duration]."""

    axes: tuple[Axis, ...]
    duration: float

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise ValueError(f"duration must be finite and positive, got {self.duration!r}")
        if len(self.axes) not in (1, 2):
            raise ValueError("trajectories are 1- or 2-dimensional")

    @property
    def dimension(self) -> int:
        return len(self.axes)

    @property
    def boundary_flags(self) -> tuple[bool, bool]:
        """(b(0) = 0 on every axis, b'(0) = 0 on every axis)."""
        return (
            all(a.starts_at_zero for a in self.axes),
            all(a.starts_at_rest for a in self.axes),
        )


# --- C2 quintic smoothstep: sigma(u) = 6u^5 - 15u^4 + 10u^3 on [0, 1],
#     clamped outside, so sigma' vanishes identically beyond the ramp.

def _sigma(u):
    u = np.clip(u, 0.0, 1.0)
    return u ** 3 * (10.0 + u * (6.0 * u - 15.0))


def _sigma_rate(u):
    u = np.clip(u, 0.0, 1.0)
    return 30.0 * u ** 2 * (1.0 - u) ** 2


def _sigma_area(u):
    # integral of sigma from 0: u^6 - 3u^5 + 2.5u^4, equal to 1/2 at u = 1
    u = np.clip(u, 0.0, 1.0)
    return u ** 4 * (2.5 + u * (u - 3.0))


def _relu(x):
    return np.maximum(x, 0.0)


def _ramp(scale: float, T_a: float, stop: float | None = None):
    """Position, rate and acceleration of a rate that ramps smoothly from 0 to
    ``scale`` over [0, T_a] and, if ``stop`` is given, back to 0 over
    [stop, stop + T_a]. The position is the exact integral of the rate."""

    def ramped(factor, piece):
        def evaluate(t):
            t = np.asarray(t, dtype=float)
            out = piece(t)
            if stop is not None:
                out = out - piece(t - stop)
            return factor * out

        return evaluate

    return (ramped(scale, lambda s: T_a * _sigma_area(s / T_a) + _relu(s - T_a)),
            ramped(scale, lambda s: _sigma(s / T_a)),
            ramped(scale / T_a, lambda s: _sigma_rate(s / T_a)))


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def make_constant_acceleration(a: float, T: float) -> Trajectory:
    """Uniformly accelerated center: b = a t^2 / 2."""
    _require_positive("T", T)
    if not math.isfinite(a):
        raise ValueError(f"a must be finite, got {a!r}")
    axis = Axis(
        b=lambda t: 0.5 * a * np.asarray(t, dtype=float) ** 2,
        bdot=lambda t: a * np.asarray(t, dtype=float),
        bddot=lambda t: a * np.ones_like(np.asarray(t, dtype=float)),
        starts_at_zero=True,
        starts_at_rest=True,
    )
    return Trajectory((axis,), T)


def make_kick(v: float, T_a: float, T: float, stop_at: float | None = None) -> Trajectory:
    """Center velocity ramps smoothly from 0 to v over [0, T_a].

    The ramp is the quintic smoothstep, so the acceleration is continuous and
    vanishes outside the ramp. If ``stop_at`` is given, a mirror-image ramp
    over [stop_at, stop_at + T_a] brings the center back to rest. The position
    is the exact integral of the velocity profile.
    """
    if not math.isfinite(v):
        raise ValueError(f"v must be finite, got {v!r}")
    _require_positive("T_a", T_a)
    _require_positive("T", T)
    if T_a > T:
        raise ValueError(f"need T_a <= T, got T_a={T_a!r}, T={T!r}")
    if stop_at is not None and not (T_a < stop_at <= T - T_a):
        raise ValueError(
            f"need T_a < stop_at <= T - T_a, got stop_at={stop_at!r} with "
            f"T_a={T_a!r}, T={T!r}"
        )

    b, bdot, bddot = _ramp(v, T_a, stop_at)
    cuts = [T_a] if T_a < T else []
    if stop_at is not None:
        cuts += [stop_at, stop_at + T_a] if stop_at + T_a < T else [stop_at]
    axis = Axis(b=b, bdot=bdot, bddot=bddot, starts_at_zero=True,
                starts_at_rest=True, breakpoints=tuple(cuts))
    return Trajectory((axis,), T)


def make_sinusoidal(R: float, Omega: float, T: float) -> Trajectory:
    """Periodic center motion b = R (1 - cos(Omega t)); starts from rest."""
    if not (math.isfinite(R) and R >= 0.0):
        raise ValueError(f"R must be finite and non-negative, got {R!r}")
    _require_positive("Omega", Omega)
    _require_positive("T", T)
    axis = Axis(
        b=lambda t: R * (1.0 - np.cos(Omega * np.asarray(t, dtype=float))),
        bdot=lambda t: R * Omega * np.sin(Omega * np.asarray(t, dtype=float)),
        bddot=lambda t: R * Omega ** 2 * np.cos(Omega * np.asarray(t, dtype=float)),
        starts_at_zero=True,
        starts_at_rest=True,
        feature_time=2.0 * math.pi / Omega,
    )
    return Trajectory((axis,), T)


def make_circular(R: float, Omega: float, T_a: float, s: float) -> Trajectory:
    """Center of an isotropic 2-D trap driven around a circle of radius R.

    The angle phi(t) advances at a rate that ramps smoothly (quintic
    smoothstep) from 0 to Omega over [0, T_a], holds at Omega, and ramps back
    to 0 over the final window of width T_a. The down-ramp is placed so that
    the swept angle at the end equals exactly 2*pi*s: the center completes s
    full revolutions and stops at its starting point. The total duration is
    therefore 2*pi*s/Omega + T_a, approaching the ideal revolution time as
    T_a -> 0. Each ramp delays the effective start/stop velocity jump by
    T_a/2, so their separation stays at exactly 2*pi*s/Omega and sudden-limit
    closed forms are matched to second order in Omega*T_a and omega*T_a.
    """
    if not (math.isfinite(R) and R >= 0.0):
        raise ValueError(f"R must be finite and non-negative, got {R!r}")
    _require_positive("Omega", Omega)
    _require_positive("T_a", T_a)
    _require_positive("s", s)
    t_rev = 2.0 * math.pi * s / Omega
    if T_a >= t_rev:
        raise ValueError(f"ramp T_a={T_a!r} does not fit inside the revolution time {t_rev!r}")
    if T_a >= 2.0 * math.pi / Omega:
        warnings.warn(
            "ramp time is not short compared with the rotation period; "
            "closed-form comparisons assume T_a << 2*pi/Omega",
            stacklevel=2,
        )
    T = t_rev + T_a
    t_down = t_rev  # down-ramp occupies [T - T_a, T]

    phase, phase_rate, phase_accel = _ramp(Omega, T_a, t_down)

    def bx(t):
        return R * (1.0 - np.cos(phase(t)))

    def bx_dot(t):
        return R * phase_rate(t) * np.sin(phase(t))

    def bx_ddot(t):
        p = phase(t)
        return R * (phase_accel(t) * np.sin(p) + phase_rate(t) ** 2 * np.cos(p))

    def by(t):
        return R * np.sin(phase(t))

    def by_dot(t):
        return R * phase_rate(t) * np.cos(phase(t))

    def by_ddot(t):
        p = phase(t)
        return R * (phase_accel(t) * np.cos(p) - phase_rate(t) ** 2 * np.sin(p))

    drive_period = 2.0 * math.pi / Omega
    cuts = (T_a, t_down)
    axis_x = Axis(b=bx, bdot=bx_dot, bddot=bx_ddot, starts_at_zero=True,
                  starts_at_rest=True, feature_time=drive_period, breakpoints=cuts)
    axis_y = Axis(b=by, bdot=by_dot, bddot=by_ddot, starts_at_zero=True,
                  starts_at_rest=True, feature_time=drive_period, breakpoints=cuts)
    return Trajectory((axis_x, axis_y), T)


def make_polynomial(coeffs, T: float) -> Trajectory:
    """Polynomial center motion b(t) = sum_k c_k t^k, lowest order first.

    Velocity and acceleration are the analytic derivatives. Boundary flags
    are read off the constant and linear coefficients.
    """
    _require_positive("T", T)
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coeffs must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(c)):
        raise ValueError("coeffs must be finite")
    c1 = np.polynomial.polynomial.polyder(c)
    c2 = np.polynomial.polynomial.polyder(c, 2)

    def _poly(coef):
        if coef.size == 0:
            coef = np.zeros(1)

        def ev(t):
            return np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), coef)

        return ev

    axis = Axis(
        b=_poly(c),
        bdot=_poly(c1),
        bddot=_poly(c2),
        starts_at_zero=bool(c[0] == 0.0),
        starts_at_rest=bool(c[1] == 0.0) if c.size > 1 else True,
    )
    return Trajectory((axis,), T)


def make_axis(b: Evaluator, bdot: Evaluator, bddot: Evaluator, *,
              duration: float, feature_time: float | None = None) -> Axis:
    """Wrap user-supplied evaluators, inferring boundary flags by evaluation.

    Flags are set when |b(0)| (resp. |b'(0)|) is below 1e-12 of the sampled
    characteristic magnitude of the motion.
    """
    _require_positive("duration", duration)
    ts = np.linspace(0.0, duration, 65)
    char_b = float(np.max(np.abs(np.asarray(b(ts), dtype=float))))
    char_v = float(np.max(np.abs(np.asarray(bdot(ts), dtype=float))))
    b0 = float(b(0.0))
    v0 = float(bdot(0.0))
    return Axis(
        b=b,
        bdot=bdot,
        bddot=bddot,
        starts_at_zero=abs(b0) <= 1e-12 * max(char_b, 1e-300),
        starts_at_rest=abs(v0) <= 1e-12 * max(char_v, 1e-300),
        feature_time=feature_time,
    )
