"""Oscillator parameters and trap-center trajectories.

The trap is a harmonic well of fixed frequency whose center follows a
prescribed path b(t). A :class:`Trajectory` bundles, per spatial axis, exact
closed-form evaluators for the center position, velocity, and acceleration,
together with flags recording whether the motion starts from the origin at
rest. The axes are independent oscillators and every computation takes one:
:meth:`Trajectory.split` gives a 2-D trajectory's axes as 1-D trajectories.
Every built-in family keeps the acceleration continuous: sudden starts
and stops are represented by short C2 quintic-smoothstep ramps, so downstream
quadratures never see a distributional kick.

Every built-in b(t) is one private piece table: sorted piece edges and, per
piece, coefficients (lowest power first) in the time since that piece starts,
plus, for the sinusoid and the circle, r cos or r sin of a phase table on the
same edges. One Horner evaluator gives each table and its exact derivatives,
and the interior edges are the axis breakpoints. Exactly at an edge the
right-hand piece applies, so b'' there is one-sided: the value of the piece
that starts at that edge.

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
            _require_positive(name, getattr(self, name))
        m, w, h = self.mass, self.omega, self.hbar
        try:  # the period, the ground width and the amplitude prefactors
            scales = (2.0 * math.pi / w, math.sqrt(h / (m * w)), m / (2.0 * h * w),
                      m * w * w / math.sqrt(2.0 * m * h * w))
        except ArithmeticError:
            scales = (math.inf,)
        if not all(0.0 < x < math.inf for x in scales):
            raise ValueError(f"mass {m!r}, omega {w!r} and hbar {h!r} put the oscillator's "
                             "scales outside the float range")
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
    one-sidedly, so evaluators never need two-sided limits. Exactly at a
    breakpoint the built-in evaluators return the right-hand piece's value.

    ``pieces`` is the piece table b is built from, where it has a closed-form
    Fourier transform: ``(starts, rows, harmonics)``, the sorted piece edges,
    b's coefficients per piece (lowest power first, in the time since the
    piece starts), and per piece ``(r, Omega, theta, odd)`` for the term
    r cos(Omega tau + theta), or r sin if ``odd`` (``()`` without a harmonic).
    Amplitudes of an axis with pieces come from them; without, by quadrature.
    """

    b: Evaluator
    bdot: Evaluator
    bddot: Evaluator
    starts_at_zero: bool
    starts_at_rest: bool
    feature_time: float | None = None
    breakpoints: tuple[float, ...] = ()
    pieces: tuple | None = None


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

    def split(self) -> tuple[Trajectory, ...]:
        """One 1-D trajectory per axis, sharing this duration; ``(self,)`` in 1-D."""
        if self.dimension == 1:
            return (self,)
        return tuple(Trajectory((ax,), self.duration) for ax in self.axes)


def _piece_evaluator(starts: np.ndarray, table: np.ndarray) -> Evaluator:
    """Horner evaluation of ``table`` (one coefficient array per power, one
    entry per piece) in the time since the start of the piece that holds t.
    The right-hand piece holds an edge; the first piece starts at 0 and also
    holds t < 0."""
    if starts.size == 1:
        powers = table[:, 0].tolist()

        def single(t):
            tau = np.asarray(t, dtype=float)
            # numpy's polyval, operation for operation
            acc = powers[-1] + 0.0 * tau
            for c in powers[-2::-1]:
                acc = c + acc * tau
            return acc

        return single

    def piecewise(t):
        t = np.asarray(t, dtype=float)
        idx = np.maximum(np.searchsorted(starts, t, side="right") - 1, 0)
        tau = t - starts[idx]
        acc = table[-1][idx]
        for row in table[-2::-1]:
            acc = row[idx] + acc * tau
        return acc

    return piecewise


def _piece_table(starts, rows, T: float):
    """b, b' and b'' evaluators, the interior edges of a piece table and its
    padded rows as tuples of floats.

    ``starts`` are the sorted piece edges, the first at 0; ``rows[i]`` holds
    b's coefficients on piece i, lowest power first, in the time since
    ``starts[i]``. Coefficients that are not finite, or edges that do not
    increase (a piece narrower than the float spacing), raise ValueError.
    """
    width = max(len(row) for row in rows)
    table = np.array([list(row) + [0.0] * (width - len(row)) for row in rows], dtype=float).T
    starts = np.asarray(starts, dtype=float)
    if not (np.isfinite(table).all() and (np.diff(starts) > 0.0).all()):
        raise ValueError("a piece table needs finite coefficients and increasing edges")
    rate = _derivative(table)
    evaluators = tuple(_piece_evaluator(starts, c) for c in (table, rate, _derivative(rate)))
    return (evaluators, tuple(s for s in starts.tolist() if 0.0 < s < T),
            tuple(map(tuple, table.T.tolist())))


def _derivative(table: np.ndarray) -> np.ndarray:
    """Exact coefficient table of the derivative, in the order (and with the
    rounding) of numpy's ``polyder``; a constant's is one zero power."""
    if len(table) == 1:
        return 0.0 * table
    return table[1:] * np.arange(1.0, len(table))[:, None]


def _piecewise_axis(starts, rows, T: float, harmonic=None,
                    feature_time: float | None = None) -> Axis:
    """An axis whose b is the piece table ``(starts, rows)`` plus, if
    ``harmonic = (r, phase_rows, odd)`` is given, r cos(psi), or r sin(psi)
    if ``odd``, of the phase table psi = ``(starts, phase_rows)``. b' and b''
    follow by the chain rule; psi'' is left out where the phase table has no
    power above the first, so b and b'' then cost one cosine or sine per node.
    Without such a power the axis carries its ``pieces``. The boundary flags
    are b(0) == 0 and b'(0) == 0, exactly. A row or harmonic coefficient that
    is not finite raises ValueError."""
    (b, bdot, bddot), breakpoints, table = _piece_table(starts, rows, T)
    harmonics, curved = (), False
    if harmonic is not None:
        r, phase_rows, odd = harmonic
        if not math.isfinite(r):
            raise ValueError(f"harmonic amplitude must be finite, got {r!r}")
        (phase, rate, curve), _, phases = _piece_table(starts, phase_rows, T)
        curved = any(c != 0.0 for row in phase_rows for c in row[2:])
        harmonics = tuple((float(r), row[1] if len(row) > 1 else 0.0, row[0], bool(odd))
                          for row in phases)
        # d/dpsi of r f(psi) is s g(psi); d2/dpsi2 of it is -r f(psi)
        f, g, s = (np.sin, np.cos, r) if odd else (np.cos, np.sin, -r)
        poly, poly_rate, poly_accel = b, bdot, bddot

        def b(t):
            return poly(t) + r * f(phase(t))

        def bdot(t):
            return poly_rate(t) + s * rate(t) * g(phase(t))

        def bddot(t):
            psi = phase(t)
            acc = poly_accel(t) - r * rate(t) ** 2 * f(psi)
            return acc + s * curve(t) * g(psi) if curved else acc

    pieces = None if curved else (tuple(float(s) for s in starts), table, harmonics)
    return Axis(b=b, bdot=bdot, bddot=bddot, starts_at_zero=bool(b(0.0) == 0.0),
                starts_at_rest=bool(bdot(0.0) == 0.0), feature_time=feature_time,
                breakpoints=breakpoints, pieces=pieces)


def _kick_rows(v: float, T_a: float, stop: float | None):
    """Piece starts and rows of a rate that ramps from 0 to v over [0, T_a]
    (quintic smoothstep sigma(u) = 10u^3 - 15u^4 + 6u^5) and, if ``stop`` is
    given, back to 0 over [stop, stop + T_a]. The rows are the closed-form
    integrals, so the position is exact and the rate is exactly 0 (and b
    exactly v * stop) from stop + T_a on. Where a power of T_a leaves the
    float range, the ramp coefficients are inf, for _piece_table to refuse."""
    starts = [0.0, T_a]
    try:
        ramp = (2.5 * v / T_a ** 3, -3.0 * v / T_a ** 4, v / T_a ** 5)
    except (ZeroDivisionError, OverflowError):
        ramp = (math.inf,) * 3
    rows = [(0.0, 0.0, 0.0, 0.0, *ramp), (v * T_a / 2.0, v)]
    if stop is not None:
        starts += [stop, stop + T_a]
        rows += [(v * (stop - T_a / 2.0), v, 0.0, 0.0, *(-c for c in ramp)), (v * stop,)]
    return starts, rows


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def make_constant_acceleration(a: float, T: float) -> Trajectory:
    """Uniformly accelerated center: b = a t^2 / 2."""
    _require_positive("T", T)
    if not math.isfinite(a):
        raise ValueError(f"a must be finite, got {a!r}")
    return Trajectory((_piecewise_axis([0.0], [(0.0, 0.0, 0.5 * a)], T),), T)


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

    return Trajectory((_piecewise_axis(*_kick_rows(v, T_a, stop_at), T),), T)


def make_sinusoidal(R: float, Omega: float, T: float) -> Trajectory:
    """Periodic center motion b = R (1 - cos(Omega t)); starts from rest."""
    if not (math.isfinite(R) and R >= 0.0):
        raise ValueError(f"R must be finite and non-negative, got {R!r}")
    _require_positive("Omega", Omega)
    _require_positive("T", T)
    axis = _piecewise_axis([0.0], [(R,)], T, (-R, [(0.0, Omega)], False), 2.0 * math.pi / Omega)
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
    # x = R - R cos(phi), y = R sin(phi); the down-ramp occupies [T - T_a, T]
    starts, phase_rows = _kick_rows(Omega, T_a, t_rev)
    return Trajectory(tuple(
        _piecewise_axis(starts, [(offset,)] * len(starts), T, (r, phase_rows, odd),
                        2.0 * math.pi / Omega)
        for offset, r, odd in ((R, -R, False), (0.0, R, True))), T)


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
    return Trajectory((_piecewise_axis([0.0], [c.tolist()], T),), T)


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
