"""Trajectory optimization for excitation-free trap transport.

Move the trap center by a displacement d in time T while leaving the
oscillator in its initial internal state: the heating measure is the
residual excitation gamma(T) = |u(T)|^2, which vanishes exactly when the
Fourier component of b'' at the trap frequency over [0, T] is zero.

Trajectory families handle the four boundary conditions
b(0) = b'(0) = 0, b(T) = d, b'(T) = 0 by exact elimination: the conditions
fix a subset of the family coefficients and the remaining ones are free
parameters, so every candidate is exactly feasible. In both families b'' is
linear in the free parameters, so u(T) is affine in them, and ``optimize``
zeroes it with one linear least-squares solve (Re u and Im u give two real
equations in n_free unknowns) instead of a search. That takes at most
n_free + 2 evaluations of u(T), each in closed form from the family's
coefficient rows, and the seed and its n_free shifted columns share one
call. Only the answer is built into a trajectory.

The implementation is deliberately scale-equivariant: doubling d and the
seed doubles every trajectory and every measured column of the affine map
exactly, so optimized residuals scale by exactly 4. This is what makes the
quadratic-scaling check sharp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .excitation import _closed_form, _prefactors
from .model import OscillatorParams, Trajectory, _piecewise_axis

#: Residual gamma below which a solution counts as converged (mean phonon
#: number; dimensionless).
DEFAULT_THRESHOLD = 1e-8


def _in_float_range(method):
    """A family ``method(problem, ...)`` that raises ValueError, not an
    ArithmeticError or a value that is not finite, where the problem's
    duration and displacement leave the float range."""
    def checked(self, problem, *args):
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                out = method(self, problem, *args)
            if np.isfinite(out).all():
                return out
        except ArithmeticError:  # ZeroDivisionError, OverflowError, FloatingPointError
            pass
        raise ValueError(f"{self} cannot carry displacement {problem.displacement!r} in "
                         f"duration {problem.duration!r}: its {method.__name__} leaves "
                         "the float range")
    checked.__doc__ = method.__doc__
    return checked


def _edges(duration: float, pieces: int) -> np.ndarray:
    """Edges of ``pieces`` equal-width pieces of [0, duration]."""
    return duration / pieces * np.arange(pieces)


class _Family:
    """b is the piece table ``rows(problem, free_params)`` on equal-width pieces of [0, T]."""

    def _free(self, free_params) -> np.ndarray:
        free = np.asarray(free_params, dtype=float)
        if free.shape != (self.n_free,):
            raise ValueError(f"{self} expects {self.n_free} free parameters, got {free.shape}")
        if not np.all(np.isfinite(free)):
            raise ValueError("free parameters must be finite")
        return free

    def build(self, problem: "TransportProblem", free_params) -> Trajectory:
        rows, T = self.rows(problem, free_params), problem.duration
        return Trajectory((_piecewise_axis(_edges(T, len(rows)), rows, T),), T)


@dataclass(frozen=True)
class PolynomialFamily(_Family):
    """b(t) = sum_k c_k t^k of the given degree.

    The boundary conditions force c_0 = c_1 = 0 and determine (c_2, c_3)
    from the remaining coefficients; the free parameters are (c_4 .. c_k).
    Degree 3 has no freedom and describes the unique cubic ramp.
    """

    degree: int

    def __post_init__(self):
        if self.degree < 3:
            raise ValueError("polynomial transport needs degree >= 3 to meet the boundary conditions")

    @property
    def n_free(self) -> int:
        return self.degree - 3

    @_in_float_range
    def coefficients(self, problem: "TransportProblem", free_params) -> np.ndarray:
        free = self._free(free_params)
        T = problem.duration
        d = problem.displacement
        # position and velocity carried by the free tail c_4..c_k at t = T
        pos_tail = 0.0
        vel_tail = 0.0
        for j, c in enumerate(free, start=4):
            pos_tail += c * T ** j
            vel_tail += j * c * T ** (j - 1)
        # solve c2 T^2 + c3 T^3 = d - pos_tail ; 2 c2 T + 3 c3 T^2 = -vel_tail
        rhs_pos = d - pos_tail
        rhs_vel = -vel_tail
        c3 = (rhs_vel - 2.0 * rhs_pos / T) / (T * T)
        c2 = (rhs_pos - c3 * T ** 3) / (T * T)
        return np.concatenate(([0.0, 0.0, c2, c3], free))

    def rows(self, problem: "TransportProblem", free_params) -> np.ndarray:
        """b's one row: its coefficients."""
        return self.coefficients(problem, free_params)[None]

    @_in_float_range
    def seed(self, problem: "TransportProblem") -> np.ndarray:
        """Free parameters of the quintic smoothstep displacement (its
        (c_4, c_5) tail), truncated to the family size."""
        T = problem.duration
        d = problem.displacement
        full = [-15.0 * d / T ** 4, 6.0 * d / T ** 5]
        out = np.zeros(self.n_free)
        out[: min(2, self.n_free)] = full[: min(2, self.n_free)]
        return out

    @_in_float_range
    def param_scales(self, problem: "TransportProblem") -> np.ndarray:
        d_scale = abs(problem.displacement) or 1.0
        return np.array([d_scale / problem.duration ** j for j in range(4, self.degree + 1)])


@dataclass(frozen=True)
class PiecewiseAccelerationFamily(_Family):
    """b'' piecewise constant on equal-length segments of [0, T].

    The velocity and position conditions at T eliminate the last two segment
    accelerations; the first (segments - 2) are free. Exactly at a segment
    edge b'' is the right-hand segment's acceleration.
    """

    segments: int

    def __post_init__(self):
        if self.segments < 2:
            raise ValueError("need at least 2 segments to meet the boundary conditions")

    @property
    def n_free(self) -> int:
        return self.segments - 2

    @_in_float_range
    def accelerations(self, problem: "TransportProblem", free_params) -> np.ndarray:
        free = self._free(free_params)
        n = self.segments
        dt = problem.duration / n
        # velocity:  sum_i a_i = 0  (common factor dt dropped)
        # position:  sum_i a_i (n - i - 1/2) dt^2 = d,  i = 0-based segment
        s_vel = -math.fsum(free)
        s_pos = problem.displacement / dt ** 2 - math.fsum(
            a * (n - i - 0.5) for i, a in enumerate(free)
        )
        # remaining unknowns at i = n-2 (weight 1.5) and i = n-1 (weight 0.5)
        a_penult = s_pos - 0.5 * s_vel
        a_last = s_vel - a_penult
        return np.concatenate((free, [a_penult, a_last]))

    @_in_float_range
    def rows(self, problem: "TransportProblem", free_params) -> np.ndarray:
        """b's row per segment: position, velocity and half the acceleration at its start."""
        accel = self.accelerations(problem, free_params)
        dt = problem.duration / self.segments
        v_start = np.concatenate(([0.0], np.cumsum(accel * dt)))
        b_start = np.concatenate(([0.0], np.cumsum(v_start[:-1] * dt + 0.5 * accel * dt ** 2)))
        return np.column_stack((b_start[:-1], v_start[:-1], 0.5 * accel))

    @_in_float_range
    def seed(self, problem: "TransportProblem") -> np.ndarray:
        d_scale = abs(problem.displacement) or 1.0
        amp = d_scale / problem.duration ** 2
        return amp * np.sin(math.pi * (np.arange(self.n_free) + 1) / (self.n_free + 1)) \
            if self.n_free else np.zeros(0)

    @_in_float_range
    def param_scales(self, problem: "TransportProblem") -> np.ndarray:
        d_scale = abs(problem.displacement) or 1.0
        return np.full(self.n_free, d_scale / problem.duration ** 2)


@dataclass(frozen=True)
class TransportProblem:
    """Carry the oscillator by ``displacement`` in ``duration`` without heating."""

    displacement: float
    duration: float
    params: OscillatorParams
    family: PolynomialFamily | PiecewiseAccelerationFamily

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise ValueError(f"duration must be finite and positive, got {self.duration!r}")
        if not math.isfinite(self.displacement):
            raise ValueError(f"displacement must be finite, got {self.displacement!r}")
        # ValueError where the family's seed or scales leave the float range
        self.family.seed(self)
        self.family.param_scales(self)


@dataclass(frozen=True)
class TransportSolution:
    trajectory: Trajectory
    residual: float
    evaluations: int
    converged: bool
    free_params: np.ndarray


def objective(problem: TransportProblem, free_params) -> float:
    """Residual excitation gamma(T) of the constrained trajectory."""
    return float(_amplitudes(problem, [free_params])[1][0])


def _amplitudes(problem: TransportProblem, trials):
    """u(T) and gamma(T) at each free-parameter vector of ``trials``, from
    one closed-form call over their stacked coefficient rows (one family, so
    the same edges)."""
    rows, T = np.array([problem.family.rows(problem, x) for x in trials]), problem.duration
    values = _closed_form((_edges(T, rows.shape[1]), rows, ()), problem.params,
                          np.array([T]), ("u",))
    u = _prefactors(problem.params)["u"] * values[0, :, 0]
    return u, u.real ** 2 + u.imag ** 2


def verify_boundaries(traj: Trajectory, problem: TransportProblem) -> None:
    """Independently re-check the four boundary conditions, to 1e-9 of d and of d / T."""
    ax = traj.axes[0]
    d = problem.displacement
    T = problem.duration
    len_scale = max(abs(d), 1e-300)
    vel_scale = max(abs(d) / T, 1e-300)
    checks = (
        ("b(0)", float(ax.b(0.0)), 0.0, len_scale),
        ("b'(0)", float(ax.bdot(0.0)), 0.0, vel_scale),
        ("b(T)", float(ax.b(T)), d, len_scale),
        ("b'(T)", float(ax.bdot(T)), 0.0, vel_scale),
    )
    for name, got, want, scale in checks:
        if abs(got - want) > 1e-9 * scale:
            raise NumericalError(
                f"boundary condition {name} violated: got {got!r}, want {want!r}"
            )


def optimize(problem: TransportProblem, seed_params=None, *,
             threshold: float = DEFAULT_THRESHOLD) -> TransportSolution:
    """Minimize the residual excitation over the family's free parameters.

    u(T) is affine in the free parameters, so one least-squares step finds
    the minimum: u is measured at the seed and at the seed moved by
    ``param_scales[i]`` along each parameter i in one call, and the
    minimum-norm step to the least |u| is re-checked. The better of seed and
    solution is returned. That costs one evaluation of u(T) when there is no
    freedom or the seed is below ``threshold``, else n_free + 2. A residual
    above ``threshold`` gives ``converged=False``, not an error; a
    ``threshold`` that is not finite and >= 0 raises ``ValueError``.
    """
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold!r}")
    family = problem.family
    if seed_params is None:
        seed_params = family.seed(problem)
    seed = np.asarray(seed_params, dtype=float)
    if seed.shape != (family.n_free,):
        raise ValueError(
            f"seed has shape {seed.shape}, family expects ({family.n_free},)"
        )

    best_x, residual = seed, float(_amplitudes(problem, [seed])[1][0])
    evaluations = 1
    if family.n_free and residual >= threshold:
        scales = family.param_scales(problem)
        u, _ = _amplitudes(problem, [seed, *(seed + np.diag(scales))])
        # column i: change of u(T) per param_scales[i] along free parameter i
        columns = u[1:] - u[0]
        matrix = np.array([columns.real, columns.imag])
        rhs = np.array([-u[0].real, -u[0].imag])
        solved = seed + scales * np.linalg.lstsq(matrix, rhs, rcond=None)[0]
        _, (gamma,) = _amplitudes(problem, [solved])
        evaluations += family.n_free + 1
        if gamma < residual:
            best_x, residual = solved, float(gamma)
    if not math.isfinite(residual):
        raise NumericalError(f"residual excitation is {residual!r}", residual=residual)

    trajectory = family.build(problem, best_x)
    verify_boundaries(trajectory, problem)
    return TransportSolution(
        trajectory=trajectory,
        residual=residual,
        evaluations=evaluations,
        converged=residual < threshold,
        free_params=np.array(best_x),
    )
