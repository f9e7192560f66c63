"""Brute-force verification on a spatial grid.

Wavepackets are propagated under H = p^2/(2M) + M omega^2 (x - b(t))^2 / 2
with a second-order Strang splitting (spectral kinetic half-steps around a
potential step evaluated at the midpoint time; no step evaluates an
exponential over the whole grid, see :func:`propagate`). Analytic states - Fock
functions in the frame of the moving center carrying the Galilean boost
phase exp(i M b' x / hbar), and the exactly known driven coherent state -
are sampled on the same grid, so every closed-form probability elsewhere in
the package can be cross-checked against direct integration of the
Schroedinger equation with no shared code path.

There is no fixed cap on the Fock level. Level n fits a grid when its reach,
sqrt(2n + 1) + 5 ground-state widths, lies inside the grid, and inside the
Nyquist wavenumber pi / dx around the boost wavenumber M v / hbar; the Hermite
recurrence also needs exp(-reach^2 / 2) in float64 range (n <= 532). A level
that does not fit raises :class:`ResourceError`.

Every function that takes a trajectory takes one axis: a 1-D Trajectory or an
Axis. A propagation run owns its state; independent runs are trivially parallel.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ResourceError, TruncationWarning
from .excitation import _check_time, _prefactors, _resolve_axis
from .model import Axis, OscillatorParams, Trajectory
from .quadrature import QuadratureConfig, running_integrals

#: Minimum propagation resolution, steps per trap period.
MIN_STEPS_PER_PERIOD = 500

_MARGIN_WIDTHS = 8.0     # make_grid's state-extent margin, in ground-state widths
_EDGE_CHECK_EVERY = 16   # propagate tests the grid edges every this many steps


@dataclass(frozen=True)
class Grid:
    """Uniform spatial grid with a power-of-two point count (for the FFT)."""

    x_min: float
    x_max: float
    points: int

    def __post_init__(self):
        if not (self.x_max > self.x_min):
            raise ValueError("x_max must exceed x_min")
        if self.points < 256:
            raise ValueError(f"need at least 256 grid points, got {self.points}")
        if self.points & (self.points - 1):
            raise ValueError(f"points must be a power of two, got {self.points}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.points

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.points)

    @property
    def wavenumbers(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.points, d=self.dx)


def make_grid(traj: Trajectory, params: OscillatorParams, points: int = 4096, *,
              alpha_extent: float = 0.0, n_max: int = 0) -> Grid:
    """Grid sized from the trajectory excursion plus state-extent margins.

    The margin covers eight ground-state widths, the coherent displacement
    sqrt(2) * |alpha|, and the classical turning point of Fock level
    ``n_max``.
    """
    ax, duration = _resolve_axis(traj)
    if duration is None:
        raise TypeError("make_grid samples the excursion over a 1-D Trajectory's duration")
    ts = np.linspace(0.0, duration, 2049)
    b = np.asarray(ax.b(ts), dtype=float)
    sigma = params.ground_width
    margin = (_MARGIN_WIDTHS + math.sqrt(2.0) * abs(alpha_extent)
              + math.sqrt(2.0 * n_max + 1.0)) * sigma
    return Grid(float(b.min()) - margin, float(b.max()) + margin, points)


@dataclass(frozen=True)
class GridState:
    """Complex wavefunction samples on a grid at one instant."""

    grid: Grid
    psi: np.ndarray
    t: float

    def norm(self) -> float:
        """L2 norm on the grid, integral |psi|^2 dx."""
        return float(np.sum(np.abs(self.psi) ** 2) * self.grid.dx)


def overlap(bra: GridState, ket: GridState) -> complex:
    """Grid inner product <bra|ket>."""
    if bra.grid != ket.grid:
        raise ValueError("states live on different grids")
    return complex(np.vdot(bra.psi, ket.psi) * bra.grid.dx)


def _check_extent(psi: np.ndarray, grid: Grid, what: str) -> None:
    """Refuse ``psi`` when its mass within 4 cells of either grid edge exceeds 1e-10."""
    edge = np.concatenate((psi[:4], psi[-4:]))
    if float(np.sum(np.abs(edge) ** 2) * grid.dx) > 1e-10:
        raise ResourceError(f"{what} has non-negligible amplitude within 4 cells of "
                            "the grid boundary; enlarge the grid")


def _check_bandwidth(phi: np.ndarray, grid: Grid, what: str) -> None:
    """Refuse a state whose FFT ``phi`` puts mass above 1e-10 within 4 bins of
    the Nyquist wavenumber pi / dx, where the grid aliases momentum."""
    nyquist = grid.points // 2
    edge = phi[nyquist - 4:nyquist + 4]
    if float(np.sum(np.abs(edge) ** 2) * grid.dx / grid.points) > 1e-10:
        raise ResourceError(f"{what} has non-negligible amplitude within 4 bins of the "
                            "Nyquist wavenumber pi / dx; refine the grid")


def _check_fit(n_max: int, center: float, velocity: float, params: OscillatorParams,
               grid: Grid) -> None:
    """Raise ResourceError unless Fock level n_max at (center, velocity) fits the grid."""
    if n_max < 0:
        raise ValueError(f"Fock level must be >= 0, got {n_max}")
    sigma = params.ground_width
    reach = math.sqrt(2.0 * n_max + 1.0) + 5.0
    if center - reach * sigma < grid.x_min or center + reach * sigma > grid.x_max:
        raise ResourceError(f"grid [{grid.x_min}, {grid.x_max}] too small for Fock level "
                            f"{n_max} centered at {center}")
    if abs(params.mass * velocity / params.hbar) + reach / sigma > math.pi / grid.dx:
        raise ResourceError(f"grid step {grid.dx} too coarse for Fock level {n_max} "
                            f"boosted to velocity {velocity}")
    if 0.5 * reach ** 2 > -math.log(sys.float_info.min):
        raise ResourceError(f"Fock level {n_max} reaches {reach:.3g} widths, past the "
                            "float64 range of its start value exp(-xi^2 / 2)")


def _fock_basis(n_max: int, center: float, velocity: float, params: OscillatorParams,
                grid: Grid) -> np.ndarray:
    """Rows 0..n_max of the moving-frame Fock basis: normalized Hermite functions
    of (x - center) / sigma times the boost exp(i M v x / hbar). Raises
    ResourceError unless level n_max fits the grid (see the module docstring)."""
    _check_fit(n_max, center, velocity, params, grid)
    sigma = params.ground_width
    x = grid.x
    xi = (x - center) / sigma
    stack = np.empty((n_max + 1, len(xi)))
    stack[0] = math.pi ** -0.25 * np.exp(-0.5 * xi ** 2)
    if n_max >= 1:
        stack[1] = math.sqrt(2.0) * xi * stack[0]
    for k in range(2, n_max + 1):
        stack[k] = math.sqrt(2.0 / k) * xi * stack[k - 1] - math.sqrt((k - 1) / k) * stack[k - 2]
    return stack / math.sqrt(sigma) * np.exp(1j * params.mass * velocity * x / params.hbar)


def fock_state(n: int, center: float, boost_velocity: float,
               params: OscillatorParams, grid: Grid) -> GridState:
    """Fock state |n> centered at ``center`` with boost phase exp(i M v x / hbar).

    This is the instantaneous eigenstate seen from a frame moving with the
    trap center; only the boost phase distinguishes it from the static state.
    Any level that fits the grid is allowed; one that does not, in position
    or in momentum (see the module docstring), raises ResourceError.
    """
    raw = GridState(grid, _fock_basis(n, center, boost_velocity, params, grid)[n], 0.0)
    psi = raw.psi / math.sqrt(raw.norm())
    _check_extent(psi, grid, f"Fock state n={n}")
    return GridState(grid, psi, 0.0)


def _delta_profile(ax, params: OscillatorParams, t: float, cfg: QuadratureConfig):
    """delta(t) plus the two phase integrals of the driven coherent state
    (omega * integral delta^2 e^{-2 i omega tau} and integral
    f^2 / (2 M omega^2 hbar)), each converged to ``cfg.tol`` times its own
    L1 scale. Only b is sampled, always under Simpson's rule, so this stays
    independent of the b'' path it checks.
    """
    omega = params.omega
    pref = _prefactors(params)["delta"]
    theta2_pref = params.mass * omega ** 2 / (2.0 * params.hbar)  # f = M omega^2 b

    def batch(grid, te, carried):
        pos = np.asarray(ax.b(te), dtype=float)
        delta_tau = pref * grid.cumulative(pos * np.exp(1j * omega * te))
        delta_end = delta_tau[grid.ends]
        delta_tau += carried[0]
        delta_sq = delta_tau ** 2
        pos_sq = pos ** 2
        values = (delta_end,
                  omega * grid.integral(delta_sq * np.exp(-2j * omega * te)),
                  theta2_pref * grid.integral(pos_sq))
        scales = (abs(pref) * grid.trapezoid(np.abs(pos)),
                  omega * grid.trapezoid(np.abs(delta_sq)),
                  theta2_pref * grid.trapezoid(pos_sq))
        return values, scales

    _, (delta, theta1, theta2), _ = running_integrals(
        batch, 3, np.array([t]), cfg, "driven coherent-state phase integrals", omega=omega,
        feature_time=ax.feature_time, breakpoints=ax.breakpoints)
    return complex(delta[0]), complex(theta1[0]), float(theta2[0].real)


def _kinetic_integral(ax, t: float, cfg: QuadratureConfig) -> float:
    """integral_0^t b'^2 for t > 0, converged to ``cfg.tol`` times itself.
    Only b' is sampled."""
    def batch(grid, te, carried):
        vel_sq = np.asarray(ax.bdot(te), dtype=float) ** 2
        return (grid.integral(vel_sq),), (grid.trapezoid(vel_sq),)

    _, (vel_sq,), _ = running_integrals(
        batch, 1, np.array([t]), cfg, "moving-frame kinetic phase", omega=0.0,
        feature_time=ax.feature_time, breakpoints=ax.breakpoints)
    return float(vel_sq[0].real)


def _gaussian(params: OscillatorParams, grid: Grid, t: float, *, center: float, velocity: float,
              amplitude: complex, quadratic: complex, constant: complex, what: str) -> GridState:
    """The Gaussian of both coherent states at time t, edge-checked:
    (M omega / pi hbar)^(1/4) exp(-(M omega / 2 hbar) (x - center)^2
    + sqrt(2 M omega / hbar) (x - center) e^{-i omega t} amplitude
    + i M velocity x / hbar - i omega t / 2 + quadratic e^{-2 i omega t} + constant)."""
    omega = params.omega
    hbar = params.hbar
    mass = params.mass
    x = grid.x
    phase_t = complex(math.cos(omega * t), -math.sin(omega * t))
    exponent = (
        -(mass * omega / (2.0 * hbar)) * (x - center) ** 2
        + math.sqrt(2.0 * mass * omega / hbar) * (x - center) * phase_t * amplitude
        + 1j * mass * velocity * x / hbar
        - 0.5j * omega * t
        + quadratic * phase_t ** 2
        + constant
    )
    psi = (mass * omega / (math.pi * hbar)) ** 0.25 * np.exp(exponent)
    _check_extent(psi, grid, what)
    return GridState(grid, psi, t)


def coherent_state(alpha: complex, params: OscillatorParams, grid: Grid,
                   t: float = 0.0, traj: Trajectory | Axis | None = None,
                   cfg: QuadratureConfig | None = None) -> GridState:
    """Exact driven coherent state at time t, sampled on the grid.

    With no trajectory (or at t = 0) this is the ordinary coherent state
    |alpha>. With a trajectory, the drive enters through delta(t) and two
    accumulated phases; the state solves the moving-trap Schroedinger
    equation exactly, global phase included, which makes it a stringent
    reference for the propagator.
    """
    alpha = complex(alpha)
    ax, duration = _resolve_axis(traj) if traj is not None else (None, None)
    _check_time(t, duration)
    if ax is not None and t > 0.0:
        delta, theta1, theta2 = _delta_profile(ax, params, t, cfg or QuadratureConfig())
    else:
        delta, theta1, theta2 = 0.0 + 0.0j, 0.0 + 0.0j, 0.0
    return _gaussian(params, grid, t, center=0.0, velocity=0.0, amplitude=alpha - delta,
                     quadratic=alpha * delta - 0.5 * alpha ** 2,
                     constant=(alpha * delta.conjugate() - 0.5 * abs(alpha) ** 2
                               + 1j * theta1 - 1j * theta2),
                     what="coherent state")


def moving_frame_coherent_state(beta: complex, params: OscillatorParams, grid: Grid,
                                t: float, traj: Trajectory | Axis,
                                cfg: QuadratureConfig | None = None) -> GridState:
    """Unforced coherent state |beta> relative to the moving center b(t).

    Sampled in the lab frame: a Gaussian centered near b(t) carrying the
    boost phase exp(i M b' x / hbar) and the accumulated kinetic phase of the
    frame, (M / 2 hbar) * integral b'^2.
    """
    beta = complex(beta)
    ax, duration = _resolve_axis(traj)
    _check_time(t, duration)
    kin = (_kinetic_integral(ax, t, cfg or QuadratureConfig()) * params.mass / (2.0 * params.hbar)
           if t else 0.0)
    return _gaussian(params, grid, t, center=float(ax.b(t)), velocity=float(ax.bdot(t)),
                     amplitude=beta, quadratic=-0.5 * beta ** 2,
                     constant=-0.5 * abs(beta) ** 2 - 1j * kin, what="moving-frame coherent state")


def propagate(state: GridState, traj: Trajectory | Axis, params: OscillatorParams,
              t_final: float, steps_per_period: int = 2000) -> GridState:
    """Strang-split evolution of ``state`` from its own time to ``t_final``.

    Each step applies a spectral half kinetic step, the full potential step
    with the center evaluated at the midpoint time, and another half kinetic
    step (adjacent half-steps are fused). The potential phase, factored about
    the grid midpoint (y = x - mid, s = b - mid), is the chirp exp(v y^2),
    made once per call, times exp(v s (s - 2 y)), whose y = y_hi[row] +
    y_lo[col] split over a rows x cols view needs about 2 sqrt(points)
    exponentials a step. Norm drift beyond 1e-6 aborts with a numerical
    error; amplitude reaching the grid edge, or the Nyquist wavenumber
    pi / dx, tested every 16 steps and at the end, aborts with a resource
    error.
    """
    if steps_per_period < MIN_STEPS_PER_PERIOD:
        raise ValueError(
            f"steps_per_period must be >= {MIN_STEPS_PER_PERIOD}, got {steps_per_period}"
        )
    ax, duration = _resolve_axis(traj)
    _check_time(t_final, duration)
    t0 = state.t
    if t_final < t0:
        raise ValueError(f"t_final {t_final!r} precedes the state time {t0!r}")
    if t_final == t0:
        return state
    grid = state.grid
    omega = params.omega
    period = 2.0 * math.pi / omega
    n_steps = max(1, int(math.ceil((t_final - t0) / (period / steps_per_period))))
    dt = (t_final - t0) / n_steps

    k = grid.wavenumbers
    kin_half = np.exp(-1j * params.hbar * k ** 2 * dt / (4.0 * params.mass))
    kin_full = kin_half * kin_half / grid.points  # the unscaled inverse FFT's 1/n
    v_coef = -1j * dt * params.mass * omega ** 2 / (2.0 * params.hbar)
    mid = 0.5 * (grid.x_min + grid.x_max)
    y = grid.x - mid
    cols = 1 << (grid.points.bit_length() // 2)
    chirp = np.exp(v_coef * y * y).reshape(-1, cols)
    y_hi = y[::cols, None]
    y_lo = grid.dx * np.arange(cols)

    t_mid = t0 + (np.arange(n_steps) + 0.5) * dt
    b_mid = np.asarray(ax.b(t_mid), dtype=float)
    psi = np.fft.ifft(kin_half * np.fft.fft(state.psi))
    rows_cols = psi.reshape(chirp.shape)
    phi = np.empty_like(psi)
    buf = np.empty_like(psi)
    for j in range(n_steps):
        s = b_mid[j] - mid
        rows_cols *= chirp
        rows_cols *= np.exp(v_coef * s * (s - 2.0 * y_hi))
        rows_cols *= np.exp(-2.0 * v_coef * s * y_lo)
        np.fft.fft(psi, out=phi)
        if j < n_steps - 1:
            np.multiply(phi, kin_full, out=buf)
            np.fft.ifft(buf, norm="forward", out=psi)
        if j % _EDGE_CHECK_EVERY == _EDGE_CHECK_EVERY - 1:
            _check_extent(psi, grid, f"wavepacket at t ~ {t_mid[j]:.6g}")
            _check_bandwidth(phi, grid, f"wavepacket at t ~ {t_mid[j]:.6g}")
    psi = np.fft.ifft(kin_half * phi)

    end = GridState(grid, psi, t_final)
    drift = abs(end.norm() - state.norm())
    if drift > 1e-6:
        raise NumericalError(f"norm drifted by {drift:.3e} during propagation", residual=drift)
    _check_extent(psi, grid, f"wavepacket at t = {t_final:.6g}")
    # the last kinetic half-step leaves |phi| unchanged
    _check_bandwidth(phi, grid, f"wavepacket at t = {t_final:.6g}")
    return end


def _project(state: GridState, traj: Trajectory | Axis, params: OscillatorParams,
             n_max: int) -> tuple[np.ndarray, str | None]:
    """:func:`measure_transitions`' populations, and the message of its
    TruncationWarning if they capture under 0.999 of the state (else None)."""
    ax, _ = _resolve_axis(traj)
    grid = state.grid
    basis = _fock_basis(n_max, float(ax.b(state.t)), float(ax.bdot(state.t)), params, grid)
    probs = np.abs(basis.conj() @ state.psi * grid.dx) ** 2
    capture = float(np.sum(probs))
    if capture < 0.999:
        return probs, (f"projections onto n <= {n_max} capture only {capture:.6f} "
                       "of the state; raise n_max or enlarge the grid")
    return probs, None


def measure_transitions(state: GridState, traj: Trajectory | Axis, params: OscillatorParams,
                        n_max: int) -> np.ndarray:
    """Populations |<n, moving frame | state>|^2 for n = 0..n_max.

    The reference states are Fock functions centered at b(t) with the boost
    phase of the instantaneous center velocity; global phases cancel in the
    squared modulus. Level ``n_max`` must fit the grid around b(t), in
    position and in momentum (see the module docstring), or ResourceError.
    Populations that capture under 0.999 of the state warn with a
    TruncationWarning.
    """
    probs, truncation = _project(state, traj, params, n_max)
    if truncation:
        warnings.warn(truncation, TruncationWarning, stacklevel=2)
    return probs


# --- snapshot io -------------------------------------------------------------

_SNAPSHOT_MAGIC = "trapmotion-snapshot 1"


def save_snapshot(state: GridState, path) -> None:
    """Write (x, Re psi, Im psi) triples as little-endian float64 after a
    plain-text header carrying the grid metadata and time stamp."""
    grid = state.grid
    header = (
        f"{_SNAPSHOT_MAGIC}\n"
        f"points={grid.points} x_min={grid.x_min!r} x_max={grid.x_max!r} t={state.t!r}\n"
        "end\n"
    )
    triples = np.column_stack((grid.x, state.psi.real, state.psi.imag)).astype("<f8")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(triples.tobytes())


def load_snapshot(path) -> GridState:
    """Inverse of :func:`save_snapshot`."""
    with open(path, "rb") as fh:
        magic = fh.readline().decode("ascii").rstrip("\n")
        if magic != _SNAPSHOT_MAGIC:
            raise ValueError(f"not a snapshot file: bad magic {magic!r}")
        meta = dict(item.split("=", 1) for item in fh.readline().decode("ascii").split())
        if fh.readline().decode("ascii").rstrip("\n") != "end":
            raise ValueError("malformed snapshot header")
        points = int(meta["points"])
        raw = np.frombuffer(fh.read(), dtype="<f8").reshape(points, 3)
    grid = Grid(float(meta["x_min"]), float(meta["x_max"]), points)
    psi = raw[:, 1] + 1j * raw[:, 2]
    return GridState(grid, psi, float(meta["t"]))
