"""A classical referee for u(t) that reads only b.

The Hamiltonian is quadratic, so the mean position obeys the forced
oscillator x'' = -omega^2 (x - b) exactly, and the moving-frame coherent
amplitude alpha = sqrt(M omega / 2 hbar) [(x - b) + i (x' - b') / omega]
equals -e^{-i omega t} conj(u(t)). The ODE is integrated by DOP853 (rtol =
atol = 1e-12, steps of at most 0.1 period) with its right-hand side sampling
only ``Axis.b``; b and b' are read only at the start and at the compared
instants. It shares no code with the closed
forms or the quadrature.

Each comparison is held to tol x |pref| x L1, the scale the quadrature
converges against (tol the default ``QuadratureConfig().tol``, L1 the
integral of |b''| up to the instant, |pref| = sqrt(M / 2 hbar omega)). The
ODE's own error lies inside it: the differences read 25 (the circle's x
axis) to 6600 times below the bound. Instants avoid the common return instants of omega and Omega,
where u vanishes and a comparison would show nothing.
"""

import math

import numpy as np
from scipy.integrate import ode

from trapmotion import (
    PolynomialFamily,
    QuadratureConfig,
    TransportProblem,
    excitation_profile,
    make_circular,
    make_kick,
    make_sinusoidal,
    optimize,
)

TWO_PI = 2.0 * math.pi


def _referee_u(traj, params, times):
    """u at the sorted ``times`` on each axis of ``traj``, from the classical
    ODE; all axes are integrated as one system."""
    axes = traj.axes
    dim = len(axes)
    w2 = params.omega ** 2
    samplers = [ax.b for ax in axes]

    def rhs(t, y):
        return np.concatenate((y[dim:], w2 * ([b(t) for b in samplers] - y[:dim])))

    # Hairer's Fortran DOP853, the method solve_ivp's DOP853 ports, at a
    # third of its per-step cost
    solver = ode(rhs).set_integrator("dop853", rtol=1e-12, atol=1e-12,
                                     max_step=0.1 * params.period, nsteps=10 ** 7)
    solver.set_initial_value([float(ax.b(0.0)) for ax in axes]
                             + [float(ax.bdot(0.0)) for ax in axes], 0.0)
    y = np.array([solver.integrate(t) for t in times]).T
    assert solver.successful()
    scale = math.sqrt(params.mass * params.omega / (2.0 * params.hbar))
    out = []
    for k, ax in enumerate(axes):
        alpha = scale * ((y[k] - ax.b(times)) + 1j * (y[dim + k] - ax.bdot(times)) / params.omega)
        out.append(-np.exp(-1j * params.omega * times) * np.conj(alpha))
    return out


def _bound(ax, params, times):
    """tol x |pref| x the L1 norm of b'' up to each instant."""
    ts = np.linspace(0.0, times[-1], 20_001)
    acc = np.abs(ax.bddot(ts))
    l1 = np.concatenate(([0.0], np.cumsum(0.5 * (acc[1:] + acc[:-1]) * (ts[1] - ts[0]))))
    pref = math.sqrt(params.mass / (2.0 * params.hbar * params.omega))
    return QuadratureConfig().tol * pref * np.interp(times, ts, l1)


def _agree(traj, params, fractions):
    times = np.asarray(fractions) * traj.duration
    for ax_traj, u in zip(traj.split(), _referee_u(traj, params, times)):
        got = excitation_profile(ax_traj, params, times).u
        bound = _bound(ax_traj.axes[0], params, times)
        assert np.all(np.abs(got - u) <= bound), (np.abs(got - u), bound)


def test_kick_with_stop_over_100_periods(params):
    T = 100 * TWO_PI
    _agree(make_kick(1.0, 0.05 * TWO_PI, T, stop_at=0.5371 * T), params,
           [0.1371, 0.5513, 0.8891, 1.0])


def test_sinusoid_over_100_periods(params):
    # T itself is a common return instant (70 drive periods), so it is left out
    _agree(make_sinusoidal(0.3, 0.7, 100 * TWO_PI), params, [0.1371, 0.5513, 0.8891])


def test_circle_both_axes_through_the_ramps(params):
    # 50 trap periods; the ramps turn a quintic phase, so u comes by quadrature
    circle = make_circular(0.2, 0.45, 0.05, 50 * 0.45)
    assert all(ax.pieces is None for ax in circle.axes)
    _agree(circle, params, [0.1371, 0.5513, 0.8891])


def test_solved_transport_sits_at_roundoff(params):
    problem = TransportProblem(1.0, 3 * TWO_PI, params, PolynomialFamily(7))
    solution = optimize(problem, threshold=0.0)
    assert solution.residual <= 1e-20
    _agree(solution.trajectory, params, [0.3137, 0.7071, 1.0])


def test_referee_pins_the_phase_convention_of_u(params):
    # alpha = -e^{-i omega t} conj(u) fixes u's phase: conj(u) has the same
    # modulus and fails
    traj = make_sinusoidal(0.3, 0.7, 3 * TWO_PI)
    times = np.array([0.29, 0.61]) * traj.duration
    (u,) = _referee_u(traj, params, times)
    got = excitation_profile(traj, params, times).u
    assert np.abs(got - u).max() <= 1e-9
    assert np.abs(np.conj(got) - u).max() > 1e-2
    assert np.abs(np.abs(got) - np.abs(u)).max() <= 1e-9
