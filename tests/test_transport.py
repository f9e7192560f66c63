import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from trapmotion import (
    NumericalError,
    PiecewiseAccelerationFamily,
    PolynomialFamily,
    QuadratureConfig,
    TransportProblem,
    excitation_amplitude,
    objective,
    optimize,
)
import trapmotion.model as model
import trapmotion.transport as transport
from trapmotion.transport import verify_boundaries

TWO_PI = 2.0 * math.pi


def _poly_problem(params, d=1.0, periods=3.0, degree=5):
    return TransportProblem(d, periods * TWO_PI, params, PolynomialFamily(degree))


# --- families ------------------------------------------------------------------

def test_polynomial_family_needs_degree_three():
    with pytest.raises(ValueError):
        PolynomialFamily(2)
    assert PolynomialFamily(3).n_free == 0
    assert PolynomialFamily(5).n_free == 2


def test_polynomial_family_satisfies_constraints(params):
    problem = _poly_problem(params, d=0.7, periods=2.0)
    for free in (np.zeros(2), np.array([0.01, -0.003])):
        traj = problem.family.build(problem, free)
        verify_boundaries(traj, problem)


def test_polynomial_family_seed_is_smoothstep(params):
    problem = _poly_problem(params, d=1.0, periods=1.0)
    traj = problem.family.build(problem, problem.family.seed(problem))
    ax = traj.axes[0]
    T = problem.duration
    # the quintic smoothstep passes through half the displacement at T/2
    assert float(ax.b(0.5 * T)) == pytest.approx(0.5, rel=1e-12)


def test_polynomial_family_rejects_bad_params(params):
    problem = _poly_problem(params)
    with pytest.raises(ValueError):
        problem.family.build(problem, np.zeros(3))
    with pytest.raises(ValueError):
        problem.family.build(problem, np.array([math.nan, 0.0]))


def test_piecewise_family_satisfies_constraints(params):
    problem = TransportProblem(1.0, 5.0, params, PiecewiseAccelerationFamily(6))
    traj = problem.family.build(problem, np.array([0.1, -0.2, 0.05, 0.0]))
    verify_boundaries(traj, problem)
    assert PiecewiseAccelerationFamily(2).n_free == 0
    with pytest.raises(ValueError):
        PiecewiseAccelerationFamily(1)


def test_problem_validation(params):
    with pytest.raises(ValueError):
        TransportProblem(1.0, 0.0, params, PolynomialFamily(5))
    with pytest.raises(ValueError):
        TransportProblem(math.inf, 1.0, params, PolynomialFamily(5))


@pytest.mark.parametrize("family", [PolynomialFamily(6), PiecewiseAccelerationFamily(4)],
                         ids=["polynomial", "piecewise"])
@pytest.mark.parametrize("duration", [1e-300, 1e300])
def test_family_outside_the_float_range_is_a_value_error(params, family, duration):
    # powers of the duration underflow to 0 or overflow; each method says so
    # as a ValueError, and so does the problem, which asks for seed and scales
    problem = SimpleNamespace(displacement=1.0, duration=duration)
    free = np.ones(family.n_free)
    exact = family.coefficients if isinstance(family, PolynomialFamily) else family.accelerations
    for method, args in ((family.seed, ()), (family.param_scales, ()), (exact, (free,))):
        with pytest.raises(ValueError, match="float range"):
            method(problem, *args)
    with pytest.raises(ValueError, match="float range"):
        TransportProblem(1.0, duration, params, family)


def test_optimize_refuses_a_residual_that_is_not_finite(params):
    problem = _poly_problem(params, d=1e300)
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="residual"):
        optimize(problem)


# --- objective ---------------------------------------------------------------------

def test_objective_zero_displacement_zero_params(params):
    problem = _poly_problem(params, d=0.0)
    assert objective(problem, np.zeros(2)) == 0.0


def test_objective_mirrored_full_period_phases_do_not_heat(params):
    # accelerate for one full period, decelerate for one full period
    problem = TransportProblem(1.0, 2 * TWO_PI, params, PiecewiseAccelerationFamily(2))
    assert objective(problem, np.zeros(0)) < 1e-8


def test_objective_fast_transport_heats(params):
    problem = _poly_problem(params, d=1.0, periods=0.5)
    residual = objective(problem, problem.family.seed(problem))
    assert residual > 0.1


# --- optimizer ---------------------------------------------------------------------

def test_optimize_reaches_threshold_with_spare_freedom(params):
    problem = _poly_problem(params, d=1.0, periods=3.0, degree=5)
    solution = optimize(problem)
    assert solution.converged
    assert solution.residual < 1e-6
    assert solution.evaluations <= 2000
    verify_boundaries(solution.trajectory, problem)


def test_optimize_zero_displacement_is_immediate(params):
    problem = _poly_problem(params, d=0.0)
    solution = optimize(problem)
    assert solution.residual == 0.0
    assert solution.evaluations == 1


def test_optimize_fully_constrained_returns_unique_point(params):
    problem = _poly_problem(params, d=1.0, periods=0.1, degree=3)
    want = objective(problem, np.zeros(0))
    solution = optimize(problem)
    assert solution.evaluations == 1
    assert solution.residual == want
    assert not solution.converged
    assert solution.free_params.size == 0


def test_optimize_never_worse_than_seed(params):
    problem = _poly_problem(params, d=1.0, periods=1.3, degree=6)
    seed = np.array([0.02, -0.01, 0.005])
    solution = optimize(problem, seed_params=seed)
    assert solution.residual <= objective(problem, seed)


def test_optimize_is_deterministic(params):
    problem = _poly_problem(params, d=1.0, periods=2.0, degree=6)
    a = optimize(problem)
    b = optimize(problem)
    assert a.residual == b.residual
    assert np.array_equal(a.free_params, b.free_params)


def test_optimize_budget_respected_and_nonconvergence_flagged(params):
    # half-period transport cannot be cooled to the default threshold
    problem = _poly_problem(params, d=1.0, periods=0.5, degree=4)
    solution = optimize(problem)
    assert solution.evaluations <= 120
    assert not solution.converged
    assert solution.residual > 1e-8


def test_optimize_solves_in_n_free_plus_two_quadratures(params):
    # u(T) is affine in the free parameters: one least-squares step zeroes it
    problem = _poly_problem(params, d=1.0, periods=1.3, degree=6)
    solution = optimize(problem, threshold=0.0)
    assert solution.residual <= 1e-20
    assert solution.evaluations == problem.family.n_free + 2
    assert not solution.converged  # nothing is below a zero threshold
    verify_boundaries(solution.trajectory, problem)


@pytest.mark.parametrize("family", [PolynomialFamily(6), PiecewiseAccelerationFamily(5)],
                         ids=["polynomial", "piecewise"])
def test_optimize_builds_only_the_answer(params, family, monkeypatch):
    # every trial's u(T) comes from the family's rows; one trajectory is built
    built = []
    real = model._piecewise_axis

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(model, "_piecewise_axis", counted)
    monkeypatch.setattr(transport, "_piecewise_axis", counted)
    problem = TransportProblem(1.0, 1.3 * TWO_PI, params, family)
    solution = optimize(problem, threshold=0.0)
    assert solution.evaluations == family.n_free + 2 == 5
    assert len(built) == 1


_PERIODS = np.linspace(1.1, 6.0, 15)


@pytest.mark.parametrize("family, periods", [
    (PolynomialFamily(5), _PERIODS[1]),
    (PolynomialFamily(5), _PERIODS[3]),
    (PolynomialFamily(6), _PERIODS[3]),
    (PolynomialFamily(7), _PERIODS[3]),
    (PolynomialFamily(8), _PERIODS[0]),
    (PiecewiseAccelerationFamily(8), _PERIODS[3]),
], ids=["poly5-1.45", "poly5-2.15", "poly6-2.15", "poly7-2.15", "poly8-1.10", "piecewise8-2.15"])
def test_exact_solve_sits_at_roundoff_whatever_the_levels(params, family, periods):
    # the seed and its shifted trajectories are integrated in one refinement
    # and the solution is re-checked on that grid, so the residual stays at
    # roundoff even where each would converge on a different level alone
    problem = TransportProblem(1.0, periods * TWO_PI, params, family)
    solution = optimize(problem, threshold=0.0)
    assert solution.residual <= 1e-20
    assert solution.evaluations == family.n_free + 2


@pytest.mark.parametrize("family", [PolynomialFamily(d) for d in (5, 6, 7, 8)]
                         + [PiecewiseAccelerationFamily(s) for s in (4, 7, 10)],
                         ids=lambda f: str(f))
def test_solved_residual_holds_on_the_quadrature_path(params, family):
    # u(T) of the solution, re-taken by Filon quadrature from b'' samples alone:
    # within tol times the L1 size of its integrand, so gamma within its square
    problem = TransportProblem(1.0, 2.15 * TWO_PI, params, family)
    solution = optimize(problem, threshold=0.0)
    ax = dataclasses.replace(solution.trajectory.axes[0], pieces=None)
    tol = 1e-11
    T = problem.duration
    ts = np.linspace(0.0, T, 20001)
    l1 = float(np.sum(np.abs(ax.bddot(ts))) * (ts[1] - ts[0]))
    gamma = excitation_amplitude(ax, params, T, QuadratureConfig(tol=tol),
                                 with_phase=False).gamma
    assert solution.residual <= 1e-20
    assert math.sqrt(gamma) <= tol * l1 / math.sqrt(2.0)


def test_one_free_parameter_solve_is_the_global_minimum(params):
    # half a period, one free coefficient: |u0 + x a|^2 has a nonzero minimum
    problem = _poly_problem(params, d=1.0, periods=0.5, degree=4)
    family = problem.family
    seed = family.seed(problem)
    scale = family.param_scales(problem)[0]

    def u_at(x):
        traj = family.build(problem, np.array([x]))
        return excitation_amplitude(traj, params, problem.duration, with_phase=False).u

    u0 = u_at(seed[0])
    a = (u_at(seed[0] + scale) - u0) / scale
    # the map is affine: a third point lies on the line through the first two
    x_check = seed[0] - 3.0 * scale
    assert abs(u_at(x_check) - (u0 + (x_check - seed[0]) * a)) <= 1e-9 * abs(u0)
    xs = seed[0] + scale * np.linspace(-50.0, 50.0, 200_001)
    scan = np.abs(u0 + (xs - seed[0]) * a) ** 2
    best = int(np.argmin(scan))
    assert 0 < best < xs.size - 1  # an interior minimum, so it is the global one

    solution = optimize(problem)
    assert solution.evaluations == 3
    assert not solution.converged
    assert solution.residual <= scan[best] * (1.0 + 1e-9)
    assert solution.residual >= scan[best] * (1.0 - 1e-6)
    assert abs(solution.free_params[0] - xs[best]) <= xs[1] - xs[0]
    assert solution.residual == objective(problem, solution.free_params)


def test_optimize_validates_budget_and_seed(params):
    problem = _poly_problem(params)
    with pytest.raises(ValueError):
        optimize(problem, seed_params=np.zeros(5))
    for threshold in (math.nan, math.inf, -1e-12):
        with pytest.raises(ValueError, match="threshold"):
            optimize(problem, threshold=threshold)


def test_quadratic_scaling_of_optimal_residual(params):
    # gamma is quadratic in the trajectory: doubling d exactly quadruples the
    # optimized residual when the search is seeded by scaling
    T = 3 * TWO_PI
    family = PolynomialFamily(5)
    p1 = TransportProblem(1.0, T, params, family)
    p2 = TransportProblem(2.0, T, params, family)
    seed = family.seed(p1)
    s1 = optimize(p1, seed_params=seed, threshold=0.0)
    s2 = optimize(p2, seed_params=2 * seed, threshold=0.0)
    assert s1.residual > 0.0
    assert s2.residual / s1.residual == pytest.approx(4.0, abs=1e-6)


def test_optimize_with_piecewise_family(params):
    problem = TransportProblem(1.0, 3 * TWO_PI, params, PiecewiseAccelerationFamily(5))
    solution = optimize(problem)
    assert solution.residual < 1e-6
    verify_boundaries(solution.trajectory, problem)
