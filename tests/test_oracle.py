import cmath
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial

from trapmotion import (
    Axis,
    Grid,
    NumericalError,
    QuadratureConfig,
    ResourceError,
    Trajectory,
    TruncationWarning,
    coherent_state,
    fixed_frame_delta,
    fock_state,
    load_snapshot,
    make_constant_acceleration,
    make_grid,
    make_kick,
    make_sinusoidal,
    measure_transitions,
    moving_frame_coherent_state,
    overlap,
    propagate,
    save_snapshot,
    transition_probability,
)
from trapmotion.oracle import _delta_profile

TWO_PI = 2.0 * math.pi


def _static_grid(half_width=12.0, points=1024):
    return Grid(-half_width, half_width, points)


# --- grid ----------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(-1.0, 1.0, 100)        # too few points
    with pytest.raises(ValueError):
        Grid(-1.0, 1.0, 1000)       # not a power of two
    with pytest.raises(ValueError):
        Grid(1.0, -1.0, 512)


def test_make_grid_covers_excursion(params):
    traj = make_constant_acceleration(1.0, TWO_PI)
    grid = make_grid(traj, params, 512, alpha_extent=2.0, n_max=8)
    b_max = 0.5 * TWO_PI ** 2
    assert grid.x_min < 0.0 < b_max < grid.x_max
    margin = 8.0 + math.sqrt(2.0) * 2.0 + math.sqrt(17.0)
    assert grid.x_max == pytest.approx(b_max + margin, rel=1e-12)


# --- analytic states --------------------------------------------------------------

def test_ground_state_is_normalized_gaussian(params):
    grid = _static_grid()
    st = fock_state(0, 0.0, 0.0, params, grid)
    assert st.norm() == pytest.approx(1.0, abs=1e-12)
    # peak at the center with the right width
    x = grid.x
    psi2 = np.abs(st.psi) ** 2
    assert x[np.argmax(psi2)] == pytest.approx(0.0, abs=grid.dx)
    var = float(np.sum(x ** 2 * psi2) * grid.dx)
    assert var == pytest.approx(0.5, rel=1e-10)


def test_fock_states_are_orthonormal(params):
    grid = _static_grid()
    states = [fock_state(n, 0.0, 0.0, params, grid) for n in range(4)]
    for i, si in enumerate(states):
        for j, sj in enumerate(states):
            want = 1.0 if i == j else 0.0
            assert abs(overlap(si, sj)) == pytest.approx(want, abs=1e-10)


def test_displaced_boosted_overlap_matches_gaussian_integral(params):
    # |<0|D(d, v)|0>|^2 = exp(-(d^2 + v^2)/2) in natural units,
    # from the Gaussian overlap integral done by hand
    grid = _static_grid()
    fixed = fock_state(0, 0.0, 0.0, params, grid)
    moved = fock_state(0, 2.0, 1.0, params, grid)
    got = abs(overlap(fixed, moved)) ** 2
    assert got == pytest.approx(math.exp(-2.5), rel=1e-9)


def test_fock_level_fit_rule(params):
    # level n fits when sqrt(2n + 1) + 5 widths lie inside the grid and
    # inside the Nyquist wavenumber pi / dx around the boost wavenumber
    grid = _static_grid()
    with pytest.raises(ValueError):
        fock_state(-1, 0.0, 0.0, params, grid)
    with pytest.raises(ResourceError):
        fock_state(0, 11.5, 0.0, params, grid)
    with pytest.raises(ResourceError):
        fock_state(0, 0.0, 130.0, params, grid)   # 130 + 6 > pi / dx = 134
    fock_state(0, 0.0, 125.0, params, grid)
    # too coarse for level 30: its reach, 12.8, passes pi / dx = 6.7
    coarse = Grid(-60.0, 60.0, 256)
    with pytest.raises(ResourceError):
        fock_state(30, 0.0, 0.0, params, coarse)
    traj = make_constant_acceleration(0.0, TWO_PI)
    with pytest.raises(ResourceError):
        measure_transitions(fock_state(0, 0.0, 0.0, params, coarse), traj, params, 30)


def test_high_fock_levels_on_a_fine_grid(params):
    grid = Grid(-32.0, 32.0, 2048)
    states = [fock_state(n, 0.0, 0.0, params, grid) for n in (199, 200, 201)]
    for i, si in enumerate(states):
        for j, sj in enumerate(states):
            assert abs(overlap(si, sj) - (1.0 if i == j else 0.0)) < 1e-12
    traj = make_constant_acceleration(0.0, TWO_PI)
    start = fock_state(150, 0.0, 0.0, params, grid)
    probs = measure_transitions(propagate(start, traj, params, 0.1, 500), traj, params, 160)
    assert probs[150] == pytest.approx(1.0, abs=1e-6)
    assert np.sum(probs) == pytest.approx(1.0, abs=1e-6)


def test_coherent_state_moment(params):
    grid = _static_grid()
    st = coherent_state(1.0, params, grid)
    x_mean = float(np.sum(grid.x * np.abs(st.psi) ** 2) * grid.dx)
    assert x_mean == pytest.approx(math.sqrt(2.0), rel=1e-10)
    assert st.norm() == pytest.approx(1.0, abs=1e-8)


def test_coherent_state_at_zero_is_ground_state(params):
    grid = _static_grid()
    assert abs(overlap(coherent_state(0.0, params, grid),
                       fock_state(0, 0.0, 0.0, params, grid))) == pytest.approx(1.0, abs=1e-10)


def test_moving_frame_vacuum_overlap(params):
    # displaced by 2 and boosted by 0.5: overlap^2 = exp(-(b^2 + v^2/1)/2 ...)
    # evaluated from the hand Gaussian integral: exp(-(M w b^2/(2 hbar)
    # + M v^2/(2 hbar w))) = exp(-2.125)
    traj = make_kick(0.5, 0.5, 10.0)
    t = 4.25  # b(t) = 0.5*(t - T_a/2) = 2.0 exactly for this ramp
    ax = traj.axes[0]
    assert float(ax.b(t)) == pytest.approx(2.0, rel=1e-12)
    assert float(ax.bdot(t)) == 0.5
    grid = _static_grid()
    moving = moving_frame_coherent_state(0.0, params, grid, t, traj)
    fixed = fock_state(0, 0.0, 0.0, params, grid)
    assert moving.norm() == pytest.approx(1.0, abs=1e-8)
    got = abs(overlap(fixed, moving)) ** 2
    assert got == pytest.approx(math.exp(-2.125), rel=1e-8)


def test_moving_frame_kinetic_phase_across_a_stop(params):
    # <ground state at b, b'| moving-frame vacuum> = exp(-i t / 2 - i (M / 2 hbar) int b'^2);
    # the ramps are shorter than a period-resolving step, so the phase needs the
    # breakpoint pieces and a convergence check
    T_a, stop, t = 0.01 * TWO_PI, 2.6 * math.pi, 3.7 * math.pi
    traj = make_kick(1.0, T_a, 4.0 * math.pi, stop_at=stop)
    ax = traj.axes[0]
    smoothstep = [0, 0, 0, 10, -15, 6]
    ramp = polynomial.polyval(1.0, polynomial.polyint(polynomial.polymul(smoothstep, smoothstep)))
    exact = 0.5 * ((stop - T_a) + 2.0 * T_a * ramp)   # each ramp adds T_a * int sigma^2
    grid = Grid(-10.0, 25.0, 4096)
    moving = moving_frame_coherent_state(0.0, params, grid, t, traj)
    ref = fock_state(0, float(ax.b(t)), float(ax.bdot(t)), params, grid)
    kin = -cmath.phase(overlap(ref, moving)) - 0.5 * t
    assert abs((kin - exact + math.pi) % TWO_PI - math.pi) < 1e-8


def test_driven_state_phases_converge_relative_to_the_drive(params):
    # delta is linear in b: a tiny drive must converge as tightly as a unit one
    v = 1e-4
    traj = make_kick(v, 0.05, 10.0)
    delta = _delta_profile(traj.axes[0], params, 9.0, QuadratureConfig())[0] / v
    ref = fixed_frame_delta(make_kick(1.0, 0.05, 10.0), params, 9.0, QuadratureConfig(tol=1e-13))
    assert abs(delta - ref) <= 1e-7 * abs(ref)


def test_driven_state_non_convergence_reports_residual(params):
    # a jump in b the quadrature is not told about defeats grid doubling
    hidden_jump = Axis(
        b=lambda t: np.where(np.asarray(t, dtype=float) < 0.777, 0.0, 1.0),
        bdot=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        bddot=lambda t: np.where(np.asarray(t, dtype=float) < 0.777, 1.0, -1.0),
        starts_at_zero=True,
        starts_at_rest=True,
    )
    traj = Trajectory((hidden_jump,), 3.0)
    cfg = QuadratureConfig(max_doublings=4, tol=1e-12)
    with pytest.raises(NumericalError) as info:
        coherent_state(0.0, params, _static_grid(), 2.0, traj, cfg)
    assert info.value.residual is not None
    assert info.value.residual > 0.0


@pytest.mark.parametrize("t", [float("nan"), -1.0, float("inf")])
def test_analytic_states_reject_bad_times(params, t):
    grid = _static_grid()
    traj = make_kick(0.5, 0.5, 10.0)
    with pytest.raises(ValueError, match="finite and >= 0"):
        coherent_state(0.5, params, grid, t)
    with pytest.raises(ValueError, match="finite and >= 0"):
        coherent_state(0.5, params, grid, t, traj)
    with pytest.raises(ValueError, match="finite and >= 0"):
        moving_frame_coherent_state(0.5, params, grid, t, traj)


# --- propagation -------------------------------------------------------------------

def test_stationary_ground_state_is_stationary(params):
    traj = make_constant_acceleration(0.0, 2 * TWO_PI)
    grid = _static_grid(10.0, 512)
    start = fock_state(0, 0.0, 0.0, params, grid)
    end = propagate(start, traj, params, TWO_PI, 500)
    assert abs(overlap(start, end)) ** 2 == pytest.approx(1.0, abs=1e-8)
    assert end.t == TWO_PI


def test_propagate_validates_inputs(params):
    traj = make_constant_acceleration(0.0, 1.0)
    grid = _static_grid(10.0, 512)
    start = fock_state(0, 0.0, 0.0, params, grid)
    with pytest.raises(ValueError):
        propagate(start, traj, params, 0.5, 100)   # too few steps per period
    with pytest.raises(ValueError):
        propagate(start, traj, params, 2.0, 500)   # beyond duration
    with pytest.raises(ValueError):
        propagate(start, traj, params, -1.0, 500)
    with pytest.raises(ValueError, match="finite and >= 0"):
        propagate(start, traj, params, float("nan"), 500)


def test_packet_hitting_boundary_raises(params):
    traj = make_kick(1.0, 0.1, 40.0)
    grid = Grid(-6.0, 6.0, 512)
    start = fock_state(0, 0.0, 0.0, params, grid)
    with pytest.raises(ResourceError):
        propagate(start, traj, params, 12.0, 500)


def test_constant_acceleration_returns_to_moving_ground_state(params):
    traj = make_constant_acceleration(1.0, 2 * TWO_PI)
    grid = make_grid(traj, params, 2048, alpha_extent=2.5, n_max=8)
    start = fock_state(0, 0.0, 0.0, params, grid)
    end = propagate(start, traj, params, TWO_PI, 1000)
    ax = traj.axes[0]
    target = fock_state(0, float(ax.b(TWO_PI)), float(ax.bdot(TWO_PI)), params, grid)
    assert abs(overlap(target, end)) ** 2 == pytest.approx(1.0, abs=1e-4)


def test_constant_acceleration_populations_match_poisson(params):
    traj = make_constant_acceleration(1.0, TWO_PI)
    grid = make_grid(traj, params, 2048, alpha_extent=2.5, n_max=12)
    start = fock_state(0, 0.0, 0.0, params, grid)
    end = propagate(start, traj, params, math.pi, 1000)
    probs = measure_transitions(end, traj, params, 12)
    for n in range(9):
        assert probs[n] == pytest.approx(transition_probability(0, n, 2.0), abs=1e-3)
    # mean occupation equals the excitation parameter
    mean = float(np.sum(np.arange(13) * probs))
    assert mean == pytest.approx(2.0, abs=1e-3)


def test_driven_coherent_state_solves_schroedinger_equation(params):
    # the sampled closed-form state, global phase included, matches propagation
    traj = make_constant_acceleration(1.0, TWO_PI)
    grid = make_grid(traj, params, 2048, alpha_extent=2.5, n_max=8)
    start = fock_state(0, 0.0, 0.0, params, grid)
    end = propagate(start, traj, params, math.pi, 1500)
    exact = coherent_state(0.0, params, grid, math.pi, traj)
    assert abs(overlap(exact, end) - 1.0) < 1e-4


def test_stationary_fock_input_measures_identity(params):
    traj = make_constant_acceleration(0.0, TWO_PI)
    grid = _static_grid(14.0, 1024)
    for m in (0, 2):
        start = fock_state(m, 0.0, 0.0, params, grid)
        end = propagate(start, traj, params, 1.0, 500)
        probs = measure_transitions(end, traj, params, 6)
        for n in range(7):
            assert probs[n] == pytest.approx(1.0 if n == m else 0.0, abs=1e-6)


def test_kicked_trap_populations_are_poissonian(params):
    v = 1.0  # G = 0.5
    traj = make_kick(v, 0.01 * TWO_PI, 2 * TWO_PI)
    grid = make_grid(traj, params, 4096, alpha_extent=1.5, n_max=10)
    start = fock_state(0, 0.0, 0.0, params, grid)
    end = propagate(start, traj, params, TWO_PI, 1000)
    probs = measure_transitions(end, traj, params, 10)
    for n in range(9):
        assert probs[n] == pytest.approx(
            math.exp(-0.5) * 0.5 ** n / math.factorial(n), abs=1e-3)


def test_resonant_drive_population_growth(params):
    # small-G resonant drive for one period: P_01 ~ Poisson(G pi^2) first term
    R = 0.02
    traj = make_sinusoidal(R, 1.0, 2 * TWO_PI)
    grid = _static_grid(12.0, 1024)
    start = fock_state(0, 0.0, 0.0, params, grid)
    end = propagate(start, traj, params, TWO_PI, 1000)
    probs = measure_transitions(end, traj, params, 6)
    gamma = (R ** 2 / 2.0) * math.pi ** 2
    want = math.exp(-gamma) * gamma
    assert probs[1] == pytest.approx(want, rel=0.01)


def test_norm_conserved_over_ten_periods(params):
    traj = make_sinusoidal(0.5, 0.9, 11 * TWO_PI)
    grid = _static_grid(14.0, 1024)
    start = fock_state(0, 0.0, 0.0, params, grid)
    end = propagate(start, traj, params, 10 * TWO_PI, 500)
    assert abs(end.norm() - 1.0) < 1e-8


def test_resolution_doubling_changes_probabilities_marginally(params):
    traj = make_constant_acceleration(0.5, TWO_PI)
    results = []
    for points, steps in ((1024, 500), (2048, 1000)):
        grid = make_grid(traj, params, points, alpha_extent=2.0, n_max=8)
        start = fock_state(0, 0.0, 0.0, params, grid)
        end = propagate(start, traj, params, math.pi, steps)
        results.append(measure_transitions(end, traj, params, 8))
    assert np.max(np.abs(results[0] - results[1])) < 1e-4


def test_truncation_warning_when_levels_are_too_few(params):
    traj = make_constant_acceleration(2.0, TWO_PI)
    grid = make_grid(traj, params, 2048, alpha_extent=4.0, n_max=40)
    start = fock_state(0, 0.0, 0.0, params, grid)
    end = propagate(start, traj, params, math.pi, 500)
    with pytest.warns(TruncationWarning):
        measure_transitions(end, traj, params, 2)


def test_phase_convention_does_not_change_probabilities(params):
    # measuring against boosted Fock states with an extra global phase is
    # the same measurement: probabilities only use |overlap|^2
    traj = make_constant_acceleration(1.0, TWO_PI)
    grid = make_grid(traj, params, 2048, alpha_extent=2.5, n_max=8)
    start = fock_state(0, 0.0, 0.0, params, grid)
    end = propagate(start, traj, params, 1.5, 1000)
    probs = measure_transitions(end, traj, params, 8)
    rotated = end.psi * np.exp(1j * 0.8)
    from trapmotion import GridState

    probs_rot = measure_transitions(GridState(grid, rotated, end.t), traj, params, 8)
    assert np.allclose(probs, probs_rot, atol=1e-14)


# --- snapshots -----------------------------------------------------------------------

def test_snapshot_round_trip(tmp_path, params):
    grid = _static_grid(10.0, 512)
    st = coherent_state(0.7 + 0.2j, params, grid)
    path = tmp_path / "state.snap"
    save_snapshot(st, path)
    back = load_snapshot(path)
    assert back.grid == grid
    assert back.t == st.t
    assert np.array_equal(back.psi, st.psi)


def test_snapshot_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.snap"
    path.write_bytes(b"not a snapshot\n")
    with pytest.raises(ValueError):
        load_snapshot(path)
