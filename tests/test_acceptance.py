"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each criterion prints a PASS/FAIL line with its runtime (run with ``pytest -s``
to see them live) and fails if it exceeds its runtime budget.
"""

import math
import time

import numpy as np

import trapmotion as tm

TWO_PI = 2.0 * math.pi


class criterion:
    def __init__(self, number, name, limit_s):
        self.number = number
        self.name = name
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed < self.limit
        print(f"ACCEPTANCE {self.number:2d} {self.name}: "
              f"{'PASS' if ok else 'FAIL'} ({elapsed:.2f}s, limit {self.limit:g}s)")
        if exc_type is None and elapsed >= self.limit:
            raise AssertionError(
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.limit}s")
        return False


def test_01_periodic_return_law():
    with criterion(1, "periodic-return law", 1.0):
        params = tm.OscillatorParams.dimensionless()
        traj = tm.make_constant_acceleration(1.0, 6 * TWO_PI)
        for k in range(1, 6):
            res = tm.excitation_amplitude(traj, params, k * TWO_PI, with_phase=False)
            assert res.gamma < 1e-10, f"gamma({k} periods) = {res.gamma}"


def test_02_kick_estimate():
    with criterion(2, "kick excitation estimate", 1.0):
        params = tm.OscillatorParams.si(1e-25, 100.0)
        G = tm.closed_form_kick_G(1e-3, params)
        assert 4.6 <= G <= 4.9, f"G = {G}"


def test_03_rotating_trap_estimate():
    with criterion(3, "rotating-trap excitation estimate", 1.0):
        params = tm.OscillatorParams.si(1e-25, 100.0)
        G = tm.closed_form_circular_G(0.1, 1e-2, params)
        assert 18.5 <= G <= 19.5, f"G = {G}"


def test_04_quadrature_vs_closed_forms():
    with criterion(4, "quadrature vs closed forms", 10.0):
        rng = np.random.default_rng(2024)
        cfg = tm.QuadratureConfig(tol=1e-9)
        for _ in range(20):
            R = rng.uniform(0.2, 1.5)
            omega = rng.uniform(0.5, 2.0)
            while True:
                Omega = rng.uniform(0.2, 2.5)
                if abs(Omega - omega) / omega > 0.05:
                    break
            s = int(rng.integers(1, 4))
            params = tm.OscillatorParams(1.0, omega, 1.0)

            # sinusoidal family: exact acceleration, 1e-6 relative
            t_s = TWO_PI * s / Omega
            traj = tm.make_sinusoidal(R, Omega, t_s * 1.05)
            G = params.mass * (R * Omega) ** 2 / (2.0 * params.hbar * omega)
            for t in (rng.uniform(0.3, 0.9) * t_s, t_s):
                got = tm.excitation_amplitude(traj, params, t, cfg, with_phase=False).gamma
                want = tm.closed_form_sinusoidal(R, Omega, params, t)
                assert abs(got - want) <= 1e-6 * max(want, G), \
                    f"sinusoidal R={R} Omega={Omega} omega={omega} t={t}"

            # circular family: smoothstep ramps, 2% of the formula scale
            T_a = 0.02 * TWO_PI / omega
            circ = tm.make_circular(R, Omega, T_a, s)
            w = sum(
                tm.excitation_amplitude(part, params, circ.duration, cfg, with_phase=False).gamma
                for part in circ.split()
            )
            want = tm.closed_form_circular(R, Omega, params, s)
            scale = max(want, tm.closed_form_circular_G(R, Omega, params))
            assert abs(w - want) <= 0.02 * scale, \
                f"circular R={R} Omega={Omega} omega={omega} s={s}"


def test_05_probability_law_suite():
    with criterion(5, "probability-law suite", 5.0):
        for gamma in (0.1, 1.0, 5.0, 20.0):
            for m in range(11):
                top = int(gamma + m + 12 * math.sqrt(gamma + m + 1) + 60)
                total = math.fsum(
                    tm.transition_probability(m, n, gamma) for n in range(top))
                assert abs(total - 1.0) < 1e-10, f"row m={m}, gamma={gamma}"
        for m in range(31):
            for n in range(31):
                assert tm.transition_probability(m, n, 1.7) == \
                    tm.transition_probability(n, m, 1.7)
        for gamma in (0.1, 1.0, 5.0, 20.0):
            for n in range(35):
                want = math.exp(-gamma) * gamma ** n / math.factorial(n)
                assert tm.transition_probability(0, n, gamma) == want


def test_06_generating_function_consistency():
    with criterion(6, "generating-function consistency", 5.0):
        rng = np.random.default_rng(99)
        for _ in range(10):
            alpha = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            beta = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            u = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            phi = rng.uniform(0.0, TWO_PI)
            direct = tm.coherent_amplitude(alpha, beta, u, phi)
            total = 0.0 + 0.0j
            for m in range(44):
                for n in range(44):
                    coeff = alpha ** m * beta.conjugate() ** n / math.sqrt(
                        math.factorial(m) * math.factorial(n))
                    total += coeff * tm.transition_amplitude(m, n, u, phi)
            series = np.exp(-0.5 * (abs(alpha) ** 2 + abs(beta) ** 2)) * total
            assert abs(direct - series) < 1e-8


def test_07_degenerate_level_laws():
    with criterion(7, "degenerate-level laws", 5.0):
        rng = np.random.default_rng(31)
        for w in (0.3, 1.0, 3.0):
            for _ in range(10):
                xi = rng.uniform(0.0, w)
                spec2 = tm.DegenerateSpec((xi, w - xi))
                for n in range(5):
                    want = math.exp(-w) * w ** n / math.factorial(n)
                    assert abs(tm.degenerate_probability(0, n, spec2) - want) < 1e-12
                p12 = tm.degenerate_probability(1, 2, spec2, convention="sum")
                assert abs(p12 - 0.5 * w * math.exp(-w) * (6 - 4 * w + w * w)) < 1e-12
                p11 = tm.degenerate_probability(1, 1, spec2, convention="sum")
                assert abs(p11 - math.exp(-w) * (1 + (1 - w) ** 2)) < 1e-12
                # three axes, ground level only
                splits = rng.uniform(0.2, 1.0, size=3)
                spec3 = tm.DegenerateSpec(tuple(w * splits / splits.sum()))
                for n in range(4):
                    want = math.exp(-w) * w ** n / math.factorial(n)
                    assert abs(tm.degenerate_probability(0, n, spec3) - want) < 1e-12
        # no single-axis formula in w reproduces the degenerate 1 -> 2 law
        spec = tm.DegenerateSpec((0.5, 0.5))
        p12 = tm.degenerate_probability(1, 2, spec, convention="sum")
        assert abs(p12 - tm.transition_probability(1, 2, 1.0)) > 1e-3


def test_08_oracle_equivalence():
    with criterion(8, "grid-propagation oracle equivalence", 60.0):
        params = tm.OscillatorParams.dimensionless()

        # (i) constant acceleration to half a period: gamma = 2
        traj = tm.make_constant_acceleration(1.0, TWO_PI)
        grid = tm.make_grid(traj, params, 4096, alpha_extent=2.5, n_max=10)
        state = tm.fock_state(0, 0.0, 0.0, params, grid)
        state = tm.propagate(state, traj, params, math.pi, 2000)
        probs = tm.measure_transitions(state, traj, params, 10)
        gamma = tm.excitation_amplitude(traj, params, math.pi, with_phase=False).gamma
        for n in range(9):
            want = tm.transition_probability(0, n, gamma)
            assert abs(probs[n] - want) < 1e-3, f"const-accel n={n}"
        assert abs(state.norm() - 1.0) < 1e-8

        # (ii) kicked trajectory with G = 0.5
        traj = tm.make_kick(1.0, 0.01 * TWO_PI, 2 * TWO_PI)
        grid = tm.make_grid(traj, params, 4096, alpha_extent=1.5, n_max=10)
        state = tm.fock_state(0, 0.0, 0.0, params, grid)
        state = tm.propagate(state, traj, params, TWO_PI, 2000)
        probs = tm.measure_transitions(state, traj, params, 10)
        gamma = tm.excitation_amplitude(traj, params, TWO_PI, with_phase=False).gamma
        for n in range(9):
            want = tm.transition_probability(0, n, gamma)
            assert abs(probs[n] - want) < 1e-3, f"kick n={n}"
        assert abs(state.norm() - 1.0) < 1e-8


def test_09_fixed_frame_coincidence():
    with criterion(9, "fixed-frame coincidence at return instants", 2.0):
        params = tm.OscillatorParams.dimensionless()
        cfg = tm.QuadratureConfig(tol=1e-10)
        R, Omega = 1.0, 0.3
        for s in (1, 2):
            t_s = TWO_PI * s / Omega
            traj = tm.make_sinusoidal(R, Omega, t_s + 1.0)
            gamma = tm.excitation_amplitude(traj, params, t_s, cfg, with_phase=False).gamma
            delta_sq = abs(tm.fixed_frame_delta(traj, params, t_s, cfg)) ** 2
            assert abs(delta_sq - gamma) < 1e-8, f"return instant s={s}"
        # generic instant of the uniform-motion demo: the two disagree badly
        kick = tm.make_kick(1.0, 0.01 * TWO_PI, 10.0)
        t = TWO_PI
        gamma = tm.excitation_amplitude(kick, params, t, cfg, with_phase=False).gamma
        delta_sq = abs(tm.fixed_frame_delta(kick, params, t, cfg)) ** 2
        assert abs(delta_sq - gamma) > 1e-2


def test_10_transport_optimization():
    with criterion(10, "excitation-free transport", 30.0):
        params = tm.OscillatorParams.dimensionless()
        family = tm.PolynomialFamily(5)
        problem = tm.TransportProblem(1.0, 3 * TWO_PI, params, family)
        solution = tm.optimize(problem)
        assert solution.evaluations <= 2000
        assert solution.residual < 1e-6, f"residual = {solution.residual}"

        # quadratic scaling under d -> 2d with scaled seeds
        seed = family.seed(problem)
        doubled = tm.TransportProblem(2.0, 3 * TWO_PI, params, family)
        s1 = tm.optimize(problem, seed_params=seed, threshold=0.0)
        s2 = tm.optimize(doubled, seed_params=2 * seed, threshold=0.0)
        assert s1.residual > 0.0
        ratio = s2.residual / s1.residual
        assert abs(ratio - 4.0) <= 1e-6, f"ratio = {ratio}"
