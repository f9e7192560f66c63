"""Correctness checks for benchmark task outputs, run outside the timed region.

Each check returns ``None`` when the output is correct and a one-line reason
otherwise. References come from the task's generated inputs: closed forms
written out here independently of the package, exact identities (symmetry,
row completeness, Poisson rows, |delta|^2 = gamma where the centers meet),
and, for transport, a fresh ``excitation_amplitude`` at tighter tolerance.

Quadrature tolerances follow the program's stated accuracy: u is converged to
``QUAD_TOL`` times the L1 norm of its integrand (times the prefactor
1/sqrt(2) in dimensionless units), so gamma = |u|^2 may differ from its
reference by 2 |u| eps + eps^2.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from trapmotion import excitation as exc
from trapmotion import model
from trapmotion import transitions as trans
from trapmotion import transport as tp

QUAD_TOL = 1e-8                    # QuadratureConfig default, used by every CLI task
PREF = 1.0 / math.sqrt(2.0)        # |u| and |delta| prefactor, dimensionless units
TRANSPORT_THRESHOLD = 1e-8         # CLI default residual target
ORACLE_BOUND = 1e-3                # CLI default oracle deviation bound
TAIL_EPSILON = 1e-8                # transition_row default
TWO_PI = 2.0 * math.pi
PARAMS = model.OscillatorParams.dimensionless()


# --- parsing -------------------------------------------------------------------

def _csv(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Comment lines as ``{key: value}`` and data rows as dicts by header."""
    comments, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            comments[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(dict(zip(header, line.split(","))))
    return comments, rows


def _floats(row: dict[str, str], *keys: str) -> list[float]:
    return [float(row[k]) for k in keys]


# --- references -------------------------------------------------------------------

def _gamma_tolerance(reference: float, eps: float) -> float:
    return 2.0 * math.sqrt(max(reference, 0.0)) * eps + eps * eps


def _polynomial_u(coeffs, t: float) -> complex:
    """Exact u(t) for polynomial b by repeated integration by parts.

    integral_0^t p e^{a tau} = [e^{a tau} sum_k (-1)^k p^(k) / a^(k+1)]_0^t,
    a = -i, with p = b''.
    """
    p = np.polynomial.polynomial.polyder(np.asarray(coeffs, dtype=float), 2)
    a = -1j
    total = 0.0 + 0.0j
    k = 0
    while p.size and np.any(p):
        term = ((-1) ** k) / a ** (k + 1)
        total += term * (cmath.exp(a * t) * np.polynomial.polynomial.polyval(t, p)
                         - np.polynomial.polynomial.polyval(0.0, p))
        p = np.polynomial.polynomial.polyder(p)
        k += 1
    return -1j * PREF * total


def _polynomial_l1(coeffs, t: float, order: int) -> float:
    c = np.polynomial.polynomial.polyder(np.asarray(coeffs, dtype=float), order)
    ts = np.linspace(0.0, t, 4001)
    return float(np.trapezoid(np.abs(np.polynomial.polynomial.polyval(ts, c)), ts))


def _sinusoidal_gamma(R: float, Omega: float, t: float) -> float:
    """gamma(t) for b'' = R Omega^2 cos(Omega t), integrated in closed form."""
    wm, wp = Omega - 1.0, Omega + 1.0
    integral = 0.5 * ((cmath.exp(1j * wm * t) - 1.0) / (1j * wm)
                      + (cmath.exp(-1j * wp * t) - 1.0) / (-1j * wp))
    return 0.5 * (R * Omega * Omega) ** 2 * abs(integral) ** 2


def gamma_reference(traj: dict, t: float) -> tuple[float, float] | None:
    """(reference gamma, allowed deviation) at instant t, or None if no
    closed form applies there (inside a kick ramp)."""
    family = traj["family"]
    if family == "sinusoidal":
        R, Omega = traj["R"], traj["Omega"]
        ref = _sinusoidal_gamma(R, Omega, t)
        eps = QUAD_TOL * PREF * R * Omega * Omega * t
        return ref, _gamma_tolerance(ref, eps)
    if family == "constant_acceleration":
        a = traj["a"]
        ref = 2.0 * a * a * math.sin(0.5 * t) ** 2
        return ref, _gamma_tolerance(ref, QUAD_TOL * PREF * a * t)
    if family == "polynomial":
        ref = abs(_polynomial_u(traj["coeffs"], t)) ** 2
        eps = QUAD_TOL * PREF * _polynomial_l1(traj["coeffs"], t, 2)
        return ref, _gamma_tolerance(ref, eps)
    # kick: sudden-limit values, exact up to (omega T_a)^2 times the ramp
    # profile's variance (0.036 for the quintic smoothstep); 0.2 leaves margin.
    v, T_a = traj["v"], traj["T_a"]
    G = 0.5 * v * v
    stop = traj.get("stop_at")
    if T_a <= t and (stop is None or t <= stop):
        ref, scale = G, G
    elif stop is not None and t >= stop + T_a:
        ref, scale = 4.0 * G * math.sin(0.5 * stop) ** 2, 4.0 * G
    else:
        return None
    eps = QUAD_TOL * PREF * 2.0 * abs(v)
    return ref, _gamma_tolerance(ref, eps) + 0.2 * T_a * T_a * scale


def _returns_to_origin(traj: dict, t: float) -> bool:
    """b(t) = b'(t) = 0 at t, where the fixed and moving frames agree."""
    if traj["family"] == "sinusoidal":
        turns = t * traj["Omega"] / TWO_PI
        return abs(turns - round(turns)) < 1e-12 * max(1.0, turns)
    return traj["family"] == "polynomial" and t == traj["T"]


def _delta_tolerance(traj: dict, t: float, gamma: float, delta_sq: float) -> float:
    if traj["family"] == "sinusoidal":
        R, Omega = traj["R"], traj["Omega"]
        l1 = R * Omega * Omega * t + 2.0 * R * t
    else:
        l1 = _polynomial_l1(traj["coeffs"], t, 2) + _polynomial_l1(traj["coeffs"], t, 0)
    return _gamma_tolerance(max(gamma, delta_sq), QUAD_TOL * PREF * l1)


def _poisson_mismatch(probs, gamma: float) -> str | None:
    """Row m = 0 must be the Poisson law: bit for bit where the program
    evaluates it directly (n <= 170, gamma <= 700, no overflow), to 1e-9
    relative in log space elsewhere."""
    for n, p in enumerate(probs):
        p = float(p)
        exact = None
        if n <= 170 and gamma <= 700.0:
            try:
                exact = math.exp(-gamma) * gamma ** n / math.factorial(n)
            except OverflowError:
                exact = None
        if exact is not None:
            if p != exact:
                return f"P(0,{n}) = {p!r} is not the Poisson value {exact!r}"
            continue
        ref = math.exp(n * math.log(gamma) - gamma - math.lgamma(n + 1))
        if abs(p - ref) > 1e-9 * ref:
            return f"P(0,{n}) = {p!r} is not the Poisson value {ref!r}"
    return None


# --- per-kind checks ---------------------------------------------------------------

def _exit_reason(result) -> str:
    errors = [line for line in result.err.splitlines() if line.startswith("trapmotion:")]
    return f"exit code {result.code}" + (f" ({errors[-1]})" if errors else "")


def check_excite(spec: dict, result) -> str | None:
    if result.code != 0:
        return _exit_reason(result)
    _, rows = _csv(result.out)
    traj, times = spec["trajectory"], spec["times"]
    if len(rows) != len(times):
        return f"{len(rows)} rows for {len(times)} instants"
    for t, row in zip(times, rows):
        if row["phi"] == "NA":
            return f"phi missing at t={t!r} for a start from rest at the origin"
        re_u, im_u, gamma, phi, delta_sq = _floats(row, "re_u", "im_u", "gamma", "phi", "delta_sq")
        if not all(map(math.isfinite, (re_u, im_u, gamma, phi, delta_sq))):
            return f"non-finite value at t={t!r}"
        if abs(re_u * re_u + im_u * im_u - gamma) > 1e-10 * gamma + 1e-300:
            return f"gamma != |u|^2 at t={t!r}"
        ref = gamma_reference(traj, t)
        if ref is not None and abs(gamma - ref[0]) > ref[1]:
            return f"gamma {gamma!r} vs closed form {ref[0]!r} at t={t!r} (allowed {ref[1]:.3g})"
        if _returns_to_origin(traj, t):
            allowed = _delta_tolerance(traj, t, gamma, delta_sq)
            if abs(delta_sq - gamma) > allowed:
                return f"|delta|^2 {delta_sq!r} != gamma {gamma!r} at return instant {t!r}"
    return None


def _transport_trajectory(spec: dict, coeffs: list[float]):
    T = spec["duration_periods"] * PARAMS.period
    if spec["family"] == "polynomial":
        return model.make_polynomial(coeffs, T), T
    family = tp.PiecewiseAccelerationFamily(spec["segments"])
    problem = tp.TransportProblem(spec["displacement"], T, PARAMS, family)
    accel = family.accelerations(problem, coeffs[:-2])
    if np.max(np.abs(accel - coeffs)) > 1e-9 * np.max(np.abs(accel)):
        raise ValueError("printed segment accelerations violate the boundary conditions")
    return family.build(problem, coeffs[:-2]), T


def check_transport(spec: dict, result) -> str | None:
    if result.code != 0:
        return _exit_reason(result)
    comments, rows = _csv(result.out)
    if comments.get("converged") != "yes":
        return f"not converged (residual {comments.get('residual')})"
    residual = float(comments["residual"])
    key = "coefficients" if spec["family"] == "polynomial" else "segment_accelerations"
    coeffs = [float(c) for c in comments[key].split(",")]
    try:
        traj, T = _transport_trajectory(spec, coeffs)
    except ValueError as err:
        return str(err)
    d = spec["displacement"]
    b0, v0 = _floats(rows[0], "b", "b_dot")
    b1, v1 = _floats(rows[-1], "b", "b_dot")
    if abs(b0) > 1e-12 * d or abs(v0) > 1e-12 * d / T:
        return f"trajectory does not start at rest at the origin: b={b0!r}, b'={v0!r}"
    if abs(b1 - d) > 1e-9 * d or abs(v1) > 1e-9 * d / T:
        return f"trajectory does not stop at d={d!r}: b={b1!r}, b'={v1!r}"
    tight = exc.QuadratureConfig(steps_per_period=128, tol=1e-11)
    gamma = exc.excitation_amplitude(traj, PARAMS, T, tight, with_phase=False).gamma
    if not gamma < TRANSPORT_THRESHOLD:
        return f"re-checked residual {gamma!r} is above the threshold"
    if abs(gamma - residual) > 1e-3 * TRANSPORT_THRESHOLD:
        return f"reported residual {residual!r} disagrees with re-check {gamma!r}"
    return None


def check_oracle(spec: dict, result) -> str | None:
    if result.code != 0:
        return _exit_reason(result)
    comments, rows = _csv(result.out)
    try:
        drift = float(comments["norm_drift"])
        deviation = float(comments["max_abs_deviation"])
    except (KeyError, ValueError):
        return "missing # norm_drift or # max_abs_deviation"
    if not (math.isfinite(drift) and drift <= 1e-6):
        return f"norm drift {drift!r}"
    if not (math.isfinite(deviation) and deviation <= ORACLE_BOUND):
        return f"max deviation {deviation!r}"
    traj = spec["trajectory"]
    by_time = {}
    for row in rows:
        by_time.setdefault(row["t"], []).append(row)
    if len(by_time) != len(spec["times"]):
        return f"{len(by_time)} instants reported for {len(spec['times'])}"
    for t, group in zip(spec["times"], by_time.values()):
        gamma = float(group[0]["gamma"])
        ref = gamma_reference(traj, t)
        if ref is not None and abs(gamma - ref[0]) > ref[1]:
            return f"gamma {gamma!r} vs closed form {ref[0]!r} at t={t!r}"
        for row in group:
            n = int(row["n"])
            p_analytic, p_grid = _floats(row, "p_analytic", "p_grid")
            poisson = math.exp(-gamma) * gamma ** n / math.factorial(n)
            if abs(p_analytic - poisson) > 1e-9 * poisson + 1e-15:
                return f"P_0{n} = {p_analytic!r} is not Poisson({gamma!r})"
            if not math.isfinite(p_grid):
                return f"non-finite grid probability at t={t!r}"
    return None


def check_table(spec: dict, table) -> str | None:
    probs, tails = np.asarray(table.probs), np.asarray(table.tail_bounds)
    L = spec["max_level"]
    if probs.shape != (L + 1, L + 1):
        return f"table shape {probs.shape}"
    if not (np.all(np.isfinite(probs)) and np.all(np.isfinite(tails))):
        return f"{int(np.sum(~np.isfinite(probs)))} non-finite probabilities"
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        return "probability outside [0, 1]"
    if not np.array_equal(probs, probs.T):
        return "table is not symmetric"
    sums = np.array([math.fsum(r) for r in probs])
    if np.max(np.abs(sums + tails - 1.0)) > 1e-9:
        return "row sum plus tail bound differs from 1"
    return _poisson_mismatch(probs[0], spec["gamma"])


def check_row(spec: dict, row) -> str | None:
    probs = np.asarray(row.probs)
    m, gamma = spec["m"], spec["gamma"]
    bad = int(np.sum(~np.isfinite(probs)))
    if bad or not math.isfinite(row.tail_bound):
        return f"{bad} non-finite probabilities (sum {math.fsum(probs)!r}, tail {row.tail_bound!r})"
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        return "probability outside [0, 1]"
    if abs(math.fsum(probs) + row.tail_bound - 1.0) > 1e-9:
        return f"row sum {math.fsum(probs)!r} plus tail {row.tail_bound!r} differs from 1"
    if row.tail_bound > TAIL_EPSILON:
        return f"tail bound {row.tail_bound!r} above the requested {TAIL_EPSILON}"
    for n in sorted({0, m // 2, m, len(probs) - 1}):
        if probs[n] != trans.transition_probability(n, m, gamma):
            return f"P({m},{n}) != P({n},{m})"
    return _poisson_mismatch(probs, gamma) if m == 0 else None


def check_degenerate(spec: dict, value: float) -> str | None:
    gammas, m, n = spec["gammas"], spec["m_level"], spec["n_level"]
    dim = len(gammas)
    if not math.isfinite(value) or value < 0.0:
        return f"probability {value!r}"
    count = {k: math.comb(k + dim - 1, dim - 1) for k in (m, n)}
    total = value * (count[m] if spec["convention"] == "average" else 1.0)
    if total > count[m] * (1.0 + 1e-12):
        return f"probability {value!r} exceeds the multiplet bound"
    w = math.fsum(gammas)
    if m == 0:
        poisson = math.exp(-w) * w ** n / math.factorial(n)
        if abs(total - poisson) > 1e-10 * poisson + 1e-300:
            return f"ground-level probability {value!r} is not Poisson({w!r}) {poisson!r}"
    swapped = trans.degenerate_probability(n, m, trans.DegenerateSpec(gammas),
                                           convention=spec["convention"])
    if spec["convention"] == "average":
        swapped *= count[n]
    if abs(total - swapped) > 1e-10 * max(total, swapped) + 1e-300:
        return f"sum over multiplets not symmetric: {total!r} vs {swapped!r}"
    return None


CHECKS = {
    "excite": check_excite,
    "transport": check_transport,
    "oracle": check_oracle,
    "table": check_table,
    "row": check_row,
    "degenerate": check_degenerate,
}


def check(task, output) -> str | None:
    """Verdict for one task output: None when correct, else the reason."""
    return CHECKS[task.kind](task.spec, output)
