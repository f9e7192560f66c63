"""Seeded task lists for the four benchmark workloads.

Every workload is a fixed list of strata: the task count, family and rough
size of each slot are constant, and the seed draws the physics inside narrow
ranges (amplitudes, frequencies, gammas) and jitters sizes by a few percent.
That keeps the total work of a task list nearly the same from seed to seed,
so run-to-run spread measures the program rather than the draw.

All configs use dimensionless units (M = omega = hbar = 1, period 2 pi).
Values are written with ``repr`` so the CLI parses back the exact floats the
checker uses as its reference.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

TWO_PI = 2.0 * math.pi
INSTANTS = 50


@dataclass(frozen=True)
class Task:
    """One unit of closed-loop work.

    ``kind`` selects the runner: a CLI command (``excite``, ``transport``,
    ``oracle``) driven through ``trapmotion.cli.main`` with ``config`` written
    to a file during set-up, or a direct library call (``table``, ``row``,
    ``degenerate``). ``spec`` holds the generated inputs; the checker reads
    its references from it, never from the program's output.
    """

    kind: str
    label: str
    spec: dict = field(default_factory=dict)
    config: str | None = None
    argv: tuple[str, ...] = ()


def _jitter(rng: random.Random, value: float, share: float = 0.05) -> float:
    return value * rng.uniform(1.0 - share, 1.0 + share)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _geometric(lo: float, hi: float, count: int) -> list[float]:
    if count == 1:
        return [lo]
    return [lo * (hi / lo) ** (k / (count - 1)) for k in range(count)]


def _section(name: str, entries: dict) -> str:
    lines = [f"[{name}]"]
    lines += [f"{key} = {value}" for key, value in entries.items()]
    return "\n".join(lines) + "\n"


def _fmt_list(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


# --- trajectory families shared by profile and verify ------------------------

def _sinusoidal(rng: random.Random, T: float) -> dict:
    # Omega below the trap frequency keeps the grid set by the trap period,
    # so cost does not depend on the draw; the band stays far from resonance.
    return {"family": "sinusoidal", "R": rng.uniform(0.05, 0.4),
            "Omega": rng.uniform(0.3, 0.85), "T": T}


def _kick(rng: random.Random, T: float, stop: bool, ramp_periods: float) -> dict:
    spec = {"family": "kick", "v": rng.uniform(0.5, 1.5),
            "T_a": _jitter(rng, ramp_periods * TWO_PI, 0.1), "T": T}
    if stop:
        spec["stop_at"] = rng.uniform(0.35, 0.65) * T
    return spec


def _constant_acceleration(rng: random.Random, T: float) -> dict:
    return {"family": "constant_acceleration", "a": rng.uniform(0.1, 0.6), "T": T}


def _polynomial(rng: random.Random, T: float) -> dict:
    """b = A s^2 (1 - s)^2 (1 + beta s + kappa s^2), s = t / T.

    Starts and ends at the origin at rest, so |delta(T)|^2 = gamma(T).
    """
    A = rng.uniform(0.5, 2.0)
    beta = rng.uniform(-0.8, 2.0)
    kappa = rng.uniform(-0.5, 0.5)
    shape = [0.0, 0.0, 1.0, -2.0, 1.0]            # s^2 (1 - s)^2
    factor = [1.0, beta, kappa]
    s_coeffs = [0.0] * (len(shape) + len(factor) - 1)
    for i, a in enumerate(shape):
        for j, b in enumerate(factor):
            s_coeffs[i + j] += a * b
    coeffs = [A * c / T ** k for k, c in enumerate(s_coeffs)]
    return {"family": "polynomial", "coeffs": coeffs, "T": T}


def _trajectory_section(spec: dict) -> str:
    entries = {key: (_fmt_list(value) if key == "coeffs" else
                     value if key == "family" else repr(float(value)))
               for key, value in spec.items()}
    return _section("trajectory", entries)


_OSCILLATOR = _section("oscillator", {"dimensionless": "on"})


# --- profile: trapmotion excite ----------------------------------------------

_FAMILIES = ("sinusoidal", "kick", "constant_acceleration", "polynomial")

#: (family, window in periods) per task. Per-task cost depends more on the
#: family and its draw than on the window (a kick costs ~4x a constant
#: acceleration over the same window; a sinusoid's refinement depth varies
#: with R and Omega), and single short tasks are noisy. So the order
#: statistics fall in the middle of groups of like tasks: 17 cheaper
#: constant-acceleration windows and 17 costlier tasks bracket 15 polynomial
#: windows of 30 periods, which hold the median; the six longest tasks sit
#: above seven 40-period kicks, which hold the tail (ten tasks beyond).
#: Long windows run for every family but the kick.
_PROFILE_SLOTS = (
    [("constant_acceleration", w) for w in _geometric(10.0, 16.0, 17)]
    + [("polynomial", 30.0)] * 15
    + [("sinusoidal", 20.0)] * 2
    + [("sinusoidal", 50.0), ("polynomial", 100.0), ("constant_acceleration", 200.0)]
    + [("kick", 40.0)] * 7
    + [("sinusoidal", 100.0), ("polynomial", 500.0), ("constant_acceleration", 1000.0)]
)


def _profile_trajectory(rng: random.Random, family: str, T: float) -> dict:
    if family == "sinusoidal":
        return _sinusoidal(rng, T)
    if family == "kick":
        return _kick(rng, T, stop=True, ramp_periods=0.005)
    if family == "constant_acceleration":
        return _constant_acceleration(rng, T)
    return _polynomial(rng, T)


def _profile_instants(rng: random.Random, traj: dict, count: int) -> list[float]:
    """``count`` instants in (0, T]; return instants where a check needs them."""
    T = traj["T"]
    special = []
    if traj["family"] == "sinusoidal":
        period = TWO_PI / traj["Omega"]
        returns = int(T / period)
        special = [period * k for k in sorted(rng.sample(range(1, returns + 1), min(3, returns)))]
    elif traj["family"] == "polynomial":
        special = [T]
    randoms = [rng.uniform(0.02, 1.0) * T for _ in range(count - len(special))]
    return sorted(special + randoms)


def _excite_task(traj: dict, times: list[float], scheme: str | None, label: str) -> Task:
    run = {"times": _fmt_list(times)}
    if scheme:
        run["quadrature_scheme"] = scheme
    config = _OSCILLATOR + _trajectory_section(traj) + _section("run", run)
    spec = {"trajectory": traj, "times": times, "scheme": scheme or "adaptive-simpson"}
    return Task("excite", label, spec, config, ("excite",))


def profile_tasks(rng: random.Random) -> list[Task]:
    tasks = []
    for family, window in _PROFILE_SLOTS:
        T = _jitter(rng, window) * TWO_PI
        traj = _profile_trajectory(rng, family, T)
        times = _profile_instants(rng, traj, INSTANTS)
        tasks.append(_excite_task(traj, times, None, f"{family} W={T / TWO_PI:.0f}"))
    # 1e4-period windows with few, fixed instants. The phase path's refinement
    # depth there swings with the trajectory (a kick with stop needs 2 to 6
    # grid doublings, 0.8 s to 11 s and up to 1.7 GB), so the sinusoid is one
    # fixed case and the window length is exact: cost and peak memory then
    # follow the program, not the draw.
    T = 1e4 * TWO_PI
    tasks.append(_excite_task(_constant_acceleration(rng, T), [T / 2, T], None,
                              "constant_acceleration W=1e4"))
    tasks.append(_excite_task(_polynomial(rng, T), [T], "composite-filon",
                              "polynomial W=1e4 composite-filon"))
    tasks.append(_excite_task({"family": "sinusoidal", "R": 0.13, "Omega": 0.36, "T": T}, [T],
                              "composite-filon", "sinusoidal W=1e4 composite-filon"))
    return tasks


# --- transport: trapmotion transport ------------------------------------------

#: (family, size key, size, task count). Polynomial solves (10-80 ms) are
#: the majority, so task_ms_p50 sits inside their group rather than on the
#: gap below the piecewise solves (90-550 ms), which set the tail.
_TRANSPORT_FAMILIES = (
    [("polynomial", "degree", d, 10) for d in (5, 6, 7, 8)]
    + [("piecewise", "segments", s, 2) for s in range(4, 11)]
)


def transport_tasks(rng: random.Random) -> list[Task]:
    tasks = []
    for family, key, size, count in _TRANSPORT_FAMILIES:
        for periods in _geometric(1.2, 6.0, count):
            spec = {"family": family, key: size,
                    "displacement": rng.uniform(0.5, 2.0),
                    "duration_periods": _jitter(rng, periods),
                    "seed": rng.randrange(1 << 16)}
            entries = {"displacement": repr(spec["displacement"]),
                       "duration_periods": repr(spec["duration_periods"]),
                       "family": family, key: str(size)}
            config = _OSCILLATOR + _section("transport", entries)
            tasks.append(Task("transport", f"{family}-{size} P={spec['duration_periods']:.2f}",
                              spec, config, ("transport", "--seed", str(spec["seed"]))))
    return tasks


# --- fock: direct transitions calls -------------------------------------------

#: (m, gamma) strata for transition_row. The last two are the known overflow
#: region (Laguerre recurrence overflows to inf, the row sums to NaN with
#: tail_bound 0); those tasks fail at seed by design. The costly strata are
#: narrow, so the slowest tasks, which set task_ms_tail, cost the same for
#: every seed.
_ROW_STRATA = (
    [((0, 0), g) for g in ((1.0, 10.0), (10.0, 100.0), (100.0, 1e3), (1e3, 1e4))]
    + [((m_lo, m_hi), g) for m_lo, m_hi in ((5, 10), (20, 40), (60, 100))
       for g in ((2.0, 5.0), (20.0, 50.0), (200.0, 500.0), (2e3, 5e3))]
    + [((95, 105), (3e3, 4e3))] * 3 + [((200, 260), (60.0, 150.0))] * 3
    + [((300, 600), (2.0, 8.0))] * 2
    + [((470, 490), (90.0, 110.0))] * 3 + [((985, 1000), (4.0, 6.0))]
)

#: (dimension, m_level, n_level) slots for degenerate_probability; levels are
#: fixed so the enumeration size (the cost) does not depend on the seed.
_DEGENERATE_SLOTS = (
    [(2, m, n) for m in range(9) for n in range(9)]
    + [(3, m, n) for m in range(0, 9, 2) for n in range(0, 9, 2)]
    + [(3, m, n) for m in (1, 3, 5, 7) for n in (1, 4, 7)]
    + [(3, 8, 8), (3, 5, 7), (3, 7, 2)]
)


def fock_tasks(rng: random.Random) -> list[Task]:
    tasks = []
    for L, count, (g_lo, g_hi) in ((50, 8, (0.1, 200.0)), (200, 5, (0.1, 100.0))):
        for _ in range(count):
            gamma = _log_uniform(rng, g_lo, g_hi)
            tasks.append(Task("table", f"table L={L} g={gamma:.3g}",
                              {"gamma": gamma, "max_level": L}))
    for (m_lo, m_hi), (g_lo, g_hi) in _ROW_STRATA:
        m = rng.randint(m_lo, m_hi)
        gamma = _log_uniform(rng, g_lo, g_hi)
        tasks.append(Task("row", f"row m={m} g={gamma:.3g}", {"m": m, "gamma": gamma}))
    for dim, m_level, n_level in _DEGENERATE_SLOTS:
        gammas = [_log_uniform(rng, 0.05, 3.0) for _ in range(dim)]
        convention = rng.choice(("sum", "average"))
        tasks.append(Task("degenerate", f"degenerate {dim}-D {m_level}->{n_level}",
                          {"gammas": gammas, "m_level": m_level, "n_level": n_level,
                           "convention": convention}))
    return tasks


# --- verify: trapmotion oracle -------------------------------------------------

#: (grid points, steps per period, duration in periods) per slot, cycled over
#: the three families. Cost follows points x steps x duration, plus a fixed
#: analytic part per task; the last slot is the one long, fine run.
_VERIFY_SLOTS = (
    [(points, steps, periods)
     for periods in (0.7, 1.0, 1.3, 1.0)
     for points, steps in ((1024, 600), (1024, 1000), (1024, 2000), (2048, 600),
                           (2048, 1000), (2048, 2000), (4096, 600), (4096, 1000))]
    + [(4096, 2000, 2.0)]
)


def _verify_trajectory(rng: random.Random, family: str, T: float) -> dict:
    if family == "sinusoidal":
        return _sinusoidal(rng, T)
    if family == "kick":
        return _kick(rng, T, stop=False, ramp_periods=0.01)
    return _constant_acceleration(rng, T)


def verify_tasks(rng: random.Random) -> list[Task]:
    tasks = []
    families = ("kick", "constant_acceleration", "sinusoidal")
    for k, (points, steps, periods) in enumerate(_VERIFY_SLOTS):
        family = families[k % len(families)]
        T = _jitter(rng, periods) * TWO_PI
        traj = _verify_trajectory(rng, family, T)
        times = sorted(_jitter(rng, f, 0.03) * T for f in (0.35, 0.7)) + [T]
        run = {"oracle": "on", "times": _fmt_list(times), "steps_per_period": str(steps),
               "grid_points": str(points), "max_level": "12"}
        config = _OSCILLATOR + _trajectory_section(traj) + _section("run", run)
        spec = {"trajectory": traj, "times": times, "points": points, "steps": steps}
        tasks.append(Task("oracle", f"{family} {points}x{steps} P={T / TWO_PI:.2f}",
                          spec, config, ("oracle",)))
    return tasks


WORKLOADS = {
    "profile": profile_tasks,
    "transport": transport_tasks,
    "fock": fock_tasks,
    "verify": verify_tasks,
}


def make_tasks(workload: str, seed: int) -> list[Task]:
    """The task list of ``workload`` for ``seed``; equal seeds give equal lists.

    The list is shuffled so that each group of like tasks is spread over the
    whole pass: a shared host's speed drifts from second to second, and a
    group run back to back would see one speed sample where the order
    statistics (task_ms_p50, task_ms_tail) need the average.
    """
    rng = random.Random(f"{workload}:{seed}")
    tasks = WORKLOADS[workload](rng)
    rng.shuffle(tasks)
    return tasks


def warmup_tasks(workload: str) -> list[Task]:
    """Small fixed tasks of every kind the workload runs, for untimed warm-up."""
    rng = random.Random(f"warmup:{workload}")
    if workload == "profile":
        T = 3.0 * TWO_PI
        return [_excite_task(_profile_trajectory(rng, family, T), [T / 2, T], scheme, "warm-up")
                for family in _FAMILIES for scheme in (None, "composite-filon")]
    if workload == "transport":
        return [Task("transport", "warm-up", {}, _OSCILLATOR + _section(
            "transport", {"displacement": "1.0", "duration_periods": "2.0",
                          "family": family, key: "4"}), ("transport",))
                for family, key in (("polynomial", "degree"), ("piecewise", "segments"))]
    if workload == "fock":
        return [Task("table", "warm-up", {"gamma": 1.0, "max_level": 20}),
                Task("row", "warm-up", {"m": 5, "gamma": 3.0}),
                Task("degenerate", "warm-up", {"gammas": [0.3, 0.2], "m_level": 2,
                                               "n_level": 2, "convention": "sum"})]
    T = 0.5 * TWO_PI
    return [Task("oracle", "warm-up", {}, _OSCILLATOR + _trajectory_section(
        _verify_trajectory(rng, family, T)) + _section(
            "run", {"oracle": "on", "times": repr(T), "steps_per_period": "600",
                    "grid_points": str(points), "max_level": "8"}), ("oracle",))
        for family in ("kick", "constant_acceleration", "sinusoidal")
        for points in (1024, 2048, 4096)]
