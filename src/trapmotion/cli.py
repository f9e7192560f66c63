"""Command-line front end: scenario configs, golden demos, sweeps, oracle runs.

Subcommands::

    trapmotion excite    --config FILE [--out FILE]          u(t), gamma, phi, |delta|^2
    trapmotion probs     --config FILE [--out FILE]          transition tables
    trapmotion oracle    --config FILE [--out FILE]          analytic vs grid propagation
    trapmotion sweep     --config FILE [--out FILE]          closed-form parameter sweeps
    trapmotion transport --config FILE [--out FILE]          heating-free transport

Configs are flat ``key = value`` text with ``[section]`` headers. Every key is
checked against one table of kinds, ranges and defaults before any command
runs, with the offending line number; ``--out`` opens only after the command
has checked what it reads, so a config error writes no file.
``--config demo:NAME`` loads one of the bundled scenarios (constant_accel,
kick_g5, sinusoid_resonance, rotating_g20, transport_3period). Output is CSV
with a header row, 12 significant digits, and is byte-identical across runs of
the same config; the resolved configuration is echoed to stderr. Exit codes:
0 ok, 2 config error, 3 numerical error, 4 oracle mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.resources
import math
import os
import sys

import numpy as np

from . import excitation as exc
from . import transitions as trans
from . import transport as tp
from .errors import ConfigError, NumericalError, ResourceError
from .model import (
    HBAR_SI,
    SI,
    OscillatorParams,
    Trajectory,
    make_circular,
    make_constant_acceleration,
    make_kick,
    make_polynomial,
    make_sinusoidal,
)
from . import oracle as orc
from .quadrature import QuadratureConfig

DEMOS = ("constant_accel", "kick_g5", "sinusoid_resonance", "rotating_g20",
         "transport_3period")

class _OracleMismatch(Exception):
    pass


def _sinusoid_T(Omega, T, s):
    if (T is None) == (s is None):
        raise ConfigError("sinusoidal needs exactly one of T and s")
    return 2.0 * math.pi * s / Omega if T is None else T


def _sinusoid_gamma(params, R, Omega, T, s):
    if s is not None and abs(Omega - params.omega) < exc.RESONANCE_DETUNING * params.omega:
        return exc.closed_form_sinusoidal_resonance(R, params, s)
    return exc.closed_form_sinusoidal(R, Omega, params, _sinusoid_T(Omega, T, s))


#: family -> ([trajectory] keys it reads, how many of them it requires, its
#: builder, and the label and closed form a sweep evaluates; without one a
#: sweep takes gamma at the end of the run of each built trajectory)
_FAMILIES = {
    "constant_acceleration": (("a", "T"), 2, make_constant_acceleration, "gamma",
                              lambda p, a, T: exc.closed_form_constant_accel(a, p, T)),
    "kick": (("v", "T_a", "T", "stop_at"), 3, make_kick, "gamma",
             lambda p, v, T_a, T, stop_at: exc.closed_form_kick_G(v, p) if stop_at is None
             else exc.closed_form_kick_stop(v, p, stop_at)),
    "sinusoidal": (("R", "Omega", "T", "s"), 2,
                   lambda R, Omega, T, s: make_sinusoidal(R, Omega, _sinusoid_T(Omega, T, s)),
                   "gamma", _sinusoid_gamma),
    "circular": (("R", "Omega", "T_a", "s"), 4, make_circular, "w_s",
                 lambda p, R, Omega, T_a, s: exc.closed_form_circular(R, Omega, p, s)),
    "polynomial": (("coeffs", "T"), 2, make_polynomial, "gamma", None),
}

#: transport family -> (its class, the [transport] key for its size, the label
#: of the printed parameters, the method giving them)
_TRANSPORT_FAMILIES = {
    "polynomial": (tp.PolynomialFamily, "degree", "coefficients",
                   tp.PolynomialFamily.coefficients),
    "piecewise": (tp.PiecewiseAccelerationFamily, "segments", "segment_accelerations",
                  tp.PiecewiseAccelerationFamily.accelerations),
}

#: [section] key -> (kind, bound, default). A "number" is finite and >= bound,
#: a "positive" finite, > 0 and <= bound, an "integer" >= bound, a "pow2" a
#: power of two >= bound, and a "choice" one of bound (a None bound is no
#: limit). A "list" holds finite numbers, as a comma list or an inclusive
#: start:stop:count. "ignored" keys are accepted for old configs, never read.
_NUMBER, _POSITIVE, _LIST = ("number", None, None), ("positive", None, None), ("list", None, None)
_KEYS = {
    "oscillator": {"dimensionless": ("on/off", None, False), "mass": _POSITIVE,
                   "omega": _POSITIVE, "hbar": ("positive", None, HBAR_SI)},
    "trajectory": {"family": ("choice", tuple(_FAMILIES), None), "a": _NUMBER, "v": _NUMBER,
                   "T_a": _POSITIVE, "T": _POSITIVE, "stop_at": _NUMBER,
                   "R": ("number", 0.0, None), "Omega": _POSITIVE, "s": _POSITIVE,
                   "coeffs": _LIST},
    "run": {"times": _LIST, "times_per_period": _LIST, "return_instants": _LIST,
            "max_level": ("integer", 0, 8), "tail_epsilon": ("positive", 1e-3, 1e-8),
            "oracle": ("ignored", None, None),
            "steps_per_period": ("integer", 2 * orc.MIN_STEPS_PER_PERIOD, 2000),
            "grid_points": ("pow2", 256, 4096),
            "quadrature_steps_per_period": ("integer", 16, QuadratureConfig.steps_per_period),
            "quadrature_scheme": ("ignored", None, None),
            "quadrature_tol": ("number", 1e-14, QuadratureConfig.tol),
            "oracle_bound": ("positive", None, 1e-3), "snapshot": ("text", None, None)},
    "sweep": {"parameter": ("choice", ("Omega", "omega", "R", "v", "a", "s", "T"), None),
              "values": _LIST},
    "transport": {"displacement": _NUMBER, "duration": _POSITIVE, "duration_periods": _POSITIVE,
                  "family": ("choice", tuple(_TRANSPORT_FAMILIES), "polynomial"),
                  "degree": ("integer", 3, 5), "segments": ("integer", 2, 4),
                  "threshold": ("number", 0.0, tp.DEFAULT_THRESHOLD),
                  "samples": ("integer", 0, 201)},
}


# --- config parsing ----------------------------------------------------------

def parse_config(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    """Parse the flat key = value format, tracking line numbers.

    Full-line comments start with '#' or ';'. Unknown sections, unknown keys,
    duplicate keys, and entries outside a section are all errors.
    """
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: entry outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS[current]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = (value, lineno)
    return sections


def _convert(kind: str, bound, raw):
    """``raw`` read as ``kind`` and checked against ``bound`` (see ``_KEYS``);
    ValueError says what it must be."""
    if kind in ("text", "ignored", "choice"):
        if kind == "choice" and raw not in bound:
            raise ValueError(f"expected one of {bound}")
        return raw
    if kind == "on/off":
        if raw.lower() not in ("true", "on", "yes", "1", "false", "off", "no", "0"):
            raise ValueError("not a boolean (use on/off)")
        return raw.lower() in ("true", "on", "yes", "1")
    if kind == "list":
        try:
            if ":" in raw:
                start, stop, count = raw.split(":")
                items = list(np.linspace(float(start), float(stop), int(count)))
            else:
                items = [float(item) for item in raw.split(",") if item.strip()]
        except ValueError:
            raise ValueError("expected a comma list or start:stop:count") from None
        if not all(math.isfinite(x) for x in items):
            raise ValueError("must hold finite numbers only")
        return items
    number = kind in ("number", "positive")
    try:
        value = float(raw) if number else int(raw)
    except ValueError:
        raise ValueError("not a number" if number else "not an integer") from None
    if kind == "number" and not (math.isfinite(value) and (bound is None or value >= bound)):
        raise ValueError("must be finite" + ("" if bound is None else f" and >= {bound}"))
    if kind == "positive" and not (0.0 < value < math.inf and (bound is None or value <= bound)):
        raise ValueError(f"must lie in (0, {bound}]" if bound else "must be finite and > 0")
    if kind == "integer" and value < bound:
        raise ValueError(f"must be >= {bound}")
    if kind == "pow2" and (value < bound or value & (value - 1)):
        raise ValueError(f"must be a power of two >= {bound}")
    return value


def _show(kind: str, value) -> str:
    if kind == "on/off":
        return "on" if value else "off"
    return _fmt(value) if kind in ("number", "positive") else str(value)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class Scenario:
    """A parsed config whose every key is converted and range-checked on
    construction, with line-numbered errors. ``get`` hands out values and
    defaults and remembers each for the echo."""

    def __init__(self, sections: dict[str, dict[str, tuple[str, int]]]):
        self.present = set(sections)
        self.values: dict[tuple[str, str], tuple] = {}  # (section, key) -> (value, raw)
        self.read: dict[str, dict[str, str]] = {}
        for name, data in sections.items():
            for key, (raw, lineno) in data.items():
                kind, bound, _ = _KEYS[name][key]
                try:
                    value = _convert(kind, bound, raw)
                except ValueError as err:
                    raise ConfigError(f"line {lineno}: [{name}] {key} = {raw!r}: {err}") from None
                self.values[name, key] = value, raw

    def require(self, name: str) -> None:
        if name not in self.present:
            raise ConfigError(f"missing required section [{name}]")

    def get(self, name: str, key: str):
        """The value of ``[name] key``, else its default (None if it has none)."""
        kind, _, default = _KEYS[name][key]
        value, raw = self.values.get((name, key), (default, None))
        if value is not None:  # a list echoes as written, every other value as read
            self.read.setdefault(name, {})[key] = raw if kind == "list" else _show(kind, value)
        return value

    def echo(self, stream) -> None:
        for name in _KEYS:
            for key, value in sorted(self.read.get(name, {}).items()):
                print(f"# [{name}] {key} = {value}", file=stream)


def build_params(scn: Scenario) -> OscillatorParams:
    scn.require("oscillator")
    if scn.get("oscillator", "dimensionless"):
        return OscillatorParams.dimensionless()
    mass = scn.get("oscillator", "mass")
    omega = scn.get("oscillator", "omega")
    if mass is None or omega is None:
        raise ConfigError("[oscillator] needs mass and omega unless dimensionless = on")
    try:
        return OscillatorParams.si(mass, omega, scn.get("oscillator", "hbar"))
    except ValueError as err:
        raise ConfigError(f"[oscillator]: {err}") from err


def _trajectory(scn: Scenario, overrides: dict[str, float]):
    """The family's table entry and its key values, with sweep overrides applied."""
    scn.require("trajectory")
    family = scn.get("trajectory", "family")
    if family is None:
        raise ConfigError("[trajectory] needs a family")
    keys, required, *_ = entry = _FAMILIES[family]
    values = [overrides[key] if key in overrides else scn.get("trajectory", key)
              for key in keys]
    if None in values[:required]:
        *head, last = keys[:required]
        raise ConfigError(f"{family} needs {', '.join(head)}{',' * (required > 2)} and {last}")
    return entry, values


def build_trajectory(scn: Scenario, params: OscillatorParams) -> Trajectory:
    (_, _, build, _, _), values = _trajectory(scn, {})
    try:
        return build(*values)
    except ValueError as err:
        raise ConfigError(f"[trajectory]: {err}") from err


def build_times(scn: Scenario, params: OscillatorParams, traj: Trajectory) -> list[float]:
    times = scn.get("run", "times")
    per_period = scn.get("run", "times_per_period")
    instants = scn.get("run", "return_instants")
    chosen = [t for t in (times, per_period, instants) if t is not None]
    if len(chosen) > 1:
        raise ConfigError("[run] give only one of times / times_per_period / return_instants")
    if times is not None:
        out = times
    elif per_period is not None:
        out = [k * params.period for k in per_period]
    elif instants is not None:
        Omega = scn.get("trajectory", "Omega")
        if Omega is None:
            raise ConfigError("[run] return_instants needs a trajectory with Omega")
        out = [2.0 * math.pi * s / Omega for s in instants]
    else:
        out = [traj.duration]
    for t in out:
        if not 0.0 <= t <= traj.duration * (1.0 + 1e-12):
            raise ConfigError(f"[run] time {t!r} outside [0, {traj.duration!r}]")
    return out


def build_quadrature(scn: Scenario) -> QuadratureConfig:
    return QuadratureConfig(steps_per_period=scn.get("run", "quadrature_steps_per_period"),
                            tol=scn.get("run", "quadrature_tol"))


def _check_writable(path: str, what: str) -> None:
    """ConfigError unless ``path`` is a writable file or could be made as one."""
    if os.path.exists(path):
        ok = os.path.isfile(path) and os.access(path, os.W_OK)
    else:
        folder = os.path.dirname(path) or "."
        ok = os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)
    if not ok:
        raise ConfigError(f"cannot write {what}{path!r}")


def _open_sink(path: str):
    try:
        return open(path, "w", encoding="ascii", newline="\n")
    except OSError as err:
        raise ConfigError(f"cannot write {path!r}: {err}") from err


# --- commands ----------------------------------------------------------------
# Each command checks every value it reads, then returns the function that
# does its work and writes to the output stream.

def cmd_excite(scn: Scenario):
    params = build_params(scn)
    traj = build_trajectory(scn, params)
    if traj.dimension != 1:
        raise ConfigError("excite handles 1-D trajectories; use probs for circular scenarios")
    times = build_times(scn, params, traj)
    cfg = build_quadrature(scn)

    def work(out) -> None:
        prof = exc.excitation_profile(traj, params, times, cfg)
        phis = ["NA"] * len(times) if prof.phi is None else [_fmt(p) for p in prof.phi.tolist()]
        print("t,re_u,im_u,gamma,phi,delta_sq", file=out)
        for t, u, gamma, phi, delta in zip(times, prof.u.tolist(), prof.gamma.tolist(), phis,
                                           prof.delta.tolist()):
            print(f"{_fmt(t)},{_fmt(u.real)},{_fmt(u.imag)},{_fmt(gamma)},{phi},"
                  f"{_fmt(abs(delta) ** 2)}", file=out)
    return work


def cmd_probs(scn: Scenario):
    params = build_params(scn)
    traj = build_trajectory(scn, params)
    times = build_times(scn, params, traj)
    cfg = build_quadrature(scn)
    max_level = scn.get("run", "max_level")
    tail_epsilon = scn.get("run", "tail_epsilon")

    def work(out) -> None:
        if traj.dimension == 1:
            print("t,gamma,m,n,prob,row_sum,tail_bound", file=out)
            for t in times:
                gamma = exc.excitation_amplitude(traj, params, t, cfg, with_phase=False).gamma
                table = trans.transition_table(gamma, max_level)
                for m in range(max_level + 1):
                    row_sum = math.fsum(table.probs[m])
                    if table.tail_bounds[m] > tail_epsilon:
                        print(f"# warning: t = {_fmt(t)}, row m = {m} leaves "
                              f"{_fmt(table.tail_bounds[m])} beyond max_level; raise max_level",
                              file=sys.stderr)
                    for n in range(max_level + 1):
                        print(f"{_fmt(t)},{_fmt(gamma)},{m},{n},{_fmt(table.probs[m, n])},"
                              f"{_fmt(row_sum)},{_fmt(table.tail_bounds[m])}", file=out)
            return
        print("t,w,m_level,n_level,prob_sum,prob_avg", file=out)
        for t in times:
            spec = trans.DegenerateSpec(tuple(
                exc.excitation_amplitude(part, params, t, cfg, with_phase=False).gamma
                for part in traj.split()))
            for m_level in range(max_level + 1):
                for n_level in range(max_level + 1):
                    p_sum = trans.degenerate_probability(m_level, n_level, spec)
                    p_avg = p_sum / math.comb(m_level + 1, 1)
                    print(f"{_fmt(t)},{_fmt(spec.w)},{m_level},{n_level},{_fmt(p_sum)},"
                          f"{_fmt(p_avg)}", file=out)
    return work


def cmd_oracle(scn: Scenario):
    params = build_params(scn)
    traj = build_trajectory(scn, params)
    if traj.dimension != 1:
        raise ConfigError("oracle runs are 1-D; 2-D scenarios factor into per-axis checks")
    times = sorted(build_times(scn, params, traj))
    cfg = build_quadrature(scn)
    max_level = scn.get("run", "max_level")
    ceiling = scn.get("run", "steps_per_period")
    points = scn.get("run", "grid_points")
    bound = scn.get("run", "oracle_bound")
    snapshot = scn.get("run", "snapshot")
    if snapshot:  # test the path without creating or touching the file
        _check_writable(snapshot, "snapshot ")

    def work(out) -> None:
        prof = exc.excitation_profile(traj, params, times, cfg)
        gammas = prof.gamma.tolist()
        alpha_extent = max((math.sqrt(g) for g in gammas), default=0.0) + 1.0
        grid = orc.make_grid(traj, params, points, alpha_extent=alpha_extent, n_max=max_level)
        ax = traj.axes[0]
        for t in times:  # refuse an instant that cannot be measured before propagating
            orc._check_fit(max_level, float(ax.b(t)), float(ax.bdot(t)), params, grid)
        # step doubling stops at a quarter of the bound, or at the steps_per_period ceiling
        state, populations, notes, used, estimate = orc.ladder_populations(
            orc.fock_state(0, float(ax.b(0.0)), float(ax.bdot(0.0)), params, grid),
            traj, params, times, max_level, bound / 4.0, ceiling)

        print("t,n,p_analytic,p_grid,abs_dev,gamma,delta_sq", file=out)
        max_dev = 0.0
        delta_vs_gamma = 0.0
        for t, gamma, delta, grid_probs, truncation in zip(
                times, gammas, prof.delta.tolist(), populations.tolist(), notes):
            if truncation:
                print(f"# warning: t = {_fmt(t)}, {truncation}", file=sys.stderr)
            delta_sq = abs(delta) ** 2
            delta_vs_gamma = max(delta_vs_gamma, abs(delta_sq - gamma))
            for n, (analytic, p_grid) in enumerate(
                    zip(trans._row(0, gamma, max_level + 1).tolist(), grid_probs)):
                dev = abs(analytic - p_grid)
                max_dev = max(max_dev, dev)
                print(f"{_fmt(t)},{n},{_fmt(analytic)},{_fmt(p_grid)},{_fmt(dev)},"
                      f"{_fmt(gamma)},{_fmt(delta_sq)}", file=out)
        norm_drift = abs(state.norm() - 1.0)
        print(f"# max_abs_deviation = {_fmt(max_dev)}", file=out)
        print(f"# delta_sq_vs_gamma_max = {_fmt(delta_vs_gamma)}", file=out)
        print(f"# norm_drift = {_fmt(norm_drift)}", file=out)
        print(f"# steps_per_period_used = {used}", file=out)
        print(f"# step_error_estimate = {_fmt(estimate)}", file=out)
        if snapshot:
            orc.save_snapshot(state, snapshot)
        if max_dev > bound:
            raise _OracleMismatch(f"max deviation {max_dev:.3e} exceeds bound {bound:.3e}")
    return work


def cmd_sweep(scn: Scenario):
    params = build_params(scn)
    scn.require("sweep")
    parameter = scn.get("sweep", "parameter")
    if parameter is None:
        raise ConfigError("[sweep] needs a parameter")
    values = scn.get("sweep", "values")
    if values is None:
        raise ConfigError("[sweep] needs values")
    cfg = build_quadrature(scn)
    # validate once so typos fail fast; this resolves the keys the family reads
    build_trajectory(scn, params)
    if parameter == "omega":
        if params.units_mode != SI:
            raise ConfigError("[sweep] omega is fixed at 1 in dimensionless units; sweep it in SI")
    elif parameter not in scn.read["trajectory"]:
        raise ConfigError(f"[sweep] {parameter} is not set in [trajectory] or unused by its family")
    kind, bound, _ = _KEYS["oscillator" if parameter == "omega" else "trajectory"][parameter]
    _, _, build, label, closed_form = _FAMILIES[scn.get("trajectory", "family")]

    # closed forms are evaluated here, so that every swept point is checked before any output
    points = []
    for value in values:
        try:
            _convert(kind, bound, value)
            if parameter == "omega":
                point_params, overrides = OscillatorParams.si(params.mass, value, params.hbar), {}
            else:
                point_params, overrides = params, {parameter: value}
            _, args = _trajectory(scn, overrides)
            point = closed_form(point_params, *args) if closed_form else build(*args)
        except ValueError as err:  # ResonanceError included
            raise ConfigError(f"[sweep] at {parameter} = {value!r}: {err}") from err
        if closed_form and not math.isfinite(point):
            raise NumericalError(f"[sweep] at {parameter} = {value!r}: {label} = {point!r}")
        points.append((value, point_params, point))

    def work(out) -> None:
        rows = [(value, point if closed_form else exc.excitation_amplitude(
                    point, point_params, point.duration, cfg, with_phase=False).gamma)
                for value, point_params, point in points]
        print(f"{parameter},{label}", file=out)
        for value, excitation_value in rows:
            print(f"{_fmt(value)},{_fmt(excitation_value)}", file=out)
    return work


def cmd_transport(scn: Scenario):
    params = build_params(scn)
    scn.require("transport")
    displacement = scn.get("transport", "displacement")
    if displacement is None:
        raise ConfigError("[transport] needs displacement")
    duration = scn.get("transport", "duration")
    periods = scn.get("transport", "duration_periods")
    if duration is None and periods is None:
        raise ConfigError("[transport] needs duration or duration_periods")
    if duration is None:
        duration = periods * params.period
    cls, size_key, kind, printed = _TRANSPORT_FAMILIES[scn.get("transport", "family")]
    family = cls(scn.get("transport", size_key))
    samples = scn.get("transport", "samples")
    threshold = scn.get("transport", "threshold")
    try:
        problem = tp.TransportProblem(displacement, duration, params, family)
    except ValueError as err:
        raise ConfigError(f"[transport]: {err}") from err

    def work(out) -> None:
        solution = tp.optimize(problem, threshold=threshold)
        coeffs = printed(family, problem, solution.free_params)
        print(f"# {kind} = {','.join(_fmt(c) for c in coeffs)}", file=out)
        print(f"# residual = {_fmt(solution.residual)}", file=out)
        print(f"# evaluations = {solution.evaluations}", file=out)
        print(f"# converged = {'yes' if solution.converged else 'no'}", file=out)
        ax = solution.trajectory.axes[0]
        times = np.linspace(0.0, duration, samples)
        print("t,b,b_dot,b_ddot", file=out)
        for row in zip(times.tolist(), ax.b(times).tolist(), ax.bdot(times).tolist(),
                       ax.bddot(times).tolist()):
            print(",".join(_fmt(x) for x in row), file=out)
    return work


# --- entry point -------------------------------------------------------------

_COMMANDS = {"excite": cmd_excite, "probs": cmd_probs, "oracle": cmd_oracle,
             "sweep": cmd_sweep, "transport": cmd_transport}


def _load_config_text(path: str) -> str:
    if path.startswith("demo:"):
        name = path[len("demo:"):]
        if name not in DEMOS:
            raise ConfigError(f"unknown demo {name!r}; available: {', '.join(DEMOS)}")
        resource = importlib.resources.files("trapmotion").joinpath(f"configs/{name}.cfg")
        return resource.read_text(encoding="ascii")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err


_PARSER = argparse.ArgumentParser(
    prog="trapmotion",
    description="Excitation of a harmonic trap with a moving center.",
)
_PARSER.add_argument("command", choices=_COMMANDS)
_PARSER.add_argument("--config", required=True,
                     help="scenario file, or demo:NAME for a bundled scenario")
_PARSER.add_argument("--out", default=None, help="output CSV path (default stdout)")
_PARSER.add_argument("--seed", type=int, default=0,
                     help="accepted for old command lines; has no effect")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        scn = Scenario(parse_config(_load_config_text(args.config)))
        work = _COMMANDS[args.command](scn)
        sink = _open_sink(args.out) if args.out else None
        # a result outside the float range fails a finite check (exit 3), not a numpy warning
        with np.errstate(all="ignore"), sink or contextlib.nullcontext(sys.stdout) as out:
            work(out)
        scn.echo(sys.stderr)
        return 0
    except ConfigError as err:
        print(f"trapmotion: config error: {err}", file=sys.stderr)
        return 2
    except (NumericalError, ResourceError, OverflowError) as err:
        print(f"trapmotion: numerical error: {err}", file=sys.stderr)
        return 3
    except _OracleMismatch as err:
        print(f"trapmotion: oracle mismatch: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
