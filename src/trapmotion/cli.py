"""Command-line front end: scenario configs, golden demos, sweeps, oracle runs.

Subcommands::

    trapmotion excite    --config FILE [--out FILE]          u(t), gamma, phi, |delta|^2
    trapmotion probs     --config FILE [--out FILE]          transition tables
    trapmotion oracle    --config FILE [--out FILE]          analytic vs grid propagation
    trapmotion sweep     --config FILE [--out FILE]          closed-form parameter sweeps
    trapmotion transport --config FILE [--out FILE]          heating-free transport

Configs are flat ``key = value`` text with ``[section]`` headers; unknown keys
are rejected with the offending line number. ``--config demo:NAME`` loads one
of the bundled scenarios (constant_accel, kick_g5, sinusoid_resonance,
rotating_g20, transport_3period). Output is CSV with a header row, 12
significant digits, and is byte-identical across runs of the same config;
the resolved configuration is echoed to stderr. Exit codes: 0 ok, 2 config
error, 3 numerical error, 4 oracle mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.resources
import math
import sys

import numpy as np

from . import excitation as exc
from . import transitions as trans
from . import transport as tp
from .errors import ConfigError, NumericalError, ResonanceError, ResourceError
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

#: Every key a section accepts; ``[run] oracle`` and ``quadrature_scheme`` do nothing.
_SECTION_KEYS = {
    "oscillator": ("dimensionless", "mass", "omega", "hbar"),
    "trajectory": ("family", "a", "v", "T_a", "T", "stop_at", "R", "Omega", "s", "coeffs"),
    "run": ("times", "times_per_period", "return_instants", "max_level",
            "tail_epsilon", "oracle", "steps_per_period", "grid_points",
            "quadrature_steps_per_period", "quadrature_scheme", "quadrature_tol",
            "oracle_bound", "snapshot"),
    "sweep": ("parameter", "values"),
    "transport": ("displacement", "duration", "duration_periods", "family",
                  "degree", "segments", "threshold", "samples"),
}

_SWEEP_PARAMETERS = ("Omega", "omega", "R", "v", "a", "s", "T")


class _OracleMismatch(Exception):
    pass


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
            if name not in _SECTION_KEYS:
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
        if key not in _SECTION_KEYS[current]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = (value, lineno)
    return sections


class _Section:
    """Typed accessors over one parsed section, with line-numbered errors."""

    def __init__(self, name: str, data: dict[str, tuple[str, int]]):
        self.name = name
        self.data = data
        self.resolved: dict[str, str] = {}

    def _fail(self, key: str, message: str):
        value, lineno = self.data[key]
        raise ConfigError(f"line {lineno}: [{self.name}] {key} = {value!r}: {message}")

    def string(self, key: str, default=None, choices=None) -> str | None:
        if key not in self.data:
            if default is not None:
                self.resolved.setdefault(key, str(default))
            return default
        value = self.data[key][0]
        if choices and value not in choices:
            self._fail(key, f"expected one of {choices}")
        self.resolved[key] = value
        return value

    def _parse(self, key: str, default, convert, what: str, show):
        if key not in self.data:
            if default is not None:
                self.resolved.setdefault(key, show(default))
            return default
        try:
            out = convert(self.data[key][0])
        except ValueError:
            self._fail(key, f"not {what}")
        self.resolved[key] = show(out)
        return out

    def number(self, key: str, default=None) -> float | None:
        return self._parse(key, default, float, "a number", _fmt)

    def integer(self, key: str, default=None, minimum=None) -> int | None:
        value = self._parse(key, default, int, "an integer", str)
        if minimum is not None and value is not None and value < minimum:
            self._fail(key, f"must be >= {minimum}")
        return value

    def boolean(self, key: str, default=False) -> bool:
        if key not in self.data:
            self.resolved.setdefault(key, "on" if default else "off")
            return default
        value = self.data[key][0].lower()
        if value in ("true", "on", "yes", "1"):
            self.resolved[key] = "on"
            return True
        if value in ("false", "off", "no", "0"):
            self.resolved[key] = "off"
            return False
        self._fail(key, "not a boolean (use on/off)")

    def values(self, key: str):
        """Comma list or inclusive 'start:stop:count' range; may be empty."""
        if key not in self.data:
            return None
        raw = self.data[key][0].strip()
        self.resolved[key] = raw
        if not raw:
            return []
        try:
            if ":" in raw:
                start, stop, count = raw.split(":")
                return list(np.linspace(float(start), float(stop), int(count)))
            return [float(item) for item in raw.split(",") if item.strip()]
        except ValueError:
            self._fail(key, "expected a comma list or start:stop:count")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class Scenario:
    """Validated view over a parsed config with typed section handles."""

    def __init__(self, sections: dict[str, dict[str, tuple[str, int]]]):
        self.sections = {name: _Section(name, data) for name, data in sections.items()}

    def section(self, name: str, required: bool = False) -> _Section:
        if name not in self.sections:
            if required:
                raise ConfigError(f"missing required section [{name}]")
            self.sections[name] = _Section(name, {})
        return self.sections[name]

    def echo(self, stream) -> None:
        for name in _SECTION_KEYS:
            if name in self.sections:
                for key, value in sorted(self.sections[name].resolved.items()):
                    print(f"# [{name}] {key} = {value}", file=stream)


def build_params(scn: Scenario) -> OscillatorParams:
    osc = scn.section("oscillator", required=True)
    if osc.boolean("dimensionless", default=False):
        return OscillatorParams.dimensionless()
    mass = osc.number("mass")
    omega = osc.number("omega")
    if mass is None or omega is None:
        raise ConfigError("[oscillator] needs mass and omega unless dimensionless = on")
    hbar = osc.number("hbar", default=HBAR_SI)
    try:
        return OscillatorParams.si(mass, omega, hbar)
    except ValueError as err:
        raise ConfigError(f"[oscillator]: {err}") from err


def _sinusoid_T(Omega, T, s):
    if (T is None) == (s is None):
        raise ConfigError("sinusoidal needs exactly one of T and s")
    return 2.0 * math.pi * s / Omega if T is None else T


def _sinusoid_gamma(params, R, Omega, T, s):
    if s is not None and abs(Omega - params.omega) < exc.RESONANCE_DETUNING * params.omega:
        return exc.closed_form_sinusoidal_resonance(R, params, s)
    return exc.closed_form_sinusoidal(R, Omega, params, _sinusoid_T(Omega, T, s))


#: family -> ([trajectory] keys it reads, how many of them it requires, its
#: builder, and the label and closed form a sweep evaluates; no closed form
#: means a quadrature to the end of the run)
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
    "polynomial": (("coeffs", "T"), 2,
                   lambda coeffs, T: make_polynomial([float(c) for c in coeffs.split(",")], T),
                   "gamma", None),
}


def _trajectory(scn: Scenario, overrides: dict[str, float]):
    """The family's table entry and its key values, with sweep overrides applied."""
    sec = scn.section("trajectory", required=True)
    family = sec.string("family", choices=tuple(_FAMILIES))
    if family is None:
        raise ConfigError("[trajectory] needs a family")
    keys, required, *_ = entry = _FAMILIES[family]
    values = [overrides[key] if key in overrides
              else sec.string(key) if key == "coeffs" else sec.number(key) for key in keys]
    if None in values[:required]:
        *head, last = keys[:required]
        raise ConfigError(f"{family} needs {', '.join(head)}{',' * (required > 2)} and {last}")
    return entry, values


def build_trajectory(scn: Scenario, params: OscillatorParams,
                     overrides: dict[str, float] | None = None) -> Trajectory:
    (_, _, build, _, _), values = _trajectory(scn, overrides or {})
    try:
        return build(*values)
    except ValueError as err:
        raise ConfigError(f"[trajectory]: {err}") from err


def build_times(scn: Scenario, params: OscillatorParams, traj: Trajectory) -> list[float]:
    run = scn.section("run")
    times = run.values("times")
    per_period = run.values("times_per_period")
    instants = run.values("return_instants")
    chosen = [t for t in (times, per_period, instants) if t is not None]
    if len(chosen) > 1:
        raise ConfigError("[run] give only one of times / times_per_period / return_instants")
    if times is not None:
        out = times
    elif per_period is not None:
        out = [k * params.period for k in per_period]
    elif instants is not None:
        sec = scn.section("trajectory")
        Omega = sec.number("Omega")
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
    run = scn.section("run")
    default = QuadratureConfig()
    try:
        return QuadratureConfig(
            steps_per_period=run.integer("quadrature_steps_per_period",
                                         default=default.steps_per_period),
            tol=run.number("quadrature_tol", default=default.tol),
        )
    except ValueError as err:
        raise ConfigError(f"[run]: {err}") from err


# --- commands ----------------------------------------------------------------

def cmd_excite(scn: Scenario, out) -> int:
    params = build_params(scn)
    traj = build_trajectory(scn, params)
    if traj.dimension != 1:
        raise ConfigError("excite handles 1-D trajectories; use probs for circular scenarios")
    times = build_times(scn, params, traj)
    cfg = build_quadrature(scn)
    prof = exc.excitation_profile(traj, params, times, cfg)
    phis = ["NA"] * len(times) if prof.phi is None else [_fmt(p) for p in prof.phi.tolist()]
    print("t,re_u,im_u,gamma,phi,delta_sq", file=out)
    for t, u, gamma, phi, delta in zip(times, prof.u.tolist(), prof.gamma.tolist(), phis,
                                       prof.delta.tolist()):
        print(f"{_fmt(t)},{_fmt(u.real)},{_fmt(u.imag)},{_fmt(gamma)},{phi},"
              f"{_fmt(abs(delta) ** 2)}", file=out)
    return 0


def cmd_probs(scn: Scenario, out) -> int:
    params = build_params(scn)
    traj = build_trajectory(scn, params)
    times = build_times(scn, params, traj)
    cfg = build_quadrature(scn)
    run = scn.section("run")
    max_level = run.integer("max_level", default=8, minimum=0)
    tail_epsilon = run.number("tail_epsilon", default=1e-8)
    if not (0.0 < tail_epsilon <= 1e-3):
        raise ConfigError("[run] tail_epsilon must lie in (0, 1e-3]")
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
        return 0
    print("t,w,m_level,n_level,prob_sum,prob_avg", file=out)
    for t in times:
        spec = trans.DegenerateSpec(tuple(
            exc.excitation_amplitude(part, params, t, cfg, with_phase=False).gamma
            for part in traj.split()))
        for m_level in range(max_level + 1):
            for n_level in range(max_level + 1):
                p_sum = trans.degenerate_probability(m_level, n_level, spec)
                p_avg = p_sum / math.comb(m_level + 1, 1)
                print(f"{_fmt(t)},{_fmt(spec.w)},{m_level},{n_level},{_fmt(p_sum)},{_fmt(p_avg)}",
                      file=out)
    return 0


def cmd_oracle(scn: Scenario, out) -> int:
    params = build_params(scn)
    traj = build_trajectory(scn, params)
    if traj.dimension != 1:
        raise ConfigError("oracle runs are 1-D; 2-D scenarios factor into per-axis checks")
    run = scn.section("run")
    times = sorted(build_times(scn, params, traj))
    cfg = build_quadrature(scn)
    max_level = run.integer("max_level", default=8, minimum=0)
    steps = run.integer("steps_per_period", default=2000, minimum=orc.MIN_STEPS_PER_PERIOD)
    points = run.integer("grid_points", default=4096)
    bound = run.number("oracle_bound", default=1e-3)
    if not (math.isfinite(bound) and bound > 0.0):
        run._fail("oracle_bound", "must be finite and > 0")
    snapshot = run.string("snapshot")

    prof = exc.excitation_profile(traj, params, times, cfg)
    gammas = prof.gamma.tolist()
    alpha_extent = max((math.sqrt(g) for g in gammas), default=0.0) + 1.0
    try:
        grid = orc.make_grid(traj, params, points, alpha_extent=alpha_extent, n_max=max_level)
    except ValueError as err:
        raise ConfigError(f"[run]: {err}") from err
    ax = traj.axes[0]
    for t in times:  # refuse an instant that cannot be measured before propagating
        orc._check_fit(max_level, float(ax.b(t)), float(ax.bdot(t)), params, grid)
    state = orc.fock_state(0, float(ax.b(0.0)), float(ax.bdot(0.0)), params, grid)

    print("t,n,p_analytic,p_grid,abs_dev,gamma,delta_sq", file=out)
    max_dev = 0.0
    delta_vs_gamma = 0.0
    for t, gamma, delta in zip(times, gammas, prof.delta.tolist()):
        state = orc.propagate(state, traj, params, t, steps)
        grid_probs = orc.measure_transitions(state, traj, params, max_level)
        delta_sq = abs(delta) ** 2
        delta_vs_gamma = max(delta_vs_gamma, abs(delta_sq - gamma))
        for n in range(max_level + 1):
            analytic = trans.transition_probability(0, n, gamma)
            dev = abs(analytic - grid_probs[n])
            max_dev = max(max_dev, dev)
            print(f"{_fmt(t)},{n},{_fmt(analytic)},{_fmt(grid_probs[n])},{_fmt(dev)},"
                  f"{_fmt(gamma)},{_fmt(delta_sq)}", file=out)
    norm_drift = abs(state.norm() - 1.0)
    print(f"# max_abs_deviation = {_fmt(max_dev)}", file=out)
    print(f"# delta_sq_vs_gamma_max = {_fmt(delta_vs_gamma)}", file=out)
    print(f"# norm_drift = {_fmt(norm_drift)}", file=out)
    if snapshot:
        try:
            orc.save_snapshot(state, snapshot)
        except OSError as err:
            raise ConfigError(f"cannot write snapshot {snapshot!r}: {err}") from err
    if max_dev > bound:
        raise _OracleMismatch(f"max deviation {max_dev:.3e} exceeds bound {bound:.3e}")
    return 0


def _sweep_value(scn: Scenario, params: OscillatorParams, cfg,
                 overrides: dict[str, float]) -> tuple[str, float]:
    (_, _, _, label, closed_form), values = _trajectory(scn, overrides)
    if closed_form is not None:
        return label, closed_form(params, *values)
    traj = build_trajectory(scn, params, overrides)
    return label, exc.excitation_amplitude(traj, params, traj.duration, cfg, with_phase=False).gamma


def cmd_sweep(scn: Scenario, out) -> int:
    params = build_params(scn)
    sweep = scn.section("sweep", required=True)
    parameter = sweep.string("parameter", choices=_SWEEP_PARAMETERS)
    if parameter is None:
        raise ConfigError("[sweep] needs a parameter")
    values = sweep.values("values")
    if values is None:
        raise ConfigError("[sweep] needs values")
    cfg = build_quadrature(scn)
    # validate once so typos fail fast; this resolves the keys the family reads
    build_trajectory(scn, params)
    if parameter == "omega":
        if params.units_mode != SI:
            raise ConfigError("[sweep] omega is fixed at 1 in dimensionless units; sweep it in SI")
    elif parameter not in scn.section("trajectory").resolved:
        raise ConfigError(f"[sweep] {parameter} is not set in [trajectory] or unused by its family")

    label = None
    rows = []
    for value in values:
        try:
            if parameter == "omega":
                point_params, overrides = OscillatorParams.si(params.mass, value, params.hbar), {}
            else:
                point_params, overrides = params, {parameter: value}
            label, excitation_value = _sweep_value(scn, point_params, cfg, overrides)
        except (ValueError, ResonanceError) as err:
            raise ConfigError(f"[sweep] at {parameter} = {value!r}: {err}") from err
        rows.append((value, excitation_value))
    print(f"{parameter},{label or 'gamma'}", file=out)
    for value, excitation_value in rows:
        print(f"{_fmt(value)},{_fmt(excitation_value)}", file=out)
    return 0


#: transport family -> (its class, the [transport] key for its size and that
#: size's default, the label of the printed parameters, the method giving them)
_TRANSPORT_FAMILIES = {
    "polynomial": (tp.PolynomialFamily, "degree", 5, "coefficients",
                   tp.PolynomialFamily.coefficients),
    "piecewise": (tp.PiecewiseAccelerationFamily, "segments", 4, "segment_accelerations",
                  tp.PiecewiseAccelerationFamily.accelerations),
}


def cmd_transport(scn: Scenario, out) -> int:
    params = build_params(scn)
    sec = scn.section("transport", required=True)
    displacement = sec.number("displacement")
    if displacement is None:
        raise ConfigError("[transport] needs displacement")
    duration = sec.number("duration")
    periods = sec.number("duration_periods")
    if duration is None and periods is None:
        raise ConfigError("[transport] needs duration or duration_periods")
    if duration is None:
        duration = periods * params.period
    family_name = sec.string("family", default="polynomial", choices=tuple(_TRANSPORT_FAMILIES))
    cls, size_key, size, kind, printed = _TRANSPORT_FAMILIES[family_name]
    samples = sec.integer("samples", default=201, minimum=0)
    try:
        family = cls(sec.integer(size_key, default=size))
        problem = tp.TransportProblem(displacement, duration, params, family)
        threshold = sec.number("threshold", default=tp.DEFAULT_THRESHOLD)
        solution = tp.optimize(problem, threshold=threshold)
    except ValueError as err:
        raise ConfigError(f"[transport]: {err}") from err

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
    return 0


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
        try:
            sink = open(args.out, "w", encoding="ascii", newline="\n") if args.out else None
        except OSError as err:
            raise ConfigError(f"cannot write {args.out!r}: {err}") from err
        with sink or contextlib.nullcontext(sys.stdout) as out:
            code = _COMMANDS[args.command](scn, out)
        scn.echo(sys.stderr)
        return code
    except ConfigError as err:
        print(f"trapmotion: config error: {err}", file=sys.stderr)
        return 2
    except (NumericalError, ResourceError) as err:
        print(f"trapmotion: numerical error: {err}", file=sys.stderr)
        return 3
    except _OracleMismatch as err:
        print(f"trapmotion: oracle mismatch: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
