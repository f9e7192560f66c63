import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trapmotion import transitions as trans
from trapmotion.cli import main, parse_config
from trapmotion.errors import ConfigError

TWO_PI = 2.0 * math.pi


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def rows(csv_text):
    lines = [ln for ln in csv_text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


# --- config parsing ---------------------------------------------------------------

def test_parse_config_happy_path():
    sections = parse_config("""
# comment
[oscillator]
dimensionless = on

[trajectory]
family = constant_acceleration
a = 1.0
T = 6.5
""")
    assert sections["oscillator"]["dimensionless"] == ("on", 4)
    assert sections["trajectory"]["a"] == ("1.0", 8)


def test_parse_config_unknown_key_has_line_number():
    with pytest.raises(ConfigError, match="line 3: unknown key 'omege'"):
        parse_config("[oscillator]\ndimensionless = on\nomege = 2\n")


def test_parse_config_unknown_section():
    with pytest.raises(ConfigError, match="line 1: unknown section"):
        parse_config("[oscillators]\n")


def test_parse_config_duplicate_key():
    with pytest.raises(ConfigError, match="line 3: duplicate key"):
        parse_config("[oscillator]\nmass = 1\nmass = 2\n")


def test_parse_config_entry_outside_section():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("mass = 1\n")


# --- excite ------------------------------------------------------------------------

def test_excite_zero_trajectory(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[oscillator]
dimensionless = on

[trajectory]
family = constant_acceleration
a = 0.0
T = 10.0

[run]
times = 1.0, 5.0
""")
    code, out, err = run_cli(capsys, "excite", "--config", cfg)
    assert code == 0
    header, data = rows(out)
    assert header == ["t", "re_u", "im_u", "gamma", "phi", "delta_sq"]
    assert [r[3] for r in data] == ["0", "0"]
    assert "# [oscillator] dimensionless = on" in err


def test_excite_demo_constant_accel_periods(capsys):
    code, out, _ = run_cli(capsys, "excite", "--config", "demo:constant_accel")
    assert code == 0
    _, data = rows(out)
    assert len(data) == 5
    assert all(float(r[3]) < 1e-10 for r in data)


def test_excite_demo_kick_reaches_g5(capsys):
    code, out, _ = run_cli(capsys, "excite", "--config", "demo:kick_g5")
    assert code == 0
    _, data = rows(out)
    gammas = [float(r[3]) for r in data]
    assert all(abs(g - 4.7412) < 0.05 for g in gammas)
    # fixed-frame parameter keeps growing while gamma stays flat
    deltas = [float(r[5]) for r in data]
    assert deltas == sorted(deltas)
    assert deltas[-1] > 100 * gammas[-1]


def test_excite_reports_phi_na_for_offset_start(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[oscillator]
dimensionless = on

[trajectory]
family = polynomial
coeffs = 1.0, 0.0, 0.5
T = 4.0

[run]
times = 2.0
""")
    code, out, _ = run_cli(capsys, "excite", "--config", cfg)
    assert code == 0
    _, data = rows(out)
    assert data[0][4] == "NA"


def test_excite_rejects_two_dimensional_scenario(capsys):
    code, _, err = run_cli(capsys, "excite", "--config", "demo:rotating_g20")
    assert code == 2
    assert "1-D" in err


# --- probs -------------------------------------------------------------------------

def test_probs_identity_table_for_zero_drive(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[oscillator]
dimensionless = on

[trajectory]
family = constant_acceleration
a = 0.0
T = 5.0

[run]
times = 2.0
max_level = 3
""")
    code, out, _ = run_cli(capsys, "probs", "--config", cfg)
    assert code == 0
    header, data = rows(out)
    assert header == ["t", "gamma", "m", "n", "prob", "row_sum", "tail_bound"]
    for r in data:
        m, n, prob = int(r[2]), int(r[3]), float(r[4])
        assert prob == (1.0 if m == n else 0.0)


def test_probs_two_dimensional_degenerate_tables(tmp_path, capsys):
    # circular scenario engineered to give w = 1 exactly is hard; instead
    # verify the column layout and the m=0 Poisson law in w
    cfg = write_config(tmp_path, """
[oscillator]
dimensionless = on

[trajectory]
family = circular
R = 0.5
Omega = 0.45
T_a = 0.12566370614359172
s = 1

[run]
max_level = 4
""")
    code, out, _ = run_cli(capsys, "probs", "--config", cfg)
    assert code == 0
    header, data = rows(out)
    assert header == ["t", "w", "m_level", "n_level", "prob_sum", "prob_avg"]
    w = float(data[0][1])
    for r in data:
        if int(r[2]) == 0:
            n = int(r[3])
            want = math.exp(-w) * w ** n / math.factorial(n)
            assert float(r[4]) == pytest.approx(want, rel=1e-9)
            assert r[4] == r[5]  # no degeneracy averaging for the ground level
        if (int(r[2]), int(r[3])) == (1, 2):
            want = 0.5 * w * math.exp(-w) * (6 - 4 * w + w * w)
            assert float(r[4]) == pytest.approx(want, rel=1e-9)


def test_probs_unit_excitation_spot_check(capsys, tmp_path):
    # direct library-level check through the CLI stack: w engineered via kick
    # is 1-D; the 2-D closed-form spot check lives in the library tests.
    cfg = write_config(tmp_path, """
[oscillator]
dimensionless = on

[trajectory]
family = kick
v = 1.4142135623730951
T_a = 0.06283185307179587
T = 10.0

[run]
times = 5.0
max_level = 2
""")
    code, out, _ = run_cli(capsys, "probs", "--config", cfg)
    assert code == 0
    _, data = rows(out)
    # G = v^2/2 = 1.0; P_01 = e^-1
    p01 = [float(r[4]) for r in data if r[2] == "0" and r[3] == "1"][0]
    assert p01 == pytest.approx(math.exp(-1.0), rel=0.02)


# --- oracle ------------------------------------------------------------------------

ORACLE_BASE = """
[oscillator]
dimensionless = on

[trajectory]
family = constant_acceleration
a = {a}
T = 6.5

[run]
oracle = on
times = 3.141592653589793
max_level = 8
steps_per_period = 600
grid_points = 1024
{extra}
"""


def test_oracle_stationary_trap(tmp_path, capsys):
    cfg = write_config(tmp_path, ORACLE_BASE.format(a=0.0, extra=""))
    code, out, _ = run_cli(capsys, "oracle", "--config", cfg)
    assert code == 0
    assert "# max_abs_deviation = " in out
    dev = float(out.split("# max_abs_deviation = ")[1].splitlines()[0])
    assert dev < 1e-6


def test_oracle_constant_acceleration_and_snapshot(tmp_path, capsys):
    snap = tmp_path / "state.snap"
    cfg = write_config(tmp_path, ORACLE_BASE.format(a=1.0, extra=f"snapshot = {snap}"))
    code, out, _ = run_cli(capsys, "oracle", "--config", cfg)
    assert code == 0
    header, data = rows(out)
    assert header == ["t", "n", "p_analytic", "p_grid", "abs_dev", "gamma", "delta_sq"]
    dev = float(out.split("# max_abs_deviation = ")[1].splitlines()[0])
    assert dev < 1e-3
    drift = float(out.split("# norm_drift = ")[1].splitlines()[0])
    assert drift < 1e-8
    assert snap.exists()
    from trapmotion import load_snapshot

    state = load_snapshot(snap)
    assert state.t == pytest.approx(math.pi)


def test_oracle_mismatch_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, ORACLE_BASE.format(a=1.0, extra="oracle_bound = 1e-18"))
    code, _, err = run_cli(capsys, "oracle", "--config", cfg)
    assert code == 4
    assert "oracle mismatch" in err


def test_oracle_takes_gamma_and_delta_from_one_profile(tmp_path, capsys, monkeypatch):
    import trapmotion.cli as cli_mod
    from trapmotion import closed_form_constant_accel, excitation_profile
    from trapmotion.model import OscillatorParams

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return excitation_profile(*args, **kwargs)

    def per_instant(*args, **kwargs):
        raise AssertionError("oracle integrates each instant separately")

    monkeypatch.setattr(cli_mod.exc, "excitation_profile", counted)
    monkeypatch.setattr(cli_mod.exc, "excitation_amplitude", per_instant)
    monkeypatch.setattr(cli_mod.exc, "fixed_frame_delta", per_instant)
    extra = "times = 1.5, 3.141592653589793"
    cfg = write_config(tmp_path, ORACLE_BASE.format(a=1.0, extra="").replace(
        "times = 3.141592653589793", extra))
    code, out, _ = run_cli(capsys, "oracle", "--config", cfg)
    assert code == 0
    assert calls == [[1.5, math.pi]]
    _, data = rows(out)
    want = closed_form_constant_accel(1.0, OscillatorParams.dimensionless(), math.pi)
    assert float(data[-1][5]) == pytest.approx(want, rel=1e-7)


def test_oracle_runs_without_oracle_flag(tmp_path, capsys):
    # [run] oracle is still accepted and has no effect
    text = ORACLE_BASE.format(a=1.0, extra="")
    with_key = run_cli(capsys, "oracle", "--config", write_config(tmp_path, text))
    without = run_cli(capsys, "oracle", "--config", write_config(
        tmp_path, text.replace("oracle = on", ""), name="without.cfg"))
    assert without[0] == 0
    assert without == with_key


def test_oracle_measures_levels_above_sixty(tmp_path, capsys):
    # no fixed level cap: level 70 fits this grid in position and momentum
    cfg = write_config(tmp_path, ORACLE_BASE.format(a=1.0, extra="").replace(
        "max_level = 8", "max_level = 70"))
    code, out, _ = run_cli(capsys, "oracle", "--config", cfg)
    assert code == 0
    _, data = rows(out)
    assert [int(r[1]) for r in data] == list(range(71))


def test_oracle_reports_truncation_as_one_warning_line(tmp_path, capsys):
    # levels 0 and 1 hold 3 e^-2 of the state at gamma = 2: one '# warning:'
    # line per instant on stderr, as probs reports its tails, and no Python
    # warning display (which this suite would turn into an error)
    cfg = write_config(tmp_path, ORACLE_BASE.format(a=1.0, extra="").replace(
        "max_level = 8", "max_level = 1"))
    code, _, err = run_cli(capsys, "oracle", "--config", cfg)
    assert code == 0
    (line,) = [ln for ln in err.splitlines() if not ln.startswith("# [")]
    assert line.startswith("# warning: t = 3.14159265359, projections onto n <= 1 capture "
                           "only 0.406")
    assert line.endswith(" of the state; raise n_max or enlarge the grid")


DEMO_SHAPED_ORACLE = """
[oscillator]
dimensionless = on

[trajectory]
family = constant_acceleration
a = 1.0
T = 31.5

[run]
times_per_period = {periods}
max_level = 8
steps_per_period = 500
"""


def _summary(out, key):
    return float(out.split(f"# {key} = ")[1].splitlines()[0])


@pytest.mark.parametrize("demo", ["constant_accel", "kick_g5", "sinusoid_resonance"])
def test_oracle_demos_report_a_step_error_estimate_that_bounds_the_deviation(capsys, demo):
    code, out, _ = run_cli(capsys, "oracle", "--config", f"demo:{demo}")
    assert code == 0
    assert _summary(out, "steps_per_period_used") in (100, 200, 400, 800, 1600)
    assert _summary(out, "max_abs_deviation") <= _summary(out, "step_error_estimate") <= 2.5e-4


def test_oracle_at_its_ceiling_reports_the_estimate_and_still_checks_the_bound(tmp_path, capsys):
    # a bound the ceiling cannot meet: the run stops at 100 steps a period and
    # the measured deviation still decides the exit code
    text = ORACLE_BASE.format(a=1.0, extra="oracle_bound = 1e-9").replace(
        "steps_per_period = 600", "steps_per_period = 100")
    code, out, err = run_cli(capsys, "oracle", "--config", write_config(tmp_path, text))
    assert code == 4 and "oracle mismatch" in err
    assert _summary(out, "steps_per_period_used") == 100
    assert _summary(out, "step_error_estimate") > 2.5e-10


def test_oracle_analytic_row_is_the_scalar_poisson_mass():
    # cmd_oracle reads P_0n for n <= max_level off one row per instant
    for gamma in (1e-9, 0.3, 4.74, 60.0, 400.0):
        row = trans._row(0, gamma, 13).tolist()
        assert row == [trans.transition_probability(0, n, gamma) for n in range(13)]


def test_oracle_refuses_an_unmeasurable_instant_before_propagating(tmp_path, capsys):
    # the grid is sized from the excursion, so at t = 6 pi level 8 boosted to
    # velocity 6 pi passes its Nyquist wavenumber; t = 2 pi and 4 pi still fit
    full = write_config(tmp_path, DEMO_SHAPED_ORACLE.format(periods="1, 2, 3, 4, 5"))
    code, out, err = run_cli(capsys, "oracle", "--config", full)
    assert code == 3
    assert out == ""
    assert "Fock level 8 boosted to velocity 18.849" in err
    fitting = write_config(tmp_path, DEMO_SHAPED_ORACLE.format(periods="1, 2"), name="fits.cfg")
    code, out, _ = run_cli(capsys, "oracle", "--config", fitting)
    assert code == 0
    _, data = rows(out)
    assert [(float(r[0]), int(r[1])) for r in data] == [
        (pytest.approx(k * 2.0 * math.pi, rel=1e-10), n) for k in (1, 2) for n in range(9)]


def test_oracle_delta_sq_agreement_at_return_instant(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[oscillator]
dimensionless = on

[trajectory]
family = sinusoidal
R = 0.5
Omega = 0.3
s = 2

[run]
oracle = on
return_instants = 2
max_level = 8
steps_per_period = 600
grid_points = 2048
quadrature_tol = 1e-10
""")
    code, out, _ = run_cli(capsys, "oracle", "--config", cfg)
    assert code == 0
    agreement = float(out.split("# delta_sq_vs_gamma_max = ")[1].splitlines()[0])
    assert agreement < 1e-8


# --- sweep -------------------------------------------------------------------------

def test_sweep_empty_range(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[oscillator]
dimensionless = on

[trajectory]
family = constant_acceleration
a = 1.0
T = 6.5

[sweep]
parameter = a
values =
""")
    code, out, _ = run_cli(capsys, "sweep", "--config", cfg)
    assert code == 0
    assert out.strip() == "a,gamma"


def test_sweep_resonance_demo_grows_quadratically(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--config", "demo:sinusoid_resonance")
    assert code == 0
    _, data = rows(out)
    values = {float(r[0]): float(r[1]) for r in data}
    G = 0.1 ** 2 / 2.0
    for s in (1.0, 4.0, 10.0):
        assert values[s] == pytest.approx(G * (math.pi * s) ** 2, rel=1e-9)


def test_sweep_rotating_demo_covers_envelope(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--config", "demo:rotating_g20")
    assert code == 0
    header, data = rows(out)
    assert header == ["Omega", "w_s"]
    w = np.array([float(r[1]) for r in data])
    envelope = 18.96
    assert w.min() < 0.02 * envelope
    assert w.max() > 0.9 * envelope


def test_sweep_unknown_parameter(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[oscillator]
dimensionless = on

[trajectory]
family = constant_acceleration
a = 1.0
T = 6.5

[sweep]
parameter = q
values = 1,2
""")
    code, _, err = run_cli(capsys, "sweep", "--config", cfg)
    assert code == 2


@pytest.mark.parametrize("trajectory, parameter", [
    ("family = kick\nv = 1.0\nT_a = 0.5\nT = 20.0", "a"),
    ("family = circular\nR = 0.1\nOmega = 0.01\nT_a = 0.5\ns = 1", "T"),
    ("family = kick\nv = 1.0\nT_a = 0.5\nT = 20.0\na = 1.0", "a"),
    ("family = sinusoidal\nR = 0.1\nOmega = 0.5\ns = 3", "T"),
], ids=["kick-a", "circular-T", "kick-a-set-but-unused", "sinusoidal-T-given-s"])
def test_sweep_rejects_parameter_the_trajectory_does_not_use(tmp_path, capsys,
                                                              trajectory, parameter):
    # the swept value would be ignored and every row would repeat one value
    cfg = write_config(tmp_path, f"""
[oscillator]
dimensionless = on

[trajectory]
{trajectory}

[sweep]
parameter = {parameter}
values = 1,2,3
""")
    code, out, err = run_cli(capsys, "sweep", "--config", cfg)
    assert code == 2
    assert out == ""
    assert f"{parameter} is not set in [trajectory] or unused by its family" in err


def test_sweep_rejects_omega_in_dimensionless_units(tmp_path, capsys):
    # dimensionless mode fixes omega = 1: every row would repeat one value
    cfg = write_config(tmp_path, """
[oscillator]
dimensionless = on

[trajectory]
family = kick
v = 1.0
T_a = 0.5
T = 20.0

[sweep]
parameter = omega
values = 0.5, 1, 2
""")
    code, out, err = run_cli(capsys, "sweep", "--config", cfg)
    assert code == 2
    assert out == ""
    assert "omega is fixed at 1 in dimensionless units" in err


@pytest.mark.parametrize("values, code", [("0.5, 1, 2", 0), ("0.5, -1", 2)],
                         ids=["valid", "negative"])
def test_sweep_omega_in_si_units(tmp_path, capsys, values, code):
    # G = M v^2 / (2 hbar omega): the swept omega reaches every row, and a
    # value that is no trap frequency is a config error
    cfg = write_config(tmp_path, f"""
[oscillator]
mass = 1.0
omega = 1.0
hbar = 1.0

[trajectory]
family = kick
v = 1.0
T_a = 0.05
T = 20.0

[sweep]
parameter = omega
values = {values}
""")
    got, out, err = run_cli(capsys, "sweep", "--config", cfg)
    assert got == code
    if code:
        assert "[sweep] at omega = -1.0" in err
    else:
        _, data = rows(out)
        assert [float(r[1]) for r in data] == pytest.approx([1.0, 0.5, 0.25], rel=1e-12)


@pytest.mark.parametrize("command", ["excite", "sweep"])
def test_sinusoidal_rejects_both_T_and_s(tmp_path, capsys, command):
    # excite used T and sweep used s; neither may pick one silently
    cfg = write_config(tmp_path, """
[oscillator]
dimensionless = on

[trajectory]
family = sinusoidal
R = 0.1
Omega = 0.5
T = 10
s = 3

[sweep]
parameter = R
values = 0.1
""")
    code, out, err = run_cli(capsys, command, "--config", cfg)
    assert code == 2
    assert "exactly one of T and s" in err


# --- transport ---------------------------------------------------------------------

def test_transport_demo_converges(capsys):
    code, out, _ = run_cli(capsys, "transport", "--config", "demo:transport_3period")
    assert code == 0
    residual = float(out.split("# residual = ")[1].splitlines()[0])
    assert residual < 1e-6
    assert "# converged = yes" in out
    header, data = rows(out)
    assert header == ["t", "b", "b_dot", "b_ddot"]
    assert float(data[0][1]) == 0.0
    assert float(data[-1][1]) == pytest.approx(1.0, abs=1e-9)


def test_transport_seed_is_accepted_and_ignored(capsys):
    # the solve is exact, so --seed only keeps old command lines working
    _, plain, _ = run_cli(capsys, "transport", "--config", "demo:transport_3period")
    code, seeded, _ = run_cli(capsys, "transport", "--config", "demo:transport_3period",
                              "--seed", "12345")
    assert code == 0
    assert seeded == plain


def test_quadrature_scheme_is_accepted_and_ignored(tmp_path, capsys):
    # one panel rule serves every excitation integral, so the key only keeps
    # old configs working
    base = """
[oscillator]
dimensionless = on

[trajectory]
family = kick
v = 1.0
T_a = 0.05
T = 12.0
stop_at = 5.0

[run]
times = 2.0, 7.5, 12.0
"""
    outs = []
    for extra in ("", "quadrature_scheme = composite-filon\n",
                  "quadrature_scheme = adaptive-simpson\n"):
        code, out, _ = run_cli(capsys, "excite", "--config",
                               write_config(tmp_path, base + extra))
        assert code == 0
        outs.append(out)
    assert outs[1] == outs[0]
    assert outs[2] == outs[0]


def test_transport_zero_displacement(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[oscillator]
dimensionless = on

[transport]
displacement = 0.0
duration_periods = 1
degree = 5
""")
    code, out, _ = run_cli(capsys, "transport", "--config", cfg)
    assert code == 0
    assert "# residual = 0" in out


def test_transport_nonconverged_is_reported(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[oscillator]
dimensionless = on

[transport]
displacement = 1.0
duration_periods = 0.5
degree = 3
""")
    code, out, _ = run_cli(capsys, "transport", "--config", cfg)
    assert code == 0
    assert "# converged = no" in out


# --- generic plumbing -----------------------------------------------------------------

_RUN = ORACLE_BASE.format(a=1.0, extra="")
_NAN_TIMES = _RUN.replace("times = 3.141592653589793", "times = nan")


@pytest.mark.parametrize("command, text", [
    ("excite", _NAN_TIMES),
    ("probs", _NAN_TIMES),
    ("oracle", _NAN_TIMES),
    ("probs", _RUN.replace("max_level = 8", "max_level = -1")),
    ("oracle", _RUN.replace("max_level = 8", "max_level = -1")),
    ("oracle", _RUN.replace("grid_points = 1024", "grid_points = 1000")),
    ("oracle", _RUN.replace("steps_per_period = 600", "steps_per_period = 40")),
    ("transport", "[oscillator]\ndimensionless = on\n[transport]\ndisplacement = 1.0\n"
                  "duration_periods = 2\nsamples = -3\n"),
    ("transport", "[oscillator]\ndimensionless = on\n[transport]\ndisplacement = 1.0\n"
                  "duration_periods = 2\nbudget = 100\n"),
    ("oracle", ORACLE_BASE.format(a=1.0, extra="oracle_bound = nan")),
    ("oracle", ORACLE_BASE.format(a=1.0, extra="oracle_bound = inf")),
    ("oracle", ORACLE_BASE.format(a=1.0, extra="oracle_bound = 0")),
    ("transport", "[oscillator]\ndimensionless = on\n[transport]\ndisplacement = 1.0\n"
                  "duration_periods = 3\ndegree = 6\nthreshold = nan\n"),
], ids=["excite-nan-time", "probs-nan-time", "oracle-nan-time", "probs-negative-level",
        "oracle-negative-level", "oracle-grid-points", "oracle-steps", "transport-samples",
        "transport-budget", "oracle-nan-bound", "oracle-inf-bound", "oracle-zero-bound",
        "transport-nan-threshold"])
def test_bad_values_are_config_errors(tmp_path, capsys, command, text):
    code, out, err = run_cli(capsys, command, "--config", write_config(tmp_path, text))
    assert code == 2
    assert "config error" in err
    assert out == ""


@pytest.mark.parametrize("where", ["out", "snapshot"])
def test_unwritable_output_is_a_config_error(tmp_path, capsys, where):
    missing = tmp_path / "missing" / "file"
    extra = f"snapshot = {missing}" if where == "snapshot" else ""
    argv = ["oracle", "--config", write_config(tmp_path, ORACLE_BASE.format(a=1.0, extra=extra))]
    if where == "out":
        argv += ["--out", str(missing)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("trapmotion: config error: cannot write ")
    assert len(err.splitlines()) == 1


def test_config_error_creates_no_snapshot(tmp_path, capsys):
    # the snapshot path is checked, not opened: a later config error leaves no file
    snap = tmp_path / "new.snap"
    cfg = write_config(tmp_path, ORACLE_BASE.format(a=1.0, extra=f"snapshot = {snap}"))
    code, out, err = run_cli(capsys, "oracle", "--config", cfg,
                             "--out", str(tmp_path / "missing" / "out.csv"))
    assert code == 2
    assert err.startswith("trapmotion: config error: cannot write ")
    assert out == ""
    assert not snap.exists()


@pytest.mark.parametrize("tol, code", [("1e-300", 2), ("9.9e-15", 2), ("1e-14", 0)])
def test_quadrature_tol_has_a_floor(tmp_path, capsys, tol, code):
    # below the floor no refinement can settle: refused at load, before any doubling
    cfg = write_config(tmp_path, f"""
[oscillator]
dimensionless = on

[trajectory]
family = circular
R = 0.5
Omega = 0.45
T_a = 0.12566370614359172
s = 1

[run]
max_level = 2
quadrature_tol = {tol}
""")
    got, out, err = run_cli(capsys, "probs", "--config", cfg)
    assert got == code
    if code == 2:
        assert "quadrature_tol" in err and "must be finite and >= 1e-14" in err
        assert out == ""


def test_main_only_parses(capsys, monkeypatch):
    # the parser is built once at import; main must not build another
    import trapmotion.cli as cli_mod

    def refuse(*args, **kwargs):
        raise AssertionError("main built an ArgumentParser")

    monkeypatch.setattr(cli_mod.argparse, "ArgumentParser", refuse)
    code, out, _ = run_cli(capsys, "excite", "--config", "demo:constant_accel")
    assert code == 0
    assert out.startswith("t,re_u,im_u,gamma,phi,delta_sq")


def test_cli_start_up_loads_no_test_dependency():
    # scipy, mpmath, hypothesis and pytest serve the tests only; any of them
    # at start-up would add its import time to every command
    import trapmotion

    src = str(Path(trapmotion.__file__).resolve().parent.parent)
    probe = ("import sys, trapmotion.cli; "
             "print(sorted({m.split('.')[0] for m in sys.modules} "
             "& {'scipy', 'mpmath', 'hypothesis', 'pytest'}))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ("simulate", "--config", "demo:constant_accel"),
    ("excite",),
    ("--config", "demo:constant_accel"),
], ids=["unknown-command", "missing-config", "missing-command"])
def test_bad_command_lines_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    assert "usage: trapmotion" in capsys.readouterr().err


def test_missing_config_file(capsys):
    code, _, err = run_cli(capsys, "excite", "--config", "/nonexistent/path.cfg")
    assert code == 2
    assert "cannot read config" in err


def test_unknown_demo_name(capsys):
    code, _, err = run_cli(capsys, "excite", "--config", "demo:nope")
    assert code == 2
    assert "unknown demo" in err


def test_numerical_error_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    from trapmotion.errors import NumericalError
    import trapmotion.cli as cli_mod

    def boom(*args, **kwargs):
        raise NumericalError("synthetic failure", residual=1.0)

    monkeypatch.setattr(cli_mod.exc, "excitation_profile", boom)
    cfg = write_config(tmp_path, """
[oscillator]
dimensionless = on

[trajectory]
family = constant_acceleration
a = 1.0
T = 6.5

[run]
times = 1.0
""")
    code, _, err = run_cli(capsys, "excite", "--config", cfg)
    assert code == 3
    assert "numerical error" in err


def test_output_file_and_byte_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[oscillator]
dimensionless = on

[trajectory]
family = sinusoidal
R = 0.7
Omega = 1.3
T = 20.0

[run]
times = 1.0, 7.5, 19.0
max_level = 4
""")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["excite", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["excite", "--config", cfg, "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_bytes().startswith(b"t,re_u,im_u,gamma,phi,delta_sq\n")


def test_twelve_significant_digit_formatting(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "excite", "--config", "demo:kick_g5")
    assert code == 0
    _, data = rows(out)
    # 4.7405923356: 11 significant digits printed for this value
    assert data[0][3] == f"{float(data[0][3]):.12g}"


# --- fuzzed config values -------------------------------------------------------------

#: one small config per command and family; every numeric key in each is fuzzed
FUZZ_BASES = {
    "excite-kick": ("excite", """
[oscillator]
mass = 1.0
omega = 1.0
hbar = 1.0
[trajectory]
family = kick
v = 1.0
T_a = 0.5
T = 3.0
stop_at = 1.5
[run]
times = 1.0, 2.5
"""),
    "probs-sinusoidal": ("probs", """
[oscillator]
dimensionless = on
[trajectory]
family = sinusoidal
R = 0.3
Omega = 0.7
s = 2
[run]
return_instants = 1, 2
max_level = 4
tail_epsilon = 1e-6
"""),
    "probs-circular": ("probs", """
[oscillator]
dimensionless = on
[trajectory]
family = circular
R = 0.5
Omega = 0.45
T_a = 0.2
s = 1
[run]
max_level = 2
"""),
    "oracle": ("oracle", """
[oscillator]
mass = 1.0
omega = 1.0
hbar = 1.0
[trajectory]
family = constant_acceleration
a = 0.5
T = 3.0
[run]
times = 1.5, 3.0
max_level = 4
steps_per_period = 500
grid_points = 1024
oracle_bound = 1e-3
"""),
    "sweep-si": ("sweep", """
[oscillator]
mass = 1.0
omega = 1.0
hbar = 1.0
[trajectory]
family = kick
v = 1.0
T_a = 0.05
T = 20.0
[sweep]
parameter = v
values = 0.5, 1.0
"""),
    "sweep-sinusoidal": ("sweep", """
[oscillator]
dimensionless = on
[trajectory]
family = sinusoidal
R = 0.1
Omega = 0.5
s = 3
[sweep]
parameter = R
values = 0.1, 0.2
"""),
    "sweep-circular": ("sweep", """
[oscillator]
dimensionless = on
[trajectory]
family = circular
R = 0.1
Omega = 0.45
T_a = 0.2
s = 1
[sweep]
parameter = Omega
values = 0.3, 0.45
"""),
    "sweep-polynomial": ("sweep", """
[oscillator]
dimensionless = on
[trajectory]
family = polynomial
coeffs = 0, 0, 0.02
T = 4.0
[run]
quadrature_steps_per_period = 16
quadrature_tol = 1e-6
[sweep]
parameter = T
values = 2.0, 4.0
"""),
    "transport-polynomial": ("transport", """
[oscillator]
dimensionless = on
[transport]
displacement = 1.0
duration_periods = 1.5
degree = 6
threshold = 1e-8
samples = 5
"""),
    "transport-piecewise": ("transport", """
[oscillator]
dimensionless = on
[transport]
family = piecewise
displacement = 1.0
duration = 9.0
segments = 4
samples = 5
"""),
}

FUZZ_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e300")


def _fuzz_keys():
    for name, (command, base) in FUZZ_BASES.items():
        for line in base.splitlines():
            key, eq, value = line.partition(" = ")
            if eq and value[0] in "0123456789":
                yield pytest.param(command, base, key, id=f"{name}-{key}")


@pytest.mark.parametrize("command, base, key", _fuzz_keys())
def test_fuzzed_value_exits_cleanly_and_keeps_out_on_config_error(tmp_path, capsys,
                                                                   command, base, key):
    # every value exits 0, 2, 3 or 4 from main; exit 0 prints no nan or inf,
    # and a config error leaves an earlier --out file as it was
    out = tmp_path / "out.csv"
    for value in FUZZ_VALUES:
        text = "\n".join(f"{key} = {value}" if line.startswith(f"{key} = ") else line
                         for line in base.splitlines())
        out.write_text("earlier output\n", encoding="ascii")
        code = main([command, "--config", write_config(tmp_path, text), "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (value, err)
        written = out.read_text(encoding="ascii")
        if code == 0:
            assert "nan" not in written and "inf" not in written, (value, written)
        if code == 2:
            assert written == "earlier output\n", (value, err)
