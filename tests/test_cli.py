"""Command-line frontend: CSV format, exit codes, config handling, sweeps
and figure presets."""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from gclab import (
    BathSpec,
    ChannelSpec,
    EvolutionProblem,
    asymptotic_covariance,
    squeezed_thermal_state,
    time_series,
)
import gclab.cli
import gclab.states
from gclab.cli import (CSV_HEADER, SWEEP_AXES, RunConfig, apply_axis, apply_flags, fmt, main,
                       metrics_line)
from gclab.evolution import MetricsRow
from util import scalar_time_series

RUN = ["--state", "st", "1", "1", "--bath1", "thermal", "0.5",
       "--bath2", "thermal", "0.5"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_metrics_header_and_initial_row(capsys):
    code, out, err = run_cli(["metrics", *RUN, "--times", "0"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert float(fields[0]) == 0.0
    assert float(fields[1]) == pytest.approx(1.0, abs=1e-9)       # purity
    assert float(fields[4]) == pytest.approx(2.0, rel=1e-9)       # E_N
    assert fields[8] == "0"                                       # separable flag


def test_metrics_asymptotic_row(capsys):
    code, out, _ = run_cli(["metrics", *RUN, "--times", "40"], capsys)
    fields = out.strip().split("\n")[1].split(",")
    assert float(fields[1]) == pytest.approx(0.25, abs=1e-9)
    assert float(fields[4]) == 0.0
    assert fields[8] == "1"


def test_metrics_deterministic(capsys):
    argv = ["metrics", *RUN, "--tmax", "2", "--points", "41"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2


def test_metrics_csv_roundtrip(tmp_path, capsys):
    path = tmp_path / "out.csv"
    code, _, _ = run_cli(["metrics", *RUN, "--tmax", "1.5", "--points", "16",
                          "-o", str(path)], capsys)
    assert code == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    grid = tuple(float(line.split(",")[0]) for line in lines[1:])
    rows = time_series(EvolutionProblem(
        squeezed_thermal_state(1.0, 1.0), ChannelSpec.thermal(0.5, 0.5), grid))
    for line, row in zip(lines[1:], rows):
        assert line == metrics_line(row)


def test_fig2_preset_initial_negativity(capsys):
    code, out, _ = run_cli(["metrics", "--state", "sf", "1.5", "1.5", "1.2", "-1.4",
                            "--bath1", "thermal", "0.5", "--bath2", "thermal", "0.5",
                            "--times", "0"], capsys)
    fields = out.strip().split("\n")[1].split(",")
    assert float(fields[4]) == pytest.approx(-math.log(2.0 * math.sqrt(0.03)), abs=1e-9)


def test_number_formatting(capsys):
    _, out, _ = run_cli(["metrics", *RUN, "--times", "0.1"], capsys)
    for token in out.strip().split("\n")[1].split(",")[:-1]:
        assert len(token.replace("-", "").replace(".", "").replace("e", "")) <= 14
        float(token)  # parseable


# ---------------------------------------------------------------------------
# tent
# ---------------------------------------------------------------------------

def test_tent_benchmark(capsys):
    code, out, _ = run_cli(["tent", *RUN], capsys)
    assert code == 0
    assert out.startswith("t_ent=")
    value = float(out.split()[0].split("=")[1])
    assert value == pytest.approx(math.log(2 - math.exp(-2)), abs=1e-7)
    assert "method=quartic" in out
    assert "residual=" in out


def test_tent_never(capsys):
    code, out, _ = run_cli(["tent", "--state", "st", "1", "1",
                            "--bath1", "thermal", "0", "--bath2", "thermal", "0"],
                           capsys)
    assert code == 0
    assert out.startswith("t_ent=never")


def test_tent_validates_the_state_once(monkeypatch, capsys):
    calls = []
    validate = gclab.states.validate_covariance
    monkeypatch.setattr(gclab.states, "validate_covariance",
                        lambda m: calls.append(m) or validate(m))
    code, out, _ = run_cli(["tent", *RUN], capsys)
    assert code == 0
    assert out.startswith("t_ent=")
    # one check per matrix: sigma_inf, then sigma(0)
    cfg = apply_flags(RunConfig(), gclab.cli.PARSER.parse_args(["tent", *RUN]))
    expected = [asymptotic_covariance(cfg.channel()), cfg.standard_form().to_matrix()]
    assert len(calls) == 2
    assert all(np.array_equal(m.entries, e.entries) for m, e in zip(calls, expected))


def test_tent_reports_a_channel_error_before_a_state_error(capsys):
    # an indefinite state and a bath 1 angle: the channel is built first
    code, _, err = run_cli(["tent", "--state", "sf", "1", "1", "1.2", "-1.2",
                            "--bath1", "ph", "0.5", "1", "0.3"], capsys)
    assert code == 2
    assert "reference" in err


@pytest.mark.parametrize("argv", [
    ["tent", *RUN, "--gamma", "1e-320"],
    ["sweep", *RUN, "--axis1", "N2:0.5:1:2", "--tent", "--gamma", "1e-320"],
])
def test_overflowing_entanglement_time_is_an_error(argv, capsys):
    # the crossing k is found, but -ln(k) / gamma is inf: not "never"
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert "overflows" in err


def test_tent_separable_start_exit_code(capsys):
    code, _, err = run_cli(["tent", "--state", "sf", "2", "2", "1.5", "-1.5",
                            "--bath1", "thermal", "0.5", "--bath2", "thermal", "0.5"],
                           capsys)
    assert code == 4
    assert "separable" in err


# ---------------------------------------------------------------------------
# errors and config
# ---------------------------------------------------------------------------

def test_unknown_state_kind_is_config_error(capsys):
    code, _, err = run_cli(["metrics", "--state", "blob", "1", "2"], capsys)
    assert code == 2
    assert "config error" in err


def test_missing_state_is_config_error(capsys):
    code, _, err = run_cli(["metrics", "--bath1", "thermal", "1"], capsys)
    assert code == 2


def test_unphysical_state_exit_code(capsys):
    code, _, err = run_cli(["metrics", "--state", "sf", "1", "1", "1", "-1",
                            "--times", "0"], capsys)
    assert code == 3
    assert "unphysical" in err


@pytest.mark.parametrize("sf", [
    ["2.67755", "0.815255", "1.57278", "-1.95488"],   # indefinite, Det > 0
    ["1", "1", "1.2", "-1.2"],                        # indefinite, Det > 0
    ["1", "1", "1.2", "0.5"],                         # Det < 0
])
def test_not_positive_definite_state_is_unphysical(sf, capsys):
    code, out, err = run_cli(["metrics", "--state", "sf", *sf, "--times", "0"],
                             capsys)
    assert code == 3
    assert "unphysical input" in err
    assert [line for line in out.splitlines() if line != CSV_HEADER] == []


def test_unphysical_bath_exit_code(capsys):
    code, _, err = run_cli(["metrics", *RUN[:4], "--bath1", "nm", "0.5", "1.0"],
                           capsys)
    assert code == 2 or code == 3


@pytest.mark.parametrize("argv", [
    ["metrics", *RUN[:4], "--bath1", "thermal", "-0.5", "--times", "0"],
    ["metrics", *RUN[:4], "--bath1", "ph", "0.5", "800", "--times", "0"],
    ["metrics", *RUN[:4], "--bath1", "ph", "0.5", "355", "--times", "0"],
    ["metrics", *RUN[:4], "--bath1", "nm", "1e308", "1e308", "--times", "0"],
    ["metrics", *RUN[:4], "--bath1", "nm", "1e200", "0", "--times", "0"],
    ["sweep", *RUN[:4], "--axis1", "r1:0:800:3", "--axis2", "N1:0:1:2"],
    ["sweep", *RUN[:4], "--axis1", "N1:-0.5:0:2"],
])
def test_out_of_range_bath_is_one_error_line(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv, capsys)
    assert code in (2, 3)
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("gclab: ")


ZERO_DET_BATHS = ["--bath1", "ph", "0.5", "10.25", "--bath2", "ph", "0.5", "10.25", "0.3"]


@pytest.mark.parametrize("argv", [
    ["metrics", "--state", "st", "1", "10", "--times", "0"],
    ["metrics", *RUN[:4], *ZERO_DET_BATHS, "--times", "0"],
    ["tent", "--state", "st", "1", "10"],
    ["tent", *RUN[:4], *ZERO_DET_BATHS],
    ["sweep", "--state", "st", "1", "10", "--axis1", "N1:0:1:2", "--tent"],
    ["sweep", *RUN[:4], *ZERO_DET_BATHS, "--axis1", "r_state:1:1.1:2", "--tent"],
])
def test_zero_determinant_is_unphysical(argv, capsys):
    # sigma is physical, and the margin passes: rounding left Det sigma = 0
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert "unphysical input" in err
    assert err.rstrip().endswith(", outside the numerical range")
    assert out == ""


@pytest.mark.parametrize("state, shown", [
    (["sf", "1", "1", "1.2", "-1.2"], "(min eig(sigma + i Omega/2) = -0.3, Det sigma = 0.1936)"),
    (["st", "1", "10"], ", Det sigma = 0)"),
], ids=["sf-1-1-1.2--1.2", "st-1-10"])
def test_unphysical_state_error_states_margin_and_det_sigma(state, shown, capsys):
    code, out, err = run_cli(["metrics", "--state", *state, "--times", "0"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("gclab: unphysical input: ") and shown in err


@pytest.mark.parametrize("bath, shown", [
    (["ph", "0.5", "300"], "bath mu = 0.5, r = 300 is outside the numerical range"),
    (["ph", "1e-310", "0"], "bath mu = 1e-310, r = 0 is outside the numerical range"),
    (["thermal", "1e200"], "(min eig(sigma + i Omega/2) = nan, Det sigma = inf)"),
], ids=["ph-0.5-300", "ph-1e-310-0", "thermal-1e200"])
def test_overflowing_bath_is_one_unphysical_line(bath, shown, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["metrics", *RUN[:4], "--bath1", *bath, "--times", "0"],
                                 capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("gclab: unphysical input: ") and shown in err


@pytest.mark.parametrize("bath", [["thermal", "1e200"], ["ph", "1e-300", "0"],
                                  ["thermal", "1e154"]],
                         ids=["thermal-1e200", "ph-1e-300-0", "thermal-1e154"])
@pytest.mark.parametrize("command", [["tent"], ["sweep", "--tent", "--axis1", "N2:0.5:1:2"]],
                         ids=["tent", "sweep-tent"])
def test_out_of_range_bath_on_the_tent_path_is_one_unphysical_line(command, bath, capsys):
    # the quartic's coefficients overflow a float: a range error, not a traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli([*command, *RUN[:4], "--bath1", *bath], capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("gclab: unphysical input: ") and "numerical range" in err


@pytest.mark.parametrize("axis", ["N1:1e200:1e201:2", "mu1:1e-310:1e-300:2"])
def test_out_of_range_sweep_axis_is_one_line_without_a_warning(axis, capsys):
    # the suite turns RuntimeWarning into an error: axis values are Python
    # floats, so the bath arithmetic overflows without a numpy warning
    code, out, err = run_cli(["sweep", *RUN[:4], "--axis1", axis], capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("gclab: unphysical input: ")


def test_bath1_angle_must_be_zero(capsys):
    code, _, err = run_cli(["metrics", "--state", "st", "1", "1",
                            "--bath1", "ph", "0.5", "1", "0.3",
                            "--bath2", "thermal", "0.5", "--times", "0"], capsys)
    assert code == 2
    assert "reference" in err


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# benchmark configuration\n"
        "state = st 1 1\n"
        "bath1 = thermal 0.5\n"
        "bath2 = thermal 0.5\n"
        "times = 0\n")
    code, out, _ = run_cli(["metrics", "--config", str(cfg)], capsys)
    assert code == 0
    assert float(out.strip().split("\n")[1].split(",")[4]) == pytest.approx(2.0, rel=1e-9)

    # flags override the file: swap in the mixed point state
    code, out, _ = run_cli(["metrics", "--config", str(cfg),
                            "--state", "sf", "2", "1", "1", "-1"], capsys)
    assert float(out.strip().split("\n")[1].split(",")[4]) == pytest.approx(
        0.269280, abs=1e-5)


def test_config_file_error_reports_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("state = st 1 1\nnonsense line\n")
    code, _, err = run_cli(["metrics", "--config", str(cfg)], capsys)
    assert code == 2
    assert "bad.cfg:2" in err


def test_missing_config_file(capsys):
    code, _, err = run_cli(["metrics", "--config", "/nonexistent.cfg"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["metrics", "--state", "st", "1", "1", "--times", "nan"],
    ["metrics", "--state", "sf", "nan", "1", "0", "0", "--times", "0"],
    ["metrics", "--state", "st", "1", "1", "--bath1", "thermal", "inf", "--times", "0"],
    ["metrics", "--state", "st", "1", "1", "--gamma", "nan"],
    ["metrics", "--state", "st", "1", "1", "--tmax", "inf"],
    ["sweep", *RUN, "--axis1", "N1:0:1:2", "--at-time", "nan"],
])
def test_non_finite_number_is_config_error(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 2
    assert out == ""


def test_non_finite_number_in_config_file_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("state = st 1 1\ngamma = nan\n")
    code, _, err = run_cli(["metrics", "--config", str(cfg)], capsys)
    assert code == 2
    assert "run.cfg:2" in err


@pytest.mark.parametrize("command", ["metrics", "tent"])
def test_overflowing_state_is_unphysical(command, capsys):
    code, out, err = run_cli([command, "--state", "sf", "1e200", "1e200", "0", "0",
                              "--times", "0"], capsys)
    assert code == 3
    assert "unphysical input" in err
    assert out == ""


def test_overflowing_spectrum_radicand_is_one_unphysical_line(capsys):
    # sigma(0) and sigma_inf are bona fide, but Delta^2 of sigma(1) overflows;
    # the suite's filter turns a numpy RuntimeWarning into an error
    code, out, err = run_cli(["metrics", *RUN[:4], "--bath1", "thermal", "1e100",
                              "--times", "0,1"], capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("gclab: unphysical input: ") and "numerical range" in err


@pytest.mark.parametrize("command", [["tent"], ["sweep", "--tent", "--axis1", "r_state:1:1.5:2"],
                                     ["metrics", "--times", "0"]],
                         ids=["tent", "sweep-tent", "metrics"])
def test_unphysical_bath_is_rejected_on_every_path(command, capsys):
    # the bath 2 state misses the uncertainty bound by 3.7e-9 (> EPS_PHYS)
    code, out, err = run_cli([*command, *RUN[:4], "--bath1", "thermal", "0.5",
                              "--bath2", "ph", "0.5", "9.75", "0.3"], capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("gclab: unphysical input: ") and "= -3.72529e-09," in err


def test_tent_reports_a_bath_error_before_a_state_error(capsys):
    code, _, err = run_cli(["tent", "--state", "sf", "1", "1", "1.2", "-1.2",
                            "--bath2", "ph", "0.5", "9.75", "0.3"], capsys)
    assert code == 3
    assert "= -3.72529e-09," in err


@pytest.mark.parametrize("tail", [[], ["--gamma", "2"], ["-o", "-"]])
@pytest.mark.parametrize("token, plain", [("-5.36e-05", "-0.0000536"),
                                          ("-5E-1", "-0.5"), ("-.5e-1", "-0.05")])
def test_negative_number_in_exponent_form_is_a_number(token, plain, tail, capsys):
    # argparse's own negative-number pattern (Python 3.11) has no exponent
    # form; the subparsers carry one that has
    base = ["metrics", *RUN[:4], "--bath1", "nm", "0.5", "0.3", "--times", "0,1",
            "--bath2", "nm", "0.5", "0.3"]
    code, out, err = run_cli([*base, token, *tail], capsys)
    assert (code, err) == (0, "")
    assert (code, out) == run_cli([*base, plain, *tail], capsys)[:2]


def test_nm_bath2_keeps_the_sign_of_M(capsys):
    base = ["metrics", "--state", "st", "1", "1", "--bath1", "nm", "0.5", "0.3",
            "--times", "0,1,2", "--bath2", "nm", "0.5"]
    _, plus, _ = run_cli([*base, "0.3"], capsys)
    code, minus, _ = run_cli([*base, "-0.3"], capsys)
    assert code == 0
    assert minus != plus
    # Re M < 0 is the angle phi = -pi/2 of the phenomenological triple
    _, ph, _ = run_cli(["metrics", "--state", "st", "1", "1",
                        "--bath1", "nm", "0.5", "0.3", "--times", "0,1,2",
                        "--bath2", "ph", *[fmt(x) for x in
                                           BathSpec(0.5, -0.3).phenomenological()]],
                       capsys)
    assert minus == ph


def test_nm_bath1_with_negative_re_m_is_config_error(capsys):
    code, _, err = run_cli(["metrics", "--state", "st", "1", "1",
                            "--bath1", "nm", "0.5", "-0.3", "--times", "0"], capsys)
    assert code == 2
    assert "reference" in err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_phi2_monotone_nt_minus(capsys):
    code, out, _ = run_cli(["sweep", "--state", "st", "1", "1",
                            "--bath1", "ph", "0.5", "1",
                            "--bath2", "ph", "0.5", "1",
                            "--axis1", "phi2:0:0.785398:9", "--at-time", "1"],
                           capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split(",")[0] == "phi2"
    nt = [float(line.split(",")[6]) for line in lines[1:]]
    assert all(y >= x - 1e-10 for x, y in zip(nt, nt[1:]))


def test_sweep_tent_monotone_in_bath_photons(capsys):
    code, out, _ = run_cli(["sweep", "--state", "st", "1", "1",
                            "--bath1", "thermal", "0.25", "--bath2", "thermal", "0.25",
                            "--axis1", "N1:0.25:2:8", "--axis2", "N2:0.25:2:8",
                            "--tent"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N1,N2,t_ent,method,residual"
    assert len(lines) == 65
    # along the diagonal, more thermal photons destroy entanglement sooner
    diag = [float(line.split(",")[2]) for line in lines[1:]
            if line.split(",")[0] == line.split(",")[1]]
    assert all(y <= x + 1e-9 for x, y in zip(diag, diag[1:]))


def test_sweep_time_axis(capsys):
    code, out, _ = run_cli(["sweep", *RUN, "--axis1", "t:0:2:5"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6
    # E_N decreases along the channel for thermal baths
    en = [float(line.split(",")[5]) for line in lines[1:]]
    assert all(y <= x + 1e-12 for x, y in zip(en, en[1:]))


@pytest.mark.parametrize("extra", [["--tent"], []])
def test_sweep_prints_nothing_when_a_point_fails(extra, capsys):
    # N2 = 1 turns the ph 0.5 1 bath unphysical (mu = 1.254) after two
    # good points
    code, out, err = run_cli(["sweep", "--state", "st", "1", "1",
                              "--bath1", "thermal", "0.5", "--bath2", "ph", "0.5", "1",
                              "--axis1", "N2:2:0:5", *extra], capsys)
    assert code == 3
    assert "unphysical input" in err
    assert out == ""


# base point of the sweep equivalence tests: st (mu, r), ph baths (mu, r, phi)
SWEEP_STATE = (0.8, 0.7)
SWEEP_BATHS = ((0.5, 0.3, 0.0), (0.6, 0.3, 0.2))
SWEEP_RANGES = {"N1": "0.2:1:3", "N2": "0.2:1:3", "r1": "0:0.5:3", "r2": "0:0.5:3",
                "phi2": "-1:1:3", "mu1": "0.3:0.9:3", "mu2": "0.3:0.9:3",
                "r_state": "0.5:1:3", "mu_state": "0.6:1:3", "t": "0:2:3"}


def _flags(state, baths):
    return ["--state", "st", *map(repr, state),
            "--bath1", "ph", *map(repr, baths[0]), "--bath2", "ph", *map(repr, baths[1])]


def _axis_values(spec):
    start, stop, count = spec.split(":")
    return [float(v) for v in np.linspace(float(start), float(stop), int(count))]


def _single_command(point):
    """Flags and time of one sweep point, given as [(axis, value), ...] in
    the order the axes apply."""
    state, baths, t = list(SWEEP_STATE), [list(b) for b in SWEEP_BATHS], 0.7
    for name, v in point:
        if name == "t":
            t = v
        elif name == "mu_state":
            state[0] = v
        elif name == "r_state":
            state[1] = v
        else:
            bath = baths[int(name[-1]) - 1]
            if name[0] == "N":      # mu = cosh 2r / (2N+1) at the bath's current r
                bath[0] = math.cosh(2.0 * bath[1]) / (2.0 * v + 1.0)
            else:
                bath[{"mu": 0, "r": 1, "phi": 2}[name[:-1]]] = v
    return _flags(state, baths), t


def _check_sweep_rows(axes, capsys, tent):
    """Every row of the sweep equals the single command at its point."""
    argv = ["sweep", *_flags(SWEEP_STATE, SWEEP_BATHS), "--at-time", "0.7"]
    for flag, (name, spec) in zip(("--axis1", "--axis2"), axes):
        argv += [flag, f"{name}:{spec}"]
    code, out, _ = run_cli(argv + ["--tent"] * tent, capsys)
    assert code == 0
    rows = out.splitlines()[1:]
    grids = [[(name, v) for v in _axis_values(spec)] for name, spec in axes]
    points = [[p] for p in grids[0]]
    if len(grids) == 2:
        points = [[p, q] for p in grids[0] for q in grids[1]]
    assert len(rows) == len(points)
    for row, point in zip(rows, points):
        flags, t = _single_command(point)
        prefix = ",".join(fmt(v) for _, v in point)
        if tent:
            code, single, _ = run_cli(["tent", *flags], capsys)
            fields = dict(item.split("=") for item in single.split())
            expected = f"{prefix},{fields['t_ent']},{fields['method']},{fields['residual']}"
        else:
            code, single, _ = run_cli(["metrics", *flags, "--times", repr(t)], capsys)
            expected = prefix + "," + single.splitlines()[1]
        assert code == 0
        assert row == expected


@pytest.mark.parametrize("name", SWEEP_AXES)
def test_sweep_rows_equal_single_commands(name, capsys):
    _check_sweep_rows([(name, SWEEP_RANGES[name])], capsys, tent=False)
    if name != "t":
        _check_sweep_rows([(name, SWEEP_RANGES[name])], capsys, tent=True)


def test_sweep_axes_apply_in_order(capsys):
    # N1 resets mu1 from the r1 that the first axis has just set
    _check_sweep_rows([("r1", "0:0.5:3"), ("N1", "0.4:1:2")], capsys, tent=False)
    _check_sweep_rows([("r1", "0:0.5:3"), ("N1", "0.4:1:2")], capsys, tent=True)


def test_apply_axis_leaves_its_input_unchanged():
    def base():
        return RunConfig(state_kind="squeezed_thermal", state_params=SWEEP_STATE,
                         bath1=SWEEP_BATHS[0], bath2=SWEEP_BATHS[1])

    cfg = base()
    for name in SWEEP_AXES:
        moved = apply_axis(cfg, name, 0.25)
        assert cfg == base()
        assert moved != cfg


def test_sweep_rejects_bad_axis(capsys):
    code, _, err = run_cli(["sweep", *RUN, "--axis1", "bogus:0:1:5"], capsys)
    assert code == 2
    code, _, err = run_cli(["sweep", *RUN, "--axis1", "t:0:1:5", "--tent"], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

def test_figure_one_writes_four_curves(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["figure", "1"], capsys)
    assert code == 0
    files = sorted(tmp_path.glob("figure1_curve*.csv"))
    assert len(files) == 4
    header = files[0].read_text().split("\n")[0]
    assert header == CSV_HEADER


def test_figure_three_skips_unphysical_curve(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["figure", "3"], capsys)
    assert code == 0
    assert "warning" in err and "skipped" in err
    assert len(sorted(tmp_path.glob("figure3_curve*.csv"))) == 3


def test_figure_six_skips_invalid_state(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["figure", "6"], capsys)
    assert code == 0
    assert "warning" in err
    assert len(sorted(tmp_path.glob("figure6_curve*.csv"))) == 3


def test_figure_invalid_number(capsys):
    code, _, err = run_cli(["figure", "9"], capsys)
    assert code == 2


def test_main_does_not_rebuild_the_parser(monkeypatch, capsys):
    def fail():
        raise AssertionError("parser rebuilt")

    monkeypatch.setattr(gclab.cli, "build_parser", fail)
    code, out, _ = run_cli(["tent", *RUN], capsys)
    assert code == 0
    assert out.startswith("t_ent=")


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gclab.cli", "tent", *RUN],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("t_ent=")


def test_fmt_twelve_significant_digits():
    assert fmt(1 / 3) == "0.333333333333"
    assert fmt(2.0) == "2"


def test_metrics_line_matches_fmt_join():
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
               2.2250738585072014e-308, 1 / 3, 2.0, 1e22, -123456789012.5]
    rows = [[special[(s + j) % len(special)] for j in range(8)]
            for s in range(len(special))]
    bits = np.random.default_rng(7).bytes(8 * 8 * 2000)
    rows += np.frombuffer(bits, dtype=np.float64).reshape(-1, 8).tolist()
    rows.append([np.float64(0.1), *rows[0][1:]])       # grid times are numpy floats
    for i, values in enumerate(rows):
        line = metrics_line(MetricsRow(*values, separable=bool(i % 2)))
        assert line == ",".join([fmt(x) for x in values] + [str(i % 2)])


# ---------------------------------------------------------------------------
# output of the batched time series against the row-by-row reference
# ---------------------------------------------------------------------------

SCALAR_REFERENCE_COMMANDS = [
    ["metrics", *RUN],
    ["metrics", "--state", "sf", "2", "1.5", "1.2", "-0.9", "--bath1", "ph", "0.6", "0.3",
     "--bath2", "nm", "0.8", "0.4", "0.2", "--gamma", "0.7", "--tmax", "6",
     "--points", "257"],
    # fails at a row with a radicand of -3.197e-12: exit 3, same stderr
    ["metrics", "--state", "st", "1", "2.5", "--bath1", "thermal", "0.5",
     "--bath2", "thermal", "0.5"],
    ["sweep", *RUN, "--axis1", "N2:0:2:6", "--axis2", "t:0:3:7"],
    ["sweep", "--state", "st", "0.8", "1", "--bath1", "ph", "0.5", "1",
     "--bath2", "ph", "0.5", "1", "--axis1", "phi2:0:0.785398:5",
     "--axis2", "r_state:0.2:1.5:4"],
]


@pytest.mark.parametrize("argv", SCALAR_REFERENCE_COMMANDS)
def test_output_matches_scalar_reference(argv, capsys, monkeypatch):
    batched = run_cli(argv, capsys)
    monkeypatch.setattr(gclab.cli, "time_series", scalar_time_series)
    assert run_cli(argv, capsys) == batched


def test_figures_match_scalar_reference(tmp_path, capsys, monkeypatch):
    outputs = {}
    for side in ("batched", "scalar"):
        if side == "scalar":
            monkeypatch.setattr(gclab.cli, "time_series", scalar_time_series)
        base = tmp_path / side
        base.mkdir()
        for number in range(1, 9):
            code, out, err = run_cli(
                ["figure", str(number), "-o", str(base / f"fig{number}")], capsys)
            files = {p.name: p.read_bytes() for p in sorted(base.glob(f"fig{number}_*"))}
            outputs.setdefault(side, []).append(
                (code, out.replace(str(base), ""), err, files))
    assert outputs["batched"] == outputs["scalar"]
    assert sum(len(files) for *_, files in outputs["batched"]) >= 20
