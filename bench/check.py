"""Check one command's exit code, stderr and stdout against the oracle.

This module owns gclab's output format: the CSV header and record layout,
the `t_ent=` line and the separable-flag and "never" conventions.  oracle.py
only computes the values they are compared with.

A command fails on an uncaught exception, a wrong exit code, malformed
output, data rows printed before an "unphysical input" exit, an exit 3
without "unphysical input" on stderr, or a printed value off the oracle by
more than GROSS_TOL.  Every printed value of a command that exits 0 is
compared with the oracle and counted in a Tally.

A printed value is "wrong" when it is off the oracle by more than EPS_PHYS,
relative or absolute (the precision contract the ROADMAP aims at), and
"grossly wrong" beyond GROSS_TOL, the tolerance gclab itself uses to accept
a quartic root.  A value that is not finite where the oracle's is (nan,
inf) is off by an infinite error.
"""

from __future__ import annotations

import math
import re

import numpy as np

import oracle
from workloads import Command, sweep_point

EPS_PHYS = 1e-9
GROSS_TOL = 1e-6

METRIC_COLUMNS = ("t", "purity", "von_neumann_entropy", "mutual_information",
                  "log_negativity", "ntilde_minus", "n_minus", "n_plus",
                  "separable")
TENT_LINE = re.compile(
    r"t_ent=(\S+) method=(quartic|bisection|closed_form) residual=(\S+)( tangent=1)?")
TENT_HEADER = ["t_ent", "method", "residual"]


def rel_err(printed: float, expected: float) -> float:
    return abs(printed - expected) / max(1.0, abs(expected))


class Tally:
    """Values checked, values wrong, worst error per column, gross errors,
    and how many checked entanglement-time queries truly never separate."""

    def __init__(self):
        self.checked = 0
        self.wrong = 0
        self.gross = 0
        self.max_err: dict[str, float] = {}
        self.queries = 0
        self.never = 0

    def add(self, column: str, err: float) -> None:
        if not math.isfinite(err):
            err = math.inf
        self.checked += 1
        if err > EPS_PHYS:
            self.wrong += 1
        if err > GROSS_TOL:
            self.gross += 1
        if err > self.max_err.get(column, -1.0):
            self.max_err[column] = err


def check_metric_fields(fields: list[str], expected: np.ndarray, tally: Tally) -> None:
    """One CSV row against its oracle row; raises ValueError if malformed."""
    if len(fields) != len(METRIC_COLUMNS):
        raise ValueError(f"expected {len(METRIC_COLUMNS)} fields, got {len(fields)}")
    for name, text, want in zip(METRIC_COLUMNS[:-1], fields, expected):
        tally.add(name, rel_err(float(text), want))
    if fields[-1] not in ("0", "1"):
        raise ValueError(f"separable flag {fields[-1]!r}")
    nt = expected[5]
    ok = int(fields[-1]) == int(expected[-1]) or abs(nt - 0.5) <= EPS_PHYS
    tally.add("separable", 0.0 if ok else 1.0)


def check_tent_fields(t_text: str, residual_text: str, tau: float | None, s0, sinf,
                      gamma: float, tally: Tally) -> None:
    """A printed entanglement time against the oracle's first crossing `tau`
    (Gamma t, or None), which the generator stored in oracle_input["taus"].

    Answering "never" when the oracle finds a crossing, or a time when it
    finds none, counts as an error of 1.
    """
    tally.queries += 1
    tally.never += tau is None
    if t_text == "never":
        if residual_text != "nan":
            raise ValueError(f"never with residual {residual_text!r}")
        tally.add("t_ent", 0.0 if tau is None else 1.0)
        return
    t_ent = float(t_text)
    residual = float(residual_text)
    if not (0.0 <= t_ent < math.inf and residual >= 0.0):
        raise ValueError(f"t_ent={t_text} residual={residual_text}")
    tally.add("t_ent", 1.0 if tau is None else rel_err(t_ent, tau / gamma))
    gap = abs(float(oracle.nt_minus_at(s0, sinf, [math.exp(-gamma * t_ent)])[0]) - 0.5)
    tally.add("residual", abs(residual - gap))


def _sigmas(inp: dict):
    return (oracle.state_matrix(inp["state"]),
            oracle.sigma_inf(inp["bath1"], inp["bath2"]))


def _check_metrics(inp: dict, data: list[str], tally: Tally) -> None:
    s0, sinf = _sigmas(inp)
    times = inp["times"]
    expected = oracle.metric_rows(
        oracle.evolved(s0, sinf, np.exp(-inp["gamma"] * times)), times)
    for line, want in zip(data, expected):
        check_metric_fields(line.split(","), want, tally)


def _check_tent(inp: dict, line: str, tally: Tally) -> None:
    m = TENT_LINE.fullmatch(line)
    if m is None:
        raise ValueError(f"bad tent line {line!r}")
    s0, sinf = _sigmas(inp)
    check_tent_fields(m.group(1), m.group(3), inp["taus"][0], s0, sinf, inp["gamma"], tally)


def _check_sweep(inp: dict, header: str, data: list[str], tally: Tally) -> None:
    names = [name for name, _ in inp["axes"]]
    columns = TENT_HEADER if inp["tent"] else list(METRIC_COLUMNS)
    if header.split(",") != names + columns:
        raise ValueError(f"bad sweep header {header!r}")
    (_, grid1), (_, grid2) = inp["axes"]
    points = [(v1, v2) for v1 in grid1 for v2 in grid2]
    sigmas = []
    for values, line in zip(points, data):
        fields = line.split(",")
        for name, value, text in zip(names, values, fields):
            tally.add(name, 0.0 if text == f"{value:.12g}" else 1.0)
        state, bath1, bath2 = sweep_point(inp["base"], names, values)
        sigmas.append((oracle.state_matrix(state), oracle.sigma_inf(bath1, bath2),
                       fields[2:]))
    if inp["tent"]:
        for (s0, sinf, fields), tau in zip(sigmas, inp["taus"]):
            if len(fields) != 3:
                raise ValueError(f"expected 3 tent fields, got {len(fields)}")
            check_tent_fields(fields[0], fields[2], tau, s0, sinf, inp["gamma"], tally)
        return
    k = np.exp(-inp["gamma"] * inp["at_time"])
    stack = np.stack([sinf * (1.0 - k) + s0 * k for s0, sinf, _ in sigmas])
    expected = oracle.metric_rows(stack, np.full(len(sigmas), inp["at_time"]))
    for (_, _, fields), want in zip(sigmas, expected):
        check_metric_fields(fields, want, tally)


def check_command(cmd: Command, rc: int, out: str, err: str,
                  tally: Tally) -> tuple[str | None, int]:
    """(failure reason or None, records printed)."""
    inp = cmd.oracle_input
    lines = out.splitlines()
    has_header = inp["kind"] != "tent"
    data = lines[1:] if has_header else lines
    records = len(data)
    if cmd.expect == "unphysical":
        if rc != 3:
            return f"exit {rc} on unphysical input, expected 3", records
        if "unphysical input" not in err:
            return "exit 3 without 'unphysical input': " + err.strip()[:120], records
        if data:
            return f"data rows printed before exit 3: {records}", records
        return None, records
    if cmd.expect == "separable":
        if rc != 4 or data:
            return f"exit {rc}, expected exit 4: {records} rows", records
        return None, records
    if rc != 0:
        return f"exit {rc}: " + err.strip()[:160], records
    if records != cmd.rows:
        return f"wrong record count: {records}, expected {cmd.rows}", records
    gross = tally.gross
    try:
        if inp["kind"] == "metrics":
            if lines[0].split(",") != list(METRIC_COLUMNS):
                raise ValueError(f"bad header {lines[0]!r}")
            _check_metrics(inp, data, tally)
        elif inp["kind"] == "tent":
            _check_tent(inp, data[0], tally)
        else:
            _check_sweep(inp, lines[0], data, tally)
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:
        return f"malformed output: {exc}", records
    if tally.gross > gross:
        return f"value off oracle > {GROSS_TOL:g}", records
    return None, records
