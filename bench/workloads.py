"""Seeded command generators for the three benchmark workloads.

Each workload is a list of blocks.  A block holds a fixed mix of command
slots (grid sizes, input classes) in seeded order, so any run that stops at
a block boundary sees the same mix whatever the seed; the seed only moves
parameters within their slot.  Block 0 is preceded by a fixed-size probe
command, used as the warm-up and as the "first command" of set-up time.

series  `gclab metrics` over long grids: per-row work dominates.
tent    single `gclab tent` queries: the entanglement-time scan dominates.
sweep   2-D `gclab sweep` grids: per-configuration work dominates.

No timed command hits a gclab defect known when this benchmark was added.
Inputs that do are kept apart (DEFECTS) and run once per run, untimed.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

import oracle

VACUUM = ("thermal", 0.0)


@dataclass
class Command:
    argv: list[str]
    expect: str                       # "ok", "unphysical" or "separable"
    rows: int                         # records printed when expect == "ok"
    oracle_input: dict                # what the oracle needs to check the output
    props: dict = field(default_factory=dict)


def _num(x: float) -> float:
    """Round to the 6 significant digits the argv carries."""
    return float(f"{x:.6g}")


def _tok(x: float) -> str:
    """6 significant digits without exponent notation: argparse reads a
    token such as -5.4e-05 as an option, not as a negative number."""
    return np.format_float_positional(x, precision=6, unique=False,
                                      fractional=False, trim="-")


def state_tokens(state) -> list[str]:
    return [state[0], *(_tok(x) for x in state[1:])]


def bath_tokens(bath) -> list[str]:
    kind, *vals = bath
    if kind == "ph" and vals[2] == 0.0:
        vals = vals[:2]
    return [kind, *(_tok(x) for x in vals)]


def base_argv(cmd: str, state, bath1, bath2, gamma: float) -> list[str]:
    return [cmd, "--state", *state_tokens(state), "--bath1", *bath_tokens(bath1),
            "--bath2", *bath_tokens(bath2), "--gamma", _tok(gamma)]


# ---------------------------------------------------------------------------
# random states and baths
# ---------------------------------------------------------------------------

def squeezed_thermal(rng: random.Random, entangled: bool | None = None):
    while True:
        mu = 1.0 if rng.random() < 0.2 else _num(rng.uniform(0.3, 1.0))
        r = _num(rng.uniform(0.05, 1.2))
        margin = math.sqrt(mu) - math.exp(-2.0 * r)
        if entangled is None or (margin > 0.05 if entangled else margin < -0.05):
            return ("st", mu, r)


def _spectrum0(state):
    n_minus, _, nt_minus = oracle.spectrum(oracle.state_matrix(state)[None])
    return float(n_minus[0]), float(nt_minus[0])


def standard_form(rng: random.Random, entangled: bool | None = None,
                  physical: bool = True):
    """Random (a, b, c1, c2), bona fide (or not), entangled or separable."""
    while True:
        a = _num(rng.uniform(0.5, 3.0))
        b = _num(rng.uniform(0.5, 3.0))
        scale = math.sqrt(a * b) * (1.5 if not physical else 1.0)
        c1 = _num(rng.uniform(0.0, scale))
        # entanglement needs c1 c2 < 0: draw c2 <= 0 when it is wanted
        c2 = _num(rng.uniform(-scale, 0.0 if entangled else scale))
        state = ("sf", a, b, c1, c2)
        sigma = oracle.state_matrix(state)
        margin = oracle.uncertainty_margin(sigma)
        if not physical:
            if margin < -0.01:
                return state
            continue
        if margin < 1e-6:
            continue
        n_minus, nt_minus = _spectrum0(state)
        if n_minus < 0.5 + 1e-3:
            continue
        if entangled is None or (nt_minus < 0.45 if entangled else nt_minus > 0.55):
            return state


def too_pure_state(rng: random.Random):
    """Random positive definite (a, b, c1, c2) that violates the uncertainty
    principle: gclab must reject it as unphysical input."""
    while True:
        a = _num(rng.uniform(0.5, 3.0))
        b = _num(rng.uniform(0.5, 3.0))
        scale = 0.95 * math.sqrt(a * b)
        state = ("sf", a, b, _num(rng.uniform(0.0, scale)),
                 _num(rng.uniform(-scale, scale)))
        sigma = oracle.state_matrix(state)
        if np.linalg.eigvalsh(sigma).min() > 0.02 and oracle.uncertainty_margin(sigma) < -0.01:
            return state


def bath(rng: random.Random, second: bool, kind: str | None = None,
         noisy: bool = False):
    """thermal N | ph mu r [phi] | nm N ReM [ImM]; bath 1 carries no angle.

    nm baths keep Re M >= 0, the domain (2 phi in (-pi/2, pi/2]) on which
    gclab's (N, M) <-> (mu, r, phi) dictionary is documented.  `noisy` keeps
    the bath mixed enough (N > 0) that entanglement dies in finite time.
    """
    kind = kind or rng.choice(("thermal", "ph", "nm"))
    lo_n = 0.05 if noisy else 0.0
    if kind == "thermal":
        return ("thermal", _num(rng.uniform(lo_n, 2.0)))
    if kind == "ph":
        mu = _num(rng.uniform(0.2, 0.9 if noisy else 1.0))
        r = _num(rng.uniform(0.0, 1.0))
        phi = _num(rng.uniform(0.0, math.pi / 2)) if second else 0.0
        return ("ph", mu, r, phi)
    N = _num(rng.uniform(lo_n, 2.0))
    size = rng.uniform(0.0, 0.9) * math.sqrt(N * (N + 1.0))
    theta = rng.uniform(-math.pi / 2 + 0.05, math.pi / 2 - 0.05) if second else 0.0
    return ("nm", N, _num(size * math.cos(theta)), _num(size * math.sin(theta)))


# ---------------------------------------------------------------------------
# entanglement-time queries
# ---------------------------------------------------------------------------

# gclab scans Gamma t in steps of 60/3000 and closes its bisection bracket at
# the first scan point with nt_minus - 1/2 >= 1e-7.  When the scan point just
# past a crossing reads below that, the bracket misses the crossing and the
# bisection disagrees with the quartic root (MethodDisagreementError, about
# 1 query in 50000).  Queries that come within SCAN_MARGIN of this are redrawn.
SCAN_HORIZON, SCAN_POINTS = 60.0, 3000
SCAN_MARGIN = 1e-6


def tent_points(inp: dict) -> list[tuple[np.ndarray, np.ndarray]]:
    """(sigma(0), sigma_inf) of each entanglement-time query of a command,
    in output order."""
    if inp["kind"] == "tent":
        return [(oracle.state_matrix(inp["state"]),
                 oracle.sigma_inf(inp["bath1"], inp["bath2"]))]
    names = [name for name, _ in inp["axes"]]
    (_, grid1), (_, grid2) = inp["axes"]
    points = []
    for values in itertools.product(grid1, grid2):
        state, bath1, bath2 = sweep_point(inp["base"], names, values)
        points.append((oracle.state_matrix(state), oracle.sigma_inf(bath1, bath2)))
    return points


def grazes(cmd: Command) -> bool:
    """Store the oracle's first crossing (Gamma t, or None) of each query in
    oracle_input["taus"]; True if one lies within SCAN_MARGIN of gclab's
    noise gate at the scan point after it."""
    cmd.oracle_input["taus"] = taus = []
    close = False
    for s0, sinf in tent_points(cmd.oracle_input):
        tau = oracle.crossing_tau(s0, sinf)
        taus.append(tau)
        if tau is not None:
            # gclab's first scan point at or after tau
            i = math.ceil(tau * SCAN_POINTS / SCAN_HORIZON)
            if SCAN_HORIZON * i / SCAN_POINTS < tau:
                i += 1
            k = math.exp(-SCAN_HORIZON * i / SCAN_POINTS)
            close |= bool(oracle.nt_minus_at(s0, sinf, [k])[0] - 0.5 < SCAN_MARGIN)
    return close


def _drawn(draw) -> Command:
    """draw() until no entanglement-time query of an "ok" command grazes a
    scan point (see grazes)."""
    while True:
        cmd = draw()
        is_tent = cmd.oracle_input["kind"] == "tent" or cmd.oracle_input.get("tent")
        if not (cmd.expect == "ok" and is_tent and grazes(cmd)):
            return cmd


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

# grid sizes of one block, each jittered by SERIES_JITTER.  In a run of whole
# blocks the p50 and p90 command are the medians of the runs of 4 equal sizes
# (440 points, and 1500 points as the slowest fifth), so they are medians of
# many like commands whatever the seed
SERIES_BLOCK_POINTS = (200, 220, 240, 260, 280, 300, 330, 360, 440, 440,
                       440, 440, 520, 600, 700, 900, 1500, 1500, 1500, 1500)
SERIES_JITTER = 0.04
SERIES_SYMMETRIC_PER_BLOCK = 6
SERIES_PROBE_POINTS = 301


def _series_command(rng: random.Random, points: int, symmetric: bool) -> Command:
    if symmetric:
        state = squeezed_thermal(rng)
        kind = rng.choice(("thermal", "ph", "nm"))
        bath1 = bath(rng, second=False, kind=kind)
        bath2 = bath1
    else:
        state = squeezed_thermal(rng) if rng.random() < 0.5 else standard_form(rng)
        bath1 = bath(rng, second=False)
        bath2 = bath(rng, second=True)
    gamma = _num(rng.uniform(0.5, 2.0))
    tmax = _num(rng.uniform(1.0, 6.0))
    argv = base_argv("metrics", state, bath1, bath2, gamma) + [
        "--tmax", _tok(tmax), "--points", str(points)]
    times = np.linspace(0.0, tmax, points) if points > 1 else np.zeros(1)
    return Command(argv, "ok", points,
                   {"kind": "metrics", "state": state, "bath1": bath1,
                    "bath2": bath2, "gamma": gamma, "times": times},
                   {"symmetric_equal_bath": symmetric})


def series(seed: int) -> tuple[Command, Iterator[list[Command]]]:
    rng = random.Random(f"series:{seed}")
    probe = _series_command(rng, SERIES_PROBE_POINTS, symmetric=False)

    def blocks():
        while True:
            symmetric = [True] * SERIES_SYMMETRIC_PER_BLOCK + [False] * (
                len(SERIES_BLOCK_POINTS) - SERIES_SYMMETRIC_PER_BLOCK)
            rng.shuffle(symmetric)
            block = [_series_command(
                rng, round(points * rng.uniform(1 - SERIES_JITTER, 1 + SERIES_JITTER)), sym)
                for points, sym in zip(SERIES_BLOCK_POINTS, symmetric)]
            rng.shuffle(block)
            yield block

    return probe, blocks()


# ---------------------------------------------------------------------------
# tent
# ---------------------------------------------------------------------------

# the 4 "late" queries (a fifth of a block) are the slowest, so the p90
# command of a run is the median of a group of like queries
TENT_BLOCK = ("unphysical", "separable") + ("crossing",) * 14 + ("late",) * 4
# known-defect inputs: vacuum baths (never separable) and indefinite
# unphysical standard forms
TENT_DEFECTS = ("never",) * 5 + ("indefinite",) * 5


def _entangled_state(rng: random.Random):
    return squeezed_thermal(rng, True) if rng.random() < 0.5 else standard_form(rng, True)


def _tent_command(rng: random.Random, slot: str) -> Command:
    return _drawn(lambda: _draw_tent(rng, slot))


def _draw_tent(rng: random.Random, slot: str) -> Command:
    gamma = _num(rng.uniform(0.5, 2.0))
    if slot == "never":
        # squeezed thermal states in vacuum baths never separate (closed form);
        # random entangled standard forms there almost all do
        state, bath1, bath2 = squeezed_thermal(rng, True), VACUUM, VACUUM
    elif slot == "late":
        # ("st", mu, r) in equal thermal baths N has nt_minus = k nu +
        # (1 - k)(N + 1/2), nu = exp(-2r) / (2 sqrt(mu)); N is set so the
        # crossing falls at Gamma t in [5, 5.5]
        state = squeezed_thermal(rng, True)
        nu = math.exp(-2.0 * state[2]) / (2.0 * math.sqrt(state[1]))
        bath1 = bath2 = ("thermal", _num((0.5 - nu) / math.expm1(rng.uniform(5.0, 5.5))))
    else:
        bath1 = bath(rng, second=False, noisy=True)
        bath2 = bath(rng, second=True, noisy=True)
        if slot == "unphysical":
            state = too_pure_state(rng)
        elif slot == "indefinite":
            state = standard_form(rng, physical=False)
        elif slot == "separable":
            state = (squeezed_thermal(rng, False) if rng.random() < 0.5
                     else standard_form(rng, False))
        else:
            state = _entangled_state(rng)
    expect = {"unphysical": "unphysical", "indefinite": "unphysical",
              "separable": "separable"}.get(slot, "ok")
    return Command(base_argv("tent", state, bath1, bath2, gamma), expect, 1,
                   {"kind": "tent", "state": state, "bath1": bath1,
                    "bath2": bath2, "gamma": gamma},
                   {"tent_query": True})


def tent(seed: int) -> tuple[Command, Iterator[list[Command]]]:
    rng = random.Random(f"tent:{seed}")
    probe = _tent_command(rng, "crossing")

    def blocks():
        while True:
            block = [_tent_command(rng, slot) for slot in TENT_BLOCK]
            rng.shuffle(block)
            yield block

    return probe, blocks()


def tent_defects(seed: int) -> list[Command]:
    rng = random.Random(f"tent-defects:{seed}")
    return [_tent_command(rng, slot) for slot in TENT_DEFECTS]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# grid side per slot; a grid is side x side.  Metric grids up to 8 x 8 are
# sized so their times overlap those of the --tent grids, which puts the p50
# command in a dense part of the mix.  The four 12 x 12 grids (a fifth of a
# block) are the slowest, so the p90 command is the median of like grids
SWEEP_METRIC_SIDES = (3, 4, 5, 6, 7, 8, 12, 12, 12, 12)
SWEEP_TENT_SIDES = (2, 3, 3, 3, 4, 4, 4, 5, 5, 6)
SWEEP_AXES = ("N1", "N2", "r1", "r2", "phi2", "mu1", "mu2", "r_state", "mu_state")
# axes in one group all set the same bath's purity, so they are never paired
_AXIS_GROUP = {"N1": 1, "mu1": 1, "r1": 1, "N2": 2, "mu2": 2, "r2": 2}


def _phenomenological(b) -> list[float]:
    """Bath as the CLI stores it: [mu, r, phi]."""
    if b[0] == "thermal":
        return [1.0 / (2.0 * b[1] + 1.0), 0.0, 0.0]
    return [b[1], b[2], b[3]]


def sweep_point(base: dict, names, values):
    """(state, bath1, bath2) at one grid point, following `gclab sweep`:
    N axes keep the bath squeezing and set mu = cosh(2r)/(2N + 1)."""
    mu_s, r_s = base["state"][1], base["state"][2]
    baths = [_phenomenological(base["bath1"]), _phenomenological(base["bath2"])]
    for name, v in zip(names, values):
        if name in ("N1", "N2"):
            b = baths[int(name[1]) - 1]
            b[0] = math.cosh(2.0 * b[1]) / (2.0 * v + 1.0)
        elif name in ("mu1", "mu2"):
            baths[int(name[2]) - 1][0] = v
        elif name in ("r1", "r2"):
            baths[int(name[1]) - 1][1] = v
        elif name == "phi2":
            baths[1][2] = v
        elif name == "r_state":
            r_s = v
        elif name == "mu_state":
            mu_s = v
    return ("st", mu_s, r_s), ("ph", *baths[0]), ("ph", *baths[1])


def _axis_range(rng: random.Random, name: str, base: dict,
                noisy: bool) -> tuple[float, float]:
    """Axis end points.  `noisy` keeps both baths mixed (N >= 0.05 above the
    squeezing floor, mu <= 0.9) at every grid point, as bath() does."""
    if name in ("N1", "N2"):
        b = base["bath1" if name == "N1" else "bath2"]
        floor = math.sinh(_phenomenological(b)[1]) ** 2
        lo = floor + (0.05 if noisy else 0.0 if b[0] == "thermal" else 0.01)
        return lo, lo + rng.uniform(0.5, 2.0)
    if name in ("mu1", "mu2"):
        return rng.uniform(0.2, 0.6), rng.uniform(0.7, 0.9 if noisy else 1.0)
    if name in ("r1", "r2"):
        return rng.uniform(0.0, 0.3), rng.uniform(0.5, 1.0)
    if name == "phi2":
        return 0.0, rng.uniform(0.5, math.pi / 2)
    if name == "r_state":
        return rng.uniform(0.3, 0.5), rng.uniform(0.8, 1.2)
    return rng.uniform(0.5, 0.7), rng.uniform(0.8, 1.0)          # mu_state


def _unphysical_axis(rng: random.Random, base: dict) -> tuple[str, float, float]:
    """An axis that starts physical and ends past the bona fide boundary."""
    choice = rng.choice(("N2", "mu2", "mu_state"))
    if choice == "N2":
        r2 = _num(rng.uniform(0.6, 1.0))
        base["bath2"] = ("ph", _num(rng.uniform(0.2, 0.6)), r2,
                         _num(rng.uniform(0.0, math.pi / 2)))
        return "N2", math.sinh(r2) ** 2 + rng.uniform(0.5, 1.5), 0.0
    if choice == "mu2":
        return "mu2", rng.uniform(0.4, 0.6), rng.uniform(1.1, 1.4)
    return "mu_state", rng.uniform(0.5, 0.7), rng.uniform(1.1, 1.4)


def _sweep_command(rng: random.Random, side: int, tent: bool,
                   unphysical: bool, vacuum_corner: bool = False) -> Command:
    return _drawn(lambda: _draw_sweep(rng, side, tent, unphysical, vacuum_corner))


def _draw_sweep(rng: random.Random, side: int, tent: bool,
                unphysical: bool, vacuum_corner: bool) -> Command:
    base = {"state": ("st", _num(rng.uniform(0.5, 1.0)), _num(rng.uniform(0.3, 1.2))),
            "bath1": bath(rng, second=False, kind=rng.choice(("thermal", "ph")),
                          noisy=tent),
            "bath2": bath(rng, second=True, kind=rng.choice(("thermal", "ph")),
                          noisy=tent)}
    if vacuum_corner and not unphysical:
        # thermal baths from N = 0: the (0, 0) corner has vacuum baths
        base["bath1"], base["bath2"] = ("thermal", 1.0), ("thermal", 1.0)
        names = ["N1", "N2"]
    else:
        while True:
            names = rng.sample(SWEEP_AXES, 2)
            g = [_AXIS_GROUP.get(n) for n in names]
            if g[0] is None or g[0] != g[1]:
                break
    ranges = [_axis_range(rng, n, base, noisy=tent and not vacuum_corner) for n in names]
    if unphysical:
        axis = rng.randrange(2)
        name, start, stop = _unphysical_axis(rng, base)
        other = rng.choice(("phi2", "r_state", "r1"))
        names[axis], names[1 - axis] = name, other
        ranges[axis] = (start, stop)
        ranges[1 - axis] = _axis_range(rng, other, base, noisy=tent)
    axes = []
    for name, (lo, hi) in zip(names, ranges):
        lo, hi = _num(lo), _num(hi)
        if rng.random() < 0.5 and not unphysical:
            lo, hi = hi, lo
        axes.append((name, lo, hi, side))
    gamma = _num(rng.uniform(0.5, 2.0))
    argv = base_argv("sweep", base["state"], base["bath1"], base["bath2"], gamma)
    for flag, (name, lo, hi, count) in zip(("--axis1", "--axis2"), axes):
        argv += [flag, f"{name}:{_tok(lo)}:{_tok(hi)}:{count}"]
    at_time = None
    if tent:
        argv.append("--tent")
    else:
        at_time = _num(rng.uniform(0.2, 3.0))
        argv += ["--at-time", _tok(at_time)]
    return Command(argv, "unphysical" if unphysical else "ok", side * side,
                   {"kind": "sweep", "base": base, "gamma": gamma, "tent": tent,
                    "at_time": at_time,
                    "axes": [(n, np.linspace(lo, hi, c)) for n, lo, hi, c in axes]},
                   {"tent_query": tent})


def sweep(seed: int) -> tuple[Command, Iterator[list[Command]]]:
    rng = random.Random(f"sweep:{seed}")
    probe = _sweep_command(rng, 8, tent=False, unphysical=False)
    slots = [(s, False) for s in SWEEP_METRIC_SIDES] + [(s, True) for s in SWEEP_TENT_SIDES]

    def blocks():
        while True:
            block = [_sweep_command(rng, side, is_tent, False) for side, is_tent in slots]
            rng.shuffle(block)
            yield block

    return probe, blocks()


def sweep_defects(seed: int) -> list[Command]:
    """--tent grids from vacuum baths, and grids that end past the bona fide
    boundary (metric and --tent)."""
    rng = random.Random(f"sweep-defects:{seed}")
    return [_sweep_command(rng, 3, True, False, vacuum_corner=True) for _ in range(4)] + [
        _sweep_command(rng, 4, is_tent, True) for is_tent in (False, True, False, True)]


GENERATORS = {"series": series, "tent": tent, "sweep": sweep}
# inputs that hit gclab defects known at the commit that added this benchmark.
# They are run and reported after the measured pass, outside `attempted` and
# `failed`, so that every timed command of a workload succeeds
DEFECTS = {"series": lambda seed: [], "tent": tent_defects, "sweep": sweep_defects}
