"""Command-line frontend: metric time series, entanglement-time queries,
parameter sweeps and figure presets, all emitted as CSV.

Exit codes: 0 ok, 2 config error, 3 unphysical state/channel,
4 entanglement-time query on an initially separable state.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .channels import BathSpec, ChannelSpec, asymptotic_covariance
from .entanglement import entanglement_time
from .errors import (
    DomainError,
    GclabError,
    InvalidStateError,
    NotEntangledAtStartError,
    UnphysicalChannelError,
)
from .evolution import EvolutionProblem, MetricsRow, time_series
from .figures import FIGURE_POINTS, FIGURE_TMAX, FIGURES, CurvePreset
from .states import StandardForm, require_bona_fide, squeezed_thermal_state

CSV_HEADER = ("t,purity,von_neumann_entropy,mutual_information,"
              "log_negativity,ntilde_minus,n_minus,n_plus,separable")

SWEEP_AXES = ("N1", "N2", "r1", "r2", "phi2", "mu1", "mu2",
              "r_state", "mu_state", "t")


class ConfigError(Exception):
    pass


def fmt(x: float) -> str:
    return f"{x:.12g}"


def metrics_line(row: MetricsRow) -> str:
    return ",".join([
        fmt(row.t), fmt(row.purity), fmt(row.von_neumann_entropy),
        fmt(row.mutual_information), fmt(row.log_negativity),
        fmt(row.nt_minus), fmt(row.n_minus), fmt(row.n_plus),
        str(int(row.separable)),
    ])


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

class RunConfig:
    """Flat run description: state, two baths, gamma and the time grid."""

    def __init__(self):
        self.state_kind = None          # "sf" | "squeezed_thermal"
        self.state_params = None
        self.baths = [
            {"mu": 1.0, "r": 0.0, "phi": 0.0},
            {"mu": 1.0, "r": 0.0, "phi": 0.0},
        ]
        self.gamma = 1.0
        self.tmax = 3.0
        self.points = 301
        self.times = None               # explicit grid overrides tmax/points

    def set_state(self, tokens, where):
        if not tokens:
            raise ConfigError(f"{where}: empty state specification")
        kind, rest = tokens[0], tokens[1:]
        vals = _floats(rest, where)
        if kind in ("sf", "standard_form"):
            if len(vals) != 4:
                raise ConfigError(f"{where}: standard_form needs a b c1 c2")
            self.state_kind, self.state_params = "sf", tuple(vals)
        elif kind in ("st", "squeezed_thermal"):
            if len(vals) != 2:
                raise ConfigError(f"{where}: squeezed_thermal needs mu r")
            self.state_kind, self.state_params = "squeezed_thermal", tuple(vals)
        else:
            raise ConfigError(f"{where}: unknown state kind {kind!r}")

    def set_bath(self, index, tokens, where):
        if not tokens:
            raise ConfigError(f"{where}: empty bath specification")
        kind, rest = tokens[0], tokens[1:]
        vals = _floats(rest, where)
        if kind == "thermal":
            if len(vals) != 1:
                raise ConfigError(f"{where}: thermal bath needs N")
            N = vals[0]
            self.baths[index] = {"mu": 1.0 / (2.0 * N + 1.0), "r": 0.0, "phi": 0.0}
        elif kind == "ph":
            if len(vals) not in (2, 3):
                raise ConfigError(f"{where}: ph bath needs mu r [phi]")
            mu, r = vals[0], vals[1]
            phi = vals[2] if len(vals) == 3 else 0.0
            self.baths[index] = {"mu": mu, "r": r, "phi": phi}
        elif kind == "nm":
            if len(vals) not in (2, 3):
                raise ConfigError(f"{where}: nm bath needs N ReM [ImM]")
            M = complex(vals[1], vals[2] if len(vals) == 3 else 0.0)
            try:
                mu, r, phi = BathSpec(N=vals[0], M=M).phenomenological()
            except GclabError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
            self.baths[index] = {"mu": mu, "r": r, "phi": phi}
        else:
            raise ConfigError(f"{where}: unknown bath kind {kind!r}")

    def standard_form(self) -> StandardForm:
        if self.state_kind is None:
            raise ConfigError("no initial state configured (use --state or a config file)")
        if self.state_kind == "sf":
            return StandardForm(*self.state_params)
        return squeezed_thermal_state(*self.state_params)

    def channel(self) -> ChannelSpec:
        b1, b2 = self.baths
        if abs(b1["phi"]) > 1e-12:
            raise ConfigError("bath 1 squeezing angle must be 0 (phase reference choice)")
        return ChannelSpec.from_phenomenological(
            b1["mu"], b1["r"], b2["mu"], b2["r"], b2["phi"], self.gamma)

    def grid(self) -> tuple[float, ...]:
        if self.times is not None:
            return tuple(self.times)
        if self.points < 1:
            raise ConfigError("points must be >= 1")
        if self.points == 1:
            return (0.0,)
        return tuple(np.linspace(0.0, self.tmax, self.points))

    def problem(self) -> EvolutionProblem:
        return EvolutionProblem(self.standard_form(), self.channel(), self.grid())


def finite_float(token: str) -> float:
    x = float(token)
    if not math.isfinite(x):
        raise ValueError(f"number must be finite, got {token!r}")
    return x


def _floats(tokens, where):
    try:
        return [finite_float(t) for t in tokens]
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config_file(cfg: RunConfig, path: str) -> None:
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        where = f"{path}:{lineno}"
        tokens = value.split()
        if key == "state":
            cfg.set_state(tokens, where)
        elif key in ("bath1", "bath2"):
            cfg.set_bath(int(key[-1]) - 1, tokens, where)
        elif key == "gamma":
            cfg.gamma = _floats([value], where)[0]
        elif key == "tmax":
            cfg.tmax = _floats([value], where)[0]
        elif key == "points":
            try:
                cfg.points = int(value)
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
        elif key == "times":
            cfg.times = _floats(value.replace(",", " ").split(), where)
        else:
            raise ConfigError(f"{where}: unknown key {key!r}")


def apply_flags(cfg: RunConfig, args) -> None:
    if args.config:
        load_config_file(cfg, args.config)
    if args.state:
        cfg.set_state(args.state, "--state")
    if args.bath1:
        cfg.set_bath(0, args.bath1, "--bath1")
    if args.bath2:
        cfg.set_bath(1, args.bath2, "--bath2")
    if args.gamma is not None:
        cfg.gamma = args.gamma
    if args.tmax is not None:
        cfg.tmax = args.tmax
    if args.points is not None:
        cfg.points = args.points
    if getattr(args, "times", None):
        cfg.times = _floats(args.times.replace(",", " ").split(), "--times")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _open_output(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", newline="\n"), True


def cmd_metrics(cfg: RunConfig, out) -> int:
    rows = time_series(cfg.problem())
    print(CSV_HEADER, file=out)
    for row in rows:
        print(metrics_line(row), file=out)
    return 0


def cmd_tent(cfg: RunConfig, out) -> int:
    sf = cfg.standard_form()
    require_bona_fide(sf.to_matrix())
    result = entanglement_time(sf, cfg.channel())
    if result.never:
        print("t_ent=never method=" + result.method + " residual=nan", file=out)
    else:
        line = (f"t_ent={fmt(result.t_ent)} method={result.method}"
                f" residual={fmt(result.residual)}")
        if result.tangent:
            line += " tangent=1"
        print(line, file=out)
    return 0


def parse_axis(spec: str) -> tuple[str, np.ndarray]:
    parts = spec.split(":")
    if len(parts) != 4:
        raise ConfigError(f"axis spec must be name:start:stop:count, got {spec!r}")
    name = parts[0]
    if name not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {name!r}; choose from {', '.join(SWEEP_AXES)}")
    start, stop = _floats(parts[1:3], "axis")
    try:
        count = int(parts[3])
    except ValueError as exc:
        raise ConfigError(f"axis count: {exc}") from exc
    if count < 1:
        raise ConfigError("axis count must be >= 1")
    return name, np.linspace(start, stop, count)


def apply_axis(cfg: RunConfig, name: str, value: float) -> None:
    if name in ("N1", "N2"):
        i = int(name[1]) - 1
        bath = cfg.baths[i]
        # keep the squeezing, reset the purity so that N matches
        bath["mu"] = math.cosh(2.0 * bath["r"]) / (2.0 * value + 1.0)
    elif name in ("mu1", "mu2"):
        cfg.baths[int(name[2]) - 1]["mu"] = value
    elif name in ("r1", "r2"):
        cfg.baths[int(name[1]) - 1]["r"] = value
    elif name == "phi2":
        cfg.baths[1]["phi"] = value
    elif name == "r_state":
        if cfg.state_kind != "squeezed_thermal":
            raise ConfigError("r_state sweep needs a squeezed_thermal state")
        cfg.state_params = (cfg.state_params[0], value)
    elif name == "mu_state":
        if cfg.state_kind != "squeezed_thermal":
            raise ConfigError("mu_state sweep needs a squeezed_thermal state")
        cfg.state_params = (value, cfg.state_params[1])
    elif name == "t":
        cfg.times = [value]
    else:
        raise ConfigError(f"unknown axis {name!r}")


def cmd_sweep(cfg: RunConfig, args, out) -> int:
    axes = [parse_axis(args.axis1)]
    if args.axis2:
        axes.append(parse_axis(args.axis2))
    names = [name for name, _ in axes]
    if args.tent and "t" in names:
        raise ConfigError("a t axis cannot be combined with --tent")

    grids = [vals for _, vals in axes]
    points = [(v,) for v in grids[0]]
    if len(grids) == 2:
        points = [(v1, v2) for v1 in grids[0] for v2 in grids[1]]

    # every point is computed before anything is printed, so a failing
    # point leaves no partial CSV behind
    lines = []
    for values in points:
        local = RunConfig()
        local.state_kind = cfg.state_kind
        local.state_params = cfg.state_params
        local.baths = [dict(b) for b in cfg.baths]
        local.gamma = cfg.gamma
        local.tmax = cfg.tmax
        local.points = cfg.points
        local.times = None if "t" in names else [args.at_time]
        for name, value in zip(names, values):
            apply_axis(local, name, value)
        prefix = [fmt(v) for v in values]
        if args.tent:
            result = entanglement_time(local.standard_form(), local.channel())
            t_ent = "never" if result.never else fmt(result.t_ent)
            residual = "nan" if result.never else fmt(result.residual)
            lines.append(",".join(prefix + [t_ent, result.method, residual]))
        else:
            lines.extend(",".join(prefix + metrics_line(row).split(","))
                         for row in time_series(local.problem()))

    if args.tent:
        header = names + ["t_ent", "method", "residual"]
    else:
        header = names + CSV_HEADER.split(",")
    print(",".join(header), file=out)
    for line in lines:
        print(line, file=out)
    return 0


def curve_config(preset: CurvePreset, gamma: float) -> RunConfig:
    cfg = RunConfig()
    kind = "sf" if preset.state_kind == "sf" else "squeezed_thermal"
    cfg.state_kind = kind
    cfg.state_params = tuple(float(p) for p in preset.state_params)
    cfg.baths = [
        {"mu": preset.mu1, "r": preset.r1, "phi": 0.0},
        {"mu": preset.mu2, "r": preset.r2, "phi": preset.phi2},
    ]
    cfg.gamma = gamma
    cfg.tmax = FIGURE_TMAX
    cfg.points = FIGURE_POINTS
    return cfg


def cmd_figure(number: int, gamma: float, out_base: str | None) -> int:
    if number not in FIGURES:
        raise ConfigError(f"figure number must be 1..8, got {number}")
    base = out_base if out_base else f"figure{number}"
    for idx, preset in enumerate(FIGURES[number], start=1):
        cfg = curve_config(preset, gamma)
        try:
            problem = cfg.problem()
        except (GclabError, ConfigError) as exc:
            print(f"warning: figure {number} curve {idx} ({preset.label}) uses "
                  f"unphysical caption parameters, skipped: {exc}", file=sys.stderr)
            continue
        path = f"{base}_curve{idx}.csv"
        with open(path, "w", newline="\n") as fh:
            print(CSV_HEADER, file=fh)
            for row in time_series(problem):
                print(metrics_line(row), file=fh)
        print(path)
    return 0


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

def _add_common(parser):
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--state", nargs="+", metavar="TOK",
                        help="sf A B C1 C2 | squeezed_thermal MU R")
    parser.add_argument("--bath1", nargs="+", metavar="TOK",
                        help="thermal N | ph MU R [PHI] | nm N REM [IMM]")
    parser.add_argument("--bath2", nargs="+", metavar="TOK")
    parser.add_argument("--gamma", type=finite_float, default=None)
    parser.add_argument("--tmax", type=finite_float, default=None)
    parser.add_argument("--points", type=int, default=None)
    parser.add_argument("--times", help="explicit comma-separated time grid")
    parser.add_argument("-o", "--output", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gclab",
        description="Two-mode Gaussian states in uncorrelated Gaussian channels")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", help="metric time series as CSV")
    _add_common(p)

    p = sub.add_parser("tent", help="entanglement time of the configured state")
    _add_common(p)

    p = sub.add_parser("sweep", help="1D/2D parameter sweeps as CSV")
    _add_common(p)
    p.add_argument("--axis1", required=True, metavar="NAME:START:STOP:COUNT")
    p.add_argument("--axis2", metavar="NAME:START:STOP:COUNT")
    p.add_argument("--at-time", type=finite_float, default=1.0,
                   help="evaluation time for metric sweeps (default 1)")
    p.add_argument("--tent", action="store_true",
                   help="sweep the entanglement time instead of metrics")

    p = sub.add_parser("figure", help="emit preset curves for reference figure N")
    p.add_argument("number", type=int)
    p.add_argument("--gamma", type=finite_float, default=1.0)
    p.add_argument("-o", "--output", default=None,
                   help="output base name (files get _curve<k>.csv suffixes)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "figure":
            return cmd_figure(args.number, args.gamma, args.output)

        cfg = RunConfig()
        apply_flags(cfg, args)
        out, close = _open_output(args.output)
        try:
            if args.command == "metrics":
                return cmd_metrics(cfg, out)
            if args.command == "tent":
                return cmd_tent(cfg, out)
            if args.command == "sweep":
                return cmd_sweep(cfg, args, out)
        finally:
            if close:
                out.close()
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"gclab: config error: {exc}", file=sys.stderr)
        return 2
    except NotEntangledAtStartError as exc:
        print(f"gclab: {exc}", file=sys.stderr)
        return 4
    except (UnphysicalChannelError, InvalidStateError, DomainError) as exc:
        print(f"gclab: unphysical input: {exc}", file=sys.stderr)
        return 3
    except GclabError as exc:
        print(f"gclab: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
