"""Command-line frontend: metric time series, entanglement-time queries,
parameter sweeps and figure presets, all emitted as CSV.

Exit codes: 0 ok, 2 config error, 3 unphysical state/channel,
4 entanglement-time query on an initially separable state.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .channels import BathSpec, ChannelSpec, thermal_purity
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
from .states import StandardForm, squeezed_thermal_state

CSV_HEADER = ("t,purity,von_neumann_entropy,mutual_information,"
              "log_negativity,ntilde_minus,n_minus,n_plus,separable")

# sweep axis -> (RunConfig field, entry of that tuple); bath triples are (mu, r, phi)
AXIS_FIELDS = {"N1": ("bath1", 0), "N2": ("bath2", 0), "r1": ("bath1", 1),
               "r2": ("bath2", 1), "phi2": ("bath2", 2), "mu1": ("bath1", 0),
               "mu2": ("bath2", 0), "r_state": ("state_params", 1),
               "mu_state": ("state_params", 0)}
SWEEP_AXES = (*AXIS_FIELDS, "t")


class ConfigError(Exception):
    pass


def fmt(x: float) -> str:
    return f"{x:.12g}"


# "%.12g" gives the bytes of fmt, and one format per row is faster than nine
ROW_FORMAT = "%.12g," * 8 + "%d"


def metrics_line(row: MetricsRow) -> str:
    return ROW_FORMAT % (row.t, row.purity, row.von_neumann_entropy,
                         row.mutual_information, row.log_negativity,
                         row.nt_minus, row.n_minus, row.n_plus, row.separable)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# state kind as written -> kind stored in RunConfig
STATE_ALIASES = {"sf": "sf", "standard_form": "sf",
                 "st": "squeezed_thermal", "squeezed_thermal": "squeezed_thermal"}
# stored state kind -> (constructor, parameter count, usage)
STATES = {"sf": (StandardForm, 4, "standard_form needs a b c1 c2"),
          "squeezed_thermal": (squeezed_thermal_state, 2, "squeezed_thermal needs mu r")}

# bath kind -> (parameter counts, usage)
BATH_KINDS = {"thermal": ((1,), "thermal bath needs N"),
              "ph": ((2, 3), "ph bath needs mu r [phi]"),
              "nm": ((2, 3), "nm bath needs N ReM [ImM]")}


@dataclass(frozen=True)
class RunConfig:
    """Immutable run description: state, two baths, gamma and the time grid.
    Each bath is the (mu, r, phi) triple of its asymptotic squeezed thermal state."""

    state_kind: str | None = None                 # a key of STATES
    state_params: tuple[float, ...] | None = None
    bath1: tuple[float, float, float] = (1.0, 0.0, 0.0)
    bath2: tuple[float, float, float] = (1.0, 0.0, 0.0)
    gamma: float = 1.0
    tmax: float = 3.0
    points: int = 301
    times: tuple[float, ...] | None = None        # explicit grid overrides tmax/points

    def set_state(self, tokens, where) -> RunConfig:
        if not tokens:
            raise ConfigError(f"{where}: empty state specification")
        vals = _floats(tokens[1:], where)
        kind = STATE_ALIASES.get(tokens[0])
        if kind is None:
            raise ConfigError(f"{where}: unknown state kind {tokens[0]!r}")
        _, count, usage = STATES[kind]
        if len(vals) != count:
            raise ConfigError(f"{where}: {usage}")
        return replace(self, state_kind=kind, state_params=tuple(vals))

    def set_bath(self, field, tokens, where) -> RunConfig:
        """A new config with bath `field` ("bath1" or "bath2") set from tokens."""
        if not tokens:
            raise ConfigError(f"{where}: empty bath specification")
        kind, rest = tokens[0], tokens[1:]
        vals = _floats(rest, where)
        if kind not in BATH_KINDS:
            raise ConfigError(f"{where}: unknown bath kind {kind!r}")
        counts, usage = BATH_KINDS[kind]
        if len(vals) not in counts:
            raise ConfigError(f"{where}: {usage}")
        third = vals[2] if len(vals) == 3 else 0.0
        if kind == "thermal":
            bath = (thermal_purity(vals[0]), 0.0, 0.0)
        elif kind == "ph":
            bath = (vals[0], vals[1], third)
        else:
            try:
                bath = BathSpec(N=vals[0], M=complex(vals[1], third)).phenomenological()
            except GclabError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
        return replace(self, **{field: bath})

    def standard_form(self) -> StandardForm:
        if self.state_kind is None:
            raise ConfigError("no initial state configured (use --state or a config file)")
        return STATES[self.state_kind][0](*self.state_params)

    def channel(self) -> ChannelSpec:
        (mu1, r1, phi1), (mu2, r2, phi2) = self.bath1, self.bath2
        if abs(phi1) > 1e-12:
            raise ConfigError("bath 1 squeezing angle must be 0 (phase reference choice)")
        return ChannelSpec.from_phenomenological(mu1, r1, mu2, r2, phi2, self.gamma)

    def grid(self) -> tuple[float, ...]:
        if self.times is not None:
            return self.times
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


def _times(text: str, where) -> tuple[float, ...]:
    """An explicit time grid, comma- or space-separated."""
    return tuple(_floats(text.replace(",", " ").split(), where))


def load_config_file(cfg: RunConfig, path: str) -> RunConfig:
    """cfg with the `key = value` lines of the file applied in order."""
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
        if key == "state":
            cfg = cfg.set_state(value.split(), where)
        elif key in ("bath1", "bath2"):
            cfg = cfg.set_bath(key, value.split(), where)
        elif key in ("gamma", "tmax"):
            cfg = replace(cfg, **{key: _floats([value], where)[0]})
        elif key == "points":
            try:
                cfg = replace(cfg, points=int(value))
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
        elif key == "times":
            cfg = replace(cfg, times=_times(value, where))
        else:
            raise ConfigError(f"{where}: unknown key {key!r}")
    return cfg


def apply_flags(cfg: RunConfig, args) -> RunConfig:
    """cfg with the config file, then the flags that override it, applied."""
    if args.config:
        cfg = load_config_file(cfg, args.config)
    if args.state:
        cfg = cfg.set_state(args.state, "--state")
    if args.bath1:
        cfg = cfg.set_bath("bath1", args.bath1, "--bath1")
    if args.bath2:
        cfg = cfg.set_bath("bath2", args.bath2, "--bath2")
    overrides = {key: getattr(args, key) for key in ("gamma", "tmax", "points")
                 if getattr(args, key) is not None}
    if args.times:
        overrides["times"] = _times(args.times, "--times")
    return replace(cfg, **overrides)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _open_output(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", newline="\n"), True


def _print_series(problem: EvolutionProblem, out) -> None:
    """The CSV header and one line per row, printed once every row is computed."""
    rows = time_series(problem)
    print(CSV_HEADER, file=out)
    for row in rows:
        print(metrics_line(row), file=out)


def cmd_metrics(cfg: RunConfig, out) -> int:
    _print_series(cfg.problem(), out)
    return 0


def cmd_tent(cfg: RunConfig, out) -> int:
    result = entanglement_time(cfg.standard_form(), cfg.channel())
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


def apply_axis(cfg: RunConfig, name: str, value: float) -> RunConfig:
    """A new config with sweep axis `name` (checked by parse_axis) at value."""
    if name == "t":
        return replace(cfg, times=(value,))
    field, i = AXIS_FIELDS[name]
    if field == "state_params" and cfg.state_kind != "squeezed_thermal":
        raise ConfigError(f"{name} sweep needs a squeezed_thermal state")
    entries = getattr(cfg, field)
    if name in ("N1", "N2"):
        # keep the squeezing, reset the purity so that N matches
        value = thermal_purity(value, entries[1])
    return replace(cfg, **{field: entries[:i] + (value,) + entries[i + 1:]})


def _sweep_points(cfg: RunConfig, axes):
    """(values, config) of every grid point in row order, made as it is
    needed.  A later axis reads what the earlier one set."""
    if not axes:
        yield (), cfg
        return
    (name, grid), rest = axes[0], axes[1:]
    for value in grid:
        for values, point in _sweep_points(apply_axis(cfg, name, value), rest):
            yield (value, *values), point


def cmd_sweep(cfg: RunConfig, args, out) -> int:
    axes = [parse_axis(args.axis1)]
    if args.axis2:
        axes.append(parse_axis(args.axis2))
    names = [name for name, _ in axes]
    if args.tent and "t" in names:
        raise ConfigError("a t axis cannot be combined with --tent")
    base = replace(cfg, times=None if "t" in names else (args.at_time,))

    # every point is computed before anything is printed, so a failing
    # point leaves no partial CSV behind
    lines = []
    for values, point in _sweep_points(base, axes):
        prefix = ",".join(fmt(v) for v in values)
        if args.tent:
            result = entanglement_time(point.standard_form(), point.channel())
            t_ent = "never" if result.never else fmt(result.t_ent)
            residual = "nan" if result.never else fmt(result.residual)
            lines.append(f"{prefix},{t_ent},{result.method},{residual}")
        else:
            lines.extend(prefix + "," + metrics_line(row)
                         for row in time_series(point.problem()))

    columns = ["t_ent", "method", "residual"] if args.tent else [CSV_HEADER]
    print(",".join(names + columns), file=out)
    for line in lines:
        print(line, file=out)
    return 0


def curve_config(preset: CurvePreset, gamma: float) -> RunConfig:
    return RunConfig(
        state_kind=preset.state_kind,
        state_params=tuple(float(p) for p in preset.state_params),
        bath1=(preset.mu1, preset.r1, 0.0),
        bath2=(preset.mu2, preset.r2, preset.phi2),
        gamma=gamma, tmax=FIGURE_TMAX, points=FIGURE_POINTS)


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
            _print_series(problem, fh)
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


# built once: parse_args reads the parser and leaves it unchanged
PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "figure":
            return cmd_figure(args.number, args.gamma, args.output)

        cfg = apply_flags(RunConfig(), args)
        out, close = _open_output(args.output)
        try:
            if args.command == "metrics":
                return cmd_metrics(cfg, out)
            if args.command == "tent":
                return cmd_tent(cfg, out)
            return cmd_sweep(cfg, args, out)
        finally:
            if close:
                out.close()
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


if __name__ == "__main__":
    sys.exit(main())
