"""gclab benchmark: drives `gclab.cli.main(argv)` in process.

    python3 bench/run.py --workload {series,tent,sweep} --seed N \
        --seconds S --trace {0,1}

One closed-loop client in one process: each command starts when the
previous one has returned.  stdout and stderr are captured in memory and
every output is checked against the independent oracle (oracle.py) outside
the timed region.  The gclab sources are imported from src/ of the checkout
this file lives in.

--trace 0 measures the end-to-end metrics for S seconds of command time
(whole blocks, at least MIN_COMMANDS commands) plus set-up time in fresh
interpreters.  --trace 1 runs a fixed, seeded set of blocks once untraced and
once under the span tracer (tracer.py) and derives the per-layer metrics.
After either, the workload's known-defect inputs (workloads.DEFECTS) run
once, untimed; their failures are reported apart from "attempted" and
"failed".  A report goes to stdout and to bench/out/; the last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# one client thread: keep BLAS from starting a thread pool (4x4 matrices)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from check import EPS_PHYS, GROSS_TOL, Tally, check_command  # noqa: E402
from gauge import Gauge  # noqa: E402
from tracer import Spans, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_COMMANDS = 100        # so that >= 10 samples lie beyond cmd_ms_p90
SETUP_LAUNCHES = 5        # fresh-interpreter launches; set-up is their median
GAUGE_EVERY_S = 0.5       # command time between two speed-gauge readings
TRACE_BLOCKS = {"series": 1, "tent": 10, "sweep": 1}
REPEAT_COMMANDS = 10      # first commands of a pass re-run after it; outputs must repeat
# a command's cli.main root span must cover its wall time up to this share (or 50 us)
TRACE_GAP = 0.02

LAUNCH = """
import json, sys
sys.path.insert(0, sys.argv[1])
import gclab.cli
sys.exit(gclab.cli.main(json.loads(sys.argv[2])))
"""
EXIT_CODE = {"ok": 0, "unphysical": 3, "separable": 4}


def load_gclab() -> dict:
    """Import gclab from this checkout's src/ only; exits if it is missing."""
    if not (SRC / "gclab" / "cli.py").is_file():
        sys.exit(f"bench: gclab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import gclab.channels
    import gclab.cli
    import gclab.entanglement
    import gclab.evolution
    import gclab.states
    if not Path(gclab.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported gclab from {gclab.cli.__file__}, not {SRC}")
    return {"cli": gclab.cli, "channels": gclab.channels,
            "evolution": gclab.evolution, "states": gclab.states,
            "entanglement": gclab.entanglement}


def run_command(cli, argv: list[str]) -> tuple[int | None, float, str, str]:
    """(exit code or None on an uncaught exception, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
    return rc, seconds, out.getvalue(), err.getvalue()


def checked(cmd: workloads.Command, rc, out: str, err: str,
            tally: Tally) -> tuple[str | None, int]:
    """(failure group or None, records printed) of one command's result."""
    if rc is None:
        return "uncaught exception", 0
    reason, records = check_command(cmd, rc, out, err, tally)
    return (None if reason is None else reason.split(":")[0][:60]), records


class Measure:
    """Everything one pass over commands records.

    `seconds` are raw wall times; `norm` the same times in reference seconds
    (gauge.py), filled in at each gauge reading.
    """

    def __init__(self, gauge: Gauge):
        self.gauge = gauge
        self.readings = [gauge.read()]
        self.seconds: list[float] = []
        self.norm: list[float] = []
        self._since = 0.0
        self.records = 0
        self.failures: collections.Counter = collections.Counter()
        self.failed = 0
        self.tally = Tally()
        self.out_hash = hashlib.sha256()
        self.status_hash = hashlib.sha256()
        self.head: list[workloads.Command] = []
        self.head_hash = hashlib.sha256()
        self.props: collections.Counter = collections.Counter()
        self.expected_rows: list[int] = []

    def add(self, cmd: workloads.Command, rc, seconds: float, out: str, err: str) -> None:
        self.seconds.append(seconds)
        self.out_hash.update(out.encode())
        self.status_hash.update(f"{rc}\n{err}\n".encode())
        if len(self.head) < REPEAT_COMMANDS:
            self.head.append(cmd)
            self.head_hash.update(f"{rc}\n{err}\n{out}".encode())
        reason, records = checked(cmd, rc, out, err, self.tally)
        self.records += records
        if reason is not None:
            self.failed += 1
            self.failures[reason] += 1
        self.props[f"expect_{cmd.expect}"] += 1
        self.props["symmetric_equal_bath"] += bool(cmd.props.get("symmetric_equal_bath"))
        self.props["tent_query"] += bool(cmd.props.get("tent_query"))
        self.expected_rows.append(cmd.rows)
        self._since += seconds
        if self._since >= GAUGE_EVERY_S:
            self.read_gauge()

    def read_gauge(self) -> None:
        """Normalise the commands run since the last reading."""
        self.readings.append(self.gauge.read())
        factor = Gauge.factor(*self.readings[-2:])
        self.norm.extend(t * factor for t in self.seconds[len(self.norm):])
        self._since = 0.0

    @property
    def commands(self) -> int:
        return len(self.seconds)

    @property
    def cmd_time(self) -> float:
        return float(sum(self.seconds))

    def input_properties(self) -> dict:
        n = self.commands
        return {
            "commands": n,
            "rows_per_cmd_mean": statistics.fmean(self.expected_rows),
            "rows_per_cmd_min": min(self.expected_rows),
            "rows_per_cmd_max": max(self.expected_rows),
            # share of checked entanglement-time queries the oracle finds never separate
            "never_share": self.tally.never / self.tally.queries if self.tally.queries else 0.0,
            "unphysical_share": self.props["expect_unphysical"] / n,
            "separable_at_start_share": self.props["expect_separable"] / n,
            "symmetric_equal_bath_share": self.props["symmetric_equal_bath"] / n,
            "tent_share": self.props["tent_query"] / n,
            "metric_share": 1.0 - self.props["tent_query"] / n,
        }

    @property
    def norm_time(self) -> float:
        return float(sum(self.norm))

    def end_to_end(self) -> dict:
        """Timings in reference seconds, except the raw ones marked as such."""
        if len(self.norm) < len(self.seconds):
            self.read_gauge()
        ms = np.array(self.norm) * 1e3
        raw = np.array(self.seconds) * 1e3
        return {
            "rows_per_s": (self.records / self.norm_time, "rows/s"),
            "cmd_ms_p50": (float(np.percentile(ms, 50)), "ms"),
            "cmd_ms_p90": (float(np.percentile(ms, 90)), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "fail_frac": (self.failed / self.commands, "ratio"),
            "wrong_values_frac": (self.tally.wrong / max(self.tally.checked, 1), "ratio"),
            "raw.rows_per_s": (self.records / self.cmd_time, "rows/s"),
            "raw.cmd_ms_p50": (float(np.percentile(raw, 50)), "ms"),
            "raw.cmd_ms_p90": (float(np.percentile(raw, 90)), "ms"),
        }


def setup_seconds(argv: list[str], expect: int, gauge: Gauge) -> tuple[list, list]:
    """Wall times (raw, reference seconds) of fresh interpreters, one at a
    time, each importing gclab.cli and running argv."""
    raw, norm = [], []
    before = gauge.read()
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", LAUNCH, str(SRC), json.dumps(argv)],
                              cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=120)
        raw.append(time.perf_counter() - t0)
        if proc.returncode != expect:
            sys.exit(f"bench: set-up launch exited {proc.returncode}, expected {expect}")
        after = gauge.read()
        norm.append(raw[-1] * Gauge.factor(before, after))
        before = after
    return raw, norm


def warm_up(cli, probe: workloads.Command) -> None:
    """Run the probe once untimed so lazy initialisation is paid before timing."""
    rc, _, out, err = run_command(cli, probe.argv)
    if rc != EXIT_CODE[probe.expect]:
        sys.exit(f"bench: warm-up command exited {rc}: {err.strip()[-200:]}")


def known_defects(cli, commands: list) -> tuple[int, collections.Counter]:
    """Run the known-defect inputs untimed: (commands failed, by reason)."""
    failures: collections.Counter = collections.Counter()
    for cmd in commands:
        rc, _, out, err = run_command(cli, cmd.argv)
        reason, _ = checked(cmd, rc, out, err, Tally())
        if reason is not None:
            failures[reason] += 1
    return sum(failures.values()), failures


def repeats(cli, m: Measure) -> bool:
    """Re-run the first commands of a pass untimed: they must give the same
    exit codes, stderr and stdout bytes as in the pass."""
    again = hashlib.sha256()
    for cmd in m.head:
        rc, _, out, err = run_command(cli, cmd.argv)
        again.update(f"{rc}\n{err}\n{out}".encode())
    return again.hexdigest() == m.head_hash.hexdigest()


def measured_run(cli, blocks, seconds: float, trace_blocks: int,
                 gauge: Gauge) -> tuple[Measure, str]:
    """Whole blocks until `seconds` of command time and MIN_COMMANDS commands."""
    m = Measure(gauge)
    prefix_digest = ""
    for index, block in enumerate(blocks):
        for cmd in block:
            m.add(cmd, *run_command(cli, cmd.argv))
        if index + 1 == trace_blocks:
            prefix_digest = m.out_hash.hexdigest()
        if m.cmd_time >= seconds and m.commands >= MIN_COMMANDS and prefix_digest:
            return m, prefix_digest
    raise AssertionError("block generator ended")


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def per_layer(spans: Spans, traced: Measure, untraced: Measure) -> dict:
    rows = max(traced.records, 1)
    cmds = traced.commands
    queries = spans.mask("entanglement.entanglement_time")
    outcome = spans.value[queries]
    # nt_minus evaluations: det calls under a query and not under a states call
    owner = spans.owners("entanglement.entanglement_time", "states")
    det_evals = (owner >= 0) & spans.mask("kernel.det")
    evals_by_query = np.bincount(owner[det_evals], minlength=len(owner))[queries]
    never = outcome == 3
    crossing = (outcome >= 0) & (outcome <= 2)
    roots = spans.value[spans.mask("entanglement.real_quartic_roots")]
    kernel = spans.layer_mask("kernel")

    def per(n: float, d: float) -> float:
        return n / d if d else 0.0

    # span times are raw; scale them to reference seconds like the pass itself
    scale = traced.norm_time / traced.cmd_time
    metrics = {
        "states.validations_per_row": (per(spans.count("states.validate_covariance"), rows),
                                       "1/row"),
        "states.validate_covariance.s": (spans.total("states.validate_covariance"), "s"),
        "states.spectra_per_row": (per(spans.count("states.symplectic_spectrum"), rows), "1/row"),
        "states.symplectic_spectrum.s": (spans.total("states.symplectic_spectrum"), "s"),
        "states.functionals.self_s": (spans.self_of(
            "states.purity", "states.von_neumann_entropy", "states.mutual_information",
            "states.log_negativity"), "s"),
        "states.self_s": (spans.layer_self("states"), "s"),
        "kernel.linalg_calls_per_row": (per(int(kernel.sum()), rows), "1/row"),
        "kernel.linalg.s": (float(spans.dur[kernel].sum()), "s"),
        "evolution.evolve.calls": (spans.count("evolution.evolve"), "count"),
        "evolution.evolve.self_s": (spans.self_of("evolution.evolve"), "s"),
        "evolution.metrics_at.self_s": (spans.self_of("evolution.metrics_at"), "s"),
        "evolution.problems_per_row": (per(spans.count(
            "evolution.EvolutionProblem.__post_init__"), rows), "1/row"),
        "evolution.self_s": (spans.layer_self("evolution"), "s"),
        "channels.specs_per_cmd": (per(spans.count("channels.ChannelSpec.__post_init__"),
                                       cmds), "1/cmd"),
        "channels.self_s": (spans.layer_self("channels"), "s"),
        "cli.apply_flags.s": (spans.total("cli.apply_flags"), "s"),
        "cli.self_s": (spans.layer_self("cli"), "s"),
        "cli.metrics_line.s": (spans.total("cli.metrics_line"), "s"),
        "entanglement.entanglement_time.self_s": (spans.self_of(
            "entanglement.entanglement_time"), "s"),
        "entanglement.self_s": (spans.layer_self("entanglement"), "s"),
        "entanglement.nt_evals_per_query": (per(int(det_evals.sum()), int(queries.sum())),
                                            "1/query"),
        "entanglement.nt_evals_per_crossing_query": (per(
            int(evals_by_query[crossing].sum()), int(crossing.sum())), "1/query"),
        "entanglement.never_share": (per(int(never.sum()), int((never | crossing).sum())),
                                     "ratio"),
        "entanglement.real_quartic_roots.s": (spans.total("entanglement.real_quartic_roots"),
                                              "s"),
        "entanglement.roots_accept_ratio": (per(int((outcome == 0).sum()),
                                                int(roots.sum())), "ratio"),
        "trace.overhead_frac": ((traced.norm_time - untraced.norm_time) / untraced.norm_time,
                                "ratio"),
    }
    return {k: (v * scale if unit == "s" else v, unit) for k, (v, unit) in metrics.items()}


def root_gaps(spans: Spans, traced: Measure) -> list[float]:
    """Per command: wall time of main(argv) outside its root span, or inf
    unless all the command's spans hang from exactly one `cli.main` span."""
    roots = spans.parent < 0
    n = traced.commands
    count = np.bincount(spans.cmd_id[roots], minlength=n)
    mains = np.bincount(spans.cmd_id[roots & spans.mask("cli.main")], minlength=n)
    covered = np.bincount(spans.cmd_id[roots], weights=spans.dur[roots], minlength=n)
    return [wall - float(c) if k == 1 and k_main == 1 else math.inf
            for wall, c, k, k_main in zip(traced.seconds, covered, count, mains)]


def traced_run(cli, modules: dict, commands: list,
               gauge: Gauge) -> tuple[Measure, Measure, Tracer]:
    untraced = Measure(gauge)
    for cmd in commands:
        untraced.add(cmd, *run_command(cli, cmd.argv))
    untraced.read_gauge()
    traced = Measure(gauge)
    with Tracer(modules) as tracer:
        for i, cmd in enumerate(commands):
            tracer.cmd = i
            result = run_command(cli, cmd.argv)
            tracer.cmd = -1
            traced.add(cmd, *result)
        traced.read_gauge()
    return untraced, traced, tracer


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def report(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {unit}")


def report_checks(m: Measure) -> None:
    print(f"oracle: {m.tally.checked} values checked, {m.tally.wrong} off by more than "
          f"{EPS_PHYS:g}, {m.tally.gross} by more than {GROSS_TOL:g}")
    print("  max error per column: " + ", ".join(
        f"{k}={v:.2g}" for k, v in sorted(m.tally.max_err.items())))
    print(f"failed commands: {m.failed} of {m.commands}")
    for reason, count in m.failures.most_common():
        print(f"  {count:5d}  {reason}")
    print("input: " + ", ".join(f"{k}={v:.4g}" for k, v in m.input_properties().items()))


def report_defects(failed: int, total: int, failures: collections.Counter) -> None:
    print(f"known-defect inputs (untimed, not in attempted/failed): {failed} of {total} fail")
    for reason, count in failures.most_common():
        print(f"  {count:5d}  {reason}")


def final_line(correct: bool, m: Measure, metrics: dict, names) -> str:
    return json.dumps({"correct": correct, "attempted": m.commands, "failed": m.failed,
                       "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                                   for n in names}})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    modules = load_gclab()
    cli = modules["cli"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    probe, blocks = workloads.GENERATORS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    warm_up(cli, probe)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "python": sys.version.split()[0], "numpy": np.__version__,
              "cpus": os.cpu_count()}

    gauge = Gauge()
    if args.trace == 0:
        setup_raw, setup = setup_seconds(probe.argv, EXIT_CODE[probe.expect], gauge)
        m, prefix_digest = measured_run(cli, blocks, args.seconds, TRACE_BLOCKS[args.workload],
                                        gauge)
        metrics = m.end_to_end()
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["raw.setup_s"] = (statistics.median(setup_raw), "s")
        repeated = repeats(cli, m)
        correct = repeated and m.tally.checked > 0
        print(f"workload={args.workload} seed={args.seed}: {m.commands} commands "
              f"(closed loop, 1 client), {m.records} records, {m.cmd_time:.3f} s "
              f"command time; set-up = median of {SETUP_LAUNCHES} launches; times in "
              f"reference seconds (gauge.py), raw.* as measured; gauge readings "
              f"{min(m.readings) * 1e3:.2f}-{max(m.readings) * 1e3:.2f} ms")
        report("end-to-end:", metrics)
        report_checks(m)
        print(f"out_sha256={m.out_hash.hexdigest()}")
        print(f"first {TRACE_BLOCKS[args.workload]} blocks out_sha256={prefix_digest}")
        print(f"first {len(m.head)} commands re-run after the pass give the same "
              f"output: {repeated}")
        result.update(setup_launches_s=setup_raw, gauge_readings_s=m.readings,
                      out_sha256=m.out_hash.hexdigest(),
                      status_sha256=m.status_hash.hexdigest(),
                      trace_blocks_out_sha256=prefix_digest)
        names = [e["name"] for e in spec["end_to_end"]]
    else:
        commands = [c for _, block in zip(range(TRACE_BLOCKS[args.workload]), blocks)
                    for c in block]
        untraced, traced, tracer = traced_run(cli, modules, commands, gauge)
        spans = Spans(tracer)
        metrics = per_layer(spans, traced, untraced)
        gaps = root_gaps(spans, traced)
        worst = max(g - max(TRACE_GAP * w, 50e-6) for g, w in zip(gaps, traced.seconds))
        same = traced.out_hash.hexdigest() == untraced.out_hash.hexdigest() and \
            traced.status_hash.hexdigest() == untraced.status_hash.hexdigest()
        correct = same and worst <= 0.0 and traced.tally.checked > 0
        m = traced
        print(f"workload={args.workload} seed={args.seed}: traced {traced.commands} commands "
              f"({TRACE_BLOCKS[args.workload]} blocks), {len(spans.dur)} spans, "
              f"{traced.records} records")
        report("per-layer:", metrics)
        print(f"tracer: wall time outside the cli.main root span per command max "
              f"{max(gaps) * 1e6:.1f} us, share max "
              f"{max(g / w for g, w in zip(gaps, traced.seconds)):.4f}; "
              f"traced and untraced outputs identical: {same}")
        report_checks(traced)
        print(f"out_sha256={traced.out_hash.hexdigest()}")
        tracer.save(str(stem) + "-spans.npz")
        result.update(out_sha256=traced.out_hash.hexdigest(),
                      untraced_out_sha256=untraced.out_hash.hexdigest(),
                      status_sha256=traced.status_hash.hexdigest(),
                      outside_root_s=gaps, spans=len(spans.dur))
        names = [e["name"] for e in spec["per_layer"]]

    defects = workloads.DEFECTS[args.workload](args.seed)
    defects_failed, defect_failures = known_defects(cli, defects)
    report_defects(defects_failed, len(defects), defect_failures)
    result.update(correct=correct, attempted=m.commands, failed=m.failed,
                  cmd_seconds=m.seconds, cmd_reference_seconds=m.norm,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  failures=dict(m.failures), input=m.input_properties(),
                  known_defects=len(defects), known_defects_failed=defects_failed,
                  known_defect_failures=dict(defect_failures),
                  values_checked=m.tally.checked, values_wrong=m.tally.wrong,
                  values_gross=m.tally.gross, max_error=m.tally.max_err)
    (Path(str(stem) + ".json")).write_text(json.dumps(result, indent=1) + "\n")
    print(final_line(correct, m, metrics, names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
