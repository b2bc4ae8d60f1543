"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each gclab module and the
numpy.linalg entry points from outside: src/gclab is not edited.  A wrapped
name is replaced in every namespace that holds it (gclab.evolution and
gclab.cli keep their own `require_bona_fide`, `entanglement_time`, ... from
`from .states import ...`), and the wrappers are removed again afterwards.

Each call inside a command records one span: name, start, end, parent span
and command id, kept in flat arrays in memory and written out at the end.
Per-layer metrics are derived from the spans.  Layers are the gclab modules
`cli`, `channels`, `evolution`, `states`, `entanglement`, plus `kernel`
(calls into numpy.linalg).  `figures` is data only and `errors` does no work.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "channels", "evolution", "states", "entanglement", "kernel")

# public functions and methods wrapped per module; private helpers (and the
# tiny `fmt` and `entropy_kernel`) stay inside their caller's self time
WRAPPED = {
    "cli": ("main", "build_parser", "apply_flags", "load_config_file",
            "cmd_metrics", "cmd_tent", "cmd_sweep", "cmd_figure", "parse_axis",
            "apply_axis", "curve_config", "metrics_line",
            "RunConfig.set_state", "RunConfig.set_bath", "RunConfig.standard_form",
            "RunConfig.channel", "RunConfig.grid", "RunConfig.problem"),
    "channels": ("phenomenological_from_nm", "nm_from_phenomenological",
                 "asymptotic_covariance", "BathSpec.__post_init__",
                 "BathSpec.thermal", "BathSpec.from_phenomenological",
                 "BathSpec.phenomenological", "BathSpec.block", "BathSpec.equals",
                 "ChannelSpec.__post_init__", "ChannelSpec.thermal",
                 "ChannelSpec.from_phenomenological"),
    "evolution": ("evolve", "evolve_ode_oracle", "metrics_at", "time_series",
                  "EvolutionProblem.__post_init__"),
    "states": ("local_invariants", "validate_covariance", "require_bona_fide",
               "symplectic_spectrum", "purity", "von_neumann_entropy",
               "mutual_information", "log_negativity",
               "standard_form_from_invariants", "squeezed_thermal_state",
               "symmetric_ppt_eigenvalue", "StandardForm.to_matrix",
               "CovarianceMatrix.__post_init__"),
    "entanglement": ("invariant_polynomials", "separability_quartic",
                     "real_quartic_roots", "entanglement_time",
                     "symmetric_tent_bounds", "squeezed_thermal_tent"),
}
KERNEL = ("det", "slogdet", "eig", "eigh", "eigvals", "eigvalsh", "inv", "pinv",
          "solve", "lstsq", "svd", "cholesky", "qr", "matrix_power", "matrix_rank")

# span names whose result is recorded as a small integer
ET_CODES = {"quartic": 0, "bisection": 1, "closed_form": 2}
NEVER_CODE = 3


def _et_value(result) -> int:
    return NEVER_CODE if result.never else ET_CODES.get(result.method, 4)


VALUE_HOOKS = {"entanglement.entanglement_time": _et_value,
               "entanglement.real_quartic_roots": len}


class Tracer:
    """Install with `with Tracer(modules) as tr:`; set `tr.cmd` per command."""

    def __init__(self, modules: dict):
        self.modules = modules            # layer name -> gclab module
        self.names: list[str] = []
        self.name_id: array = array("H")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("i")
        self.cmd_id: array = array("i")
        self.value: array = array("i")
        self._cmd = [-1]
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._originals: dict[int, object] = {}

    # -- recording -----------------------------------------------------------

    @property
    def cmd(self) -> int:
        return self._cmd[0]

    @cmd.setter
    def cmd(self, value: int) -> None:
        self._cmd[0] = value

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        cmd_id, value, stack, cmd = self.cmd_id, self.value, self._stack, self._cmd
        hook = VALUE_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if cmd[0] < 0:
                return fn(*args, **kwargs)
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            cmd_id.append(cmd[0])
            value.append(-1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                value[idx] = hook(out)
            return out

        return wrapper

    # -- patching --------------------------------------------------------------

    def _set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        replace: dict[int, object] = {}
        for layer, names in WRAPPED.items():
            module = self.modules[layer]
            for dotted in names:
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(f"{layer}.{dotted}", raw.__func__))
                    else:
                        new = self._wrap(f"{layer}.{dotted}", raw)
                    self._set(cls, attr, new)
                    continue
                fn = getattr(module, dotted)
                self._originals[id(fn)] = fn
                replace[id(fn)] = self._wrap(f"{layer}.{dotted}", fn)
        linalg = np.linalg
        for attr in KERNEL:
            self._set(linalg, attr, self._wrap(f"kernel.{attr}", getattr(linalg, attr)))
        # every namespace that imported a wrapped function gets the wrapper
        for module in self._all_modules():
            for attr, val in list(vars(module).items()):
                if id(val) in replace and val is self._originals[id(val)]:
                    self._set(module, attr, replace[id(val)])
        leftover = self.unpatched()
        if leftover:
            self.__exit__(None, None, None)
            raise RuntimeError(f"tracer left names unwrapped: {leftover}")
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
        self.cmd = -1

    def _all_modules(self) -> list:
        root = self.modules["cli"].__name__.split(".")[0]
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == root or name.startswith(root + "."))]

    def unpatched(self) -> list[str]:
        """Namespaces that still hold an original (unwrapped) function."""
        out = []
        for module in self._all_modules():
            for attr, val in vars(module).items():
                if self._originals.get(id(val)) is val:
                    out.append(f"{module.__name__}.{attr}")
        return out

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "cmd_id": np.frombuffer(self.cmd_id, dtype=np.int32).copy(),
            "value": np.frombuffer(self.value, dtype=np.int32).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class Spans:
    """Derived views over recorded spans: durations, self times, ancestry."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name_id = a["name_id"]
        self.parent = a["parent"]
        self.cmd_id = a["cmd_id"]
        self.value = a["value"]
        self.dur = a["end"] - a["start"]
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                              minlength=len(self.dur))
        self.self_time = self.dur - covered
        layer_of_name = np.array([LAYERS.index(n.split(".")[0]) for n in self.names]
                                 or [0], dtype=np.int16)
        self.layer = layer_of_name[self.name_id] if len(self.dur) else self.name_id

    def ids(self, *names: str) -> np.ndarray:
        return np.array([self.names.index(n) for n in names if n in self.names],
                        dtype=np.int64)

    def mask(self, *names: str) -> np.ndarray:
        return np.isin(self.name_id, self.ids(*names))

    def count(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def total(self, *names: str) -> float:
        return float(self.dur[self.mask(*names)].sum())

    def self_of(self, *names: str) -> float:
        return float(self.self_time[self.mask(*names)].sum())

    def layer_mask(self, layer: str) -> np.ndarray:
        return self.layer == LAYERS.index(layer)

    def layer_self(self, layer: str) -> float:
        return float(self.self_time[self.layer_mask(layer)].sum())

    def owners(self, ancestor: str, stop_layer: str) -> np.ndarray:
        """For each span, the outermost `ancestor` span above it with no
        `stop_layer` span in between, or -1 (parents precede children)."""
        owner = np.full(len(self.dur), -1, dtype=np.int64)
        if ancestor not in self.names:
            return owner
        target = self.names.index(ancestor)
        stop = LAYERS.index(stop_layer)
        for i, (p, nid, layer) in enumerate(zip(self.parent.tolist(),
                                                self.name_id.tolist(),
                                                self.layer.tolist())):
            if layer == stop:
                continue
            if p >= 0 and owner[p] >= 0:
                owner[i] = owner[p]
            elif nid == target:
                owner[i] = i
        return owner
