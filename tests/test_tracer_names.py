"""Every name the benchmark's span tracer wraps must exist in gclab.

`bench/tracer.py` looks each name of `WRAPPED` up on its gclab module (a
dotted name in the class `__dict__`) and raises on a missing one, which would
fail every traced benchmark run.  The file is parsed here, not imported."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def wrapped_names() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("WRAPPED not found in bench/tracer.py")


def test_every_wrapped_name_resolves():
    names = wrapped_names()
    assert set(names) == {"cli", "channels", "evolution", "states", "entanglement"}
    missing = []
    for layer, dotted_names in names.items():
        module = importlib.import_module(f"gclab.{layer}")
        for dotted in dotted_names:
            if "." in dotted:
                cls_name, attr = dotted.split(".")
                found = attr in vars(getattr(module, cls_name, object))
            else:
                found = callable(getattr(module, dotted, None))
            if not found:
                missing.append(f"{layer}.{dotted}")
    assert missing == []
