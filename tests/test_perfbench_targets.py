"""The functions perfbench's per-layer metrics trace must exist where it looks.

perfbench wraps the public module-level functions of each ``apksift``
layer; a metric whose functions are gone is reported absent and drops out
of the traced result line. ``perfbench/run.py`` is loaded read-only from
its file: no bytecode cache is written next to it.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _per_layer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_run_readonly", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PER_LAYER


def test_per_layer_sources_are_public_layer_functions(monkeypatch):
    sources = sorted({fn for _, fns in _per_layer(monkeypatch).values() for fn in fns})
    assert sources
    for source in sources:
        layer, attr = source.split(".", 1)
        module = importlib.import_module(f"apksift.{layer}")
        obj = getattr(module, attr, None)
        assert not attr.startswith("_"), source
        assert inspect.isfunction(obj), f"{source} is not a function"
        assert obj.__module__ == module.__name__, f"{source} is defined in {obj.__module__}"
