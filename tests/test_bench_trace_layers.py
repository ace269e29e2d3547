"""The end-to-end bench's layer map resolves against the library.

``benchmarks/e2e/trace.py`` times each layer of a ``run.py --trace 1``
repetition by wrapping the callables its ``LAYERS`` map names.  A spec
that stops resolving (a class or method renamed in ``src/``) would
only surface when someone runs the traced repetition, so every spec is
resolved here the way ``Tracer.install`` resolves it: the module is
imported, a method is read from the ``__dict__`` of the class that
names it, and a function is an attribute of its module.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "trace.py"


def _trace_module():
    """``trace.py`` loaded by path under a name of its own: imported as
    ``trace`` it would shadow the standard library's module."""
    spec = importlib.util.spec_from_file_location("e2e_bench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPECS = [
    spec for specs in _trace_module().LAYERS.values() for spec in specs
]


def test_every_layer_names_callables():
    layers = _trace_module().LAYERS
    assert SPECS and all(layers.values())


@pytest.mark.parametrize("spec", SPECS)
def test_layer_spec_resolves(spec):
    module_name, qualname = spec.split(":")
    module = importlib.import_module(module_name)
    if "." in qualname:
        class_name, attribute = qualname.split(".")
        raw = vars(getattr(module, class_name)).get(attribute)
        assert raw is not None, f"{spec} is not defined on the class"
        if isinstance(raw, classmethod):
            raw = raw.__func__
    else:
        raw = getattr(module, qualname)
    assert callable(raw), spec
