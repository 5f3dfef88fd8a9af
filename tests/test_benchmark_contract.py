"""Every library name the benchmark's tracer wraps still exists.

perfbench/tracing.py replaces the functions listed in its LAYERS table in
each module that looks them up; a renamed or moved function would otherwise
surface only as an AttributeError in a traced benchmark run.
"""

import importlib.util
import os
import sys

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "tracing.py")


def load_tracing():
    """Import perfbench/tracing.py by path, leaving no bytecode cache beside it."""
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


tracing = load_tracing()


@pytest.mark.parametrize(
    "owners, attr", [pytest.param(layer[0], layer[1], id=layer[2]) for layer in tracing.LAYERS]
)
def test_traced_layer_resolves(owners, attr):
    for path in owners:
        assert callable(getattr(tracing._resolve(path), attr, None)), f"otpost.{path}.{attr}"


@pytest.mark.parametrize(
    "module, attr", [pytest.param(*f, id=".".join(f)) for f in tracing.TARGET_FACTORIES]
)
def test_traced_target_factory_resolves(module, attr):
    assert callable(getattr(tracing._resolve(module), attr, None)), f"otpost.{module}.{attr}"
