"""The benchmark tracer wraps package functions by name; a rename or a
deletion in the package must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = load_tracing().LAYERS


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_every_traced_name_is_a_function(layer):
    module = importlib.import_module(f"torelli.{layer}")
    for name in LAYERS[layer]:
        assert callable(getattr(module, name, None)), f"torelli.{layer}.{name}"
