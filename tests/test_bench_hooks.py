"""The benchmark's tracer wraps liemod functions by name; every name it
lists must still exist, so that removing one fails here rather than
inside a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [t[:3] for t in tracer.TARGETS]


@pytest.mark.parametrize("module,function,cache", _targets())
def test_traced_function_and_cache_resolve(module, function, cache):
    mod = importlib.import_module(f"liemod.{module}")
    assert callable(getattr(mod, function, None)), f"{module}.{function}"
    if cache is not None:
        assert hasattr(getattr(mod, cache, None), "cache_info"), \
            f"{module}.{cache}"
