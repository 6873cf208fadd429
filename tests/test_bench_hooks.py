"""The benchmark's tracer wraps liemod functions by name; every name it
lists must still exist, so that removing one fails here rather than
inside a benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    """Module, function and cache name of each of the tracer's ``TARGETS``,
    read from its source: running it would import the benchmark's own
    dependencies, which the tests do not need."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    targets = next(node.value for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets]
                   == ["TARGETS"])
    return [tuple(map(ast.literal_eval, t.elts[:3])) for t in targets.elts]


@pytest.mark.parametrize("module,function,cache", _targets())
def test_traced_function_and_cache_resolve(module, function, cache):
    mod = importlib.import_module(f"liemod.{module}")
    assert callable(getattr(mod, function, None)), f"{module}.{function}"
    if cache is not None:
        assert hasattr(getattr(mod, cache, None), "cache_info"), \
            f"{module}.{cache}"
