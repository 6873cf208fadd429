"""Every name a liemod module imports is used there or listed in its
``__all__``, and every name its ``__all__`` lists exists on the module, so
a rewrite leaves no stale import behind."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "liemod"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _tree(name):
    return ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))


def _declared_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used_or_exported(name):
    tree = _tree(name)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_declared_all(tree))
    unused = sorted(f"{bound} (line {line})"
                    for bound, line in imported.items() if bound not in used)
    assert not unused, f"{name}.py imports names it never uses: {unused}"


# __main__ is parsed above but not imported: importing it runs the command
@pytest.mark.parametrize("name", [m for m in MODULES if m != "__main__"])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(
        "liemod" if name == "__init__" else f"liemod.{name}")
    missing = [n for n in _declared_all(_tree(name))
               if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what it lacks: {missing}"
