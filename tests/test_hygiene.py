"""Every name a liemod module imports is used there or listed in its
``__all__``, and every name its ``__all__`` lists exists on the module, so
a rewrite leaves no stale import behind.  Every private helper has a
caller, so a rewrite leaves no dead helper behind either, and every exported
name, every public method and every field of a named-tuple record is read
outside the tests, so no public function, method or record field lives on
for its tests alone; re-exporting a name from the package does not count as
reading it.  Every unbounded cache is keyed by a small, fixed
domain, so a sweep over modules cannot grow it.  No module imports
``dataclasses``, which would cost every command its start-up time, and no
module holds an ``assert`` statement, which ``python -O`` would strip.  No
test imports numpy, and the ``test`` extra does not list it."""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "liemod"
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


def _referenced_names(node):
    """How often each name is read in ``node``, as a bare name or an
    attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute))
                   and isinstance(n.ctx, ast.Load))


def test_every_private_helper_has_a_caller():
    trees = [_tree(name) for name in MODULES]
    referenced = sum(map(_referenced_names, trees), Counter())
    dead = sorted(
        f"{name}.{node.name} (line {node.lineno})"
        for name, tree in zip(MODULES, trees) for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.endswith("__")
        # a function calling itself is not a caller
        and referenced[node.name] == _referenced_names(node)[node.name])
    assert not dead, f"private helpers nothing in liemod calls: {dead}"


def _definition(tree, name):
    """The top-level statement of ``tree`` that binds ``name``."""
    for node in tree.body:
        if getattr(node, "name", None) == name or any(
                isinstance(t, ast.Name) and t.id == name
                for t in getattr(node, "targets", ())):
            return node
    return None


def test_no_assert_statements():
    # python -O strips assert statements, and with them any check that
    # guards an answer; each check raises explicitly instead
    found = sorted(f"{name}.py line {node.lineno}"
                   for name in MODULES for node in ast.walk(_tree(name))
                   if isinstance(node, ast.Assert))
    assert not found, f"assert statements at: {found}"


# exported names nothing outside tests/ reads yet, and why each stays
UNREAD_EXPORTS = {
    "cells.sample_point_in_cell": "ROADMAP item 4 is its caller",
    "hwmod.enumerate_dominant_up_to_dim": "ROADMAP item 3 enumerates its "
    "completeness candidates with it; test_lookup_matches_the_expanded_tables "
    "sweeps it",
    "linalg.kernel_basis": "the package exports it and the benchmark's "
    "tracer wraps it by name; packets' centralizers moved to "
    "graded.centralizer_slice, an integer kernel",
}


def test_every_exported_name_is_read_outside_tests():
    trees = {name: _tree(name) for name in MODULES}
    refs = {name: _referenced_names(tree) for name, tree in trees.items()}
    outside = sum((_referenced_names(ast.parse(p.read_text(encoding="utf-8")))
                   for d in ("demos", "perfbench")
                   for p in (ROOT / d).glob("*.py")), Counter())
    unread = set()
    for name, tree in trees.items():
        if name == "__init__":
            continue
        for export in _declared_all(tree):
            node = _definition(tree, export)
            own = refs[name][export] - (
                _referenced_names(node)[export] if node else 0)
            others = sum(r[export] for m, r in refs.items() if m != name)
            if not (own or others or outside[export]):
                unread.add(f"{name}.{export}")
    unlisted = sorted(unread - UNREAD_EXPORTS.keys())
    assert not unlisted, f"exported names only tests read: {unlisted}"
    stale = sorted(UNREAD_EXPORTS.keys() - unread)
    assert not stale, f"allowlisted names that are gone or now read: {stale}"


# public methods and properties nothing outside tests/ reads yet, and why
# each stays
UNREAD_METHODS = {}


def _attribute_loads(node):
    """How often each name is read in ``node`` as an attribute."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   and isinstance(n.ctx, ast.Load))


def test_every_public_method_is_read_outside_tests():
    trees = {name: _tree(name) for name in MODULES}
    loads = sum(map(_attribute_loads, trees.values()), Counter())
    loads += sum((_attribute_loads(ast.parse(p.read_text(encoding="utf-8")))
                  for d in ("demos", "perfbench")
                  for p in (ROOT / d).glob("*.py")), Counter())
    unread = {
        f"{cls.name}.{node.name}"
        for tree in trees.values() for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        # a method reading its own name is not a reader
        and loads[node.name] == _attribute_loads(node)[node.name]}
    unlisted = sorted(unread - UNREAD_METHODS.keys())
    assert not unlisted, f"public methods only tests read: {unlisted}"
    stale = sorted(UNREAD_METHODS.keys() - unread)
    assert not stale, f"allowlisted methods that are gone or now read: {stale}"


# record fields nothing outside tests/ reads yet, and why each stays
UNREAD_FIELDS = {}


def _record_fields(cls):
    """The fields of a class whose bases include ``NamedTuple`` or a
    ``namedtuple(...)`` call; none for any other class."""
    for base in cls.bases:
        if _name(base) == "NamedTuple":
            return [n.target.id for n in cls.body
                    if isinstance(n, ast.AnnAssign)
                    and isinstance(n.target, ast.Name)]
        if isinstance(base, ast.Call) and _name(base.func) == "namedtuple":
            names = ast.literal_eval(base.args[1])
            return names.replace(",", " ").split() \
                if isinstance(names, str) else list(names)
    return []


def _field_reads(node):
    """How often each name is read in ``node`` as an attribute or named by
    a string constant, as ``getattr`` and report keys name a field."""
    return _attribute_loads(node) + Counter(
        n.value for n in ast.walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, str))


def test_every_record_field_is_read_outside_tests():
    trees = [_tree(name) for name in MODULES]
    reads = sum(map(_field_reads, trees), Counter())
    reads += sum((_field_reads(ast.parse(p.read_text(encoding="utf-8")))
                  for d in ("demos", "perfbench")
                  for p in (ROOT / d).glob("*.py")), Counter())
    # reads inside the record's own class count: a property reading a
    # field is a reader
    unread = {f"{cls.name}.{field}"
              for tree in trees for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef)
              for field in _record_fields(cls) if not reads[field]}
    unlisted = sorted(unread - UNREAD_FIELDS.keys())
    assert not unlisted, f"record fields only tests read: {unlisted}"
    stale = sorted(UNREAD_FIELDS.keys() - unread)
    assert not stale, f"allowlisted fields that are gone or now read: {stale}"


# each unbounded cache and the domain of its keys; a cache keyed by modules
# or points must be bounded instead
UNBOUNDED_CACHES = {
    "rootsys.build_root_system": "one per type",
    "graded.structure_constants": "one per type",
    "packets._adjoint_action": "n <= 5",
    "modality.load_raw_tables": "no arguments",
}


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _is_unbounded_cache(decorator):
    """``functools.cache``, or ``lru_cache`` with a ``maxsize`` of None."""
    if not isinstance(decorator, ast.Call):
        return _name(decorator) == "cache"
    if _name(decorator.func) != "lru_cache":
        return False
    sizes = [*decorator.args[:1],
             *(k.value for k in decorator.keywords if k.arg == "maxsize")]
    return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)


def test_unbounded_caches_are_allowlisted():
    found = {f"{name}.{node.name}"
             for name in MODULES for node in ast.walk(_tree(name))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(map(_is_unbounded_cache, node.decorator_list))}
    unlisted = sorted(found - UNBOUNDED_CACHES.keys())
    assert not unlisted, \
        f"unbounded caches with no stated key domain: {unlisted}"
    stale = sorted(UNBOUNDED_CACHES.keys() - found)
    assert not stale, f"allowlisted caches that are gone or bounded: {stale}"


def _imports(tree, package):
    """Line numbers of the import statements in ``tree`` that import
    ``package`` or one of its submodules; a string naming it is no import."""
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Import) and any(
                    a.name.partition(".")[0] == package for a in node.names))
            or (isinstance(node, ast.ImportFrom)
                and (node.module or "").partition(".")[0] == package)]


def test_no_module_imports_dataclasses():
    found = sorted(f"{name}.py line {line}" for name in MODULES
                   for line in _imports(_tree(name), "dataclasses"))
    assert not found, f"dataclasses imported at: {found}"


def test_tests_need_no_numpy():
    # the tests check liemod against their own pure-Python products, so
    # neither the suite nor its install extra needs numpy
    found = sorted(
        f"{path.relative_to(ROOT)} line {line}"
        for path in (ROOT / "tests").rglob("*.py")
        for line in _imports(ast.parse(path.read_text(encoding="utf-8")),
                             "numpy"))
    assert not found, f"numpy imported at: {found}"
    tomllib = pytest.importorskip("tomllib")   # Python 3.11 on
    with open(ROOT / "pyproject.toml", "rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    listed = [d for d in extra
              if re.split(r"[^\w.-]", d, maxsplit=1)[0].lower() == "numpy"]
    assert not listed, f"the test extra lists numpy: {listed}"


def test_commands_start_without_dataclasses_or_inspect():
    # both cost start-up time in every command: dataclasses pulls in
    # inspect, and each decorated class execs its generated methods
    script = ("import sys\n"
              "from liemod import cells, cli, graded, packets\n"
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
