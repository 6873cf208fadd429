"""Every name a liemod module imports is used there or listed in its
``__all__``, and every name its ``__all__`` lists exists on the module, so
a rewrite leaves no stale import behind.  Every private helper has a
caller, so a rewrite leaves no dead helper behind either, and every exported
name, every public method, every field of a named-tuple record and every
attribute a plain class sets in ``__init__`` is read outside the tests, so
none lives on for its tests alone; each operator ``linalg.Matrix`` defines
is listed with the liemod function that applies it, and that function
applies it.  A read on ``self`` or on a class named
directly counts for that class alone, and each class that shares a member
name with another and is read only on other receivers is listed under that
name with the functions that read it, each checked to read the name.  Every unbounded cache is keyed by a small, fixed
domain, so a sweep over modules cannot grow it.  No module imports
``dataclasses``, which would cost every command its start-up time, and no
module holds an ``assert`` statement, which ``python -O`` would strip.
Only the modules that compute with rationals import ``fractions``.  No
test imports numpy, and the ``test`` extra does not list it."""

import ast
import functools
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
    "linalg.kernel_basis": "the benchmark's tracer wraps it by name; "
    "packets' centralizers moved to graded.centralizer_slice, an integer "
    "kernel",
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


def _on(name):
    """Whether an attribute node is read or set on the bare name ``name``."""
    return lambda n: (isinstance(n, ast.Attribute)
                      and isinstance(n.value, ast.Name) and n.value.id == name)


def _receivers(tree, class_names):
    """The class each attribute node of ``tree`` is read on, by node id,
    where the receiver is known: a method's first parameter inside that
    method, or a class named directly."""
    known = {id(n): n.value.id for n in ast.walk(tree)
             if isinstance(n, ast.Attribute)
             and isinstance(n.value, ast.Name) and n.value.id in class_names}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for f in cls.body:
            if isinstance(f, ast.FunctionDef) and f.args.args:
                known.update((id(n), cls.name) for n in filter(
                    _on(f.args.args[0].arg), ast.walk(f)))
    return known


def _member_loads(node, known):
    """How often each name is read in ``node`` as an attribute, keyed by
    (class, name) where ``known`` gives the receiver's class and by
    (None, name) where it does not."""
    return Counter((known.get(id(n)), n.attr) for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   and isinstance(n.ctx, ast.Load))


def _members(cls):
    """A class's public methods and properties (name -> definition), and
    its fields: a record's fields, or the public attributes a plain class's
    ``__init__`` sets on itself."""
    methods = {n.name: n for n in cls.body
               if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")}
    fields = set(_record_fields(cls))
    for init in cls.body:
        if isinstance(init, ast.FunctionDef) and init.name == "__init__":
            fields.update(n.attr for n in filter(
                _on(init.args.args[0].arg), ast.walk(init))
                if isinstance(n.ctx, ast.Store) and not n.attr.startswith("_"))
    return methods, fields


@functools.cache
def _member_reads():
    """For every public member of a liemod class, ``"Class.name"`` ->
    (kind, reads on a receiver known to be that class, reads on any other
    receiver), counted in liemod, the demos and the benchmark.  A method
    reading its own name is not a reader; a string constant naming a field
    reads it, as ``getattr`` and report keys name a field."""
    liemod = [_tree(name) for name in MODULES]
    trees = liemod + [ast.parse(p.read_text(encoding="utf-8"))
                      for d in ("demos", "perfbench")
                      for p in (ROOT / d).glob("*.py")]
    classes = {cls.name: cls for tree in liemod for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef)}
    known, loads, strings = {}, Counter(), Counter()
    for tree in trees:
        known.update(_receivers(tree, classes))
        loads += _member_loads(tree, known)
        strings += Counter(n.value for n in ast.walk(tree)
                           if isinstance(n, ast.Constant)
                           and isinstance(n.value, str))
    reads = {}
    for cls in classes.values():
        methods, fields = _members(cls)
        for name, node in methods.items():
            own = _member_loads(node, known)
            reads[f"{cls.name}.{name}"] = (
                "method", loads[cls.name, name] - own[cls.name, name],
                loads[None, name] - own[None, name])
        for name in fields:
            reads[f"{cls.name}.{name}"] = (
                "field", loads[cls.name, name],
                loads[None, name] + strings[name])
    return reads


def _owners():
    """The classes that define each member name."""
    owners = {}
    for key in _member_reads():
        cls, _, name = key.partition(".")
        owners.setdefault(name, []).append(cls)
    return owners


# member names two or more classes define, with each class that is read
# only on receivers the guard cannot type (``p.closure_dim``), so that no
# read of the name can be keyed to it, and the liemod functions that read
# that class's member: ``module.function`` or ``module.Class.method``, or a
# tuple of them
SHARED_NAMES = {
    "closure_dim": {
        "Cell": "cells.centralizer_data",
        "PacketDescriptor": "packets.enumerate_packets_adjoint_typeA"},
    "dim": {
        "GradedAlgebra": ("cli._cmd_grading_rank",
                          "graded.random_homogeneous_element",
                          "graded.cartan_subspace")},
    "dimension": {
        "BuildCeilingExceeded": "modality.verify_table_entry",
        "HWModule": "graded.StructureConstants.element_matrix",
        "RootSystem": "graded.StructureConstants.__init__"},
    "name": {
        "GradingSpec": "cli._cmd_grading_rank",
        "IrrepSpec": "cli._cmd_rep_modality",
        "JordanTypeA": "cli._cmd_packets_enum",
        "RootSystemType": "cli._cmd_cells_count"},
    "orbit_dim": {
        "PacketDescriptor": "packets.packet_dims",
        "VerifyResult": "cli._cmd_tables_verify"},
    "sampling": {
        "ExmoReport": "cli._cmd_exmo",
        "VerifyResult": "cli._cmd_tables_verify"},
    "space_dim": {
        "ActionSpec": ("modality._orbit_rows", "modality.generic_orbit_dim"),
        "ExmoReport": "cli._cmd_exmo"},
}


def test_names_two_classes_share_are_listed():
    # a class that defines a shared name and has no read keyed to it must
    # be named under that name, so a new member under a listed name is not
    # taken as read by another class's readers
    reads, owners = _member_reads(), _owners()
    need = {(name, c) for name, classes in owners.items() if len(classes) > 1
            for c in classes if not reads[f"{c}.{name}"][1]}
    listed = {(name, c) for name, entry in SHARED_NAMES.items()
              for c in entry}
    unlisted = sorted(f"{c}.{name}" for name, c in need - listed)
    assert not unlisted, f"shared member names read untyped: {unlisted}"
    stale = sorted(f"{c}.{name}" for name, c in listed - need)
    assert not stale, \
        f"allowlisted members no longer shared or read untyped: {stale}"


def _reads_untyped(reader, name, trees, classes):
    """Whether ``reader``, ``module.function`` or ``module.Class.method``
    in liemod, exists and reads ``.name`` on a receiver the guard cannot
    type; free text names no function and reads nothing."""
    module, _, path = reader.partition(".")
    if module not in trees or not path:
        return False
    node = trees[module]
    for part in path.split("."):
        node = next((n for n in getattr(node, "body", ())
                     if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                     and n.name == part), None)
    if not isinstance(node, ast.FunctionDef):
        return False
    known = _receivers(trees[module], classes)
    return _member_loads(node, known)[None, name] > 0


def test_shared_name_readers_read_the_name():
    # each listed reason is checked, not trusted: if a named reader goes or
    # stops reading the member, the entry is stale
    trees = {name: _tree(name) for name in MODULES}
    classes = {cls.name for tree in trees.values() for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef)}
    wrong = sorted(
        f"{cls}.{name}: {reader}" for name, entry in SHARED_NAMES.items()
        for cls, readers in entry.items()
        for reader in ((readers,) if isinstance(readers, str) else readers)
        if not _reads_untyped(reader, name, trees, classes))
    assert not wrong, f"listed readers that do not read the member: {wrong}"
    # the check itself: a free-text reason, a missing function and a
    # function that does not read the name all fail it
    for reader, name in (("packets' sort", "closure_dim"),
                         ("packets.no_such_function", "closure_dim"),
                         ("packets.packet_dims", "space_dim")):
        assert not _reads_untyped(reader, name, trees, classes), reader


def _unread(kind):
    """The members of ``kind`` that nothing outside tests/ reads: none
    on a receiver known to be their class, and none elsewhere unless the
    name is the class's own or the class is listed under the name in
    ``SHARED_NAMES``."""
    owners, unread = _owners(), set()
    for key, (k, keyed, other) in _member_reads().items():
        cls, _, name = key.partition(".")
        counted = len(owners[name]) == 1 or cls in SHARED_NAMES.get(name, ())
        if k == kind and not keyed and not (other and counted):
            unread.add(key)
    return unread


# public methods and properties nothing outside tests/ reads yet, and why
# each stays
UNREAD_METHODS = {}


def test_every_public_method_is_read_outside_tests():
    unread = _unread("method")
    unlisted = sorted(unread - UNREAD_METHODS.keys())
    assert not unlisted, f"public methods only tests read: {unlisted}"
    stale = sorted(UNREAD_METHODS.keys() - unread)
    assert not stale, f"allowlisted methods that are gone or now read: {stale}"


# the dunders of ``linalg.Matrix`` that make it a matrix to read: its
# construction, slots, rows, length, entries, equality and text form
MATRIX_PROTOCOL = {"__init__", "__slots__", "__iter__", "__len__",
                   "__getitem__", "__eq__", "__hash__", "__repr__"}

# every other dunder ``linalg.Matrix`` defines, each an operator or a write,
# with the liemod function that applies it and the rows of a matrix it
# applies it to: the method guard above skips dunders, which syntax calls
MATRIX_OPERATORS = {
    "__sub__": ("graded.jordan_chevalley", [[4, 1], [0, 4]]),
    "__matmul__": ("packets.classify_adjoint_typeA", [[0, 1], [0, 0]]),
}


def test_every_matrix_operator_has_a_reader(monkeypatch):
    cls = _definition(_tree("linalg"), "Matrix")
    defined = {getattr(n, "name", None) for n in cls.body} | {
        t.id for n in cls.body if isinstance(n, ast.Assign)
        for t in n.targets if isinstance(t, ast.Name)}
    operators = {n for n in defined if n and n.startswith("__")
                 and n.endswith("__")} - MATRIX_PROTOCOL
    unlisted = sorted(operators - MATRIX_OPERATORS.keys())
    assert not unlisted, f"Matrix operators with no listed reader: {unlisted}"
    stale = sorted(MATRIX_OPERATORS.keys() - operators)
    assert not stale, f"listed Matrix operators that are gone: {stale}"
    linalg = importlib.import_module("liemod.linalg")
    unread = []
    for method, (reader, rows) in MATRIX_OPERATORS.items():
        calls = []
        op = getattr(linalg.Matrix, method)
        monkeypatch.setattr(linalg.Matrix, method,
                            lambda *args, op=op: calls.append(1) or op(*args))
        module, _, name = reader.partition(".")
        getattr(importlib.import_module(f"liemod.{module}"), name)(
            linalg.rmat(rows))
        if not calls:
            unread.append(f"{method} ({reader})")
    assert not unread, f"Matrix operators their reader does not apply: {unread}"


# fields nothing outside tests/ reads yet, and why each stays
UNREAD_FIELDS = {
    "HWModule.monomials": "tests/test_hwmod.py's BUILD_PINS digests hash "
    "it, pinning the order each module's basis is built in",
}


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


def test_every_record_field_is_read_outside_tests():
    # reads inside the class count: a property reading a field is a reader
    unread = _unread("field")
    unlisted = sorted(unread - UNREAD_FIELDS.keys())
    assert not unlisted, f"fields only tests read: {unlisted}"
    stale = sorted(UNREAD_FIELDS.keys() - unread)
    assert not stale, f"allowlisted fields that are gone or now read: {stale}"


# each unbounded cache and the domain of its keys; a cache keyed by modules
# or points must be bounded instead
UNBOUNDED_CACHES = {
    "rootsys.build_root_system": "one per type",
    "graded.structure_constants": "one per type",
    "packets._algebra": "n <= 5",
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


# the modules that may import ``fractions``, and why each needs rationals;
# root data, cells and packets compute on integers throughout
FRACTION_IMPORTS = {
    "linalg": "its kernels return rationals: solves, inverses, kernel "
    "bases and monic factors",
    "modality": "it rounds the miss bound up from an exact ratio",
}


def test_only_rational_kernels_import_fractions():
    found = {name for name in MODULES if _imports(_tree(name), "fractions")}
    unlisted = sorted(found - FRACTION_IMPORTS.keys())
    assert not unlisted, f"modules importing fractions: {unlisted}"
    stale = sorted(FRACTION_IMPORTS.keys() - found)
    assert not stale, f"allowlisted modules that no longer import it: {stale}"


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
