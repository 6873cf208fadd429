"""The benchmark's workloads: what each runs, why, and how its verdicts are
checked.

Every workload is a closed loop with one caller: the next item starts when
the previous verdict is in.  ``tables`` and ``gradings`` run in one fresh
interpreter per pass; ``cli`` runs one fresh interpreter per command.  The
seed picks the program's sampling seed and, for ``gradings``, the Jordan
sweep's elements; the items themselves are fixed.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from oracles import (GRADINGS, TABLE_MODALITY, cell_count, jordan_failures,
                     root_degree, to_matrix)

# homogeneous elements per grading in the Jordan sweep; criterion 09 uses
# 100, which would more than double a pass
SWEEP_LENGTH = 10
TABLE_RANK_CUTOFF = 8
TABLE_ENTRIES = 63


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pass_s: float   # nominal length of one pass, sets passes per run


WORKLOADS = {w.name: w for w in (
    Workload("tables", "the paper's headline claim: all 63 m1-m3 table "
             "entries, dominated by module builds and rank on tall matrices",
             14.0),
    Workload("gradings", "criterion 07's 14 gradings plus a Jordan sweep: "
             "structure constants, char_poly and the Jordan decomposition",
             40.0),
    Workload("cli", "what a command-line user waits for: 12 commands, each "
             "a fresh process, many tiny-matrix calls in cells and packets",
             10.0),
)}

# (arguments, expected ``computed`` by item id; "*" means every item)
CLI_COMMANDS = [
    ("tables verify --list m3", {"*": TABLE_MODALITY["m3"]}),
    ("rep modality --type G2 --weight 0,1", {}),
    ("sl2 modality --summands 0,0,0", {}),
    ("cells count --type A3", {"cells:A3": cell_count("A", 3)}),
    ("grading rank --type A2 --m inf --labels 1,0", {}),
    ("packets enum --sln 4", {}),
    ("packets check --sln 3 --samples 200", {}),
    ("exmo --n 3 --d 2", {}),
    ("cells count --type A5", {"cells:A5": cell_count("A", 5)}),
    ("cells count --type B4", {"cells:B4": cell_count("B", 4)}),
    ("cells count --type C4", {"cells:C4": cell_count("C", 4)}),
    ("packets check --sln 4", {}),
]


class Item:
    """One verdict: its id, how long the program took, and what it said."""

    __slots__ = ("id", "ms", "output", "failures")

    def __init__(self, item_id):
        self.id = item_id
        self.ms = 0.0
        self.output = None
        self.failures = []


# ---------------------------------------------------------------------------
# tables

def tables_inputs():
    from liemod import modality
    return [e for name in TABLE_MODALITY
            for e in modality.table_entries(name, TABLE_RANK_CUTOFF)]


def tables_run(entries, seed, timed):
    from liemod import modality
    return [timed(e.entry_id,
                  lambda e=e: modality.verify_table_entry(e, seed=seed))
            for e in entries]


def tables_check(entries, items):
    if len(entries) != TABLE_ENTRIES:
        items[0].failures.append(
            f"expected {TABLE_ENTRIES} table entries, got {len(entries)}")
    for entry, item in zip(entries, items):
        want = TABLE_MODALITY[entry.table]
        res = item.output
        if res is None:
            continue
        if res.skipped:
            item.failures.append(f"skipped: {res.reason}")
        elif res.computed != want or entry.expected_modality != want:
            item.failures.append(f"computed {res.computed}, expected {want}")


# ---------------------------------------------------------------------------
# gradings

def gradings_inputs():
    from liemod.rootsys import RootSystemType
    return [(RootSystemType(f, r), m, labels or (1,) * r, expected)
            for f, r, m, labels, expected in GRADINGS]


def _degree_classes(ga, labels, m):
    classes = {}
    for idx, root in enumerate(ga.sc.root_of_index):
        classes.setdefault(root_degree(root, labels, m), []).append(idx)
    return classes


def gradings_run(gradings, seed, timed):
    """Per grading: one item builds it and finds its rank and Cartan
    subspace, then ``SWEEP_LENGTH`` items each decompose a seeded
    homogeneous element."""
    from liemod import graded
    items, cases = [], []
    for k, (rstype, m, labels, expected) in enumerate(gradings):
        spec = graded.GradingSpec(rstype, m, labels)

        def grading(spec=spec):
            ga = graded.build_grading(spec)
            return (ga, graded.rank_of_grading(ga, seed=seed),
                    len(graded.cartan_subspace(ga, seed=seed)))

        item = timed(f"grading:{spec.name}", grading)
        items.append(item)
        if item.output is None:
            continue
        ga = item.output[0]
        classes = _degree_classes(ga, spec.labels, spec.m)
        rng = random.Random(seed * 1000 + k)
        elements = []
        for _ in range(SWEEP_LENGTH):
            deg = rng.choice(sorted(classes))
            x = [Fraction(0)] * ga.dim
            for i in classes[deg]:
                x[i] = Fraction(rng.randint(-6, 6))
            elements.append((deg, x))
        sweep = [timed(f"jordan:{spec.name}:{j}",
                       lambda x=x: graded.decompose_graded_element(ga, x))
                 for j, (_, x) in enumerate(elements)]
        items.extend(sweep)
        cases.append((item, expected, classes, elements, sweep))
    return items, cases


def gradings_check(cases):
    for item, expected, classes, elements, sweep in cases:
        ga, rank, cartan = item.output
        if rank != expected or cartan != expected:
            item.failures.append(f"rank {rank}, Cartan subspace {cartan}, "
                                 f"expected {expected}")
        basis = [to_matrix(b) for b in ga.sc.module.full_basis]
        for (deg, x), el in zip(elements, sweep):
            if el.output is not None:
                s, n = el.output
                el.failures.extend(
                    jordan_failures(x, s, n, basis, set(classes[deg])))
