"""Acceptance suite: ten headline checks, one test and one printed line each.

Everything is exact rational arithmetic with zero tolerance; randomness
only enters genericity sampling, which runs with fixed seeds and
max-over-trials so the suite is deterministic end to end.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest

from liemod import cells, graded, linalg, modality, packets
from liemod.hwmod import IrrepSpec, build_hw_module, weyl_dim
from liemod.modality import (modality_from_cover, sl2_action, sl2_modality,
                             table_entries, verify_table_entry)
from liemod.rootsys import RootSystemType, build_root_system

SEED = modality.DEFAULT_SEED


def _report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _verify_table(which, expected_value):
    results = [verify_table_entry(e) for e in table_entries(which)]
    skipped = [r for r in results if r.skipped]
    wrong = [r for r in results if not r.skipped
             and r.computed != expected_value]
    return results, skipped, wrong


def test_criterion_01_modality_zero_table():
    results, skipped, wrong = _verify_table("m1", 0)
    _report(1, not skipped and not wrong,
            f"{len(results)} entries (families up to rank 8) all computed "
            f"modality 0; skipped={len(skipped)} wrong={len(wrong)}")


def test_criterion_02_modality_one_table():
    results, skipped, wrong = _verify_table("m2", 1)
    _report(2, not skipped and not wrong,
            f"{len(results)} entries all computed modality 1; "
            f"skipped={len(skipped)} wrong={len(wrong)}")


def test_criterion_03_modality_two_table():
    results, skipped, wrong = _verify_table("m3", 2)
    named = {("A", 1, (4,)), ("G", 2, (0, 1)), ("F", 4, (0, 0, 0, 1))}
    seen = {(e.rstype.family, e.rstype.rank, e.weight)
            for e, _ in zip(table_entries("m3"), results)}
    ok = (len(results) == 8 and not skipped and not wrong
          and named <= seen)
    _report(3, ok, f"all {len(results)} entries computed modality 2, "
            f"including the three spotlighted ones")


def test_criterion_04_rank_one_closed_form_sweep():
    # every multiset of irreducible summands with total dimension <= 12;
    # summand of highest weight n has dimension n+1, so multisets are
    # partitions of m <= 12 shifted down by one
    cases = 0
    mismatches = []
    for total in range(1, 13):
        seen = set()

        def partitions(rem, mx, pre):
            if rem == 0:
                seen.add(tuple(pre))
                return
            for part in range(min(rem, mx), 0, -1):
                partitions(rem - part, part, pre + [part])

        partitions(total, total, [])
        for dims in seen:
            summands = tuple(d - 1 for d in dims)
            closed = sl2_modality(summands)
            action = sl2_action(summands)
            from_matrices = modality.generic_orbit_dim(
                action, trials=5, seed=SEED).codimension
            cases += 1
            if closed != from_matrices:
                mismatches.append(summands)
    _report(4, cases >= 200 and not mismatches,
            f"{cases} summand multisets, closed form == matrix computation "
            f"in every case")


def test_criterion_05_cell_counts_and_disjoint_cover():
    bell = {2: 2, 3: 5, 4: 15, 5: 52}
    rng = random.Random(SEED)
    ok = True
    detail = []
    for n in range(2, 6):
        rs = build_root_system(RootSystemType("A", n - 1))
        fset = cells.root_functionals(rs)
        all_cells = cells.enumerate_cells(fset)
        count_ok = len(all_cells) == bell[n]
        flats = [c.flat for c in all_cells]
        cover_ok = True
        for _ in range(1000):
            point = [Fraction(rng.randint(-6, 6)) for _ in range(n - 1)]
            vanishing = fset.vanishing_set(point)
            if sum(1 for f in flats if f == vanishing) != 1:
                cover_ok = False
        ok = ok and count_ok and cover_ok
        detail.append(f"n={n}:{len(all_cells)}")
    _report(5, ok, "cell counts " + ", ".join(detail) +
            " match Bell numbers; 1000-point sampling finds exactly one "
            "containing cell per point")


def test_criterion_06_packet_counts_dims_and_max_modality():
    expected_counts = {2: 3, 3: 6}

    def oracle(n):
        total = 0
        for sizes in packets.partitions_of(n):
            ways = 1
            for s in set(sizes):
                m = sizes.count(s)
                ways *= comb(len(packets.partitions_of(s)) + m - 1, m)
            total += ways
        return total

    expected_counts[4] = oracle(4)
    ok = True
    details = []
    for n in (2, 3, 4):
        descs = packets.enumerate_packets_adjoint_typeA(n)
        count_ok = len(descs) == expected_counts[n]
        dims_ok = all(packets.packet_dims(p) == (p.closure_dim, p.modality)
                      for p in descs)
        agg = modality_from_cover(
            [(p.closure_dim, p.orbit_dim) for p in descs])
        agg_ok = agg == n - 1
        ok = ok and count_ok and dims_ok and agg_ok
        details.append(f"n={n}:{len(descs)} packets, max modality {agg}")
    _report(6, ok, "; ".join(details) +
            "; dims recomputed from representative matrices in every case")


CRIT7_GRADINGS = (
    [(RootSystemType(f, r), 1, None, r)
     for f, ranks in (("A", (1, 2, 3, 4)), ("B", (2, 3, 4)),
                      ("C", (2, 3, 4)), ("D", (4,)), ("G", (2,)))
     for r in ranks]
    + [(RootSystemType("A", 2), None, (1, 0), 0),
       (RootSystemType("A", 1), 2, (1,), 1)]
)


def _grading_for(rstype, m, labels):
    if labels is None:
        labels = (1,) * rstype.rank
    return graded.build_grading(graded.GradingSpec(rstype, m, labels))


def test_criterion_07_grading_ranks_and_cartan_subspaces():
    ok = True
    lines = []
    for rstype, m, labels, expected in CRIT7_GRADINGS:
        ga = _grading_for(rstype, m, labels)
        rank = graded.rank_of_grading(ga, trials=5, seed=SEED)
        cart = len(graded.cartan_subspace(ga, seed=SEED))
        good = rank == expected and cart == rank
        ok = ok and good
        lines.append(f"{ga.spec.name}:{rank}/{cart}")
    _report(7, ok, f"{len(CRIT7_GRADINGS)} gradings, rank and commuting-"
            f"semisimple-family dimension agree everywhere "
            f"({'; '.join(lines)})")


def test_criterion_08_copies_of_natural_module():
    rep = modality.sum_of_copies_check(3, 2, trials=5, seed=SEED)
    ok = (rep.regular_sheet_modality == 0 and rep.open_orbit_found
          and rep.family_lower_bound == 1 and not rep.modality_regular)
    _report(8, ok, "two copies of the rank-2 natural module: open orbit, "
            "regular-sheet modality 0, proportional-pair family forces "
            "modality >= 1, flagged not modality-regular")


def test_criterion_09_jordan_chevalley_sweep():
    checked = 0
    failures = 0
    for rstype, m, labels, _ in CRIT7_GRADINGS:
        ga = _grading_for(rstype, m, labels)
        rng = random.Random(SEED + ga.dim)
        degrees = sorted(ga.components)
        for _ in range(100):
            deg = rng.choice(degrees)
            x = graded.random_homogeneous_element(ga, deg, rng)
            s, n = graded.decompose_graded_element(ga, x)
            allowed = set(ga.components[deg])
            ms = ga.sc.element_matrix(s)
            mn = ga.sc.element_matrix(n)
            sf = linalg.squarefree_part(linalg.char_poly(ms))
            size = mn.shape[0]
            nil_chi = linalg.char_poly(mn)
            good = (
                all(a + b == Fraction(c) for a, b, c in zip(s, n, x))
                and not any(ga.sc.bracket_coords(s, n))
                and all(c == 0 for c in nil_chi[:size])
                and linalg.is_zero_matrix(linalg.poly_eval_matrix(sf, ms))
                and all(i in allowed for i, c in enumerate(s) if c)
                and all(i in allowed for i, c in enumerate(n) if c))
            checked += 1
            if not good:
                failures += 1
    _report(9, failures == 0,
            f"{checked} homogeneous elements across {len(CRIT7_GRADINGS)} "
            f"gradings: sum, commuting, nilpotent, squarefree-minimal-"
            f"polynomial, and homogeneity checks all exact; "
            f"failures={failures}")


MONOTONE_TYPES = [RootSystemType(f, r) for f, r in
                  [("A", 1), ("A", 3), ("B", 3), ("C", 3), ("D", 4),
                   ("E", 6), ("F", 4), ("G", 2)]]


def test_criterion_10_dimension_formula_cross_checks():
    # every module the table criteria built, plus the rank-one sweep sizes
    specs = []
    for which in ("m1", "m2", "m3"):
        for entry in table_entries(which):
            if weyl_dim(IrrepSpec(entry.rstype, entry.weight)) <= 256:
                specs.append(IrrepSpec(entry.rstype, entry.weight))
    a1 = RootSystemType("A", 1)
    specs.extend(IrrepSpec(a1, (n,)) for n in range(1, 12))
    built_ok = all(build_hw_module(s).dimension == weyl_dim(s)
                   for s in specs)

    rng = random.Random(SEED)
    mono_ok = True
    pairs = 0
    for rstype in MONOTONE_TYPES:
        r = rstype.rank
        for _ in range(100):
            base = tuple(rng.randint(0, 3) for _ in range(r))
            delta = [0] * r
            while not any(delta):
                delta = [rng.randint(0, 2) for _ in range(r)]
            larger = tuple(b + d for b, d in zip(base, delta))
            lo = weyl_dim(IrrepSpec(rstype, base))
            hi = weyl_dim(IrrepSpec(rstype, larger))
            pairs += 1
            if not hi > lo:
                mono_ok = False
    _report(10, built_ok and mono_ok,
            f"{len(specs)} constructed modules match the dimension formula; "
            f"strict monotonicity on {pairs} comparable weight pairs")
