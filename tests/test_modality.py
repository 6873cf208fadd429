"""Orbit dimension, modality, the rank-1 closed form, and the tables."""

import inspect
import random
from fractions import Fraction
from operator import mul

import pytest

from liemod import graded, linalg
from liemod import modality as mo
from liemod.hwmod import (IrrepSpec, enumerate_dominant_up_to_dim,
                          extend_to_full_algebra)
from liemod.rootsys import RootSystemType, build_root_system

P = mo.PRIME


def natural_a1_action():
    return mo.action_from_module(IrrepSpec(RootSystemType("A", 1), (1,)))


def test_stabilizer_dim_at_zero_vector():
    a = natural_a1_action()
    assert a.algebra_dim - mo.orbit_dim_at(a, [0, 0]) == a.algebra_dim == 3


def test_stabilizer_dim_at_examples():
    a = natural_a1_action()
    # the line through (1,0) is fixed by a single nilpotent direction
    assert a.algebra_dim - mo.orbit_dim_at(a, [1, 0]) == 1
    adj = mo.action_from_module(IrrepSpec(RootSystemType("A", 2), (1, 1)))
    rep = mo.generic_orbit_dim(adj)
    # generic centralizer is a Cartan
    assert adj.algebra_dim - rep.generic_orbit_dim == 2
    assert rep.generic_orbit_dim == 6


def test_generic_orbit_dim_trivial_action():
    z = linalg.zeros(4)
    a = mo.ActionSpec(matrices=(z, z))
    rep = mo.generic_orbit_dim(a)
    assert rep.generic_orbit_dim == 0
    assert a.algebra_dim - rep.generic_orbit_dim == 2
    assert rep.codimension == 4


@pytest.mark.parametrize("name", ["A2", "G2", "D4"])
def test_zero_weight_acts_trivially(name):
    rstype = RootSystemType.parse(name)
    a = mo.action_from_module(IrrepSpec(rstype, (0,) * rstype.rank))
    dim = rstype.rank + 2 * build_root_system(rstype).num_positive_roots
    assert (a.algebra_dim, a.space_dim) == (dim, 1)
    assert all(m == linalg.zeros(1) for m in a.matrices)
    rep = mo.generic_orbit_dim(a)
    assert (rep.generic_orbit_dim, rep.codimension) == (0, 1)
    assert mo.generic_orbit_dim(a).codimension == 1


def test_generic_orbit_dim_natural_and_cubics():
    assert mo.generic_orbit_dim(natural_a1_action()).generic_orbit_dim == 2
    cubics = mo.action_from_module(IrrepSpec(RootSystemType("A", 1), (3,)))
    assert mo.generic_orbit_dim(cubics).generic_orbit_dim == 3


def test_generic_orbit_dim_deterministic():
    a = mo.action_from_module(IrrepSpec(RootSystemType("A", 2), (1, 1)))
    r1 = mo.generic_orbit_dim(a, trials=4, seed=77)
    r2 = mo.generic_orbit_dim(a, trials=4, seed=77)
    assert r1 == r2


def test_action_spec_validation():
    z = linalg.zeros(3)
    for bad in ((), (z, linalg.zeros(4)), (linalg.zeros(3, 4),)):
        with pytest.raises(ValueError):
            mo.ActionSpec(matrices=bad)
    a = mo.ActionSpec(matrices=(z,))
    assert (a.algebra_dim, a.space_dim) == (1, 3)
    with pytest.raises(ValueError):
        a.algebra_dim - mo.orbit_dim_at(a, [1, 2])


def test_sl2_modality_closed_form_cases():
    assert mo.sl2_modality((3,)) == 1
    assert mo.sl2_modality((0, 0)) == 2
    assert mo.sl2_modality((2,)) == 1
    assert mo.sl2_modality((1,)) == 0
    assert mo.sl2_modality(()) == 0
    assert mo.sl2_modality((0, 1)) == 1
    assert mo.sl2_modality((0, 2)) == 2
    assert mo.sl2_modality((1, 1)) == 1
    assert mo.sl2_modality((4,)) == 2


def test_sl2_closed_form_matches_matrices_sample():
    for s in [(), (0,), (0, 0, 0), (1,), (2,), (3,), (1, 1), (2, 1),
              (0, 0, 2), (3, 2), (5,), (2, 2, 2)]:
        assert mo.sl2_modality(s) == mo.generic_orbit_dim(
            mo.sl2_action(s)).codimension, s


def test_modality_from_cover():
    assert mo.modality_from_cover([(3, 2)]) == 1
    pieces = [(3, 2), (2, 2), (0, 0)]
    assert mo.modality_from_cover(pieces) == 1
    assert mo.modality_from_cover(iter(pieces)) == 1
    with pytest.raises(ValueError, match="^cover must be nonempty$"):
        mo.modality_from_cover([])
    for bad in ((1, 2), (1, -1)):
        with pytest.raises(ValueError,
                           match=r"^need 0 <= orbit_dim <= closure_dim$"):
            mo.modality_from_cover([(3, 2), bad])
    # translating a cover by a fixed trivial factor of dimension k shifts
    # every closure dim by k and the answer by k
    k = 3
    shifted = [(closure + k, orbit) for closure, orbit in pieces]
    assert mo.modality_from_cover(shifted) == mo.modality_from_cover(pieces) + k


def test_table_expansion_counts():
    assert len(mo.table_entries("m1")) == 19
    assert len(mo.table_entries("m2")) == 36
    assert len(mo.table_entries("m3")) == 8
    assert len(mo.table_entries("all")) == 63
    with pytest.raises(ValueError):
        mo.table_entries("m4")
    # truncation is honored
    assert len(mo.table_entries("m1", rank_cutoff=5)) == 4 + 2 + 1 + 4


def test_table_parity_patterns():
    even = [e for e in mo.table_entries("m1")
            if e.rstype.family == "A" and e.weight.count(1) == 1
            and len(e.weight) > 1 and e.weight[1] == 1]
    assert {e.rstype.rank for e in even} == {4, 6, 8}
    odd = [e for e in mo.table_entries("m2")
           if e.rstype.family == "A" and len(e.weight) > 1 and e.weight[1] == 1]
    assert {e.rstype.rank for e in odd} == {3, 5, 7}


def test_verify_table_entry_spot_cases():
    cases = [("C", 2, (0, 1), 1), ("G", 2, (0, 1), 2), ("D", 5, (0, 0, 0, 0, 1), 0)]
    for fam, rank, w, exp in cases:
        entry = mo.TableEntry(RootSystemType(fam, rank), w, exp, "spot")
        res = mo.verify_table_entry(entry)
        assert not res.skipped
        assert res.computed == exp


def test_verify_table_entry_ceiling_skip():
    entry = mo.TableEntry(RootSystemType("A", 1), (9,), 0, "spot")
    res = mo.verify_table_entry(entry, ceiling=5)
    assert res.skipped and res.computed != entry.expected_modality
    assert res.computed is None and res.orbit_dim is None
    assert "ceiling" in res.reason


@pytest.mark.parametrize("weight,ceiling", [((0, 0, 1), 256), ((0, 0, 2), 5)])
def test_verify_table_entry_runs_weyl_dim_once(monkeypatch, weight, ceiling):
    # a fresh build, then a skip: the entry's dimension comes from one
    # Weyl formula either way
    from liemod import hwmod
    mo.verify_table_entry(mo.TableEntry(RootSystemType("A", 1), (1,), 0, "x"))
    calls = []
    weyl_dim = hwmod.weyl_dim

    def counting(spec):
        calls.append(spec)
        return weyl_dim(spec)

    for module in (hwmod, mo):
        if hasattr(module, "weyl_dim"):
            monkeypatch.setattr(module, "weyl_dim", counting)
    entry = mo.TableEntry(RootSystemType("B", 3), weight, 0, "x")
    res = mo.verify_table_entry(entry, ceiling=ceiling)
    assert len(calls) == 1
    assert res.dim_v == weyl_dim(IrrepSpec(entry.rstype, weight))
    assert res.skipped == (res.dim_v > ceiling)


def test_lookup_normalizes_through_dual():
    assert mo.lookup_expected_modality(RootSystemType("A", 2), (3, 0)).table == "m3"
    assert mo.lookup_expected_modality(RootSystemType("A", 2), (0, 3)).table == "m3"
    # the tables list one spin node of the rank-5 orthogonal type; the dual
    # node must resolve to the same record
    d5 = RootSystemType("D", 5)
    assert mo.lookup_expected_modality(d5, (0, 0, 0, 1, 0)).expected_modality == 0
    assert mo.lookup_expected_modality(d5, (0, 0, 0, 0, 1)).expected_modality == 0
    a3 = RootSystemType("A", 3)
    assert mo.lookup_expected_modality(a3, (0, 0, 2)).table == "m2"
    assert mo.lookup_expected_modality(a3, (1, 1, 1)) is None
    assert mo.lookup_expected_modality(RootSystemType("B", 3), (0, 1, 0)) is None


def test_lookup_respects_diagram_automorphisms():
    # half-spin modules of D4 are triality images of the tabled natural
    # module; the D6 spin nodes are swapped by the outer automorphism
    d4 = RootSystemType("D", 4)
    for w in ((0, 0, 0, 1), (0, 0, 1, 0)):
        entry = mo.lookup_expected_modality(d4, w)
        assert entry.expected_modality == 1 and entry.weight == w
    d6 = RootSystemType("D", 6)
    assert mo.lookup_expected_modality(d6, (0, 0, 0, 0, 1, 0)).expected_modality == 1
    # the middle node of D4 is fixed by every automorphism
    assert mo.lookup_expected_modality(d4, (0, 1, 0, 0)) is None


def _record_lookup(rstype, weight):
    """The lookup as it matched the raw records of the type's family in
    table order, with no expansion."""
    weight = tuple(int(c) for c in weight)
    candidates = build_root_system(rstype).diagram_orbit(weight)
    raw = mo.load_raw_tables()
    for name in ("m1", "m2", "m3"):
        for record in raw[name]:
            if (record["family"] == rstype.family
                    and rstype.rank in mo._record_ranks(record, rstype.rank)
                    and mo._record_weight(record, rstype.rank) in candidates):
                return mo.TableEntry(rstype, weight, record["modality"], name)
    return None


@pytest.mark.parametrize("name", [
    *(f"A{r}" for r in range(1, 9)), *(f"B{r}" for r in range(3, 7)),
    *(f"C{r}" for r in range(2, 7)), *(f"D{r}" for r in range(4, 7)),
    "E6", "F4", "G2"])
def test_lookup_matches_the_expanded_tables(name):
    rstype = RootSystemType.parse(name)
    rs = build_root_system(rstype)
    dim_g = rs.rank + 2 * len(rs.positive_roots)
    weights = set()
    for w in enumerate_dominant_up_to_dim(rstype, dim_g + 2):
        weights |= rs.diagram_orbit(w)
    found = {w: mo.lookup_expected_modality(rstype, w) for w in weights}
    assert found == {w: _record_lookup(rstype, w) for w in weights}
    assert any(found.values())  # the natural module is tabled for each


def test_lookup_matches_the_record_matcher():
    tabled = {}
    for entry in mo.table_entries(rank_cutoff=8):
        tabled.setdefault(entry.rstype, set()).add(entry.weight)
    types = [RootSystemType(f, r) for f, lo, hi in (
        ("A", 1, 8), ("B", 2, 8), ("C", 2, 8), ("D", 4, 8), ("E", 6, 8),
        ("F", 4, 4), ("G", 2, 2)) for r in range(lo, hi + 1)]
    misses = 0
    for rstype in types:
        rs = build_root_system(rstype)
        # every tabled weight, its diagram images, and two untabled ones
        weights = {(3,) * rstype.rank, (0,) * (rstype.rank - 1) + (9,)}
        for w in tabled.get(rstype, ()):
            weights |= rs.diagram_orbit(w)
        for w in weights:
            got = mo.lookup_expected_modality(rstype, w)
            assert got == _record_lookup(rstype, w), (rstype, w)
            misses += got is None
    assert tabled.keys() <= set(types) and misses >= len(types)


def test_lookup_respects_family_patterns():
    # arbitrary high rank still matches the family records
    assert mo.lookup_expected_modality(RootSystemType("A", 11), (1,) + (0,) * 10).table == "m1"
    assert mo.lookup_expected_modality(RootSystemType("A", 10), (0, 1) + (0,) * 8).table == "m1"
    assert mo.lookup_expected_modality(RootSystemType("A", 11), (0, 1) + (0,) * 9).table == "m2"
    assert mo.lookup_expected_modality(RootSystemType("B", 2), (1, 0)) is None


def test_sum_of_copies_check():
    r = mo.sum_of_copies_check(3, 2)
    assert r.regular_sheet_modality == 0 and r.open_orbit_found
    assert r.family_orbit_dim == 3
    assert r.family_lower_bound == 1
    assert not r.modality_regular

    r = mo.sum_of_copies_check(4, 3)
    assert r.regular_sheet_modality == 0
    assert r.family_lower_bound == 2
    assert not r.modality_regular

    with pytest.raises(ValueError):
        mo.sum_of_copies_check(2, 2)
    with pytest.raises(ValueError):
        mo.sum_of_copies_check(3, 1)
    with pytest.raises(ValueError):
        mo.sum_of_copies_check(3, 3)


def test_orbit_dim_bounds_random():
    rng = random.Random(5)
    a = mo.action_from_module(IrrepSpec(RootSystemType("B", 2), (1, 0)))
    for _ in range(10):
        v = [rng.randint(-6, 6) for _ in range(a.space_dim)]
        od = mo.orbit_dim_at(a, v)
        assert 0 <= od <= min(a.algebra_dim, a.space_dim)


def test_orbit_dim_invariant_under_scaling():
    # clearing denominators scales columns of the orbit matrix; the rank
    # must match the one of the plain rational orbit matrix.  On binary
    # cubics the generic orbit is open, so every column counts.
    rng = random.Random(11)
    for rstype, weight in ((RootSystemType("A", 1), (3,)),
                           (RootSystemType("G", 2), (1, 0))):
        a = mo.action_from_module(IrrepSpec(rstype, weight))
        points = [[1] + [0] * (a.space_dim - 1)]
        points += [[rng.randint(-3, 3) for _ in range(a.space_dim)]
                   for _ in range(3)]
        for k in range(a.algebra_dim):
            mats = list(a.matrices)
            mats[k] = linalg.rmat(
                [[v * Fraction(1, 3) for v in r] for r in mats[k]])
            scaled = mo.ActionSpec(matrices=tuple(mats))
            for v in points:
                half = [Fraction(x, 2) for x in v]
                # one row per algebra element: its image m v of v
                dense = [[sum(map(mul, r, half)) for r in m] for m in mats]
                od = mo.orbit_dim_at(a, v)
                assert (mo.orbit_dim_at(scaled, half) == od ==
                        linalg.rank(linalg.rmat(dense)))


def _rank_cross_check_actions():
    actions = [(e.entry_id,
                mo.action_from_module(IrrepSpec(e.rstype, e.weight)))
               for e in mo.table_entries("m3")]
    e7 = RootSystemType("E", 7)
    actions.append(("E7:omega7", mo.action_from_module(
        IrrepSpec(e7, (0, 0, 0, 0, 0, 0, 1)))))
    for rstype in (RootSystemType("B", 3), RootSystemType("G", 2)):
        spec = graded.GradingSpec(rstype, 1, (1,) * rstype.rank)
        actions.append((spec.name, graded.build_grading(spec).g0_on_g1))
    return actions


def test_orbit_dim_mod_p_equals_exact_rank():
    # the exact cross-check of the sampling over F_p: at the same seeded
    # integer point, the rank mod p equals the Bareiss rank over Q
    rng = random.Random(mo.DEFAULT_SEED)
    for name, a in _rank_cross_check_actions():
        v = [rng.randint(-10, 10) for _ in range(a.space_dim)]
        exact = mo.orbit_dim_at(a, v)
        assert exact == mo.orbit_dim_at(a, v, P), name
        assert exact == mo.generic_orbit_dim(a).generic_orbit_dim, name


def test_open_orbit_stops_after_one_trial():
    cubics = mo.action_from_module(IrrepSpec(RootSystemType("A", 1), (3,)))
    rep = mo.generic_orbit_dim(cubics, trials=5)
    assert rep.generic_orbit_dim == 3 == min(cubics.space_dim,
                                             cubics.algebra_dim)
    assert rep.trials_used == 1 and rep.miss_bound == 0


def test_miss_bound_without_an_open_orbit():
    # the adjoint action of sl3 has orbits of dimension 6 < 8 = min(dims),
    # so every trial runs and each contributes a factor 8/p
    adj = mo.action_from_module(IrrepSpec(RootSystemType("A", 2), (1, 1)))
    rep = mo.generic_orbit_dim(adj, trials=3)
    assert rep.generic_orbit_dim == 6 and rep.trials_used == 3
    assert rep.codimension == 2
    assert rep.miss_bound >= (8 / P) ** 3 > 0
    assert rep.miss_bound == pytest.approx((8 / P) ** 3, rel=1e-12)
    one = mo.generic_orbit_dim(adj)
    assert one.trials_used == mo.DEFAULT_TRIALS == 1
    assert one.miss_bound == pytest.approx(8 / P, rel=1e-12)


def test_sum_of_copies_family_orbits_have_dimension_n():
    # sum_of_copies_check states the family's numbers by its argument:
    # every point (v, c_1 v, ...) with v != 0 has an orbit of dimension n.
    # Check that over Q at seeded integer points, and the report against it
    rng = random.Random(mo.DEFAULT_SEED)
    for n in range(3, 7):
        natural = (1,) + (0,) * (n - 2)
        basis = extend_to_full_algebra(
            IrrepSpec(RootSystemType("A", n - 1), natural)).full_basis
        for d in range(2, n):
            a = mo.ActionSpec([linalg.block_diag([m] * d) for m in basis])
            for _ in range(3):
                v = [0] * n
                while not any(v):
                    v = [rng.randint(-5, 5) for _ in range(n)]
                cs = [1] + [rng.randint(-5, 5) for _ in range(d - 1)]
                point = [c * x for c in cs for x in v]
                assert mo.orbit_dim_at(a, point) == n, (n, d, point)
            r = mo.sum_of_copies_check(n, d)
            assert (r.family_dim, r.family_orbit_dim) == (n + d - 1, n)
            assert r.family_lower_bound == d - 1
            assert r.open_orbit_found and r.regular_sheet_modality == 0
            assert r.modality_regular is False


def test_rank_of_grading_uses_the_library_defaults():
    params = inspect.signature(graded.rank_of_grading).parameters
    assert params["trials"].default == mo.DEFAULT_TRIALS
    assert params["seed"].default == mo.DEFAULT_SEED
