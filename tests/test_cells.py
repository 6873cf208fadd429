"""Cell enumeration against the set-partition oracle and sampling checks."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from liemod import cells
from liemod.rootsys import RootSystemType, build_root_system


def bell_number_via_partitions(n):
    """Count set partitions of {0..n-1} by direct recursive construction."""
    def extend(remaining, blocks):
        if not remaining:
            return 1
        first, rest = remaining[0], remaining[1:]
        total = extend(rest, blocks + [[first]])
        for b in blocks:
            b.append(first)
            total += extend(rest, blocks)
            b.pop()
        return total
    return extend(list(range(n)), [])


def type_a_functionals(rank):
    rs = build_root_system(RootSystemType("A", rank))
    return cells.root_functionals(rs)


@pytest.mark.parametrize("n,count", [(2, 2), (3, 5), (4, 15), (5, 52),
                                     (7, 877)])
def test_type_a_cell_counts_match_bell(n, count):
    assert bell_number_via_partitions(n) == count  # oracle agrees with pinned value
    fset = type_a_functionals(n - 1)
    assert len(cells.enumerate_cells(fset)) == count


def test_rank_one_has_two_cells():
    fset = type_a_functionals(1)
    cs = cells.enumerate_cells(fset)
    assert len(cs) == 2
    assert {frozenset(), frozenset({0})} == {c.flat for c in cs}
    assert {c.closure_dim for c in cs} == {0, 1}


def test_flats_are_span_closed():
    rs = build_root_system(RootSystemType("B", 2))
    fset = cells.root_functionals(rs)
    for c in cells.enumerate_cells(fset):
        assert cells._closure(fset, c.flat).flat == c.flat
        assert c.closure_dim == rs.rank - cells.linalg.rank(
            cells.linalg.rmat([fset.functionals[i] for i in c.flat]))


def test_cell_of_point_examples():
    fset = type_a_functionals(2)
    zero = cells.cell_of_point(fset, [0, 0])
    assert zero.flat == frozenset(range(3)) and zero.closure_dim == 0
    # a regular point: nothing vanishes
    regular = cells.cell_of_point(fset, [1, 5])
    assert regular.flat == frozenset() and regular.closure_dim == 2
    # first simple root vanishes on points with zero pairing against it
    rs = build_root_system(RootSystemType("A", 2))
    alpha1 = rs.root_weight_coords(rs.positive_roots[0])
    point = [alpha1[1], -alpha1[0]]
    on_wall = cells.cell_of_point(fset, point)
    assert len(on_wall.flat) == 1 and on_wall.closure_dim == 1
    with pytest.raises(ValueError):
        cells.cell_of_point(fset, [1, 2, 3])


def test_cells_partition_sampled_points():
    rng = random.Random(123)
    for name in ("A2", "A3", "B2", "G2"):
        rs = build_root_system(RootSystemType.parse(name))
        fset = cells.root_functionals(rs)
        enumerated = {c.flat: c for c in cells.enumerate_cells(fset)}
        for _ in range(250):
            v = [rng.randint(-8, 8) for _ in range(rs.rank)]
            found = cells.cell_of_point(fset, v)
            assert found.flat in enumerated  # exactly one cell contains v
            assert enumerated[found.flat].closure_dim == found.closure_dim


def test_closure_of_cell_is_union_of_smaller_flats():
    # points of the flat's subspace either realize the flat exactly or
    # annihilate some extra functional outside it
    rng = random.Random(31)
    rs = build_root_system(RootSystemType("A", 3))
    fset = cells.root_functionals(rs)
    for c in cells.enumerate_cells(fset):
        ker = cells._kernel(fset, c.flat)
        hit_cell = False
        for _ in range(40):
            coeffs = [rng.randint(-5, 5) for _ in ker]
            v = [sum(a * k[i] for a, k in zip(coeffs, ker))
                 for i in range(fset.ambient_dim)]
            vanish = fset.vanishing_set(v)
            assert vanish >= c.flat
            if vanish == c.flat:
                hit_cell = True
        if ker:
            assert hit_cell  # the cell is dense in its closure
        else:
            assert cells.cell_of_point(fset, [0] * rs.rank).flat == c.flat


def test_sample_point_in_cell_lands_in_cell():
    rng = random.Random(7)
    rs = build_root_system(RootSystemType("G", 2))
    fset = cells.root_functionals(rs)
    for c in cells.enumerate_cells(fset):
        v = cells.sample_point_in_cell(fset, c, rng)
        assert fset.vanishing_set(v) == c.flat


def test_e8_open_cell_is_sampled():
    # 120 root hyperplanes in rank 8: a point drawn from a fixed small box
    # lies on one of them too often for 60 tries to be safe
    rs = build_root_system(RootSystemType("E", 8))
    fset = cells.root_functionals(rs)
    open_cell = cells.Cell(frozenset(), 8)
    for seed in range(20):
        v = cells.sample_point_in_cell(fset, open_cell, random.Random(seed))
        assert fset.vanishing_set(v) == frozenset()
    d = cells.centralizer_data(rs, open_cell)
    assert (d.dim_centralizer, d.dim_center, d.dim_derived) == (8, 8, 0)

def test_centralizer_data_a2_cases():
    rs = build_root_system(RootSystemType("A", 2))
    fset = cells.root_functionals(rs)
    by_size = {}
    for c in cells.enumerate_cells(fset):
        by_size.setdefault(len(c.flat), []).append(c)
    open_cell = by_size[0][0]
    d = cells.centralizer_data(rs, open_cell)
    assert (d.dim_centralizer, d.dim_center, d.dim_derived) == (2, 2, 0)
    zero_cell = by_size[3][0]
    d = cells.centralizer_data(rs, zero_cell)
    assert (d.dim_centralizer, d.dim_center, d.dim_derived) == (8, 0, 8)
    for c in by_size[1]:
        d = cells.centralizer_data(rs, c)
        assert (d.dim_centralizer, d.dim_center, d.dim_derived) == (4, 1, 3)
        v = cells.sample_point_in_cell(fset, c, random.Random(0))
        assert len(fset.vanishing_set(v)) == 1


def test_centralizer_data_counts_sum():
    # centralizer dims are rank + both signs of each vanishing root
    rs = build_root_system(RootSystemType("B", 2))
    for c in cells.enumerate_cells(cells.root_functionals(rs)):
        d = cells.centralizer_data(rs, c)
        assert d.dim_centralizer == rs.rank + 2 * len(c.flat)
        assert d.dim_derived == d.dim_centralizer - c.closure_dim


def test_centralizer_data_rejects_foreign_cell():
    rs = build_root_system(RootSystemType("A", 2))
    with pytest.raises(ValueError):
        cells.centralizer_data(rs, cells.Cell(flat=frozenset({99}), closure_dim=1))
    # a non-span-closed subset is not a flat
    fset = cells.root_functionals(rs)
    full_rank_pair = frozenset({0, 1})
    assert cells._closure(fset, full_rank_pair).flat == frozenset({0, 1, 2})
    with pytest.raises(ValueError):
        cells.centralizer_data(rs, cells.Cell(flat=full_rank_pair, closure_dim=0))
    with pytest.raises(ValueError):
        cells.centralizer_data(
            rs, cells.Cell(flat=frozenset({0}), closure_dim=0))


def test_functional_set_validation():
    with pytest.raises(ValueError):
        cells.FunctionalSet(ambient_dim=2, functionals=())
    with pytest.raises(ValueError):
        cells.FunctionalSet(ambient_dim=2, functionals=((1, 2, 3),))
    fs = cells.FunctionalSet(ambient_dim=2, functionals=((1, 2), (0, 1)))
    assert fs.vanishing_set([2, -1]) == frozenset({0})


def test_point_of_wrong_length_is_an_error():
    fset = cells.root_functionals(build_root_system(RootSystemType("A", 3)))
    for point in ([1], [1, 2, 3, 4]):
        with pytest.raises(ValueError):
            fset.vanishing_set(point)


def fraction_rank(rows):
    """Rank by plain Fraction Gaussian elimination, independent of linalg."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def reference_closure(fset, indices):
    """Functionals that do not raise the rank of the given ones, and the
    dimension of the subspace where the given ones vanish."""
    base = [fset.functionals[i] for i in indices]
    r = fraction_rank(base)
    return cells.Cell(flat=frozenset(i for i, f in enumerate(fset.functionals)
                                     if fraction_rank(base + [f]) == r),
                      closure_dim=fset.ambient_dim - r)


@pytest.mark.parametrize("name", ["A4", "B3", "C3", "D4", "F4", "G2"])
def test_closure_matches_fraction_reference(name):
    rs = build_root_system(RootSystemType.parse(name))
    fset = cells.root_functionals(rs)
    nfun = len(fset.functionals)
    rng = random.Random(sum(map(ord, name)))
    for _ in range(40):
        size = rng.randint(0, rs.rank + 1)
        indices = frozenset(rng.sample(range(nfun), size))
        assert cells._closure(fset, indices) == reference_closure(fset, indices)


def test_closure_of_scaled_functionals():
    # integer rows, one a multiple of another, tested at a rational point
    fset = cells.FunctionalSet(ambient_dim=3, functionals=(
        (3, 2, 0), (6, 4, 0), (0, 5, 6), (3, 7, 6), (1, 0, 0)))
    for size in range(4):
        for indices in combinations(range(5), size):
            assert (cells._closure(fset, frozenset(indices))
                    == reference_closure(fset, indices))
    assert fset.vanishing_set([Fraction(2, 3), -1, Fraction(5, 6)]) == {0, 1, 2, 3}


def dowling_number(n, m=2):
    """Elements of the Dowling lattice Q_n of a group of order m: a zero
    block, and the other points split into blocks each labelled by one of
    m^(size-1) group labellings up to a common factor."""
    labelled = [1]  # labelled[k]: labelled set partitions of k points
    for k in range(1, n + 1):
        labelled.append(sum(comb(k - 1, s - 1) * m ** (s - 1) * labelled[k - s]
                            for s in range(1, k + 1)))
    return sum(comb(n, z) * labelled[n - z] for z in range(n + 1))


@pytest.mark.parametrize("n,count", [(2, 6), (3, 24), (4, 116), (5, 648)])
def test_types_b_and_c_cell_counts_are_dowling_numbers(n, count):
    assert dowling_number(n) == count
    for family in ("B", "C"):
        rs = build_root_system(RootSystemType(family, n))
        assert len(cells.enumerate_cells(cells.root_functionals(rs))) == count


def _flats_as_vectors(rs, vectors):
    fset = cells.root_functionals(rs)
    return {frozenset(vectors[i] for i in c.flat)
            for c in cells.enumerate_cells(fset)}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_types_b_and_c_have_the_same_flats(n):
    # beta -> beta^vee is linear up to a positive factor per root, and the
    # coroots of B_n are the roots of C_n: both name the same hyperplanes
    b = build_root_system(RootSystemType("B", n))
    c = build_root_system(RootSystemType("C", n))
    assert (_flats_as_vectors(b, b.positive_coroots)
            == _flats_as_vectors(c, c.positive_roots))


def test_type_a5_has_203_cells():
    assert bell_number_via_partitions(6) == 203
    assert len(cells.enumerate_cells(type_a_functionals(5))) == 203


@pytest.mark.parametrize("family,rank,flats", [("B", 4, 116), ("F", 4, 268)])
def test_enumeration_takes_one_kernel_per_flat(family, rank, flats,
                                               monkeypatch):
    # each flat's covers are read off its own kernel, and one more kernel
    # closes the empty set; closing every flat | {i} took 433 on B4
    fset = cells.root_functionals(build_root_system(
        RootSystemType(family, rank)))
    kernel, calls = cells.linalg.integer_kernel, []

    def counted(rows, ncols):
        calls.append(rows)
        return kernel(rows, ncols)

    monkeypatch.setattr(cells.linalg, "integer_kernel", counted)
    assert len(cells.enumerate_cells(fset)) == flats
    assert len(calls) == flats + 1
