import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest

from liemod import graded, linalg, modality, packets
from liemod.packets import (JordanTypeA, adjoint_orbit_dim,
                            classify_adjoint_typeA, conjugate_partition,
                            count_packets, enumerate_packets_adjoint_typeA,
                            gl_centralizer_dim, packet_dims,
                            packet_sanity_suite, partitions_of,
                            random_packet_point)
from liemod.rootsys import RootSystemType


def oracle_count(n):
    # independent of count_packets: same formula assembled by hand from
    # multisets of partitions chosen per multiplicity
    def parts(k):
        if k == 0:
            return [()]
        res = set()

        def rec(rem, mx, pre):
            if rem == 0:
                res.add(tuple(pre))
                return
            for p in range(min(rem, mx), 0, -1):
                rec(rem - p, p, pre + [p])

        rec(k, k, [])
        return sorted(res)

    total = 0
    for sizes in parts(n):
        ways = 1
        for s in set(sizes):
            m = sizes.count(s)
            ways *= comb(len(parts(s)) + m - 1, m)
        total += ways
    return total


def test_partitions_small():
    assert partitions_of(0) == [()]
    assert partitions_of(1) == [(1,)]
    assert partitions_of(4) == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]


def test_conjugate_partition():
    assert conjugate_partition(()) == ()
    assert conjugate_partition((3, 1)) == (2, 1, 1)
    assert conjugate_partition((2, 2, 1)) == (3, 2)
    # involution
    for mu in partitions_of(6):
        assert conjugate_partition(conjugate_partition(mu)) == mu


def test_gl_centralizer_dim():
    assert gl_centralizer_dim((1,)) == 1
    assert gl_centralizer_dim((2,)) == 2      # regular nilpotent in gl2
    assert gl_centralizer_dim((1, 1)) == 4    # zero matrix in gl2
    assert gl_centralizer_dim((2, 1)) == 5


@pytest.mark.parametrize("n,expected", [(2, 3), (3, 6), (4, 14), (5, 27)])
def test_packet_counts(n, expected):
    assert count_packets(n) == expected
    assert oracle_count(n) == expected
    assert len(enumerate_packets_adjoint_typeA(n)) == expected


def test_enumeration_range_validation():
    with pytest.raises(ValueError):
        enumerate_packets_adjoint_typeA(1)
    with pytest.raises(ValueError):
        enumerate_packets_adjoint_typeA(6)


def test_jordan_type_canonical_order():
    a = JordanTypeA(((1, (1,)), (2, (2,))))
    b = JordanTypeA(((2, (2,)), (1, (1,))))
    assert a == b
    assert a.block_data[0] == (2, (2,))
    with pytest.raises(ValueError):
        JordanTypeA(((2, (1,)),))


def test_sl2_packets_by_hand():
    # regular semisimple, regular nilpotent, zero
    ps = enumerate_packets_adjoint_typeA(2)
    dims = sorted((p.orbit_dim, p.closure_dim, p.modality) for p in ps)
    assert dims == [(0, 0, 0), (2, 2, 0), (2, 3, 1)]


def test_sl3_packet_dims_by_hand():
    ps = {p.jordan_type: p for p in enumerate_packets_adjoint_typeA(3)}
    reg_ss = JordanTypeA(((1, (1,)), (1, (1,)), (1, (1,))))
    reg_nilp = JordanTypeA(((3, (3,)),))
    subreg = JordanTypeA(((3, (2, 1)),))
    zero = JordanTypeA(((3, (1, 1, 1)),))
    mixed = JordanTypeA(((2, (1, 1)), (1, (1,))))
    mixed_nilp = JordanTypeA(((2, (2,)), (1, (1,))))
    assert (ps[reg_ss].orbit_dim, ps[reg_ss].modality) == (6, 2)
    assert (ps[reg_nilp].orbit_dim, ps[reg_nilp].modality) == (6, 0)
    assert (ps[subreg].orbit_dim, ps[subreg].modality) == (4, 0)
    assert (ps[zero].orbit_dim, ps[zero].modality) == (0, 0)
    assert (ps[mixed].orbit_dim, ps[mixed].modality) == (4, 1)
    assert (ps[mixed_nilp].orbit_dim, ps[mixed_nilp].modality) == (6, 1)
    assert max(p.modality for p in ps.values()) == 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_packet_dims_recompute(n):
    for p in enumerate_packets_adjoint_typeA(n):
        assert packet_dims(p) == (p.closure_dim, p.modality)


def test_packet_dims_rejects_tampered_descriptor():
    p = enumerate_packets_adjoint_typeA(2)[0]
    bad = packets.PacketDescriptor(
        jordan_type=p.jordan_type, cell=p.cell,
        orbit_dim=p.orbit_dim + 1, closure_dim=p.closure_dim,
        modality=p.modality, representative=p.representative)
    with pytest.raises(ValueError):
        packet_dims(bad)


def test_representative_traceless_and_distinct_eigenvalues():
    for n in (2, 3, 4, 5):
        for p in enumerate_packets_adjoint_typeA(n):
            x = p.representative
            assert sum(x[i, i] for i in range(n)) == 0
            diag = sorted({x[i, i] for i in range(n)})
            assert len(diag) == p.jordan_type.num_blocks


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_classification_roundtrip(n):
    for p in enumerate_packets_adjoint_typeA(n):
        assert classify_adjoint_typeA(p.representative) == p.jordan_type


def test_classify_validates_input():
    x = linalg.rmat([[1, 0], [0, 0]])  # trace 1
    with pytest.raises(ValueError):
        classify_adjoint_typeA(x)
    with pytest.raises(ValueError, match="matrix must be square"):
        classify_adjoint_typeA(linalg.rmat([[1, 2]]))


def test_classify_zero_and_nilpotent():
    z = linalg.zeros(3)
    assert classify_adjoint_typeA(z) == JordanTypeA(((3, (1, 1, 1)),))
    x = [[0] * 3 for _ in range(3)]
    x[0][1] = 1
    assert classify_adjoint_typeA(linalg.rmat(x)) == \
        JordanTypeA(((3, (2, 1)),))
    x[1][2] = 1
    assert classify_adjoint_typeA(linalg.rmat(x)) == JordanTypeA(((3, (3,)),))


def test_classify_conjugation_invariant():
    rng = random.Random(5)
    for n in (3, 4):
        for p in enumerate_packets_adjoint_typeA(n):
            y = random_packet_point(p, rng)
            assert classify_adjoint_typeA(y) == p.jordan_type
            assert adjoint_orbit_dim(y) == p.orbit_dim


def _product_packet_point(descriptor, rng):
    """``random_packet_point`` with each shear as two dense products,
    ``shear @ x @ inverse``."""
    jt = descriptor.jordan_type
    sizes = [s for s, _ in jt.block_data]
    n = jt.n
    lams = packets._centered(sizes, rng.sample(range(-9, 10), len(sizes)))
    x = packets._representative_matrix(jt, lams)
    for _ in range(4):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        shear, inv = linalg.eye(n).rows, linalg.eye(n).rows
        shear[i][j], inv[i][j] = c, -c
        x = linalg.rmat(shear) @ x @ linalg.rmat(inv)
    return x


@pytest.mark.parametrize("n", [2, 3, 4])
def test_packet_point_shears_match_the_product_form(n):
    for seed in range(5):
        for p in enumerate_packets_adjoint_typeA(n):
            got = random_packet_point(p, random.Random(seed))
            assert got == _product_packet_point(p, random.Random(seed))


def test_cells_attached_to_packets():
    # k eigenvalue groups -> cell of closure dimension k-1
    for n in (2, 3, 4):
        for p in enumerate_packets_adjoint_typeA(n):
            assert p.cell.closure_dim == p.jordan_type.num_blocks - 1
            assert p.closure_dim == p.orbit_dim + p.cell.closure_dim
            assert p.modality == p.cell.closure_dim


def test_orbit_dim_semisimple_vs_formula():
    # diag(2,-1,-1) has centralizer gl1 x gl2 intersect sl3: dim 4
    x = linalg.rmat([[2, 0, 0], [0, -1, 0], [0, 0, -1]])
    assert adjoint_orbit_dim(x) == 8 - 4


# (closure_dim, orbit_dim) of each sheet and the packet it matches: one
# sheet per partition lambda of n, largest first, of orbit dimension
# n^2 - gl_centralizer_dim(lambda) and lambda_1 - 1 more parameters
_SHEETS = {
    2: [((3, 2), "1:[1] | 1:[1]"), ((0, 0), "2:[1, 1]")],
    3: [((8, 6), "1:[1] | 1:[1] | 1:[1]"), ((5, 4), "2:[1, 1] | 1:[1]"),
        ((0, 0), "3:[1, 1, 1]")],
    4: [((15, 12), "1:[1] | 1:[1] | 1:[1] | 1:[1]"),
        ((12, 10), "2:[1, 1] | 1:[1] | 1:[1]"),
        ((9, 8), "2:[1, 1] | 2:[1, 1]"), ((7, 6), "3:[1, 1, 1] | 1:[1]"),
        ((0, 0), "4:[1, 1, 1, 1]")],
}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sanity_suite(n):
    rep = packet_sanity_suite(n, samples=120, seed=7)
    assert rep.passed
    assert len(enumerate_packets_adjoint_typeA(n)) == count_packets(n)
    assert rep.max_modality == n - 1
    assert [(c.sheet, c.matched_packet) for c in rep.sheet_checks] \
        == _SHEETS[n]
    assert all(c.point_orbit_dims_constant for c in rep.sheet_checks)


def test_sanity_suite_range():
    with pytest.raises(ValueError):
        packet_sanity_suite(5)


def test_kernel_profile_uniqueness_up_to_n5():
    # the classifier relies on kernel profiles separating partition
    # multisets within each squarefree factor; verify exhaustively for
    # every (degree, multiplicity) split that fits in n <= 5
    for e in range(2, 6):
        for d in range(1, 5 // e + 1):
            seen = {}
            for multiset in combinations_with_replacement(partitions_of(e), d):
                profile = tuple(
                    sum(sum(min(part, k + 1) for part in mu) for mu in multiset)
                    for k in range(e))
                assert profile not in seen, (e, d, multiset, seen[profile])
                seen[profile] = multiset


@pytest.mark.parametrize("samples", [1, 0, -5])
def test_sanity_suite_needs_samples(samples):
    # the identity check compares samples in pairs; one sample makes none
    with pytest.raises(ValueError, match="in pairs"):
        packet_sanity_suite(3, samples=samples)


def _random_fraction_matrix(rng, n):
    return [[Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 6]))
             for _ in range(n)] for _ in range(n)]


def _without_trace(x):
    """n x - tr(x) I on nested lists: traceless, with the brackets of n x."""
    n = len(x)
    trace = sum(x[i][i] for i in range(n))
    return [[n * v - trace * (i == j) for j, v in enumerate(row)]
            for i, row in enumerate(x)]


def _dense_bracket_map(x, basis):
    """Columns [x, b] by plain Fraction products on nested lists."""
    n = len(x)

    def prod(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    cols = []
    for b in basis:
        xb, bx = prod(x, b), prod(b, x)
        cols.append([xb[i][j] - bx[i][j] for i in range(n) for j in range(n)])
    return [list(row) for row in zip(*cols)]


def _sl_basis(n):
    """Off-diagonal matrix units, then differences of consecutive diagonal
    units, as nested lists."""
    def unit(*entries):
        m = [[0] * n for _ in range(n)]
        for i, j, v in entries:
            m[i][j] = v
        return m

    return ([unit((i, j, 1)) for i in range(n) for j in range(n) if i != j]
            + [unit((k, k, 1), (k + 1, k + 1, -1)) for k in range(n - 1)])


def _fraction_kernel(rows, ncols):
    """Kernel by plain Fraction Gauss-Jordan elimination, independent of
    linalg: one vector per free column, 1 there and 0 at the other free
    columns."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = next((i for i in range(len(pivots), len(rows)) if rows[i][c]),
                 None)
        if r is None:
            continue
        k = len(pivots)
        rows[k], rows[r] = rows[r], rows[k]
        rows[k] = [x / rows[k][c] for x in rows[k]]
        for i in range(len(rows)):
            if i != k and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
        pivots.append(c)
    out = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for k, pc in enumerate(pivots):
            v[pc] = -rows[k][fc]
        out.append(v)
    return out


def _combine(coeffs, mats):
    """The nested-list matrix sum of c * m over coefficients and matrices."""
    n = len(mats[0])
    return [[sum(c * m[i][j] for c, m in zip(coeffs, mats))
             for j in range(n)] for i in range(n)]


def _dense_centralizer(x):
    """Basis of x's centralizer in sl_n: the Fraction kernel of the dense
    bracket map on the test-local basis, as nested-list matrices."""
    basis = _sl_basis(len(x))
    return [_combine(v, basis) for v in
            _fraction_kernel(_dense_bracket_map(x, basis), len(basis))]


def _dense_center(x):
    """Basis of the center of x's centralizer: the combinations u of the
    centralizer's basis with [c, u] = 0 for every c in it."""
    cent = _dense_centralizer(x)
    rows = [row for c in cent for row in _dense_bracket_map(c, cent)]
    return [_combine(v, cent) for v in _fraction_kernel(rows, len(cent))]


def _as_matrices(n, coord_vectors):
    """Nested-list matrices of coordinate vectors in the root-space basis
    of type A_{n-1}."""
    sc = graded.structure_constants(RootSystemType("A", n - 1))
    return [sc.element_matrix(v).rows for v in coord_vectors]


def _rank(vectors):
    return linalg.rank(linalg.rmat(vectors)) if vectors else 0


def _same_basis_span(mats, refs):
    """Whether two lists of independent matrices span one space."""
    a = [[v for row in m for v in row] for m in mats]
    b = [[v for row in m for v in row] for m in refs]
    return _rank(a) == len(a) == len(b) == _rank(b) == _rank(a + b)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bracket_map_matches_dense_fraction_reference(n):
    # the orbit matrix at x of the shared adjoint action has columns
    # [x_a, x] in root-space coordinates; the dense map has columns [x, b]
    # in flattened matrix entries, over the test-local basis.  Rank, the
    # centralizer they cut out and its center agree on traceless matrices.
    rng = random.Random(100 + n)
    action = packets._algebra(n).g0_on_g1
    for trial in range(6):
        x = _random_fraction_matrix(rng, n)
        if trial == 0:  # a rank-deficient map with a larger kernel
            x = [[Fraction(int(i == j) * (i % 2), 2) for j in range(n)]
                 for i in range(n)]
        x = _without_trace(x)
        xm = linalg.rmat(x)
        got = modality._orbit_rows(action, packets._coords(xm))
        ref = _dense_bracket_map(x, _sl_basis(n))
        assert all(type(v) is int for row in got for v in row)
        assert _rank(got) == _rank(ref) == adjoint_orbit_dim(xm)
        kernel = linalg.integer_kernel(got, action.algebra_dim)
        assert _same_basis_span(_as_matrices(n, kernel), _dense_centralizer(x))
        assert _same_basis_span(
            _as_matrices(n, packets._center_of_centralizer(xm)),
            _dense_center(x))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_grading_action_is_ad_of_the_bracket_table(n):
    # m = 1 puts every index in both g_0 and g_1, in index order, so the
    # degree-zero action on degree one is ad of each basis element: the
    # matrix with the columns of its bracket-table row
    sc = graded.structure_constants(RootSystemType("A", n - 1))
    ga = packets._algebra(n)
    assert ga.sc is sc
    assert ga.g1_indices == ga.components[0] == tuple(range(sc.dim))
    ref = [linalg.Matrix.from_columns(row, sc.dim) for row in sc.bracket]
    assert list(ga.g0_on_g1.matrices) == ref
    assert [m.nonzeros() for m in ga.g0_on_g1.matrices] \
        == [m.nonzeros() for m in ref]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_orbit_dim_ignores_the_trace(n):
    # x, x + c I and x - c I bracket alike, and so does n y - tr(y) I, n
    # times y's traceless part, for each of them y: all have x's orbit
    # dimension.  Only traceless matrices are taken; y with a nonzero trace
    # lies outside the algebra and is refused.
    rng = random.Random(200 + n)
    for trial in range(4):
        x = _random_fraction_matrix(rng, n)
        if trial == 0:  # a scalar plus one nilpotent block of size 2
            x = [[Fraction(int(i == j), 3) + int(j == i + 1 == 1)
                  for j in range(n)] for i in range(n)]
        c = Fraction(rng.randint(1, 9), rng.choice([1, 2, 7]))
        dim = _rank(_dense_bracket_map(x, _sl_basis(n)))
        for shift in (0, c, -c):
            y = [[v + shift * (i == j) for j, v in enumerate(row)]
                 for i, row in enumerate(x)]
            if sum(y[i][i] for i in range(n)):
                with pytest.raises(ValueError, match="algebra's image"):
                    adjoint_orbit_dim(linalg.rmat(y))
            assert adjoint_orbit_dim(linalg.rmat(_without_trace(y))) == dim
    with pytest.raises(ValueError, match="algebra's image"):
        adjoint_orbit_dim(linalg.eye(n))
    assert adjoint_orbit_dim(linalg.zeros(n)) == 0


# center of the centralizer of each nilpotent sl4 representative, as
# computed by the dense object-array bracket map
_SL4_NILPOTENT_CENTERS = {
    "4:[4]": [[[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
              [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
              [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]],
    "4:[3, 1]": [[[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
                 [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]],
    "4:[2, 2]": [[[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]],
    "4:[2, 1, 1]": [[[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0],
                     [0, 0, 0, 0]]],
    "4:[1, 1, 1, 1]": [],
}


def test_center_of_centralizer_sl4_nilpotents_pinned():
    nilpotent = [p for p in enumerate_packets_adjoint_typeA(4)
                 if p.jordan_type.num_blocks == 1]
    assert len(nilpotent) == len(_SL4_NILPOTENT_CENTERS)
    for p in nilpotent:
        center = packets._center_of_centralizer(p.representative)
        assert _same_basis_span(_as_matrices(4, center),
                                _SL4_NILPOTENT_CENTERS[p.jordan_type.name])


def test_center_of_centralizer_sheared_points_pinned():
    # one random point of each sl3 and sl4 packet (eigenvalues with
    # denominators, sheared)
    for n in (3, 4):
        rng = random.Random(5)
        for p in enumerate_packets_adjoint_typeA(n):
            x = random_packet_point(p, rng)
            assert _same_basis_span(
                _as_matrices(n, packets._center_of_centralizer(x)),
                _dense_center(x.rows))
