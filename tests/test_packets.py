import hashlib
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest

from liemod import linalg, modality, packets
from liemod.modality import ActionSpec, stabilizer_basis
from liemod.packets import (JordanTypeA, adjoint_orbit_dim,
                            classify_adjoint_typeA, conjugate_partition,
                            count_packets, enumerate_packets_adjoint_typeA,
                            gl_centralizer_dim, packet_dims,
                            packet_sanity_suite, partitions_of,
                            random_packet_point)


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
        n=p.n, jordan_type=p.jordan_type, cell=p.cell,
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
    x = linalg.zeros(2)
    x[0, 0] = 1  # trace 1
    with pytest.raises(ValueError):
        classify_adjoint_typeA(x)
    with pytest.raises(ValueError, match="matrix must be square"):
        classify_adjoint_typeA(linalg.rmat([[1, 2]]))


def test_classify_zero_and_nilpotent():
    z = linalg.zeros(3)
    assert classify_adjoint_typeA(z) == JordanTypeA(((3, (1, 1, 1)),))
    x = linalg.zeros(3)
    x[0, 1] = 1
    assert classify_adjoint_typeA(x) == JordanTypeA(((3, (2, 1)),))
    x[1, 2] = 1
    assert classify_adjoint_typeA(x) == JordanTypeA(((3, (3,)),))


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
    n = descriptor.n
    lams = packets._centered(sizes, rng.sample(range(-9, 10), len(sizes)))
    x = packets._representative_matrix(jt, lams)
    for _ in range(4):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        shear = linalg.eye(n)
        shear[i, j] = c
        inv = linalg.eye(n)
        inv[i, j] = -c
        x = shear @ x @ inv
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
    x = linalg.zeros(3)
    x[0, 0] = 2
    x[1, 1] = -1
    x[2, 2] = -1
    assert adjoint_orbit_dim(x) == 8 - 4


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sanity_suite(n):
    rep = packet_sanity_suite(n, samples=120, seed=7)
    assert rep.passed
    assert len(enumerate_packets_adjoint_typeA(n)) == count_packets(n)
    assert rep.max_modality == n - 1
    if n in (2, 3):
        assert rep.sheet_checks
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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bracket_map_matches_dense_fraction_reference(n):
    # the orbit matrix at x of sl_n's adjoint action, and of a centralizer's
    # inner action, has columns [b, x]: -1 times the dense [x, b]
    rng = random.Random(100 + n)
    for trial in range(6):
        x = _random_fraction_matrix(rng, n)
        if trial == 0:  # a rank-deficient map with a larger kernel
            x = [[Fraction(int(i == j) * (i % 2), 2) for j in range(n)]
                 for i in range(n)]
        xm = linalg.rmat(x)
        xx = [[sum(x[i][k] * x[k][j] for k in range(n)) for j in range(n)]
              for i in range(n)]
        # the cent case: a Fraction basis holding elements that commute with x
        cent = [xm, linalg.rmat(xx)] + [
            linalg.rmat(_random_fraction_matrix(rng, n)) for _ in range(2)]
        inner = ActionSpec(tuple(packets._ad(b) for b in cent))
        for basis, action in ((packets.sl_basis(n), packets._adjoint_action(n)),
                              (cent, inner)):
            got = modality._orbit_rows(action, xm.flat)
            ref = _dense_bracket_map(x, [b.rows for b in basis])
            # -1 times one positive scale for the whole map
            scale = next(g / r for gr, rr in zip(got, ref)
                         for g, r in zip(gr, rr) if r)
            assert scale < 0
            assert got == [[scale * r for r in row] for row in ref]
            assert all(type(v) is int for row in got for v in row)
            assert (linalg.rank(linalg.rmat(got))
                    == linalg.rank(linalg.rmat(ref)))
            got_ker = linalg.kernel_basis(linalg.rmat(got))
            ref_ker = linalg.kernel_basis(linalg.rmat(ref))
            assert [list(v) for v in got_ker] == [list(v) for v in ref_ker]
            assert ([list(v) for v in stabilizer_basis(action, [xm.flat])]
                    == [list(v) for v in ref_ker])
        assert adjoint_orbit_dim(xm) == linalg.rank(linalg.rmat(
            _dense_bracket_map(x, [b.rows for b in packets.sl_basis(n)])))


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
        assert [m.rows for m in center] == \
            _SL4_NILPOTENT_CENTERS[p.jordan_type.name]
        assert all(type(v) is Fraction for m in center for v in m.flat)


def test_center_of_centralizer_sheared_points_pinned():
    # sha256 of str() of every entry, for one random point of each sl3 and
    # sl4 packet (eigenvalues with denominators, sheared), taken from the
    # dense object-array bracket map
    out = []
    for n in (3, 4):
        rng = random.Random(5)
        for p in enumerate_packets_adjoint_typeA(n):
            x = random_packet_point(p, rng)
            out.append([[str(v) for v in m.flat]
                        for m in packets._center_of_centralizer(x)])
            out.append([str(v) for v in x.flat])
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "d3f5e3a36443579afa83ddc4cc50ca97446fdfe43de1aec707234c9f1682b0c8")
