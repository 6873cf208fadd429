"""Packets (Jordan classes) in the adjoint traceless matrix algebra.

Two traceless matrices belong to the same packet when their semisimple
parts have the same eigenvalue-coincidence pattern and their nilpotent
parts have matching Jordan blocks over corresponding eigenvalues.  The
invariant is a multiset of (multiplicity, partition) pairs, one per
eigenvalue; the eigenvalues themselves move freely inside the packet's
cell, which is why a packet of k eigenvalue groups contributes k-1
parameters of modality on top of its constant orbit dimension.

Everything concrete here is partition combinatorics: packets are
enumerated and classified for n up to 5 without any polynomial factoring,
using only squarefree decomposition and exact rank profiles.  Orbit
dimensions and centralizers are taken in the m = 1 grading of type A_{n-1},
which is this algebra acting on itself.
"""

import random
from collections import namedtuple
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb
from operator import mul
from typing import NamedTuple

from . import cells, linalg
from .graded import GradingSpec, build_grading, centralizer_slice
from .modality import CoverPiece, modality_from_cover, orbit_dim_at
from .rootsys import RootSystemType, build_root_system

__all__ = [
    "JordanTypeA", "PacketDescriptor", "SheetCheck", "SanityReport",
    "partitions_of", "conjugate_partition", "gl_centralizer_dim",
    "count_packets", "enumerate_packets_adjoint_typeA", "packet_dims",
    "classify_adjoint_typeA", "random_packet_point", "packet_sanity_suite",
    "adjoint_orbit_dim",
]


def partitions_of(k):
    """Partitions of k as descending tuples, lexicographically sorted."""
    if k == 0:
        return [()]
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            rec(remaining - p, p, prefix + [p])

    rec(k, k, [])
    return sorted(out)


def conjugate_partition(mu):
    if not mu:
        return ()
    return tuple(sum(1 for p in mu if p > j) for j in range(mu[0]))


def gl_centralizer_dim(mu):
    """Centralizer dimension of a single nilpotent Jordan block pattern."""
    return sum(c * c for c in conjugate_partition(mu))


class JordanTypeA(namedtuple("JordanTypeA", "block_data")):
    """Multiset of (eigenvalue multiplicity, Jordan partition) pairs."""

    __slots__ = ()

    def __new__(cls, block_data):
        data = tuple(sorted(((int(s), tuple(p)) for s, p in block_data),
                            key=lambda bp: (-bp[0], bp[1])))
        for size, part in data:
            if sum(part) != size:
                raise ValueError("partition does not sum to its block size")
        return super().__new__(cls, data)

    _make = classmethod(lambda cls, args: cls(*args))  # _replace via __new__

    @property
    def n(self):
        return sum(s for s, _ in self.block_data)

    @property
    def num_blocks(self):
        return len(self.block_data)

    @property
    def name(self):
        return " | ".join(f"{s}:{list(p)}" for s, p in self.block_data)


class PacketDescriptor(NamedTuple):
    n: int
    jordan_type: JordanTypeA
    cell: cells.Cell
    orbit_dim: int
    closure_dim: int
    modality: int
    representative: object  # traceless matrix with this Jordan type


def count_packets(n):
    """Independent combinatorial count: choose a multiset of partitions for
    every multiset of eigenvalue multiplicities summing to n."""
    total = 0
    for sizes in partitions_of(n):
        ways = 1
        for s in set(sizes):
            m = sizes.count(s)
            ways *= comb(len(partitions_of(s)) + m - 1, m)
        total += ways
    return total


def _centered(sizes, raw):
    """The distinct values ``raw``, one per block of the given sizes, times
    n = sum(sizes) and shifted by their size-weighted sum, so that the
    size-weighted sum of the ints returned is zero.  Scaling keeps which
    values coincide, and with it the cell and the orbit dimensions."""
    n, total = sum(sizes), sum(map(mul, sizes, raw))
    return [c * n - total for c in raw]


def _representative_matrix(jt, eigenvalues):
    n = jt.n
    rows = [[0] * n for _ in range(n)]
    off = 0
    for (size, part), lam in zip(jt.block_data, eigenvalues):
        for p in part:
            for i in range(p):
                rows[off + i][off + i] = lam
                if i + 1 < p:
                    rows[off + i][off + i + 1] = 1
            off += p
    return linalg.Matrix(rows)


def _cell_of_eigenvalues(n, sizes, eigenvalues):
    rs = build_root_system(RootSystemType("A", n - 1))
    fset = cells.root_functionals(rs)
    eig_list = []
    for s, lam in zip(sizes, eigenvalues):
        eig_list.extend([lam] * s)
    point = [sum(eig_list[: j + 1]) for j in range(n - 1)]  # coroot coords
    return cells.cell_of_point(fset, point)


def enumerate_packets_adjoint_typeA(n):
    """All packets of the rank n-1 traceless algebra, one descriptor each."""
    if not 2 <= n <= 5:
        raise ValueError("supported range is 2 <= n <= 5")
    out = []
    for sizes in partitions_of(n):
        per_size = [
            [tuple(zip([s] * sizes.count(s), choice)) for choice in
             combinations_with_replacement(partitions_of(s), sizes.count(s))]
            for s in sorted(set(sizes), reverse=True)]
        for choices in product(*per_size):
            jt = JordanTypeA(sum(choices, ()))
            k = jt.num_blocks
            orbit = n * n - sum(gl_centralizer_dim(p) for _, p in jt.block_data)
            block_sizes = [s for s, _ in jt.block_data]
            eigenvalues = _centered(block_sizes, range(k))
            cell = _cell_of_eigenvalues(n, block_sizes, eigenvalues)
            if cell.closure_dim != k - 1:
                raise AssertionError(f"{jt.name}: cell of dimension "
                                     f"{cell.closure_dim}, not {k - 1}")
            rep = _representative_matrix(jt, eigenvalues)
            if sum(rep[i, i] for i in range(n)):
                raise AssertionError(f"{jt.name}: trace is not zero")
            out.append(PacketDescriptor(
                n=n, jordan_type=jt, cell=cell, orbit_dim=orbit,
                closure_dim=orbit + (k - 1), modality=k - 1,
                representative=rep))
    out.sort(key=lambda p: (-p.closure_dim, p.jordan_type.block_data))
    return out


@lru_cache(maxsize=None)
def _algebra(n):
    """The traceless n x n matrices as the m = 1 grading of type A_{n-1}:
    every index lies in g_0 and in g_1, so ``g0_on_g1`` is the algebra
    acting on itself by brackets in the root-space basis, matrix a with
    column b ``[x_a, x_b]``, and the orbit matrix at x has column
    ``[x_a, x]``."""
    return build_grading(GradingSpec(RootSystemType("A", n - 1), 1,
                                     (0,) * (n - 1)))


def _coords(x):
    """Coordinates of a traceless matrix in the root-space basis: such
    matrices are the image of the structure module, the n-dimensional one
    of type A_{n-1}.  A matrix with nonzero trace lies outside it, and the
    expansion's residual check raises ValueError."""
    return _algebra(x.shape[0]).sc.expand_matrix(x)


def adjoint_orbit_dim(x):
    """Exact orbit dimension of a traceless matrix under conjugation."""
    return orbit_dim_at(_algebra(x.shape[0]).g0_on_g1, _coords(x))


def packet_dims(p):
    """Recompute (closure_dim, modality) from the representative matrix.

    The orbit dimension comes from the bracket-map rank, independent of the
    partition combinatorics used at enumeration time; a mismatch means the
    descriptor is inconsistent and raises.
    """
    orbit = adjoint_orbit_dim(p.representative)
    if orbit != p.orbit_dim:
        raise ValueError(
            f"descriptor orbit dim {p.orbit_dim} but matrix gives {orbit}")
    cell_dim = p.cell.closure_dim
    return orbit + cell_dim, cell_dim


def classify_adjoint_typeA(x):
    """Jordan type of a traceless matrix, without polynomial factoring.

    Squarefree decomposition groups eigenvalues by algebraic multiplicity e;
    inside one group the multiset of Jordan partitions is recovered from the
    kernel profile of powers, which pins it down uniquely for n <= 5.  An
    ambiguous profile (possible only for larger n) raises rather than guess.
    """
    n = x.shape[0]
    if x.shape != (n, n):
        raise ValueError("matrix must be square")
    if sum(x[i, i] for i in range(n)) != 0:
        raise ValueError("matrix must be traceless")
    p = linalg.char_poly(x)
    blocks = []
    for factor, e in linalg.squarefree_decomposition(p):
        d = linalg.poly_degree(factor)
        if e == 1:
            blocks.extend([(1, (1,))] * d)
            continue
        fmat = linalg.poly_eval_matrix(factor, x)
        profile = []
        power = linalg.eye(n)
        for _ in range(e):
            power = power @ fmat
            profile.append(n - linalg.rank(power))
        matches = []
        for multiset in combinations_with_replacement(partitions_of(e), d):
            ok = all(
                sum(sum(min(part, k + 1) for part in mu) for mu in multiset)
                == profile[k]
                for k in range(e))
            if ok:
                matches.append(multiset)
        if len(matches) != 1:
            raise RuntimeError(
                f"kernel profile {profile} matches {len(matches)} partition "
                f"multisets; classification is ambiguous at this size")
        blocks.extend((e, mu) for mu in matches[0])
    return JordanTypeA(tuple(blocks))


def random_packet_point(descriptor, rng):
    """A random member of the packet: fresh distinct eigenvalues with the
    same multiplicities and partitions, conjugated by four unimodular
    shears.  The conjugate (1 + c E_ij) x (1 - c E_ij) is formed on x's
    rows: row i gains c times row j, then column j loses c times column i."""
    jt = descriptor.jordan_type
    sizes = [s for s, _ in jt.block_data]
    n = descriptor.n
    lams = _centered(sizes, rng.sample(range(-9, 10), len(sizes)))
    rows = _representative_matrix(jt, lams).rows
    for _ in range(4):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        for r in rows:
            r[j] -= c * r[i]
    return linalg.Matrix(rows)


def _center_of_centralizer(x):
    """Coordinates of a basis of the center of the centralizer of x in the
    traceless algebra: the centralizer of x, cut down to what commutes
    with each of its own basis elements."""
    sc = _algebra(x.shape[0]).sc
    units = [[int(i == k) for i in range(sc.dim)] for k in range(sc.dim)]
    center = cent = centralizer_slice(sc, _coords(x), units)
    for b in cent:
        center = centralizer_slice(sc, b, center)
    return center


class SheetCheck(NamedTuple):
    sheet: tuple
    matched_packet: str
    point_orbit_dims_constant: bool


class SanityReport(NamedTuple):
    n: int
    samples: int
    coverage_ok: bool
    max_modality: int
    aggregator_ok: bool
    identity_ok: bool
    sheet_checks: tuple
    sheets_ok: bool
    regular_center_ok: bool

    @property
    def passed(self):
        return (self.coverage_ok and self.aggregator_ok and self.identity_ok
                and self.sheets_ok and self.regular_center_ok)


def packet_sanity_suite(n, samples=200, seed=2024):
    """Sampling verification of the structural facts about packets.

    Checks, in order: every random traceless matrix classifies into an
    enumerated packet; the cover aggregator over all packets returns the
    algebra rank; two samples share a packet exactly when centralizer
    dimension and coincidence pattern agree; each of Kraft's sheets, one
    per partition lambda of n, with orbit dimension n^2 minus lambda's
    centralizer dimension and lambda_1 - 1 more parameters, matches a unique
    packet closure; and for nilpotent representatives, the center of the
    centralizer meets the orbit-dimension bound with equality.
    """
    if not 2 <= n <= 4:
        raise ValueError("supported range is 2 <= n <= 4")
    if samples < 2:
        raise ValueError("samples must be at least 2: the identity check "
                         "compares them in pairs")
    rng = random.Random(seed)
    packets = enumerate_packets_adjoint_typeA(n)
    by_type = {p.jordan_type: p for p in packets}

    coverage_ok = True
    sampled = []
    for _ in range(samples):
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        rows[n - 1][n - 1] = -sum(rows[i][i] for i in range(n - 1))
        x = linalg.rmat(rows)
        jt = classify_adjoint_typeA(x)
        if jt not in by_type:
            coverage_ok = False
        sampled.append((x, jt))

    max_modality = modality_from_cover(
        [CoverPiece(p.closure_dim, p.orbit_dim) for p in packets])
    aggregator_ok = max_modality == n - 1

    # same packet <=> same centralizer dim and same coincidence pattern
    identity_ok = True
    for (x, jtx), (y, jty) in zip(sampled[0::2], sampled[1::2]):
        same_packet = jtx == jty
        same_invariants = (
            adjoint_orbit_dim(x) == adjoint_orbit_dim(y)
            and sorted(s for s, _ in jtx.block_data)
            == sorted(s for s, _ in jty.block_data))
        if same_packet != same_invariants:
            identity_ok = False

    sheet_checks = []
    sheets_ok = True
    for lam in reversed(partitions_of(n)):
        odim = n * n - gl_centralizer_dim(lam)
        cdim = odim + lam[0] - 1
        sheet = (cdim, odim)
        hits = [p for p in packets
                if p.closure_dim == cdim and p.orbit_dim == odim]
        if len(hits) != 1:
            sheets_ok = False
            sheet_checks.append(SheetCheck(sheet, "<unmatched>", False))
            continue
        p = hits[0]
        dims_constant = all(
            adjoint_orbit_dim(random_packet_point(p, rng)) == p.orbit_dim
            for _ in range(10))
        sheets_ok = sheets_ok and dims_constant
        sheet_checks.append(SheetCheck(sheet, p.jordan_type.name, dims_constant))

    regular_center_ok = True
    action = _algebra(n).g0_on_g1
    for p in packets:
        if p.jordan_type.num_blocks != 1:
            continue  # nilpotent packets only (single eigenvalue zero)
        x = p.representative
        x_orbit = adjoint_orbit_dim(x)
        center = _center_of_centralizer(x)
        best = 0
        for _ in range(12):
            coeffs = [rng.randint(-5, 5) for _ in center]
            y = [sum(map(mul, coeffs, col)) for col in zip(*center)]
            od = orbit_dim_at(action, y) if center else 0  # x = 0 only
            if od > x_orbit:
                regular_center_ok = False
            best = max(best, od)
        if best != x_orbit:
            regular_center_ok = False

    return SanityReport(n=n, samples=samples, coverage_ok=coverage_ok,
                        max_modality=max_modality, aggregator_ok=aggregator_ok,
                        identity_ok=identity_ok,
                        sheet_checks=tuple(sheet_checks), sheets_ok=sheets_ok,
                        regular_center_ok=regular_center_ok)
