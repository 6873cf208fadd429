"""Cyclic and integer gradings of the simple Lie algebras.

A grading is induced by nonnegative degree labels on the simple roots: the
degree of a root is the label-weighted sum of its coordinates, reduced mod m
when m is finite, and the Cartan sits in degree zero.  The degree-zero
component acts on the degree-one component; the rank of the grading is the
number of parameters of a generic orbit of that action, equal to the
dimension of a maximal commuting semisimple subspace of the degree-one part.

Structure constants are computed once per algebra type from a faithful
matrix construction of the smallest available module and cached.  Brackets
are sparse commutators of the basis matrices, and coordinates are read off
the root-space structure rather than solved for.  A nonzero entry (i, j) of
the root vector x_beta joins module basis vectors whose weights differ by
beta, and no other basis element is nonzero there, so each root vector has
one fixed probe entry and its coordinate is the ratio of the matrix's entry
there to the root vector's.  Only the Cartan generators reach the diagonal;
their coordinates come from one rank-by-rank solve on the diagonal entries
at basis vectors of independent weight.  Every expansion then rebuilds the
matrix from its coordinates and compares it with the input over every
nonzero entry of either, so a closure failure or a matrix outside the
algebra is an error, never a silent wrong answer.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from . import linalg
from .hwmod import IrrepSpec, _sparse_comm, extend_to_full_algebra
from .modality import (DEFAULT_SEED, DEFAULT_TRIALS, ActionSpec,
                       generic_orbit_dim)
from .rootsys import RootSystemType, build_root_system

__all__ = [
    "GradingSpec", "GradedAlgebra", "JordanPair", "StructureConstants",
    "structure_constants", "build_grading", "rank_of_grading",
    "jordan_chevalley", "decompose_graded_element", "cartan_subspace",
    "random_homogeneous_element", "killing_gram",
]

# node of the fundamental weight of the smallest convenient faithful module,
# the first node unless listed; the last exceptional type only has its own
# algebra, so its structure constants are the costliest
_FAITHFUL_NODE = {("F", 4): 3, ("E", 7): 6, ("E", 8): 7}


def _entries(cols):
    """Nonzero entries, keyed by (row, column), of a matrix in sparse
    columns."""
    return {(i, j): v for j, col in enumerate(cols) for i, v in col.items()}


class StructureConstants:
    """Bracket table of a simple algebra in its root-space basis.

    Basis order: Cartan generators, then raising vectors by root height,
    then the matching lowering vectors.  ``bracket[a][b]`` is a sparse dict
    mapping basis index to coefficient.
    """

    def __init__(self, rstype):
        self.rstype = rstype
        rs = build_root_system(rstype)
        node = _FAITHFUL_NODE.get((rstype.family, rstype.rank), 0)
        spec = IrrepSpec(rstype, [int(i == node) for i in range(rstype.rank)])
        mod = extend_to_full_algebra(spec)
        self.module = mod
        self.dim = len(mod.full_basis)
        assert self.dim == rs.dimension
        self.basis_names = mod.basis_names
        r = rs.rank
        pos = rs.positive_roots
        self.root_of_index = tuple(
            [None] * r + list(pos) + [tuple(-c for c in b) for b in pos])

        self._n = mod.dimension
        cols = [m.columns() for m in mod.full_basis]
        self._entries = [_entries(c) for c in cols]
        # a root vector owns every position where it is nonzero
        self._probes = [next(iter(e.items())) for e in self._entries[r:]]
        # Cartan coordinates: diagonals at r basis vectors of independent weight
        rows = []
        for k, w in enumerate(mod.weights):
            if len(rows) == r:
                break
            cand = [mod.weights[i] for i in rows] + [w]
            if linalg.rank(linalg.rmat(cand)) > len(rows):
                rows.append(k)
        self._diag_rows = rows
        self._diag_inverse = linalg.inverse(
            linalg.rmat([mod.weights[k] for k in rows]))

        self.bracket = [[{} for _ in range(self.dim)] for _ in range(self.dim)]
        for a in range(self.dim):
            for b in range(a + 1, self.dim):
                comm = _sparse_comm(cols[a], cols[b])
                coords = self._coords(_entries(comm))
                entry = {c: v for c, v in enumerate(coords) if v}
                self.bracket[a][b] = entry
                self.bracket[b][a] = {c: -v for c, v in entry.items()}

    def _coords(self, entries):
        """Coordinates of the matrix with nonzero ``entries`` ((i, j) ->
        value): Cartan part from the diagonal, one probe read per root
        vector, then a residual check over every nonzero entry of the
        matrix and of its reconstruction."""
        diag = [entries.get((k, k), 0) for k in self._diag_rows]
        coords = [Fraction(sum(map(mul, row, diag)))
                  for row in self._diag_inverse]
        coords += [Fraction(entries.get(p, 0)) / v for p, v in self._probes]
        recon = {}
        for c, basis_entries in zip(coords, self._entries):
            if c:
                for p, v in basis_entries.items():
                    recon[p] = recon.get(p, 0) + c * v
        if any(recon.get(p, 0) != entries.get(p, 0)
               for p in recon.keys() | entries.keys()):
            raise ValueError("matrix does not lie in the algebra's image")
        return coords

    def expand_matrix(self, m):
        """Coordinates of a module matrix in the algebra basis; exact, with
        a residual check so non-members raise instead of mis-expanding."""
        return self._coords(_entries(m.columns()))

    def element_matrix(self, coords):
        out = linalg.zeros(self._n)
        rows = out.rows
        for c, basis_entries in zip(coords, self._entries):
            if c:
                for (i, j), v in basis_entries.items():
                    rows[i][j] += c * v
        return out

    def bracket_coords(self, u, v):
        out = [Fraction(0)] * self.dim
        for a, ca in enumerate(u):
            if not ca:
                continue
            row = self.bracket[a]
            for b, cb in enumerate(v):
                if not cb:
                    continue
                for c, s in row[b].items():
                    out[c] += ca * cb * s
        return out


@lru_cache(maxsize=None)
def structure_constants(rstype):
    return StructureConstants(rstype)


def killing_gram(rstype):
    """Trace form of the adjoint representation on the root-space basis."""
    sc = structure_constants(rstype)
    n = sc.dim
    gram = linalg.zeros(n)
    for a in range(n):
        for b in range(a, n):
            total = Fraction(0)
            for c in range(n):
                row = sc.bracket[a][c]
                if not row:
                    continue
                other = sc.bracket[b]
                for d, s in row.items():
                    total += s * other[d].get(c, 0)
            gram[a, b] = total
            gram[b, a] = total
    return gram


@dataclass(frozen=True)
class GradingSpec:
    """Degree labels on the simple roots, mod m (None means integer degrees)."""

    rstype: RootSystemType
    m: object
    labels: tuple

    def __post_init__(self):
        labels = tuple(int(x) for x in self.labels)
        if len(labels) != self.rstype.rank:
            raise ValueError("need one label per simple root")
        if any(x < 0 for x in labels):
            raise ValueError("labels must be nonnegative")
        if self.m is not None:
            if not isinstance(self.m, int) or self.m < 1:
                raise ValueError("m must be a positive integer or None")
            labels = tuple(x % self.m for x in labels)
        object.__setattr__(self, "labels", labels)

    def degree_of_root(self, beta):
        d = sum(x * l for x, l in zip(beta, self.labels))
        return d % self.m if self.m is not None else d

    @property
    def name(self):
        mm = "Z" if self.m is None else f"Z{self.m}"
        return f"{self.rstype.name}:{mm}:{','.join(map(str, self.labels))}"


@dataclass
class GradedAlgebra:
    spec: GradingSpec
    sc: StructureConstants
    degree_of_basis: tuple
    components: dict
    g0_indices: tuple
    g1_indices: tuple
    g0_on_g1: ActionSpec

    @property
    def dim(self):
        return self.sc.dim

    def degree_of_root(self, beta):
        return self.spec.degree_of_root(beta)


def build_grading(spec):
    """Assemble the graded algebra for a label vector.

    Verifies bracket degree additivity on every pair of basis elements, so a
    wrong degree map cannot survive construction.
    """
    sc = structure_constants(spec.rstype)
    degs = tuple(0 if root is None else spec.degree_of_root(root)
                 for root in sc.root_of_index)

    components = {}
    for idx, d in enumerate(degs):
        components.setdefault(d, []).append(idx)
    components = {d: tuple(v) for d, v in sorted(components.items())}

    for a in range(sc.dim):
        for b in range(sc.dim):
            target = degs[a] + degs[b]
            if spec.m is not None:
                target %= spec.m
            for c in sc.bracket[a][b]:
                assert degs[c] == target, \
                    f"bracket breaks grading: [{a},{b}] hits degree {degs[c]}"

    one = 1 % spec.m if spec.m is not None else 1
    g0 = components.get(0, ())
    g1 = components.get(one, ())
    pos_of = {idx: k for k, idx in enumerate(g1)}
    mats = [linalg.Matrix.from_columns(
        [{pos_of[c]: s for c, s in sc.bracket[a][b].items()} for b in g1],
        len(g1)) for a in g0]
    action = ActionSpec(matrices=tuple(mats), algebra_dim=len(g0),
                        space_dim=len(g1))
    return GradedAlgebra(spec=spec, sc=sc, degree_of_basis=degs,
                         components=components, g0_indices=tuple(g0),
                         g1_indices=tuple(g1), g0_on_g1=action)


def rank_of_grading(ga, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED):
    """Parameters of a generic degree-zero orbit in the degree-one part."""
    if not ga.g1_indices:
        return 0
    report = generic_orbit_dim(ga.g0_on_g1, trials=trials, seed=seed)
    return len(ga.g1_indices) - report.generic_orbit_dim


# ---------------------------------------------------------------------------
# Jordan decomposition

@dataclass(frozen=True)
class JordanPair:
    semisimple_part: object
    nilpotent_part: object


def jordan_chevalley(x):
    """Split a square rational matrix into commuting semisimple plus
    nilpotent parts by Newton iteration against the squarefree part of the
    characteristic polynomial; exact, and immediate when the characteristic
    polynomial is already squarefree."""
    n = x.shape[0]
    p = linalg.char_poly(x)
    dec = linalg.squarefree_decomposition(p)
    e_max = max((e for _, e in dec), default=1)
    sf = [Fraction(1)]
    for f, _ in dec:
        sf = linalg.poly_mul(sf, f)
    if e_max == 1:
        return JordanPair(semisimple_part=x, nilpotent_part=linalg.zeros(n))
    dsf = linalg.poly_derivative(sf)
    y = x
    steps = 0
    while True:
        val = linalg.poly_eval_matrix(sf, y)
        if linalg.is_zero_matrix(val):
            break
        dval = linalg.poly_eval_matrix(dsf, y)
        y = y - linalg.solve_square(dval, val)
        steps += 1
        assert steps <= e_max.bit_length() + 2, "iteration failed to settle"
    return JordanPair(semisimple_part=y, nilpotent_part=x - y)


def decompose_graded_element(ga, coords):
    """Jordan decomposition of an algebra element given by coordinates.

    Computed on the element's matrix in the structure module and pulled back
    through the verified expansion; faithful representations preserve the
    decomposition, so the pullback always succeeds.
    """
    mat = ga.sc.element_matrix(coords)
    pair = jordan_chevalley(mat)
    s_coords = ga.sc.expand_matrix(pair.semisimple_part)
    n_coords = [Fraction(c) - s for c, s in zip(coords, s_coords)]
    return s_coords, n_coords


def random_homogeneous_element(ga, degree, rng, box=6):
    idxs = ga.components.get(degree, ())
    coords = [Fraction(0)] * ga.dim
    for i in idxs:
        coords[i] = Fraction(rng.randint(-box, box))
    return coords


def _in_span(vectors, v):
    return linalg.rank([*vectors, v]) == linalg.rank(vectors)


def cartan_subspace(ga, seed=DEFAULT_SEED, max_retries=8):
    """A maximal commuting family of semisimple degree-one elements.

    Iterates: sample in the current centralizer slice of the degree-one
    part, keep the semisimple part of the sample when it adds a new
    direction, cut the slice down to its centralizer, repeat.  Stops when
    repeated escalating samples yield nothing new, which for a correct
    grading means the slice has no semisimple directions left outside the
    current span.  Returns full-basis coordinate vectors.
    """
    rng = random.Random(seed)
    g1 = ga.g1_indices
    if not g1:
        return []
    # slice basis: full-coordinate unit vectors spanning the degree-one part
    slice_basis = []
    for idx in g1:
        v = [Fraction(0)] * ga.dim
        v[idx] = Fraction(1)
        slice_basis.append(v)
    found = []
    while slice_basis:
        progressed = False
        for attempt in range(max_retries):
            box = 3 + 2 * attempt
            coeffs = [rng.randint(-box, box) for _ in slice_basis]
            x = [sum(c * v[i] for c, v in zip(coeffs, slice_basis))
                 for i in range(ga.dim)]
            if not any(x):
                continue
            s, _ = decompose_graded_element(ga, x)
            if not any(s) or _in_span(found, s):
                continue
            found.append(tuple(s))
            # restrict the slice to the centralizer of the new element
            images = [ga.sc.bracket_coords(s, v) for v in slice_basis]
            kernel = linalg.kernel_basis(linalg.rmat(zip(*images)))
            slice_basis = [
                [sum(k[j] * v[i] for j, v in enumerate(slice_basis))
                 for i in range(ga.dim)] for k in kernel]
            progressed = True
            break
        if not progressed:
            break
    return found
