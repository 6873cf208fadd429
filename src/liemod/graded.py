"""Cyclic and integer gradings of the simple Lie algebras.

A grading is induced by nonnegative degree labels on the simple roots: the
degree of a root is the label-weighted sum of its coordinates, reduced mod m
when m is finite, and the Cartan sits in degree zero.  The degree-zero
component acts on the degree-one component; the rank of the grading is the
number of parameters of a generic orbit of that action, equal to the
dimension of a maximal commuting semisimple subspace of the degree-one part.

Structure constants are computed once per algebra type from a faithful
matrix construction of the smallest available module and cached.  The basis
is left-normed, x_beta = [e_j, x_gamma] (``hwmod.root_vectors``), and ad is
a homomorphism, so from the 2r matrices ad e_i and ad f_i that recursion
builds ad of every root vector; bracket[a][b] is column b of ad of basis
element a, and the Cartan rows are the negated Cartan columns.  A Cartan
column of ad e_i or ad f_i is root data, [x_alpha, h_b] = -<alpha,
alpha_b^vee> x_alpha, and a root column [x_alpha, x_beta] is zero by weight
unless alpha + beta is a root or zero.  Otherwise it is one sparse
commutator of module matrices, whose coordinates are read off the
root-space structure rather than solved for.  A nonzero entry (i, j) of the
root vector x_beta joins module basis vectors whose weights differ by beta,
and no other basis element is nonzero there, so each root vector has one
fixed probe entry and its coordinate is the ratio of the matrix's entry
there to the root vector's.  Only the Cartan generators reach the diagonal.
The diagonal entries of sum_i c_i h_i at the row and the column of the
probe entry of a simple root vector x_j differ by sum_i c_i <alpha_j,
alpha_i^vee>, so c is the inverse Cartan matrix, held as an integer matrix
over one denominator, times those r differences.  Every expansion then
rebuilds the matrix from its coordinates and compares it with the input
over every nonzero entry of either, so a closure failure or a matrix
outside the algebra is an error, never a silent wrong answer.

Coordinates are Python ints wherever they are integral and ``Fraction``
only where they are not: some structure constants of types C and F have
denominators 2 and 4 in this basis.  The root vectors are not rescaled to
a Chevalley basis, which would make every constant an integer, because
``module.full_basis`` is the basis the coordinates refer to: callers
rebuild module matrices from coordinates in it, and a rescaled table would
no longer match those matrices.
"""

import random
from collections import namedtuple
from functools import lru_cache
from math import gcd
from operator import add, mul
from types import MappingProxyType
from typing import NamedTuple

from . import linalg
from .hwmod import (DEFAULT_BUILD_CEILING, IrrepSpec, check_ceiling,
                    extend_to_full_algebra, root_vectors, weyl_dim)
from .linalg import exact_ratio, integral
from .modality import (DEFAULT_SEED, DEFAULT_TRIALS, PRIME, ActionSpec,
                       generic_orbit_dim)
from .rootsys import build_root_system

__all__ = [
    "GradingSpec", "GradedAlgebra", "StructureConstants",
    "structure_constants", "build_grading", "rank_of_grading",
    "jordan_chevalley", "decompose_graded_element", "cartan_subspace",
    "centralizer_slice", "random_homogeneous_element",
]

def _structure_module(rstype):
    """The module a type's structure constants are read in: the smallest
    convenient faithful one, fundamental at the first node unless listed.
    E8 only has its own algebra, so its table is the costliest."""
    node = {("F", 4): 3, ("E", 7): 6, ("E", 8): 7}.get(
        (rstype.family, rstype.rank), 0)
    return IrrepSpec(rstype, [int(i == node) for i in range(rstype.rank)])


# the bracket of a pair whose roots sum to neither a root nor zero: one
# read-only value fills every such slot of every table (most of them: 46,000
# of E8's 61,504), and slots are only ever replaced, never written into
_ZERO_BRACKET = MappingProxyType({})


def _entries(m):
    """Nonzero entries of a matrix, keyed by (row, column)."""
    return {(i, j): v for j, col in enumerate(m.columns())
            for i, v in col.items()}


class StructureConstants:
    """Bracket table of a simple algebra in its root-space basis.

    Basis order: Cartan generators, then raising vectors by root height,
    then the matching lowering vectors.  ``bracket[a][b]`` is a sparse
    mapping from basis index to coefficient, an int where it is integral;
    treat it as read-only (the empty slots share one value).
    """

    def __init__(self, rstype):
        rs = build_root_system(rstype)
        mod = extend_to_full_algebra(_structure_module(rstype))
        self.module = mod
        self.dim = len(mod.full_basis)
        if self.dim != rs.dimension:
            raise AssertionError(f"{rstype.name}: {self.dim} basis "
                                 f"elements, not {rs.dimension}")
        r = self._r = rs.rank
        pos = rs.positive_roots
        self.root_of_index = tuple(
            [None] * r + list(pos) + [tuple(-c for c in b) for b in pos])

        basis = mod.full_basis
        self._entries = [_entries(m) for m in basis]
        # a root vector owns every position where it is nonzero
        self._probes = [None] * r + [
            next(iter(e.items())) for e in self._entries[r:]]
        # the root vector a sum of roots names; none for zero
        hint = {root: (k,) for k, root in enumerate(self.root_of_index) if root}
        hint[(0,) * r] = ()
        simple = [hint[tuple(int(i == j) for i in range(r))][0]
                  for j in range(r)]
        # Cartan coordinates: the inverse Cartan matrix, as ints over den,
        # times the diagonal differences along the simple roots' probes
        self._diag_rows = [self._probes[a][0] for a in simple]
        inv_cartan = linalg.inverse(linalg.rmat(rs.cartan))
        *flat, self._diag_den = linalg.clear_denominators(
            [*(c for row in inv_cartan for c in row), 1])
        self._diag_inverse = [flat[i * r:(i + 1) * r] for i in range(r)]
        # ad e_i, then ad f_i: Cartan columns from root data, and a module
        # commutator where the two roots sum to a root or to zero
        ad = []
        for a in [*simple, *(k + len(pos) for k in simple)]:
            alpha = self.root_of_index[a]
            cols = [{a: -c} if c else {} for c in rs.root_weight_coords(alpha)]
            for b in range(r, self.dim):
                roots = hint.get(tuple(map(add, alpha, self.root_of_index[b])))
                cols.append({} if roots is None else self._coords(
                    _entries(linalg.commutator(basis[a], basis[b])), roots))
            ad.append(linalg.Matrix.from_columns(cols, self.dim))
        xy = root_vectors(rs, ad[:r], ad[r:])
        self.bracket = [[_ZERO_BRACKET] * self.dim for _ in range(self.dim)]
        for a, m in enumerate((v[b] for v in xy for b in pos), r):
            for b, col in enumerate(m.columns()):
                if col:
                    entry = {c: integral(col[c]) for c in sorted(col)}
                    self.bracket[a][b] = entry
                    if b < r:
                        self.bracket[b][a] = {c: -v for c, v in entry.items()}

    def _coords(self, entries, roots=None):
        """Sparse coordinates of the matrix with nonzero ``entries`` ((i, j)
        -> value): the Cartan part from the diagonal, one probe read for
        each root vector index in ``roots``, then a residual check over
        every nonzero entry of the matrix and of its reconstruction.  A
        bracket of a simple root vector with a root vector passes the one
        index its weight allows, or none when it is [e_i, f_i]; an
        expansion reads every probe.  Values are ints where integral."""
        coords = {}
        diag = [entries.get((i, i), 0) - entries.get((j, j), 0)
                for i, j in self._diag_rows]
        if any(diag):
            for i, row in enumerate(self._diag_inverse):
                c = exact_ratio(sum(map(mul, row, diag)), self._diag_den)
                if c:
                    coords[i] = c
        for k in range(self._r, self.dim) if roots is None else roots:
            p, v = self._probes[k]
            c = entries.get(p)
            if c:
                coords[k] = exact_ratio(c, v)
        recon = {}
        for k, c in coords.items():
            for p, v in self._entries[k].items():
                recon[p] = recon.get(p, 0) + c * v
        if any(recon.get(p, 0) != entries.get(p, 0)
               for p in recon.keys() | entries.keys()):
            raise ValueError("matrix does not lie in the algebra's image")
        return coords

    def expand_matrix(self, m):
        """Coordinates of a module matrix in the algebra basis; exact, with
        a residual check so non-members raise instead of mis-expanding."""
        entries = {p: integral(v) for p, v in _entries(m).items()}
        coords = self._coords(entries)
        return [coords.get(k, 0) for k in range(self.dim)]

    def element_matrix(self, coords):
        if len(coords) != self.dim:
            raise ValueError("coordinate vector has wrong length")
        n = self.module.dimension
        cols = [{} for _ in range(n)]
        for c, basis_entries in zip(coords, self._entries):
            if c:
                c = integral(c)
                for (i, j), v in basis_entries.items():
                    cols[j][i] = cols[j].get(i, 0) + c * v
        return linalg.Matrix.from_columns(
            [{i: v for i, v in col.items() if v} for col in cols], n)

    def bracket_coords(self, u, v):
        out = [0] * self.dim
        v_nonzeros = [(b, cb) for b, cb in enumerate(v) if cb]
        for a, ca in enumerate(u):
            if not ca:
                continue
            row = self.bracket[a]
            for b, cb in v_nonzeros:
                for c, s in row[b].items():
                    out[c] += ca * cb * s
        return out


@lru_cache(maxsize=None)
def structure_constants(rstype):
    return StructureConstants(rstype)


class GradingSpec(namedtuple("GradingSpec", "rstype m labels")):
    """Degree labels on the simple roots, mod m (None means integer degrees)."""

    __slots__ = ()

    def __new__(cls, rstype, m, labels):
        labels = tuple(int(x) for x in labels)
        if len(labels) != rstype.rank:
            raise ValueError("need one label per simple root")
        if any(x < 0 for x in labels):
            raise ValueError("labels must be nonnegative")
        if m is not None:
            if not isinstance(m, int) or m < 1:
                raise ValueError("m must be a positive integer or None")
            labels = tuple(x % m for x in labels)
        return super().__new__(cls, rstype, m, labels)

    _make = classmethod(lambda cls, args: cls(*args))  # _replace via __new__

    def degree_of_root(self, beta):
        d = sum(x * l for x, l in zip(beta, self.labels))
        return d % self.m if self.m is not None else d

    @property
    def name(self):
        mm = "Z" if self.m is None else f"Z{self.m}"
        return f"{self.rstype.name}:{mm}:{','.join(map(str, self.labels))}"


class GradedAlgebra(NamedTuple):
    spec: GradingSpec
    sc: StructureConstants
    components: dict
    g1_indices: tuple
    g0_on_g1: ActionSpec

    @property
    def dim(self):
        return self.sc.dim


def build_grading(spec, ceiling=DEFAULT_BUILD_CEILING):
    """Assemble the graded algebra for a label vector.

    Raises BuildCeilingExceeded, before any build, when the structure
    module is larger than ``ceiling``.  Verifies bracket degree additivity
    on every pair of basis elements, so a wrong degree map cannot survive
    construction: it raises ``AssertionError``, under ``python -O`` too.
    """
    module = _structure_module(spec.rstype)
    check_ceiling(f"structure module {module.name}", weyl_dim(module), ceiling)
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
                if degs[c] != target:
                    raise AssertionError(f"bracket breaks grading: [{a},{b}] "
                                         f"hits degree {degs[c]}")

    one = 1 % spec.m if spec.m is not None else 1
    g0 = components.get(0, ())
    g1 = components.get(one, ())
    pos_of = {idx: k for k, idx in enumerate(g1)}
    mats = [linalg.Matrix.from_columns(
        [{pos_of[c]: s for c, s in sc.bracket[a][b].items()} for b in g1],
        len(g1)) for a in g0]
    action = ActionSpec(matrices=mats)
    return GradedAlgebra(spec=spec, sc=sc, components=components,
                         g1_indices=g1, g0_on_g1=action)


def rank_of_grading(ga, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED):
    """Parameters of a generic degree-zero orbit in the degree-one part."""
    return generic_orbit_dim(ga.g0_on_g1, trials=trials, seed=seed).codimension


# ---------------------------------------------------------------------------
# Jordan decomposition

def jordan_chevalley(x):
    """The semisimple part s of a square rational matrix x, by Newton
    iteration against the squarefree part of the characteristic
    polynomial; exact.  The nilpotent part is x - s, and commutes with s.

    The common case is settled mod ``PRIME`` first: a characteristic
    polynomial that is squarefree mod p is squarefree over Q
    (``linalg.char_poly_is_squarefree_mod_p``), so x is its own
    semisimple part, and x itself is returned.  Any other outcome, an
    unlucky p included, takes the exact path, so the answer never depends
    on p.

    The exact path computes sf = p / gcd(p, p'), the squarefree part of the
    characteristic polynomial p, and iterates y <- y - sf'(y)^-1 sf(y) from
    x until sf(y) = 0.  A squarefree p is its own squarefree part, so
    Cayley-Hamilton settles it at the first test.  After k steps sf(y) is a
    multiple of sf(x)^(2^k), and sf(x)^e = 0 for the largest multiplicity e
    of a root of p, which is at most n - deg sf + 1.  The loop therefore
    makes at most ``(n - deg sf + 1).bit_length() + 3`` evaluations of sf,
    at least two more than it needs, and raises ``AssertionError`` if they
    do not settle it.
    """
    if linalg.char_poly_is_squarefree_mod_p(x, PRIME):
        return x
    n = x.shape[0]
    sf = linalg.squarefree_part(linalg.char_poly(x))
    dsf = linalg.poly_derivative(sf)
    y = x
    for _ in range((n - linalg.poly_degree(sf) + 1).bit_length() + 3):
        val = linalg.poly_eval_matrix(sf, y)
        if linalg.is_zero_matrix(val):
            return y
        y = y - linalg.solve_square(linalg.poly_eval_matrix(dsf, y), val)
    raise AssertionError("Newton iteration failed to settle")


def decompose_graded_element(ga, coords):
    """Jordan decomposition of an algebra element given by coordinates.

    Computed on the element's matrix in the structure module and pulled back
    through the verified expansion; faithful representations preserve the
    decomposition, so the pullback always succeeds.  A matrix certified
    semisimple comes back as itself, and its coordinates are the input's.
    """
    # ints where integral, so neither the matrix nor c - d below does
    # Fraction arithmetic on integral Fraction inputs
    coords = [integral(c) for c in coords]
    mat = ga.sc.element_matrix(coords)
    s = jordan_chevalley(mat)
    if s is mat:
        return coords, [0] * len(coords)
    s = ga.sc.expand_matrix(s)
    return s, [integral(c - d) for c, d in zip(coords, s)]


def random_homogeneous_element(ga, degree, rng):
    coords = [0] * ga.dim
    for i in ga.components.get(degree, ()):
        coords[i] = rng.randint(-6, 6)
    return coords


def _in_span(independent, v):
    """Whether v lies in the span of linearly independent vectors."""
    return linalg.rank(linalg.rmat([*independent, v])) == len(independent)


def _combine(coeffs, vectors):
    """The integer combination of integer vectors, divided by the gcd of
    its entries."""
    out = [sum(map(mul, coeffs, col)) for col in zip(*vectors)]
    g = gcd(*out)
    return [x // g for x in out] if g > 1 else out


def centralizer_slice(sc, s, slice_basis):
    """A basis of the elements of the slice's span that commute with s:
    primitive integer combinations of the slice basis."""
    s = linalg.clear_denominators(s)
    images = [sc.bracket_coords(s, v) for v in slice_basis]
    rows = [linalg.clear_denominators(row) for row in zip(*images)
            if any(row)]
    kernel = linalg.integer_kernel(rows, len(slice_basis))
    return [_combine(k, slice_basis) for k in kernel]


def cartan_subspace(ga, seed=DEFAULT_SEED):
    """A commuting family of semisimple degree-one elements.

    For m = 1 it is the r Cartan unit vectors, in index order, and for an
    integer grading it is empty.  Otherwise it iterates: sample in the
    current centralizer slice of the degree-one part, keep the semisimple
    part of the sample when it adds a new direction, cut the slice down to
    its centralizer, repeat.  Stops when eight samples, from the integer
    boxes [-(3+2k), 3+2k] for k = 0..7, yield nothing new, or at once when
    the slice is spanned by the family found.
    Returns full-basis coordinate vectors.

    The second stop is exact.  A semisimple part s of a sample x is a
    polynomial in x, so it commutes with everything x commutes with: s
    lies in x's slice, and every element found lies in every later slice.
    The found elements are independent, so once the slice's dimension
    equals their number the slice is their span, and a sample from it is
    a sum of commuting semisimple elements, semisimple and already in the
    span.  The eight samples the first stop would draw there add nothing,
    and since the random generator is local to the call, skipping them
    leaves the returned vectors unchanged.

    The m = 1 return is exact.  The Cartan generators lie in degree zero
    and g_1 in degree 1 mod m, so they have degree one only when m = 1,
    where g_1 is the whole algebra.  They are semisimple and commute,
    since ad h is diagonal in the root-space basis, and nothing outside
    their span commutes with all of them: a root vector x_beta commutes
    with every h_i only if <beta, alpha_i^vee> = 0 for all i, which no
    root satisfies.  So they span a Cartan subspace of g_1 = g, found
    with no centralizer step and no Jordan decomposition, and the
    family's size is the rank.

    The empty answer for an integer grading (m None) is exact too.  The
    labels are nonnegative, so a root of degree one is positive: g_1 lies
    in n+, each of its elements is nilpotent, and its semisimple part is 0.
    For every other grading the family's size is a lower bound on the
    dimension of a Cartan subspace, which a sample that happens to fall on
    a special element can understate; unlike ``rank_of_grading`` it comes
    with no stated miss bound.

    The slice is spanned by primitive integer vectors: each kernel vector
    is divided by the gcd of its entries, which keeps the samples and
    their Jordan decompositions small.  The semisimple part's
    denominators are cleared once before its brackets with the slice are
    taken, and the bracket rows' denominators (types C and F have
    structure constants with denominators 2 and 4), so the centralizer is
    an integer kernel.
    """
    if ga.spec.m is None:
        return []
    cartan = [tuple(int(i == idx) for i in range(ga.dim))
              for idx in ga.g1_indices if ga.sc.root_of_index[idx] is None]
    if cartan:
        return cartan
    rng = random.Random(seed)
    slice_basis = [[int(i == idx) for i in range(ga.dim)]
                   for idx in ga.g1_indices]
    found = []
    while len(slice_basis) > len(found):
        for attempt in range(8):
            box = 3 + 2 * attempt
            coeffs = [rng.randint(-box, box) for _ in slice_basis]
            x = _combine(coeffs, slice_basis)
            if not any(x):
                continue
            s, _ = decompose_graded_element(ga, x)
            if not any(s) or _in_span(found, s):
                continue
            found.append(tuple(s))
            slice_basis = centralizer_slice(ga.sc, s, slice_basis)
            break
        else:
            break
    return found
