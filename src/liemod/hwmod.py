"""Finite-dimensional irreducible highest-weight modules, exactly.

A module is built one weight space at a time, breadth-first from the
highest-weight vector (W. A. de Graaf, *Lie Algebras: Theory and
Algorithms*, 2000).  Below the highest weight the map
``w -> (e_1 w, ..., e_r w)`` is injective on an irreducible module, so a
candidate ``f_j x`` is determined by its e-images

    e_i f_j x = f_j e_i x + delta_ij <wt x, alpha_j^vee> x,

all of which the previous weight level already knows.  Candidates are taken
in lexicographic order of their lowering monomials; one that is independent
of the basis vectors already in its weight space joins the basis, any other
is written as the combination an incremental echelon of the e-images
returns.  That combination is the candidate's column of ``f_j``.

Entries are exact: Python ints where integral, ``Fraction`` otherwise;
matrices are ``linalg.Matrix`` values, which adopt the sparse columns the
construction works in and are never written.
"""

from collections import namedtuple
from functools import lru_cache

from .linalg import Matrix, commutator, exact_ratio
from .rootsys import build_root_system

__all__ = [
    "BuildCeilingExceeded", "IrrepSpec", "HWModule", "weyl_dim",
    "enumerate_dominant_up_to_dim", "build_hw_module", "extend_to_full_algebra",
    "root_vectors", "check_ceiling", "DEFAULT_BUILD_CEILING",
]

DEFAULT_BUILD_CEILING = 256


class BuildCeilingExceeded(ValueError):
    """Requested module dimension exceeds the configured build ceiling;
    ``dimension`` is the dimension that was asked for."""

    def __init__(self, message, dimension):
        super().__init__(message)
        self.dimension = dimension


def check_ceiling(what, dim, ceiling):
    """Refuse ``what``, of dimension ``dim``, if it exceeds ``ceiling``."""
    if dim > ceiling:
        raise BuildCeilingExceeded(
            f"{what} has dimension {dim} > ceiling {ceiling}", dim)


class IrrepSpec(namedtuple("IrrepSpec", "rstype highest_weight")):
    """Type plus dominant highest weight in fundamental-weight coordinates."""

    __slots__ = ()

    def __new__(cls, rstype, highest_weight):
        if any(c != int(c) for c in highest_weight):
            raise ValueError("highest weight coefficients must be integers")
        w = tuple(int(c) for c in highest_weight)
        if len(w) != rstype.rank:
            raise ValueError("weight length does not match rank")
        if any(c < 0 for c in w):
            raise ValueError("highest weight must be dominant")
        return super().__new__(cls, rstype, w)

    _make = classmethod(lambda cls, args: cls(*args))  # _replace via __new__

    @property
    def name(self):
        return f"{self.rstype.name}:{','.join(map(str, self.highest_weight))}"


class HWModule:
    """Constructed module; its ``linalg.Matrix`` values are never written.

    ``e``, ``f``, ``h`` hold the matrices of the simple generators in the
    monomial basis, with the weight of each basis vector on the diagonals of
    ``h``, and ``monomials`` its lowering-index sequence.
    ``full_basis`` holds matrices for a basis of the whole algebra: the
    Cartan generators, then the root vectors ``root_vectors`` returns, and
    ``basis_names`` names them.
    """

    def __init__(self, dimension, monomials, e, f, h, full_basis,
                 basis_names):
        self.dimension, self.monomials = dimension, monomials
        self.e, self.f, self.h = e, f, h
        self.full_basis, self.basis_names = full_basis, basis_names


def weyl_dim(spec):
    """Module dimension by the Weyl product formula, exactly.

    ``prod <lambda + rho, beta^vee> / <rho, beta^vee>`` over the positive
    coroots; with coroots in simple-coroot coordinates and weights in
    fundamental-weight coordinates each factor is an integer dot product.
    """
    shifted = [c + 1 for c in spec.highest_weight]
    num = den = 1
    for cor in build_root_system(spec.rstype).positive_coroots:
        num *= sum(c * x for c, x in zip(cor, shifted))
        den *= sum(cor)
    d, rem = divmod(num, den)
    if rem or d <= 0:
        raise AssertionError(f"{spec.name}: Weyl's formula gave {num}/{den}")
    return d


def enumerate_dominant_up_to_dim(rstype, max_dim):
    """All nonzero dominant weights whose module dimension is at most max_dim.

    Finiteness relies on strict monotonicity of the Weyl dimension formula in
    the componentwise order, which also justifies pruning: once a weight's
    dimension exceeds the bound, every larger weight is out too.
    """
    rs = build_root_system(rstype)
    r = rs.rank
    units = [tuple(1 if i == j else 0 for i in range(r)) for j in range(r)]
    seen = set(units)
    frontier = list(units)
    found = []
    while frontier:
        new = []
        for w in frontier:
            if weyl_dim(IrrepSpec(rstype, w)) > max_dim:
                continue
            found.append(w)
            for j in range(r):
                nxt = tuple(c + (1 if i == j else 0) for i, c in enumerate(w))
                if nxt not in seen:
                    seen.add(nxt)
                    new.append(nxt)
        frontier = new
    return sorted(found)


def _build_module(spec, dim):
    """The module of ``spec``, whose dimension by Weyl's formula is
    ``dim``; a basis that outgrows it or falls short raises."""
    rs = build_root_system(spec.rstype)
    r = rs.rank
    cartan = rs.cartan
    order = [()]                       # lowering monomial of each basis vector
    weights = [spec.highest_weight]
    e_cols = [[{} for _ in range(r)]]  # e_cols[b][i]: e_i x_b, sparse column
    f_cols = [{} for _ in range(r)]    # f_cols[j][b]: f_j x_b, sparse column
    level = [0]
    while level:
        # per weight: echelon rows (pivot, reduced e-image with 1 at the
        # pivot, the same row as a combination of basis vectors)
        echelons = {}
        accepted = []
        for mono, j, b in sorted(((j,) + order[b], j, b)
                                 for b in level for j in range(r)):
            mu = tuple(w - cartan[j][i] for i, w in enumerate(weights[b]))
            # e_i f_j x_b = f_j e_i x_b + delta_ij <wt x_b, alpha_j^vee> x_b
            image = {}
            for i in range(r):
                for y, a in e_cols[b][i].items():
                    for x, c in f_cols[j][y].items():
                        image[i, x] = image.get((i, x), 0) + a * c
            if weights[b][j]:
                image[j, b] = image.get((j, b), 0) + weights[b][j]
            image = {k: v for k, v in image.items() if v}
            rest = dict(image)
            coef = {}
            rows = echelons.setdefault(mu, [])
            for piv, row, comb in rows:
                t = rest.get(piv)
                if not t:
                    continue
                for k, v in row.items():
                    rest[k] = rest.get(k, 0) - t * v
                rest = {k: v for k, v in rest.items() if v}
                for x, v in comb.items():
                    coef[x] = coef.get(x, 0) + t * v
            if not rest:
                # f_j x_b is the combination the echelon returned
                f_cols[j][b] = {x: v for x, v in coef.items() if v}
                continue
            n = len(order)
            order.append(mono)
            weights.append(mu)
            cols = [{} for _ in range(r)]
            for (i, x), v in image.items():
                cols[i][x] = v
            e_cols.append(cols)
            f_cols[j][b] = {n: 1}
            piv, p = next(iter(rest.items()))
            comb = {x: -v for x, v in coef.items() if v}
            comb[n] = 1
            rows.append((piv, {k: exact_ratio(v, p) for k, v in rest.items()},
                         {x: exact_ratio(v, p) for x, v in comb.items()}))
            accepted.append(n)
        level = accepted
        if len(order) > dim:
            raise AssertionError(f"{spec.name}: basis outgrew Weyl's formula")
    if len(order) != dim:
        raise AssertionError(f"{spec.name}: basis short of Weyl's formula")
    basis = range(dim)
    e_mats = [Matrix.from_columns([e_cols[b][j] for b in basis], dim)
              for j in range(r)]
    f_mats = [Matrix.from_columns([f_cols[j][b] for b in basis], dim)
              for j in range(r)]
    h_mats = [Matrix.from_columns([{b: weights[b][j]} if weights[b][j] else {}
                                   for b in basis], dim) for j in range(r)]
    return HWModule(dimension=dim, monomials=tuple(order), e=tuple(e_mats),
                    f=tuple(f_mats), h=tuple(h_mats),
                    full_basis=(*h_mats, *root_vectors(rs, e_mats, f_mats)),
                    basis_names=(*(f"h{j + 1}" for j in range(r)), *(
                        side + str(list(b)) for side in "xy"
                        for b in rs.positive_roots)))


def root_vectors(rs, e, f):
    """Matrices of a raising vector for every positive root, by height,
    then of the matching lowering vectors, as one tuple: the basis of the
    algebra after its Cartan generators.

    ``e`` and ``f`` are the matrices of the simple root vectors in any
    representation.  Each non-simple root beta is gamma + alpha_j for the
    smallest j that leaves a positive root gamma, and its vectors are the
    left-normed commutators x_beta = [e_j, x_gamma] and
    y_beta = [f_j, y_gamma]; the lowering side mirrors the raising side.
    """
    r = rs.rank
    pos_set = set(rs.positive_roots)
    faithful = any(any(m.columns()) for m in e)
    x, y = {}, {}
    for beta in rs.positive_roots:  # height order, so summands exist already
        if sum(beta) == 1:
            j = beta.index(1)
            x[beta], y[beta] = e[j], f[j]
            continue
        for j in range(r):
            gamma = tuple(b - (1 if i == j else 0) for i, b in enumerate(beta))
            if gamma in pos_set:
                break
        else:
            raise AssertionError(f"no simple summand below root {beta}")
        x[beta] = commutator(e[j], x[gamma])
        y[beta] = commutator(f[j], y[gamma])
        # every nonzero irreducible of a simple algebra is faithful; only
        # the trivial line, where every e_i is zero, sends them to zero
        if faithful and not all(any(v[beta].columns()) for v in (x, y)):
            raise AssertionError(
                f"root vector for {beta} vanished in a faithful module")
    return (*x.values(), *y.values())


# Only the most recent module is kept: every caller reuses a module right
# after building it (a sum repeats a summand, a table reads its module) and
# never after the next one, so a sweep holds the one module it is verifying.
# The dimension is part of the key, but it is a function of the spec.
@lru_cache(maxsize=1)
def _build_module_cached(spec, dim):
    return _build_module(spec, dim)


_extend_cached = _build_module_cached  # one cache, under both names


def build_hw_module(spec, ceiling=DEFAULT_BUILD_CEILING):
    """Construct the irreducible module with the given highest weight.

    Raises BuildCeilingExceeded when the Weyl dimension formula already
    shows the module would be larger than ``ceiling``.  Only the most
    recently built module is kept: asking for it again returns the same
    object, and building another one releases it.  Weyl's formula runs
    once per call, and the build checks its basis against that dimension.
    """
    d = weyl_dim(spec)
    check_ceiling(f"module {spec.name}", d, ceiling)
    return _build_module_cached(spec, d)


def extend_to_full_algebra(spec):
    """The module of ``spec`` with its ``full_basis``: the cached object
    ``build_hw_module`` returns, here with no ceiling.  On the zero weight
    every matrix of the full basis is the 1x1 zero."""
    return _extend_cached(spec, weyl_dim(spec))
