"""Finite crystallographic root systems in Bourbaki numbering.

A root system is built from its Cartan matrix, with roots represented as
integer coordinate vectors in the simple-root basis.  Weights are integer
vectors in the fundamental-weight basis.  The squared lengths of the simple
roots come from the Cartan matrix's symmetrizer, normalized so long roots
have squared length 2.

The positive roots are raised from the simple roots by simple reflections,
each recording its squared length, which a reflection keeps; the coroot of
a root is read off those lengths.

Conventions: ``cartan[i][j]`` is the pairing of the i-th simple root with
the j-th simple coroot, so the reflection ``s_j`` sends ``alpha_i`` to
``alpha_i - cartan[i][j] * alpha_j``.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache

from . import linalg

__all__ = ["RootSystemType", "RootSystem", "build_root_system"]

_RANK_FLOORS = {"A": 1, "B": 2, "C": 2, "D": 4, "E": 6, "F": 4, "G": 2}
_RANK_CEILS = {"E": 8, "F": 4, "G": 2}


class RootSystemType(namedtuple("RootSystemType", "family rank")):
    """A simple type label: family letter plus rank.

    Rank conventions: A needs rank >= 1, C >= 2, D >= 4, E in 6..8,
    F = 4, G = 2.  B is accepted down to rank 2 for internal use even
    though classification tables only start at B_3; B_2 and C_2 carry
    distinct (transposed) Cartan data.
    """

    __slots__ = ()

    def __new__(cls, family, rank):
        if family not in _RANK_FLOORS:
            raise ValueError(f"unknown family {family!r}")
        if rank < _RANK_FLOORS[family]:
            raise ValueError(f"rank {rank} too small for type {family}")
        if rank > _RANK_CEILS.get(family, 10 ** 9):
            raise ValueError(f"rank {rank} too large for type {family}")
        return super().__new__(cls, family, rank)

    _make = classmethod(lambda cls, args: cls(*args))  # _replace via __new__

    @property
    def name(self):
        return f"{self.family}{self.rank}"

    @classmethod
    def parse(cls, text):
        """Parse labels like ``A2`` or ``E7``."""
        text = text.strip()
        if len(text) < 2 or not text[1:].isdigit():
            raise ValueError(f"cannot parse root system type {text!r}")
        return cls(text[0].upper(), int(text[1:]))


def _cartan_matrix(family, rank):
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if family in "ABC":
        for i in range(rank - 1):
            bond(i, i + 1)
        if family == "B" and rank >= 2:
            bond(rank - 2, rank - 1, -2, -1)  # last simple root short
        if family == "C" and rank >= 2:
            bond(rank - 2, rank - 1, -1, -2)  # last simple root long
    elif family == "D":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 3, rank - 1)
    elif family == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        for i, j in zip(chain, chain[1:]):
            bond(i, j)
        bond(1, 3)
    elif family == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)
        bond(2, 3)
    elif family == "G":
        bond(0, 1, -1, -3)  # first simple root short
    return a


def _symmetrizer(a):
    """Half squared lengths d of the simple roots, long roots 1, read off
    the Cartan matrix: the form a_ij d_j is symmetric, so d_j = d_i a_ji /
    a_ij along each bond of the Dynkin tree, walked from node 0."""
    d = {0: Fraction(1)}
    todo = [0]
    while todo:
        i = todo.pop()
        for j, aij in enumerate(a[i]):
            if aij and j not in d:
                d[j] = d[i] * a[j][i] / aij
                todo.append(j)
    top = max(d.values())
    return [d[j] / top for j in range(len(a))]


class RootSystem:
    """Root data for one simple type; construct via build_root_system."""

    def __init__(self, rstype):
        self.rstype = rstype
        r = rstype.rank
        self.rank = r
        self.cartan = _cartan_matrix(rstype.family, r)
        # squared lengths of the simple roots, scaled to integers
        self._sq = linalg.clear_denominators(_symmetrizer(self.cartan))
        self._lengths = self._generate_positive_roots()
        self.positive_roots = tuple(
            sorted(self._lengths, key=lambda b: (sum(b), b)))
        at = linalg.rmat([[self.cartan[j][i] for j in range(r)] for i in range(r)])
        fw = linalg.inverse(at)  # columns are fundamental weights in root coords
        self.fundamental_weights = tuple(
            tuple(fw[i, k] for i in range(r)) for k in range(r))
        self.weyl_vector = tuple(
            sum(w[i] for w in self.fundamental_weights) for i in range(r))
        half_sum = tuple(Fraction(sum(b[i] for b in self.positive_roots), 2)
                         for i in range(r))
        if self.weyl_vector != half_sum:
            raise AssertionError(f"{rstype.name}: Weyl vector is not half the "
                                 f"sum of the positive roots")

    # -- root generation ---------------------------------------------------

    def _reflect_root(self, beta, j):
        c = sum(beta[i] * self.cartan[i][j] for i in range(self.rank))
        out = list(beta)
        out[j] -= c
        return tuple(out)

    def _generate_positive_roots(self):
        """Each positive root with its squared length, on the integer scale
        of ``_sq``.

        A positive root beta that is not simple has some simple alpha_j with
        ``<beta, alpha_j^vee> > 0``, and then ``s_j beta`` is a lower positive
        root (Humphreys, section 10.2).  So raising the simple roots by every
        ``s_j`` whose pairing is negative reaches every positive root and no
        other vector.  A reflection keeps lengths, so each root inherits the
        length of the root it was raised from, and its pairings, read in
        fundamental-weight coordinates, are those of that root reflected.
        """
        simples = [tuple(1 if i == j else 0 for i in range(self.rank))
                   for j in range(self.rank)]
        lengths = dict(zip(simples, self._sq))
        pairings = {a: tuple(row) for a, row in zip(simples, self.cartan)}
        frontier = simples
        while frontier:
            new = []
            for beta in frontier:
                for j, c in enumerate(pairings[beta]):
                    if c < 0:
                        g = self._reflect_root(beta, j)
                        if g not in lengths:
                            lengths[g] = lengths[beta]
                            pairings[g] = self.simple_reflection_weight(
                                j, pairings[beta])
                            new.append(g)
            frontier = new
        # closed under lowering too: with the raising above, the roots found
        # and their negatives are permuted by every simple reflection
        for beta, pairing in pairings.items():
            for j, c in enumerate(pairing):
                if c > 0 and beta != simples[j]:
                    if self._reflect_root(beta, j) not in lengths:
                        raise AssertionError(f"roots not closed under s_{j}")
        return lengths

    # -- coroots and weights ------------------------------------------------

    @cached_property
    def positive_coroots(self):
        """Integer coordinates of each positive coroot in the simple coroots,
        in the order of ``positive_roots``.

        ``beta^vee = 2 beta / (beta, beta)``, so the coefficient of
        ``alpha_i^vee`` is ``b_i (alpha_i, alpha_i) / (beta, beta)``: the
        ratio ``b_i q_i / q(beta)`` of the squared lengths recorded when the
        roots were raised.
        """
        out = []
        for beta in self.positive_roots:
            length = self._lengths[beta]
            cor = [divmod(b * q, length) for b, q in zip(beta, self._sq)]
            if any(rem for _, rem in cor):
                raise AssertionError(f"coroot of {beta} is not integral")
            out.append(tuple(c for c, _ in cor))
        return tuple(out)

    def root_weight_coords(self, beta):
        """Fundamental-weight coordinates of a root-coordinate vector."""
        return tuple(sum(beta[j] * self.cartan[j][i] for j in range(self.rank))
                     for i in range(self.rank))

    def simple_reflection_weight(self, j, weight):
        """Apply s_j to a vector in fundamental-weight coordinates."""
        c = weight[j]
        return tuple(weight[i] - c * self.cartan[j][i] for i in range(self.rank))

    @cached_property
    def diagram_automorphisms(self):
        """Permutations ``p`` of the simple roots preserving the Cartan
        matrix, node i going to node ``p[i]``; the identity comes first."""
        a, r = self.cartan, self.rank
        found = []

        def extend(p):
            k = len(p)
            if k == r:
                found.append(tuple(p))
                return
            for j in range(r):
                if j not in p and all(a[p[i]][j] == a[i][k] and
                                      a[j][p[i]] == a[k][i] for i in range(k)):
                    extend(p + [j])

        extend([])
        return tuple(found)

    def diagram_orbit(self, weight):
        """Images of a weight (fundamental-weight coordinates) under the
        diagram automorphisms.  Dualizing a dominant weight is one of them."""
        out = set()
        for p in self.diagram_automorphisms:
            w = [0] * self.rank
            for i, c in enumerate(weight):
                w[p[i]] = c
            out.add(tuple(w))
        return out

    @property
    def num_positive_roots(self):
        return len(self.positive_roots)

    @property
    def dimension(self):
        """Dimension of the simple Lie algebra of this type."""
        return self.rank + 2 * self.num_positive_roots

    def __repr__(self):
        return f"RootSystem({self.rstype.name})"


@lru_cache(maxsize=None)
def build_root_system(rstype):
    return RootSystem(rstype)
