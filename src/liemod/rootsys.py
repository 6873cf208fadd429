"""Finite crystallographic root systems in Bourbaki numbering.

A root system is built from its Cartan matrix, with roots represented as
integer coordinate vectors in the simple-root basis, and coroots as integer
vectors in the simple-coroot basis.  Weights are integer vectors in the
fundamental-weight basis.

The positive roots are raised from the simple roots by simple reflections,
and each root's coroot is raised alongside it by the same reflection.

Conventions: ``cartan[i][j]`` is the pairing of the i-th simple root with
the j-th simple coroot, so the reflection ``s_j`` sends ``alpha_i`` to
``alpha_i - cartan[i][j] * alpha_j``.
"""

from collections import namedtuple
from functools import cached_property, lru_cache
from operator import mul

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


class RootSystem:
    """Root data for one simple type; construct via build_root_system."""

    def __init__(self, rstype):
        self.rstype = rstype
        self.rank = r = rstype.rank
        self.cartan = _cartan_matrix(rstype.family, r)
        coroots, pairings = self._generate_positive_roots()
        self.positive_roots = tuple(sorted(coroots, key=lambda b: (sum(b), b)))
        # integer coordinates of each positive coroot in the simple coroots,
        # in the order of positive_roots
        self.positive_coroots = tuple(coroots[b] for b in self.positive_roots)
        # 2 rho, the sum of the positive roots, pairs to 2 with every simple
        # coroot; the Cartan matrix is invertible, so no other vector does
        if any(sum(p[j] for p in pairings.values()) != 2 for j in range(r)):
            raise AssertionError(f"{rstype.name}: the positive roots do not "
                                 f"sum to twice the Weyl vector")

    # -- root generation ---------------------------------------------------

    def _generate_positive_roots(self):
        """Each positive root's coroot, in simple-coroot coordinates, and
        pairings with the simple coroots.

        A positive root beta that is not simple has some simple alpha_j with
        ``<beta, alpha_j^vee> > 0``, and then ``s_j beta`` is a lower positive
        root (Humphreys, section 10.2).  So raising the simple roots by every
        ``s_j`` whose pairing is negative reaches every positive root and no
        other vector; ``s_j`` moves one coordinate, by the pairing held.  A
        raised root's pairings, read in fundamental-weight coordinates, are
        those of the root it was raised from, reflected.

        A simple root's coroot is its own unit vector.  A Weyl group element
        w keeps lengths, so ``(w beta)^vee = 2 w beta / (beta, beta) =
        w (beta^vee)``, and the coroot of ``s_j beta`` is ``s_j (beta^vee) =
        beta^vee - <alpha_j, beta^vee> alpha_j^vee``, where ``<alpha_j,
        alpha_i^vee> = cartan[j][i]``.  Each step subtracts an integer
        multiple of a simple coroot, so every coroot is integral by
        construction.
        """
        simples = [tuple(1 if i == j else 0 for i in range(self.rank))
                   for j in range(self.rank)]
        coroots = {a: a for a in simples}
        pairings = {a: tuple(row) for a, row in zip(simples, self.cartan)}
        frontier = simples
        while frontier:
            new = []
            for beta in frontier:
                for j, c in enumerate(pairings[beta]):
                    if c < 0:
                        g = (*beta[:j], beta[j] - c, *beta[j + 1:])
                        if g not in coroots:
                            cor = list(coroots[beta])
                            cor[j] -= sum(map(mul, cor, self.cartan[j]))
                            coroots[g] = tuple(cor)
                            pairings[g] = self.simple_reflection_weight(
                                j, pairings[beta])
                            new.append(g)
            frontier = new
        # closed under lowering too: with the raising above, the roots found
        # and their negatives are permuted by every simple reflection
        for beta, pairing in pairings.items():
            for j, c in enumerate(pairing):
                if c > 0 and beta != simples[j]:
                    if (*beta[:j], beta[j] - c, *beta[j + 1:]) not in coroots:
                        raise AssertionError(f"roots not closed under s_{j}")
        return coroots, pairings

    # -- weights ------------------------------------------------------------

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
