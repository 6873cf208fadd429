"""Root system construction against closed-form counts and known matrices."""

from fractions import Fraction
from operator import mul

import pytest

from liemod import linalg
from liemod.rootsys import RootSystem, RootSystemType, build_root_system


def _pairing(rs, x, y):
    """The invariant form on root coordinates: ``(alpha_i, alpha_j)`` is
    ``cartan[i][j]`` times the half squared length of ``alpha_j``."""
    d = _reference_half_lengths(rs.rstype.family, rs.rank)
    return sum(x[i] * rs.cartan[i][j] * d[j] * y[j]
               for i in range(rs.rank) for j in range(rs.rank))


def _dominant_representative(rs, weight):
    """The dominant weight in the Weyl orbit of ``weight``, reached by
    reflecting in a simple root with a negative coordinate until none is
    left."""
    w = tuple(weight)
    while True:
        j = next((i for i, c in enumerate(w) if c < 0), None)
        if j is None:
            return w
        w = rs.simple_reflection_weight(j, w)


def _dominant_dual(rs, weight):
    """Highest weight of the dual module: the negated weight made
    dominant."""
    return _dominant_representative(rs, tuple(-c for c in weight))


def expected_positive_count(family, rank):
    if family == "A":
        return rank * (rank + 1) // 2
    if family in ("B", "C"):
        return rank * rank
    if family == "D":
        return rank * (rank - 1)
    return {("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
            ("F", 4): 24, ("G", 2): 6}[(family, rank)]


ALL_TYPES = (
    [("A", r) for r in range(1, 7)]
    + [("B", r) for r in range(2, 6)]
    + [("C", r) for r in range(2, 6)]
    + [("D", r) for r in range(4, 7)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_positive_root_counts(family, rank):
    rs = build_root_system(RootSystemType(family, rank))
    assert len(rs.positive_roots) == expected_positive_count(family, rank)
    assert rs.dimension == rank + 2 * len(rs.positive_roots)


def test_g2_cartan_matrix():
    rs = build_root_system(RootSystemType("G", 2))
    assert rs.cartan == [[2, -1], [-3, 2]]


def test_b2_c2_cartan_transposes():
    b2 = build_root_system(RootSystemType("B", 2)).cartan
    c2 = build_root_system(RootSystemType("C", 2)).cartan
    assert b2 == [[2, -2], [-1, 2]]
    assert c2 == [[2, -1], [-2, 2]]


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_pairing_positive_on_roots(family, rank):
    rs = build_root_system(RootSystemType(family, rank))
    for beta in rs.positive_roots:
        assert _pairing(rs, beta, beta) > 0


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2), ("D", 4)])
def test_simple_reflections_permute_roots(family, rank):
    rs = build_root_system(RootSystemType(family, rank))
    allroots = set(rs.positive_roots) | {
        tuple(-c for c in b) for b in rs.positive_roots}
    for j in range(rank):
        image = set()
        for b in allroots:
            c = sum(b[i] * rs.cartan[i][j] for i in range(rank))
            image.add(b[:j] + (b[j] - c,) + b[j + 1:])
        assert image == allroots


@pytest.mark.parametrize("family,rank", [("A", 1), ("B", 3), ("C", 3),
                                         ("D", 4), ("F", 4), ("G", 2)])
def test_weyl_vector_check_trips_on_a_missing_root(family, rank, monkeypatch):
    # every positive root pairs nonzero with some simple coroot, so the sum
    # of the positive roots with any one dropped misses 2 rho
    rstype = RootSystemType(family, rank)
    generate = RootSystem._generate_positive_roots
    for dropped in build_root_system(rstype).positive_roots:
        def short(self):
            coroots, pairings = generate(self)
            del coroots[dropped], pairings[dropped]
            return coroots, pairings

        monkeypatch.setattr(RootSystem, "_generate_positive_roots", short)
        with pytest.raises(AssertionError, match="twice the Weyl vector"):
            RootSystem(rstype)


def _fundamental_weights(rs):
    """The fundamental weights in root coordinates: the columns of the
    inverse of the transposed Cartan matrix, ``Fraction`` entries."""
    r = rs.rank
    inv = linalg.inverse(linalg.rmat([[rs.cartan[j][i] for j in range(r)]
                                      for i in range(r)]))
    return [[inv[i, k] for i in range(r)] for k in range(r)]


def test_weight_coord_roundtrip():
    rs = build_root_system(RootSystemType("F", 4))
    fws = _fundamental_weights(rs)
    for beta in rs.positive_roots[:8]:
        w = rs.root_weight_coords(beta)
        back = [sum(c * fw[i] for c, fw in zip(w, fws))
                for i in range(rs.rank)]
        assert back == list(beta)


def test_dominant_representative_and_dual():
    a2 = build_root_system(RootSystemType("A", 2))
    # dual of the first fundamental weight is the second, and vice versa
    assert _dominant_dual(a2, (1, 0)) == (0, 1)
    assert _dominant_dual(a2, (0, 1)) == (1, 0)
    assert _dominant_dual(a2, (1, 1)) == (1, 1)

    a3 = build_root_system(RootSystemType("A", 3))
    assert _dominant_dual(a3, (2, 1, 0)) == (0, 1, 2)

    b3 = build_root_system(RootSystemType("B", 3))
    c3 = build_root_system(RootSystemType("C", 3))
    d4 = build_root_system(RootSystemType("D", 4))
    g2 = build_root_system(RootSystemType("G", 2))
    for rs in (b3, c3, g2):
        for w in [(1, 0, 0)[: rs.rank], (0, 1, 1)[: rs.rank], (2, 0, 1)[: rs.rank]]:
            assert _dominant_dual(rs, w) == w
    # D4: dual is trivial (rank even)
    assert _dominant_dual(d4, (1, 0, 0, 0)) == (1, 0, 0, 0)
    assert _dominant_dual(d4, (0, 0, 1, 0)) == (0, 0, 1, 0)

    d5 = build_root_system(RootSystemType("D", 5))
    # odd orthogonal-type D swaps the two spin nodes
    assert _dominant_dual(d5, (0, 0, 0, 1, 0)) == (0, 0, 0, 0, 1)

    e6 = build_root_system(RootSystemType("E", 6))
    assert _dominant_dual(e6, (1, 0, 0, 0, 0, 0)) == (0, 0, 0, 0, 0, 1)


def test_diagram_automorphisms():
    orders = {"A1": 1, "A2": 2, "A5": 2, "B3": 1, "C4": 1, "D4": 6, "D5": 2,
              "D6": 2, "E6": 2, "E7": 1, "E8": 1, "F4": 1, "G2": 1}
    for name, order in orders.items():
        rs = build_root_system(RootSystemType.parse(name))
        auts = rs.diagram_automorphisms
        assert len(auts) == order
        assert auts[0] == tuple(range(rs.rank))
        for p in auts:
            assert all(rs.cartan[p[i]][p[j]] == rs.cartan[i][j]
                       for i in range(rs.rank) for j in range(rs.rank))
    d4 = build_root_system(RootSystemType("D", 4))
    assert d4.diagram_orbit((1, 0, 0, 0)) == {
        (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}
    # dualizing is a diagram automorphism
    for name in ("A4", "D5", "E6"):
        rs = build_root_system(RootSystemType.parse(name))
        w = tuple(range(rs.rank))
        assert _dominant_dual(rs, w) in rs.diagram_orbit(w)


def test_dominant_dual_is_involutive():
    import random
    rng = random.Random(3)
    for name in ("A4", "D5", "E6", "B3"):
        rs = build_root_system(RootSystemType.parse(name))
        for _ in range(10):
            w = tuple(rng.randint(0, 3) for _ in range(rs.rank))
            assert _dominant_dual(rs, _dominant_dual(rs, w)) == w


def test_dominant_representative_fixed_points():
    rs = build_root_system(RootSystemType("A", 2))
    assert _dominant_representative(rs, (1, 1)) == (1, 1)
    # lowest weight of the 3-dim module comes back to the dual weight
    assert _dominant_representative(rs, (-1, 0)) == (0, 1)


def test_type_validation():
    with pytest.raises(ValueError):
        RootSystemType("D", 3)
    with pytest.raises(ValueError):
        RootSystemType("E", 9)
    with pytest.raises(ValueError):
        RootSystemType("H", 4)
    with pytest.raises(ValueError):
        RootSystemType("F", 3)
    assert RootSystemType.parse("B3") == RootSystemType("B", 3)
    assert RootSystemType.parse("E8").name == "E8"


def _coroot_set(family, rank):
    return set(build_root_system(RootSystemType(family, rank)).positive_coroots)


def _root_set(family, rank):
    return set(build_root_system(RootSystemType(family, rank)).positive_roots)


def test_positive_coroots_form_the_dual_root_system():
    for n in range(3, 9):
        assert _coroot_set("B", n) == _root_set("C", n)
        assert _coroot_set("C", n) == _root_set("B", n)
    # G2 and F4 are self-dual with the order of the simple roots reversed
    for family, rank in (("G", 2), ("F", 4)):
        assert _coroot_set(family, rank) == {
            tuple(reversed(b)) for b in _root_set(family, rank)}
    for family, rank in (("A", 1), ("A", 5), ("D", 4), ("D", 7),
                         ("E", 6), ("E", 7), ("E", 8)):
        rs = build_root_system(RootSystemType(family, rank))
        assert rs.positive_coroots == rs.positive_roots


def _reference_positive_roots(rs):
    """The positive roots as they were generated before roots were raised
    one simple reflection at a time: every root, positive and negative,
    reflected by every simple reflection, the positive ones kept."""
    simples = [tuple(int(i == j) for i in range(rs.rank))
               for j in range(rs.rank)]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for beta in frontier:
            for j in range(rs.rank):
                c = sum(beta[i] * rs.cartan[i][j] for i in range(rs.rank))
                g = beta[:j] + (beta[j] - c,) + beta[j + 1:]
                if g not in roots:
                    roots.add(g)
                    new.append(g)
        frontier = new
    pos = [b for b in roots if all(x >= 0 for x in b)]
    assert 2 * len(pos) == len(roots)
    return tuple(sorted(pos, key=lambda b: (sum(b), b)))


def _reference_coroot(rs, beta):
    """``b_i (alpha_i, alpha_i) / (beta, beta)`` with the simple-root lengths
    of the family table and ``(beta, beta)`` summed from the weight
    coordinates of beta, O(r^2) per root."""
    sq = linalg.clear_denominators(
        _reference_half_lengths(rs.rstype.family, rs.rank))
    norm = sum(b * q * c for b, q, c in
               zip(beta, sq, rs.root_weight_coords(beta)))
    cor = [divmod(2 * b * q, norm) for b, q in zip(beta, sq)]
    assert all(rem == 0 for _, rem in cor)
    return tuple(c for c, _ in cor)


REFERENCE_TYPES = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(2, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("family,rank", REFERENCE_TYPES)
def test_raised_roots_match_the_all_roots_reference(family, rank):
    rs = build_root_system(RootSystemType(family, rank))
    assert rs.positive_roots == _reference_positive_roots(rs)
    assert rs.positive_coroots == tuple(
        _reference_coroot(rs, beta) for beta in rs.positive_roots)


def _reference_half_lengths(family, rank):
    """The per-family table of half squared simple-root lengths, long roots
    1, the only source of lengths the references here use."""
    d = [Fraction(1)] * rank
    if family == "B":
        d[rank - 1] = Fraction(1, 2)
    elif family == "C":
        for i in range(rank - 1):
            d[i] = Fraction(1, 2)
    elif family == "F":
        d[2] = d[3] = Fraction(1, 2)
    elif family == "G":
        d[0] = Fraction(1, 3)
    return d


@pytest.mark.parametrize("family,rank", REFERENCE_TYPES)
def test_simple_root_lengths_match_the_family_table(family, rank):
    # the table symmetrizes the Cartan matrix: (alpha_i, alpha_j) is
    # cartan[i][j] d[j], so cartan[i][j] d[j] == cartan[j][i] d[i]
    rs = build_root_system(RootSystemType(family, rank))
    d = _reference_half_lengths(family, rank)
    r = rs.rank
    assert all(rs.cartan[i][j] * d[j] == rs.cartan[j][i] * d[i]
               for i in range(r) for j in range(r))


@pytest.mark.parametrize("family,rank", REFERENCE_TYPES)
def test_coroots_satisfy_the_coroot_axiom(family, rank):
    # <beta, beta^vee> = 2, and s_beta gamma = gamma - <gamma, beta^vee> beta
    # is a root for every root gamma: the property that defines beta^vee,
    # checked with no root lengths
    rs = build_root_system(RootSystemType(family, rank))
    roots = set(rs.positive_roots)
    weights = {g: rs.root_weight_coords(g) for g in rs.positive_roots}
    for beta, cor in zip(rs.positive_roots, rs.positive_coroots):
        assert sum(map(mul, cor, weights[beta])) == 2
        for gamma, w in weights.items():
            c = sum(map(mul, cor, w))
            image = tuple(g - c * b for g, b in zip(gamma, beta))
            assert image in roots or tuple(-x for x in image) in roots


def test_types_sort_by_family_then_rank():
    types = [RootSystemType(f, r) for f, r in REFERENCE_TYPES]
    by_fields = sorted(types, key=lambda t: (t.family, t.rank))
    assert sorted(types[::-1]) == by_fields
    assert RootSystemType("A", 9) < RootSystemType("B", 2)
