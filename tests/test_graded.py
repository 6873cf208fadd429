"""Gradings, structure constants, Jordan decomposition, Cartan subspaces."""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from operator import add, mul, sub

import pytest

from liemod import graded as gr
from liemod import linalg
from liemod.rootsys import RootSystemType, build_root_system


def a2_z_grading():
    return gr.build_grading(gr.GradingSpec(RootSystemType("A", 2), None, (1, 0)))


def test_grading_spec_validation():
    a2 = RootSystemType("A", 2)
    with pytest.raises(ValueError):
        gr.GradingSpec(a2, 2, (1,))
    with pytest.raises(ValueError):
        gr.GradingSpec(a2, 2, (1, -1))
    with pytest.raises(ValueError):
        gr.GradingSpec(a2, 0, (1, 0))
    # finite m reduces labels
    assert gr.GradingSpec(a2, 2, (3, 2)).labels == (1, 0)
    assert gr.GradingSpec(a2, None, (3, 2)).labels == (3, 2)


def test_structure_constants_a1():
    sc = gr.structure_constants(RootSystemType("A", 1))
    assert sc.dim == 3
    # order: h, raising, lowering;  [h,e] = 2e, [h,f] = -2f, [e,f] = h
    assert sc.bracket[0][1] == {1: 2}
    assert sc.bracket[0][2] == {2: -2}
    assert sc.bracket[1][2] == {0: 1}
    assert sc.bracket[2][1] == {0: -1}


def test_structure_constants_jacobi_random():
    rng = random.Random(17)
    for name in ("A2", "B2"):
        sc = gr.structure_constants(RootSystemType.parse(name))
        for _ in range(6):
            u, v, w = ([Fraction(rng.randint(-3, 3)) for _ in range(sc.dim)]
                       for _ in range(3))
            uvw = sc.bracket_coords(sc.bracket_coords(u, v), w)
            vwu = sc.bracket_coords(sc.bracket_coords(v, w), u)
            wuv = sc.bracket_coords(sc.bracket_coords(w, u), v)
            total = [a + b + c for a, b, c in zip(uvw, vwu, wuv)]
            assert not any(total)


@pytest.mark.parametrize("name", ["F4", "E6", "E7", "E8"])
def test_structure_constants_exceptional(name):
    rt = RootSystemType.parse(name)
    sc = gr.structure_constants(rt)
    r = rt.rank
    index = {root: k for k, root in enumerate(sc.root_of_index)}
    unit = lambda i: tuple(1 if k == i else 0 for k in range(r))
    for i in range(r):
        e_i = index[unit(i)]
        for j in range(r):
            f_j = index[tuple(-c for c in unit(j))]
            assert sc.bracket[e_i][f_j] == ({i: 1} if i == j else {})
    rng = random.Random(23)
    for _ in range(3):
        # ints, not Fraction: the same values, and E8's 248-dimensional
        # triples bracket about ten times faster
        u, v, w = ([rng.randint(-3, 3) for _ in range(sc.dim)]
                   for _ in range(3))
        uvw = sc.bracket_coords(sc.bracket_coords(u, v), w)
        vwu = sc.bracket_coords(sc.bracket_coords(v, w), u)
        wuv = sc.bracket_coords(sc.bracket_coords(w, u), v)
        assert not any(a + b + c for a, b, c in zip(uvw, vwu, wuv))


# sha256 of each bracket table over "a,b,c:value;" for every nonzero
# bracket[a][b][c] in index order, with each value written as
# str(Fraction(v)) so that an int and an equal Fraction hash alike.  The
# sixteen tables through rank 4 and the exceptional ones were first computed
# from a commutator and a full expansion for every basis pair; A5-A8, B5-B8,
# C5-C8 and D5-D8 were added from the build that copied each root row out of
# ad of its root vector and negated the root rows' Cartan columns into the
# Cartan rows, before every row became ad of its basis element
BRACKET_TABLE_SHA256 = {
    "A1": "a6c9d31c686b8a14185888d382c73214120ae6da9ba6d2e8f19f75661383392f",
    "A2": "929c002c1da3a9f7035cb7b76e0f40e3475c8cdd83a64f06d9f63386d0c2f83a",
    "A3": "84d098f43850c894eee845185aaa387bba6e1362035d30d0b47207add10be6b8",
    "A4": "bf47229faaab88e49e5115902528f630ef1876d231f844f212632f36923ed79a",
    "A5": "a84a3ed5466400b36d184ce60e8b0566c0e5efc001f0f291cc04f973283d67db",
    "A6": "8b35d3114b4f28df4c08d23f32ec595960e8c7949131e03cb6376c4e6bbc4023",
    "A7": "441360253c4afc19ba90360fa8be3c8fe0474e201cb9d40a6b7b13893ad9cba6",
    "A8": "e52bf9097556bac69dbb81993e5bad561f222e67c0be9cc1c7c70040699bc004",
    "B2": "27dcda5c3a535a957ef205fb50db2fbca8ec3410393338585c77598a9eb3fee4",
    "B3": "79e9a3f3ce5c64025ac326a01904c53280b417440beb1dfeea3f1d813e4fd3b8",
    "B4": "2b6bfaa09e61a0ef7a89316952999aa7a5df8c9f95bb144a251e3ffd471b71a6",
    "B5": "8ca41fe9762c2aa2e5c82557bc901fc4e2a21056cc611754f4779fe9f490e85a",
    "B6": "c440570c32f62d387e88cb3e70d17a66b60d5a3358c55a4a3fa465b35b1d4272",
    "B7": "87e4d50edeb2ba6d9b3971777666c62cc78901f742d70ab8fe27a554179dc775",
    "B8": "4453dff53ef0ffc9c6b9857102f856c83352a2c336900873354e2e41f89691eb",
    "C2": "8320ac5f2ec16331ae94ab5af3631c501f64d1498c72b90c9f485f1830570db2",
    "C3": "ec82fa3b792f0c34e879f4646caabdc01b4cb88d34ec2c673b924381dae55722",
    "C4": "9b39a937fcf12ecf80ebdd9f54c1ce48c813b524ff1dff9adee6072c03eb8996",
    "C5": "ec77b4cbd2176c70577a01d33d307f9b67111a30d7ed2c16cfe5a9dc3f7e3e8d",
    "C6": "1dc105a357ee577fdf476cae40ed711c351a3dc117f6fd083eda1f3deb0a2415",
    "C7": "f4a9090a8d0721f59e6acd7c0a1418e651957c329e401f1119b501a0bc1035e5",
    "C8": "68c52ca20a0088083256057bba78065bb0bd7f06c06e385ff1cec44b1ba775fd",
    "D4": "fb908f82cc01b6ebb7af2ac8a4d137d0213b26b416f8e2ccd8cb9bae211bb499",
    "D5": "f0f767663361ed5768528875bff8af47dcce0fc175ee4370d88f8cad9271d51e",
    "D6": "169576b7ba413fd90d674e572acc51ad384f320e976a7321e245572a6d26e424",
    "D7": "76f18dfbb88539ae501de09322c554520de47c5d6ac1a9e4d8b448deeaf0e418",
    "D8": "fef8999fd6408e7f3b156478ceae2fb043904cca78783a08405e9a688ceb8511",
    "G2": "5c63429334da79a2568cb0e92d28a366a3b65702d91b072e51739fdcd1a277b5",
    "F4": "57a4f03a180917ff285b1accd49ba070cd9e6a7ffd035a5e612b30e2b1642159",
    "E6": "4c6d9d1f147a420afd44c93d4d4ff978136615f0921fd83121af346dabffbf50",
    "E7": "e9ee8af6559cbb49fb3e1d73cb79072619dab5e00d2fd9c597ee079fff865cca",
    "E8": "ed492b4d2fde3c58fb3fbce5e6c6177d7f0a7f92280c13aabea76a2c367dcc08",
}


@pytest.mark.parametrize("name", sorted(BRACKET_TABLE_SHA256))
def test_bracket_tables_pinned(name):
    sc = gr.structure_constants(RootSystemType.parse(name))
    digest = hashlib.sha256()
    for a, row in enumerate(sc.bracket):
        for b, entry in enumerate(row):
            for c in sorted(entry):
                digest.update(f"{a},{b},{c}:{Fraction(entry[c])};".encode())
    assert digest.hexdigest() == BRACKET_TABLE_SHA256[name]


# every simple type up to rank 8
ALL_TYPES = [f"{family}{n}" for family, low in (("A", 1), ("B", 2), ("C", 2),
                                                ("D", 4))
             for n in range(low, 9)] + ["E6", "E7", "E8", "F4", "G2"]


@pytest.mark.parametrize("name", ALL_TYPES)
def test_cartan_brackets_are_cartan_integers(name):
    # [h_i, x_beta] = <beta, alpha_i^vee> x_beta, with an int coefficient
    rt = RootSystemType.parse(name)
    rs = build_root_system(rt)
    sc = gr.structure_constants(rt)
    for b, beta in enumerate(sc.root_of_index):
        if beta is None:
            continue
        for i, c in enumerate(rs.root_weight_coords(beta)):
            assert sc.bracket[i][b] == ({b: c} if c else {})
            assert sc.bracket[b][i] == ({b: -c} if c else {})
            assert all(type(v) is int for v in sc.bracket[i][b].values())


@pytest.mark.parametrize("name", ALL_TYPES)
def test_bracket_tables_obey_chevalley(name):
    # Chevalley's theorem (Chevalley 1955; Humphreys, Introduction to Lie
    # Algebras and Representation Theory, 25.2): in a Chevalley basis,
    # N_{a,b} N_{-a,-b} = -(p + 1)^2, with p the largest k such that
    # b - k a is a root.  The table's root vectors are not rescaled to one:
    # [x_a, x_{-a}] = t_a h_a, h_a the coroot, and rescaling x_{+-a} turns
    # the theorem into N_{a,b} N_{-a,-b} t_{a+b} / (t_a t_b) = -(p + 1)^2.
    rt = RootSystemType.parse(name)
    rs = build_root_system(rt)
    sc = gr.structure_constants(rt)
    index = {root: k for k, root in enumerate(sc.root_of_index) if root}
    neg = {a: tuple(-c for c in a) for a in index}
    coroot = {}
    for a, c in zip(rs.positive_roots, rs.positive_coroots):
        coroot[a], coroot[neg[a]] = c, tuple(-x for x in c)
    t = {}
    for a, k in index.items():
        h = sc.bracket[k][index[neg[a]]]
        j = next(j for j, c in enumerate(coroot[a]) if c)
        # an int where integral: Fraction products would double the time
        q, rem = divmod(h[j], coroot[a][j])
        t[a] = Fraction(h[j], coroot[a][j]) if rem else q
        assert t[a] and h == {i: t[a] * c for i, c in enumerate(coroot[a])
                              if c}
    for a, ka in index.items():
        row, row_neg = sc.bracket[ka], sc.bracket[index[neg[a]]]
        for b, kb in index.items():
            ab = tuple(map(add, a, b))
            if ab not in index:
                # a sum that is neither a root nor zero brackets to zero
                assert not (any(ab) and row[kb])
                continue
            p, below = 0, tuple(map(sub, b, a))
            while below in index:
                p, below = p + 1, tuple(map(sub, below, a))
            n_ab = row[kb][index[ab]]
            n_neg = row_neg[index[neg[b]]][index[neg[ab]]]
            assert n_ab * n_neg * t[ab] == -(p + 1) ** 2 * t[a] * t[b], (a, b)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_fundamental_weights_pair_to_identity(name):
    # the Cartan coordinates' integer inverse: its rows are _diag_den times
    # the fundamental weights w_i in root coordinates, so pairing them with
    # the simple coroots through the Cartan matrix gives _diag_den times
    # <w_i, alpha_j^vee> = delta_ij
    rt = RootSystemType.parse(name)
    rs = build_root_system(rt)
    sc = gr.structure_constants(rt)
    den, inv = sc._diag_den, sc._diag_inverse
    assert type(den) is int and den > 0
    assert all(type(c) is int for row in inv for c in row)
    assert [list(rs.root_weight_coords(row)) for row in inv] \
        == [[den * (i == j) for j in range(rs.rank)] for i in range(rs.rank)]


@pytest.mark.parametrize("name", ["B3", "G2", "F4"])
def test_skipped_pairs_commute_in_the_module(name):
    # the table takes no commutator for two Cartan generators or for two
    # root vectors whose roots sum to neither a root nor zero; their
    # commutators in the structure module must vanish
    sc = gr.structure_constants(RootSystemType.parse(name))
    roots = set(sc.root_of_index) - {None}
    basis = sc.module.full_basis
    skipped = 0
    for a, alpha in enumerate(sc.root_of_index):
        for b, beta in enumerate(sc.root_of_index):
            if (alpha is None) != (beta is None):
                continue
            if alpha is not None:
                total = tuple(x + y for x, y in zip(alpha, beta))
                if total in roots or not any(total):
                    continue
            skipped += 1
            assert not linalg.commutator(basis[a], basis[b]).nonzeros()
            assert sc.bracket[a][b] == {}
    assert skipped > sc.dim


def test_expand_matrix_rejects_outsiders():
    sc = gr.structure_constants(RootSystemType("A", 1))
    assert sc.expand_matrix(sc.module.full_basis[0]) == [1, 0, 0]
    with pytest.raises(ValueError):
        sc.expand_matrix(linalg.eye(2))  # identity is not traceless

    # each root vector of B2 has two nonzero entries in the natural module
    # and only one is read as its probe; changing any single entry of a
    # root vector, including entries no probe reads, leaves the algebra
    sc = gr.structure_constants(RootSystemType("B", 2))
    n = sc.module.dimension
    for a in range(2, sc.dim):
        x = sc.module.full_basis[a]
        assert sum(1 for r in x.rows for v in r if v) == 2
        assert sc.expand_matrix(x) == [int(k == a) for k in range(sc.dim)]
        for i in range(n):
            for j in range(n):
                bad = x.rows
                bad[i][j] += 1
                with pytest.raises(ValueError):
                    sc.expand_matrix(linalg.rmat(bad))


def test_build_grading_components():
    a2 = RootSystemType("A", 2)
    whole = gr.build_grading(gr.GradingSpec(a2, 1, (0, 0)))
    assert len(whole.components[0]) == 8 and len(whole.g1_indices) == 8
    assert list(whole.components) == [0]

    half = gr.build_grading(gr.GradingSpec(RootSystemType("A", 1), 2, (1,)))
    assert len(half.components[0]) == 1  # the Cartan alone
    assert len(half.g1_indices) == 2  # both root vectors

    zg = a2_z_grading()
    assert {d: len(v) for d, v in zg.components.items()} == {-1: 2, 0: 4, 1: 2}
    assert zg.spec.degree_of_root((1, 0)) == 1
    assert zg.spec.degree_of_root((0, 1)) == 0
    assert zg.spec.degree_of_root((1, 1)) == 1
    assert zg.spec.degree_of_root((-1, -1)) == -1
    # Cartan sits in degree zero
    assert {0, 1} <= set(zg.components[0])


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_build_grading_rejects_a_degree_map_that_is_not_additive(flags):
    # python -O strips assert statements; the check must survive it
    script = (
        "from liemod import graded as gr\n"
        "from liemod.rootsys import RootSystemType\n"
        "spec = gr.GradingSpec(RootSystemType('A', 2), None, (1, 0))\n"
        "gr.GradingSpec.degree_of_root = lambda self, beta: 1\n"
        "try:\n"
        "    gr.build_grading(spec)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("bracket breaks grading")


def test_g0_action_matrices_shape():
    ga = a2_z_grading()
    act = ga.g0_on_g1
    assert act.algebra_dim == 4 and act.space_dim == 2
    assert all(m.shape == (2, 2) for m in act.matrices)


def test_rank_of_grading_examples():
    a2 = RootSystemType("A", 2)
    assert gr.rank_of_grading(gr.build_grading(gr.GradingSpec(a2, 1, (0, 0)))) == 2
    a1 = RootSystemType("A", 1)
    assert gr.rank_of_grading(gr.build_grading(gr.GradingSpec(a1, 2, (1,)))) == 1
    assert gr.rank_of_grading(a2_z_grading()) == 0


@pytest.mark.parametrize("name,m", [("A3", 7), ("A2", None)])
def test_empty_degree_one_part_has_rank_zero(name, m):
    rt = RootSystemType.parse(name)
    ga = gr.build_grading(gr.GradingSpec(rt, m, (0,) * rt.rank))
    assert ga.g1_indices == ()
    assert gr.rank_of_grading(ga) == 0
    assert gr.cartan_subspace(ga) == []
    with pytest.raises(ValueError):
        gr.rank_of_grading(ga, trials=0)


def test_jordan_chevalley_basic_cases():
    # jordan_chevalley returns the semisimple part s; the nilpotent part
    # is x - s
    x = linalg.rmat([[0, 2, 5], [0, 0, 1], [0, 0, 0]])
    assert linalg.is_zero_matrix(gr.jordan_chevalley(x))
    d = linalg.rmat([[3, 0], [0, -1]])
    assert linalg.is_zero_matrix(d - gr.jordan_chevalley(d))
    m = linalg.rmat([[1, 1], [0, 0]])
    # distinct eigenvalues
    assert linalg.is_zero_matrix(m - gr.jordan_chevalley(m))
    j = linalg.rmat([[4, 1], [0, 4]])
    s = gr.jordan_chevalley(j)
    assert [s[i, i] for i in range(2)] == [4, 4]
    assert (j - s)[0, 1] == 1


def _mul(a, b):
    """The product of two matrices as an exact matrix, by the textbook
    sum."""
    cols = list(zip(*b))
    return linalg.rmat([[sum(map(mul, r, c)) for c in cols] for r in a])


def test_jordan_chevalley_invariants_random():
    rng = random.Random(55)
    for _ in range(12):
        n = rng.randint(2, 5)
        # upper triangular with repeated diagonal entries to force nilpotence,
        # then conjugate by a unimodular integer matrix
        t = [[0] * n for _ in range(n)]
        diag = [rng.choice([-1, 0, 2]) for _ in range(n)]
        for i in range(n):
            t[i][i] = diag[i]
            for j in range(i + 1, n):
                t[i][j] = rng.randint(-2, 2)
        g = linalg.eye(n)
        for _ in range(3):
            i, j = rng.sample(range(n), 2)
            shear = linalg.eye(n).rows
            shear[i][j] = rng.randint(-2, 2)
            g = _mul(g, shear)
        x = _mul(_mul(g, t), linalg.inverse(g))
        s = gr.jordan_chevalley(x)
        nn = x - s
        assert _mul(s, nn) == _mul(nn, s)
        assert all(c == 0 for c in linalg.char_poly(nn)[:-1])  # nilpotent
        sf = linalg.squarefree_part(linalg.char_poly(s))
        assert linalg.is_zero_matrix(linalg.poly_eval_matrix(sf, s))


def test_jordan_chevalley_falls_back_to_the_exact_path(monkeypatch):
    # a repeated eigenvalue is never squarefree mod p: the exact path runs
    d = linalg.rmat([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    j = linalg.rmat([[4, 1], [0, 4]])
    for x in (d, j):
        assert not linalg.char_poly_is_squarefree_mod_p(x, gr.PRIME)
    s = gr.jordan_chevalley(d)
    assert s == d
    s = gr.jordan_chevalley(j)
    assert s == linalg.rmat([[4, 0], [0, 4]])
    assert j - s == linalg.rmat([[0, 1], [0, 0]])
    # an unlucky prime costs only the fallback: diag(0, 5) mod 5
    monkeypatch.setattr(gr, "PRIME", 5)
    x = linalg.rmat([[0, 0], [0, 5]])
    s = gr.jordan_chevalley(x)
    assert s == x


def _yun_jordan_chevalley(x):
    """``jordan_chevalley`` as it was before it asked ``linalg`` for the
    squarefree part alone: Yun's factors multiplied back into it, a second
    exit for a squarefree characteristic polynomial, and a loop bounded
    only by an assertion on the largest multiplicity."""
    if linalg.char_poly_is_squarefree_mod_p(x, gr.PRIME):
        return x
    dec = linalg.squarefree_decomposition(linalg.char_poly(x))
    e_max = max((e for _, e in dec), default=1)
    sf = [Fraction(1)]
    for f, _ in dec:
        prod = [Fraction(0)] * (len(sf) + len(f) - 1)
        for i, a in enumerate(sf):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        sf = prod
    if e_max == 1:
        return x
    dsf = linalg.poly_derivative(sf)
    y = x
    steps = 0
    while True:
        val = linalg.poly_eval_matrix(sf, y)
        if linalg.is_zero_matrix(val):
            break
        y = y - linalg.solve_square(linalg.poly_eval_matrix(dsf, y), val)
        steps += 1
        assert steps <= e_max.bit_length() + 2, "iteration failed to settle"
    return y


def _jordan_block(ev, k):
    return linalg.rmat([[ev if i == j else int(j == i + 1) for j in range(k)]
                        for i in range(k)])


# the companion matrix of t^2 - 2, and a 4x4 matrix with minimal
# polynomial (t^2 - 2)^2
_ROOT2 = linalg.rmat([[0, 2], [1, 0]])
_ROOT2_SQ = linalg.rmat(
    [[0, 2, 1, 0], [1, 0, 0, 1], [0, 0, 0, 2], [0, 0, 1, 0]])

# block lists with n <= 8 and every characteristic polynomial repeated
# mod PRIME: mixed multiplicities, single Jordan blocks, and squarefree
# polynomials whose roots 0 and PRIME collide mod PRIME
JORDAN_TYPES = [
    *([_jordan_block(ev, k) for ev, k in blocks] for blocks in (
        ((1, 2), (2, 3)), ((1, 1), (1, 1), (2, 2), (2, 1)),
        ((1, 2), (2, 1), (2, 1), (2, 1)),
        ((1, 1), (1, 1), (2, 1), (2, 1), (2, 1)),
        ((0, 4), (-1, 1)), ((0, 2), (0, 2), (-1, 1)),
        ((0, 3), (0, 1), (-1, 1)), ((0, 2), (0, 1), (0, 1), (-1, 1)),
        ((3, 2),), ((-2, 3),), ((0, 5),), ((Fraction(1, 2), 6),), ((5, 8),),
        ((0, 8),), ((0, 3), (0, 3), (1, 2)), ((2, 4), (2, 2), (-3, 2)),
        ((1, 5), (1, 2), (0, 1)), ((0, 1), (gr.PRIME, 1)),
        ((0, 1), (gr.PRIME, 1), (1, 1)))),
    [_ROOT2, _ROOT2], [_ROOT2_SQ], [_ROOT2_SQ, _jordan_block(-1, 2)],
    [_ROOT2, _jordan_block(Fraction(1, 3), 3), _jordan_block(0, 1)],
]


def _conjugated_block_matrices():
    """Each of ``JORDAN_TYPES`` conjugated twice by three rational shears
    I + c E_ij, so every matrix has ``Fraction`` entries."""
    rng = random.Random(17)
    out = []
    for blocks in JORDAN_TYPES:
        t = linalg.block_diag(blocks)
        n = t.shape[0]
        for _ in range(2):
            x = t.rows
            for _ in range(3):
                i, j = rng.sample(range(n), 2)
                c = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
                for k in range(n):   # row i += c row j
                    x[i][k] += c * x[j][k]
                for k in range(n):   # then column j -= c column i
                    x[k][j] -= c * x[k][i]
            out.append(linalg.rmat(x))
    return out


def _exact_path_elements():
    """Two sparse elements from each of criterion 07's principal gradings
    whose characteristic polynomial the mod-PRIME certificate cannot pass
    and has at least two distinct roots, as structure-module matrices."""
    rng = random.Random(gr.DEFAULT_SEED)
    out = []
    for name in ("A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4",
                 "G2"):
        rt = RootSystemType.parse(name)
        ga = gr.build_grading(gr.GradingSpec(rt, 1, (1,) * rt.rank))
        found = 0
        while found < 2:
            coords = [0] * ga.dim
            for i in rng.sample(ga.g1_indices, 3):
                coords[i] = rng.choice((-2, -1, 1, 2))
            mat = ga.sc.element_matrix(coords)
            if (not linalg.char_poly_is_squarefree_mod_p(mat, gr.PRIME) and
                    linalg.poly_degree(linalg.squarefree_part(
                        linalg.char_poly(mat))) > 1):
                out.append(mat)
                found += 1
    return out


def test_jordan_chevalley_matches_the_yun_reference():
    cases = _conjugated_block_matrices() + _exact_path_elements()
    assert len(cases) >= 30 + 10
    for x in cases:
        assert not linalg.char_poly_is_squarefree_mod_p(x, gr.PRIME)
        got, want = gr.jordan_chevalley(x), _yun_jordan_chevalley(x)
        assert got == want


def test_jordan_chevalley_newton_steps_stay_within_the_yun_bound(monkeypatch):
    cases = _conjugated_block_matrices() + _exact_path_elements()
    steps = [0]
    solve = linalg.solve_square

    def counted(a, b):
        steps[0] += 1
        return solve(a, b)

    monkeypatch.setattr(linalg, "solve_square", counted)
    for x in cases:
        steps[0] = 0
        gr.jordan_chevalley(x)
        dec = linalg.squarefree_decomposition(linalg.char_poly(x))
        assert steps[0] <= max(e for _, e in dec).bit_length() + 2


def _degree_of_basis(ga):
    """The degree of each basis element: its root's, and 0 on the
    Cartan."""
    return [0 if root is None else ga.spec.degree_of_root(root)
            for root in ga.sc.root_of_index]


def test_decompose_graded_element_homogeneous():
    rng = random.Random(7)
    ga = gr.build_grading(gr.GradingSpec(RootSystemType("B", 2), 2, (1, 0)))
    degs = _degree_of_basis(ga)
    for d in sorted(ga.components):
        for _ in range(5):
            x = gr.random_homogeneous_element(ga, d, rng)
            if not any(x):
                continue
            s, n = gr.decompose_graded_element(ga, x)
            assert [a + b for a, b in zip(s, n)] == [Fraction(c) for c in x]
            for coords in (s, n):
                support = {degs[i] for i, c in enumerate(coords) if c}
                assert support <= {d}
            assert not any(ga.sc.bracket_coords(s, n))


def test_element_of_wrong_length_is_an_error():
    ga = a2_z_grading()
    assert ga.dim == 8
    with pytest.raises(ValueError):
        ga.sc.element_matrix([1, 2, 0, 5])
    with pytest.raises(ValueError):
        gr.decompose_graded_element(ga, [1, 2, 0, 5])
    with pytest.raises(ValueError):
        gr.decompose_graded_element(ga, [0] * 9)


def test_cartan_subspace_examples():
    assert gr.cartan_subspace(a2_z_grading()) == []

    ga = gr.build_grading(gr.GradingSpec(RootSystemType("A", 1), 2, (1,)))
    cs = gr.cartan_subspace(ga)
    assert len(cs) == 1
    # the element lives in the off-Cartan part and is semisimple
    mat = ga.sc.element_matrix(list(cs[0]))
    sf = linalg.squarefree_part(linalg.char_poly(mat))
    assert linalg.is_zero_matrix(linalg.poly_eval_matrix(sf, mat))

    for name in ("A2", "G2"):
        rt = RootSystemType.parse(name)
        ga = gr.build_grading(gr.GradingSpec(rt, 1, (0,) * rt.rank))
        cs = gr.cartan_subspace(ga)
        assert len(cs) == rt.rank == gr.rank_of_grading(ga)
        for i, u in enumerate(cs):
            assert {_degree_of_basis(ga)[k]
                    for k, c in enumerate(u) if c} <= {0}
            for v in cs[i + 1:]:
                assert not any(ga.sc.bracket_coords(list(u), list(v)))
        stacked = linalg.rmat([list(u) for u in cs])
        assert linalg.rank(stacked) == len(cs)


def _unbounded_cartan_subspace(ga, seed, counter, decompose):
    """``cartan_subspace`` as it was before the spanned-slice stop: the
    loop ends only after eight samples in a row add nothing."""
    rng = random.Random(seed)
    slice_basis = [[int(i == idx) for i in range(ga.dim)]
                   for idx in ga.g1_indices]
    found = []
    while slice_basis:
        for attempt in range(8):
            box = 3 + 2 * attempt
            coeffs = [rng.randint(-box, box) for _ in slice_basis]
            x = gr._combine(coeffs, slice_basis)
            if not any(x):
                continue
            counter[0] += 1
            s, _ = decompose(ga, x)
            if not any(s) or gr._in_span(found, s):
                continue
            found.append(tuple(s))
            s = linalg.clear_denominators(s)
            images = [ga.sc.bracket_coords(s, v) for v in slice_basis]
            rows = [linalg.clear_denominators(row) for row in zip(*images)
                    if any(row)]
            kernel = linalg.integer_kernel(rows, len(slice_basis))
            slice_basis = [gr._combine(k, slice_basis) for k in kernel]
            break
        else:
            break
    return found


# criterion 07's gradings (tests/test_acceptance.py): m = 1, all of g in
# degree one, so the Cartan generators seed the family
ADJOINT_GRADINGS = [
    (f"{f}{r}", 1, (1,) * r) for f, ranks in (
        ("A", (1, 2, 3, 4)), ("B", (2, 3, 4)), ("C", (2, 3, 4)),
        ("D", (4,)), ("G", (2,))) for r in ranks]
# criterion 07's other two gradings and E6 EII: no Cartan generator has
# degree one, so the family comes from samples alone
SAMPLED_GRADINGS = [
    ("A2", None, (1, 0)), ("A1", 2, (1,)), ("E6", 2, (0, 1, 0, 0, 0, 0))]


def _counted_decompositions(monkeypatch):
    calls = [0]
    decompose = gr.decompose_graded_element

    def counted(ga, coords):
        calls[0] += 1
        return decompose(ga, coords)

    monkeypatch.setattr(gr, "decompose_graded_element", counted)
    return calls, decompose


def test_cartan_subspace_stops_when_the_slice_is_spanned(monkeypatch):
    calls, decompose = _counted_decompositions(monkeypatch)
    reference = [0]
    for name, m, labels in SAMPLED_GRADINGS:
        ga = gr.build_grading(
            gr.GradingSpec(RootSystemType.parse(name), m, labels))
        before = calls[0], reference[0]
        got = gr.cartan_subspace(ga)
        want = _unbounded_cartan_subspace(
            ga, gr.DEFAULT_SEED, reference, decompose)
        assert got == want, name
        assert calls[0] - before[0] <= reference[0] - before[1], name
    assert calls[0] < reference[0]


def test_cartan_subspace_of_an_adjoint_grading_is_the_cartan(monkeypatch):
    calls, _ = _counted_decompositions(monkeypatch)
    for name, m, labels in ADJOINT_GRADINGS:
        rt = RootSystemType.parse(name)
        ga = gr.build_grading(gr.GradingSpec(rt, m, labels))
        assert ga.g1_indices == tuple(range(ga.dim))
        cartan = [tuple(int(i == k) for i in range(ga.dim))
                  for k in range(rt.rank)]
        assert gr.cartan_subspace(ga) == cartan, name
    assert calls[0] == 0


def test_cartan_subspace_of_an_integer_grading_is_empty(monkeypatch):
    # nonnegative labels put every degree-one root in n+, so g_1 is
    # nilpotent and no sample is needed to find no semisimple element
    calls, _ = _counted_decompositions(monkeypatch)
    for name, labels in [("A2", (1, 0)), ("B3", (0, 1, 0)),
                         ("E6", (0, 1, 0, 0, 0, 0))]:
        ga = gr.build_grading(
            gr.GradingSpec(RootSystemType.parse(name), None, labels))
        assert ga.g1_indices and gr.cartan_subspace(ga) == [], name
    assert calls[0] == 0


def test_cartan_subspace_skips_a_zero_sample(monkeypatch):
    # at seed 63 the first draw on A1 with m = 2 is (0, 0); it is skipped
    # undecomposed, and the next draw spans the one-dimensional answer
    calls, _ = _counted_decompositions(monkeypatch)
    ga = gr.build_grading(gr.GradingSpec(RootSystemType("A", 1), 2, (1,)))
    rng = random.Random(63)
    assert [rng.randint(-3, 3) for _ in ga.g1_indices] == [0, 0]
    assert len(gr.cartan_subspace(ga, seed=63)) == 1
    assert calls[0] == 1


def test_cartan_subspace_of_an_adjoint_grading_takes_no_centralizer_step(
        monkeypatch):
    calls = [0]
    centralizer_slice = gr.centralizer_slice

    def counted(sc, s, slice_basis):
        calls[0] += 1
        return centralizer_slice(sc, s, slice_basis)

    monkeypatch.setattr(gr, "centralizer_slice", counted)
    for name, m, labels in ADJOINT_GRADINGS:
        rt = RootSystemType.parse(name)
        ga = gr.build_grading(gr.GradingSpec(rt, m, labels))
        assert len(gr.cartan_subspace(ga)) == rt.rank, name
    assert calls[0] == 0
    # a sampled grading still cuts its slice down
    gr.cartan_subspace(gr.build_grading(
        gr.GradingSpec(RootSystemType("A", 1), 2, (1,))))
    assert calls[0] > 0


def _killing_gram(rstype):
    """Trace form of the adjoint representation on the root-space basis."""
    sc = gr.structure_constants(rstype)
    n = sc.dim
    gram = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            total = 0
            for c in range(n):
                row = sc.bracket[a][c]
                if not row:
                    continue
                other = sc.bracket[b]
                for d, s in row.items():
                    total += s * other[d].get(c, 0)
            gram[a][b] = total
            gram[b][a] = total
    return linalg.rmat(gram)


def test_killing_gram_a1_and_invariance():
    gram = _killing_gram(RootSystemType("A", 1))
    assert [[gram[i, j] for j in range(3)] for i in range(3)] == \
        [[8, 0, 0], [0, 0, 4], [0, 4, 0]]
    sc = gr.structure_constants(RootSystemType("A", 2))
    gram = _killing_gram(RootSystemType("A", 2))
    rng = random.Random(3)
    kappa = lambda u, v: sum(
        gram[i, j] * u[i] * v[j] for i in range(sc.dim) for j in range(sc.dim))
    for _ in range(5):
        u, v, w = ([Fraction(rng.randint(-3, 3)) for _ in range(sc.dim)]
                   for _ in range(3))
        lhs = kappa(sc.bracket_coords(u, v), w)
        rhs = -kappa(v, sc.bracket_coords(u, w))
        assert lhs == rhs


def test_killing_gram_degree_orthogonality():
    for name, m, labels in [("A1", 2, (1,)), ("A2", None, (1, 0)), ("B2", 2, (0, 1))]:
        rt = RootSystemType.parse(name)
        ga = gr.build_grading(gr.GradingSpec(rt, m, labels))
        gram = _killing_gram(rt)
        degs = _degree_of_basis(ga)
        mm = ga.spec.m
        for i in range(ga.dim):
            for j in range(ga.dim):
                total = degs[i] + degs[j]
                if mm is not None:
                    total %= mm
                if total != 0:
                    assert gram[i, j] == 0
        # pairing of opposite components has full rank
        for d, idxs in ga.components.items():
            opp = (-d) % mm if mm is not None else -d
            jdxs = ga.components.get(opp, ())
            assert len(jdxs) == len(idxs)
            block = [[gram[i, j] for j in jdxs] for i in idxs]
            assert linalg.rank(linalg.rmat(block)) == len(idxs)


@pytest.mark.parametrize("name,labels,expected", [
    ("F4", (1, 0, 0, 0), 4),      # FI
    ("F4", (0, 0, 0, 1), 1),      # FII
    ("E6", (1, 0, 0, 0, 0, 0), 2),  # EIII
    ("E6", (0, 1, 0, 0, 0, 0), 4),  # EII
])
def test_exceptional_involution_ranks(name, labels, expected):
    # a Z2 grading's rank is the real rank of the matching real form
    ga = gr.build_grading(gr.GradingSpec(RootSystemType.parse(name), 2, labels))
    assert gr.rank_of_grading(ga) == len(gr.cartan_subspace(ga)) == expected


# Helgason, Differential Geometry, Lie Groups, and Symmetric Spaces (1978),
# ch. X, table of the exceptional symmetric spaces: the real rank of each
# inner real form of G2 and E7.  A Z2 grading with label 1 on one node
# (Bourbaki numbering) is the involution that fixes the extended Dynkin
# diagram minus that node when its highest-root coefficient is 2, and the
# Levi factor plus a centre when it is 1.  E7's highest root is
# 2a1 + 2a2 + 3a3 + 4a4 + 3a5 + 2a6 + a7.
HELGASON_INNER_INVOLUTIONS = [
    ("G2", (1, 0), 2),                    # G2(2), so(4) fixed
    ("G2", (0, 1), 2),                    # the same real form
    ("E7", (0, 1, 0, 0, 0, 0, 0), 7),     # EV, su(8) fixed
    ("E7", (1, 0, 0, 0, 0, 0, 0), 4),     # EVI, so(12) + su(2) fixed
    ("E7", (0, 0, 0, 0, 0, 1, 0), 4),     # EVI again, by node 6
    ("E7", (0, 0, 0, 0, 0, 0, 1), 3),     # EVII, e6 + R fixed
]


@pytest.mark.parametrize("name,labels,expected", HELGASON_INNER_INVOLUTIONS)
def test_inner_involution_ranks_helgason(name, labels, expected):
    ga = gr.build_grading(gr.GradingSpec(RootSystemType.parse(name), 2, labels))
    assert gr.rank_of_grading(ga) == expected
