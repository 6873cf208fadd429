"""Gradings, structure constants, Jordan decomposition, Cartan subspaces."""

import random
from fractions import Fraction

import numpy as np
import pytest

from liemod import graded as gr
from liemod import linalg
from liemod.rootsys import RootSystemType


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


@pytest.mark.parametrize("name", ["F4", "E6"])
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
        u, v, w = ([Fraction(rng.randint(-3, 3)) for _ in range(sc.dim)]
                   for _ in range(3))
        uvw = sc.bracket_coords(sc.bracket_coords(u, v), w)
        vwu = sc.bracket_coords(sc.bracket_coords(v, w), u)
        wuv = sc.bracket_coords(sc.bracket_coords(w, u), v)
        assert not any(a + b + c for a, b, c in zip(uvw, vwu, wuv))


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
        assert sum(1 for v in x.flat if v) == 2
        assert sc.expand_matrix(x) == [int(k == a) for k in range(sc.dim)]
        for i in range(n):
            for j in range(n):
                bad = x.copy()
                bad[i, j] += 1
                with pytest.raises(ValueError):
                    sc.expand_matrix(bad)


def test_build_grading_components():
    a2 = RootSystemType("A", 2)
    whole = gr.build_grading(gr.GradingSpec(a2, 1, (0, 0)))
    assert len(whole.g0_indices) == 8 and len(whole.g1_indices) == 8
    assert list(whole.components) == [0]

    half = gr.build_grading(gr.GradingSpec(RootSystemType("A", 1), 2, (1,)))
    assert len(half.g0_indices) == 1  # the Cartan alone
    assert len(half.g1_indices) == 2  # both root vectors

    zg = a2_z_grading()
    assert {d: len(v) for d, v in zg.components.items()} == {-1: 2, 0: 4, 1: 2}
    assert zg.degree_of_root((1, 0)) == 1
    assert zg.degree_of_root((0, 1)) == 0
    assert zg.degree_of_root((1, 1)) == 1
    assert zg.degree_of_root((-1, -1)) == -1
    # Cartan sits in degree zero
    assert all(zg.degree_of_basis[i] == 0 for i in range(2))


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


def test_jordan_chevalley_basic_cases():
    x = linalg.rmat([[0, 2, 5], [0, 0, 1], [0, 0, 0]])
    p = gr.jordan_chevalley(x)
    assert linalg.is_zero_matrix(p.semisimple_part)
    d = linalg.rmat([[3, 0], [0, -1]])
    p = gr.jordan_chevalley(d)
    assert linalg.is_zero_matrix(p.nilpotent_part)
    m = linalg.rmat([[1, 1], [0, 0]])
    p = gr.jordan_chevalley(m)
    assert linalg.is_zero_matrix(p.nilpotent_part)  # distinct eigenvalues
    j = linalg.rmat([[4, 1], [0, 4]])
    p = gr.jordan_chevalley(j)
    assert [p.semisimple_part[i, i] for i in range(2)] == [4, 4]
    assert p.nilpotent_part[0, 1] == 1


def test_jordan_chevalley_invariants_random():
    rng = random.Random(55)
    for _ in range(12):
        n = rng.randint(2, 5)
        # upper triangular with repeated diagonal entries to force nilpotence,
        # then conjugate by a unimodular integer matrix
        t = linalg.zeros(n)
        diag = [rng.choice([-1, 0, 2]) for _ in range(n)]
        for i in range(n):
            t[i, i] = diag[i]
            for j in range(i + 1, n):
                t[i, j] = rng.randint(-2, 2)
        g = linalg.eye(n)
        for _ in range(3):
            i, j = rng.sample(range(n), 2)
            shear = linalg.eye(n)
            shear[i, j] = rng.randint(-2, 2)
            g = np.dot(g, shear)
        x = np.dot(np.dot(g, t), linalg.inverse(g))
        p = gr.jordan_chevalley(x)
        s, nn = p.semisimple_part, p.nilpotent_part
        assert linalg.is_zero_matrix(x - s - nn)
        assert linalg.is_zero_matrix(np.dot(s, nn) - np.dot(nn, s))
        assert all(c == 0 for c in linalg.char_poly(nn)[:-1])  # nilpotent
        _, sf = linalg.char_poly_squarefree(s)
        assert linalg.is_zero_matrix(linalg.poly_eval_matrix(sf, s))


def test_decompose_graded_element_homogeneous():
    rng = random.Random(7)
    ga = gr.build_grading(gr.GradingSpec(RootSystemType("B", 2), 2, (1, 0)))
    for d in sorted(ga.components):
        for _ in range(5):
            x = gr.random_homogeneous_element(ga, d, rng)
            if not any(x):
                continue
            s, n = gr.decompose_graded_element(ga, x)
            assert [a + b for a, b in zip(s, n)] == [Fraction(c) for c in x]
            for coords in (s, n):
                support = {ga.degree_of_basis[i] for i, c in enumerate(coords) if c}
                assert support <= {d}
            assert not any(ga.sc.bracket_coords(s, n))


def test_cartan_subspace_examples():
    assert gr.cartan_subspace(a2_z_grading()) == []

    ga = gr.build_grading(gr.GradingSpec(RootSystemType("A", 1), 2, (1,)))
    cs = gr.cartan_subspace(ga)
    assert len(cs) == 1
    # the element lives in the off-Cartan part and is semisimple
    mat = ga.sc.element_matrix(list(cs[0]))
    _, sf = linalg.char_poly_squarefree(mat)
    assert linalg.is_zero_matrix(linalg.poly_eval_matrix(sf, mat))

    for name in ("A2", "G2"):
        rt = RootSystemType.parse(name)
        ga = gr.build_grading(gr.GradingSpec(rt, 1, (0,) * rt.rank))
        cs = gr.cartan_subspace(ga)
        assert len(cs) == rt.rank == gr.rank_of_grading(ga)
        for i, u in enumerate(cs):
            assert {ga.degree_of_basis[k] for k, c in enumerate(u) if c} <= {0}
            for v in cs[i + 1:]:
                assert not any(ga.sc.bracket_coords(list(u), list(v)))
        stacked = linalg.rmat([list(u) for u in cs])
        assert linalg.rank(stacked) == len(cs)


def test_killing_gram_a1_and_invariance():
    gram = gr.killing_gram(RootSystemType("A", 1))
    assert [[gram[i, j] for j in range(3)] for i in range(3)] == \
        [[8, 0, 0], [0, 0, 4], [0, 4, 0]]
    sc = gr.structure_constants(RootSystemType("A", 2))
    gram = gr.killing_gram(RootSystemType("A", 2))
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
        gram = gr.killing_gram(rt)
        degs = ga.degree_of_basis
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
            block = np.empty((len(idxs), len(jdxs)), dtype=object)
            for a, i in enumerate(idxs):
                for b, j in enumerate(jdxs):
                    block[a, b] = gram[i, j]
            assert linalg.rank(block) == len(idxs)


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
