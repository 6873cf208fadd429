import gc
import hashlib
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from operator import mul

import pytest

from liemod import hwmod
from liemod.hwmod import (BuildCeilingExceeded, IrrepSpec, build_hw_module,
                          enumerate_dominant_up_to_dim,
                          extend_to_full_algebra, weyl_dim)
from liemod.modality import action_from_module
from liemod.rootsys import RootSystemType, build_root_system
from test_rootsys import _fundamental_weights, _reference_half_lengths

A1 = RootSystemType("A", 1)
A2 = RootSystemType("A", 2)
B3 = RootSystemType("B", 3)
C3 = RootSystemType("C", 3)
D5 = RootSystemType("D", 5)
E6 = RootSystemType("E", 6)
F4 = RootSystemType("F", 4)
G2 = RootSystemType("G", 2)

# dimensions computable by hand or standard: natural reps, adjoints, spins
DIM_CASES = [
    (A1, (2,), 3),        # adjoint of the rank-1 algebra
    (A1, (3,), 4),
    (A2, (1, 0), 3),
    (A2, (1, 1), 8),      # adjoint
    (A2, (2, 0), 6),
    (B3, (1, 0, 0), 7),
    (B3, (0, 0, 1), 8),   # spin
    (C3, (1, 0, 0), 6),
    (C3, (0, 0, 1), 14),
    (D5, (0, 0, 0, 0, 1), 16),  # half-spin
    (E6, (1, 0, 0, 0, 0, 0), 27),
    (F4, (0, 0, 0, 1), 26),
    (G2, (1, 0), 7),
    (G2, (0, 1), 14),     # adjoint
]


@pytest.mark.parametrize("rstype,weight,dim", DIM_CASES)
def test_weyl_dimension_formula(rstype, weight, dim):
    assert weyl_dim(IrrepSpec(rstype, weight)) == dim


@pytest.mark.parametrize("rstype,weight,dim", [
    c for c in DIM_CASES if c[2] <= 27])
def test_built_dimension_matches_formula(rstype, weight, dim):
    mod = build_hw_module(IrrepSpec(rstype, weight))
    assert mod.dimension == dim
    assert mod.e[0].shape == (dim, dim)


def test_spec_validation():
    with pytest.raises(ValueError):
        IrrepSpec(A2, (1,))          # wrong length
    with pytest.raises(ValueError):
        IrrepSpec(A2, (-1, 0))       # not dominant
    with pytest.raises(ValueError):
        IrrepSpec(A2, (Fraction(1, 2), 0))  # not integral


def test_build_ceiling():
    big = IrrepSpec(A2, (9, 9))
    assert weyl_dim(big) == 1000
    with pytest.raises(BuildCeilingExceeded):
        build_hw_module(big, ceiling=256)
    # explicit larger ceiling allows it in principle; don't build it here


def _bracket(a, b):
    """``a b - b a`` of two square matrices as nested lists, by the
    textbook product."""
    cols_a, cols_b = list(zip(*a)), list(zip(*b))
    return [[sum(map(mul, ra, cb)) - sum(map(mul, rb, ca))
             for cb, ca in zip(cols_b, cols_a)] for ra, rb in zip(a, b)]


def _scaled(c, m):
    """c times the matrix m, as lists of rows."""
    return [[c * v for v in r] for r in m]


def test_commutation_relations():
    rs = build_root_system(A2)
    mod = build_hw_module(IrrepSpec(A2, (1, 1)))
    r = 2
    for i in range(r):
        for j in range(r):
            comm = _bracket(mod.e[i], mod.f[j])
            assert comm == _scaled(int(i == j), mod.h[i])
            he = _bracket(mod.h[i], mod.e[j])
            assert he == _scaled(rs.cartan[j][i], mod.e[j])
            hf = _bracket(mod.h[i], mod.f[j])
            assert hf == _scaled(-rs.cartan[j][i], mod.f[j])


def _weights(mod):
    """The weight of each basis vector: the diagonals of the h matrices."""
    return [tuple(h[b, b] for h in mod.h) for b in range(mod.dimension)]


def test_weights_start_at_highest():
    mod = build_hw_module(IrrepSpec(G2, (1, 0)))
    assert _weights(mod)[0] == (1, 0)
    assert mod.monomials[0] == ()
    # weight of each basis vector drops by the applied simple roots
    rs = build_root_system(G2)
    for mono, w in zip(mod.monomials, _weights(mod), strict=True):
        expect = [1, 0]
        for j in mono:
            for i in range(2):
                expect[i] -= rs.cartan[j][i]
        assert tuple(expect) == w


def test_h_matrices_diagonal_with_weights():
    mod = build_hw_module(IrrepSpec(A2, (2, 0)))
    rs = build_root_system(A2)
    for b, mono in enumerate(mod.monomials):
        expect = [2, 0]
        for j in mono:
            for i in range(2):
                expect[i] -= rs.cartan[j][i]
        for i in range(2):
            for a in range(mod.dimension):
                assert mod.h[i][a, b] == (expect[i] if a == b else 0)


def test_enumerate_dominant_small():
    # nonzero dominant weights only
    found = enumerate_dominant_up_to_dim(A1, 5)
    assert sorted(found) == [(1,), (2,), (3,), (4,)]
    found = enumerate_dominant_up_to_dim(A2, 8)
    assert set(found) == {(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)}
    for w in found:
        assert weyl_dim(IrrepSpec(A2, w)) <= 8


def test_enumerate_dominant_monotone_in_bound():
    small = set(enumerate_dominant_up_to_dim(G2, 14))
    large = set(enumerate_dominant_up_to_dim(G2, 64))
    assert small <= large
    assert (1, 0) in small and (0, 1) in small


def test_extension_full_algebra_a2():
    rs = build_root_system(A2)
    mod = extend_to_full_algebra(IrrepSpec(A2, (1, 0)))
    assert mod.full_basis is not None
    assert len(mod.full_basis) == rs.dimension == 8
    assert mod.basis_names[0] == "h1"
    # full basis acts faithfully: flattened matrices, one row each, are
    # linearly independent
    flat = [[v for r in m.rows for v in r] for m in mod.full_basis]
    from liemod.linalg import rank, rmat
    assert rank(rmat(flat)) == 8


def test_extension_closure_under_bracket_g2():
    # brackets of basis elements stay inside the span
    rs = build_root_system(G2)
    mod = extend_to_full_algebra(IrrepSpec(G2, (1, 0)))
    basis = mod.full_basis
    n = mod.dimension
    flat = [[v for r in m.rows for v in r] for m in basis]
    assert all(len(row) == n * n for row in flat)
    from liemod.linalg import rank, rmat
    base_rank = rank(rmat(flat))
    assert base_rank == rs.dimension == 14
    rng = random.Random(3)
    for _ in range(6):
        a, b = rng.randrange(len(basis)), rng.randrange(len(basis))
        comm = _bracket(basis[a], basis[b])
        assert rank(rmat(flat + [[v for r in comm for v in r]])) == base_rank


def test_module_caching():
    a = build_hw_module(IrrepSpec(A2, (1, 1)))
    b = build_hw_module(IrrepSpec(A2, (1, 1)))
    assert a is b


def test_caches_release_the_previous_module():
    # neither module is an adjoint, so no structure-constant table holds it
    extended = weakref.ref(extend_to_full_algebra(IrrepSpec(A2, (2, 0))))
    action_from_module(IrrepSpec(B3, (0, 0, 1)))
    gc.collect()
    assert extended() is None


def test_extension_reuses_the_built_module():
    spec = IrrepSpec(B3, (1, 0, 0))
    build_hw_module(IrrepSpec(A1, (1,)))  # whatever came before, evicted
    misses = hwmod._build_module_cached.cache_info().misses
    mod = build_hw_module(spec)
    full = extend_to_full_algebra(spec)
    assert full.e is mod.e and full.f is mod.f and full.h is mod.h
    assert hwmod._build_module_cached.cache_info().misses == misses + 1


def test_extension_of_the_zero_weight_is_zero():
    mod = extend_to_full_algebra(IrrepSpec(A2, (0, 0)))
    assert len(mod.full_basis) == 8
    for m in mod.full_basis:
        assert m.shape == (1, 1) and m[0, 0] == 0


def test_matrices_read_only():
    mod = build_hw_module(IrrepSpec(A1, (1,)))
    with pytest.raises(TypeError):
        mod.e[0][0, 0] = 5


def _reference_weyl_dims(rstype, weights):
    """The Weyl product formula on Fractions in root coordinates:
    prod (lambda + delta, beta) / (delta, beta) over the positive roots."""
    rs = build_root_system(rstype)
    r = rs.rank
    half = _reference_half_lengths(rstype.family, rstype.rank)
    # (alpha_i, beta) for every positive root beta: (alpha_i, alpha_j) is
    # cartan[i][j] times alpha_j's half squared length
    forms = [[sum(rs.cartan[i][j] * half[j] * beta[j] for j in range(r))
              for i in range(r)] for beta in rs.positive_roots]
    # the Weyl vector: half the sum of the positive roots
    delta = [Fraction(sum(beta[i] for beta in rs.positive_roots), 2)
             for i in range(r)]
    den = Fraction(1)
    for form in forms:
        den *= sum(d * c for d, c in zip(delta, form))
    fws = _fundamental_weights(rs)
    out = []
    for w in weights:
        # root coordinates of lambda, through the fundamental weights
        lam = [sum(c * fw[i] for c, fw in zip(w, fws)) for i in range(r)]
        shifted = [a + b for a, b in zip(lam, delta)]
        num = Fraction(1)
        for form in forms:
            num *= sum(x * c for x, c in zip(shifted, form))
        d = num / den
        assert d.denominator == 1 and d > 0
        out.append(int(d))
    return out


@pytest.mark.parametrize("name", ["A4", "B4", "C4", "D5", "E6", "E7", "E8",
                                  "F4", "G2"])
def test_weyl_dim_matches_fraction_reference(name):
    rstype = RootSystemType.parse(name)
    rng = random.Random(name)
    weights = [tuple(rng.randint(0, 4) for _ in range(rstype.rank))
               for _ in range(50)]
    expected = _reference_weyl_dims(rstype, weights)
    assert [weyl_dim(IrrepSpec(rstype, w)) for w in weights] == expected


def _canonical_dump(mod):
    lines = [repr(mod.monomials)]
    for name in ("e", "f"):
        for j, m in enumerate(getattr(mod, name)):
            lines.append(f"{name}{j}")
            for i in range(mod.dimension):
                lines.append(" ".join(str(Fraction(m[i, k]))
                                      for k in range(mod.dimension)))
    return "\n".join(lines) + "\n"


# sha256 of _canonical_dump as produced by the contravariant-pairing
# builder this weight-space builder replaced
BUILD_PINS = [
    (G2, (1, 0),
     "11434b4015d01c4ca6d8dbb5daa3550aa42b8e01abc4e7b9269de9ae53e775c8"),
    (B3, (0, 0, 1),
     "56b1ad5e8497ab5b3cecdcc7a2be65dab1f67bbf2a8981f886b88c1cd50978a3"),
    (C3, (0, 0, 1),
     "f17ebccab57e4a4732aae7c4fadc556999c0ebbb8ce6e954374aac2d34de1647"),
    (E6, (1, 0, 0, 0, 0, 0),
     "ef9c7959f2f22e3d0b097cdcc290173109bd91dec50e618a52479b21d94b83c1"),
    # weight multiplicities up to 3 and 4: dependent candidates are
    # resolved through more than one echelon row
    (A2, (2, 2),
     "b7fe13feab2d337893bd28f8a3a8f6476a41f281669fe23e45865c682fca126e"),
    (G2, (1, 1),
     "e10cbcb09583ccbc755808388d60efed608cbc91394b53879fef18bdc0cab104"),
]


@pytest.mark.parametrize("rstype,weight,digest", BUILD_PINS)
def test_build_reproduces_pinned_modules(rstype, weight, digest):
    mod = build_hw_module(IrrepSpec(rstype, weight))
    text = _canonical_dump(mod)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _columns(m):
    cols = [{} for _ in range(m.shape[1])]
    for i, r in enumerate(m):
        for j, v in enumerate(r):
            if v:
                cols[j][i] = v
    return cols


def _apply(cols, vec):
    out = {}
    for j, x in vec.items():
        for i, a in cols[j].items():
            out[i] = out.get(i, 0) + a * x
    return {i: x for i, x in out.items() if x}


@pytest.mark.parametrize("name,weight", [
    ("E7", (0, 0, 0, 0, 0, 0, 1)),
    ("B6", (0, 0, 0, 0, 0, 1)),
    ("D7", (0, 0, 0, 0, 0, 0, 1)),
])
def test_commutation_relations_larger_modules(name, weight):
    rstype = RootSystemType.parse(name)
    spec = IrrepSpec(rstype, weight)
    mod = build_hw_module(spec)
    assert mod.dimension == weyl_dim(spec)
    weights = _weights(mod)
    r = rstype.rank
    e = [_columns(m) for m in mod.e]
    f = [_columns(m) for m in mod.f]
    for k in range(mod.dimension):
        x = {k: 1}
        for i in range(r):
            ex = _apply(e[i], x)
            for j in range(r):
                comm = _apply(e[i], _apply(f[j], x))
                for row, v in _apply(f[j], ex).items():
                    comm[row] = comm.get(row, 0) - v
                comm = {row: v for row, v in comm.items() if v}
                assert comm == ({k: weights[k][i]}
                                if i == j and weights[k][i] else {})


def test_weyl_dim_check_survives_python_o():
    # python -O strips assert statements; a basis that outgrows Weyl's
    # formula must still raise
    script = (
        "from liemod import hwmod\n"
        "from liemod.rootsys import RootSystemType\n"
        "weyl_dim = hwmod.weyl_dim\n"
        "hwmod.weyl_dim = lambda spec: weyl_dim(spec) - 1\n"
        "spec = hwmod.IrrepSpec(RootSystemType('B', 2), [1, 1])\n"
        "try:\n"
        "    print('no error:', hwmod.build_hw_module(spec).dimension)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "B2:1,1: basis outgrew Weyl's formula\n"
