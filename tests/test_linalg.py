"""Exact linear algebra: frozen examples plus randomized cross-checks.

The oracle here is an independent plain-list Gaussian elimination over
Fraction, written without reference to the implementation under test.
Characteristic polynomials are checked against the Faddeev-LeVerrier
recurrence, over Fraction and, for large matrices, over the integers, and
squarefree parts and decompositions against Fraction long division and
Yun's loop.
"""

import functools
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import zip_longest
from math import gcd, isqrt, lcm, prod
from operator import mul, sub

import pytest

from liemod import graded as gr
from liemod import linalg, modality
from liemod.hwmod import IrrepSpec, build_hw_module, extend_to_full_algebra
from liemod.rootsys import RootSystemType


def oracle_rank(rows):
    """Row-reduce a list-of-lists of Fractions; count nonzero rows."""
    m = [[Fraction(x) for x in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rk = 0
    for col in range(nc):
        piv = next((i for i in range(rk, nr) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        inv = 1 / m[rk][col]
        m[rk] = [v * inv for v in m[rk]]
        for i in range(nr):
            if i != rk and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rk])]
        rk += 1
    return rk


def poly_eval_dense(coeffs, m):
    n = m.shape[0]
    out = [[coeffs[-1] if i == j else 0 for j in range(n)] for i in range(n)]
    for c in reversed(coeffs[:-1]):
        out = _mul(out, m)
        for i in range(n):
            out[i][i] += c
    return out


def poly_mul(p, q):
    """Product of two polynomials, ascending and normalized."""
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return linalg.poly_normalize(out)


def poly_eval(p, x):
    """A polynomial's value at a number, by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def test_rank_example():
    m = linalg.rmat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert linalg.rank(m) == 2


def test_kernel_example():
    m = linalg.rmat([[1, 1]])
    ker = linalg.kernel_basis(m)
    assert len(ker) == 1
    v = ker[0]
    assert v[0] == -v[1] and v[0] != 0


def test_kernel_of_a_matrix_with_no_rows_is_everything():
    # the width comes from the shape: no rows, yet three columns
    units = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert linalg.kernel_basis(linalg.zeros(0, 3)) == units
    assert linalg.kernel_basis(linalg.zeros(1, 3)) == units
    assert linalg.rank(linalg.zeros(0, 3)) == 0


def test_product_through_an_empty_inner_dimension_is_zero():
    prod_ = linalg.zeros(2, 0) @ linalg.zeros(0, 3)
    assert prod_.shape == (2, 3)
    assert prod_ == linalg.zeros(2, 3)
    assert (linalg.zeros(0, 2) @ linalg.zeros(2, 3)).shape == (0, 3)


def test_rank_matches_oracle_random():
    rng = random.Random(20240817)
    for _ in range(60):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        assert linalg.rank(linalg.rmat(rows)) == oracle_rank(rows)


MERSENNE_61 = 2**61 - 1


def test_rank_mod_p_matches_integer_rank_random():
    # products of random n x k and k x m factors have every rank up to k
    rng = random.Random(61)
    for _ in range(60):
        nr, nc, k = rng.randint(1, 8), rng.randint(1, 8), rng.randint(0, 6)
        a = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(nr)]
        b = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(k)]
        rows = [[sum(r[t] * b[t][j] for t in range(k)) for j in range(nc)]
                for r in a]
        before = [list(r) for r in rows]
        assert (linalg.rank_mod_p(rows, nc, MERSENNE_61)
                == linalg.integer_rank(rows, nc) == oracle_rank(rows))
        assert rows == before   # the input is left alone
        # a small prime can only lose rank, and sees entries only mod p
        small = linalg.rank_mod_p(rows, nc, 5)
        assert small <= linalg.integer_rank(rows, nc)
        assert small == linalg.rank_mod_p(
            [[x % 5 for x in r] for r in rows], nc, 5)


def test_rank_mod_p_is_at_most_the_rank_over_q():
    p = MERSENNE_61
    assert linalg.integer_rank([[p, 0], [0, 1]], 2) == 2
    assert linalg.rank_mod_p([[p, 0], [0, 1]], 2, p) == 1
    assert linalg.rank_mod_p([[0, 0], [0, 0]], 2, p) == 0
    assert linalg.rank_mod_p([], 3, p) == 0
    # entries beyond p and negative entries are read mod p
    assert linalg.rank_mod_p([[p + 1, 2], [-1, -2]], 2, p) == 1


def _row_list_rank_mod_p(rows, ncols, p):
    """``linalg.rank_mod_p`` as it was before packed rows: a list of Python
    ints per row, the tail right of each pivot updated entry by entry."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    rk = 0
    for c in range(ncols):
        pivot_row = next((r for r in range(rk, nrows) if rows[r][c] % p),
                         None)
        if pivot_row is None:
            continue
        rows[rk], rows[pivot_row] = rows[pivot_row], rows[rk]
        top = rows[rk]
        inv = pow(top[c], -1, p)
        tail = [v * inv % p for v in top[c + 1:]]
        for rr in rows[rk + 1:]:
            f = rr[c] % p
            if f:
                f = p - f
                rr[c + 1:] = [v + f * t for v, t in zip(rr[c + 1:], tail)]
        rk += 1
        if rk == nrows:
            break
    return rk


def _product(a, b, ncols):
    return [[sum(r[t] * b[t][j] for t in range(len(b))) for j in range(ncols)]
            for r in a]


def _mul(a, b):
    """The product of two matrices or nested lists as nested lists, by the
    textbook sum: the reference for every matrix product checked here."""
    a, b = [list(r) for r in a], [list(r) for r in b]
    return _product(a, b, len(b[0]) if b else 0)


def _bracket(a, b):
    """``a b - b a`` as nested lists, from two ``_mul`` products."""
    return [list(map(sub, r, s)) for r, s in zip(_mul(a, b), _mul(b, a))]


@pytest.mark.parametrize("p", [MERSENNE_61, 5, 3])
def test_packed_rank_mod_p_matches_row_list_reference(p):
    # low-rank products, tall and wide, with entries beyond p**2 in size
    rng = random.Random(p)
    shapes = [(70, 140), (140, 70)] + [
        (rng.randint(1, 40), rng.randint(1, 40)) for _ in range(10)]
    for nr, nc in shapes:
        k = rng.randint(0, min(nr, nc))
        a = [[rng.randint(-p, p) for _ in range(k)] for _ in range(nr)]
        b = [[rng.randint(-p * p, p * p) for _ in range(nc)]
             for _ in range(k)]
        rows = _product(a, b, nc)
        assert any(abs(x) > p * p for r in rows for x in r) or k == 0
        before = [list(r) for r in rows]
        got = linalg.rank_mod_p(rows, nc, p)
        assert got == _row_list_rank_mod_p(rows, nc, p), (nr, nc, k)
        assert rows == before


@functools.cache
def _slot_bound_rows(nr, nc, r):
    """The rows of L U, L ``nr`` x ``r`` with ones on and below the
    diagonal and U ``r`` x ``nc`` with unit pivots and -1 right of each.
    Built once per shape and shared as tuples: ``rank_mod_p`` and
    ``_row_list_rank_mod_p`` only read their rows."""
    lower = [[int(i >= k) for k in range(r)] for i in range(nr)]
    upper = [[(j == k) - (j > k) for j in range(nc)] for k in range(r)]
    return tuple(map(tuple, _product(lower, upper, nc)))


@pytest.mark.parametrize("p", [MERSENNE_61, 5, 3])
@pytest.mark.parametrize("short", [0, 1])
def test_packed_rank_mod_p_at_the_slot_bound(p, short):
    # L U with unit pivots, -1 right of each pivot and every multiplier 1:
    # each row past the pivots is updated at every pivot by (p - 1) times
    # a tail of p - 1, the most an update can add to a slot.  With one
    # pivot short of min(rows, cols), a carry across slots would leave
    # nonzero residues and raise the rank.
    nr, nc = 140, 70
    r = nc - short
    rows = _slot_bound_rows(nr, nc, r)
    cols = [list(c) for c in zip(*rows)]
    assert linalg.rank_mod_p(rows, nc, p) == r == _row_list_rank_mod_p(
        rows, nc, p)
    assert linalg.rank_mod_p(cols, nr, p) == r == _row_list_rank_mod_p(
        cols, nr, p)


# 2 and every prime just above a power of two fold slowest: there
# c = 2**e - p is 2**(e - 1) or close to it, and a fold about halves a slot
FOLD_PRIMES = [2, 3, 5, 37, 8209, MERSENNE_61, 2**61 + 15]


@pytest.mark.parametrize("p", FOLD_PRIMES)
@pytest.mark.parametrize("shape", [(140, 70), (70, 140)])
def test_folded_tail_at_the_slot_bound(p, shape):
    # L U with unit pivots, p - 1 right of each pivot and every multiplier
    # p - 1: every row is updated at every pivot above it, so each pivot
    # row's tail is folded after the most updates a row can take.  One
    # pivot short of min(rows, cols), a carry across slots or a fold that
    # left a slot too large would leave nonzero residues.
    nr, nc = shape
    for short in (0, 1):
        r = min(nr, nc) - short
        rows = _slot_bound_rows(nr, nc, r)
        assert linalg.rank_mod_p(rows, nc, p) == r == _row_list_rank_mod_p(
            rows, nc, p)


@pytest.mark.parametrize("p", FOLD_PRIMES)
def test_folded_rank_mod_p_matches_row_list_reference(p):
    # low-rank products, tall and wide, with entries past p**2 and zeros
    rng = random.Random(p)
    shapes = [(60, 25), (25, 60)] + [
        (rng.randint(1, 30), rng.randint(1, 30)) for _ in range(8)]
    for nr, nc in shapes:
        k = rng.randint(0, min(nr, nc))
        a = [[rng.choice([0, rng.randint(-p, p)]) for _ in range(k)]
             for _ in range(nr)]
        b = [[rng.randint(-p * p, p * p) for _ in range(nc)]
             for _ in range(k)]
        rows = _product(a, b, nc)
        before = [list(r) for r in rows]
        got = linalg.rank_mod_p(rows, nc, p)
        assert got == _row_list_rank_mod_p(rows, nc, p), (nr, nc, k)
        assert rows == before


@pytest.mark.parametrize("name,weight", [
    ("E7", (0, 0, 0, 0, 0, 0, 1)),
    ("D7", (0, 0, 0, 0, 0, 0, 1)),
    ("B6", (0, 0, 0, 0, 0, 1)),
])
def test_packed_rank_mod_p_on_orbit_matrices(name, weight):
    # the largest orbit matrices of the tables, at the point
    # generic_orbit_dim samples first
    action = modality.action_from_module(
        IrrepSpec(RootSystemType.parse(name), weight))
    rng = random.Random(modality.DEFAULT_SEED)
    v = [rng.randrange(modality.PRIME) for _ in range(action.space_dim)]
    rows = modality._orbit_rows(action, v)
    p = modality.PRIME
    assert (linalg.rank_mod_p(rows, action.algebra_dim, p)
            == _row_list_rank_mod_p(rows, action.algebra_dim, p))


def test_rank_rectangular_and_degenerate():
    assert linalg.rank(linalg.zeros(3)) == 0
    assert linalg.rank(linalg.eye(4)) == 4
    tall = linalg.rmat([[1], [2], [3]])
    assert linalg.rank(tall) == 1


def test_kernel_dimension_and_membership():
    rng = random.Random(7)
    for _ in range(40):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        m = linalg.rmat(rows)
        ker = linalg.kernel_basis(m)
        assert len(ker) == nc - linalg.rank(m)
        for v in ker:
            assert all(sum(map(mul, r, v)) == 0 for r in m)
        if ker:
            stacked = linalg.rmat([list(v) for v in ker])
            assert linalg.rank(stacked) == len(ker)


def test_solve_square_and_inverse():
    m = linalg.rmat([[2, 1], [1, 1]])
    b = linalg.rmat([[3], [2]])
    x = linalg.solve_square(m, b)
    assert x.shape == (2, 1) and m @ x == b
    inv = linalg.inverse(m)
    assert _mul(m, inv) == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        linalg.solve_square(linalg.rmat([[1, 2], [2, 4]]),
                            linalg.rmat([[1], [0]]))


def test_char_poly_frozen_cases():
    ident = linalg.eye(2)
    assert linalg.char_poly(ident) == [Fraction(1), Fraction(-2), Fraction(1)]
    diag = linalg.rmat([[1, 0], [0, 2]])
    assert linalg.char_poly(diag) == [Fraction(2), Fraction(-3), Fraction(1)]
    nil = linalg.rmat([[0, 1], [0, 0]])
    assert linalg.char_poly(nil) == [Fraction(0), Fraction(0), Fraction(1)]
    sf = linalg.squarefree_part(linalg.char_poly(ident))
    assert sf == [Fraction(-1), Fraction(1)]
    sfn = linalg.squarefree_part(linalg.char_poly(nil))
    assert sfn == [Fraction(0), Fraction(1)]


def test_char_poly_annihilates_matrix():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = linalg.rmat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        p = linalg.char_poly(m)
        assert len(p) == n + 1 and p[-1] == 1
        assert linalg.is_zero_matrix(linalg.rmat(poly_eval_dense(p, m)))


# The rational polynomial routines linalg used before its squarefree
# computations moved onto integer polynomials, kept as they were (renamed
# ref_*) as the reference: Fraction long division, the primitive
# pseudo-remainder gcd and Yun's loop.

def ref_int_primitive(p):
    """Clear denominators and divide by coefficient gcd; sign-normalize."""
    ints = linalg.clear_denominators(p)
    g = gcd(*ints)
    if g:
        ints = [x // g for x in ints]
    if ints and ints[-1] < 0:
        ints = [-x for x in ints]
    return ints


def ref_pseudo_rem(a, b):
    """Pseudo-remainder of integer coefficient lists, deg a >= deg b."""
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    r = list(a)
    for k in range(da - db, -1, -1):
        c = r[db + k]
        r = [lb * x for x in r]
        for i in range(db + 1):
            r[k + i] -= c * b[i]
    return linalg.poly_normalize(r)


def ref_poly_add(p, q):
    return linalg.poly_normalize(
        [a + b for a, b in zip_longest(p, q, fillvalue=0)])


def ref_poly_scale(p, c):
    return linalg.poly_normalize([c * x for x in p])


def ref_poly_divmod(p, q):
    """Exact division with remainder over the rationals."""
    q = linalg.poly_normalize(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = [Fraction(x) for x in linalg.poly_normalize(p)]
    dq = len(q) - 1
    lead = Fraction(q[-1])
    quot = [Fraction(0)] * max(0, len(r) - dq)
    for k in range(len(r) - dq - 1, -1, -1):
        c = r[dq + k] / lead
        if c:
            quot[k] = c
            for i in range(dq + 1):
                r[k + i] -= c * q[i]
    return linalg.poly_normalize(quot), linalg.poly_normalize(r[:dq])


def ref_poly_gcd(p, q):
    """Monic gcd over the rationals (primitive pseudo-remainder sequence)."""
    a = ref_int_primitive(linalg.poly_normalize(p))
    b = ref_int_primitive(linalg.poly_normalize(q))
    while b:
        if len(a) < len(b):
            a, b = b, a
            continue
        a, b = b, ref_int_primitive(ref_pseudo_rem(a, b))
    if not a:
        return []
    lead = Fraction(a[-1])
    return [Fraction(x) / lead for x in a]


def ref_squarefree_part(p):
    """Monic product of the distinct irreducible factors of p."""
    p = linalg.poly_normalize(p)
    if linalg.poly_degree(p) < 1:
        return [Fraction(1)] if p else []
    g = ref_poly_gcd(p, linalg.poly_derivative(p))
    quot, rem = ref_poly_divmod(p, g)
    assert not rem
    lead = Fraction(quot[-1])
    return [x / lead for x in quot]


def ref_squarefree_decomposition(p):
    """Yun decomposition: list of (monic factor, multiplicity) with
    pairwise-coprime squarefree factors whose weighted product is p."""
    p = linalg.poly_normalize(p)
    if linalg.poly_degree(p) < 1:
        return []
    lead = Fraction(p[-1])
    p = [Fraction(x) / lead for x in p]
    g = ref_poly_gcd(p, linalg.poly_derivative(p))
    if linalg.poly_degree(g) == 0:
        return [(p, 1)]
    b, _ = ref_poly_divmod(p, g)
    c, _ = ref_poly_divmod(linalg.poly_derivative(p), g)
    d = ref_poly_add(c, ref_poly_scale(linalg.poly_derivative(b), -1))
    out = []
    i = 1
    while linalg.poly_degree(b) > 0:
        a = ref_poly_gcd(b, d)
        if linalg.poly_degree(a) > 0:
            out.append((a, i))
        b, _ = ref_poly_divmod(b, a)
        c, _ = ref_poly_divmod(d, a)
        d = ref_poly_add(c, ref_poly_scale(linalg.poly_derivative(b), -1))
        i += 1
    return out


def _random_rational_poly(rng):
    """A seeded rational polynomial: the zero polynomial, a constant (with
    zero leads left on), or a non-monic product of small factors with
    repeats, shared factors, negative leads and powers of t."""
    kind = rng.random()
    if kind < 0.04:
        return [Fraction(0)] * rng.randint(0, 2)
    if kind < 0.08:
        return [Fraction(rng.choice([-7, -1, 1, 3]), rng.randint(1, 5)),
                *[0] * rng.randint(0, 2)]
    pool = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             for _ in range(rng.randint(2, 3))] for _ in range(3)]
    pool = [f[:-1] + [f[-1] or Fraction(-1)] for f in pool]
    p = [Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))]
    for _ in range(rng.randint(1, 3)):
        f = rng.choice(pool)
        for _ in range(rng.randint(1, 3)):
            p = poly_mul(p, f)
    if rng.random() < 0.3:
        p = [Fraction(0)] * rng.randint(1, 3) + p
    return p


def test_squarefree_matches_rational_reference_random():
    rng = random.Random(2200)
    edge = [[], [0], [Fraction(0), 0], [5], [Fraction(-3, 2), 0], [0, 1],
            [0, 0, -2], [1, 2, 1], [Fraction(1, 2), 0, -4]]
    for p in edge + [_random_rational_poly(rng) for _ in range(2000)]:
        for got, want in ((linalg.squarefree_part(p), ref_squarefree_part(p)),
                          (linalg.squarefree_decomposition(p),
                           ref_squarefree_decomposition(p))):
            assert got == want, p
            # equal values in equal types: Fraction(1) == 1, but the
            # reprs differ
            assert repr(got) == repr(want), p


def test_exact_quotient_raises_unless_exact():
    # (t + 1)(2t - 3) over t + 1 and over 2t - 3
    assert linalg._exact_quotient([-3, -1, 2], [1, 1]) == [-3, 2]
    assert linalg._exact_quotient([-3, -1, 2], [-3, 2]) == [1, 1]
    assert linalg._exact_quotient([4], [2]) == [2]
    for a, b in (([1, 0, 1], [1, 1]),    # remainder 2
                 ([1, 1], [0, 2]),       # quotient 1/2 in Q[t] only
                 ([1], [1, 1])):         # divisor of higher degree
        with pytest.raises(ArithmeticError):
            linalg._exact_quotient(a, b)


def test_inexact_squarefree_division_raises_under_python_o():
    # python -O strips assert statements; a gcd that does not divide p
    # must still raise, not return a wrong squarefree part
    script = (
        "from liemod import linalg\n"
        "linalg._pseudo_rem = lambda a, b: []\n"   # gcd(p, p') becomes p'
        "try:\n"
        "    print('no error:', linalg.squarefree_part([1, 0, 1]))\n"
        "except ArithmeticError as exc:\n"
        "    print(exc)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "polynomial division is not exact\n"


def test_squarefree_decomposition():
    # t^2 (t-1)^3
    t = [Fraction(0), Fraction(1)]
    tm1 = [Fraction(-1), Fraction(1)]
    p = poly_mul(poly_mul(t, t), poly_mul(tm1, poly_mul(tm1, tm1)))
    dec = linalg.squarefree_decomposition(p)
    dec = [(tuple(f), e) for f, e in dec if linalg.poly_degree(f) > 0]
    assert (tuple(t), 2) in dec
    assert (tuple(tm1), 3) in dec
    sf = linalg.squarefree_part(p)
    assert linalg.poly_degree(sf) == 2


def test_squarefree_properties_random():
    rng = random.Random(4242)
    for _ in range(30):
        # random monic product of small linear factors with repetition
        roots = [rng.randint(-2, 2) for _ in range(rng.randint(1, 5))]
        p = [Fraction(1)]
        for r0 in roots:
            p = poly_mul(p, [Fraction(-r0), Fraction(1)])
        sf = linalg.squarefree_part(p)
        # squarefree part divides p and has the distinct roots
        _, rem = ref_poly_divmod(p, sf)
        assert rem == [] or all(c == 0 for c in rem)
        assert linalg.poly_degree(sf) == len(set(roots))
        for r0 in set(roots):
            assert poly_eval(sf, Fraction(r0)) == 0


def reference_char_poly(rows):
    """Faddeev-LeVerrier on plain lists of Fractions, ascending, monic."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    coeffs = [Fraction(1)]
    b = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        ab = [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        c = -sum(ab[i][i] for i in range(n)) / k
        coeffs.append(c)
        b = [[ab[i][j] + (c if i == j else 0) for j in range(n)]
             for i in range(n)]
    return list(reversed(coeffs))


def integer_square(m):
    """Integer rows ``a`` and the least positive int ``den`` with
    ``m = a / den``."""
    rows = [[Fraction(v) for v in r] for r in m]
    den = lcm(*(v.denominator for r in rows for v in r))
    return [[int(v * den) for v in r] for r in rows], den


def integer_reference_char_poly(m):
    """Faddeev-LeVerrier on ``a = den * M`` over the integers, ascending,
    monic: each coefficient c_k of det(tI - a) is an integer, so the
    division by k is exact, and the coefficient of t^(n-k) in det(tI - M)
    is c_k / den^k.  O(n^4) on plain lists."""
    a, den = integer_square(m)
    n = len(a)
    coeffs = [1]  # c_k, the coefficient of t^(n-k) in det(tI - a)
    bk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*bk))
        bk = [[sum(map(mul, row, col)) for col in cols] for row in a]
        ck = -sum(bk[i][i] for i in range(n)) // k
        coeffs.append(ck)
        for i in range(n):
            bk[i][i] += ck
    return [Fraction(c, den ** k) for k, c in enumerate(coeffs)][::-1]


def row_norm_bound(rows):
    """``char_poly``'s bound B on the coefficients of an integer matrix."""
    return prod(isqrt(sum(v * v for v in r)) + 2 for r in rows)


def mixed_denominator_matrix(rng, n):
    return [[Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 6)))
             for _ in range(n)] for _ in range(n)]


def test_char_poly_mixed_denominators_matches_reference():
    rng = random.Random(314)
    for _ in range(30):
        rows = mixed_denominator_matrix(rng, rng.randint(1, 6))
        p = linalg.char_poly(linalg.rmat(rows))
        assert p == reference_char_poly(rows)
        assert p == integer_reference_char_poly(rows)
        assert all(isinstance(c, Fraction) for c in p)


def test_char_poly_of_empty_scalar_and_zero_matrices():
    cases = [(linalg.zeros(0), [1]), (linalg.rmat([[7]]), [-7, 1]),
             (linalg.rmat([[Fraction(-3, 2)]]), [Fraction(3, 2), 1])]
    cases += [(linalg.zeros(n), [0] * n + [1]) for n in (1, 2, 5)]
    for m, want in cases:
        got = linalg.char_poly(m)
        assert got == want == integer_reference_char_poly(m)
        assert all(type(c) is Fraction for c in got)


@pytest.mark.parametrize("size", [6, 2**50])
@pytest.mark.parametrize("name,labels", [("F4", (1, 0, 0, 0)),         # FI
                                         ("E6", (0, 1, 0, 0, 0, 0))])  # EII
def test_char_poly_of_exceptional_elements_matches_reference(
        name, labels, size):
    ga = gr.build_grading(
        gr.GradingSpec(RootSystemType.parse(name), 2, labels))
    rng = random.Random(size)
    coords = [0] * ga.dim
    for i in ga.g1_indices:
        coords[i] = rng.choice((-size, size))
    x = ga.sc.element_matrix(coords)
    got = linalg.char_poly(x)
    assert got == integer_reference_char_poly(x)
    assert all(type(c) is Fraction for c in got)
    # the large coefficients need a prime past 2^1279 - 1
    assert (2 * row_norm_bound(integer_square(x)[0]) > 2**1279) == (size > 6)


@pytest.mark.parametrize("e", linalg._MERSENNE_EXPONENTS[:5])
def test_char_poly_either_side_of_each_prime(e):
    # the largest scale s with 2 B(s r) < 2^e - 1, the last at which
    # char_poly computes mod 2^e - 1, and s + 1, the first past it; then
    # the same with B(s r) < 2^e - 1, where [[s]] has a coefficient near
    # 2^e that a prime above B alone would not lift
    rng = random.Random(e)
    for n in (1, 2, 3):
        for r in (linalg.eye(n).rows,
                  [[rng.choice((-1, 1)) * rng.randint(1, 3)
                    for _ in range(n)] for _ in range(n)]):
            for factor in (2, 1):
                lo, hi = 1, 2**e
                while lo < hi:
                    mid = (lo + hi + 1) // 2
                    scaled = [[mid * v for v in row] for row in r]
                    if factor * row_norm_bound(scaled) < 2**e - 1:
                        lo = mid
                    else:
                        hi = mid - 1
                for s in (lo, lo + 1):
                    m = [[s * v for v in row] for row in r]
                    assert linalg.char_poly(linalg.rmat(m)) == \
                        integer_reference_char_poly(m)


def test_mersenne_exponents_give_primes():
    exponents = linalg._MERSENNE_EXPONENTS
    assert list(exponents) == sorted(exponents)
    for e in exponents:
        if e > 3217:
            break
        # Lucas-Lehmer: 2^e - 1 is prime exactly when s_(e-2) = 0
        m, s = 2**e - 1, 4
        for _ in range(e - 2):
            s = (s * s - 2) % m
        assert s == 0, e


def test_char_poly_past_the_largest_prime_is_an_error():
    with pytest.raises(ValueError, match="20001 bits"):
        linalg.char_poly(linalg.rmat([[2**20000]]))


def test_poly_eval_matrix_mixed_denominators_matches_dense():
    rng = random.Random(2718)
    for _ in range(30):
        m = linalg.rmat(mixed_denominator_matrix(rng, rng.randint(1, 5)))
        p = [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 4, 5)))
             for _ in range(rng.randint(1, 5))]
        p[-1] = p[-1] or Fraction(1, 3)
        got = linalg.poly_eval_matrix(p, m)
        assert got.shape == m.shape
        assert got.rows == poly_eval_dense(p, m)


def test_poly_eval_matrix_edge_cases():
    m = linalg.rmat([[Fraction(1, 2), 3], [Fraction(-1, 3), 0]])
    assert linalg.is_zero_matrix(linalg.poly_eval_matrix([], m))
    assert linalg.poly_eval_matrix([], m).shape == (2, 2)
    assert linalg.is_zero_matrix(linalg.poly_eval_matrix([Fraction(0)], m))
    const = linalg.poly_eval_matrix([Fraction(5, 2)], m)
    assert const.rows == poly_eval_dense([Fraction(5, 2)], m)
    empty = linalg.zeros(0)
    assert linalg.char_poly(empty) == [Fraction(1)]
    assert linalg.poly_eval_matrix([], empty).shape == (0, 0)
    assert linalg.poly_eval_matrix([Fraction(1, 2), 1], empty).shape == (0, 0)


def test_solve_square_singular_despite_full_rank_augmented():
    a = linalg.rmat([[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        linalg.solve_square(a, linalg.rmat([[0], [1]]))
    with pytest.raises(ValueError):
        linalg.solve_square(a, linalg.eye(2))
    with pytest.raises(ValueError):
        linalg.inverse(linalg.rmat([[0, 1], [0, 1]]))


def test_solve_square_fraction_matrix_rhs():
    rng = random.Random(1618)
    solved = 0
    for _ in range(20):
        n = rng.randint(1, 5)
        a = linalg.rmat(mixed_denominator_matrix(rng, n))
        k = rng.randint(1, 3)
        b = linalg.rmat([[Fraction(rng.randint(-4, 4), rng.choice((1, 5)))
                          for _ in range(k)] for _ in range(n)])
        if linalg.rank(a) < n:
            with pytest.raises(ValueError):
                linalg.solve_square(a, b)
            continue
        x = linalg.solve_square(a, b)
        assert x.shape == b.shape
        assert _mul(a, x) == b.rows
        # one system is an n x 1 right-hand side
        col = linalg.solve_square(a, linalg.rmat([r[:1] for r in b]))
        assert col.shape == (n, 1) and col.rows == [r[:1] for r in x]
        solved += 1
    assert solved >= 15


def test_matrix_contract():
    m = linalg.rmat([[1, Fraction(1, 2)], [0, 3]])
    assert m.shape == (2, 2) and len(m) == 2 and m[0, 1] == Fraction(1, 2)
    assert [list(r) for r in m] == [[1, Fraction(1, 2)], [0, 3]]
    assert m[-1, -1] == 3 and m[1, 0] == 0
    for key in ((2, 0), (0, 2), (-3, 0)):
        with pytest.raises(IndexError):
            m[key]
    with pytest.raises(TypeError):   # never written once built
        m[1, 0] = 5
    m = linalg.rmat([[1, Fraction(1, 2)], [5, 3]])
    assert m.rows == [[1, Fraction(1, 2)], [5, 3]]
    assert (m @ m).rows == _mul(m, m)
    assert m - m == linalg.zeros(2)
    # sums and scalar multiples have no reader: they are not defined
    for op in (lambda: m + m, lambda: 2 * m, lambda: m * 1.5):
        with pytest.raises(TypeError):
            op()
    copy = linalg.Matrix.from_columns(m.columns(), 2)
    with pytest.raises(TypeError):
        copy[0, 0] = 2
    assert copy == m and copy is not m


def test_matrix_from_sparse_columns():
    cols = [{0: 2}, {}, {1: Fraction(-1, 3), 2: 4}]
    m = linalg.Matrix.from_columns(cols, 3)
    dense = linalg.rmat([[2, 0, 0], [0, 0, Fraction(-1, 3)], [0, 0, 4]])
    assert m.shape == (3, 3)
    assert sorted(m.nonzeros()) == sorted(dense.nonzeros()) == [
        (0, 0, 2), (1, 2, Fraction(-1, 3)), (2, 2, 4)]
    assert dense.columns() == m.columns() == cols
    assert m == dense and m[2, 2] == 4
    with pytest.raises(TypeError):
        m[0, 0] = 1


def test_writes_into_rows_leave_the_matrix_alone():
    # rows and iteration hand out fresh lists: writing into them changes
    # no entry, column or nonzero of the matrix they came from
    a = linalg.rmat([[1, 2], [0, Fraction(1, 2)]])
    for m in (linalg.Matrix.from_columns([{0: 1}, {1: 2}], 2), a,
              linalg.commutator(a, linalg.rmat([[0, 1], [3, 0]]))):
        entries = [[m[i, j] for j in range(2)] for i in range(2)]
        cols = [dict(col) for col in m.columns()]
        nonzeros = m.nonzeros()
        m.rows[0][0] = 7
        next(iter(m))[1] = 7
        assert [[m[i, j] for j in range(2)] for i in range(2)] == entries
        assert m.rows == entries
        assert m.columns() == cols and m.nonzeros() == nonzeros


def test_rmat_takes_exact_entries_only():
    m = linalg.rmat([[True, 2], [Fraction(1, 3), Fraction(4, 2)]])
    assert m.rows == [[1, 2], [Fraction(1, 3), 2]]
    assert [type(v) for r in m for v in r] == [int, int, Fraction, Fraction]
    # a float would become a 53-bit binary fraction: 0.1 is not 1/10
    for bad in (0.1, 1.0, "1", 1j, None):
        with pytest.raises(TypeError):
            linalg.rmat([[1, bad]])


def _benchmark_reads(m):
    """A matrix as the benchmark reads it: entry by entry over its shape,
    by ``rows``, by iterating its rows, and by its length; all must
    agree."""
    nrows, ncols = m.shape
    entries = [[m[i, j] for j in range(ncols)] for i in range(nrows)]
    assert m.rows == entries and [list(r) for r in m] == entries
    assert len(m) == nrows
    return entries


def test_every_view_of_a_matrix_agrees():
    b2 = RootSystemType("B", 2)
    mod = extend_to_full_algebra(IrrepSpec(b2, (1, 0)))
    mats = [*mod.full_basis, *build_hw_module(IrrepSpec(b2, (0, 1))).f,
            linalg.commutator(mod.full_basis[2], mod.full_basis[-1])]
    a = linalg.rmat([[2, 1], [1, Fraction(3, 2)]])
    mats.append(linalg.solve_square(
        a, linalg.rmat([[1, 0, 3], [0, Fraction(1, 3), 0]])))
    sc = gr.structure_constants(RootSystemType("G", 2))
    mats.append(sc.element_matrix([k % 3 - 1 for k in range(sc.dim)]))
    # no rows: the shape alone carries the width
    empty = [linalg.zeros(0, 3), linalg.Matrix.from_columns([{}, {}], 0),
             linalg.solve_square(linalg.zeros(0), linalg.zeros(0, 2))]
    for m in mats + empty:
        entries = _benchmark_reads(m)
        assert all(len(r) == m.shape[1] for r in entries)
    assert [m.shape for m in empty] == [(0, 3), (0, 2), (0, 2)]
    assert all(_benchmark_reads(m) == [] for m in empty)
    assert any(any(map(any, _benchmark_reads(m))) for m in mats)


def test_entry_points_take_rmat_of_lists_and_tuples():
    rows = [[1, 2, 3], [2, 4, 6], [Fraction(1, 2), 0, 1]]
    square = [[2, 1], [1, Fraction(1, 2) + 1]]
    # rmat reads a tuple of tuples as it reads a list of lists
    for wrap in (linalg.rmat, lambda r: linalg.rmat(tuple(map(tuple, r)))):
        assert linalg.rank(wrap(rows)) == 2
        assert [list(v) for v in linalg.kernel_basis(wrap(rows))] == [
            [-2, Fraction(-1, 2), 1]]
        assert linalg.char_poly(wrap(square)) == [2, Fraction(-7, 2), 1]
        assert linalg.inverse(wrap(square)) == linalg.rmat(
            [[Fraction(3, 4), Fraction(-1, 2)], [Fraction(-1, 2), 1]])
        assert not linalg.is_zero_matrix(wrap(rows))


def test_int_nonzeros_shares_one_multiplier():
    mats = [linalg.rmat([[Fraction(1, 2), 0], [3, Fraction(-2, 3)]]),
            linalg.zeros(2),
            linalg.Matrix.from_columns([{1: 5}, {0: Fraction(1, 4)}], 2)]
    got = linalg.int_nonzeros(mats)
    # the lcm of 2, 3 and 4 scales every matrix, the integer one too
    assert got == (((0, 0, 6), (1, 0, 36), (1, 1, -8)), (),
                   ((1, 0, 60), (0, 1, 3)))
    assert all(type(v) is int for entries in got for _, _, v in entries)
    assert linalg.int_nonzeros([linalg.eye(2)]) == (((0, 0, 1), (1, 1, 1)),)


def _two_pass_int_nonzeros(mats):
    """``linalg.int_nonzeros`` as two passes: every nonzero value cleared
    of denominators in one list, then the triples rebuilt from it."""
    entries = [m.nonzeros() for m in mats]
    vals = iter(linalg.clear_denominators(
        [v for nonzeros in entries for _, _, v in nonzeros]))
    return tuple(tuple((i, j, next(vals)) for i, j, _ in nonzeros)
                 for nonzeros in entries)


def test_int_nonzeros_matches_the_two_pass_reference():
    rng = random.Random(265)
    values = [0, 0, 0, 1, -4, 7, Fraction(3, 1), Fraction(-5, 6),
              Fraction(2, 9), Fraction(7, 4)]
    for trial in range(40):
        n = rng.randint(1, 5)
        pool = values if trial % 2 else values[:6]   # half all-int
        mats = []
        for _ in range(rng.randint(1, 4)):
            rows = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
            mats.append(linalg.Matrix(rows) if rng.random() < 0.5 else
                        linalg.Matrix.from_columns(
                            [{i: r[j] for i, r in enumerate(rows) if r[j]}
                             for j in range(n)], n))
        got = linalg.int_nonzeros(mats)
        assert got == _two_pass_int_nonzeros(mats)
        assert all(type(v) is int for t in got for _, _, v in t)


def test_exact_ratio_and_integral():
    for a, b, want in [(6, 3, 2), (-6, 4, Fraction(-3, 2)), (0, 7, 0),
                       (Fraction(3, 2), Fraction(1, 2), 3),
                       (Fraction(1, 2), 3, Fraction(1, 6)),
                       (4, Fraction(2, 3), 6), (5, -5, -1)]:
        got = linalg.exact_ratio(a, b)
        assert got == want and type(got) is type(want)
    assert type(linalg.integral(Fraction(4, 2))) is int
    assert linalg.integral(Fraction(1, 3)) == Fraction(1, 3)
    assert type(linalg.integral(7)) is int


def test_product_of_mismatched_shapes_is_an_error():
    a = linalg.rmat([[1, 2, 3], [4, 5, 6]])
    assert (a @ linalg.eye(3)) == a
    for b in (linalg.eye(2), linalg.rmat([[1], [2]]), linalg.zeros(4, 1)):
        with pytest.raises(ValueError):
            a @ b


SHAPE_ERRORS = {
    "ragged rows": lambda: linalg.rmat([[1, 2], [3]]),
    "ragged Matrix rows": lambda: linalg.Matrix([[1, 2], [3, 4, 5]]),
    "product": lambda: linalg.rmat([[1, 2]]) @ linalg.rmat([[1, 2]]),
    "difference": lambda: linalg.rmat([[1, 2]]) - linalg.eye(2),
    "solve": lambda: linalg.solve_square(linalg.eye(2),
                                         linalg.rmat([[1], [2], [3]])),
    "solve 1x2 right-hand side": lambda: linalg.solve_square(
        linalg.eye(2), linalg.rmat([[1, 2]])),
    # a matrix that is not square
    "solve 1x2 left-hand side": lambda: linalg.solve_square(
        linalg.rmat([[1, 2]]), linalg.eye(2)),
    "inverse 1x2": lambda: linalg.inverse(linalg.rmat([[1, 2]])),
    "char_poly 1x2": lambda: linalg.char_poly(linalg.rmat([[1, 2]])),
    "char_poly_is_squarefree_mod_p 1x2": lambda:
        linalg.char_poly_is_squarefree_mod_p(linalg.rmat([[1, 2]]), 7),
    "poly_eval_matrix 1x2": lambda: linalg.poly_eval_matrix(
        [1, 1], linalg.rmat([[1, 2]])),
    "char_poly_mod_p 1x2": lambda: linalg.char_poly_mod_p([[1, 2]], 7),
}


@pytest.mark.parametrize("case", sorted(SHAPE_ERRORS))
def test_shape_errors_raise_value_error(case):
    with pytest.raises(ValueError):
        SHAPE_ERRORS[case]()


def test_shape_errors_survive_python_o():
    # python -O strips assert statements; the shape checks must survive it
    script = (
        "from liemod import linalg\n"
        "wide = linalg.rmat([[1, 2]])\n"
        "for make in (lambda: linalg.rmat([[1, 2], [3]]),\n"
        "             lambda: linalg.rmat([[1, 2]]) - linalg.eye(1),\n"
        "             lambda: linalg.rmat([[1, 2]]) - linalg.eye(2),\n"
        "             lambda: linalg.solve_square(\n"
        "                 linalg.eye(2), linalg.rmat([[1], [2], [3]])),\n"
        "             lambda: linalg.solve_square(linalg.eye(2), wide),\n"
        "             lambda: linalg.solve_square(wide, linalg.eye(2)),\n"
        "             lambda: linalg.inverse(wide),\n"
        "             lambda: linalg.char_poly(wide),\n"
        "             lambda: linalg.char_poly_is_squarefree_mod_p(wide, 7),\n"
        "             lambda: linalg.poly_eval_matrix([1, 1], wide)):\n"
        "    try:\n"
        "        print('no error:', make())\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == (["ragged rows"] +
                                        ["shape mismatch"] * 6 +
                                        ["need a square matrix"] * 3)


def _dense_and_sparse(rows):
    """The same matrix built from dense rows and from sparse columns."""
    cols = [{i: r[j] for i, r in enumerate(rows) if r[j]}
            for j in range(len(rows))]
    return linalg.rmat(rows), linalg.Matrix.from_columns(cols, len(rows))


def test_commutator_matches_dense_reference():
    rng = random.Random(2031)
    values = [0, 0, 0, 1, -2, Fraction(1, 3), Fraction(-5, 2)]
    for n in range(1, 6):
        for _ in range(5):
            a, b = ([[rng.choice(values) for _ in range(n)] for _ in range(n)]
                    for _ in range(2))
            want = _bracket(a, b)
            for x in _dense_and_sparse(a):
                for y in _dense_and_sparse(b):
                    got = linalg.commutator(x, y)
                    assert got.shape == (n, n)
                    assert got.rows == want
                    assert all(v for _, _, v in got.nonzeros())
    # two block sums sharing a zero block: its columns are empty in both
    # inputs and come out empty
    x, y = (linalg.block_diag([linalg.zeros(1), linalg.rmat(block),
                               linalg.zeros(2)])
            for block in ([[1, 2], [0, Fraction(1, 2)]], [[0, 1], [-3, 0]]))
    want = _bracket(x, y)
    got = linalg.commutator(x, y)
    assert got.rows == want and any(map(any, want))
    cols = got.columns()
    assert cols[0] == cols[3] == cols[4] == {}
    # a matrix commutes with its own multiples: no entry is stored
    for m in _dense_and_sparse([[1, Fraction(1, 2)], [0, 3]]):
        zero = linalg.commutator(
            m, linalg.rmat([[v * Fraction(-2, 3) for v in r] for r in m]))
        assert zero.nonzeros() == []
        assert zero == linalg.zeros(2)
    with pytest.raises(ValueError):
        linalg.commutator(linalg.eye(2), linalg.eye(3))
    with pytest.raises(ValueError):
        linalg.commutator(linalg.zeros(2, 3), linalg.zeros(2, 3))


def test_block_sum_matches_dense_reference():
    dense, sparse = _dense_and_sparse(
        [[0, Fraction(1, 2), 0], [-4, 0, 0], [1, 0, Fraction(2, 3)]])
    blocks = [linalg.rmat([[1, 2], [3, 4]]), sparse, linalg.zeros(1), dense]
    got = linalg.block_diag(blocks)
    want = [[0] * 9 for _ in range(9)]
    off = 0
    for b in blocks:
        k = b.shape[0]
        for i, r in enumerate(b):
            want[off + i][off:off + k] = r
        off += k
    assert got.shape == (9, 9)
    assert got.rows == want
    # block sums multiply blockwise
    assert (got @ got).rows == _mul(want, want)
    zero = linalg.block_diag([linalg.zeros(2), linalg.zeros(1)])
    assert zero.nonzeros() == [] and zero == linalg.zeros(3)
    assert linalg.block_diag([]).shape == (0, 0)
    with pytest.raises(ValueError):
        linalg.block_diag([linalg.eye(2), linalg.zeros(2, 3)])


def _residue(q, p):
    return q.numerator * pow(q.denominator, -1, p) % p


def test_char_poly_mod_p_matches_char_poly_random():
    rng = random.Random(2027)
    for n in range(1, 9):
        for p in (MERSENNE_61, 7):
            for _ in range(6):
                rows = [[rng.choice((0, 0, rng.randint(-9, 9)))
                         for _ in range(n)] for _ in range(n)]
                before = [list(r) for r in rows]
                want = [_residue(c, p)
                        for c in integer_reference_char_poly(rows)]
                assert linalg.char_poly_mod_p(rows, p) == want
                assert rows == before   # the input is left alone
    assert linalg.char_poly_mod_p([], 5) == [1]
    # entries are ints only: Fraction(1, 2) % 5 is 1/2, not 3
    for rows in ([[Fraction(1, 2)]], [[Fraction(2)]]):
        with pytest.raises(TypeError):
            linalg.char_poly_mod_p(rows, 5)


def test_squarefree_mod_p_certifies_squarefree_over_q():
    # conjugated triangular matrices with a few repeated diagonal entries
    rng = random.Random(2028)
    seen = set()
    for _ in range(80):
        n = rng.randint(1, 6)
        t = [[rng.choice((-1, 0, 2, 3)) if i == j else
              (rng.randint(-2, 2) if j > i else 0) for j in range(n)]
             for i in range(n)]
        g = linalg.eye(n)
        for _ in range(3 if n > 1 else 0):   # unimodular shears
            shear = linalg.eye(n).rows
            i, j = rng.sample(range(n), 2)
            shear[i][j] = rng.randint(-2, 2)
            g = g @ linalg.rmat(shear)
        x = g @ linalg.rmat(t) @ linalg.inverse(g)
        exact = all(e == 1 for _, e in
                    linalg.squarefree_decomposition(linalg.char_poly(x)))
        for p in (MERSENNE_61, 5, 3):
            cert = linalg.char_poly_is_squarefree_mod_p(x, p)
            assert exact or not cert
            seen.add((exact, cert))
    assert {(True, True), (True, False), (False, False)} <= seen


def test_squarefree_mod_p_unlucky_prime_and_edge_cases():
    # diag(0, 5) has eigenvalues 0 and 5: distinct over Q, equal mod 5
    d = [[0, 0], [0, 5]]
    assert linalg.char_poly_mod_p(d, 5) == [0, 0, 1]
    assert not linalg.is_squarefree_mod_p(linalg.char_poly_mod_p(d, 5), 5)
    assert linalg.is_squarefree_mod_p(
        linalg.char_poly_mod_p(d, MERSENNE_61), MERSENNE_61)
    assert linalg.squarefree_decomposition(
        linalg.char_poly(linalg.rmat(d)))[0][1] == 1
    assert linalg.is_squarefree_mod_p([3], 5)          # a nonzero constant
    assert linalg.is_squarefree_mod_p([-1, 1], 5)      # t - 1
    assert not linalg.is_squarefree_mod_p([1, -2, 1], 5)   # (t - 1)^2
    # a leading coefficient that p divides proves nothing
    assert not linalg.is_squarefree_mod_p([-1, 1, 5], 5)
    assert not linalg.is_squarefree_mod_p([], 5)


# ``is_squarefree_mod_p`` as it was when its Euclid loop had a remainder
# routine of its own over F_p, kept verbatim (renamed ref_*) as the
# reference for the loop on integer pseudo-remainders reduced mod p.

def ref_poly_rem_mod_p(a, b, p):
    """Remainder of ascending int lists mod p; b's leading coefficient is
    nonzero mod p."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    for k in range(len(a) - 1 - db, -1, -1):
        c = a[k + db] * inv % p
        if c:
            for i in range(db + 1):
                a[k + i] = (a[k + i] - c * b[i]) % p
    del a[db:]
    while a and not a[-1] % p:
        a.pop()
    return a


def ref_is_squarefree_mod_p(poly, p):
    a = [v % p for v in poly]
    if not a or not a[-1]:
        return False
    b = [i * v % p for i, v in enumerate(a)][1:]
    while b and not b[-1]:
        b.pop()
    while b:
        a, b = b, ref_poly_rem_mod_p(a, b, p)
    return len(a) == 1


def _int_poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _random_int_poly_for(rng, p):
    """An int polynomial, not always normalized, that is often special mod
    p: a square factor, a lead or all coefficients divisible by p, wide
    coefficients, or (small p) a polynomial in t^p whose derivative
    vanishes mod p."""
    kind = rng.randrange(5)
    if kind == 0:   # f^2 g, f's lead sometimes divisible by p
        f = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
        g = [rng.randint(-5, 5) for _ in range(rng.randint(0, 4))]
        f.append(rng.choice((1, -1, 2, p)))
        g.append(rng.randint(1, 4))
        return _int_poly_mul(_int_poly_mul(f, f), g)
    if kind == 1 and p < 10:   # f(t^p) plus multiples of p, lead a unit
        k = rng.randint(1, 3)
        poly = [rng.choice((0, p, -2 * p)) for _ in range(k * p + 1)]
        for i in range(k):
            poly[i * p] += rng.randint(-9, 9)
        poly[-1] = rng.randint(1, p - 1)
        return poly
    if kind == 2:   # wide coefficients
        poly = [rng.randint(-2 ** 70, 2 ** 70)
                for _ in range(rng.randint(0, 10))]
        return poly + [rng.choice((p, -3 * p, rng.randint(1, 2 ** 70)))]
    if kind == 3:   # small coefficients, a lead that is a unit mod p
        return [rng.randint(-9, 9) for _ in range(rng.randint(0, 12))] + [
            rng.choice([v for v in (1, -1, 2, 3, 4) if v % p])]
    # many multiples of p, trailing zeros kept
    return [rng.choice((0, p, -p, rng.randint(-9, 9)))
            for _ in range(rng.randint(0, 12))]


@pytest.mark.parametrize("p", (2, 3, 5, 7, MERSENNE_61))
def test_is_squarefree_mod_p_matches_its_own_remainder_reference(p):
    rng = random.Random(2029 + p % 1000)
    answers = []
    for _ in range(2000):
        poly = _random_int_poly_for(rng, p)
        want = ref_is_squarefree_mod_p(poly, p)
        assert linalg.is_squarefree_mod_p(poly, p) == want, poly
        answers.append(want)
    assert 200 < sum(answers) < 1800
    edges = ([], [0], [p], [1], [-7], [0, 1], [p, 1], [1, p], [0, 0, 1],
             [1, 0, 1], [-1, 0, 0, 0, 0, 1], [-1, 1, p], [1, 2, 1])
    for poly in edges:
        assert (linalg.is_squarefree_mod_p(poly, p)
                == ref_is_squarefree_mod_p(poly, p)), poly
    # t^5 - 1: its derivative 5 t^4 vanishes mod 5, and it is (t - 1)^5
    assert not linalg.is_squarefree_mod_p([-1, 0, 0, 0, 0, 1], 5)
    assert linalg.is_squarefree_mod_p([-1, 0, 0, 0, 0, 1], 7)


def test_solve_square_keeps_an_empty_right_hand_sides_width():
    # the width comes from b's shape: no rows, yet three columns
    x = linalg.solve_square(linalg.zeros(0, 0), linalg.zeros(0, 3))
    assert x.shape == (0, 3) and x == linalg.zeros(0, 3)
    assert linalg.inverse(linalg.zeros(0, 0)) == linalg.zeros(0, 0)
    assert linalg.solve_square(linalg.zeros(0, 0), linalg.zeros(0, 1)).shape == (
        0, 1)
    assert linalg.solve_square(linalg.eye(2), linalg.zeros(2, 0)).shape == (
        2, 0)
    with pytest.raises(ValueError):
        linalg.solve_square(linalg.eye(2), linalg.zeros(3, 0))
