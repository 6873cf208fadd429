"""Exact linear algebra over the rationals.

Matrices are 2-d numpy arrays with ``dtype=object`` whose entries are
``fractions.Fraction`` or plain ``int``; mixing the two is fine since
arithmetic promotes to ``Fraction`` as needed.  Polynomials are python
lists of coefficients in ascending degree order, normalized so the
leading coefficient is nonzero (the zero polynomial is ``[]``).

No floating point is used anywhere: ranks, kernels and characteristic
polynomials are computed with fraction-free (Bareiss) elimination on
integer rows, so every answer is exact.
"""

from fractions import Fraction
from math import gcd, lcm

import numpy as np

__all__ = [
    "rmat", "rvec", "zeros", "eye", "is_zero_matrix", "clear_denominators",
    "rank", "integer_rank", "kernel_basis", "solve_square", "inverse",
    "char_poly", "char_poly_squarefree",
    "poly_normalize", "poly_degree", "poly_add", "poly_scale", "poly_mul",
    "poly_divmod", "poly_derivative", "poly_gcd", "poly_eval",
    "poly_eval_matrix", "squarefree_part", "squarefree_decomposition",
]


def rmat(rows):
    """Build an exact matrix (object array) from an iterable of rows."""
    data = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
            for row in rows]
    m = np.empty((len(data), len(data[0]) if data else 0), dtype=object)
    for i, row in enumerate(data):
        assert len(row) == m.shape[1], "ragged rows"
        for j, x in enumerate(row):
            m[i, j] = x
    return m


def rvec(entries):
    """Build an exact column vector as a 1-d object array."""
    v = np.empty(len(entries), dtype=object)
    for i, x in enumerate(entries):
        v[i] = x if isinstance(x, (int, Fraction)) else Fraction(x)
    return v


def zeros(nrows, ncols=None):
    m = np.empty((nrows, nrows if ncols is None else ncols), dtype=object)
    m[:] = 0
    return m


def eye(n):
    m = zeros(n)
    for i in range(n):
        m[i, i] = 1
    return m


def is_zero_matrix(m):
    return not any(bool(x) for x in m.flat)


def clear_denominators(values):
    """The values times the lcm of their denominators, as Python ints."""
    mult = lcm(*(x.denominator for x in values if isinstance(x, Fraction)))
    return [int(x * mult) for x in values]


def _integer_rows(m):
    """Scale each row by the lcm of its denominators.

    Row scaling changes neither the rank nor the kernel, and integer rows
    let the Bareiss elimination below run division-free.
    """
    return [clear_denominators(row) for row in np.asarray(m)]


def _bareiss_echelon(rows, ncols):
    """Fraction-free row echelon form of integer rows.

    Returns ``(echelon_rows, pivot_columns)``.  All intermediate entries
    are minors of the input matrix, so the divisions are exact.
    """
    rows = [list(r) for r in rows]
    nrows = len(rows)
    pivots = []
    pr = 0
    prev = 1
    for c in range(ncols):
        pivot_row = None
        for r in range(pr, nrows):
            if rows[r][c] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        p = rows[pr][c]
        for r in range(pr + 1, nrows):
            f = rows[r][c]
            rr = rows[r]
            top = rows[pr]
            for cc in range(c, ncols):
                rr[cc] = (p * rr[cc] - f * top[cc]) // prev
        pivots.append(c)
        prev = p
        pr += 1
        if pr == nrows:
            break
    return rows[:pr], pivots


def integer_rank(rows, ncols):
    """Exact rank of a matrix given as ``ncols``-long lists of Python ints."""
    _, pivots = _bareiss_echelon(rows, ncols)
    return len(pivots)


def rank(m):
    """Exact rank of a rational matrix."""
    m = np.asarray(m)
    if m.size == 0:
        return 0
    return integer_rank(_integer_rows(m), m.shape[1])


def kernel_basis(m):
    """Exact basis of the right kernel, one vector per free column."""
    m = np.asarray(m)
    nrows, ncols = m.shape
    if ncols == 0:
        return []
    ech, pivots = _bareiss_echelon(_integer_rows(m), ncols) if nrows else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        # back substitution against the echelon rows, bottom-up
        for i in reversed(range(len(pivots))):
            pc = pivots[i]
            s = sum((Fraction(ech[i][j]) * x[j] for j in range(pc + 1, ncols)), Fraction(0))
            x[pc] = -s / ech[i][pc]
        basis.append(rvec(x))
    return basis


def solve_square(a, b):
    """Solve ``a @ x = b`` for invertible square ``a``; ``b`` may be a matrix.

    Raises ValueError when ``a`` is singular.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[0]
    assert a.shape == (n, n)
    vec = b.ndim == 1
    bb = b.reshape(n, -1)
    aug = np.concatenate([a, bb], axis=1).copy()
    width = aug.shape[1]
    for c in range(n):
        pr = next((r for r in range(c, n) if aug[r, c] != 0), None)
        if pr is None:
            raise ValueError("matrix is singular")
        if pr != c:
            aug[[c, pr]] = aug[[pr, c]]
        inv = Fraction(1) / Fraction(aug[c, c])
        for j in range(c, width):
            aug[c, j] = aug[c, j] * inv
        for r in range(n):
            if r != c and aug[r, c] != 0:
                f = aug[r, c]
                for j in range(c, width):
                    aug[r, j] = aug[r, j] - f * aug[c, j]
    x = aug[:, n:]
    return x.reshape(-1) if vec else x


def inverse(a):
    return solve_square(a, eye(np.asarray(a).shape[0]))


def char_poly(m):
    """Characteristic polynomial det(tI - M), ascending, monic.

    Faddeev-LeVerrier recurrence; exact for rational input.
    """
    m = np.asarray(m)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("characteristic polynomial needs a square matrix")
    if n == 0:
        return [Fraction(1)]
    coeffs = [Fraction(1)]  # c_{n-k} collected for k = 1..n
    bk = eye(n)
    for k in range(1, n + 1):
        mk = np.dot(m, bk)
        tr = sum(mk[i, i] for i in range(n))
        ck = -Fraction(tr) / k
        coeffs.append(ck)
        bk = mk.copy()
        for i in range(n):
            bk[i, i] = bk[i, i] + ck
    return poly_normalize(list(reversed(coeffs)))


def char_poly_squarefree(m):
    """Pair (characteristic polynomial, its squarefree part), both monic."""
    p = char_poly(m)
    return p, squarefree_part(p)


# ---------------------------------------------------------------------------
# polynomial helpers (coefficient lists, ascending order)

def poly_normalize(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_degree(p):
    return len(p) - 1


def poly_add(p, q):
    n = max(len(p), len(q))
    return poly_normalize([
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
        for i in range(n)
    ])


def poly_scale(p, c):
    return poly_normalize([c * x for x in p])


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_normalize(out)


def poly_divmod(p, q):
    """Exact division with remainder over the rationals."""
    q = poly_normalize(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = [Fraction(x) for x in poly_normalize(p)]
    dq = len(q) - 1
    lead = Fraction(q[-1])
    quot = [Fraction(0)] * max(0, len(r) - dq)
    for k in range(len(r) - dq - 1, -1, -1):
        c = r[dq + k] / lead
        if c:
            quot[k] = c
            for i in range(dq + 1):
                r[k + i] -= c * q[i]
    return poly_normalize(quot), poly_normalize(r[:dq])


def poly_derivative(p):
    return poly_normalize([i * p[i] for i in range(1, len(p))])


def _int_primitive(p):
    """Clear denominators and divide by coefficient gcd; sign-normalize."""
    dens = [Fraction(x).denominator for x in p]
    mult = lcm(*dens) if dens else 1
    ints = [int(x * mult) for x in p]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g:
        ints = [x // g for x in ints]
    if ints and ints[-1] < 0:
        ints = [-x for x in ints]
    return ints


def _pseudo_rem(a, b):
    """Pseudo-remainder of integer coefficient lists, deg a >= deg b."""
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    r = list(a)
    for k in range(da - db, -1, -1):
        c = r[db + k]
        r = [lb * x for x in r]
        for i in range(db + 1):
            r[k + i] -= c * b[i]
    return poly_normalize(r)


def poly_gcd(p, q):
    """Monic gcd over the rationals (primitive pseudo-remainder sequence)."""
    a = _int_primitive(poly_normalize(p))
    b = _int_primitive(poly_normalize(q))
    while b:
        if len(a) < len(b):
            a, b = b, a
            continue
        a, b = b, _int_primitive(_pseudo_rem(a, b))
    if not a:
        return []
    lead = Fraction(a[-1])
    return [Fraction(x) / lead for x in a]


def poly_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_eval_matrix(p, m):
    """Horner evaluation of a polynomial at a square matrix."""
    m = np.asarray(m)
    n = m.shape[0]
    acc = zeros(n)
    for c in reversed(poly_normalize(p)):
        acc = np.dot(acc, m)
        for i in range(n):
            acc[i, i] = acc[i, i] + c
    return acc


def squarefree_part(p):
    """Monic product of the distinct irreducible factors of p."""
    p = poly_normalize(p)
    if poly_degree(p) < 1:
        return [Fraction(1)] if p else []
    g = poly_gcd(p, poly_derivative(p))
    quot, rem = poly_divmod(p, g)
    assert not rem
    lead = Fraction(quot[-1])
    return [x / lead for x in quot]


def squarefree_decomposition(p):
    """Yun decomposition: list of (monic factor, multiplicity) with
    pairwise-coprime squarefree factors whose weighted product is p."""
    p = poly_normalize(p)
    if poly_degree(p) < 1:
        return []
    lead = Fraction(p[-1])
    p = [Fraction(x) / lead for x in p]
    g = poly_gcd(p, poly_derivative(p))
    if poly_degree(g) == 0:
        return [(p, 1)]
    b, _ = poly_divmod(p, g)
    c, _ = poly_divmod(poly_derivative(p), g)
    d = poly_add(c, poly_scale(poly_derivative(b), -1))
    out = []
    i = 1
    while poly_degree(b) > 0:
        a = poly_gcd(b, d)
        if poly_degree(a) > 0:
            out.append((a, i))
        b, _ = poly_divmod(b, a)
        c, _ = poly_divmod(d, a)
        d = poly_add(c, poly_scale(poly_derivative(b), -1))
        i += 1
    return out
