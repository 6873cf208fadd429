"""Exact linear algebra over the rationals.

A matrix is a ``Matrix``: one sparse column per column, a ``{row:
nonzero}`` dict of Python ints or ``fractions.Fraction``, plus its shape,
never written once built.  Mixing ints and ``Fraction`` is fine, since
arithmetic promotes to ``Fraction`` as needed.  A vector is a plain list of
entries, and a right-hand side is a matrix with one column per system.  The
rational entry points take a ``Matrix``; the integer kernels
``integer_rank``, ``integer_kernel``, ``rank_mod_p`` and
``char_poly_mod_p`` take lists of int rows.  Polynomials are python
lists of coefficients in ascending degree order, normalized so the leading
coefficient is nonzero (the zero polynomial is ``[]``).  ``commutator``,
``block_diag`` and the product ``@`` work column by column: each column of
``a b - b a`` is formed in one pass, and a column empty in both inputs
costs nothing.

``Fraction`` appears only at the edges, and four helpers are the one place
where exact values become ints and come back: ``clear_denominators``
scales a list of values to ints, taking ints as they are,
``int_nonzeros`` the nonzero entries of a list of matrices under one
shared multiplier, ``exact_ratio`` divides to an int when the division is
exact, and ``integral`` turns an integral ``Fraction`` back into an int.
Each kernel clears its input's denominators once, computes on Python
ints, and divides only in its result.  Ranks, kernels and solves share
one fraction-free (Bareiss) elimination; characteristic polynomials come
from one Hessenberg recurrence over F_p, exact at a prime past twice a
bound on their coefficients.  A squarefree part is a primitive integer
polynomial over its primitive gcd with its derivative, an exact quotient
in Z[t], and the squarefree decomposition iterates that step; only the
monic factors returned are in ``Fraction``.
No floating point is used anywhere, so every answer is exact.

Three kernels work over a finite field F_p and certify a fact over Q.
``rank_mod_p`` is exact over F_p and a lower bound over Q; orbit-dimension
sampling uses it.  It packs the matrix along its longer side, each row
into one Python int with an entry per slot of 2 b + l + 1 bits rounded
up to whole bytes (b and l the bit lengths of p and of the shorter side),
so one big-int multiply-add eliminates a whole row and each pivot retires
one.  The pivot row is reduced in packed form too, by folding each slot's
bits from b up onto its low ones times 2^b - p, which works at every
prime; no slot outgrows its width before it is read.
``char_poly_mod_p`` reduces an integer matrix's characteristic polynomial
mod p; ``char_poly`` runs it at a prime large enough to be exact.  When
``is_squarefree_mod_p`` finds it squarefree mod p it is squarefree over Q
too, so the matrix is semisimple; a False answer proves nothing, and
callers then take the exact path.  Its Euclid loop reduces ``_pseudo_rem``,
the integer pseudo-remainder, mod p: one remainder serves Z and F_p.
``char_poly_is_squarefree_mod_p`` runs the two on a rational matrix.
"""

from fractions import Fraction
from itertools import compress
from math import gcd, isqrt, lcm
from operator import index, mul

__all__ = [
    "Matrix", "rmat", "zeros", "eye", "is_zero_matrix",
    "commutator", "block_diag",
    "clear_denominators", "int_nonzeros", "exact_ratio", "integral",
    "rank", "integer_rank", "rank_mod_p", "integer_kernel", "kernel_basis",
    "solve_square", "inverse", "char_poly", "char_poly_is_squarefree_mod_p",
    "poly_normalize", "poly_degree", "poly_derivative", "poly_eval_matrix",
    "squarefree_part", "squarefree_decomposition",
]


class Matrix:
    """An exact matrix of Python ints and ``Fraction``: one ``{row:
    nonzero}`` dict per column plus a shape, never written once built.

    ``m[i, j]`` reads column j.  ``rows`` and iteration give fresh dense
    lists, so writing into them leaves the matrix as it was.
    """

    __slots__ = ("_cols", "shape")

    def __init__(self, rows, ncols=0):
        """The matrix with dense ``rows``; ``ncols`` is the width of one
        with no rows.  Rows of unequal length raise ValueError."""
        ncols = len(rows[0]) if rows else ncols
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        self._cols = [{} for _ in range(ncols)]
        for i, r in enumerate(rows):
            for j in compress(range(ncols), r):
                self._cols[j][i] = r[j]
        self.shape = (len(rows), ncols)

    @classmethod
    def from_columns(cls, cols, nrows):
        """The matrix with sparse columns ``cols`` ({row: nonzero} dicts),
        which it adopts: nothing may write into them afterwards."""
        m = cls.__new__(cls)
        m._cols, m.shape = cols, (nrows, len(cols))
        return m

    @property
    def rows(self):
        """The entries as fresh dense lists, one per row."""
        rows = [[0] * self.shape[1] for _ in range(self.shape[0])]
        for j, col in enumerate(self._cols):
            for i, v in col.items():
                rows[i][j] = v
        return rows

    def columns(self):
        """The nonzero entries as one {row: value} dict per column; treat
        them as read-only."""
        return self._cols

    def nonzeros(self):
        """The nonzero entries as ``(row, col, value)`` triples."""
        return [(i, j, v) for j, col in enumerate(self._cols) if col
                for i, v in col.items()]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, key):
        i, j = key
        # indexing the range checks i and counts a negative one from the end
        return self._cols[j].get(range(self.shape[0])[i], 0)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self._cols == other._cols

    __hash__ = None

    def __sub__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        out = []
        for acc, col in zip(map(dict, self._cols), other.columns()):
            for i, v in col.items():
                acc[i] = acc.get(i, 0) - v
            out.append({i: v for i, v in acc.items() if v})
        return Matrix.from_columns(out, self.shape[0])

    def __matmul__(self, other):
        if self.shape[1] != other.shape[0]:
            raise ValueError("shape mismatch")
        out = []
        for col in other.columns():
            acc = {}
            for k, v in col.items():
                for i, x in self._cols[k].items():
                    acc[i] = acc.get(i, 0) + x * v
            out.append({i: v for i, v in acc.items() if v})
        return Matrix.from_columns(out, self.shape[0])

    def __repr__(self):
        return f"Matrix({self.rows!r})"


def rmat(rows):
    """Build an exact matrix from an iterable of rows.  Entries must be
    ``Fraction`` or ints, which ``operator.index`` accepts; any other,
    such as the float 0.1, raises TypeError."""
    return Matrix([[x if isinstance(x, Fraction) else index(x) for x in row]
                   for row in rows])


def zeros(nrows, ncols=None):
    ncols = nrows if ncols is None else ncols
    return Matrix.from_columns([{} for _ in range(ncols)], nrows)


def eye(n):
    return Matrix.from_columns([{i: 1} for i in range(n)], n)


def is_zero_matrix(m):
    return not any(m.columns())


def commutator(a, b):
    """``a b - b a`` of two square matrices of one size, as a sparse
    ``Matrix``.

    Column j of the bracket is ``a (b e_j) - b (a e_j)``: b's column-j
    entries times a's columns, less a's column-j entries times b's columns,
    summed in one accumulator whose zeros are dropped once.  A column empty
    in both inputs comes out empty without any work.
    """
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError("shape mismatch")
    a, b = a.columns(), b.columns()
    out = []
    for acol, bcol in zip(a, b):
        if not (acol or bcol):
            out.append({})
            continue
        acc = {}
        for i, v in bcol.items():
            for k, x in a[i].items():
                acc[k] = acc.get(k, 0) + x * v
        for i, v in acol.items():
            for k, x in b[i].items():
                acc[k] = acc.get(k, 0) - x * v
        out.append({k: v for k, v in acc.items() if v})
    return Matrix.from_columns(out, len(out))


def block_diag(blocks):
    """The sparse matrix with the given square blocks along its
    diagonal."""
    cols = []
    for b in blocks:
        if b.shape[0] != b.shape[1]:
            raise ValueError("block is not square")
        off = len(cols)
        cols += ({i + off: v for i, v in col.items()} for col in b.columns())
    return Matrix.from_columns(cols, len(cols))


def clear_denominators(values):
    """The values times the lcm of their denominators, as Python ints."""
    mult = lcm(*(x.denominator for x in values))
    return [x.numerator * (mult // x.denominator) for x in values]


def int_nonzeros(mats):
    """Per matrix, its nonzero entries as ``(row, col, int)`` triples, all
    times one positive integer: the lcm of every denominator among them.

    A matrix built linearly from these entries comes out times that integer,
    which changes neither its kernel nor its rank over Q, nor its rank mod a
    prime that divides none of the denominators.  Each matrix's nonzeros
    are read once, and the multiplier is computed only when some entry is
    a ``Fraction``: otherwise it is 1 and the triples are the entries.
    """
    entries = [m.nonzeros() for m in mats]
    dens = {v.denominator for nonzeros in entries for _, _, v in nonzeros
            if type(v) is Fraction}
    if not dens:
        return tuple(map(tuple, entries))
    mult = lcm(*dens)
    return tuple(tuple((i, j, v.numerator * (mult // v.denominator))
                       for i, j, v in nonzeros) for nonzeros in entries)


def integral(q):
    """An int or ``Fraction`` value as an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


def exact_ratio(a, b):
    """``a / b``, an int when it divides exactly and a ``Fraction`` if not."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return integral(Fraction(a) / b)


def _integer_rows(m):
    """Each row scaled by the lcm of its denominators, and the column count.

    Row scaling changes neither the rank nor the kernel, and integer rows
    let the Bareiss elimination below run division-free.
    """
    return [clear_denominators(row) for row in m.rows], m.shape[1]


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


def rank_mod_p(rows, ncols, p):
    """Rank over F_p, for a prime ``p``, of a matrix given as ``ncols``-long
    lists of Python ints.

    A minor that is nonzero mod p is nonzero over Q, so the rank mod p of an
    integer matrix is at most its rank r over Q.  It is lower exactly when p
    divides every r x r minor, as in ``[[p, 0], [0, 1]]``.

    Gaussian elimination on packed rows.  Rows are packed along the longer
    side, so there are ``L = min(rows, cols)`` of them (a tall matrix is
    ranked as its transpose, which has the same rank) and each pivot
    retires one.  A row is one nonnegative Python int holding its entries
    in slots of ``w`` bits, column ``j`` in bits ``[j w, (j + 1) w)``, so
    one big-int multiply-add updates a whole row.  Nonzero entries are
    reduced mod p once, when packed.  At each column every row drops its
    low slot (``row >> w``) after that slot is read mod p; the pivot row's
    tail is folded, scaled by the pivot's inverse and folded again, all in
    packed form, and every other row adds ``(p - f) * tail``, ``f`` its
    low slot mod p.

    The fold.  Let ``e`` be p's bit length and ``c = 2**e - p``, so
    ``1 <= c <= 2**(e - 1)``, with equality only at p = 2 (an odd prime is
    above ``2**(e - 1)``).  A slot ``x = h 2**e + u`` with ``u < 2**e`` is
    congruent to ``h c + u`` mod p, since ``2**e = c`` mod p, and the fold
    ``(t & lo) + ((t >> e) & hi) * c``, with ``lo`` and ``hi`` the masks of
    each slot's low ``e`` and high ``w - e`` bits, computes that in every
    slot at once.  If every slot is at most M, the folded ones are at most
    ``F(M) = 2**e - 1 + (M >> e) c <= 2**e - 1 + M / 2``, below ``2**w``,
    so no slot carries into the next.  ``M = k 2**e`` gives
    ``F(M) < (1 + k / 2) 2**e``, so k about halves at each fold until it
    is below 3, and then ``M >> e <= 2`` and ``F(M) <= 2**e - 1 + 2 c <
    2**(e + 1)``: iterating F takes any bound below ``2**(e + 1)`` in a
    fixed number of folds, about ``log2(M) - e``.  That is the most at
    p = 2, where ``c = 2**(e - 1)`` and a fold only halves the bound, and
    nearly so at a prime just above a power of two; at p = 2**61 - 1,
    where c = 1, it is two folds.  The counts are F's: ``pre`` from
    ``M = 2**w - 1``, any slot, and ``post`` from
    ``(2**(e + 1) - 1) (p - 1)``, a folded slot times the inverse, which is
    below ``2**(2 e + 1) <= 2**w`` too.

    The width.  A folded tail's slots are below ``2**(e + 1)``, so an update
    adds less than ``2**(2 e + 1)`` to a slot, and a row is updated at most
    ``L - 1`` times, once per pivot of another row.  Every slot then stays
    below ``p + (L - 1) 2**(2 e + 1) < 2**(2 e + l + 1)``, with ``l`` the
    bit length of L: at ``w = 2 e + l + 1`` rounded up to whole bytes no
    carry ever crosses a slot (17 bytes at p = 2**61 - 1 for L < 256).
    """
    if ncols < len(rows):
        rows, ncols = list(zip(*rows)), len(rows)
    e = p.bit_length()
    c = (1 << e) - p
    nbytes = (2 * e + len(rows).bit_length() + 8) // 8
    w = 8 * nbytes
    low = (1 << w) - 1

    def repeat(slot):
        return int.from_bytes(slot.to_bytes(nbytes, "little") * ncols,
                              "little")

    lo, hi = repeat((1 << e) - 1), repeat((1 << (w - e)) - 1)

    def folds(m):
        n = 0
        while m >> (e + 1):
            m = (1 << e) - 1 + (m >> e) * c
            n += 1
        return range(n)

    pre, post = folds(low), folds(((1 << (e + 1)) - 1) * (p - 1))
    zero = bytes(nbytes)
    active = [r for r in (int.from_bytes(b"".join(
        [(v % p).to_bytes(nbytes, "little") if v else zero for v in row]),
        "little") for row in rows) if r]
    rk = 0
    for _ in range(ncols):
        for i, top in enumerate(active):
            f = (top & low) % p
            if f:
                break
        else:
            if not active:
                break
            active = [r >> w for r in active]
            continue
        tail = top >> w
        for _ in pre:
            tail = (tail & lo) + ((tail >> e) & hi) * c
        tail *= pow(f, -1, p)
        for _ in post:
            tail = (tail & lo) + ((tail >> e) & hi) * c
        rest = [r >> w for r in active[:i]]   # low slots 0 mod p
        for r in active[i + 1:]:
            f = (r & low) % p
            r = (r >> w) + (p - f) * tail if f else r >> w
            if r:
                rest.append(r)
        active = rest
        rk += 1
    return rk


def rank(m):
    """Exact rank of a rational matrix."""
    return integer_rank(*_integer_rows(m))


def _back_substitute(ech, pivots, ncols, fc):
    """``d`` times the kernel vector of ``ncols``-wide echelon rows that is
    1 at free column ``fc`` and 0 at the other free columns, as Python ints.

    The last Bareiss pivot ``d`` is, up to sign, the input's minor on the
    pivot rows and columns; by Cramer's rule ``d`` times the vector is
    integral, so the substitution runs on ints with exact divisions.  The
    vector's entry at ``fc`` is ``d``.
    """
    d = ech[-1][pivots[-1]] if pivots else 1
    y = [0] * ncols
    y[fc] = d
    for row, pc in zip(reversed(ech), reversed(pivots)):
        y[pc] = -sum(map(mul, row[pc + 1:], y[pc + 1:])) // row[pc]
    return y


def integer_kernel(rows, ncols):
    """Kernel of a matrix given as ``ncols``-long lists of Python ints.

    One int vector per free column: a nonzero multiple of the matching
    ``kernel_basis`` vector.  That vector is 0 beyond its free column and
    1 at it, so the multiple's last nonzero entry is the multiplier.
    """
    ech, pivots = _bareiss_echelon(rows, ncols)
    return [_back_substitute(ech, pivots, ncols, fc)
            for fc in range(ncols) if fc not in pivots]


def kernel_basis(m):
    """Exact basis of the right kernel, one vector per free column."""
    out = []
    for y in integer_kernel(*_integer_rows(m)):
        d = next(v for v in reversed(y) if v)
        out.append([Fraction(v, d) for v in y])
    return out


def solve_square(a, b):
    """Solve the matrix equation ``a @ x = b`` for invertible square ``a``.

    Column j of x is minus the kernel vector of ``[a | b]`` that is 1 at
    b's column j; a single system is an n x 1 ``b``.  Raises ValueError
    when ``a`` is singular or the shapes do not fit.
    """
    n, k = b.shape
    if a.shape != (n, n):
        raise ValueError("shape mismatch")
    aug = [clear_denominators(r + s) for r, s in zip(a.rows, b.rows)]
    ech, pivots = _bareiss_echelon(aug, n + k)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    cols = [_back_substitute(ech, pivots, n + k, j) for j in range(n, n + k)]
    x = [[Fraction(-col[i], col[j]) for j, col in enumerate(cols, n)]
         for i in range(n)]
    return Matrix(x, k)


def inverse(a):
    return solve_square(a, eye(a.shape[0]))


def _integer_square(m):
    """Integer rows ``a`` and a positive int ``den`` with ``m = a / den``."""
    n, ncols = m.shape
    if n != ncols:
        raise ValueError("need a square matrix")
    # the trailing 1 comes back as the common multiplier
    *flat, den = clear_denominators([*(v for r in m.rows for v in r), 1])
    return [flat[i * n:(i + 1) * n] for i in range(n)], den


def _int_matmul(a, b):
    """The product of two lists of rows of ints or ``Fraction``."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


# the exponents e of the Mersenne primes 2^e - 1 from 61 up (OEIS A000043)
_MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217,
                       4253, 4423, 9689, 9941, 11213, 19937)


def char_poly(m):
    """Characteristic polynomial det(tI - M), ascending, monic, in
    ``Fraction``.

    It is ``char_poly_mod_p`` of ``a = den * M`` at one prime p, lifted.
    The coefficient c_k of t^(n-k) in det(tI - a) is a signed sum of a's
    k x k principal minors, and by Hadamard's inequality each such minor is
    at most the product of its rows' norms, so with r_i the norm of a's
    row i, |c_k| <= e_k(r_1, ..., r_n) <= prod_i (r_i + 1) <= B =
    prod_i (isqrt(r_i^2) + 2).  p is the smallest Mersenne prime 2^e - 1
    of ``_MERSENNE_EXPONENTS`` above 2 B, so each c_k is the one integer of
    (-p/2, p/2) in its residue class, and since p is prime every pivot of
    the Hessenberg reduction is invertible.  A B past the last prime raises
    ValueError.  The coefficient of t^(n-k) in det(tI - M) is c_k / den^k.
    """
    a, den = _integer_square(m)
    n = len(a)
    bound = 1
    for row in a:
        bound *= isqrt(sum(v * v for v in row)) + 2
    p = next((q for q in (2 ** e - 1 for e in _MERSENNE_EXPONENTS)
              if q > 2 * bound), None)
    if p is None:
        raise ValueError(f"characteristic polynomial: a coefficient bound of "
                         f"{bound.bit_length()} bits is past the largest "
                         f"tabled prime")
    half = p // 2
    return [Fraction(c - p if c > half else c, den ** (n - k))
            for k, c in enumerate(char_poly_mod_p(a, p))]


def char_poly_mod_p(rows, p):
    """det(tI - a) mod a prime ``p``, ascending and monic, with coefficients
    in [0, p).

    ``rows`` is a square matrix of ints; a ``Fraction`` entry, whose ``%``
    is not its residue, raises TypeError.  Similarity transforms over F_p
    take it to upper Hessenberg form h: at column j each row i > j + 1 loses
    u_i times row j + 1, which zeroes its entry in column j, and then
    column j + 1 gains the sum of u_i times column i, the inverse
    transform, in one pass over the rows.  The characteristic polynomials
    p_k of h's leading k x k blocks then obey
    p_k = (t - h_kk) p_(k-1) - sum_i h_ik (h_(i+1,i) ... h_(k,k-1)) p_(i-1)
    (1-based): O(n^3) in all.
    """
    h = [[index(v) % p for v in r] for r in rows]
    n = len(h)
    if any(len(r) != n for r in h):
        raise ValueError("need a square matrix")
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        k = j + 1
        if piv != k:
            h[piv], h[k] = h[k], h[piv]
            for r in h:
                r[piv], r[k] = r[k], r[piv]
        inv = pow(h[k][j], -1, p)
        top = h[k]
        us = []
        for i in range(k + 1, n):
            u = h[i][j] * inv % p
            if u:
                # row i -= u row k
                h[i] = [(v - u * t) % p for v, t in zip(h[i], top)]
                us.append((i, u))
        if us:
            # then column k += u column i for each such i, in one pass
            for r in h:
                r[k] = (r[k] + sum([u * r[i] for i, u in us])) % p
    polys = [[1]]  # polys[k] is p_k, ascending
    for k in range(n):
        nxt = [0] + polys[k]
        for i, c in enumerate(polys[k]):
            nxt[i] -= h[k][k] * c
        prod = 1
        for i in range(k - 1, -1, -1):
            prod = prod * h[i + 1][i] % p
            if not prod:
                break
            c = h[i][k] * prod % p
            if c:
                for d, v in enumerate(polys[i]):
                    nxt[d] -= c * v
        polys.append([v % p for v in nxt])
    return polys[n]


def is_squarefree_mod_p(poly, p):
    """True when the int polynomial ``poly`` (ascending) is squarefree over
    F_p: gcd(P, P') mod p is a nonzero constant.

    True then also proves P squarefree over Q.  A repeated factor over Q
    gives, by Gauss's lemma, P = A^2 B in Z[t] with A primitive and
    nonconstant, and if p does not divide P's leading coefficient it
    divides neither A's nor B's, so A mod p keeps its degree and
    P mod p = (A mod p)^2 (B mod p) is not squarefree.  When p divides
    the leading coefficient the answer is False, which proves nothing.
    False in general proves nothing over Q either: ``[0, -5, 1]``, the
    characteristic polynomial of diag(0, 5), is squarefree over Q but not
    mod 5.

    Euclid's remainders are integer pseudo-remainders reduced mod p.  The
    divisor's lead l is a unit mod p, so each is l^k times the remainder
    over F_p: the same degree, and a gcd differing only by a unit.
    """
    a = [v % p for v in poly]
    if not a or not a[-1]:
        return False
    b = poly_normalize([i * v % p for i, v in enumerate(a)][1:])
    while b:
        a, b = b, poly_normalize([v % p for v in _pseudo_rem(a, b)])
    return len(a) == 1


def char_poly_is_squarefree_mod_p(m, p):
    """True when the characteristic polynomial of the rational square
    matrix ``m`` is squarefree mod p, which proves it squarefree over Q.

    m = a / den with one common denominator, a similarity up to scale, so
    a's characteristic polynomial, den^n P(t / den), is squarefree exactly
    when m's is; a has integer entries, so no denominator can vanish mod p.
    """
    a, _ = _integer_square(m)
    return is_squarefree_mod_p(char_poly_mod_p(a, p), p)


# ---------------------------------------------------------------------------
# polynomial helpers (coefficient lists, ascending order)

def poly_normalize(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_degree(p):
    return len(p) - 1


def poly_derivative(p):
    return poly_normalize([i * p[i] for i in range(1, len(p))])


def _int_primitive(p):
    """Clear denominators and divide by coefficient gcd; sign-normalize."""
    ints = clear_denominators(p)
    g = gcd(*ints)
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


def _exact_quotient(a, b):
    """a / b for integer coefficient lists; ArithmeticError, under
    ``python -O`` too, when b does not divide a in Z[t]."""
    a = list(a)
    db = len(b) - 1
    quot = [0] * (len(a) - db)
    for k in reversed(range(len(quot))):
        # the remainder of each step stays in the slot it divided
        quot[k], a[k + db] = divmod(a[k + db], b[-1])
        for i in range(db):
            a[k + i] -= quot[k] * b[i]
    if any(a):
        raise ArithmeticError("polynomial division is not exact")
    return quot


def _int_squarefree(a):
    """The squarefree part of a primitive integer polynomial a with a
    positive lead, a / gcd(a, a'), primitive with a positive lead too.  The
    gcd runs the primitive pseudo-remainder sequence (Brown 1971) and is
    primitive, so by Gauss's lemma the quotient is integral."""
    g, b = a, _int_primitive(poly_derivative(a))
    while b:
        g, b = b, _int_primitive(_pseudo_rem(g, b))
    return _exact_quotient(a, g)


def poly_eval_matrix(p, m):
    """Evaluate a polynomial at a square matrix.  With ``M = a / den`` and
    ``p = q / L``, Horner's rule on a with the integer coefficients
    ``q_i * den^(deg - i)`` gives ``L * den^deg * p(M)``."""
    a, den = _integer_square(m)
    n = len(a)
    p = poly_normalize(p)
    if not p:
        return zeros(n)
    *q, mult = clear_denominators([*p, 1])
    deg = len(q) - 1
    acc = [[q[deg] if i == j else 0 for j in range(n)] for i in range(n)]
    for i in reversed(range(deg)):
        acc = _int_matmul(acc, a)
        c = q[i] * den ** (deg - i)
        for r in range(n):
            acc[r][r] += c
    scale = mult * den ** deg
    return Matrix([[Fraction(x, scale) for x in row] for row in acc], n)


def squarefree_part(p):
    """Monic product of the distinct irreducible factors of p: 1 for a
    nonzero constant, ``[]`` for zero."""
    p = poly_normalize(p)
    s = _int_squarefree(_int_primitive(p)) if p else []
    return [Fraction(x, s[-1]) for x in s]


def squarefree_decomposition(p):
    """List of (monic factor, multiplicity), in increasing multiplicity:
    pairwise-coprime squarefree factors, each to its multiplicity, whose
    product is p made monic; ``[]`` for a constant or zero.

    s_1 is the squarefree part of p and s_(k+1) that of p / (s_1 ... s_k).
    s_k is then the product of the factors of multiplicity at least k, so
    the factor of multiplicity k is s_k / s_(k+1).  Every step runs on
    primitive integer polynomials, whose exact quotients stay primitive.
    """
    rest = _int_primitive(poly_normalize(p)) or [1]   # zero has no factors
    out, s, k = [], _int_squarefree(rest), 1
    while len(s) > 1:
        rest = _exact_quotient(rest, s)
        nxt = _int_squarefree(rest)
        factor = _exact_quotient(s, nxt)
        if len(factor) > 1:
            out.append(([Fraction(x, factor[-1]) for x in factor], k))
        s, k = nxt, k + 1
    return out
