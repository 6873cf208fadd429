"""Verdict oracles that do not call liemod.

Each check compares a program output with an answer derived here: the
modality each table promises, the grading ranks of acceptance criterion 07,
the Jordan identities of criterion 09 recomputed with this file's own
``Fraction`` matrix arithmetic, and closed-form cell counts.  The only
program data they read are the inputs and the basis matrices the algebra is
written in, without which coordinates mean nothing.
"""

from fractions import Fraction
from math import comb

# modality every entry of each shipped table must have
TABLE_MODALITY = {"m1": 0, "m2": 1, "m3": 2}

# the gradings of acceptance criterion 07 with their expected ranks:
# (family, rank, m, labels or None for all ones, expected grading rank)
GRADINGS = (
    [(f, r, 1, None, r)
     for f, ranks in (("A", (1, 2, 3, 4)), ("B", (2, 3, 4)),
                      ("C", (2, 3, 4)), ("D", (4,)), ("G", (2,)))
     for r in ranks]
    + [("A", 2, None, (1, 0), 0), ("A", 1, 2, (1,), 1)]
)


def bell(n):
    """Set partitions of n things: B(k+1) = sum_i C(k, i) B(i)."""
    b = [1]
    for k in range(n):
        b.append(sum(comb(k, i) * b[i] for i in range(k + 1)))
    return b[n]


def dowling(n):
    """Flats of the B_n / C_n arrangement (Dowling numbers, group order 2).

    From the e.g.f. exp(x + (e^{2x} - 1)/2):
    D(k+1) = D(k) + sum_i C(k, i) 2^i D(k-i).
    """
    d = [1]
    for k in range(n):
        d.append(d[k] + sum(comb(k, i) * 2 ** i * d[k - i]
                            for i in range(k + 1)))
    return d[n]


def cell_count(family, rank):
    """Cells of the root arrangement, where a closed form is known."""
    if family == "A":
        return bell(rank + 1)
    if family in ("B", "C"):
        return dowling(rank)
    return None


def root_degree(root, labels, m):
    """Degree of a basis element: label-weighted root height, mod m."""
    if root is None:
        return 0
    d = sum(x * l for x, l in zip(root, labels))
    return d % m if m is not None else d


# ---------------------------------------------------------------------------
# exact matrices as lists of rows of Fractions

def to_matrix(array):
    return [[Fraction(array[i, j]) for j in range(array.shape[1])]
            for i in range(array.shape[0])]


def combine(coords, basis):
    """sum_a coords[a] * basis[a]."""
    n = len(basis[0])
    out = [[Fraction(0)] * n for _ in range(n)]
    for c, b in zip(coords, basis):
        if c:
            for i in range(n):
                row, brow = out[i], b[i]
                for j in range(n):
                    if brow[j]:
                        row[j] += c * brow[j]
    return out


def matmul(a, b):
    cols = list(zip(*b))
    # start from Fraction(0): an all-zero sum must stay exact, not int 0,
    # which a later true division would turn into a float
    return [[sum((x * y for x, y in zip(row, col) if x and y), Fraction(0))
             for col in cols] for row in a]


def is_zero(a):
    return not any(any(row) for row in a)


def char_poly(a):
    """Faddeev-LeVerrier; coefficients from the constant term up, monic."""
    n = len(a)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += coeffs[n - k + 1]
        am = matmul(a, m)
        coeffs[n - k] = -sum(am[i][i] for i in range(n)) / k
        m = am
    return coeffs


def _trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_mod(p, q):
    p = list(p)
    while len(p) >= len(q) and any(p):
        f = p[-1] / q[-1]
        shift = len(p) - len(q)
        for i, c in enumerate(q):
            p[shift + i] -= f * c
        p = _trim(p[:-1]) if len(p) > 1 else p
    return _trim(p)


def _poly_gcd(p, q):
    p, q = _trim(p), _trim(q)
    while any(q):
        p, q = q, _poly_mod(p, q)
    return [c / p[-1] for c in p]


def _poly_div(p, q):
    p = list(p)
    out = [Fraction(0)] * (len(p) - len(q) + 1)
    for k in range(len(out) - 1, -1, -1):
        out[k] = p[k + len(q) - 1] / q[-1]
        for i, c in enumerate(q):
            p[k + i] -= out[k] * c
    return out


def radical(p):
    """p / gcd(p, p'): the product of p's distinct irreducible factors."""
    dp = [i * c for i, c in enumerate(p)][1:] or [Fraction(0)]
    return _poly_div(p, _poly_gcd(p, dp))


def poly_at(p, a):
    """p(a) for a square matrix a, by Horner's rule."""
    n = len(a)
    out = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(p):
        out = matmul(out, a)
        for i in range(n):
            out[i][i] += c
    return out


def jordan_failures(x, s, n, basis, allowed):
    """Names of criterion 09's identities that (s, n) breaks for x.

    ``basis`` are the matrices of a faithful module, in which the abstract
    Jordan decomposition of a semisimple algebra is the matrix one: s + n
    is x, s and n commute, n is nilpotent, s is annihilated by the
    squarefree part of its characteristic polynomial, and both stay in
    the degree of x (``allowed`` basis indices).
    """
    bad = []
    if any(Fraction(a) + Fraction(b) != Fraction(c)
           for a, b, c in zip(s, n, x)):
        bad.append("sum")
    ms, mn = combine(s, basis), combine(n, basis)
    if matmul(ms, mn) != matmul(mn, ms):
        bad.append("commute")
    power = mn
    for _ in range(len(mn) - 1):
        power = matmul(power, mn)
    if not is_zero(power):
        bad.append("nilpotent")
    if not is_zero(poly_at(radical(char_poly(ms)), ms)):
        bad.append("semisimple")
    if any(i not in allowed for v in (s, n) for i, c in enumerate(v) if c):
        bad.append("homogeneous")
    return bad


def cli_failures(report, returncode, expect):
    """Problems with one CLI report: the exit code, the pass flag, any
    false match, and values the benchmark knows independently.

    ``expect`` maps an item id to its expected ``computed`` value; ``"*"``
    applies to every item.
    """
    if returncode != 0:
        return [f"exit code {returncode}"]
    if report is None:
        return ["no JSON report"]
    bad = []
    if report.get("passed") is not True:
        bad.append("passed is not true")
    for item in report.get("items", ()):
        if item.get("match") is False:
            bad.append(f"{item['id']}: match false")
        want = expect.get(item["id"], expect.get("*"))
        if want is not None and item.get("computed") != want:
            bad.append(f"{item['id']}: computed {item.get('computed')!r}, "
                       f"expected {want!r}")
    if not report.get("items"):
        bad.append("no items")
    return bad
