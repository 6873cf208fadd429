"""Cells of the common-vanishing-pattern relation for linear functionals.

Two points of the ambient space are equivalent when exactly the same subset
of a fixed finite functional set vanishes on them.  The classes (cells) are
indexed by the flats of the arrangement: subsets closed under the span
operator, every functional in the span of a flat belonging to it.  For a
root system restricted to its Cartan subalgebra the cells describe
centralizer strata; positive roots suffice since a functional and its
negative cut out the same hyperplane.

The functionals are integer covectors, held as Python ints, and spans are
tested against integer kernel vectors; a flat's covers are read off its own
kernel.  Points may be rational: a functional vanishes at a point exactly
when its value there is zero, with no scaling needed.
"""

from collections import namedtuple
from math import gcd
from operator import index, mul
from typing import NamedTuple

from . import linalg

__all__ = [
    "FunctionalSet", "Cell", "CentralizerData", "root_functionals",
    "enumerate_cells", "cell_of_point", "sample_point_in_cell",
    "centralizer_data",
]


class FunctionalSet(namedtuple("FunctionalSet", "ambient_dim functionals")):
    """Finite list of integer covectors on a fixed ambient space; an entry
    that is not an integer, such as a ``Fraction`` or a float, raises
    TypeError."""

    __slots__ = ()

    def __new__(cls, ambient_dim, functionals):
        fs = tuple(tuple(map(index, f)) for f in functionals)
        if not fs:
            raise ValueError("functional set must be nonempty")
        if any(len(f) != ambient_dim for f in fs):
            raise ValueError("functional length does not match ambient_dim")
        return super().__new__(cls, ambient_dim, fs)

    _make = classmethod(lambda cls, args: cls(*args))  # _replace via __new__

    def vanishing_set(self, point):
        if len(point) != self.ambient_dim:
            raise ValueError("point has wrong length")
        return frozenset(i for i, f in enumerate(self.functionals)
                         if not sum(map(mul, f, point)))


class Cell(namedtuple("Cell", "flat closure_dim")):
    """A cell, named by its flat (indices into the functional set)."""

    __slots__ = ()

    def __new__(cls, flat, closure_dim):
        return super().__new__(cls, frozenset(flat), closure_dim)

    _make = classmethod(lambda cls, args: cls(*args))  # _replace via __new__


def root_functionals(rs):
    """Positive roots as functionals on the Cartan subalgebra.

    Points are written in the simple coroot basis, so the covector of a
    root is its weight-coordinate vector.
    """
    return FunctionalSet(
        ambient_dim=rs.rank,
        functionals=tuple(rs.root_weight_coords(beta)
                          for beta in rs.positive_roots))


def _kernel(fset, flat):
    """An integer basis of the common kernel of the flat's functionals."""
    return linalg.integer_kernel([fset.functionals[i] for i in sorted(flat)],
                                 fset.ambient_dim)


def _closure(fset, indices):
    """The cell of the flat the given functionals span: they and every
    other one vanishing on each (integer) kernel vector of theirs.  The
    kernel vectors span the cell's closure, so they count its dimension."""
    ker = _kernel(fset, indices)
    flat = [i for i, f in enumerate(fset.functionals)
            if not any(sum(map(mul, f, k)) for k in ker)]
    return Cell(flat=flat, closure_dim=len(ker))


def enumerate_cells(fset):
    """One cell per flat, breadth-first from the closure of the empty set,
    reading each flat's covers off its own kernel K.

    On a basis of K each functional is a row of values, zero exactly on
    the flat F.  A functional vanishes on the kernel of F and f exactly
    when its row is a multiple of f's, so each cover is F plus one class
    of proportional rows, keyed by its primitive row (divided by the gcd,
    first nonzero entry positive), and has closure dimension one less.
    """
    frontier = [_closure(fset, frozenset())]
    found = {c.flat: c for c in frontier}
    while frontier:
        new = []
        for cell in frontier:
            ker, covers = _kernel(fset, cell.flat), {}
            for i, f in enumerate(fset.functionals):
                row = [sum(map(mul, f, k)) for k in ker]
                if any(row):
                    g = gcd(*row) * (-1 if next(filter(None, row)) < 0 else 1)
                    covers.setdefault(tuple(v // g for v in row), []).append(i)
            for extra in covers.values():
                cover = Cell(cell.flat.union(extra), cell.closure_dim - 1)
                if found.setdefault(cover.flat, cover) is cover:
                    new.append(cover)
        frontier = new
    return sorted(found.values(), key=lambda c: (len(c.flat), sorted(c.flat)))


def cell_of_point(fset, point):
    """The cell containing the point; its flat is the point's vanishing set,
    which is span-closed automatically."""
    return _closure(fset, fset.vanishing_set(point))


def sample_point_in_cell(fset, cell, rng):
    """A random integer point whose vanishing set is exactly the flat.

    Draws combinations of an integer kernel basis of the flat's span with
    coefficients in [-N, N], N the number of functionals, and retries while
    some functional outside the flat vanishes, 60 times at most.  Such a
    functional is a nonzero linear form in the coefficients, so it vanishes
    at a draw with probability at most 1/(2N+1); some functional does with
    probability below 1/2, and all 60 draws miss with probability below
    2^-60.
    """
    ker = _kernel(fset, cell.flat)
    if not ker:
        point = [0] * fset.ambient_dim
        if fset.vanishing_set(point) == cell.flat:
            return point
        raise ValueError("flat of full rank is not the closure of the origin")
    bound = len(fset.functionals)
    for _ in range(60):
        coeffs = [rng.randint(-bound, bound) for _ in ker]
        point = [sum(c * k[i] for c, k in zip(coeffs, ker))
                 for i in range(fset.ambient_dim)]
        if fset.vanishing_set(point) == cell.flat:
            return point
    raise RuntimeError("failed to sample a generic point of the cell")


class CentralizerData(NamedTuple):
    """Centralizer stratification data of a cell in the Cartan.

    The centralizer of a point of the cell is the Cartan plus the root
    spaces of all roots vanishing there, so its dimension is rank + 2 *
    (size of the flat, the positive roots vanishing there); its center is
    the cell's closure and the complement is the derived part.
    """

    dim_centralizer: int
    dim_center: int
    dim_derived: int


def centralizer_data(rs, cell):
    fset = root_functionals(rs)
    nfun = len(fset.functionals)
    if any(i < 0 or i >= nfun for i in cell.flat):
        raise ValueError("cell does not belong to this root system")
    closed = _closure(fset, cell.flat)
    if closed.flat != cell.flat:
        raise ValueError("cell flat is not span-closed for this root system")
    if closed.closure_dim != cell.closure_dim:
        raise ValueError("cell closure_dim inconsistent with this root system")

    dim_centralizer = rs.rank + 2 * len(cell.flat)
    dim_center = cell.closure_dim
    return CentralizerData(dim_centralizer=dim_centralizer,
                           dim_center=dim_center,
                           dim_derived=dim_centralizer - dim_center)
