"""Orbit dimensions and modality of linear Lie algebra actions.

The modality of an action is the largest number of parameters a family of
orbits depends on.  For visible linear actions it equals
``dim V - max orbit dimension``, which reduces everything here to
stabilizer computations: the stabilizer of a point v is the kernel of the
map sending an algebra element to its action on v, and orbit dimension is
the complementary rank.  Genericity is handled by seeded sampling over the
prime field F_p, p = 2^61 - 1: the orbit matrix is ranked mod p at points
drawn uniformly from F_p^n, results are deterministic per seed, can only
understate the generic orbit dimension, and come with a stated bound on
the chance that they do (``OrbitDimReport.miss_bound``).  The quantity is
the codimension of a generic orbit, which equals the modality for visible
actions and can be smaller otherwise (``sum_of_copies_check``).

Also houses the rank-2 family aggregator (max of closure dim minus orbit
dim over a finite constructible cover), the closed form for special linear
rank one, and the shipped classification tables of modality 0, 1 and 2.
"""

import json
import math
import random
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from importlib import resources
from typing import NamedTuple

from . import linalg
from .hwmod import (
    DEFAULT_BUILD_CEILING, BuildCeilingExceeded, IrrepSpec, build_hw_module,
    check_ceiling, extend_to_full_algebra,
)
from .rootsys import RootSystemType, build_root_system

__all__ = [
    "ActionSpec", "OrbitDimReport", "TableEntry", "VerifyResult",
    "ExmoReport", "orbit_dim_at",
    "generic_orbit_dim", "sl2_action", "sl2_modality",
    "modality_from_cover", "action_from_module", "load_raw_tables",
    "table_entries", "lookup_expected_modality", "verify_table_entry",
    "sum_of_copies_check", "DEFAULT_TRIALS", "DEFAULT_SEED",
    "DEFAULT_RANK_CUTOFF", "PRIME", "FIELD",
]

DEFAULT_TRIALS = 1
DEFAULT_SEED = 2024
DEFAULT_RANK_CUTOFF = 8
# sample points are drawn from F_p^n with p = PRIME, and
# graded.jordan_chevalley's squarefree certificate is taken mod PRIME
PRIME = 2**61 - 1
FIELD = "GF(2^61 - 1)"


class ActionSpec(namedtuple("ActionSpec", "matrices")):
    """A Lie algebra basis acting on a vector space by square matrices.

    ``matrices[k]``, a ``linalg.Matrix``, is the action of the k-th basis
    element.  Entries may be ints or ``Fraction``; orbit computations read
    them through ``integer_entries``, their ``linalg.int_nonzeros``.
    ``algebra_dim`` and ``space_dim`` are read off the matrices: their
    number and their common size.
    """

    def __new__(cls, matrices):
        mats = tuple(matrices)
        size = mats[0].shape[0] if mats else 0
        if not mats or any(m.shape != (size, size) for m in mats):
            raise ValueError("need one or more square matrices of one size")
        return super().__new__(cls, mats)

    _make = classmethod(lambda cls, args: cls(*args))  # _replace via __new__

    @property
    def algebra_dim(self):
        return len(self.matrices)

    @property
    def space_dim(self):
        return self.matrices[0].shape[0]

    @cached_property
    def integer_entries(self):
        return linalg.int_nonzeros(self.matrices)


class OrbitDimReport(NamedTuple):
    """The best orbit dimension over ``trials_used`` points of ``FIELD``.

    ``miss_bound`` bounds the probability that ``generic_orbit_dim`` is
    below the true generic orbit dimension; see ``generic_orbit_dim``.
    ``codimension``, ``space_dim`` minus the orbit dimension found, is
    therefore never below the true generic-orbit codimension.
    """

    generic_orbit_dim: int
    codimension: int
    trials_used: int
    miss_bound: float


def _orbit_rows(action, v):
    """The orbit matrix at v as lists of Python ints: column k is
    ``matrices[k] @ v``, assembled from ``action.integer_entries`` and v
    with its denominators cleared.  Both scale the whole matrix by a
    positive integer, which leaves the rank over Q unchanged."""
    if len(v) != action.space_dim:
        raise ValueError("point has wrong length")
    point = linalg.clear_denominators(v)
    rows = [[0] * action.algebra_dim for _ in range(action.space_dim)]
    for k, entries in enumerate(action.integer_entries):
        for i, j, a in entries:
            if point[j]:
                rows[i][k] += a * point[j]
    return rows


def orbit_dim_at(action, v, p=None):
    """Dimension of the orbit of the point v: the rank of the orbit matrix,
    whose column k is ``matrices[k] @ v``.

    Without ``p`` the rank is taken over Q and the answer is exact.  With a
    prime ``p`` the integer orbit matrix is ranked mod p
    (``linalg.rank_mod_p``); that rank is at most the one over Q, so the
    answer can only be too low.
    """
    rows = _orbit_rows(action, v)
    if p is None:
        return linalg.integer_rank(rows, action.algebra_dim)
    return linalg.rank_mod_p(rows, action.algebra_dim, p)


def generic_orbit_dim(action, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED):
    """Max orbit dimension over seeded sample points of F_p^n, p = PRIME.

    The orbit matrix has integer entries linear in the point, so its rank
    mod p at any point of F_p^n is at most its generic rank rho over Q:
    the result can only understate the generic orbit dimension, never
    overstate it.  A point falls short of rho exactly when every rho x rho
    minor vanishes there mod p; the minors are integer polynomials of
    degree rho in the point.  Assuming one that is nonzero over Q stays
    nonzero mod p (p does not divide all its coefficients), Schwartz-Zippel
    bounds the chance of a miss by rho/p per point drawn uniformly from
    F_p^n.  With c = min(space_dim, algebra_dim) >= rho, ``miss_bound`` is
    (c/p)^t after t trials, about 1e-16 per trial even for c = 240.  It is
    the one sampler here: every ``OrbitDimReport`` comes from it.

    Sampling stops early once the rank reaches c, since no point can do
    better; ``miss_bound`` is then 0 and ``trials_used`` counts the points
    actually drawn.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = random.Random(seed)
    cap = min(action.space_dim, action.algebra_dim)
    best = 0
    for used in range(1, trials + 1):
        point = [rng.randrange(PRIME) for _ in range(action.space_dim)]
        best = max(best, orbit_dim_at(action, point, PRIME))
        if best == cap:
            break
    miss = 0.0 if best == cap else math.nextafter(
        float(Fraction(cap, PRIME) ** used), math.inf)   # rounded up
    return OrbitDimReport(
        generic_orbit_dim=best, codimension=action.space_dim - best,
        trials_used=used, miss_bound=miss)


# ---------------------------------------------------------------------------
# rank-1 special linear group: explicit sums and the closed form

def sl2_action(summands, ceiling=DEFAULT_BUILD_CEILING):
    """Block action of e, f, h on a direct sum of irreducibles.

    ``summands`` are highest weights (0 means a trivial line).  Raises
    BuildCeilingExceeded before any build when the sum's dimension exceeds
    ``ceiling``.
    """
    a1 = RootSystemType("A", 1)
    total = sum(n + 1 for n in summands)
    check_ceiling(f"sl2 module sum {list(summands)}", total, ceiling)
    mods = [build_hw_module(IrrepSpec(a1, (n,)), ceiling=ceiling)
            for n in summands]
    return ActionSpec(matrices=[
        linalg.block_diag([getattr(mod, g)[0] for mod in mods])
        for g in ("e", "f", "h")])


def sl2_modality(summands):
    """Closed-form modality of a direct sum of rank-1 irreducibles.

    dim V in the all-trivial case; dim V - 2 when the nontrivial part is a
    single 2- or 3-dimensional summand; dim V - 3 otherwise.
    """
    dims = [n + 1 for n in summands]
    total = sum(dims)
    nonzero = sorted(n for n in summands if n > 0)
    if not nonzero:
        return total
    if nonzero == [1] or nonzero == [2]:
        return total - 2
    return total - 3


# ---------------------------------------------------------------------------
# finite constructible covers with constant orbit dimension per piece

def modality_from_cover(pieces):
    """Modality of an action covered by finitely many constant-orbit-dim
    families, each given as a (closure_dim, orbit_dim) pair: the max over
    pieces of closure_dim - orbit_dim."""
    pieces = list(pieces)
    if not pieces:
        raise ValueError("cover must be nonempty")
    if not all(0 <= orbit <= closure for closure, orbit in pieces):
        raise ValueError("need 0 <= orbit_dim <= closure_dim")
    return max(closure - orbit for closure, orbit in pieces)


# ---------------------------------------------------------------------------
# representation actions and the shipped classification tables

def action_from_module(spec, ceiling=DEFAULT_BUILD_CEILING):
    """Action of a full algebra basis on the irreducible module of spec.

    The zero weight gives the trivial line, on which every basis element
    acts by zero.
    """
    return ActionSpec(build_hw_module(spec, ceiling).full_basis)


class TableEntry(NamedTuple):
    rstype: RootSystemType
    weight: tuple
    expected_modality: int
    table: str

    @property
    def entry_id(self):
        return (f"{self.table}:{self.rstype.name}:"
                f"{','.join(map(str, self.weight))}")


@lru_cache(maxsize=None)
def load_raw_tables():
    text = (resources.files("liemod") / "data" / "modality_tables.json").read_text()
    return json.loads(text)


def _record_weight(record, rank):
    w = [0] * rank
    for idx, coeff in record["weight"]:
        w[idx - 1] = coeff
    return tuple(w)


def _record_ranks(record, rank_cutoff):
    """Ranks a record covers up to the cutoff; a record of a single rank
    covers it whatever the cutoff."""
    if "rank" in record:
        return [record["rank"]]
    lo = record["rank_min"]
    parity = {"even": 0, "odd": 1}.get(record.get("rank_parity"))
    if parity is None:
        return list(range(lo, rank_cutoff + 1))
    return list(range(lo + (lo - parity) % 2, rank_cutoff + 1, 2))


def table_entries(which="all", rank_cutoff=DEFAULT_RANK_CUTOFF):
    """Expand the shipped tables into concrete entries.

    Families are truncated at rank_cutoff; single entries are kept whatever
    the cutoff.  ``which`` is one of m1, m2, m3, all.
    """
    raw = load_raw_tables()
    names = ["m1", "m2", "m3"] if which == "all" else [which]
    out = []
    for name in names:
        if name not in raw:
            raise ValueError(f"unknown table {name!r}")
        for record in raw[name]:
            for rank in _record_ranks(record, rank_cutoff):
                out.append(TableEntry(
                    rstype=RootSystemType(record["family"], rank),
                    weight=_record_weight(record, rank),
                    expected_modality=record["modality"],
                    table=name))
    return out


def lookup_expected_modality(rstype, weight):
    """Table entry matching the weight or an image of it under a diagram
    automorphism, or None.

    The tables list one member of each orbit of diagram automorphisms (the
    dual, the two half-spin weights of D_n, the triality images in D4), so
    lookups are normalized over the whole orbit.  The match is the first
    of ``table_entries`` up to the type's rank, the entries verification
    reads, with the weight as given.
    """
    weight = tuple(int(c) for c in weight)
    candidates = build_root_system(rstype).diagram_orbit(weight)
    return next((entry._replace(weight=weight)
                 for entry in table_entries(rank_cutoff=rstype.rank)
                 if entry.rstype == rstype and entry.weight in candidates),
                None)


class VerifyResult(NamedTuple):
    dim_v: int
    computed: int | None       # None when skipped
    orbit_dim: int | None      # None when skipped
    skipped: bool
    reason: str
    sampling: OrbitDimReport | None = None   # None when skipped


def verify_table_entry(entry, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED,
                       ceiling=DEFAULT_BUILD_CEILING):
    """Build the entry's module, compute its modality, compare to the table.

    The module's dimension comes from the build, or from the ceiling's
    refusal, so Weyl's formula runs once per entry.
    """
    spec = IrrepSpec(entry.rstype, entry.weight)
    try:
        action = action_from_module(spec, ceiling=ceiling)
    except BuildCeilingExceeded as exc:
        return VerifyResult(dim_v=exc.dimension, computed=None,
                            orbit_dim=None, skipped=True,
                            reason=f"dimension {exc.dimension} exceeds "
                                   f"ceiling {ceiling}")
    report = generic_orbit_dim(action, trials=trials, seed=seed)
    return VerifyResult(dim_v=action.space_dim, computed=report.codimension,
                        orbit_dim=report.generic_orbit_dim, skipped=False,
                        reason="", sampling=report)


# ---------------------------------------------------------------------------
# copies of the natural module: the standard counterexample family

class ExmoReport(NamedTuple):
    space_dim: int
    regular_sheet_modality: int
    open_orbit_found: bool
    family_dim: int
    family_orbit_dim: int
    family_lower_bound: int
    modality_regular: bool
    sampling: OrbitDimReport          # of the generic orbit


def sum_of_copies_check(n, d, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED,
                        ceiling=DEFAULT_BUILD_CEILING):
    """Modality anatomy of d copies of the natural rank n-1 module.

    The generic orbit is open (regular-sheet modality 0), yet the family
    F = {(v, c_1 v, ..., c_{d-1} v) : v != 0} forces total modality
    >= d-1, so for d >= 2 the action is not modality-regular.  The family's
    numbers are proven, not sampled: F is SL_n-stable of dimension n+d-1,
    since g (v, c v) = (gv, c gv); and SL_n is transitive on nonzero
    vectors, so the orbit of a point of F is {(w, c w) : w != 0}, of
    dimension n.  Hence ``family_lower_bound`` is exactly d-1.  Only the
    regular sheet's codimension is sampled (``generic_orbit_dim``), and it
    is never below the true one, so ``open_orbit_found`` and a false
    ``modality_regular`` are exact too.  Raises BuildCeilingExceeded before
    any build when the sum's dimension n * d exceeds ``ceiling``.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if not 2 <= d <= n - 1:
        raise ValueError("need 2 <= d <= n-1")
    check_ceiling(f"sum of {d} copies of the natural A{n - 1} module",
                  n * d, ceiling)
    rstype = RootSystemType("A", n - 1)
    natural = tuple(1 if i == 0 else 0 for i in range(n - 1))
    full = extend_to_full_algebra(IrrepSpec(rstype, natural))
    action = ActionSpec(matrices=[linalg.block_diag([m] * d)
                                  for m in full.full_basis])

    report = generic_orbit_dim(action, trials=trials, seed=seed)
    lower = d - 1
    return ExmoReport(space_dim=action.space_dim,
                      regular_sheet_modality=report.codimension,
                      open_orbit_found=report.codimension == 0,
                      family_dim=n + d - 1, family_orbit_dim=n,
                      family_lower_bound=lower,
                      modality_regular=lower <= report.codimension,
                      sampling=report)
