"""The contract liemod's records keep: keyword construction, frozen fields,
the checks and normalisation their constructors make, and a hash that is
the hash of their field tuple.  The fields themselves are those a caller
reads: ``tests/test_hygiene.py`` fails on a record field that only the
tests read."""

import re
from fractions import Fraction

import pytest

from liemod import linalg
from liemod.cells import Cell, CentralizerData, FunctionalSet
from liemod.graded import GradedAlgebra, GradingSpec
from liemod.hwmod import HWModule, IrrepSpec
from liemod.modality import (FIELD, ActionSpec, CoverPiece, ExmoReport,
                             OrbitDimReport, TableEntry, VerifyResult)
from liemod.packets import (JordanTypeA, PacketDescriptor, SanityReport,
                            SheetCheck)
from liemod.rootsys import RootSystemType

A2 = RootSystemType("A", 2)
MATRIX = linalg.rmat([[0, 1], [0, 0]])
REPORT = OrbitDimReport(generic_orbit_dim=6, codimension=2, trials_used=1,
                        field=FIELD, miss_bound=0.5)
ENTRY = TableEntry(rstype=A2, weight=(1, 0), expected_modality=0, table="m1")
CELL = Cell(flat=frozenset({0}), closure_dim=1)
JORDAN = JordanTypeA(block_data=((2, (2,)),))

# every record type with a value for each of its fields, in field order;
# each value is one the constructor keeps as it is
RECORDS = {
    "RootSystemType": (RootSystemType, dict(family="A", rank=2)),
    "IrrepSpec": (IrrepSpec, dict(rstype=A2, highest_weight=(1, 0))),
    "HWModule": (HWModule, dict(
        dimension=1, monomials=((),), e=(MATRIX,), f=(MATRIX,), h=(MATRIX,),
        full_basis=None, basis_names=None)),
    "ActionSpec": (ActionSpec, dict(matrices=(MATRIX, MATRIX))),
    "OrbitDimReport": (OrbitDimReport, dict(
        generic_orbit_dim=6, codimension=2, trials_used=1, field=FIELD,
        miss_bound=0.5)),
    "CoverPiece": (CoverPiece, dict(closure_dim=3, orbit_dim=2)),
    "TableEntry": (TableEntry, dict(rstype=A2, weight=(1, 0),
                                    expected_modality=0, table="m1")),
    "VerifyResult": (VerifyResult, dict(
        dim_v=3, computed=0, orbit_dim=3, skipped=False,
        reason="", sampling=REPORT)),
    "ExmoReport": (ExmoReport, dict(
        space_dim=6, regular_sheet_modality=0,
        open_orbit_found=True, family_dim=4, family_orbit_dim=3,
        family_lower_bound=1, modality_regular=False, sampling=REPORT)),
    "GradingSpec": (GradingSpec, dict(rstype=A2, m=3, labels=(1, 2))),
    "GradedAlgebra": (GradedAlgebra, dict(
        spec=GradingSpec(A2, None, (1, 0)), sc=None, components={0: (0, 1)},
        g1_indices=(), g0_on_g1=ActionSpec((MATRIX,)))),
    "FunctionalSet": (FunctionalSet, dict(
        ambient_dim=2, functionals=((1, -2),))),
    "Cell": (Cell, dict(flat=frozenset({0, 2}), closure_dim=1)),
    "CentralizerData": (CentralizerData, dict(
        dim_centralizer=4, dim_center=1, dim_derived=3)),
    "JordanTypeA": (JordanTypeA, dict(block_data=((2, (1, 1)), (1, (1,))))),
    "PacketDescriptor": (PacketDescriptor, dict(
        n=2, jordan_type=JORDAN, cell=CELL, orbit_dim=2, closure_dim=2,
        modality=0, representative=((0, 1), (0, 0)))),
    "SheetCheck": (SheetCheck, dict(sheet=(3, 2), matched_packet="2:[2]",
                                    point_orbit_dims_constant=True)),
    "SanityReport": (SanityReport, dict(
        n=2, samples=10, coverage_ok=True,
        max_modality=1, aggregator_ok=True, identity_ok=True,
        sheet_checks=(), sheets_ok=True, regular_center_ok=True)),
}
# HWModule is a plain class, built once with its full basis; GradedAlgebra
# holds a dict.  Neither is frozen or hashed.
FROZEN = sorted(set(RECORDS) - {"HWModule", "GradedAlgebra"})
# Matrix values have no hash
HASHABLE = sorted(set(FROZEN) - {"ActionSpec"})


def test_every_record_type_is_listed():
    assert len(RECORDS) == 18
    assert all(cls.__name__ == name for name, (cls, _) in RECORDS.items())


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_keyword_construction_reads_back(name):
    cls, fields = RECORDS[name]
    record = cls(**fields)
    for field, value in fields.items():
        assert getattr(record, field) == value, field


@pytest.mark.parametrize("name", FROZEN)
def test_fields_cannot_be_assigned(name):
    cls, fields = RECORDS[name]
    record = cls(**fields)
    for field, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, field, value)


@pytest.mark.parametrize("name", HASHABLE)
def test_hash_is_the_hash_of_the_field_tuple(name):
    # so set and dict orders under a fixed PYTHONHASHSEED stay as they were
    cls, fields = RECORDS[name]
    assert hash(cls(**fields)) == hash(tuple(fields.values()))


@pytest.mark.parametrize("build,message", [
    (lambda: RootSystemType("A", 0), "rank 0 too small for type A"),
    (lambda: RootSystemType("G", 3), "rank 3 too large for type G"),
    (lambda: RootSystemType("H", 3), "unknown family 'H'"),
    (lambda: RootSystemType.parse("A"), "cannot parse root system type 'A'"),
    (lambda: IrrepSpec(A2, (0.5, 0)),
     "highest weight coefficients must be integers"),
    (lambda: IrrepSpec(A2, (1,)), "weight length does not match rank"),
    (lambda: IrrepSpec(A2, (-1, 0)), "highest weight must be dominant"),
    (lambda: ActionSpec(()), "need one or more square matrices of one size"),
    (lambda: ActionSpec((MATRIX, linalg.rmat([[0]]))),
     "need one or more square matrices of one size"),
    (lambda: CoverPiece(1, 2), "need 0 <= orbit_dim <= closure_dim"),
    (lambda: CoverPiece(1, -1), "need 0 <= orbit_dim <= closure_dim"),
    (lambda: GradingSpec(A2, 0, (1, 0)),
     "m must be a positive integer or None"),
    (lambda: GradingSpec(A2, 3, (1,)), "need one label per simple root"),
    (lambda: GradingSpec(A2, None, (-1, 0)), "labels must be nonnegative"),
    (lambda: FunctionalSet(2, ()), "functional set must be nonempty"),
    (lambda: FunctionalSet(2, ((1,),)),
     "functional length does not match ambient_dim"),
    (lambda: JordanTypeA(((2, (1,)),)),
     "partition does not sum to its block size"),
])
def test_validating_records_reject_bad_input(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_constructors_normalise_their_fields():
    weight = IrrepSpec(A2, [1.0, 0]).highest_weight
    assert weight == (1, 0) and all(type(c) is int for c in weight)
    assert GradingSpec(A2, 3, [4, 5]).labels == (1, 2)
    assert GradingSpec(A2, None, [4, 5]).labels == (4, 5)
    flat = Cell(flat=[2, 0], closure_dim=1).flat
    assert type(flat) is frozenset and flat == {0, 2}
    jordan = JordanTypeA([(1, [1]), (2, [2]), (2, [1, 1])])
    assert jordan.block_data == ((2, (1, 1)), (2, (2,)), (1, (1,)))
    functionals = FunctionalSet(2, [[1, -2], [0, 3]]).functionals
    assert functionals == ((1, -2), (0, 3))
    assert all(type(c) is int for f in functionals for c in f)
    # functionals are integer: a float or a Fraction, even an integral one,
    # is refused rather than rounded
    for bad in (0.5, 1.0, Fraction(1, 2), Fraction(2)):
        with pytest.raises(TypeError):
            FunctionalSet(2, [[1, bad]])
    action = ActionSpec([MATRIX, MATRIX, MATRIX])
    assert type(action.matrices) is tuple
    assert (action.algebra_dim, action.space_dim) == (3, 2)


def test_records_are_named_tuples():
    # equal to, hashed and unpacked like the tuple of their fields
    assert RootSystemType("A", 2) == ("A", 2)
    family, rank = RootSystemType.parse("E7")
    assert (family, rank) == ("E", 7)
    assert ENTRY._replace(weight=(0, 1)) == TableEntry(A2, (0, 1), 0, "m1")
    # _replace builds through the constructor: it checks and normalises
    assert GradingSpec(A2, 3, (1, 0))._replace(labels=(4, 5)).labels == (1, 2)
    with pytest.raises(ValueError, match="orbit_dim <= closure_dim"):
        CoverPiece(3, 2)._replace(orbit_dim=4)
