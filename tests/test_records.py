"""The record contract: each of the library's records reads its fields by
name, compares and hashes by its fields in order as before, refuses
assignment when frozen, survives copy and pickle, and is none of tuple, list
or dict (the benchmark's operand probe and ``reporting.jsonable`` walk those
item by item)."""

import copy
import importlib
import os
import pickle
from fractions import Fraction as F

import pytest

from biorth import bimoment, biortho
from biorth.asep import ComparisonReport, StationaryDistribution, VariantComparison
from biorth.bimoment import BimomentMatrix
from biorth.biortho import PolySeq
from biorth.core import AWParams, HoppingRates
from biorth.ldu import DiagonalFactor, TriangularFactor
from biorth.repmat import AWRecurrenceCoeffs, TridiagonalOperator, UchiyamaCoeffs
from biorth.reporting import CheckResult, VerificationReport

from conftest import GRID, make_params, replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

P = AWParams(a=F(1), b=F(1, 2), c=F(-1, 3), d=F(-1, 4), q=F(1, 2))
RATES = HoppingRates(alpha=F(1), beta=F(2), gamma=F(0), delta=F(1, 3), q=F(1, 2))
DIST = StationaryDistribution(length=1, probabilities=(F(1, 3), F(2, 3)), normalization=F(3))
VARIANT = VariantComparison(name="shifted", matches_oracle=True, max_abs_discrepancy=F(0))

# (class, its fields in order with values, one field with another value)
CASES = [
    (AWParams, dict(a=F(1), b=F(1, 2), c=F(-1, 3), d=F(-1, 4), q=F(1, 2)), ("d", F(0))),
    (HoppingRates, dict(alpha=F(1), beta=F(2), gamma=F(0), delta=F(1, 3), q=F(1, 2)), ("gamma", F(1))),
    (CheckResult, dict(name="c", passed=False, first_failure={"k": 1}, skipped_reason=None), ("passed", True)),
    (VerificationReport, dict(params={"q": "1/2"}, n=3, checks=[CheckResult("c", True)], timings_ms={"s": 1.0}),
     ("n", 4)),
    (BimomentMatrix, dict(params=P, order=1, entries=((F(1), F(2)), (F(3), F(4)))), ("order", 2)),
    (TriangularFactor, dict(order=1, entries=((F(1), F(0)), (F(2), F(1)))), ("order", 2)),
    (DiagonalFactor, dict(order=1, values=(F(1), F(2))), ("values", (F(1), F(3)))),
    (TridiagonalOperator, dict(size=2, diag=(F(1), F(2)), upper=(F(1),), lower=(F(3),)), ("lower", (F(4),))),
    (AWRecurrenceCoeffs, dict(n=1, A=F(1), B=F(2), C=F(3)), ("C", F(4))),
    (UchiyamaCoeffs, dict(n=1, d_nat=F(1), e_nat=F(2), dsharp_eflat_product=F(3), esharp_dflat_product=F(4),
                          a_squared=F(5)), ("a_squared", F(6))),
    (PolySeq, dict(variable="x", coeffs=((F(1),), (F(2), F(1)))), ("variable", "y")),
    (StationaryDistribution, dict(length=1, probabilities=(F(1, 3), F(2, 3)), normalization=F(3)),
     ("normalization", F(4))),
    (VariantComparison, dict(name="shifted", matches_oracle=False, max_abs_discrepancy=F(1, 2)),
     ("max_abs_discrepancy", None)),
    (ComparisonReport, dict(params=P, rates=RATES, length=1, variants=(VARIANT,), oracle=DIST,
                            normalization_matches={"shifted": True}), ("oracle", None)),
]
MUTABLE = (CheckResult, VerificationReport)
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, change", CASES, ids=IDS)
def test_fields_read_by_name_in_order(cls, fields, change):
    record = cls(**fields)
    for name, value in fields.items():
        assert getattr(record, name) == value
    assert cls(*fields.values()) == record
    # plain slotted classes: no per-instance dict, no sequence protocol
    assert not hasattr(record, "__dict__")
    assert not isinstance(record, (tuple, list, dict))


@pytest.mark.parametrize("cls, fields, change", CASES, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, fields, change):
    record = cls(**fields)
    other = replace(record, **dict([change]))
    assert record == cls(**fields) and not record != cls(**fields)
    assert record != other
    assert record != tuple(fields.values())
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(record)
    elif any(isinstance(value, dict) for value in fields.values()):
        with pytest.raises(TypeError):  # as a frozen dataclass holding a dict
            hash(record)
    else:
        assert hash(record) == hash(cls(**fields)) == hash(tuple(fields.values()))


@pytest.mark.parametrize("cls, fields, change", CASES, ids=IDS)
def test_only_the_mutable_records_accept_assignment(cls, fields, change):
    record = cls(**fields)
    name, value = change
    if cls in MUTABLE:
        setattr(record, name, value)
        assert getattr(record, name) == value
        return
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert record == cls(**fields)


@pytest.mark.parametrize("cls, fields, change", CASES, ids=IDS)
def test_copy_and_pickle_give_an_equal_record(cls, fields, change):
    record = cls(**fields)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record


@pytest.mark.parametrize("cls, fields, change", CASES, ids=IDS)
def test_repr_names_every_field(cls, fields, change):
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


def test_aw_params_repr_and_coercion():
    p = AWParams(1, "1/2", F(-1, 3), "-1/4", "1/2")
    assert p == P and hash(p) == hash(P)
    assert repr(p) == (
        "AWParams(a=Fraction(1, 1), b=Fraction(1, 2), c=Fraction(-1, 3), d=Fraction(-1, 4), q=Fraction(1, 2))"
    )


def test_equal_params_share_one_moment_table(monkeypatch):
    monkeypatch.setattr(bimoment, "_TABLES", {})
    table = bimoment.bimoment_table(make_params(GRID[0]))
    assert bimoment.bimoment_table(make_params(GRID[0])) is table
    assert list(bimoment._TABLES) == [make_params(GRID[0])]


def test_poly_seq_equality_is_the_route_check(canonical):
    for variable in ("d", "e"):
        inverse = biortho.polys_from_inverse(canonical, 5, variable)
        assert inverse == biortho.polys_from_recurrence(canonical, 5, variable)
        bumped = inverse.coeffs[:3] + ((inverse.coeffs[3][0] + 1, *inverse.coeffs[3][1:]),) + inverse.coeffs[4:]
        assert replace(inverse, coeffs=bumped) != inverse


def test_check_counts_reads_skipped_reason(monkeypatch):
    monkeypatch.syspath_prepend(ROOT)
    probe = importlib.import_module("perfbench.probe")
    checks = [CheckResult("a", True), CheckResult("b", False), CheckResult("c", True, skipped_reason="too large")]
    assert checks[2].skipped_reason == "too large"
    assert probe.check_counts(checks) == (1, 1)
    assert probe.check_counts([check.to_dict() for check in checks]) == (1, 1)
