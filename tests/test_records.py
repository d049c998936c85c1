"""The record types are named tuples: validation on every construction path,
tuple hashing and ordering, and an import that loads no dataclasses."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dmcensus import (
    ArcMatrix,
    DimensionError,
    Monomial,
    canonical_form,
    compare_census,
    parse_monomial,
    verify_against_catalog,
)

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

VALIDATED = [
    pytest.param(ArcMatrix, ((1, 2), (3, 4)), ((1,), (2, 3)), DimensionError, id="ArcMatrix"),
    pytest.param(Monomial, ((1, 2), (2, 1)), ((0, 1),), ValueError, id="Monomial"),
]


@pytest.mark.parametrize("cls, good, bad, error", VALIDATED)
def test_every_construction_path_validates(cls, good, bad, error):
    value = cls(good)
    assert cls._make(value) == value
    assert value._replace(**{cls._fields[0]: good}) == value
    with pytest.raises(error) as direct:
        cls(bad)
    for build in (lambda: cls._make([bad]), lambda: value._replace(**{cls._fields[0]: bad})):
        with pytest.raises(error) as other:
            build()
        assert str(other.value) == str(direct.value)


def test_make_and_replace_normalize_like_the_constructor():
    assert ArcMatrix._make([[[1, 0], [0, 1]]]).entries == ((1, 0), (0, 1))
    assert Monomial(((1, 1),))._replace(factors=[(2, 1), (1, 2)]).factors == ((1, 2), (2, 1))
    with pytest.raises(TypeError):
        ArcMatrix._make([((0,),), ((0,),)])  # one field, two values


@pytest.mark.parametrize(
    "factors", [((1.5, 2.9),), (("1", True),), ((1, True),), ((2, 1), (1, 2.0)), ((None, 1),)]
)
def test_monomial_refuses_node_names_that_are_not_ints(factors):
    for build in (lambda: Monomial(factors), lambda: Monomial(((1, 1),))._replace(factors=factors)):
        with pytest.raises(ValueError, match="node names must be integers"):
            build()


def all_records(census_d2, oracle_d2, catalog):
    report = census_d2(2)
    verification = verify_against_catalog(report, catalog)
    entry = report.entries[0]
    result = canonical_form(entry.canonical)
    return [
        entry.canonical,
        parse_monomial("x12 x21"),
        result,
        entry,
        report,
        compare_census(report, oracle_d2(2)),
        catalog.records[0],
        catalog,
        verification.matched[0],
        verification,
    ]


def test_each_record_type_hashes_and_orders_as_its_field_tuple(census_d2, oracle_d2, catalog):
    records = all_records(census_d2, oracle_d2, catalog)
    assert len({type(r) for r in records}) == 10
    for record in records:
        fields = tuple(getattr(record, name) for name in record._fields)
        assert tuple(record) == fields
        assert hash(record) == hash(fields)
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
    low, high = census_d2(2).entries[:2]
    assert low.canonical < high.canonical and low < high


def test_import_loads_no_dataclasses_or_inspect():
    env = dict(os.environ, PYTHONPATH=SRC_DIR + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import sys, dmcensus; dmcensus.load_catalog(); "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout == "[]\n"
