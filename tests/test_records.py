"""Value contract of the record and report types: immutable named tuples."""

import pytest

from cybordism import generators, numthy, partitions, toricdata
from cybordism.toricdata import KSRecord

TYPES = [
    numthy.CaseTag,
    partitions.DivisibilityEntry,
    partitions.DivisibilityReport,
    generators.GeneratorCertificate,
    generators.GcdIdentityRow,
    generators.GcdIdentityReport,
    toricdata.ReflexivePolytope,
    toricdata.ReflexivityReport,
    toricdata.KSRecord,
    toricdata.KSParseError,
    toricdata.RangeSide,
    toricdata.RangeReport,
]


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_records_are_immutable_values(cls):
    values = tuple(range(len(cls._fields)))
    record = cls(*values)
    same = cls(**dict(zip(cls._fields, values)))
    assert record == same and not record != same and hash(record) == hash(same)
    assert record != cls(*(v + 1 for v in values))
    # declared: instances are tuples of their fields
    assert record == values and list(record) == list(values)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, -1)
    with pytest.raises(AttributeError):
        record.unknown_field = 0


def test_defaults_and_positional_construction():
    record = KSRecord(4, 5, 1, 101)
    assert (record.ambient_dim, record.vertex_count, record.h11, record.h21) == (4, 5, 1, 101)
    assert (record.chi, record.line) == (None, 0)
    # declared: a record holds its header's numbers and its line alone
    assert KSRecord._fields == ("ambient_dim", "vertex_count", "h11", "h21", "chi", "line")
    assert partitions.DivisibilityReport(5).entries == ()
    assert partitions.DivisibilityReport(5).passed


def test_ks_record_line_is_not_part_of_its_value():
    first = KSRecord(4, 5, 20, 19, chi=2, line=3)
    later = KSRecord(4, 5, 20, 19, chi=2, line=90)
    assert first == later and not first != later and hash(first) == hash(later)
    other = first._replace(h21=21)
    assert first != other and not first == other
    assert "line=3" in repr(first) and "line=90" in repr(later)
    assert len({first, later, other}) == 2
