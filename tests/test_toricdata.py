"""Reflexive polytopes and the Hodge-number record pipeline."""

import io
import itertools
import re
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cybordism import toricdata
from cybordism.partitions import Partition, generator_partitions
from cybordism.toricdata import (
    _row_words,
    KSParseError,
    KSRecord,
    ReflexivePolytope,
    filter_hodge_difference,
    h11_range_report,
    parse_ks,
    partition_polytope,
    polar_dual,
    product,
    standard_simplex,
    verify_reflexive,
)

from oracles import HEADER_RE, HEADERISH_RE, format_ks, parse_ks_by_lines, reflexivity_by_vertices

DATA = Path(__file__).parent / "data"


def read_lines(name: str) -> list[str]:
    return (DATA / name).read_text().splitlines()


# --- polytopes ---------------------------------------------------------------


def test_standard_simplex_d1():
    seg = standard_simplex(1)
    assert set(seg.vertices) == {(-1,), (1,)}
    assert set(seg.facets) == {(1,), (-1,)}
    assert verify_reflexive(seg).ok


def test_standard_simplex_d2():
    tri = standard_simplex(2)
    assert set(tri.vertices) == {(-1, -1), (2, -1), (-1, 2)}
    assert len(tri.facets) == 3
    assert verify_reflexive(tri).ok


def test_standard_simplex_d3():
    tet = standard_simplex(3)
    assert tet.vertex_count == 4
    assert tet.facet_count == 4
    assert verify_reflexive(tet).ok


def test_standard_simplex_rejects_nonpositive():
    with pytest.raises(ValueError):
        standard_simplex(0)


def test_square_and_cube_products():
    seg = standard_simplex(1)
    square = product(seg, seg)
    assert set(square.vertices) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert square.facet_count == 4
    assert verify_reflexive(square).ok

    cube = product(square, seg)
    assert cube.vertex_count == 8
    assert cube.facet_count == 6
    assert set(cube.vertices) == {(a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)}
    assert verify_reflexive(cube).ok


def test_triangle_times_segment():
    prism = product(standard_simplex(2), standard_simplex(1))
    assert prism.vertex_count == 6
    assert prism.facet_count == 5
    assert verify_reflexive(prism).ok


def test_partition_polytopes_reflexive_with_counts():
    for n in range(3, 9):
        for sigma in generator_partitions(n):
            poly = partition_polytope(sigma)
            report = verify_reflexive(poly)
            assert report.ok, (sigma, report.diagnostics)
            expected_vertices = 1
            for part in sigma:
                expected_vertices *= part + 1
            assert poly.vertex_count == expected_vertices
            assert poly.facet_count == sum(part + 1 for part in sigma)
            assert poly.dim == n


def test_polytope_cost_budget():
    # admitted: the largest benchmark shapes; refused before anything is built
    for parts in ((2,) * 7, (1,) * 10):
        assert partition_polytope(parts).dim == sum(parts)
    for parts in ((1,) * 17, (400, 400), (99999999999999999999,)):
        with pytest.raises(ValueError, match="polytope cost budget"):
            partition_polytope(parts)


def test_polar_dual_round_trip():
    for build in (
        lambda: standard_simplex(1),
        lambda: standard_simplex(2),
        lambda: standard_simplex(3),
        lambda: standard_simplex(4),
        lambda: partition_polytope(Partition([2, 2])),
    ):
        poly = build()
        dual = polar_dual(poly)
        assert verify_reflexive(dual).ok
        again = polar_dual(dual)
        assert set(again.facets) == set(poly.facets)
        assert set(again.vertices) == set(poly.vertices)


def test_non_reflexive_segment_is_rejected():
    # [-1, 2]: the facet at x = 2 sits at lattice distance 2, so its
    # normal cannot be integral in the <a, x> >= -1 normalisation; the
    # nearest integer attempt cuts the vertex off.
    segment = ReflexivePolytope(dim=1, vertices=((-1,), (2,)), facets=((1,), (-1,)))
    report = verify_reflexive(segment)
    assert not report.ok
    assert any("cuts off" in d for d in report.diagnostics)


def test_non_tight_facet_is_rejected():
    shifted = ReflexivePolytope(dim=1, vertices=((0,), (1,)), facets=((1,), (-1,)))
    report = verify_reflexive(shifted)
    assert not report.ok
    assert any("lattice distance" in d for d in report.diagnostics)


def test_malformed_polytope_data_diagnosed_not_raised():
    bad_shape = ReflexivePolytope(dim=2, vertices=((1,),), facets=((1, 0),))
    report = verify_reflexive(bad_shape)
    assert not report.ok
    assert any("coordinates" in d for d in report.diagnostics)

    zero_normal = ReflexivePolytope(
        dim=1, vertices=((-1,), (1,)), facets=((0,), (1,), (-1,))
    )
    report = verify_reflexive(zero_normal)
    assert not report.ok
    assert any("zero facet normal" in d for d in report.diagnostics)


def test_vertex_less_polytope_is_diagnosed_not_raised():
    # a nonzero facet over no vertices once raised "min() arg is an empty sequence"
    report = verify_reflexive(ReflexivePolytope(dim=1, vertices=(), facets=((1,),)))
    assert report == (
        False,
        (
            "only 0 vertices; a 1-polytope needs 2",
            "only 1 facets; a 1-polytope needs 2",
            "facet (1,) touches only 0 vertices, need 1",
        ),
        0,
        1,
    )
    assert report == reflexivity_by_vertices(ReflexivePolytope(1, (), ((1,),)))


PERTURBATIONS = ["shift", "scale", "drop", "zero", "none", "dim", "outside", "float", "ragged"]


@st.composite
def perturbed_products(draw):
    """A product of simplices with a few of its vertex and facet rows broken."""
    poly = partition_polytope(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    dim, vertices, facets = poly.dim, [*poly.vertices], [*poly.facets]
    for change in draw(st.lists(st.sampled_from(PERTURBATIONS), max_size=3)):
        rows = facets if change in ("shift", "scale") or not vertices else vertices
        if change == "none":
            vertices = []
        elif change == "dim":
            dim = draw(st.sampled_from([0, dim - 1, dim + 1]))
        elif change == "zero":
            facets.insert(draw(st.integers(0, len(facets))), (0,) * dim)
        elif change == "outside":
            vertices.append((dim + 1,) * dim)
        elif rows:
            k = draw(st.integers(0, len(rows) - 1))
            row = [*rows[k]]
            if change == "drop":
                del rows[k]
            elif change == "scale":
                rows[k] = tuple(2 * x for x in row)
            elif row:
                j = draw(st.integers(0, len(row) - 1))
                row[j] = row[j] + 1 if change == "shift" else float(row[j])
                rows[k] = tuple(row[:j] if change == "ragged" else row)
    return ReflexivePolytope(dim, tuple(vertices), tuple(facets))


@settings(max_examples=300, deadline=None)
@given(perturbed_products())
def test_reflexivity_matches_the_per_vertex_check(poly):
    assert verify_reflexive(poly) == reflexivity_by_vertices(poly)


def test_reflexivity_of_larger_products_matches_the_per_vertex_check():
    for parts in ((2,) * 5, (1,) * 8, (3, 5), (12,)):
        poly = partition_polytope(parts)
        expected = (True, (), poly.vertex_count, poly.facet_count)
        assert verify_reflexive(poly) == reflexivity_by_vertices(poly) == expected


# --- record parsing ----------------------------------------------------------


def test_parse_sample_file():
    items = list(parse_ks(read_lines("ks_sample.txt")))
    records = [r for r in items if isinstance(r, KSRecord)]
    errors = [e for e in items if isinstance(e, KSParseError)]
    assert errors == []
    assert len(records) == 12
    first = records[0]
    assert first.ambient_dim == 4
    assert first.vertex_count == 5
    assert first.h11 == 1 and first.h21 == 101 and first.chi == -200
    # the header's M: and N: pairs are read but not kept, and its four rows are taken
    assert tuple(first) == (4, 5, 1, 101, -200, 1)
    assert records[1].line == 6
    assert all(r.consistent for r in records)


def test_parse_is_streaming():
    stream = parse_ks(iter(read_lines("ks_sample.txt")))
    assert next(stream).h11 == 1  # consumable lazily


def test_chi_consistency_examples():
    good = next(iter(parse_ks(["4 5 H:5,45 [-80]", "1 1 1 1 1"] + ["1 1 1 1 1"] * 3)))
    assert isinstance(good, KSRecord)
    assert good.consistent and good.chi == -80

    absent = next(iter(parse_ks(["4 5 H:1,1", *["0 0 0 0 0"] * 4])))
    assert isinstance(absent, KSRecord)
    assert absent.chi is None and absent.consistent

    flagged = next(iter(parse_ks(["4 5 H:5,45 [-79]", *["0 0 0 0 0"] * 4])))
    assert isinstance(flagged, KSRecord)
    assert not flagged.consistent

    strict = next(iter(parse_ks(["4 5 H:5,45 [-79]", *["0 0 0 0 0"] * 4], strict=True)))
    assert isinstance(strict, KSParseError)
    assert "chi" in strict.message and strict.line == 1


def test_malformed_file_errors_and_recovery():
    items = list(parse_ks(read_lines("ks_malformed.txt")))
    records = [r for r in items if isinstance(r, KSRecord)]
    errors = [e for e in items if isinstance(e, KSParseError)]
    # the two structurally good records survive (one of them chi-inconsistent)
    assert len(records) == 2
    assert {r.line for r in records} == {11, 17}
    assert sum(1 for r in records if not r.consistent) == 1
    # missing H field reported on line 1
    assert any(e.line == 1 and "H:" in e.message for e in errors)
    # bad matrix row under the header at line 6 names the offending line
    assert any(e.line == 6 and "line 8" in e.message for e in errors)
    # noise line and h11 = 0 header both reported
    assert any("noise" in e.message for e in errors)
    assert any("h11" in e.message for e in errors)


def test_over_long_header_number_is_one_positioned_error():
    # the middle header's chi has 5,000 digits, past int()'s default limit
    items = list(parse_ks(read_lines("ks_long_number.txt")))
    records = [r for r in items if isinstance(r, KSRecord)]
    errors = [e for e in items if isinstance(e, KSParseError)]
    assert [r.line for r in records] == [1, 11]
    assert [e.line for e in errors] == [6]
    assert "digits" in errors[0].message
    # strict mode would print 2*(h11 - h21), one digit past a 4300-digit h11
    header = "4 5 H:" + "9" * 4300 + ",1 [2]"
    (strict,) = parse_ks([header, *["0 0 0 0 0"] * 4], strict=True)
    assert strict == KSParseError(1, "header number has too many digits")
    # M: and N: numbers are not kept, but one of 4301 digits is refused all the same
    for tag in ("M:", "N:"):
        (item,) = parse_ks([f"4 5 {tag}{'7' * 4301} 5 H:1,1", *["0 0 0 0 0"] * 4])
        assert item == KSParseError(1, "header number has too many digits")


def test_header_numbers_past_the_default_digit_limit_are_refused_with_the_limit_lifted():
    rows = ["0 0 0 0 0"] * 4
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for digits, refused in ((4300, False), (4301, True)):
            number = "7" * digits
            cases = ((f"4 5 H:{number},1", (int(number), None)), (f"4 5 H:2,1 [-{number}]", (2, -int(number))))
            for header, fields in cases:
                (item,) = parse_ks([header, *rows])
                if refused:
                    assert item == KSParseError(1, "header number has too many digits")
                else:
                    assert isinstance(item, KSRecord) and (item.h11, item.chi) == fields
        # and so is a strict chi message whose 2*(h11 - h21) has 4301 digits, either way round
        for header in (f"4 5 H:{'9' * 4300},1 [2]", f"4 5 H:1,{'9' * 4300} [2]"):
            (item,) = parse_ks([header, *rows], strict=True)
            assert item == KSParseError(1, "header number has too many digits")
    finally:
        sys.set_int_max_str_digits(limit)
    assert sys.get_int_max_str_digits() == limit


def test_truncated_matrix_at_eof():
    items = list(parse_ks(["4 5 H:2,2", "1 1 1 1 1"]))
    assert len(items) == 1
    assert isinstance(items[0], KSParseError)
    assert "ended" in items[0].message


PAIRS = st.none() | st.tuples(st.integers(0, 10**6), st.integers(0, 10**6))


def header_extras(dim, count):
    """The ``M:`` and ``N:`` pairs and the ``dim`` rows of ``count`` integers that ``format_ks``
    writes around a record, which the parser reads and does not keep."""
    row = st.lists(st.integers(-99, 99).map(str), min_size=count, max_size=count).map(" ".join)
    return st.tuples(PAIRS, PAIRS, st.lists(row, min_size=dim, max_size=dim))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_round_trip_identity(data):
    records = [r for r in parse_ks(read_lines("ks_sample.txt")) if isinstance(r, KSRecord)]
    text = "\n".join(format_ks(r, *data.draw(header_extras(r.ambient_dim, r.vertex_count))) for r in records)
    reparsed = list(parse_ks(io.StringIO(text)))
    assert all(isinstance(r, KSRecord) for r in reparsed)
    assert reparsed == records  # line numbers are excluded from equality


@st.composite
def ks_records(draw):
    """A record, and the pairs and rows ``format_ks`` writes around it."""
    dim, count = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    record = KSRecord(
        ambient_dim=dim,
        vertex_count=count,
        h11=draw(st.integers(1, 10**6)),
        h21=draw(st.integers(0, 10**6)),
        chi=draw(st.none() | st.integers(-(10**6), 10**6)),
    )
    return record, *draw(header_extras(dim, count))


@given(ks_records())
def test_format_then_parse_round_trips(drawn):
    record, *extras = drawn
    assert list(parse_ks(format_ks(record, *extras).splitlines())) == [record]


def parsed(lines, strict=False) -> list[tuple]:
    """Each item with its type and line number, which ``==`` on records leaves out."""
    return [(type(item), item.line, item) for item in parse_ks(lines, strict)]


def parsed_by_lines(lines, strict=False) -> list[tuple]:
    return [(type(item), item.line, item) for item in parse_ks_by_lines(lines, strict)]


BIG = "9" * 5000  # past int()'s 4300-digit limit
HEADERS = st.builds(
    "{} {} {}".format,
    st.sampled_from(["0", "1", "2", "3", "٣", "99999999999999999999", BIG]),
    st.sampled_from(["0", "1", "2", "3", BIG]),
    st.sampled_from(
        [
            "H:1,1",
            "H:2,1 [2]",
            "H:3,1 [5]",
            "H:0,3",
            "M:1 2 N:3 4 H:5,6 [-2]",
            "M:1 2 H:4,4",
            f"H:{BIG},1",
            f"H:1,1 [{BIG}]",
            "H:1",
        ]
    ),
)
WORDS = st.sampled_from(["0", "7", "-1", "12", "٣", "-٣", BIG, "-", "--1", "1-2", "x", "H:"])
SPACES = st.sampled_from([" ", "   ", "\t", "\x0b", "\r", "\x1c", "\n", "\xa0", "\u2003"])
ROWS = st.builds(
    lambda lead, sep, words, tail: lead + sep.join(words) + tail,
    st.sampled_from(["", " ", "\t"]),
    SPACES,
    st.lists(WORDS, max_size=4),
    st.sampled_from(["", " ", "\r", "\n", "\x0b"]),
)
LINES = st.one_of(HEADERS, ROWS, ROWS, st.sampled_from(["", " ", "\r", "\x0b"]), st.text(max_size=6))


@st.composite
def header_like(draw):
    """A line built on the header grammar from numbers and gaps that may be empty."""
    number = st.sampled_from(["0", "7", "12", "٣", "٣4", "007", ""])
    space = st.sampled_from([" ", "  ", "\t", "\x0b", "\xa0", "\n", " \n", ""])
    parts = [draw(space), draw(number), draw(space), draw(number)]
    for tag in ("M:", "N:"):
        if draw(st.booleans()):
            parts += [draw(space), tag, draw(number), draw(space), draw(number)]
    parts += [draw(space), "H:", draw(number), ",", draw(number)]
    if draw(st.booleans()):
        parts += [draw(space), "[", draw(st.sampled_from(["", "-", "--"])), draw(number), "]"]
    return "".join([*parts, draw(space)])


# characters the header grammar gives a meaning to, and some it does not
EDITS = st.lists(
    st.tuples(
        st.integers(0, 80),
        st.sampled_from(["insert", "delete", "replace"]),
        st.sampled_from([" ", "\t", "\n", "\x0b", "\xa0", "0", "7", "٣", "-", ",", ":", "M", "N", "H", "[", "]", "x"]),
    ),
    max_size=4,
)


@settings(max_examples=600, deadline=None)
@given(HEADERS | header_like(), EDITS, st.sampled_from(["", " ", "\n", " \n"]))
def test_header_patterns_match_the_oracle_copies(header, edits, tail):
    line = header + tail
    for position, kind, char in edits:
        position %= len(line) + 1
        line = line[:position] + ("" if kind == "delete" else char) + line[position + (kind != "insert") :]
    for program, oracle in ((toricdata._HEADER_RE, HEADER_RE), (toricdata._HEADERISH_RE, HEADERISH_RE)):
        found, expected = program.match(line), oracle.match(line)
        assert (found and found.groups()) == (expected and expected.groups()), repr(line)


class CountingPattern:
    """A compiled pattern whose ``match`` calls are counted."""

    def __init__(self, pattern):
        self.pattern, self.calls = pattern, 0

    def match(self, text):
        self.calls += 1
        return self.pattern.match(text)


def test_each_line_is_matched_as_a_header_at_most_once(monkeypatch):
    # a non-integer word in the first row of every 50th record, blank lines between
    # some records, and records across block boundaries: no line is read as a
    # header twice, so the records after a bad one in its run are kept
    lines = []
    for n in range(2500):
        dim, count = 1 + n % 4, 3 + n % 5
        rows = [" ".join(str((7 * n + 3 * r + c) % 9 - 4) for c in range(count)) for r in range(dim)]
        if n % 50 == 49:
            rows[0] = "x" + rows[0]
        lines += [f"{dim} {count} H:{1 + n % 90},{n % 7}", *rows] + [""] * (n % 13 == 0)
    counter = CountingPattern(toricdata._HEADER_RE)
    monkeypatch.setattr(toricdata, "_HEADER_RE", counter)
    items = parsed(lines)
    assert items == parsed_by_lines(lines)
    good_rows = sum(item.ambient_dim for kind, _, item in items if kind is KSRecord)
    assert counter.calls <= len(lines) - good_rows


@settings(max_examples=400, deadline=None)
@given(st.lists(LINES, max_size=14), st.booleans(), st.booleans(), st.sampled_from([1, 2, 3, 4096]))
def test_parse_matches_the_line_by_line_parser(lines, newlines, strict, block):
    if newlines:
        lines = [line + "\n" for line in lines]
    with mock.patch.object(toricdata, "_BLOCK", block):
        assert parsed(lines, strict) == parsed_by_lines(lines, strict)


def test_words_are_integers_exactly_as_the_row_regex_says():
    row = re.compile(r"^\s*-?\d+(\s+-?\d+)*\s*$")
    # every string of up to 5 of these characters, ASCII and not: its word count
    # when it is integers or blank, else -1
    texts = ["".join(chars) for size in range(6) for chars in itertools.product(" -0\t\x1c;x٣\u2003", repeat=size)]
    verdicts = {text: -1 if text.split() and not row.match(text) else len(text.split()) for text in texts}
    for text in texts:
        assert _row_words([text]) == [verdicts[text]], repr(text)
    # rows checked together: each row's verdict, as when taken alone
    for rows in itertools.islice(itertools.product(texts[:60] + texts[-60:], repeat=3), 0, None, 7):
        assert _row_words(list(rows)) == [verdicts[text] for text in rows], rows
    assert _row_words([]) == []


def test_regex_space_and_digit_classes_are_the_str_predicates():
    # what makes the regex-free row check exact, over every code point
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", chars) == [c for c in chars if c.isspace()]
    assert re.findall(r"\d", chars) == [c for c in chars if c.isdecimal()]


def test_huge_dim_reports_the_row_after_its_matrix():
    # ``dim`` past sys.maxsize: the rows are still read one line at a time
    lines = ["99999999999999999999 1 H:2,1\n", "1\n", "\n"]
    assert [(e.line, e.message) for e in parse_ks(lines)] == [
        (1, "expected a row of 1 integers at line 3")
    ]
    assert parsed(lines) == parsed_by_lines(lines)
    assert [e.message for e in parse_ks(lines[:2])] == ["input ended inside the vertex matrix"]


def test_rows_read_up_to_the_end_are_parsed_again():
    # both rows have 2 words, so both are read before "x y" is found bad;
    # the input has ended by then, and both lines are still parsed again
    lines = ["3 2 H:1,1", "x y", "1 2"]
    assert [(e.line, e.message) for e in parse_ks(lines)] == [
        (1, "expected a row of 2 integers at line 2"),
        (2, "unrecognized line: 'x y'"),
        (3, "stray matrix row (no preceding valid header)"),
    ]
    assert parsed(lines) == parsed_by_lines(lines)


def test_rows_parsed_again_can_be_pushed_back_again():
    # lines 2-6 are read as rows of the first header, then parsed again;
    # the header on line 3 pushes line 4 back while lines 5-6 still wait
    lines = ["5 3 H:1,1", "x y z", "1 1 H:1,1", "a b c", "1 2 3", "4 5 6", "1 1 H:2,1", "8"]
    items = parsed(lines)
    assert items == parsed_by_lines(lines)
    assert [line for _, line, _ in items] == [1, 2, 3, 4, 5, 6, 7]
    assert items[-1][:2] == (KSRecord, 7)  # and line 8 is its row


def test_long_matrices_across_row_chunks():
    good = ["100 1 H:1,1", *["-1"] * 100, "2 1 H:2,1", "1", "1"]
    assert parsed(good) == parsed_by_lines(good)
    assert [(type(r), r.line) for r in parse_ks(good)] == [(KSRecord, 1), (KSRecord, 102)]
    # a bad row 70 rows in: the rows after it are parsed again as lines
    bad = ["100 1 H:1,1", *["1"] * 69, "x", *["1"] * 30, "1 1 H:1,1", "7"]
    items = parsed(bad)
    assert items == parsed_by_lines(bad)
    assert items[0][2].message == "expected a row of 1 integers at line 71"
    assert items[-1][:2] == (KSRecord, 102)  # and line 103 is its row


def test_count_zero_has_no_matrix_row():
    for lines in (["1 0 H:1,1", ""], ["1 0 H:1,1", "1"], ["0 0 H:1,1"]):
        assert parsed(lines) == parsed_by_lines(lines)
    assert isinstance(next(parse_ks(["0 0 H:1,1"])), KSRecord)


GOOD = ["2 3 H:2,1 [2]", "1 -2 3", "0 0 0"]
BAD_ROW = ["2 3 H:3,1", "1 2 3", "1 x 3"]
SWALLOWED = ["5 3 H:1,1", "1 2 3", "x 2 3", "1 3 H:2,1", "4 5 6", "1 2"]
RUNS = [
    GOOD * 12,
    BAD_ROW + GOOD * 6,  # a fault on the first record of a run
    GOOD * 6 + BAD_ROW,  # and on the last
    GOOD * 4 + BAD_ROW + GOOD * 3 + ["2 3 H:1,1", "1 2"] + GOOD * 3,
    GOOD * 3 + ["", "  "] + GOOD * 2 + [" \t"] + GOOD,  # blanks inside a run
    ["1 3 H:2,1", "٣ 1 2"] + GOOD * 3 + ["2 3 H:1,1", "1 ٣ -٣", "1 2 3"] + GOOD,
    ["1 3 H:2,1", "1\xa02 3", "2 3 H:1,1", "1 2 3", "-٣ 1 x"] + GOOD * 2,
    ["9 1 H:1,1", *["-7"] * 9, *GOOD],  # a matrix longer than a block
    ["9 1 H:1,1", *["7"] * 6, "x", "7", *GOOD],
    GOOD * 3 + ["2 3 H:0,1", "1 2 3", "1 2 3", "2 3 H:1,1 [5]", "1 2 3", "1 2 3"] + GOOD,
    GOOD * 2 + ["2 3 H:1,1 [" + "9" * 5000 + "]", "1 2 3", "1 2 3"] + GOOD + ["2 3 H:1,1", "1 2 3"],
    # integer rows of the wrong length in several records of one run: a short
    # row, a blank row, a long row and a count-0 record, with the rows after
    # each bad one stray or blank
    GOOD * 2 + ["2 3 H:1,1", "1 2", "1 2 3"] + GOOD + ["3 3 H:1,1", "1 2 3", "", "4 5 6 7"]
    + ["2 3 H:0,1", " ", "1"] + GOOD + ["1 0 H:1,1", "1"] + ["2 3 H:2,1 [9]", "1 2 3 4", "5"] + GOOD,
    (["2 3 H:1,1", "1 2 3", "1 2"] + GOOD) * 5,  # a bad last row in every other record
    # a non-integer row followed, inside its record's claimed matrix, by a header
    # and a short integer row; runs of 1, 2 and 4 records begin at records 0, 1
    # and 3, and end at 0, 2 and 6
    *(GOOD * k + SWALLOWED + GOOD * 2 for k in (0, 1, 2, 3, 6)),
    GOOD * 6 + SWALLOWED,
    GOOD * 2 + SWALLOWED[:3] + SWALLOWED[5:] + SWALLOWED[3:5] + GOOD,
    # lines that are not rows between good records: a non-ASCII comment, and lines with ";"
    GOOD * 3 + ["# Kähler"] + GOOD * 2 + ["# Kähler"] + GOOD,
    GOOD * 3 + ["1 2 ; 3"] + GOOD * 2 + [";"] + GOOD,
    GOOD * 3 + ["2 3 H:1,1", "1 2 3", "٣ 1 2"] + GOOD * 3,  # a row of non-ASCII digits inside a run
]


@pytest.mark.parametrize("block", [1, 2, 3, 4, 7, 4096])
def test_runs_across_blocks_match_the_line_by_line_parser(block, monkeypatch):
    monkeypatch.setattr(toricdata, "_BLOCK", block)
    for lines in RUNS:
        for strict in (False, True):
            for text in (lines, [line + "\n" for line in lines]):
                assert parsed(text, strict) == parsed_by_lines(text, strict), (block, lines)


def test_parse_reads_at_most_one_block_ahead(monkeypatch):
    # the memory bound: a header whose dim claims more rows than follow is not
    # read past its first bad row, and a long matrix is read while its rows are good
    monkeypatch.setattr(toricdata, "_BLOCK", 8)
    sample = read_lines("ks_sample.txt")
    inputs = [
        sample * 5,
        ["99999999 5 H:1,1\n", *sample * 2],
        ["99999999 5 H:1,1\n", *["1 2 3 4 5\n"] * 20, *sample * 2],  # good rows across blocks first
        ["30 5 H:1,1\n", *["1 2 3 4 5\n"] * 30, *sample],
    ]

    def source(lines, read):
        for line in lines:
            read.append(line)
            yield line

    for lines in inputs:
        read = []
        for item in parse_ks(source(lines, read)):
            # the block that holds the last line of this item, and no more: the
            # record's last row, or the bad row that an error names
            bad = re.search(r"at line (\d+)", getattr(item, "message", ""))
            last = int(bad[1]) if bad else item.line + getattr(item, "ambient_dim", 0)
            assert len(read) <= last + 8


def test_filter_examples():
    keep = KSRecord(ambient_dim=4, vertex_count=5, h11=20, h21=19, chi=2)
    drop = KSRecord(ambient_dim=4, vertex_count=5, h11=5, h21=45, chi=-80)
    minus = KSRecord(ambient_dim=4, vertex_count=5, h11=15, h21=16, chi=-2)
    assert list(filter_hodge_difference([keep, drop, minus], 1)) == [keep]
    assert list(filter_hodge_difference([keep, drop, minus], -1)) == [minus]


def test_range_report_on_sample():
    records = [r for r in parse_ks(read_lines("ks_sample.txt")) if isinstance(r, KSRecord)]
    report = h11_range_report(records)
    assert report.clean
    assert report.plus.h11_min == 16 and report.plus.h11_max == 90
    assert report.minus.h11_min == 15 and report.minus.h11_max == 89
    assert report.plus.h11_values == (16, 20, 45, 90)
    assert report.minus.h11_values == (15, 19, 27, 89)


def test_range_report_flags_outliers_and_handles_empty():
    low = KSRecord(ambient_dim=4, vertex_count=5, h11=12, h21=11, chi=2, line=7)
    report = h11_range_report([low])
    assert not report.clean
    assert report.plus.out_of_range == ((7, 12),)
    assert report.minus.out_of_range == ()

    empty = h11_range_report([])
    assert empty.clean
    assert empty.plus.h11_values == ()
    assert empty.plus.h11_min is None and empty.plus.h11_max is None


def test_records_other_differences_ignored_by_ranges():
    quintic = KSRecord(ambient_dim=4, vertex_count=5, h11=1, h21=101, chi=-200)
    report = h11_range_report([quintic])
    assert report.clean
    assert report.plus.h11_values == () and report.minus.h11_values == ()
