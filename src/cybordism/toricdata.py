"""Reflexive polytopes for products of projective spaces, and Hodge-number records.

A product of standard reflexive simplices is the moment polytope of the
corresponding product of projective spaces; its anticanonical hypersurface
is the Calabi-Yau whose characteristic numbers the rest of the library
computes.  This module builds those polytopes with explicit facet data
and verifies reflexivity exactly.

It also parses line-oriented reflexive-polytope list records in the style
of the Kreuzer-Skarke database headers, keeping only the Hodge-number
payload: ``h11``, ``h21`` and the Euler characteristic ``chi``, which for
a Calabi-Yau threefold must satisfy ``chi = 2*(h11 - h21)``.
"""

from __future__ import annotations

import marshal
import os
import re
import sys
from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import lru_cache, partial, reduce
from itertools import chain, islice, repeat
from operator import add, eq, mul
from stat import S_ISREG

# The ks commands use none of ``partitions``, so only partition_polytope
# imports it; here it is imported for type checkers alone.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .partitions import Partition

# Observed second Betti numbers of toric-hypersurface Calabi-Yau
# threefolds with h11 - h21 = +1 and -1 respectively.
H11_RANGE_PLUS = (16, 90)
H11_RANGE_MINUS = (15, 89)
# Largest accepted ``prod(d_i + 1) * sum(d_i + 1) * n`` for a product
# polytope: vertices times facets times dimension.  (400,) and (1,)*16 are
# admitted, and take 0.18 s and 0.6 s as commands (medians of five runs on a
# 2-core VM); (1,)*17 and a 20-digit part are refused.
POLYTOPE_COST_BUDGET = 2**26


class ReflexivePolytope(namedtuple("ReflexivePolytope", "dim vertices facets")):
    """Lattice polytope with facet inequalities ``<a, x> >= -1``.

    ``vertices`` are integer lattice points; ``facets`` are the integer
    inward normals ``a``, one per facet, each at lattice distance 1 from
    the origin.  Construction does not validate; :func:`verify_reflexive`
    does.
    """

    __slots__ = ()

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def facet_count(self) -> int:
        return len(self.facets)


def standard_simplex(d: int) -> ReflexivePolytope:
    """The standard reflexive d-simplex ``{x : x_i >= -1, sum x_i <= 1}``.

    Vertices are ``(-1, ..., -1)`` and, for each axis j, the point with
    ``d`` in coordinate j and ``-1`` elsewhere; the d+1 facet normals are
    the coordinate vectors and ``(-1, ..., -1)``.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    base = (-1,) * d
    vertices = (base, *(base[:j] + (d,) + base[j + 1 :] for j in range(d)))
    facets = (*((0,) * j + (1,) + (0,) * (d - 1 - j) for j in range(d)), base)
    return ReflexivePolytope(dim=d, vertices=vertices, facets=facets)


def product(p: ReflexivePolytope, q: ReflexivePolytope) -> ReflexivePolytope:
    """Cartesian product, with vertices paired and facets zero-padded."""
    zeros_q = (0,) * q.dim
    zeros_p = (0,) * p.dim
    vertices = tuple(vp + vq for vp in p.vertices for vq in q.vertices)
    facets = tuple(a + zeros_q for a in p.facets) + tuple(zeros_p + b for b in q.facets)
    return ReflexivePolytope(dim=p.dim + q.dim, vertices=vertices, facets=facets)


def partition_polytope(sigma: Partition | Iterable[int]) -> ReflexivePolytope:
    """Product of standard simplices with the dimensions of sigma's parts.

    Raises ``ValueError`` before building anything when
    ``prod(d_i + 1) * sum(d_i + 1) * n`` exceeds :data:`POLYTOPE_COST_BUDGET`.
    """
    from .partitions import Partition, check_budget

    sigma = Partition(sigma)
    sizes = (*(d + 1 for d in sigma), sigma.n + sigma.k, sigma.n)
    cost = "prod(d_i + 1) * sum(d_i + 1) * n"
    check_budget(sigma, cost, "polytope cost", POLYTOPE_COST_BUDGET, sizes)
    return reduce(product, (standard_simplex(d) for d in sigma))


def polar_dual(p: ReflexivePolytope) -> ReflexivePolytope:
    """Polar dual: facet normals become vertices and vice versa.

    Exact for reflexive polytopes, where polarity swaps the two data sets.
    """
    return ReflexivePolytope(dim=p.dim, vertices=p.facets, facets=p.vertices)


class ReflexivityReport(namedtuple("ReflexivityReport", "ok diagnostics vertex_count facet_count")):
    """Verdict of :func:`verify_reflexive` with per-check diagnostics."""

    __slots__ = ()


def verify_reflexive(p: ReflexivePolytope) -> ReflexivityReport:
    """Check that the vertex/facet data describes a reflexive polytope.

    Verifies that the data is integral and well-shaped, that every facet
    inequality ``<a, x> >= -1`` is valid on all vertices and tight on at
    least ``dim`` of them (lattice distance exactly 1, so the polar dual
    is automatically a lattice polytope), and that every vertex lies on
    at least ``dim`` facets.  The origin is strictly interior whenever
    the inequalities hold, since ``<a, 0> = 0 > -1``.  Inconsistent data
    produces diagnostics, never an exception.  Each facet is evaluated on
    all vertices at once, one coordinate column per nonzero entry of ``a``.
    """
    d, vertices = p.dim, p.vertices
    diagnostics = [] if d >= 1 else [f"dimension must be positive, got {d}"]
    for kind, rows in (("vertex", vertices), ("facet normal", p.facets)):
        if {*map(len, rows)} <= {d} and all(map(isinstance, chain.from_iterable(rows), repeat(int))):
            continue  # all well-shaped, checked at once
        for row in rows:
            if len(row) != d:
                diagnostics.append(f"{kind} {row} does not have {d} coordinates")
            elif not all(map(isinstance, row, repeat(int))):
                diagnostics.append(f"{kind} {row} has non-integer coordinates")
    if not diagnostics:
        for kind, count in (("vertices", len(vertices)), ("facets", len(p.facets))):
            if count < d + 1:
                diagnostics.append(f"only {count} {kind}; a {d}-polytope needs {d + 1}")
        columns = [*zip(*vertices)] or [()] * d
        saturations = [0] * len(vertices)
        for a in p.facets:
            terms = [map(mul, column, repeat(x)) for column, x in zip(columns, a) if x]
            if not terms:
                diagnostics.append("zero facet normal")
                continue
            values = [*reduce(partial(map, add), terms)]  # <a, v> for every vertex v
            low = min(values, default=-1)  # with no vertices, no vertex is tight
            if low < -1:
                diagnostics.append(f"facet {a} cuts off a vertex: <a, v> = {low} < -1")
            elif low > -1:
                diagnostics.append(f"facet {a} is not at lattice distance 1: min <a, v> = {low}")
            else:
                if (tight := values.count(-1)) < d:
                    diagnostics.append(f"facet {a} touches only {tight} vertices, need {d}")
                saturations = [*map(add, saturations, map(eq, values, repeat(-1)))]
        for vertex, count in zip(vertices, saturations):
            if count < d:
                diagnostics.append(f"vertex {vertex} lies on only {count} facets, need {d}")
    return ReflexivityReport(not diagnostics, tuple(diagnostics), p.vertex_count, p.facet_count)


# --- Hodge-number list records ------------------------------------------

_HEADER_RE = re.compile(  # possessive: no two neighbouring classes overlap, so nothing is given back
    r"""^\s*+(?P<dim>\d++)\s++(?P<count>\d++)
        (?:\s++M:(?P<m1>\d++)\s++(?P<m2>\d++))?
        (?:\s++N:(?P<n1>\d++)\s++(?P<n2>\d++))?
        \s++H:(?P<h11>\d++),(?P<h21>\d++)
        (?:\s++\[(?P<chi>-?\d++)\])?\s*+$""",
    re.VERBOSE,
)
_HEADERISH_RE = re.compile(r"^\s*\d+\s+\d+(\s|$)")

_TOO_LONG = "header number has too many digits"
_STRAY = "stray matrix row (no preceding valid header)"
_BAD_ROW = "expected a row of {} integers at line {}"
_ENDED = "input ended inside the vertex matrix"
# the most digits a header number or a strict chi message's 2*(h11 - h21) has, whatever the process limit
_MAX_DIGITS = sys.int_info.default_max_str_digits

# Lines are read _BLOCK at a time, so a bad matrix row is reported at most
# that many lines after it is read.
_BLOCK = 1024
# A regular file of at least this many bytes is parsed in two processes (parse_ks_file_runs).
# In-process, ``ks filter`` then jsonl ``ks parse`` of a perfbench/ksgen.py file took, split
# over serial, 2.48x at 35 KB, 1.12x at 141 KB, 1.05x at 352 KB, 0.85x at 707 KB and 0.73x at
# 1.06 MB (medians of 21 alternating runs, 2-core VM, Python 3.11).
_SPLIT_FLOOR = 2**20
# Latin-1 code points: "-", "\n" and "?" kept, other whitespace (str.isspace) -> "1",
# digits (str.isdecimal, ASCII alone here) -> "0", the rest -> "!"
_ROW_BYTES = bytes(
    b if chr(b) in "-\n?" else 48 if chr(b).isdecimal() else 49 if chr(b).isspace() else 33 for b in range(256)
)


def _row_words(rows: list[str]) -> list[int]:
    r"""Each row's number of words, or -1 for a row with a word that is not ``-?\d+``.

    A row is integers exactly when the regex ``^\s*-?\d+(\s+-?\d+)*\s*$``
    matches it or it is blank: ``re``'s ``\s`` and ``\d`` on ``str`` patterns
    are ``str.isspace`` and ``str.isdecimal``, which ``str.split`` and the
    checks here use too.  The rows, each between spaces and joined by line
    breaks, are encoded as Latin-1 with "?" for the rest, mapped through
    ``_ROW_BYTES``, and each "1-0" is made "100": then a row is integers when
    it is all digits, and has one "01" per word.  When a "?" is left, each
    row that is not ASCII is checked again on its own; all rows are when
    one holds a line break.
    """
    text = " " + " \n ".join(rows) + " "
    mapped = text.encode("latin-1", "replace").translate(_ROW_BYTES).replace(b"1-0", b"100")
    if len(parts := mapped.split(b"\n")) != len(rows):  # a row with a line break, or no rows
        return [*map(_words, rows)]
    counts = [part.count(b"01") if part.isdigit() else -1 for part in parts]
    if b"?" in mapped:
        counts = [_words(row) if n < 0 and not row.isascii() else n for n, row in zip(counts, rows)]
    return counts


def _words(row: str) -> int:
    """``_row_words([row])``, word by word."""
    words = row.split()
    return len(words) if all(x.removeprefix("-").isdecimal() for x in words) else -1


def _good_rows(words: list[int], count: int) -> int:
    """How many rows, by their ``_row_words``, come before the first not ``count`` integers."""
    count = count or None  # a row of 0 integers is blank, never good
    return len(words) if words == [count] * len(words) else [*map(eq, words, repeat(count))].index(False)


def _number(word: str) -> int:
    """``int(word)`` for at most ``_MAX_DIGITS`` digits, not counting a sign.  A longer word is
    refused whatever the process limit is: once lifted, int() would take it, in time quadratic
    in its length."""
    if len(word) - word.startswith("-") > _MAX_DIGITS:
        raise ValueError(_TOO_LONG)
    return int(word)


class KSRecord(
    namedtuple(
        "KSRecord",
        "ambient_dim vertex_count h11 h21 chi m_points n_points matrix line",
        defaults=(None, None, None, (), 0),
    )
):
    """One reflexive-polytope list record reduced to its Hodge data.

    ``chi`` and the ``(a, b)`` pairs ``m_points`` and ``n_points`` are
    ``None`` when the header omits them.  ``matrix`` retains the vertex
    block verbatim (one string per row); its geometric content is opaque
    here.  ``line`` is the 1-based header line number in the source and
    never participates in equality or hashing between records.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return self[:-1] == other[:-1] if isinstance(other, KSRecord) else NotImplemented

    __ne__ = object.__ne__  # the negated __eq__; tuple's own __ne__ would compare ``line``

    def __hash__(self) -> int:
        return hash(self[:-1])

    @property
    def hodge_difference(self) -> int:
        return self.h11 - self.h21

    @property
    def consistent(self) -> bool:
        """Whether ``chi`` (when present) equals ``2 * (h11 - h21)``."""
        return self.chi is None or self.chi == 2 * (self.h11 - self.h21)


class KSParseError(namedtuple("KSParseError", "line message")):
    """Positioned description of an unusable input line or record."""

    __slots__ = ()


def _read(lines: Iterator[str]) -> list[str]:
    """The next ``_BLOCK`` lines, each without its trailing line breaks."""
    return [*map(str.rstrip, islice(lines, _BLOCK), repeat("\n"))]


def _unparsed(line: int, text: str, verdict: int) -> KSParseError:
    """The error of a line that is neither blank nor a header, by its ``_row_words`` verdict."""
    return KSParseError(
        line,
        f"malformed header: {text.strip()!r}" if "H:" in text
        else _STRAY if verdict > 0
        else "missing H:<h11>,<h21> field" if _HEADERISH_RE.match(text)
        else f"unrecognized line: {text.strip()!r}",
    )


def parse_ks(lines: Iterable[str], strict: bool = False) -> Iterator[KSRecord | KSParseError]:
    """Parse header/matrix records from line-oriented text, streaming.

    Each header ``<dim> <count> [M:a b] [N:c d] H:<h11>,<h21> [chi]`` is
    followed by ``dim`` rows of ``count`` integers, retained verbatim.
    Malformed lines yield :class:`KSParseError` values carrying the line
    number, and parsing resumes on the next line.  A record whose ``chi``
    contradicts ``2*(h11 - h21)`` is an error under ``strict``; otherwise
    it is yielded with its ``consistent`` flag set to ``False``.

    A header number, or the ``2*(h11 - h21)`` of a strict chi message, of
    more than 4300 digits (int()'s default limit) is an error even when the
    process lifts the limit; a lowered limit also refuses what int() or
    str() refuse under it.
    """
    return chain.from_iterable(parse_ks_runs(lines, strict))


def parse_ks_runs(
    lines: Iterable[str], strict: bool = False, start: int = 0
) -> Iterator[list[KSRecord | KSParseError]]:
    """:func:`parse_ks`'s items in the runs it chains: each run is a list, maybe empty, of the items
    of at most ``_BLOCK`` lines, or of the lines up to the end of a matrix read past them, in line
    order.  Each run comes from one walk over its lines.  The first line is numbered ``start + 1``."""
    lines = iter(lines)
    base = start  # buf[i] is line base + i + 1
    number = lru_cache(1024)(_number)  # header numbers repeat, and a lookup is cheaper than int()
    header = _HEADER_RE.match
    while buf := _read(lines):
        words, run, i, end = _row_words(buf), [], 0, len(buf)  # each line's row check
        while i < end:
            line, text, verdict = base + i + 1, buf[i], words[i]
            i += 1
            if not verdict:  # a blank line
                continue
            if not (match := header(text)):
                run.append(_unparsed(line, text, verdict))
                continue
            dim, count, m1, m2, n1, n2, h11, h21, chi = match.groups()
            try:
                dim, count = number(dim), number(count)
            except ValueError:
                run.append(KSParseError(line, _TOO_LONG))
                continue
            if (good := _good_rows(words[i : i + dim], count)) == end - i < dim:
                # good up to the end of buf: read on a block at a time while the rows
                # stay good, buf kept from the header on and only new lines checked
                yield run
                del buf[: i - 1], words[: i - 1]
                run, base, i = [], base + i - 1, 1
                while good == len(buf) - 1 < dim and (more := _read(lines)):
                    buf += more
                    words += (found := _row_words(more))
                    good += _good_rows(found[: dim - good], count)
                end = len(buf)
            if good < dim:  # parsing resumes at the bad row
                message = _ENDED if i + good == end else _BAD_ROW.format(count, line + 1 + good)
                run.append(KSParseError(line, message))
                i += good
                continue
            matrix = buf[i : i + dim]
            i += dim
            try:  # int() and str() also refuse what passes a process limit below _MAX_DIGITS
                h11, h21 = number(h11), number(h21)
                chi = None if chi is None else number(chi)
                m_points = None if m1 is None else (number(m1), number(m2))
                n_points = None if n1 is None else (number(n1), number(n2))
                if h11 < 1:
                    run.append(KSParseError(line, f"h11 must be >= 1, got {h11}"))
                elif strict and chi is not None and chi != (twice := 2 * (h11 - h21)):
                    too_long = abs(twice) >= 10**_MAX_DIGITS
                    message = _TOO_LONG if too_long else f"chi = {chi} contradicts 2*(h11 - h21) = {twice}"
                    run.append(KSParseError(line, message))
                else:
                    fields = (dim, count, h11, h21, chi, m_points, n_points, tuple(matrix), line)
                    run.append(tuple.__new__(KSRecord, fields))  # no keyword matching
            except ValueError:
                run.append(KSParseError(line, _TOO_LONG))
        yield run
        base += end


def parse_ks_file_runs(path: str, strict: bool = False) -> Iterator[list[KSRecord | KSParseError]]:
    """:func:`parse_ks_runs` over the UTF-8 file at ``path``, on two cores when the file is large.

    A regular file of at least ``_SPLIT_FLOOR`` bytes is split at a header line past its middle
    byte: a forked child parses from there while this process walks the file up to it.  The items
    are the serial walk's, in its order, but a record from the second half holds only what the
    ``ks`` commands print: its ``m_points``, ``n_points`` and ``matrix`` are left at their
    defaults.  The runs may be cut elsewhere.  Input that is not UTF-8 raises where the serial
    walk would, after the same items.
    """
    with open(path, encoding="utf-8") as handle:
        split = _split_point(handle, path)
        yield from parse_ks_runs(handle, strict) if split is None else _halves(handle, path, strict, *split)


def _split_point(handle, path: str) -> tuple[int, int] | None:
    """Where the file open as ``handle`` is split: the byte offset of the split line and the number
    of lines before it.  None when the file is parsed serially: it is not a regular file of
    ``_SPLIT_FLOOR`` bytes, the platform has no ``os.fork``, this process has another thread, no
    header follows the middle byte, or a carriage return, which text mode reads as a line break,
    comes before the split line ends.  The serial walk always starts a record at a header, as a
    header is never a row of integers."""
    import _thread

    info = os.fstat(handle.fileno())
    if not (S_ISREG(info.st_mode) and info.st_size >= _SPLIT_FLOOR and hasattr(os, "fork")) or _thread._count():
        return None
    with open(path, "rb") as raw:
        raw.seek(info.st_size // 2)
        offset = raw.tell() + len(raw.readline())  # past the line that holds the middle byte
        for line in raw:
            # a line that is not UTF-8 gets U+FFFD, which no header holds
            if _HEADER_RE.match(line.decode("utf-8", "replace").removesuffix("\n")):
                break
            offset += len(line)
        else:
            return None
        if b"\r" in line:
            return None
        raw.seek(0)
        head = 0
        for _ in range(0, offset, 2**20):  # the bytes before the split line, a MiB at a time
            chunk = raw.read(min(2**20, offset - raw.tell()))
            if b"\r" in chunk:
                return None
            head += chunk.count(b"\n")
        return (offset, head) if raw.tell() == offset else None  # None if the file shrank


def _halves(handle, path: str, strict: bool, offset: int, head: int) -> Iterator[list]:
    """The runs of the file split at byte ``offset``, line ``head + 1``.

    This process makes the serial walk while a child parses from the split line.  At the first
    run past line ``head``, which holds the split line's item, it reaps the child: when the child
    is done, that run's items up to line ``head`` and then the child's runs replace the rest of
    the walk.  When the child fails, or no temporary file or process can be had, the walk goes on.
    """
    from tempfile import TemporaryFile

    pid = shipped = None
    try:
        shipped = TemporaryFile()
        pid = os.fork()
    except OSError:  # no temporary file or no new process to be had: the walk stays serial
        pass
    if pid == 0:  # the child ships its half and leaves, with status 0 when all went well
        status = 1
        try:
            _ship(path, strict, offset, head, shipped)
            status = 0
        finally:
            os._exit(status)
    try:
        for run in parse_ks_runs(handle, strict):
            if pid and run and run[-1].line > head:
                status, pid = os.waitpid(pid, 0)[1], None
                if not status:
                    yield [item for item in run if item.line <= head]
                    yield from _shipped(shipped)
                    return
            yield run
    finally:
        if pid:  # left early: the child's runs are not wanted
            from signal import SIGKILL

            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
        if shipped is not None:
            shipped.close()


def _ship(path: str, strict: bool, offset: int, head: int, out) -> None:
    """In the child: parse the file from byte ``offset``, line ``head + 1``, and write each run to
    ``out`` as a length-prefixed ``marshal`` blob of what the ``ks`` commands print: a record as
    ``(ambient_dim, vertex_count, h11, h21, chi, line)``, an error as ``(line, message)``."""
    with open(path, encoding="utf-8") as handle:
        handle.seek(offset)
        for run in parse_ks_runs(handle, strict, head):
            blob = marshal.dumps([(r[0], r[1], r[2], r[3], r[4], r[8]) if len(r) == 9 else (*r,) for r in run])
            out.write(len(blob).to_bytes(8, "little") + blob)
    out.flush()


def _shipped(out) -> Iterator[list[KSRecord | KSParseError]]:
    """The child's runs back from ``out``, each shipped record as a :class:`KSRecord`."""
    new, record, error = tuple.__new__, KSRecord, KSParseError
    out.seek(0)
    while size := out.read(8):
        items = marshal.loads(out.read(int.from_bytes(size, "little")))
        yield [
            new(record, (i[0], i[1], i[2], i[3], i[4], None, None, (), i[5])) if len(i) == 6 else new(error, i)
            for i in items
        ]


def filter_hodge_difference(items: Iterable[KSRecord], target: int) -> Iterator[KSRecord]:
    """Keep records with ``h11 - h21 == target`` (+1 or -1 in practice)."""
    return (record for record in items if record.hodge_difference == target)


class RangeSide(namedtuple("RangeSide", "target bounds h11_values out_of_range")):
    """Achieved ``h11`` values among records with one fixed Hodge difference.

    ``h11_values`` are sorted and distinct; ``out_of_range`` holds the
    ``(line, h11)`` pairs of the records outside ``bounds``.
    """

    __slots__ = ()

    @property
    def h11_min(self) -> int | None:
        return min(self.h11_values) if self.h11_values else None

    @property
    def h11_max(self) -> int | None:
        return max(self.h11_values) if self.h11_values else None


class RangeReport(namedtuple("RangeReport", "plus minus")):
    """Per-sign summary of achieved ``h11`` values against the known ranges."""

    __slots__ = ()

    @property
    def clean(self) -> bool:
        return not self.plus.out_of_range and not self.minus.out_of_range


def h11_range_report(items: Iterable[KSRecord]) -> RangeReport:
    """Summarise ``h11`` for records with Hodge difference +1 and -1.

    A record is flagged when its ``h11`` falls outside the observed range
    for its sign; records with other Hodge differences are ignored.  The
    records are read once, as they come.
    """
    sides = {1: (H11_RANGE_PLUS, set(), []), -1: (H11_RANGE_MINUS, set(), [])}
    for record in items:
        side = sides.get(record.hodge_difference)
        if side is not None:
            bounds, values, flagged = side
            values.add(record.h11)
            if not bounds[0] <= record.h11 <= bounds[1]:
                flagged.append((record.line, record.h11))
    plus, minus = (
        RangeSide(target, bounds, tuple(sorted(values)), tuple(flagged))
        for target, (bounds, values, flagged) in sides.items()
    )
    return RangeReport(plus=plus, minus=minus)
