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

import re
from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import reduce
from itertools import chain
from operator import mul

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
# polytope: vertices times facets times dimension, the work of
# :func:`verify_reflexive`.  (400,) and (1,)*16, about 4 s each on a
# 2-core VM, are admitted; (1,)*17 and a 20-digit part are refused.
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
    base = tuple([-1] * d)
    vertices = [base]
    for j in range(d):
        v = [-1] * d
        v[j] = d
        vertices.append(tuple(v))
    facets = []
    for j in range(d):
        a = [0] * d
        a[j] = 1
        facets.append(tuple(a))
    facets.append(base)
    return ReflexivePolytope(dim=d, vertices=tuple(vertices), facets=tuple(facets))


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
    produces diagnostics, never an exception.
    """
    diagnostics: list[str] = []
    d = p.dim
    if d < 1:
        diagnostics.append(f"dimension must be positive, got {d}")
    for kind, rows in (("vertex", p.vertices), ("facet normal", p.facets)):
        for row in rows:
            if len(row) != d:
                diagnostics.append(f"{kind} {row} does not have {d} coordinates")
            elif not all(isinstance(x, int) for x in row):
                diagnostics.append(f"{kind} {row} has non-integer coordinates")
    if diagnostics:
        return ReflexivityReport(
            ok=False,
            diagnostics=tuple(diagnostics),
            vertex_count=p.vertex_count,
            facet_count=p.facet_count,
        )
    if len(p.vertices) < d + 1:
        diagnostics.append(f"only {len(p.vertices)} vertices; a {d}-polytope needs {d + 1}")
    if len(p.facets) < d + 1:
        diagnostics.append(f"only {len(p.facets)} facets; a {d}-polytope needs {d + 1}")
    saturations = [0] * len(p.vertices)
    for a in p.facets:
        if all(x == 0 for x in a):
            diagnostics.append("zero facet normal")
            continue
        values = [sum(map(mul, a, v)) for v in p.vertices]
        low = min(values)
        if low < -1:
            diagnostics.append(
                f"facet {a} cuts off a vertex: <a, v> = {low} < -1"
            )
            continue
        if low > -1:
            diagnostics.append(
                f"facet {a} is not at lattice distance 1: min <a, v> = {low}"
            )
            continue
        tight = [i for i, val in enumerate(values) if val == -1]
        if len(tight) < d:
            diagnostics.append(
                f"facet {a} touches only {len(tight)} vertices, need {d}"
            )
        for i in tight:
            saturations[i] += 1
    for i, count in enumerate(saturations):
        if count < d:
            diagnostics.append(
                f"vertex {p.vertices[i]} lies on only {count} facets, need {d}"
            )
    return ReflexivityReport(
        ok=not diagnostics,
        diagnostics=tuple(diagnostics),
        vertex_count=p.vertex_count,
        facet_count=p.facet_count,
    )


# --- Hodge-number list records ------------------------------------------

_HEADER_RE = re.compile(
    r"""^\s*(?P<dim>\d+)\s+(?P<count>\d+)
        (?:\s+M:(?P<m1>\d+)\s+(?P<m2>\d+))?
        (?:\s+N:(?P<n1>\d+)\s+(?P<n2>\d+))?
        \s+H:(?P<h11>\d+),(?P<h21>\d+)
        (?:\s+\[(?P<chi>-?\d+)\])?\s*$""",
    re.VERBOSE,
)

_HEADERISH_RE = re.compile(r"^\s*\d+\s+\d+(\s|$)")

_TOO_LONG = "header number has too many digits"

# A record's matrix rows are checked together, _ROW_CHUNK at a time, so at
# most that many lines are read past a bad row before it is reported.
_ROW_CHUNK = 64
# ASCII digits -> "0" and the other ASCII whitespace (str.isspace) -> " "
_ROW_BYTES = bytes.maketrans(b"123456789\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f", b"0" * 9 + b" " * 9)


def _integers(text: str) -> bool:
    r"""Whether every whitespace-separated word of ``text`` is an integer ``-?\d+``.

    On text with at least one word this is the regex
    ``^\s*-?\d+(\s+-?\d+)*\s*$``: ``re``'s ``\s`` and ``\d`` on ``str``
    patterns are ``str.isspace`` and ``str.isdecimal``, which ``str.split``
    and the checks here use too.  ASCII text mapped through ``_ROW_BYTES``
    is all integers exactly when nothing but spaces and zeros is left once
    each " -0" has become " 0"; any other byte is left in place.
    """
    if text.isascii():
        return not f" {text}".encode().translate(_ROW_BYTES).replace(b" -0", b" 0").strip(b" 0")
    return all(word.removeprefix("-").isdecimal() for word in text.split())


def _is_row(text: str, count: int) -> bool:
    """Whether ``text`` is a matrix row of ``count`` integers (at least one)."""
    return 0 < count == len(text.split()) and _integers(text)


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

    def as_dict(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "vertex_count": self.vertex_count,
            "h11": self.h11,
            "h21": self.h21,
            "chi": self.chi,
            "consistent": self.consistent,
        }


class KSParseError(namedtuple("KSParseError", "line message")):
    """Positioned description of an unusable input line or record."""

    __slots__ = ()


def parse_ks(
    lines: Iterable[str], strict: bool = False
) -> Iterator[KSRecord | KSParseError]:
    """Parse header/matrix records from line-oriented text, streaming.

    Each header ``<dim> <count> [M:a b] [N:c d] H:<h11>,<h21> [chi]`` is
    followed by ``dim`` rows of ``count`` integers, retained verbatim.
    Malformed lines yield :class:`KSParseError` values carrying the line
    number, and parsing resumes on the next line.  A record whose ``chi``
    contradicts ``2*(h11 - h21)`` is an error under ``strict``; otherwise
    it is yielded with its ``consistent`` flag set to ``False``.
    """
    numbered = enumerate(lines, start=1)
    # lines read past a bad matrix row are parsed again: ``source`` yields
    # them from ``replay`` before going on with ``numbered``
    replay = iter(())
    source = numbered
    while True:
        item = next(source, None)
        if item is None:
            return
        lineno, text = item
        text = text.rstrip("\n")
        if not text or text.isspace():
            continue
        match = _HEADER_RE.match(text)
        if match is None:
            if "H:" in text:
                message = f"malformed header: {text.strip()!r}"
            elif _integers(text):
                message = "stray matrix row (no preceding valid header)"
            elif _HEADERISH_RE.match(text):
                message = "missing H:<h11>,<h21> field"
            else:
                message = f"unrecognized line: {text.strip()!r}"
            yield KSParseError(line=lineno, message=message)
            continue
        dim, count, m1, m2, n1, n2, h11, h21, chi = match.groups()
        # int() and str() refuse a number past the interpreter's digit
        # limit (4300 by default): such a header is an error, not the end
        # of the parse
        try:
            dim, count = int(dim), int(count)
        except ValueError:
            yield KSParseError(line=lineno, message=_TOO_LONG)
            continue
        # read the rows a chunk at a time, each chunk up to its first row
        # without ``count`` words, then find the first bad row (``good``)
        matrix: list[str] = []
        good = 0
        ended = False
        while good == len(matrix) < dim and not ended:
            stop = min(dim, good + _ROW_CHUNK)
            for _, row in source:
                row = row.rstrip("\n")
                matrix.append(row)
                if len(row.split()) != count or len(matrix) == stop:
                    break
            else:
                ended = True
            chunk = matrix[good:]
            # the loop stops at a row without ``count`` words, so when the
            # last row has them, every row of the chunk has
            if chunk and 0 < count == len(chunk[-1].split()) and _integers(" ".join(chunk)):
                good = len(matrix)
            else:
                bad = (i for i, row in enumerate(chunk) if not _is_row(row, count))
                good += next(bad, len(chunk))
        if good < len(matrix):
            replay = iter([*enumerate(matrix[good:], lineno + 1 + good), *replay])
            source = chain(replay, numbered)
            message = f"expected a row of {count} integers at line {lineno + 1 + good}"
            yield KSParseError(line=lineno, message=message)
            continue
        if good < dim:
            yield KSParseError(line=lineno, message="input ended inside the vertex matrix")
            continue
        try:
            chi = None if chi is None else int(chi)
            m_points = None if m1 is None else (int(m1), int(m2))
            n_points = None if n1 is None else (int(n1), int(n2))
            h11, h21 = int(h11), int(h21)
            fields = (dim, count, h11, h21, chi, m_points, n_points, tuple(matrix), lineno)
        except ValueError:
            yield KSParseError(line=lineno, message=_TOO_LONG)
            continue
        record = tuple.__new__(KSRecord, fields)  # the fields in order, no keyword matching
        if record.h11 < 1:
            yield KSParseError(line=lineno, message=f"h11 must be >= 1, got {record.h11}")
            continue
        if strict and not record.consistent:
            try:  # 2*(h11 - h21) can pass the digit limit that h11 kept to
                doubled = str(2 * record.hodge_difference)
                message = f"chi = {record.chi} contradicts 2*(h11 - h21) = {doubled}"
            except ValueError:
                message = _TOO_LONG
            yield KSParseError(line=lineno, message=message)
            continue
        yield record


def filter_hodge_difference(
    items: Iterable[KSRecord], target: int
) -> Iterator[KSRecord]:
    """Keep records with ``h11 - h21 == target`` (+1 or -1 in practice)."""
    for record in items:
        if record.hodge_difference == target:
            yield record


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
        RangeSide(
            target=target,
            bounds=bounds,
            h11_values=tuple(sorted(values)),
            out_of_range=tuple(flagged),
        )
        for target, (bounds, values, flagged) in sides.items()
    )
    return RangeReport(plus=plus, minus=minus)
