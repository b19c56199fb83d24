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

from .partitions import Partition, check_budget

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
        values = [sum(ai * vi for ai, vi in zip(a, v)) for v in p.vertices]
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

_MATRIX_ROW_RE = re.compile(r"^\s*-?\d+(\s+-?\d+)*\s*$")

_TOO_LONG = "header number has too many digits"


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

    def header_text(self) -> str:
        bits = [f"{self.ambient_dim} {self.vertex_count}"]
        if self.m_points is not None:
            bits.append(f"M:{self.m_points[0]} {self.m_points[1]}")
        if self.n_points is not None:
            bits.append(f"N:{self.n_points[0]} {self.n_points[1]}")
        bits.append(f"H:{self.h11},{self.h21}")
        if self.chi is not None:
            bits.append(f"[{self.chi}]")
        return " ".join(bits)

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


def format_ks(record: KSRecord) -> str:
    """Serialise a record back to header-plus-matrix text."""
    return "\n".join((record.header_text(), *record.matrix))


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
    numbered = iter(enumerate(lines, start=1))
    pushed: tuple[int, str] | None = None
    while True:
        if pushed is not None:
            lineno, raw = pushed
            pushed = None
        else:
            try:
                lineno, raw = next(numbered)
            except StopIteration:
                return
        text = raw.rstrip("\n")
        if not text.strip():
            continue
        match = _HEADER_RE.match(text)
        if match is None:
            if "H:" in text:
                message = f"malformed header: {text.strip()!r}"
            elif _MATRIX_ROW_RE.match(text):
                message = "stray matrix row (no preceding valid header)"
            elif _HEADERISH_RE.match(text):
                message = "missing H:<h11>,<h21> field"
            else:
                message = f"unrecognized line: {text.strip()!r}"
            yield KSParseError(line=lineno, message=message)
            continue
        # int() and str() refuse a number past the interpreter's digit
        # limit (4300 by default): such a header is an error, not the end
        # of the parse
        try:
            ambient_dim, vertex_count = int(match["dim"]), int(match["count"])
        except ValueError:
            yield KSParseError(line=lineno, message=_TOO_LONG)
            continue
        matrix: list[str] = []
        bad_row: str | None = None
        while len(matrix) < ambient_dim:
            try:
                row_lineno, row_raw = next(numbered)
            except StopIteration:
                bad_row = "input ended inside the vertex matrix"
                break
            row = row_raw.rstrip("\n")
            if _MATRIX_ROW_RE.match(row) and len(row.split()) == vertex_count:
                matrix.append(row)
            else:
                bad_row = f"expected a row of {vertex_count} integers at line {row_lineno}"
                pushed = (row_lineno, row_raw)
                break
        if bad_row is not None:
            yield KSParseError(line=lineno, message=bad_row)
            continue
        try:
            record = KSRecord(
                ambient_dim=ambient_dim,
                vertex_count=vertex_count,
                h11=int(match["h11"]),
                h21=int(match["h21"]),
                chi=int(match["chi"]) if match["chi"] is not None else None,
                m_points=(int(match["m1"]), int(match["m2"])) if match["m1"] else None,
                n_points=(int(match["n1"]), int(match["n2"])) if match["n1"] else None,
                matrix=tuple(matrix),
                line=lineno,
            )
        except ValueError:
            yield KSParseError(line=lineno, message=_TOO_LONG)
            continue
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
    for its sign; records with other Hodge differences are ignored.
    """
    sides = {}
    records = list(items)
    for target, bounds in ((1, H11_RANGE_PLUS), (-1, H11_RANGE_MINUS)):
        values = []
        flagged = []
        for record in records:
            if record.hodge_difference != target:
                continue
            values.append(record.h11)
            if not bounds[0] <= record.h11 <= bounds[1]:
                flagged.append((record.line, record.h11))
        sides[target] = RangeSide(
            target=target,
            bounds=bounds,
            h11_values=tuple(sorted(set(values))),
            out_of_range=tuple(flagged),
        )
    return RangeReport(plus=sides[1], minus=sides[-1])
