"""Slow, independent routes that the fast library paths are checked against.

The library finds its minima over the capped partitions of n (every part
at most n - 2) with per-prime dynamic programs.  The oracles here walk
every capped partition explicitly instead, with their own enumeration
and arithmetic, so agreement checks the dynamic programs against an
exhaustive scan; the knapsack over every part size is here too.  The
ring routes here are the slow ones the library replaced: the power-sum
classes from Newton's identities on the total Chern class, the dense
hypersurface Chern classes and the pairing that closed them, the same
classes from the inverse series of ``1 + c_1``, a product that
multiplies every term pair and leaves truncation to the constructor,
and the hypersurface s-number and Chern numbers from full products read
at the top monomial.  Orbit-basis elements of the library's ring are
expanded to dense ones to compare them.  The Todd polynomial, in exact
fractions, checks the Chern numbers with no ring arithmetic at all.  The
recursive reverse-lexicographic partition generator the library replaced with an
iterative one is here too, as are ``g(n)`` read off the prime-power shape
of ``n`` and one prime's exponent in a weighted multinomial, because only
the tests use them.  So is the certificate route the library replaced:
the capped partitions materialised and sorted into scan order, one
exponent vector per partition, and the pair search over tightness masks
built bit by bit from those vectors.  So is the line-by-line KS
record parser, which checks each matrix row with its own regex, reads
headers with its own copy of the backtracking header patterns and builds
each record by keyword, and the reflexivity check that evaluates each facet
on one vertex at a time, and the KS record writer and a certificate's
partition-to-coefficient map, which only the tests call.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from cybordism.cohomology import (
    ProjectiveProduct,
    TruncatedPolynomial,
    chern_total,
    fundamental_pairing,
    power_sum_direct,
)
from cybordism.generators import GeneratorCertificate, extended_gcd
from cybordism.numthy import (
    Case,
    CaseTag,
    factorial_valuation,
    is_prime,
    prime_power,
    primes_upto,
    su_generator_s_number,
    valuation,
)
from cybordism.partitions import (
    DivisibilityEntry,
    DivisibilityReport,
    Partition,
    _weighted_part_valuations,
    digit_partition,
    multinomial,
    split_prime_power,
    split_prime_power_successor,
    weighted_multinomial,
)
from cybordism.toricdata import (
    _TOO_LONG,
    KSParseError,
    KSRecord,
    ReflexivePolytope,
    ReflexivityReport,
)


def partitions_by_recursion(remaining: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ``remaining`` with parts at most ``max_part``, reverse-lexicographically.

    Each partition is its first part followed by a partition of the rest
    with parts no larger, built by tuple concatenation.
    """
    if remaining == 0:
        yield ()
        return
    for first in range(min(remaining, max_part), 0, -1):
        for rest in partitions_by_recursion(remaining - first, first):
            yield (first,) + rest


def capped_partitions(n: int) -> Iterator[list[int]]:
    """Every partition of ``n`` with parts at most ``n - 2``, as ascending part lists.

    Iterative ascending-composition walk: the buffer holds the parts
    fixed so far; each step bumps the second-to-last part and spreads
    the remainder.  Yielded lists are fresh copies.
    """
    parts = [0] * (n + 1)
    k = 1
    rest = n - 1
    while k:
        low = parts[k - 1] + 1
        k -= 1
        # fill with copies of ``low`` while two more still fit
        while 2 * low <= rest:
            parts[k] = low
            rest -= low
            k += 1
        top = k + 1
        while low <= rest:
            parts[k] = low
            parts[top] = rest
            if rest <= n - 2:
                yield parts[: k + 2]
            low += 1
            rest -= 1
        parts[k] = low + rest
        rest = low + rest - 1
        if parts[k] <= n - 2:
            yield parts[: k + 1]


def capped_minima_over_all_sizes(cost: list[int]) -> list[int | None]:
    """What ``partitions._capped_minima`` returns, with every part size in each min-plus step.

    ``best[s]`` takes the least ``cost[m] + best[s - m]`` over all
    ``m = 1..s``, and entry ``n`` the least of ``n * cost[1]`` and
    ``cost[m] + best[n - m]`` over ``m = 2..n-2``: O(len(cost)**2).
    """
    best = [0]
    for s in range(1, len(cost)):
        best.append(min(map(operator.add, cost[1 : s + 1], reversed(best))))
    return [None, None, None] + [
        min([n * cost[1], *map(operator.add, cost[2 : n - 1], reversed(best[2 : n - 1]))])
        for n in range(3, len(cost) + 2)
    ]


def weighted_multinomial_value(parts: list[int]) -> int:
    """``n! / prod(m!) * prod((m + 1)**m)`` straight from the factorials."""
    value = math.factorial(sum(parts))
    for m in parts:
        value = value // math.factorial(m) * (m + 1) ** m
    return value


def weighted_multinomial_valuation(p: int, sigma: Iterable[int]) -> int:
    """Exponent of the prime ``p`` in ``weighted_multinomial(sigma)``, from per-part terms."""
    sigma = tuple(sigma)
    if not is_prime(p):
        raise ValueError(f"valuation base must be prime, got {p}")
    table = _weighted_part_valuations(p, max(sigma))
    return factorial_valuation(p, sum(sigma)) + sum(table[part] for part in sigma)


def gcd_fold(n: int) -> int:
    """Gcd of the weighted multinomials of every capped partition of ``n``."""
    acc = 0
    for parts in capped_partitions(n):
        acc = math.gcd(acc, weighted_multinomial_value(parts))
    return acc


def scan_min(n: int, p: int) -> int:
    """Least ``v_p`` of the multinomial over every capped partition of ``n``."""
    top = factorial_valuation(p, n)
    part_val = [factorial_valuation(p, m) for m in range(n + 1)]
    return min(top - sum(map(part_val.__getitem__, parts)) for parts in capped_partitions(n))


def first_exact_pair(
    vectors: list[tuple[int, ...]], target_vec: tuple[int, ...]
) -> tuple[int, int] | None:
    """Least ``(i, j)`` with ``i < j`` whose vectors between them meet the target at every prime."""
    for i, first in enumerate(vectors):
        for j in range(i + 1, len(vectors)):
            if all(t in (a, b) for a, b, t in zip(first, vectors[j], target_vec)):
                return i, j
    return None


def scan_order(n: int) -> list[tuple[int, ...]]:
    """The capped partitions of ``n`` as decreasing tuples, sorted into scan order.

    Fewest parts first, then lexicographic on the increasing part tuples.
    """
    return sorted(partitions_by_recursion(n, n - 2), key=lambda s: (len(s), s[::-1]))


def first_exact_pair_by_first_indices(
    vectors: list[tuple[int, ...]], target_vec: tuple[int, ...]
) -> tuple[int, int] | None:
    """What :func:`first_exact_pair` returns, trying only each tightness mask's first index."""
    nprimes = len(target_vec)
    full = (1 << nprimes) - 1
    masks = []
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for idx, vec in enumerate(vectors):
        mask = 0
        for bit in range(nprimes):
            if vec[bit] == target_vec[bit]:
                mask |= 1 << bit
        masks.append(mask)
        first.setdefault(mask, idx)
        last[mask] = idx
    for mask_i, i in first.items():
        needed = full & ~mask_i
        if any(mask & needed == needed and j > i for mask, j in last.items()):
            return i, next(j for j in range(i + 1, len(masks)) if masks[j] & needed == needed)
    return None


def certificate_by_sorted_scan(n: int) -> GeneratorCertificate:
    """What ``generators.certificate(n)`` returns, from the materialised, sorted scan order.

    Each partition gets its vector of prime exponents; one equal to the
    target's is a single entry, else the first pair meeting the target
    at every prime gives two, else a running extended gcd along the
    order takes each value that strictly reduces it.
    """
    target = su_generator_s_number(n)
    order = scan_order(n)
    primes = primes_upto(n)
    target_vec = tuple(valuation(p, target) for p in primes)
    base = tuple(factorial_valuation(p, n) for p in primes)
    part_rows = list(zip(*(_weighted_part_valuations(p, n - 2) for p in primes)))
    vectors = [
        tuple(map(sum, zip(base, *map(part_rows.__getitem__, parts)))) for parts in order
    ]
    for parts, vec in zip(order, vectors):
        if vec == target_vec:
            return GeneratorCertificate(n=n, entries=((Partition(parts), -1),), achieved=target)
    pair = first_exact_pair_by_first_indices(vectors, target_vec)
    if pair is not None:
        sigma, tau = Partition(order[pair[0]]), Partition(order[pair[1]])
        d, x, y = extended_gcd(weighted_multinomial(sigma), weighted_multinomial(tau))
        assert d == target
        return GeneratorCertificate(n=n, entries=((sigma, -x), (tau, -y)), achieved=target)
    coeffs: dict[int, int] = {0: 1}
    running = weighted_multinomial(Partition(order[0]))
    for idx in range(1, len(order)):
        if running == target:
            break
        d, x, y = extended_gcd(running, weighted_multinomial(Partition(order[idx])))
        if d == running:
            continue
        coeffs = {i: c * x for i, c in coeffs.items() if c * x != 0}
        if y != 0:
            coeffs[idx] = y
        running = d
    assert running == target
    entries = tuple((Partition(order[idx]), -coeffs[idx]) for idx in sorted(coeffs))
    return GeneratorCertificate(n=n, entries=entries, achieved=target)


def power_check_report(n: int) -> DivisibilityReport:
    """The report ``power_check(n)`` must give, with ``scan_min`` from :func:`scan_min`."""
    power = prime_power(n)
    successor = prime_power(n - 1)
    entries = []
    for p in primes_upto(n):
        if power and power[0] == p:
            kind, witness = "power", split_prime_power(n, p)
        elif successor and successor[0] == p:
            kind, witness = "successor", split_prime_power_successor(n, p)
        else:
            kind, witness = "coprime", digit_partition(n, p)
        val = valuation(p, multinomial(Partition(witness)))
        if kind == "coprime":
            low, ok = None, val == 0
        else:
            low = scan_min(n, p)
            ok = low >= 1 and val == 1
        entries.append(DivisibilityEntry(p, kind, witness, val, low, ok))
    return DivisibilityReport(n=n, entries=tuple(entries))


def power_sum_class(chern: TruncatedPolynomial, j: int) -> TruncatedPolynomial:
    """Degree-2j power-sum class from a total Chern class, by Newton's identities.

    Uses ``s_j = c_1 s_{j-1} - c_2 s_{j-2} + ... + (-1)^{j-1} j c_j``,
    entirely inside the truncated ring.
    """
    if j < 1:
        raise ValueError(f"need j >= 1, got {j}")
    s: list[TruncatedPolynomial] = [TruncatedPolynomial(chern.space, {})]  # s[0] unused
    for m in range(1, j + 1):
        acc = chern.graded_part(m) * ((-1) ** (m - 1) * m)
        for i in range(1, m):
            acc = acc + chern.graded_part(i) * s[m - i] * ((-1) ** (i - 1))
        s.append(acc)
    return s[j]


def pair(x: TruncatedPolynomial, y: TruncatedPolynomial) -> int:
    """``<x * y, [V]>`` as ``sum x_e * y_{top - e}``: one lookup per term, not per term pair."""
    if len(y.terms) < len(x.terms):
        x, y = y, x
    top = x.space.top_monomial
    get = y.terms.get
    return sum(c * get(tuple(map(operator.sub, top, e)), 0) for e, c in x.terms.items())


def hypersurface_chern_classes(
    sigma: Iterable[int],
) -> tuple[ProjectiveProduct, list[TruncatedPolynomial]]:
    """The ambient space and ``[c_1(N), ..., c_{n-1}(N)]`` in the dense model.

    ``c(V)|_N = c(N) (1 + c_1)`` gives ``c_j(N) = c_j(V) - c_1 c_{j-1}(N)``
    from ``c_0(N) = 1``, with ``c(V)`` from :func:`chern_total`.
    """
    space = ProjectiveProduct(sigma)
    c1 = space.first_chern_class()
    total = chern_total(space)
    classes = [space.one()]
    for j in range(1, space.n):
        classes.append(total.graded_part(j) - c1 * classes[-1])
    return space, classes[1:]


def expand(ring, x: dict[int, int]) -> TruncatedPolynomial:
    """The dense element of an orbit-basis element of ``cohomology._OrbitRing``.

    Every exponent vector that sorts, within each run of equal parts, to
    an orbit's representative gets the orbit's coefficient.
    """
    runs = [(d, len(list(run))) for d, run in itertools.groupby(ring.sigma)]
    exponents = dict(ring.keys())
    terms = {}
    for key, coeff in x.items():
        rep, blocks, start = exponents[key], [], 0
        for d, length in runs:
            piece = tuple(sorted(rep[start : start + length]))
            every = itertools.product(range(d + 1), repeat=length)
            blocks.append([e for e in every if tuple(sorted(e)) == piece])
            start += length
        for pieces in itertools.product(*blocks):
            terms[sum(pieces, ())] = coeff
    return TruncatedPolynomial(ProjectiveProduct(ring.sigma), terms)


def chern_classes_by_inverse_series(sigma: Iterable[int]) -> list[TruncatedPolynomial]:
    """``[c_1(N), ..., c_{n-1}(N)]`` as graded parts of ``c(V) (1 + c_1)^{-1}``.

    The inverse series ``1 - c_1 + c_1^2 - ...`` terminates because
    ``c_1`` is nilpotent; it is multiplied into ``c(V)`` as one product of
    two general ring elements.
    """
    space = ProjectiveProduct(sigma)
    total = chern_total(space)
    c1 = total.graded_part(1)
    inverse = space.one()
    term = space.one()
    for _ in range(space.n):
        term = term * (-c1)
        inverse = inverse + term
    quotient = total * inverse
    return [quotient.graded_part(j) for j in range(1, space.n)]


def s_number_by_full_products(sigma: Iterable[int]) -> int:
    """``< s_{n-1}(V) c_1 - c_1^n, [V] >`` from the full products and ``c_1**n``."""
    space = ProjectiveProduct(sigma)
    c1 = space.first_chern_class()
    return fundamental_pairing(power_sum_direct(space, space.n - 1) * c1 - c1**space.n)


def chern_numbers_by_full_products(sigma: Iterable[int]) -> dict[Partition, int]:
    """The Chern-number table, each entry a full product from 1 times ``c_1``, paired.

    Keys come from :func:`partitions_by_recursion`, so the table's order
    is checked against an enumeration independent of the library's.
    """
    space, classes = hypersurface_chern_classes(sigma)
    c1 = space.first_chern_class()
    numbers = {}
    for omega in partitions_by_recursion(space.n - 1, space.n - 1):
        product = space.one()
        for index in omega:
            product = product * classes[index - 1]
        numbers[Partition(omega)] = fundamental_pairing(product * c1)
    return numbers


def todd_polynomial(degree: int) -> dict[tuple[int, ...], Fraction]:
    """The degree-``degree`` Todd polynomial, keyed by decreasing Chern index tuples.

    Todd is the multiplicative sequence of ``Q(x) = x / (1 - e^{-x})``:
    with ``log Q(x) = sum a_k x^k``, the log of the Todd class is
    ``sum a_k p_k`` for the power sums ``p_k`` of the Chern roots.  Each
    ``p_k`` is taken to Chern classes by Newton's identities, and the
    exponential is expanded, all in exact fractions.  The key ``(2, 2)``
    is ``c_2^2``.
    """

    def times(a: dict, b: dict) -> dict:
        out: dict[tuple[int, ...], Fraction] = {}
        for ka, va in a.items():
            for kb, vb in b.items():
                key = tuple(sorted(ka + kb, reverse=True))
                if sum(key) <= degree:
                    out[key] = out.get(key, 0) + va * vb
        return out

    # f = 1/Q = (1 - e^{-x}) / x; log f = h solves k h_k = k f_k - sum_j j h_j f_{k-j}
    f = [Fraction((-1) ** j, math.factorial(j + 1)) for j in range(degree + 1)]
    h = [Fraction(0)] * (degree + 1)
    for k in range(1, degree + 1):
        h[k] = f[k] - sum((j * h[j] * f[k - j] for j in range(1, k)), Fraction(0)) / k
    chern = [{(i,): Fraction(1)} for i in range(degree + 1)]
    power_sums = [{}]
    log_todd: dict[tuple[int, ...], Fraction] = {}
    for k in range(1, degree + 1):
        # p_k = sum_{i<k} (-1)^(i-1) c_i p_{k-i} + (-1)^(k-1) k c_k
        p_k = {(k,): Fraction((-1) ** (k - 1) * k)}
        for i in range(1, k):
            for key, value in times(chern[i], power_sums[k - i]).items():
                p_k[key] = p_k.get(key, 0) + (-1) ** (i - 1) * value
        power_sums.append(p_k)
        for key, value in p_k.items():
            log_todd[key] = log_todd.get(key, 0) - h[k] * value
    todd: dict[tuple[int, ...], Fraction] = {}
    term: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}
    for m in range(1, degree + 1):
        term = {key: value / m for key, value in times(term, log_todd).items()}
        for key, value in term.items():
            if sum(key) == degree:
                todd[key] = todd.get(key, 0) + value
    return {key: value for key, value in todd.items() if value}


def uncapped_product(a: TruncatedPolynomial, b: TruncatedPolynomial) -> dict:
    """Terms of ``a * b`` from every term pair, with no exponent-cap check."""
    out: dict[tuple[int, ...], int] = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def predicted_gcd(tag: CaseTag) -> int:
    """Generator s-number implied by the prime-power shape alone.

    Case by case: generic n contributes 1 (even) or 2 (odd); a prime
    power contributes its base, a prime-power successor the base of
    n - 1, and odd n carry an extra factor of 2.
    """
    c = tag.case
    if c is Case.GENERIC:
        return 1 if tag.even else 2
    if c is Case.POWER_SUCCESSOR_EVEN:
        return 2 * tag.q  # p == 2
    if c is Case.POWER_SUCCESSOR_ODD:
        return 4 * tag.p  # q == 2
    if c is Case.POWER_EVEN:
        return 2  # p == 2
    if c is Case.POWER_ODD:
        return 2 * tag.p
    if c is Case.SUCCESSOR_EVEN:
        return tag.q
    return 4  # SUCCESSOR_ODD, q == 2


_MATRIX_ROW_RE = re.compile(r"^\s*-?\d+(\s+-?\d+)*\s*$")
# The header patterns in their first, backtracking form: a copy of their own,
# so that a change to the program's patterns shows against the line reader.
HEADER_RE = re.compile(
    r"""^\s*(?P<dim>\d+)\s+(?P<count>\d+)
        (?:\s+M:(?P<m1>\d+)\s+(?P<m2>\d+))?
        (?:\s+N:(?P<n1>\d+)\s+(?P<n2>\d+))?
        \s+H:(?P<h11>\d+),(?P<h21>\d+)
        (?:\s+\[(?P<chi>-?\d+)\])?\s*$""",
    re.VERBOSE,
)
HEADERISH_RE = re.compile(r"^\s*\d+\s+\d+(\s|$)")


def parse_ks_by_lines(
    lines: Iterable[str], strict: bool = False
) -> Iterator[KSRecord | KSParseError]:
    """What ``toricdata.parse_ks`` yields, one line and one regex per matrix row."""
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
        match = HEADER_RE.match(text)
        if match is None:
            if "H:" in text:
                message = f"malformed header: {text.strip()!r}"
            elif _MATRIX_ROW_RE.match(text):
                message = "stray matrix row (no preceding valid header)"
            elif HEADERISH_RE.match(text):
                message = "missing H:<h11>,<h21> field"
            else:
                message = f"unrecognized line: {text.strip()!r}"
            yield KSParseError(line=lineno, message=message)
            continue
        try:
            ambient_dim, vertex_count = int(match["dim"]), int(match["count"])
        except ValueError:
            yield KSParseError(line=lineno, message=_TOO_LONG)
            continue
        rows = 0
        bad_row: str | None = None
        while rows < ambient_dim:
            try:
                row_lineno, row_raw = next(numbered)
            except StopIteration:
                bad_row = "input ended inside the vertex matrix"
                break
            row = row_raw.rstrip("\n")
            if _MATRIX_ROW_RE.match(row) and len(row.split()) == vertex_count:
                rows += 1
            else:
                bad_row = f"expected a row of {vertex_count} integers at line {row_lineno}"
                pushed = (row_lineno, row_raw)
                break
        if bad_row is not None:
            yield KSParseError(line=lineno, message=bad_row)
            continue
        try:
            for name in ("m1", "m2", "n1", "n2"):  # read, to refuse what int() refuses, then dropped
                if match[name] is not None:
                    int(match[name])
            record = KSRecord(
                ambient_dim=ambient_dim,
                vertex_count=vertex_count,
                h11=int(match["h11"]),
                h21=int(match["h21"]),
                chi=int(match["chi"]) if match["chi"] is not None else None,
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


def reflexivity_by_vertices(p: ReflexivePolytope) -> ReflexivityReport:
    """What ``toricdata.verify_reflexive`` reports, each ``<a, v>`` summed on its own."""
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
        return ReflexivityReport(False, tuple(diagnostics), p.vertex_count, p.facet_count)
    if len(p.vertices) < d + 1:
        diagnostics.append(f"only {len(p.vertices)} vertices; a {d}-polytope needs {d + 1}")
    if len(p.facets) < d + 1:
        diagnostics.append(f"only {len(p.facets)} facets; a {d}-polytope needs {d + 1}")
    saturations = [0] * len(p.vertices)
    for a in p.facets:
        if all(x == 0 for x in a):
            diagnostics.append("zero facet normal")
            continue
        values = [sum(map(operator.mul, a, v)) for v in p.vertices]
        low = min(values, default=-1)  # a facet of no vertices touches none
        if low < -1:
            diagnostics.append(f"facet {a} cuts off a vertex: <a, v> = {low} < -1")
            continue
        if low > -1:
            diagnostics.append(f"facet {a} is not at lattice distance 1: min <a, v> = {low}")
            continue
        tight = [i for i, val in enumerate(values) if val == -1]
        if len(tight) < d:
            diagnostics.append(f"facet {a} touches only {len(tight)} vertices, need {d}")
        for i in tight:
            saturations[i] += 1
    for i, count in enumerate(saturations):
        if count < d:
            diagnostics.append(f"vertex {p.vertices[i]} lies on only {count} facets, need {d}")
    return ReflexivityReport(not diagnostics, tuple(diagnostics), p.vertex_count, p.facet_count)


def as_dict(record: KSRecord) -> dict:
    """A record's JSON fields, the reference encoding of a ``ks`` row (which adds ``line``)."""
    return {
        "ambient_dim": record.ambient_dim,
        "vertex_count": record.vertex_count,
        "h11": record.h11,
        "h21": record.h21,
        "chi": record.chi,
        "consistent": record.consistent,
    }


def format_ks(
    record: KSRecord,
    m_points: tuple[int, int] | None = None,
    n_points: tuple[int, int] | None = None,
    rows: Sequence[str] | None = None,
) -> str:
    """A record as the header-plus-matrix text that ``parse_ks`` reads back, with the ``M:`` and
    ``N:`` pairs and the rows it does not keep; the rows default to ``ambient_dim`` rows of
    ``vertex_count`` zeros."""
    bits = [f"{record.ambient_dim} {record.vertex_count}"]
    if m_points is not None:
        bits.append(f"M:{m_points[0]} {m_points[1]}")
    if n_points is not None:
        bits.append(f"N:{n_points[0]} {n_points[1]}")
    bits.append(f"H:{record.h11},{record.h21}")
    if record.chi is not None:
        bits.append(f"[{record.chi}]")
    if rows is None:
        rows = [" ".join(["0"] * record.vertex_count)] * record.ambient_dim
    return "\n".join((" ".join(bits), *rows))


def as_mapping(cert: GeneratorCertificate) -> dict[Partition, int]:
    """A certificate's entries as a partition-to-coefficient map."""
    return dict(cert.entries)
