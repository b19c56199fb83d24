"""Gcd identity and integer certificates for SU-bordism polynomial generators.

For each n >= 3 the s-numbers of the Calabi-Yau hypersurfaces indexed by
the capped partitions of n have greatest common divisor exactly the
attainable generator s-number, so an explicit integer combination of
those hypersurfaces realises a polynomial generator of the SU-bordism
ring with 2 inverted.  This module verifies the gcd identity and
produces deterministic Bezout certificates witnessing it.
"""

from __future__ import annotations

from collections import namedtuple

from .numthy import (
    _valuation,
    classify,
    factorial_valuation,
    primes_upto,
    su_generator_s_number,
)
from .partitions import (
    Partition,
    _capped_minima,
    _iter_decreasing,
    _weighted_part_valuations,
    weighted_multinomial,
)

# Largest accepted bound of the gcd scan: one knapsack over the
# undominated part sizes per prime below it, about 0.4 s at 800 on a
# 2-core VM.
GCD_MAX_N = 800
# Largest accepted certificate n: the scan order holds all p(n) capped
# partitions (about 4.7x more per 10), 4.5 s and 106 MB at n = 50.
CERTIFICATE_MAX_N = 50


def _s_number_gcds(n_max: int) -> list[int]:
    """Entry ``n`` is :func:`s_number_gcd` of ``n``, for every ``3 <= n <= n_max``.

    Built prime by prime: the exponent of ``p`` in the gcd is the least
    exponent of ``p`` in any weighted multinomial of a partition of
    ``n`` with parts at most ``n - 2``.  That exponent is ``v_p(n!)``
    plus a sum of per-part terms ``m*v_p(m+1) - v_p(m!)``, so one
    knapsack table per prime (:func:`_capped_minima`) gives its minimum
    for every ``n`` at once.  A prime ``p > n``
    cannot divide the values for ``n`` (every factor is at most ``n``).
    """
    if n_max < 3:
        raise ValueError(f"need n >= 3, got {n_max}")
    if n_max > GCD_MAX_N:
        raise ValueError(f"need n <= {GCD_MAX_N} (the gcd budget), got {n_max}")
    gcds = [1] * (n_max + 1)
    for p in primes_upto(n_max):
        minima = _capped_minima(_weighted_part_valuations(p, n_max - 2))
        for n in range(max(p, 3), n_max + 1):
            gcds[n] *= p ** (factorial_valuation(p, n) + minima[n])
    return gcds


def s_number_gcd(n: int) -> int:
    """Gcd of the hypersurface s-number magnitudes over all capped partitions of n.

    Read from the per-prime minima of :func:`_s_number_gcds`.  No
    shortcut via the predicted value is taken, so the result is an
    independent check against :func:`su_generator_s_number`.
    """
    return _s_number_gcds(n)[n]


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(d, x, y)`` with ``d = gcd(a, b) = x*a + y*b``.

    Standard iterative Euclid with Bezout back-substitution; for positive
    inputs the coefficients are the minimal ones.
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class GeneratorCertificate(namedtuple("GeneratorCertificate", "n entries achieved")):
    """Integer combination of hypersurfaces realising a bordism generator.

    ``entries`` lists ``(sigma, coefficient)`` pairs with distinct
    partitions and nonzero coefficients; ``achieved`` is the s-number of
    the combination, which equals the attainable generator s-number for
    dimension ``2(n - 1)``.
    """

    __slots__ = ()

    def as_mapping(self) -> dict[Partition, int]:
        return dict(self.entries)


def _scan_order(n: int) -> list[tuple[int, ...]]:
    # Fewest parts first, then lexicographic on the increasing part
    # tuples.  Partitions with few parts live in small ambient rings, so
    # certificates built from the front of this order stay cheap to
    # re-verify through the cohomology route.  Entries are the raw
    # decreasing part tuples; only chosen ones become Partition objects.
    return sorted(_iter_decreasing(n, n - 2), key=lambda s: (len(s), s[::-1]))


def certificate(n: int) -> GeneratorCertificate:
    """Deterministic minimal-support certificate for the generator in ``2(n-1)``.

    Scans the capped partitions of ``n`` ordered by number of parts and
    then lexicographically.  First a single s-number magnitude equal to
    the target is accepted; then every pair is tried in scan order,
    taking the first whose pairwise gcd hits the target, with Bezout
    coefficients; when no pair suffices, a running extended gcd over the
    scan order is accumulated, skipping values that do not strictly
    reduce it, until the target is reached.  Signs are flipped at the
    end so the combination's s-number is ``+target`` (each hypersurface
    s-number is negative).
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if n > CERTIFICATE_MAX_N:
        raise ValueError(f"need n <= {CERTIFICATE_MAX_N} (the certificate budget), got {n}")
    target = su_generator_s_number(n)
    order = _scan_order(n)
    primes = primes_upto(n)
    target_vec = tuple(_valuation(p, target) for p in primes)
    # Exponent vectors of the s-number magnitudes over the primes <= n
    # (no larger prime can divide them), computed without big integers:
    # v_p(n!) plus one per-prime table entry for each part.
    base = tuple(factorial_valuation(p, n) for p in primes)
    part_rows = list(zip(*(_weighted_part_valuations(p, n - 2) for p in primes)))
    vectors = [
        tuple(map(sum, zip(base, *map(part_rows.__getitem__, parts)))) for parts in order
    ]

    for parts, vec in zip(order, vectors):
        if vec == target_vec:
            entries = ((Partition(parts), -1),)
            return GeneratorCertificate(n=n, entries=entries, achieved=target)

    pair = _first_exact_pair(vectors, target_vec)
    if pair is not None:
        sigma, tau = Partition(order[pair[0]]), Partition(order[pair[1]])
        d, x, y = extended_gcd(weighted_multinomial(sigma), weighted_multinomial(tau))
        assert d == target
        entries = ((sigma, -x), (tau, -y))
        return GeneratorCertificate(n=n, entries=entries, achieved=target)

    return _sequential_certificate(order, target, n)


def _first_exact_pair(
    vectors: list[tuple[int, ...]], target_vec: tuple[int, ...]
) -> tuple[int, int] | None:
    # gcd(a_i, a_j) == target iff for every prime the smaller of the two
    # exponents is the target's exponent; since target divides every
    # value, that means each prime is "tight" in at least one of the
    # two.  Encoding tightness as bitmasks turns the pair search into
    # cheap mask cover queries.
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
    # A partner after an index is after its mask's first index too, so only first
    # indices need trying: one has a partner iff a covering mask occurs last after it.
    for mask_i, i in first.items():
        needed = full & ~mask_i
        if any(mask & needed == needed and j > i for mask, j in last.items()):
            return i, next(j for j in range(i + 1, len(masks)) if masks[j] & needed == needed)
    return None


def _sequential_certificate(
    order: list[tuple[int, ...]], target: int, n: int
) -> GeneratorCertificate:
    # Running extended gcd along the scan order; a value enters the
    # combination only when it strictly reduces the running gcd.
    coeffs: dict[int, int] = {0: 1}
    running = weighted_multinomial(Partition(order[0]))
    for idx in range(1, len(order)):
        if running == target:
            break
        value = weighted_multinomial(Partition(order[idx]))
        d, x, y = extended_gcd(running, value)
        if d == running:
            continue
        coeffs = {i: c * x for i, c in coeffs.items() if c * x != 0}
        if y != 0:
            coeffs[idx] = y
        running = d
    if running != target:
        raise ArithmeticError(
            f"gcd over capped partitions of {n} is {running}, expected {target}"
        )
    entries = tuple(
        (Partition(order[idx]), -coeffs[idx]) for idx in sorted(coeffs) if coeffs[idx] != 0
    )
    return GeneratorCertificate(n=n, entries=entries, achieved=target)


def reverify_certificate(cert: GeneratorCertificate) -> int:
    """Recompute the certificate's s-number through the cohomology route.

    Evaluates ``sum coeff * s(N_sigma)`` with each s-number obtained by
    honest truncated-ring arithmetic, independent of the combinatorial
    values used to build the certificate.
    """
    # imported here, so that the gcd scan starts without the ring code
    from .cohomology import hypersurface_s_number

    return sum(coeff * hypersurface_s_number(sigma) for sigma, coeff in cert.entries)


class GcdIdentityRow(namedtuple("GcdIdentityRow", "n gcd_value expected tag")):
    """One ``n`` of the scan; ``tag`` is its :class:`CaseTag`, ``None`` for ``n = 3``."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.gcd_value == self.expected

    @property
    def case(self) -> str:
        """Label of the prime-power shape of ``n``; ``"base"`` for ``n = 3``."""
        return self.tag.label if self.tag else "base"


class GcdIdentityReport(namedtuple("GcdIdentityReport", "n_max rows")):
    """Scan of the gcd identity up to ``n_max``, with case attribution."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.rows)

    def case_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for row in self.rows:
            counts[row.case] = counts.get(row.case, 0) + 1
        return counts


def verify_gcd_identity(n_max: int) -> GcdIdentityReport:
    """Check ``s_number_gcd(n) == su_generator_s_number(n)`` for ``3 <= n <= n_max``.

    Every gcd comes from one shared set of per-prime tables.  ``n > 3``
    is attributed to its prime-power shape; ``n = 3`` is the base value
    48 and carries no shape.
    """
    gcds = _s_number_gcds(n_max)
    rows = tuple(
        GcdIdentityRow(
            n=n,
            gcd_value=gcds[n],
            expected=su_generator_s_number(n),
            tag=classify(n) if n > 3 else None,
        )
        for n in range(3, n_max + 1)
    )
    return GcdIdentityReport(n_max=n_max, rows=rows)


def low_dimension_table() -> dict:
    """Explicit data for the generators of complex dimension 2, 3 and 4.

    Returns the target s-numbers, the certificates over the partitions
    of 3, 4 and 5, and the Euler-characteristic condition a single
    Calabi-Yau threefold must satisfy to represent the dimension-3
    generator or its negative.
    """
    from .cohomology import hypersurface_euler_characteristic

    targets = {i: su_generator_s_number(i + 1) for i in (2, 3, 4)}
    certificates = {n: certificate(n) for n in (3, 4, 5)}
    cert4 = certificates[4]
    combination_euler = sum(
        coeff * hypersurface_euler_characteristic(sigma)
        for sigma, coeff in cert4.entries
    )
    # c_1 = 0 on a Calabi-Yau threefold, so s_3 = 3 c_3 = 3 chi, and s_3 = +-g(4)
    euler = targets[3] // 3
    return {
        "targets": targets,
        "certificates": certificates,
        "dimension3_combination_euler": combination_euler,
        "dimension3_single_manifold_euler": (euler, -euler),
    }
