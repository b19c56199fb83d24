"""Gcd identity and integer certificates for SU-bordism polynomial generators.

For each n >= 3 the s-numbers of the Calabi-Yau hypersurfaces indexed by
the capped partitions of n have greatest common divisor exactly the
attainable generator s-number, so an explicit integer combination of
those hypersurfaces realises a polynomial generator of the SU-bordism
ring with 2 inverted.  This module verifies the gcd identity and
produces deterministic Bezout certificates witnessing it.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator
from itertools import accumulate, islice

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
    _weighted_part_valuations,
    weighted_multinomial,
)

# Largest accepted bound of the gcd scan: one knapsack over the
# undominated part sizes per prime below it, 0.25-0.37 s at 800 (five
# in-process calls on a 2-core VM).
GCD_MAX_N = 800
# Largest accepted certificate n: the walk visits all p(n) capped partitions
# (about 4.7x more per 10); `certificate --n 50` takes 0.36 s and 26 MB.
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


def _excess_bound(n: int) -> int:
    # A strict bound on v_p(value) - v_p(g(n)) over the capped partitions of n and primes p:
    # v_p(n!) < n, and a part m adds at most m * v_p(m + 1) <= m * ((n - 1).bit_length() - 1).
    return n * (n - 1).bit_length()


def _scan_runs(n: int, weight: list[int], start: int) -> Iterator[tuple[list[int], int, int, int]]:
    # The capped partitions of n in scan order: fewest parts first, then lexicographic
    # on the increasing parts (per part count, Knuth's Algorithm H, TAOCP 7.2.1.4), so
    # entries taken from the front live in small rings and are cheap to re-verify.
    # A run (head, acc, lo, rest) is head + [a, rest - a] for lo <= a <= rest // 2,
    # and acc is start plus the weights of the head, kept as prefix sums: the next head
    # raises its rightmost part that can still grow and copies it rightwards.
    yield [], start, 2, n  # two parts: (1, n - 1) is over the cap
    for k in range(3, n + 1):
        head, sums = [1] * (k - 2), list(range(k - 1))
        accs = list(accumulate([start] + [weight[1]] * (k - 2)))
        while True:
            yield head, accs[-1], head[-1], n - sums[-1]
            i = k - 3
            while i >= 0 and sums[i] + (k - i) * (head[i] + 1) > n:
                i -= 1
            if i < 0:
                break
            a = head[i] + 1
            for j in range(i, k - 2):
                head[j], sums[j + 1], accs[j + 1] = a, sums[j] + a, accs[j] + weight[a]


def _in_scan_order(n: int) -> Iterator[tuple[int, ...]]:
    runs = _scan_runs(n, [0] * (n + 1), 0)
    return ((*head, a, rest - a) for head, _, lo, rest in runs for a in range(lo, rest // 2 + 1))


def certificate(n: int) -> GeneratorCertificate:
    """Deterministic certificate for the generator in ``2(n-1)``: a running extended gcd.

    Orders the capped partitions of ``n`` by number of parts and then
    lexicographically, and accumulates a running extended gcd of their
    s-number magnitudes along that order, skipping values that do not
    strictly reduce it, until the target is reached.  The order is the
    first pair whose gcd is the target, when one exists, and the whole
    scan otherwise.  Signs are flipped at the end so the combination's
    s-number is ``+target`` (each hypersurface s-number is negative).
    One walk finds the pair, visiting the partitions in scan order at one
    integer add each: about 0.2 s in-process at ``n = 50``.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if n > CERTIFICATE_MAX_N:
        raise ValueError(f"need n <= {CERTIFICATE_MAX_N} (the certificate budget), got {n}")
    target = su_generator_s_number(n)
    primes = primes_upto(n)
    # A field per prime <= n (no larger one divides a value) holds guard - 1 plus the
    # excess v_p(value) - v_p(target), which is >= 0 (target divides every value) and
    # below guard: the guard bit is set exactly when the prime is not tight.
    width = _excess_bound(n).bit_length() + 1
    guard, shifts = 1 << (width - 1), range(0, width * len(primes), width)
    rows = [_weighted_part_valuations(p, n) for p in primes]
    weight = [sum(map(int.__lshift__, column, shifts)) for column in zip(*rows)]
    fields = [factorial_valuation(p, n) - _valuation(p, target) + guard - 1 for p in primes]
    start, high = sum(map(int.__lshift__, fields, shifts)), sum(map(guard.__lshift__, shifts))
    # pairs[r][a] is weight[a] + weight[r - a], for a <= r // 2
    pairs = [list(map(int.__add__, weight[: r // 2 + 1], weight[r::-1])) for r in range(n + 1)]
    masks: list[int] = []
    for _, acc, lo, rest in _scan_runs(n, weight, start):
        masks += map(high.__and__, map(acc.__add__, pairs[rest][lo:]))
    # no single value is the target past n = 3: each is at least C(n, 2) 2^n > 2n(n - 1) >= g(n)
    order, pair = _in_scan_order(n), _first_exact_pair(masks)
    if pair is not None:
        order = (parts for idx, parts in enumerate(islice(order, pair[1] + 1)) if idx in pair)
    return _sequential_certificate(order, target, n)


def _first_exact_pair(masks: list[int]) -> tuple[int, int] | None:
    # gcd(a_i, a_j) == target iff the masks share no bit.  A partner after an index is
    # after its mask's first index too: only first indices need trying, and one has a
    # partner iff a disjoint mask occurs last after it.
    last = dict(zip(masks, range(len(masks))))
    first = dict(zip(reversed(masks), range(len(masks) - 1, -1, -1)))
    for i in sorted(first.values()):
        mask_i = masks[i]
        if any(mask & mask_i == 0 and j > i for mask, j in last.items()):
            return i, next(j for j in range(i + 1, len(masks)) if masks[j] & mask_i == 0)
    return None


def _sequential_certificate(order: Iterator[tuple], target: int, n: int) -> GeneratorCertificate:
    # Running extended gcd along the scan order; a value enters the
    # combination only when it strictly reduces the running gcd.
    sigma = Partition(next(order))
    coeffs, running = {sigma: 1}, weighted_multinomial(sigma)
    for parts in order:
        if running == target:
            break
        sigma = Partition(parts)
        d, x, y = extended_gcd(running, weighted_multinomial(sigma))
        if d == running:
            continue
        coeffs = {s: c * x for s, c in coeffs.items() if c * x != 0}
        if y != 0:
            coeffs[sigma] = y
        running = d
    if running != target:
        raise ArithmeticError(f"gcd over capped partitions of {n} is {running}, expected {target}")
    entries = tuple((sigma, -coeff) for sigma, coeff in coeffs.items())
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
        return dict(Counter(row.case for row in self.rows))


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
