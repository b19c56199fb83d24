"""Integer partitions and the combinatorial side of hypersurface s-numbers.

A partition sigma of n indexes the product of projective spaces
CP^{sigma_1} x ... x CP^{sigma_k} and its anticanonical Calabi-Yau
hypersurface.  The s-number of that hypersurface is minus the weighted
multinomial coefficient computed here, so the whole divisibility theory
of those s-numbers reduces to exact partition combinatorics.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import cache


@cache
def _numthy():
    # numthy, imported by the first function here that needs it, so that the
    # commands that never call one (s-number, chern, alpha, polytope) start up
    # without compiling it.  Those functions read numthy's attributes as they
    # run, so a rebinding of one is seen.  An import statement in each of them
    # costs about 2.7 us a call, which made power_check(n) for every n <= 400
    # about a fifth slower; this cached call costs a tenth of that.
    from . import numthy

    return numthy


class Partition(tuple):
    """Unordered partition of a positive integer.

    Parts are stored weakly decreasing, so two partitions are equal (and
    hash equal) exactly when they are the same multiset.  Display output
    uses the increasing convention, e.g. ``(1,1,3)``.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int]) -> "Partition":
        ordered = sorted(parts, reverse=True)
        if not ordered:
            raise ValueError("a partition needs at least one part")
        for part in ordered:
            if not isinstance(part, int) or isinstance(part, bool) or part < 1:
                raise ValueError(f"parts must be positive integers, got {ordered}")
        return super().__new__(cls, ordered)

    @property
    def n(self) -> int:
        """The partitioned integer: sum of the parts."""
        return sum(self)

    @property
    def k(self) -> int:
        """Number of parts."""
        return len(self)

    @property
    def increasing(self) -> tuple[int, ...]:
        return tuple(reversed(self))

    @property
    def label(self) -> str:
        """Comma-separated increasing rendering, e.g. ``"1,1,3"``."""
        return ",".join(str(p) for p in self.increasing)

    def __repr__(self) -> str:
        return f"Partition(({self.label}))"

    def __str__(self) -> str:
        return f"({self.label})"


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated part list such as ``"1,1,3"``."""
    words = [word for word in map(str.strip, text.split(",")) if word]
    try:
        # only the words parse_ks takes in a matrix row: int() also reads "1_0" and "+3"
        if not all(word.removeprefix("-").isdecimal() for word in words):
            raise ValueError
        parts = [int(word) for word in words]
    except ValueError:
        raise ValueError(f"not a comma-separated integer list: {text!r}") from None
    return Partition(parts)


def check_budget(sigma: Partition, cost: str, name: str, budget: int, sizes: Iterable[int]) -> None:
    """Refuse sigma (``ValueError``) when the positive ``sizes`` multiply past ``budget``.

    The product stops once past the budget and the message names ``cost``, not its value.
    """
    product = 1
    for size in sizes:
        product *= size
        if product > budget:
            raise ValueError(f"{sigma}: {cost} is over the {name} budget {budget}")


def _iter_decreasing(remaining: int, max_part: int) -> Iterator[tuple[int, ...]]:
    # Raw reverse-lexicographic generator over plain tuples; hot loops
    # (full scans up to n = 60) stay clear of Partition construction.
    # ZS1 (Zoghbi and Stojmenovic, 1998) from (top, ..., top, r): x[:m + 1]
    # is the partition, x[h] its last part above 1, and x[h + 1:] all 1s.
    if remaining == 0:
        yield ()
        return
    top = min(remaining, max_part)
    q, r = divmod(remaining, top)
    x = [top] * q + [r] * (r > 0) + [1] * remaining
    m = q - (r == 0)
    h = m if x[m] > 1 else m - 1
    yield tuple(x[: m + 1])
    while x[0] > 1:
        if x[h] == 2:
            x[h], m, h = 1, m + 1, h - 1
        else:
            # lower x[h] to r and refill the tail greedily with parts r
            r = x[h] = x[h] - 1
            k, t = divmod(m - h + 1, r)
            x[h + 1 : h + k + 1] = [r] * k
            h += k
            m = h + (t > 0)
            if t > 1:
                h += 1
                x[h] = t
        yield tuple(x[: m + 1])


def _trusted(raw: tuple[int, ...]) -> Partition:
    # raw comes from _iter_decreasing, already weakly decreasing and
    # positive, so it skips the sort and checks of Partition()
    return tuple.__new__(Partition, raw)


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of ``n``, reverse-lexicographically.

    The order is on the weakly decreasing part tuples: ``(n)`` comes
    first and ``(1, ..., 1)`` last.  Generation is lazy; nothing forces
    the full list into memory.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    yield from map(_trusted, _iter_decreasing(n, n))


def count_partitions(n: int) -> int:
    """Number of partitions of ``n``, by the bounded-part recurrence.

    Independent of the enumeration above, which makes it usable as a
    cross-check on the generator.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    # table[m] = number of partitions of m with parts <= current bound
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            table[m] += table[m - part]
    return table[n]


def generator_partitions(n: int) -> Iterator[Partition]:
    """Partitions of ``n`` with every part at most ``n - 2``.

    Equivalently all partitions except ``(n)`` and ``(n-1, 1)``.  These
    index the hypersurfaces whose s-numbers enter the generator
    certificates; order matches :func:`enumerate_partitions`.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    yield from map(_trusted, _iter_decreasing(n, n - 2))


def multinomial(sigma: Partition) -> int:
    """Exact multinomial coefficient n! / (sigma_1! ... sigma_k!)."""
    value = math.factorial(sigma.n)
    for part in sigma:
        value //= math.factorial(part)
    return value


def weighted_multinomial(sigma: Partition) -> int:
    """Multinomial of sigma times the product of ``(part + 1)**part``.

    This is the magnitude of the s-number of the anticanonical
    hypersurface in the product of projective spaces indexed by sigma
    (the s-number itself is the negative of this value).
    """
    value = multinomial(sigma)
    for part in sigma:
        value *= (part + 1) ** part
    return value


def multinomial_valuation(p: int, sigma: Iterable[int]) -> int:
    """Exponent of the prime ``p`` in the multinomial of sigma.

    Computed from factorial valuations, which keeps full scans over all
    partitions of n cheap: no big integers are materialised.
    """
    factorial_valuation = _numthy().factorial_valuation
    total = factorial_valuation(p, sum(sigma))
    for part in sigma:
        total -= factorial_valuation(p, part)
    return total


def _weighted_part_valuations(p: int, top: int) -> list[int]:
    # Entry m (0 <= m <= top) is what one part m adds to the exponent of
    # p in a weighted multinomial beyond v_p(n!): m*v_p(m+1) - v_p(m!).
    # ``p`` must be prime; callers check it.
    numthy = _numthy()
    valuation, factorial_valuation = numthy._valuation, numthy.factorial_valuation
    return [m * valuation(p, m + 1) - factorial_valuation(p, m) for m in range(top + 1)]


def _capped_minima(cost: list[int]) -> list[int | None]:
    """Least ``sum(cost[m] for m in sigma)`` over the partitions sigma of n with parts <= n - 2.

    Entry ``n`` of the result is that minimum for every ``3 <= n <=
    len(cost) + 1`` (``cost[0]`` is unused; entries 0..2 are ``None``).
    One unrestricted knapsack ``best[s]``, the least cost over all
    partitions of ``s``, serves every ``n``: a partition of ``n`` with
    parts at most ``n - 2`` is either all ones, or holds some part ``m``
    in ``2..n-2`` beside an arbitrary partition of ``n - m``.

    Only undominated part sizes enter the min-plus loops.  A size ``m``
    is dominated when ``cost[m] >= cost[u] + best[m - u]`` for some
    undominated ``u < m``; size 1 never is.  Swapping a dominated part
    for ``u`` and a best partition of ``m - u`` never raises the cost
    and only makes parts smaller, so the cap still holds and every
    minimum is reached with undominated parts alone.  Exact, and
    O(len(cost) * |undominated|) in all.
    """
    best = [0]
    undominated: list[int] = []
    for s in range(1, len(cost)):
        split = min([cost[u] + best[s - u] for u in undominated], default=cost[s])
        if cost[s] < split or s == 1:
            undominated.append(s)
        best.append(min(cost[s], split))
    return [None, None, None] + [
        # all ones, or cost[m] + best[n - m] for undominated m = 2..n-2
        min([n * cost[1], *(cost[m] + best[n - m] for m in undominated if 2 <= m <= n - 2)])
        for n in range(3, len(cost) + 2)
    ]


def digit_partition(n: int, p: int) -> Partition:
    """Partition of ``n`` built from its base-``p`` digits.

    Contains ``a_i`` copies of ``p**i`` for each digit ``a_i`` of ``n``.
    """
    parts: list[int] = []
    power = 1
    for digit in _numthy().p_adic_digits(n, p):
        parts.extend([power] * digit)
        power *= p
    return Partition(parts)


def split_prime_power(n: int, p: int) -> Partition:
    """For ``n = p**s``, the partition of ``n`` into ``p`` copies of ``p**(s-1)``."""
    pp = _numthy().prime_power(n)
    if pp is None or pp[0] != p:
        raise ValueError(f"{n} is not a power of {p}")
    _, s = pp
    return Partition([p ** (s - 1)] * p)


def split_prime_power_successor(n: int, q: int) -> Partition:
    """For ``n = q**r + 1``, the partition into ``q`` copies of ``q**(r-1)`` and a 1."""
    pp = _numthy().prime_power(n - 1)
    if pp is None or pp[0] != q:
        raise ValueError(f"{n} - 1 is not a power of {q}")
    _, r = pp
    return Partition([q ** (r - 1)] * q + [1])


class DivisibilityEntry(
    namedtuple("DivisibilityEntry", "prime kind witness witness_valuation scan_min ok")
):
    """One verified divisibility statement about multinomials of partitions of n.

    ``kind`` is ``"coprime"`` (the digit partition's multinomial is prime
    to ``prime``), ``"power"`` (n is a power of ``prime``: every capped
    partition's multinomial is divisible by it, the balanced split
    exactly once) or ``"successor"`` (same with n - 1 a power of
    ``prime`` and the successor split as the exact-once witness).
    """

    __slots__ = ()


class DivisibilityReport(namedtuple("DivisibilityReport", "n entries", defaults=((),))):
    """Outcome of :func:`power_check` for a single ``n``."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(entry.ok for entry in self.entries)


def power_check(n: int) -> DivisibilityReport:
    """Verify the prime-divisibility pattern of multinomials over the capped partitions.

    For each prime ``p <= n`` exactly one statement applies and is checked:

    * ``n != p**s`` and ``n != p**r + 1``: the multinomial of the base-p
      digit partition is not divisible by ``p``.
    * ``n == p**s``: every partition with parts at most ``n - 2`` has
      multinomial divisible by ``p``, and the split into ``p`` equal
      prime-power parts is divisible exactly once.
    * ``n == p**r + 1``: same, with the witness the split of ``n`` into
      ``p`` equal prime-power parts and a single 1.

    The "every capped partition" statements rest on ``scan_min``, the
    least ``v_p`` of the multinomial over all partitions with parts at
    most ``n - 2``.  That valuation is ``v_p(n!)`` minus a sum of
    per-part terms, so the minimum comes from one knapsack over the
    undominated part sizes (:func:`_capped_minima`), not a walk over
    every partition.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    numthy = _numthy()
    power = numthy.prime_power(n)
    successor = numthy.prime_power(n - 1)
    entries: list[DivisibilityEntry] = []
    for p in numthy.primes_upto(n):
        if power and power[0] == p:
            kind, witness = "power", split_prime_power(n, p)
        elif successor and successor[0] == p:
            kind, witness = "successor", split_prime_power_successor(n, p)
        else:
            kind, witness = "coprime", digit_partition(n, p)
        val = multinomial_valuation(p, witness)
        if kind == "coprime":
            scan_min, ok = None, val == 0
        else:
            # least v_p(n!) - sum v_p(part!) over the capped partitions
            scan_min = numthy.factorial_valuation(p, n) + _capped_minima(
                [-numthy.factorial_valuation(p, m) for m in range(n - 1)]
            )[n]
            ok = scan_min >= 1 and val == 1
        entries.append(
            DivisibilityEntry(
                prime=p,
                kind=kind,
                witness=witness,
                witness_valuation=val,
                scan_min=scan_min,
                ok=ok,
            )
        )
    return DivisibilityReport(n=n, entries=tuple(entries))
