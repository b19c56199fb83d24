"""Slow, independent routes that the fast library paths are checked against.

The library finds its minima over the capped partitions of n (every part
at most n - 2) with per-prime dynamic programs.  The oracles here walk
every capped partition explicitly instead, with their own enumeration
and arithmetic, so agreement checks the dynamic programs against an
exhaustive scan.
"""

from __future__ import annotations

import math
from typing import Iterator

from cybordism.numthy import factorial_valuation, prime_power, primes_upto, valuation
from cybordism.partitions import (
    DivisibilityEntry,
    DivisibilityReport,
    Partition,
    digit_partition,
    multinomial,
    split_prime_power,
    split_prime_power_successor,
)


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


def weighted_multinomial_value(parts: list[int]) -> int:
    """``n! / prod(m!) * prod((m + 1)**m)`` straight from the factorials."""
    value = math.factorial(sum(parts))
    for m in parts:
        value = value // math.factorial(m) * (m + 1) ** m
    return value


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
