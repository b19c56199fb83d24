"""Exact number theory underpinning the bordism-generator computations.

Primality and prime-power recognition, p-adic valuations and digit
expansions, the prime factor attached to each even-dimensional complex
bordism generator, the attainable s-number of an SU-bordism generator,
and the seven-way classification of an integer by its prime-power shape.

Everything here is exact, unbounded integer arithmetic; nothing is ever
rounded or truncated to machine width.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_upto(n: int) -> list[int]:
    """All primes ``p <= n`` in increasing order (sieve of Eratosthenes)."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 1)  # 0 and 1 are not prime
    p = 2
    while p * p <= n:
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
        p += 1
    return [p for p, prime in enumerate(sieve) if prime]


def prime_power(n: int) -> tuple[int, int] | None:
    """Write ``n = p**s`` with ``p`` prime and ``s >= 1``, if possible.

    Returns the pair ``(p, s)``, or ``None`` when ``n`` is not a prime
    power (in particular for ``n < 2``).
    """
    if n < 2:
        return None
    p = None
    d = 2
    while d * d <= n:
        if n % d == 0:
            p = d
            break
        d += 1
    if p is None:
        return n, 1
    s = 0
    rest = n
    while rest % p == 0:
        rest //= p
        s += 1
    return (p, s) if rest == 1 else None


def valuation(p: int, a: int) -> int:
    """Largest ``k`` such that ``p**k`` divides ``a``.

    ``a`` must be nonzero (the valuation of zero is undefined) and ``p``
    must be prime.
    """
    if not is_prime(p):
        raise ValueError(f"valuation base must be prime, got {p}")
    if a == 0:
        raise ValueError("valuation of 0 is undefined")
    return _valuation(p, a)


def _valuation(p: int, a: int) -> int:
    """:func:`valuation` without its checks: ``p`` prime, ``a`` nonzero."""
    k = 0
    while a % p == 0:
        a //= p
        k += 1
    return k


def factorial_valuation(p: int, n: int) -> int:
    """Exponent of the prime ``p`` in ``n!`` (Legendre's formula)."""
    if p < 2:
        raise ValueError(f"valuation base must be prime, got {p}")
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def p_adic_digits(n: int, p: int) -> list[int]:
    """Base-``p`` digits of ``n``, least significant first.

    The returned list is nonempty and its last digit is nonzero, so
    ``n == sum(d * p**i for i, d in enumerate(digits))``.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not is_prime(p):
        raise ValueError(f"digit base must be prime, got {p}")
    digits = []
    while n:
        n, r = divmod(n, p)
        digits.append(r)
    return digits


def milnor_factor(i: int) -> int:
    """The prime ``p`` when ``i + 1`` is a power of ``p``, and 1 otherwise.

    A closed stably complex manifold of real dimension ``2i`` generates
    the degree-``2i`` part of the complex bordism ring exactly when its
    s-number is plus or minus this value.
    """
    if i < 1:
        raise ValueError(f"need i >= 1, got {i}")
    pp = prime_power(i + 1)
    return 1 if pp is None else pp[0]


def su_generator_s_number(n: int) -> int:
    """Attainable s-number of an SU-bordism polynomial generator.

    For ``n >= 3`` this is the s-number achieved by the polynomial
    generator of the SU-bordism ring (with 2 inverted) in real dimension
    ``2(n - 1)``: it equals 48 for ``n = 3`` and otherwise the product of
    the two preceding milnor factors, doubled when ``n`` is odd.
    """
    if n < 3:
        raise ValueError(f"defined only for n >= 3, got {n}")
    if n == 3:
        return 48
    value = milnor_factor(n - 1) * milnor_factor(n - 2)
    return value if n % 2 == 0 else 2 * value


class Case(Enum):
    """The seven mutually exclusive prime-power shapes of an integer n > 3.

    The shape records whether n itself is a prime power, whether n - 1 is
    a prime power, and (except in the generic shape, where both parities
    share one case) the parity of n.
    """

    GENERIC = "I"
    POWER_SUCCESSOR_EVEN = "II"
    POWER_SUCCESSOR_ODD = "III"
    POWER_EVEN = "IV"
    POWER_ODD = "V"
    SUCCESSOR_EVEN = "VI"
    SUCCESSOR_ODD = "VII"


class CaseTag(namedtuple("CaseTag", "n case p q even")):
    """Shape classification of an integer ``n > 3``.

    ``p`` is the prime base when ``n`` is a prime power, ``q`` the prime
    base when ``n - 1`` is one; each is ``None`` when not applicable.
    """

    __slots__ = ()

    @property
    def label(self) -> str:
        return self.case.value


def classify(n: int) -> CaseTag:
    """Assign ``n > 3`` its unique prime-power shape.

    Exactly one of the seven cases applies to every ``n > 3``; which one
    is determined by the predicates ``n == p**s``, ``n == q**r + 1`` and
    the parity of ``n``.
    """
    if n <= 3:
        raise ValueError(f"classification defined only for n > 3, got {n}")
    even = n % 2 == 0
    power = prime_power(n)
    successor = prime_power(n - 1)
    p = power[0] if power else None
    q = successor[0] if successor else None
    if power and successor:
        case = Case.POWER_SUCCESSOR_EVEN if even else Case.POWER_SUCCESSOR_ODD
    elif power:
        case = Case.POWER_EVEN if even else Case.POWER_ODD
    elif successor:
        case = Case.SUCCESSOR_EVEN if even else Case.SUCCESSOR_ODD
    else:
        case = Case.GENERIC
    return CaseTag(n=n, case=case, p=p, q=q, even=even)
