"""Exact cohomology of products of projective spaces and their Calabi-Yau hypersurfaces.

The integral cohomology ring of ``V = CP^{d_1} x ... x CP^{d_k}`` is
``Z[u_1, ..., u_k] / (u_1^{d_1 + 1}, ..., u_k^{d_k + 1})``, where ``u_i``
is the hyperplane class of the i-th factor.

The tangent bundle of ``V`` splits stably into ``d_i + 1`` hyperplane line
bundles per factor, so the total Chern class is ``prod (1 + u_i)^{d_i + 1}``
and the degree-2j power-sum class is ``sum (d_i + 1) u_i^j``.  The
anticanonical hypersurface ``N`` dual to ``c_1(V)`` has ``c_1(N) = 0``; its
characteristic numbers are evaluated on ``V`` by multiplying with ``c_1(V)``
and pairing with the fundamental class, so ``N`` is never constructed.

The evaluators work in :class:`_OrbitRing`: every class they use is
unchanged by permuting equal factors, so it is stored once per orbit of
monomials under those permutations.  The dense model, one term per
monomial (:class:`TruncatedPolynomial` and its helpers), is in
:mod:`cybordism.dense`; its names still resolve here, and the module is
only compiled when one of them is first asked for.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import cache
from itertools import combinations_with_replacement, groupby, product
from math import comb, factorial, prod

from . import _EXPORTS
from .partitions import (
    Partition, check_budget, count_partitions, enumerate_partitions, generator_partitions,
    multinomial, weighted_multinomial,
)

# Largest accepted ``prod(d_i + 1) * n`` (dense monomials times degree) for the
# evaluators: (1,)*16 is admitted, one more part 1 is refused.  Both budgets count
# dense monomials; in the orbit basis (1,)*16 has 17 orbits and its s-number takes
# under 1 ms on a 2-core VM.
RING_COST_BUDGET = 2**21
# Largest accepted ``p(n - 1) * prod(d_i + 1)**2`` for a Chern-number table.
# (1,)*12 and (50,), about 0.01 s and 0.7 s on a 2-core VM, are admitted;
# (60,), with p(59) = 831,820 entries, and (1,)*13 are refused.
CHERN_TABLE_BUDGET = 2**30
# Largest n for which verify_alpha builds the all-ones partition to check it
# against the ring budget; every n >= 17 is refused either way.
ALPHA_MAX_N = 100


def __getattr__(name: str):
    # the dense model's names, as the package exports them, resolve here on first access (PEP 562)
    if _EXPORTS.get(name) != "dense":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import dense

    return getattr(dense, name)


class _Memo(dict):
    """A dict that fills a missing key with ``fill(key)``."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _rearrangements(values: list[int]) -> Iterator[tuple[int, ...]]:
    # the distinct permutations of ascending ``values``, in lexicographic order
    while True:
        yield tuple(values)
        i = len(values) - 2
        while i >= 0 and values[i] >= values[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(values) - 1
        while values[j] <= values[i]:
            j -= 1
        values[i], values[j] = values[j], values[i]
        values[i + 1 :] = reversed(values[i + 1 :])


@cache
def _block_table(d: int, m: int) -> dict[int, tuple[tuple[tuple[int, int], ...], int, int]]:
    """Each ascending state v of a block of ``m`` parts ``d``, by its sub-key: its
    ``c_1`` raises as (relative unit, multiplier) pairs, its orbit size, and the
    sub-key of its complement ``sorted(d - v)``.  Raising the last ``v_i < d``
    keeps v ascending, and any of the ``v_i + 1`` of the target could have been
    the one raised by ``(d + 1) u_i``."""
    width, table = d.bit_length() + 1, {}
    for state in combinations_with_replacement(range(d + 1), m):
        last = [i for i in range(m) if state[i] < d and (i + 1 == m or state[i + 1] > state[i])]
        raises = tuple((1 << i * width, (d + 1) * (state.count(state[i] + 1) + 1)) for i in last)
        size = factorial(m) // prod(factorial(len(list(run))) for _, run in groupby(state))
        complement = sum(d - v << i * width for i, v in enumerate(reversed(state)))
        table[sum(v << i * width for i, v in enumerate(state))] = raises, size, complement
    return table


class _OrbitRing:
    """The block-symmetric classes of ``H*(V; Z)``, in the basis of orbit sums.

    Equal parts of sigma form blocks, and permuting the factors within a
    block fixes every class the evaluators use: ``c_1``, ``c(V)``, the
    power sums and each ``c_j(N)``.  A basis element is the sum of the
    monomials in one orbit of those permutations; an element is a dict
    from orbit to the coefficient each of its monomials carries.  A block
    of ``m`` parts ``d`` has ``C(m + d, d)`` orbits, so ``(1,)*k`` has
    ``k + 1`` where the dense model has ``2**k`` monomials.

    A monomial is an int with one bit field per factor, in sigma's
    order, each with a guard bit: two monomials multiply by one integer
    addition, and an exponent past its cap sets a guard bit.  An orbit
    is named by its representative, the monomial whose exponents ascend
    within each block.  A block's fields are contiguous and equally wide,
    so its part of a key, shifted down, is a state of its
    :func:`_block_table` at any offset: one table serves every ring.
    :meth:`times_c1` reads its raises, and :meth:`pair` counts each orbit
    ``|O|`` times against the orbit of its complement, read from the tables.

    Only structure constants of the ring enter, never the
    weighted-multinomial formula, so the s-numbers stay a check on it.
    The coefficient of orbit T in ``x y`` counts how a monomial of T
    splits into monomials of the orbits of x and y.  Summed over the
    ``|T|`` monomials of T, that is ``|A|`` times the number of monomials
    b of the orbit of y with ``a + b`` in T, for the representative a of
    an orbit A of x; :meth:`mul` accumulates those counts and divides by
    ``|T|``, the sizes read from the tables.
    """

    def __init__(self, sigma: Partition):
        self.sigma = sigma
        self.n = sigma.n
        self.fields: list[tuple[int, int]] = []  # (shift, mask) per factor
        self.blocks: list[tuple[int, int, int]] = []  # (d, first factor, end)
        self.tables = []  # (shift, mask, _block_table) per block
        shift = bias = guard = 0
        for d, run in groupby(sigma):
            m, width, start = len(list(run)), d.bit_length() + 1, len(self.fields)
            self.blocks.append((d, start, start + m))
            self.tables.append((shift, (1 << width * m) - 1, _block_table(d, m)))
            for _ in range(m):
                self.fields.append((shift, (1 << width) - 1))
                # the digit a + b + bias reaches the guard bit iff a + b > d
                bias |= ((1 << width - 1) - 1 - d) << shift
                guard |= 1 << shift + width - 1
                shift += width
        self.bias, self.guard = bias, guard
        # with distinct parts every orbit is one monomial of size 1
        self.symmetric = len(self.blocks) < len(sigma)
        self.canonical = _Memo(self._canonical)
        self.members = _Memo(self._members)
        self.c1 = self.power_sum(1)

    def _pack(self, exponents: Iterable[int]) -> int:
        return sum(e << shift for e, (shift, _) in zip(exponents, self.fields))

    def _unpack(self, key: int) -> list[int]:
        return [(key >> shift) & mask for shift, mask in self.fields]

    def _canonical(self, key: int) -> int:
        exponents = self._unpack(key)
        for _, start, end in self.blocks:
            exponents[start:end] = sorted(exponents[start:end])
        return self._pack(exponents)

    def _members(self, key: int) -> list[int]:
        exponents = self._unpack(key)
        blocks = [_rearrangements(exponents[start:end]) for _, start, end in self.blocks]
        return [self._pack(sum(pieces, ())) for pieces in product(*blocks)]

    def keys(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Every orbit, with its representative's exponents in sigma's order."""
        blocks = (combinations_with_replacement(range(d + 1), end - start) for d, start, end in self.blocks)
        for pieces in product(*blocks):
            exponents = sum(pieces, ())
            yield self._pack(exponents), exponents

    def power_sum(self, j: int) -> dict[int, int]:
        """``sum (d_i + 1) u_i^j``: per block with ``j <= d``, ``d + 1`` times one orbit."""
        return {j << self.fields[end - 1][0]: d + 1 for d, _, end in self.blocks if j <= d}

    def chern_classes(self) -> list[dict[int, int]]:
        """``[c_1(N), ..., c_{n-1}(N)]`` by ``c_j(N) = c_j(V) - c_1 c_{j-1}(N)``; a monomial
        ``u^e`` of ``c(V) = prod (1 + u_i)^{d_i + 1}`` carries ``prod C(d_i + 1, e_i)``."""
        caps = [d + 1 for d in self.sigma]
        total: list[dict[int, int]] = [{} for _ in range(self.n)]
        for key, exponents in self.keys():
            degree = sum(exponents)
            if degree < self.n:
                total[degree][key] = prod(map(comb, caps, exponents))
        classes = [total[0]]
        for part in total[1:]:
            out = dict(part)
            for key, coeff in self.times_c1(classes[-1]).items():
                out[key] = out.get(key, 0) - coeff
            classes.append({key: coeff for key, coeff in out.items() if coeff})
        return classes[1:]

    def size(self, key: int) -> int:
        """The number of monomials in the orbit of ``key``."""
        size = 1
        for shift, mask, table in self.tables:
            size *= table[key >> shift & mask][1]
        return size

    def times_c1(self, x: dict[int, int]) -> dict[int, int]:
        """``c_1 x``, one exponent raised per term of ``c_1``, read from the block tables."""
        out: dict[int, int] = {}
        for key, coeff in x.items():
            for shift, mask, table in self.tables:
                for unit, c in table[key >> shift & mask][0]:
                    target = key + (unit << shift)
                    out[target] = out.get(target, 0) + c * coeff
        return {key: coeff for key, coeff in out.items() if coeff}

    def mul(self, x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
        """``x y``: each orbit of x times every monomial of y, the cheaper way round."""
        bias, guard, symmetric = self.bias, self.guard, self.symmetric
        size, canonical = self.size, self.canonical
        if symmetric:
            if len(x) * sum(map(size, y)) > len(y) * sum(map(size, x)):
                x, y = y, x
            ys = [(b, cb) for key, cb in y.items() for b in self.members[key]]
        else:
            ys = list(y.items())
        out: dict[int, int] = {}
        for a, ca in x.items():
            if symmetric:
                ca *= size(a)
            a += bias
            for b, cb in ys:
                t = a + b
                if t & guard:
                    continue
                t -= bias
                if symmetric:
                    t = canonical[t]
                out[t] = out.get(t, 0) + ca * cb
        if symmetric:
            return {t: c // size(t) for t, c in out.items() if c}
        return {t: c for t, c in out.items() if c}

    def pair(self, x: dict[int, int], y: dict[int, int]) -> int:
        """``<x y, [V]>`` as ``sum |O| x_O y_O'`` over the orbits O of x, O' the complement of O."""
        if len(y) < len(x):
            x, y = y, x
        get = y.get
        total = 0
        for key, coeff in x.items():
            complement = 0
            for shift, mask, table in self.tables:
                _, size, rest = table[key >> shift & mask]
                coeff *= size
                complement |= rest << shift
            total += coeff * get(complement, 0)
        return total


def _check_ring_cost(sigma: Partition) -> None:
    # Pre-flight refusal, before any ring arithmetic, shared by every evaluator:
    # n < 2 has no hypersurface, and a huge part or many parts would otherwise
    # run for hours (or, for a 20-digit part, never end).
    if sigma.n < 2:
        raise ValueError(f"need a partition of n >= 2, got {sigma}")
    sizes = (*(d + 1 for d in sigma), sigma.n)
    check_budget(sigma, "prod(d_i + 1) * n", "ring cost", RING_COST_BUDGET, sizes)


def hypersurface_s_number(sigma: Partition | Iterable[int]) -> int:
    """s-number of the anticanonical Calabi-Yau hypersurface indexed by sigma.

    For ``N`` dual to ``c_1`` inside ``V``, the normal bundle of the embedding
    is the restriction of the anticanonical line bundle, so ``s_{n-1}(N)``
    pushes forward to ``< s_{n-1}(V) c_1(V) - c_1(V)^n , [V] >``, evaluated in
    the orbit basis of :class:`_OrbitRing` with ``<c_1^n, [V]>`` paired as
    ``c_1^a`` times ``c_1^{n - a}``, ``a = ceil(n / 2)``.  Raises ``ValueError``
    when ``n < 2`` or ``prod(d_i + 1) * n`` exceeds :data:`RING_COST_BUDGET`.
    """
    sigma = Partition(sigma)
    _check_ring_cost(sigma)
    ring = _OrbitRing(sigma)
    n, c1 = ring.n, ring.c1
    powers = [c1]  # c_1^1, ..., c_1^{ceil(n / 2)}
    while len(powers) < n - n // 2:
        powers.append(ring.times_c1(powers[-1]))
    return ring.pair(ring.power_sum(n - 1), c1) - ring.pair(powers[-1], powers[n // 2 - 1])


AlphaRow = namedtuple("AlphaRow", "partition multinomial alpha s_number match")
AlphaReport = namedtuple("AlphaReport", "n rows passed")


def verify_alpha(n: int) -> AlphaReport:
    """Each capped partition of n, with its multinomial, its weighted multinomial
    ``alpha``, its ring s-number, and whether that is ``-alpha``.  An ``n`` over
    :data:`ALPHA_MAX_N`, or whose all-ones partition (the costliest ring, as
    ``prod(d_i + 1) <= 2**n``) is over the ring budget, is refused first."""
    if n > ALPHA_MAX_N:
        raise ValueError(f"need n <= {ALPHA_MAX_N} (the alpha budget), got {n}")
    if n >= 3:
        _check_ring_cost(Partition([1] * n))
    rows = []
    for sigma in generator_partitions(n):
        alpha, s_number = weighted_multinomial(sigma), hypersurface_s_number(sigma)
        rows.append(AlphaRow(sigma, multinomial(sigma), alpha, s_number, s_number == -alpha))
    return AlphaReport(n, tuple(rows), all(row.match for row in rows))


def hypersurface_chern_numbers(sigma: Partition | Iterable[int]) -> dict[Partition, int]:
    """All tangential Chern numbers of the hypersurface indexed by sigma.

    Keys are partitions ``omega`` of ``n - 1`` in ``enumerate_partitions``
    order: the key ``(3, 1, 1)`` denotes the number ``c_1^2 c_3 [N]``.
    The classes ``c_j(N)`` are the ambient representatives of
    :meth:`_OrbitRing.chern_classes`.  Each value pairs the product of
    the classes of all but the last (smallest) index, shared with the
    previous key where their prefixes agree, with the closing class
    ``c_last(N) c_1(V)``, ``c_1(V)`` being dual to ``N``.  A zero closing
    class, as ``c_1(N) = 0`` is for every key with a part 1, gives 0 with
    no product.  The key ``(n - 1,)`` is the Euler characteristic.
    Inputs with ``n < 2`` or over the ring or Chern-table budget are
    refused with ``ValueError`` before any work.
    """
    sigma = Partition(sigma)
    # the ring check comes first, so a huge part never reaches count_partitions
    _check_ring_cost(sigma)
    sizes = [d + 1 for d in sigma] * 2 + [count_partitions(sigma.n - 1)]
    check_budget(sigma, "p(n - 1) * prod(d_i + 1)**2", "Chern-table", CHERN_TABLE_BUDGET, sizes)
    ring = _OrbitRing(sigma)
    classes = ring.chern_classes()
    closers = [ring.times_c1(c) for c in classes]
    numbers = dict.fromkeys(enumerate_partitions(ring.n - 1), 0)
    # products[i] is the product of the classes named by prefix[:i]
    prefix: tuple[int, ...] = ()
    products = [{0: 1}]  # the orbit of exponents 0 has key 0
    for omega in numbers:
        closer = closers[omega[-1] - 1]
        if not closer:
            continue
        # prefix sums to less than omega, so they differ before omega runs out
        shared = 0
        while shared < len(prefix) and prefix[shared] == omega[shared]:
            shared += 1
        prefix = omega[:-1]
        del products[shared + 1 :]
        for index in prefix[shared:]:
            products.append(ring.mul(products[-1], classes[index - 1]))
        numbers[omega] = ring.pair(products[-1], closer)
    return numbers


def hypersurface_euler_characteristic(sigma: Partition | Iterable[int]) -> int:
    """Euler characteristic of the hypersurface, its top Chern number; refuses the
    inputs :func:`hypersurface_s_number` refuses."""
    sigma = Partition(sigma)
    _check_ring_cost(sigma)
    ring = _OrbitRing(sigma)
    return ring.pair(ring.chern_classes()[-1], ring.c1)
