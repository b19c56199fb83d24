"""Exact cohomology of products of projective spaces and their Calabi-Yau hypersurfaces.

The integral cohomology ring of ``V = CP^{d_1} x ... x CP^{d_k}`` is
``Z[u_1, ..., u_k] / (u_1^{d_1 + 1}, ..., u_k^{d_k + 1})``, where ``u_i``
is the hyperplane class of the i-th factor.  Because the relations are
monomial, the quotient is modelled exactly by integer polynomials with a
per-variable exponent cap: any product monomial exceeding a cap is zero
and is silently dropped.

The tangent bundle of ``V`` splits stably into ``d_i + 1`` copies of the
hyperplane line bundle per factor, so the total Chern class is
``prod (1 + u_i)^{d_i + 1}`` and the degree-2j power-sum class is
``sum (d_i + 1) u_i^j``.  The anticanonical hypersurface ``N`` dual to
``c_1(V)`` has ``c_1(N) = 0``; all of its characteristic numbers are
evaluated on ``V`` by multiplying with ``c_1(V)`` (the class dual to N)
and pairing with the fundamental class, so ``N`` itself is never
constructed.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Mapping

from .partitions import Partition, check_budget, count_partitions, enumerate_partitions

# Largest accepted ``prod(d_i + 1) * n`` (ring monomials times degree) for
# the hypersurface evaluators.  (1,)*16, 2**16 monomials in degree 16, is
# admitted (its s-number takes about 1 s on a 2-core VM); one more part of
# size 1 is refused.
RING_COST_BUDGET = 2**21
# Largest accepted ``p(n - 1) * prod(d_i + 1)**2`` for a Chern-number table.
# (1,)*12 and (50,), about 2 s and 1 s on a 2-core VM, are admitted; (60,),
# with p(59) = 831,820 entries, and (1,)*13 are refused.
CHERN_TABLE_BUDGET = 2**30


class ProjectiveProduct:
    """A product of complex projective spaces ``CP^{d_1} x ... x CP^{d_k}``.

    Factor dimensions are kept in the canonical (weakly decreasing)
    order of the indexing partition, so ``u_1`` always belongs to the
    largest factor.
    """

    __slots__ = ("dims", "k", "n")

    def __init__(self, dims: Iterable[int]):
        self.dims = Partition(dims)
        self.k = len(self.dims)
        self.n = self.dims.n

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ProjectiveProduct) and self.dims == other.dims

    def __hash__(self) -> int:
        return hash(self.dims)

    def __repr__(self) -> str:
        return " x ".join(f"CP^{d}" for d in self.dims)

    @property
    def top_monomial(self) -> tuple[int, ...]:
        """Exponent vector of the top class ``u_1^{d_1} ... u_k^{d_k}``."""
        return tuple(self.dims)

    def one(self) -> "TruncatedPolynomial":
        return TruncatedPolynomial(self, {(0,) * self.k: 1})

    def generator(self, i: int) -> "TruncatedPolynomial":
        """The hyperplane class ``u_i`` (0-based factor index)."""
        if not 0 <= i < self.k:
            raise IndexError(f"factor index {i} out of range for {self!r}")
        exps = [0] * self.k
        exps[i] = 1
        return TruncatedPolynomial(self, {tuple(exps): 1})

    def first_chern_class(self) -> "TruncatedPolynomial":
        """``c_1(V) = sum (d_i + 1) u_i``, the degree-1 power sum."""
        return power_sum_direct(self, 1)


class TruncatedPolynomial:
    """Element of the exponent-capped polynomial model of ``H*(V; Z)``.

    ``terms`` maps exponent vectors to nonzero integer coefficients; no
    stored exponent exceeds its cap.  Instances are treated as immutable.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space: ProjectiveProduct, terms: Mapping[tuple[int, ...], int]):
        caps = space.dims
        self.space = space
        self.terms = {
            e: c
            for e, c in terms.items()
            if c != 0 and all(map(operator.le, e, caps))
        }

    def is_zero(self) -> bool:
        return not self.terms

    def graded_part(self, degree: int) -> "TruncatedPolynomial":
        """Terms of total polynomial degree ``degree`` (cohomological degree 2*degree)."""
        return TruncatedPolynomial(
            self.space, {e: c for e, c in self.terms.items() if sum(e) == degree}
        )

    def _check_space(self, other: "TruncatedPolynomial") -> None:
        if self.space != other.space:
            raise ValueError(f"mixed ambient spaces: {self.space!r} vs {other.space!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedPolynomial):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    def __add__(self, other: "TruncatedPolynomial") -> "TruncatedPolynomial":
        self._check_space(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return TruncatedPolynomial(self.space, out)

    def __neg__(self) -> "TruncatedPolynomial":
        return TruncatedPolynomial(self.space, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "TruncatedPolynomial") -> "TruncatedPolynomial":
        return self + (-other)

    def __mul__(self, other: "TruncatedPolynomial | int") -> "TruncatedPolynomial":
        if isinstance(other, int):
            return TruncatedPolynomial(
                self.space, {e: c * other for e, c in self.terms.items()}
            )
        self._check_space(other)
        caps = self.space.dims
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(operator.add, e1, e2))
                if all(map(operator.le, e, caps)):
                    out[e] = out.get(e, 0) + c1 * c2
        return TruncatedPolynomial(self.space, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "TruncatedPolynomial":
        if exponent < 0:
            raise ValueError("negative powers are not defined in the quotient ring")
        result = self.space.one()
        for _ in range(exponent):
            result = result * self
        return result

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        names = [f"u{i + 1}" for i in range(self.space.k)]
        bits = []
        for e, c in sorted(self.terms.items()):
            mon = "*".join(
                f"{name}^{a}" if a > 1 else name for name, a in zip(names, e) if a
            )
            bits.append(f"{c}" if not mon else f"{c}*{mon}")
        return " + ".join(bits)


def fundamental_pairing(x: TruncatedPolynomial) -> int:
    """Evaluate a class against the fundamental homology class of its space.

    Equals the coefficient of the top monomial ``u_1^{d_1} ... u_k^{d_k}``;
    lower-degree terms pair to zero.
    """
    return x.terms.get(x.space.top_monomial, 0)


def chern_total(space: ProjectiveProduct) -> TruncatedPolynomial:
    """Total Chern class ``prod (1 + u_i)^{d_i + 1}`` of the tangent bundle.

    The result is ``1 + c_1 + c_2 + ...`` in the truncated ring; ``c_j`` is
    its ``graded_part(j)``, zero above the ring's top degree.
    """
    total = space.one()
    for i, d in enumerate(space.dims):
        line = space.one() + space.generator(i)
        total = total * line ** (d + 1)
    return total


def power_sum_direct(space: ProjectiveProduct, j: int) -> TruncatedPolynomial:
    """Degree-2j power sum ``sum (d_i + 1) u_i^j`` of the tangent line classes.

    The tangent bundle of the product splits stably into ``d_i + 1``
    hyperplane lines per factor, so the power sum is read off directly,
    with no Newton identities on the total Chern class.
    """
    if j < 1:
        raise ValueError(f"need j >= 1, got {j}")
    k = space.k
    # the constructor drops u_i^j for j > d_i
    terms = {(0,) * i + (j,) + (0,) * (k - 1 - i): d + 1 for i, d in enumerate(space.dims)}
    return TruncatedPolynomial(space, terms)


def _pair(x: TruncatedPolynomial, y: TruncatedPolynomial) -> int:
    """``<x * y, [V]>`` as ``sum x_e * y_{top - e}``: one lookup per term, not per term pair."""
    if len(y.terms) < len(x.terms):
        x, y = y, x
    top = x.space.top_monomial
    get = y.terms.get
    return sum(c * get(tuple(map(operator.sub, top, e)), 0) for e, c in x.terms.items())


def _check_ring_cost(sigma: Partition) -> None:
    # Pre-flight refusal, before any ring arithmetic, shared by every
    # hypersurface evaluator: n < 2 has no hypersurface to evaluate, and a
    # huge part or many parts would otherwise run for hours (or, for a
    # 20-digit part, never end).
    if sigma.n < 2:
        raise ValueError(f"need a partition of n >= 2, got {sigma}")
    sizes = (*(d + 1 for d in sigma), sigma.n)
    check_budget(sigma, "prod(d_i + 1) * n", "ring cost", RING_COST_BUDGET, sizes)


def hypersurface_s_number(sigma: Partition | Iterable[int]) -> int:
    """s-number of the anticanonical Calabi-Yau hypersurface indexed by sigma.

    For ``N`` dual to ``c_1`` inside ``V``, the normal bundle of the
    embedding is the restriction of the anticanonical line bundle, so
    ``s_{n-1}(N)`` pushes forward to
    ``< s_{n-1}(V) c_1(V) - c_1(V)^n , [V] >``, evaluated here purely by
    ring arithmetic, with ``<c_1^n, [V]>`` paired as ``c_1^a`` times
    ``c_1^{n - a}``, ``a = ceil(n / 2)``.  Raises ``ValueError`` when
    ``n < 2`` or when ``prod(d_i + 1) * n`` exceeds :data:`RING_COST_BUDGET`.
    """
    sigma = Partition(sigma)
    _check_ring_cost(sigma)
    space = ProjectiveProduct(sigma)
    n = space.n
    c1 = space.first_chern_class()
    powers = [c1]  # c_1^1, ..., c_1^{ceil(n / 2)}
    while len(powers) < n - n // 2:
        powers.append(powers[-1] * c1)
    return _pair(power_sum_direct(space, n - 1), c1) - _pair(powers[-1], powers[n // 2 - 1])


def hypersurface_chern_classes(
    sigma: Partition | Iterable[int],
) -> tuple[ProjectiveProduct, list[TruncatedPolynomial]]:
    """Chern classes of the hypersurface, as classes on the ambient space.

    The normal bundle of ``N`` is the restriction of the line bundle with
    first Chern class ``c_1 = c_1(V)``, so ``c(V)|_N = c(N) (1 + c_1)``.
    Comparing degrees gives ``c_j(N) = c_j(V) - c_1 c_{j-1}(N)`` from
    ``c_0(N) = 1``: one product with the linear class ``c_1`` per degree.
    Since ``1 + c_1`` is a unit, these are exactly the graded parts of
    ``c(V) / (1 + c_1)`` in the ambient ring.  Returns the ambient space
    and the list ``[c_1(N), ..., c_{n-1}(N)]`` of representatives.
    Raises ``ValueError`` when ``n < 2`` or when ``prod(d_i + 1) * n``
    exceeds :data:`RING_COST_BUDGET`.
    """
    sigma = Partition(sigma)
    _check_ring_cost(sigma)
    space = ProjectiveProduct(sigma)
    c1 = space.first_chern_class()
    total = chern_total(space)
    classes = [space.one()]
    for j in range(1, space.n):
        classes.append(total.graded_part(j) - c1 * classes[-1])
    return space, classes[1:]


def hypersurface_chern_numbers(sigma: Partition | Iterable[int]) -> dict[Partition, int]:
    """All tangential Chern numbers of the hypersurface indexed by sigma.

    Keys are partitions ``omega`` of ``n - 1`` in ``enumerate_partitions``
    order: the key ``(3, 1, 1)`` denotes the number ``c_1^2 c_3 [N]``.
    Each value pairs the product of the classes of all but the last
    (smallest) index, shared with the previous key where their prefixes
    agree, with the closing class ``c_last(N) c_1(V)``, ``c_1(V)`` being
    dual to ``N``.  A zero closing class, as ``c_1(N) = 0`` is for every
    key with a part 1, gives 0 with no product.  The key ``(n - 1,)`` is
    the Euler characteristic.  Inputs with ``n < 2`` or over the ring or
    Chern-table budget are refused with ``ValueError`` before any work.
    """
    sigma = Partition(sigma)
    # the ring check comes first, so a huge part never reaches count_partitions
    _check_ring_cost(sigma)
    sizes = [d + 1 for d in sigma] * 2 + [count_partitions(sigma.n - 1)]
    check_budget(sigma, "p(n - 1) * prod(d_i + 1)**2", "Chern-table", CHERN_TABLE_BUDGET, sizes)
    space, classes = hypersurface_chern_classes(sigma)
    c1 = space.first_chern_class()
    closers = [c * c1 for c in classes]
    numbers = dict.fromkeys(enumerate_partitions(space.n - 1), 0)
    # products[i] is the product of the classes named by prefix[:i]
    prefix: tuple[int, ...] = ()
    products = [space.one()]
    for omega in numbers:
        closer = closers[omega[-1] - 1]
        if closer.is_zero():
            continue
        # prefix sums to less than omega, so they differ before omega runs out
        shared = 0
        while shared < len(prefix) and prefix[shared] == omega[shared]:
            shared += 1
        prefix = omega[:-1]
        del products[shared + 1 :]
        for index in prefix[shared:]:
            products.append(products[-1] * classes[index - 1])
        numbers[omega] = _pair(products[-1], closer)
    return numbers


def hypersurface_euler_characteristic(sigma: Partition | Iterable[int]) -> int:
    """Euler characteristic of the hypersurface: its top Chern number.

    Refuses the inputs :func:`hypersurface_chern_classes` refuses.
    """
    space, classes = hypersurface_chern_classes(sigma)
    return _pair(classes[-1], space.first_chern_class())
