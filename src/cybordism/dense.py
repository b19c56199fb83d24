"""The dense model of ``H*(V; Z)``, one term per monomial.

``V = CP^{d_1} x ... x CP^{d_k}`` has the integral cohomology ring
``Z[u_1, ..., u_k] / (u_1^{d_1 + 1}, ..., u_k^{d_k + 1})``.  The relations
are monomial, so :class:`TruncatedPolynomial` models the quotient exactly
by integer polynomials with a per-variable exponent cap: any product
monomial past a cap is zero and is dropped.  The evaluators in
:mod:`cybordism.cohomology` do not use this model; it serves the tests'
slow routes and the library's users, and it is compiled only when one of
its names is first asked for.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Mapping

from .partitions import Partition


class ProjectiveProduct:
    """A product of complex projective spaces ``CP^{d_1} x ... x CP^{d_k}``, factors
    weakly decreasing as in the indexing partition: ``u_1`` is the largest one's."""

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
        self.terms = {e: c for e, c in terms.items() if c != 0 and all(map(operator.le, e, caps))}

    def is_zero(self) -> bool:
        return not self.terms

    def graded_part(self, degree: int) -> "TruncatedPolynomial":
        """Terms of total polynomial degree ``degree`` (cohomological degree 2*degree)."""
        return TruncatedPolynomial(self.space, {e: c for e, c in self.terms.items() if sum(e) == degree})

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
            return TruncatedPolynomial(self.space, {e: c * other for e, c in self.terms.items()})
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
            mon = "*".join(f"{name}^{a}" if a > 1 else name for name, a in zip(names, e) if a)
            bits.append(f"{c}" if not mon else f"{c}*{mon}")
        return " + ".join(bits)


def fundamental_pairing(x: TruncatedPolynomial) -> int:
    """A class against the fundamental class of its space: the coefficient of the
    top monomial ``u_1^{d_1} ... u_k^{d_k}``, as lower degrees pair to zero."""
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
    """Degree-2j power sum ``sum (d_i + 1) u_i^j`` of the tangent line classes, read off
    the stable splitting into ``d_i + 1`` hyperplane lines per factor, with no Newton
    identities on the total Chern class."""
    if j < 1:
        raise ValueError(f"need j >= 1, got {j}")
    k = space.k
    # the constructor drops u_i^j for j > d_i
    terms = {(0,) * i + (j,) + (0,) * (k - 1 - i): d + 1 for i, d in enumerate(space.dims)}
    return TruncatedPolynomial(space, terms)
