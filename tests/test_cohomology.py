"""Truncated ring arithmetic and hypersurface characteristic numbers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cybordism.cohomology import (
    ProjectiveProduct,
    TruncatedPolynomial,
    _block_table,
    _check_ring_cost,
    _OrbitRing,
    chern_total,
    fundamental_pairing,
    hypersurface_chern_numbers,
    hypersurface_euler_characteristic,
    hypersurface_s_number,
    power_sum_direct,
    verify_alpha,
)
from cybordism.partitions import Partition, enumerate_partitions, weighted_multinomial


def test_fundamental_pairing_examples():
    p3 = ProjectiveProduct([3])
    assert fundamental_pairing(TruncatedPolynomial(p3, {(3,): 16})) == 16

    p111 = ProjectiveProduct([1, 1, 1])
    x = TruncatedPolynomial(p111, {(1, 1, 1): 3, (1, 0, 0): 1})
    assert fundamental_pairing(x) == 3

    p22 = ProjectiveProduct([2, 2])
    u1_plus_u2 = TruncatedPolynomial(p22, {(1, 0): 1, (0, 1): 1})
    assert fundamental_pairing(u1_plus_u2**4) == 6  # binomial(4, 2)


def test_chern_total_examples():
    p3 = ProjectiveProduct([3])
    assert chern_total(p3).terms == {(0,): 1, (1,): 4, (2,): 6, (3,): 4}

    p11 = ProjectiveProduct([1, 1])
    assert chern_total(p11).terms == {
        (0, 0): 1,
        (1, 0): 2,
        (0, 1): 2,
        (1, 1): 4,
    }

    p21 = ProjectiveProduct([2, 1])
    c1 = chern_total(p21).graded_part(1)
    assert c1.terms == {(1, 0): 3, (0, 1): 2}
    assert c1 == p21.first_chern_class()


def test_chern_total_degree_zero_is_one():
    for dims in ((1,), (3,), (2, 1), (2, 2), (1, 1, 1)):
        space = ProjectiveProduct(dims)
        assert chern_total(space).graded_part(0) == space.one()


def test_power_sum_base_case_is_first_chern_class():
    for dims in ((3,), (2, 1), (1, 1, 1)):
        space = ProjectiveProduct(dims)
        chern = chern_total(space)
        assert oracles.power_sum_class(chern, 1) == chern.graded_part(1)


def test_power_sum_on_projective_space():
    p3 = ProjectiveProduct([3])
    newton = oracles.power_sum_class(chern_total(p3), 3)
    direct = power_sum_direct(p3, 3)
    assert newton == direct
    assert direct.terms == {(3,): 4}
    assert fundamental_pairing(newton) == 4


def test_power_sum_vanishes_on_p1_squared():
    p11 = ProjectiveProduct([1, 1])
    chern = chern_total(p11)
    c1, c2 = chern.graded_part(1), chern.graded_part(2)
    symbolic = c1 * c1 - c2 * 2
    assert oracles.power_sum_class(chern, 2) == symbolic
    assert symbolic.is_zero()
    assert power_sum_direct(p11, 2).is_zero()


def test_newton_matches_direct_power_sum_everywhere():
    for n in range(1, 9):
        for sigma in enumerate_partitions(n):
            space = ProjectiveProduct(sigma)
            chern = chern_total(space)
            for j in range(1, n + 1):
                assert oracles.power_sum_class(chern, j) == power_sum_direct(space, j), (
                    sigma,
                    j,
                )


def test_s_number_golden_values():
    assert hypersurface_s_number([3]) == -48
    assert hypersurface_s_number([1, 1, 1]) == -48
    assert hypersurface_s_number([2, 2]) == -486


def test_s_number_rejects_tiny_inputs():
    with pytest.raises(ValueError):
        hypersurface_s_number([1])
    with pytest.raises(ValueError, match="n >= 2"):
        hypersurface_chern_numbers([1])
    with pytest.raises(ValueError, match="n >= 2"):
        hypersurface_euler_characteristic([1])


def test_ring_cost_budget():
    # admitted: (1,)*16 and the largest inputs the tests and the benchmark run
    for parts in ((1,) * 16, (1,) * 13, (2,) * 6, (7, 6, 5), (10, 10), (20,), (60,)):
        _check_ring_cost(Partition(parts))
    for sigma in ((1,) * 17, (99999999999999999999,), (2,) * 14):
        with pytest.raises(ValueError, match="budget"):
            hypersurface_s_number(sigma)
        with pytest.raises(ValueError, match="budget"):
            hypersurface_chern_numbers(sigma)
        with pytest.raises(ValueError, match="budget"):
            hypersurface_euler_characteristic(sigma)
    # within the ring budget, but the table of p(n - 1) Chern numbers is not
    for sigma in ((60,), (1,) * 13):
        with pytest.raises(ValueError, match="Chern-table budget"):
            hypersurface_chern_numbers(sigma)


def test_verify_alpha_refuses_before_any_ring_work():
    report = verify_alpha(4)
    assert [(row.partition.label, row.alpha, row.s_number) for row in report.rows] == [
        ("2,2", 486, -486), ("1,1,2", 432, -432), ("1,1,1,1", 384, -384)
    ]
    assert report.passed and all(row.match for row in report.rows)
    _block_table.cache_clear()
    # the all-ones partition is over the ring budget from 17 on; past ALPHA_MAX_N
    # it is not even built
    refused = {17: "ring cost budget", 100: "ring cost budget", 101: "alpha budget", 10**10: "alpha budget"}
    for n, budget in refused.items():
        with pytest.raises(ValueError, match=budget):
            verify_alpha(n)
    assert _block_table.cache_info().currsize == 0  # no ring was built
    with pytest.raises(ValueError, match="need n >= 3"):
        verify_alpha(2)


def test_s_number_equals_negated_weighted_multinomial():
    for n in range(3, 10):
        for sigma in enumerate_partitions(n):
            if max(sigma) > n - 2:
                continue
            assert hypersurface_s_number(sigma) == -weighted_multinomial(sigma)


def test_s_number_matches_full_products():
    shapes = [sigma for n in range(2, 13) for sigma in enumerate_partitions(n)]
    for sigma in shapes + [Partition((1,) * 13), Partition((2,) * 6)]:
        assert hypersurface_s_number(sigma) == oracles.s_number_by_full_products(sigma), sigma


def test_hypersurface_first_chern_class_vanishes():
    for n in range(2, 9):
        for sigma in enumerate_partitions(n):
            assert _OrbitRing(sigma).chern_classes()[0] == {}, sigma


def test_chern_classes_match_inverse_series():
    shapes = [sigma for n in range(2, 9) for sigma in enumerate_partitions(n)]
    shapes += [Partition(parts) for parts in ((1,) * 8, (7, 6, 5), (10, 10))]
    for sigma in shapes:
        ring = _OrbitRing(sigma)
        expected = oracles.chern_classes_by_inverse_series(sigma)
        assert [oracles.expand(ring, c) for c in ring.chern_classes()] == expected, sigma
        assert oracles.hypersurface_chern_classes(sigma)[1] == expected, sigma


def test_chern_numbers_match_full_products():
    # same values in the same order: the CLI prints the table as iterated
    shapes = [sigma for n in range(2, 10) for sigma in enumerate_partitions(n)]
    shapes += [Partition(parts) for parts in ((7, 6, 5), (10, 10), (1,) * 10)]
    for sigma in shapes:
        table = hypersurface_chern_numbers(sigma)
        expected = oracles.chern_numbers_by_full_products(sigma)
        assert list(table.items()) == list(expected.items()), sigma


def test_chern_numbers_of_k3_hypersurfaces():
    quartic = hypersurface_chern_numbers([3])
    assert quartic == {Partition([2]): 24, Partition([1, 1]): 0}
    multidegree_two = hypersurface_chern_numbers([1, 1, 1])
    assert multidegree_two[Partition([2])] == 24
    assert multidegree_two[Partition([1, 1])] == 0


def test_k3_from_triple_product_degree_two_class():
    # c(N) restricted from prod(1 + 2 u_i) / (1 + 2(u1 + u2 + u3)):
    # the degree-2 piece is 4 (u1 u2 + u1 u3 + u2 u3)
    ring = _OrbitRing(Partition([1, 1, 1]))
    expected = TruncatedPolynomial(
        ProjectiveProduct([1, 1, 1]), {(1, 1, 0): 4, (1, 0, 1): 4, (0, 1, 1): 4}
    )
    assert oracles.expand(ring, ring.chern_classes()[1]) == expected
    assert oracles.hypersurface_chern_classes([1, 1, 1])[1][1] == expected


def test_chern_numbers_with_c1_vanish():
    for n in range(2, 9):
        for sigma in enumerate_partitions(n):
            numbers = hypersurface_chern_numbers(sigma)
            for omega, value in numbers.items():
                if 1 in omega:
                    assert value == 0, (sigma, omega)


def test_dimension_specific_identities():
    # complex dimension 3: s = 3 c_3; complex dimension 2: s = -2 c_2
    for sigma in enumerate_partitions(4):
        numbers = hypersurface_chern_numbers(sigma)
        assert 3 * numbers[Partition([3])] == hypersurface_s_number(sigma)
    for sigma in enumerate_partitions(3):
        numbers = hypersurface_chern_numbers(sigma)
        assert -2 * numbers[Partition([2])] == hypersurface_s_number(sigma)


def test_todd_genus_of_chern_table():
    # chi(O_N) = chi(O_V) - chi(K_V) = 1 - (-1)^n for N anticanonical in V
    for n in range(2, 10):
        todd = oracles.todd_polynomial(n - 1)
        for sigma in enumerate_partitions(n):
            numbers = hypersurface_chern_numbers(sigma)
            assert sum(t * numbers[omega] for omega, t in todd.items()) == 1 - (-1) ** n, sigma


def test_todd_polynomial_low_degrees():
    assert oracles.todd_polynomial(1) == {(1,): Fraction(1, 2)}
    assert oracles.todd_polynomial(2) == {(2,): Fraction(1, 12), (1, 1): Fraction(1, 12)}
    assert oracles.todd_polynomial(3) == {(2, 1): Fraction(1, 24)}
    assert oracles.todd_polynomial(4) == {
        (4,): Fraction(-1, 720),
        (3, 1): Fraction(1, 720),
        (2, 2): Fraction(3, 720),
        (2, 1, 1): Fraction(4, 720),
        (1, 1, 1, 1): Fraction(-1, 720),
    }


def test_euler_characteristics():
    assert hypersurface_euler_characteristic([3]) == 24  # K3
    assert hypersurface_euler_characteristic([2, 1]) == 24  # K3 again
    assert hypersurface_euler_characteristic([4]) == -200  # quintic threefold
    assert hypersurface_euler_characteristic([2, 2]) == -162
    assert hypersurface_euler_characteristic([1, 1, 1, 1]) == -128
    assert hypersurface_euler_characteristic([1, 1]) == 0  # elliptic curve


def test_euler_matches_top_chern_number():
    for n in range(2, 8):
        for sigma in enumerate_partitions(n):
            numbers = hypersurface_chern_numbers(sigma)
            assert (
                hypersurface_euler_characteristic(sigma)
                == numbers[Partition([n - 1])]
            )


# --- ring laws -------------------------------------------------------------

spaces = st.sampled_from(
    [ProjectiveProduct(d) for d in ((2,), (3,), (1, 1), (2, 1), (2, 2), (1, 1, 1))]
)


def polynomials(space: ProjectiveProduct) -> st.SearchStrategy[TruncatedPolynomial]:
    exponents = st.tuples(
        *[st.integers(min_value=0, max_value=cap) for cap in space.dims]
    )
    return st.dictionaries(
        exponents, st.integers(min_value=-9, max_value=9), max_size=6
    ).map(lambda terms: TruncatedPolynomial(space, terms))


pairs = spaces.flatmap(lambda s: st.tuples(polynomials(s), polynomials(s)))
triples = spaces.flatmap(
    lambda s: st.tuples(polynomials(s), polynomials(s), polynomials(s))
)


@settings(max_examples=60)
@given(triples)
def test_ring_laws(triple):
    a, b, c = triple
    assert a * b == TruncatedPolynomial(a.space, oracles.uncapped_product(a, b))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert (a - b) + b == a


@settings(max_examples=60)
@given(pairs)
def test_pair_is_fundamental_pairing_of_product(pair):
    x, y = pair
    assert oracles.pair(x, y) == fundamental_pairing(x * y)


# the block shapes cover orbit blocks beside distinct parts, two orbit
# blocks, blocks of two equal parts, and distinct parts alone
orbit_rings = st.sampled_from(
    [
        _OrbitRing(Partition(parts))
        for parts in ((1, 1, 1), (2, 2, 1), (1, 1, 2, 2), (1, 1, 1, 3), (1, 1, 1, 2, 2, 2), (3, 2))
    ]
)


def orbit_elements(ring: _OrbitRing) -> st.SearchStrategy[dict]:
    keys = [key for key, _ in ring.keys()]
    return st.dictionaries(st.sampled_from(keys), st.integers(min_value=-9, max_value=9), max_size=6)


@settings(max_examples=80)
@given(orbit_rings.flatmap(lambda r: st.tuples(st.just(r), orbit_elements(r), orbit_elements(r))))
def test_orbit_product_matches_dense_product(case):
    ring, x, y = case
    dense_x, dense_y = oracles.expand(ring, x), oracles.expand(ring, y)
    assert oracles.expand(ring, ring.mul(x, y)) == dense_x * dense_y
    assert ring.pair(x, y) == fundamental_pairing(dense_x * dense_y)
    c1 = dense_x.space.first_chern_class()
    assert oracles.expand(ring, ring.times_c1(x)) == dense_x * c1
    assert oracles.expand(ring, ring.c1) == c1


def test_block_tables_match_dense_products_at_every_offset():
    # Each (d, m) table is built in the first ring that has the block and
    # reused, at another bit offset, in a later one: where no partition of
    # n <= 8 puts the block behind a larger part, (d + 1, d, ..., d) does.
    def record(ring, offsets):
        for (d, start, end), (shift, _, _) in zip(ring.blocks, ring.tables):
            offsets.setdefault((d, end - start), []).append(shift)

    shapes = [sigma for n in range(2, 9) for sigma in enumerate_partitions(n)]
    first: dict[tuple[int, int], list[int]] = {}
    for sigma in shapes:
        record(_OrbitRing(sigma), first)
    shapes += [Partition((d + 1,) + (d,) * m) for (d, m), seen in first.items() if len(set(seen)) == 1]
    _block_table.cache_clear()
    offsets: dict[tuple[int, int], list[int]] = {}
    for sigma in shapes:
        ring = _OrbitRing(sigma)
        record(ring, offsets)
        keys = [key for key, _ in ring.keys()]
        generic = {key: i + 1 for i, key in enumerate(keys)}
        dense_generic = oracles.expand(ring, generic)
        c1 = dense_generic.space.first_chern_class()
        for key in keys:
            dense = oracles.expand(ring, {key: 1})
            assert oracles.expand(ring, ring.times_c1({key: 1})) == dense * c1, (sigma, key)
            assert ring.pair({key: 1}, generic) == oracles.pair(dense, dense_generic), (sigma, key)
        assert ring.pair(generic, generic) == oracles.pair(dense_generic, dense_generic), sigma
        power, dense_power = ring.c1, c1
        for _ in range(ring.n):
            assert oracles.expand(ring, power) == dense_power, sigma
            assert ring.pair(power, ring.c1) == oracles.pair(dense_power, c1), sigma
            power, dense_power = ring.times_c1(power), dense_power * c1
    # one build per table, and every table reused at an offset other than its first
    assert _block_table.cache_info().misses == len(offsets)
    assert all(len(set(offsets[table])) > 1 for table in first), offsets


def test_s_numbers_do_not_depend_on_which_ring_built_the_tables():
    shapes = [sigma for n in range(2, 13) for sigma in enumerate_partitions(n)]
    before = [hypersurface_s_number(sigma) for sigma in shapes]
    _block_table.cache_clear()
    # rebuilt in the reverse order, so most tables are first built in another ring
    after = [hypersurface_s_number(sigma) for sigma in reversed(shapes)]
    assert after[::-1] == before


@settings(max_examples=40)
@given(spaces.flatmap(polynomials))
def test_truncation_idempotent(poly):
    rebuilt = TruncatedPolynomial(poly.space, dict(poly.terms))
    assert rebuilt == poly
    assert poly * poly.space.one() == poly


def test_overcap_terms_are_dropped():
    p3 = ProjectiveProduct([3])
    assert TruncatedPolynomial(p3, {(5,): 7}).is_zero()
    u = p3.generator(0)
    assert (u**3 * u).is_zero()
    assert (u**2 * u**2).is_zero()


def test_mixed_space_arithmetic_rejected():
    a = ProjectiveProduct([2, 1]).one()
    b = ProjectiveProduct([1, 1]).one()
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b
