"""Partition enumeration, multinomials and the divisibility pattern."""

import math
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cybordism.numthy import factorial_valuation, primes_upto, valuation
from cybordism.partitions import (
    Partition,
    _capped_minima,
    _iter_decreasing,
    _weighted_part_valuations,
    count_partitions,
    digit_partition,
    enumerate_partitions,
    generator_partitions,
    multinomial,
    multinomial_valuation,
    parse_partition,
    power_check,
    split_prime_power,
    split_prime_power_successor,
    weighted_multinomial,
)


@lru_cache(maxsize=None)
def oracle_count(n: int, max_part: int) -> int:
    # independent counting recurrence: partitions of n with parts <= max_part
    if n == 0:
        return 1
    if n < 0 or max_part == 0:
        return 0
    return oracle_count(n - max_part, max_part) + oracle_count(n, max_part - 1)


def oracle_multinomial(parts) -> int:
    total = math.factorial(sum(parts))
    denominator = 1
    for part in parts:
        denominator *= math.factorial(part)
    assert total % denominator == 0
    return total // denominator


parts_lists = st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=7)


def test_partition_canonical_form():
    assert tuple(Partition([1, 3, 1])) == (3, 1, 1)
    assert Partition([1, 3, 1]) == Partition([3, 1, 1])
    assert Partition([2, 2]).n == 4
    assert Partition([2, 2]).k == 2
    assert Partition([3, 1, 1]).increasing == (1, 1, 3)
    assert Partition([3, 1, 1]).label == "1,1,3"
    assert str(Partition([3, 1, 1])) == "(1,1,3)"


def test_partition_rejects_bad_parts():
    with pytest.raises(ValueError):
        Partition([])
    with pytest.raises(ValueError):
        Partition([0, 1])
    with pytest.raises(ValueError):
        Partition([-2])


def test_partition_refuses_bool_and_float_parts():
    # bool is an int subclass: True would pass as a part 1 and print as "True"
    for parts in ([True, 2], [False], [True], [2.0]):
        with pytest.raises(ValueError, match="parts must be positive integers"):
            Partition(parts)


def test_parse_partition():
    assert parse_partition("1,1,3") == Partition([3, 1, 1])
    # the words parse_ks reads in a matrix row: blanks around them and any decimal digits
    assert parse_partition(" 1 , 2 ") == Partition([1, 2])
    assert parse_partition("\u0663") == Partition([3])
    for text in ("1,x", "1_0", "+3", "3.0", "1,-", "9" * 5000):
        with pytest.raises(ValueError, match="not a comma-separated integer list"):
            parse_partition(text)
    # negative and zero parts are read, then refused as parts
    for text in ("-1,2", "0,2"):
        with pytest.raises(ValueError, match="positive"):
            parse_partition(text)


@given(parts_lists)
def test_partition_order_invariance(parts):
    assert Partition(parts) == Partition(sorted(parts))
    assert sum(Partition(parts)) == sum(parts)


def test_enumeration_examples():
    assert [tuple(p) for p in enumerate_partitions(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert [tuple(p) for p in enumerate_partitions(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert len(list(enumerate_partitions(7))) == 15 == oracle_count(7, 7)


def test_enumeration_counts_and_order():
    for n in range(1, 26):
        items = [tuple(p) for p in enumerate_partitions(n)]
        assert len(items) == oracle_count(n, n) == count_partitions(n)
        assert len(set(items)) == len(items)
        assert items == sorted(items, reverse=True)
        assert all(sum(p) == n for p in items)


def test_iterative_generator_matches_recursion():
    for n in range(31):
        for cap in range(1, n + 2):
            expected = list(oracles.partitions_by_recursion(n, cap))
            assert list(_iter_decreasing(n, cap)) == expected, (n, cap)


def test_enumerated_items_are_canonical_partitions():
    # the generators wrap the raw tuples unchecked; each must be what the
    # validating constructor builds from it
    for n in range(1, 31):
        for cap in range(1, n + 1):
            raws = _iter_decreasing(n, cap)
            assert all(Partition(raw) == raw for raw in raws), (n, cap)
        items = [*enumerate_partitions(n), *(generator_partitions(n) if n >= 3 else ())]
        assert all(type(p) is Partition and Partition(p) == p for p in items), n


def test_enumeration_rejects_nonpositive():
    with pytest.raises(ValueError):
        list(enumerate_partitions(0))
    with pytest.raises(ValueError, match="need n >= 0"):
        count_partitions(-1)


def test_capped_partition_examples():
    assert [tuple(p) for p in generator_partitions(3)] == [(1, 1, 1)]
    assert [tuple(p) for p in generator_partitions(4)] == [
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert [tuple(p) for p in generator_partitions(5)] == [
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]
    with pytest.raises(ValueError):
        list(generator_partitions(2))


def test_capped_partitions_double_characterisation():
    for n in range(3, 31):
        capped = list(generator_partitions(n))
        by_filter = [p for p in enumerate_partitions(n) if max(p) <= n - 2]
        excluded = {Partition([n]), Partition([n - 1, 1])}
        by_exclusion = [p for p in enumerate_partitions(n) if p not in excluded]
        assert capped == by_filter == by_exclusion


def test_multinomial_examples():
    assert multinomial(Partition([2, 2])) == 6
    assert multinomial(Partition([1, 1, 3])) == 20 == oracle_multinomial((1, 1, 3))
    assert multinomial(Partition([1, 1, 1])) == 6


@given(parts_lists)
def test_multinomial_reorder_invariant(parts):
    value = multinomial(Partition(parts))
    assert value == oracle_multinomial(parts)
    assert value == multinomial(Partition(list(reversed(sorted(parts)))))
    assert value > 0


def test_weighted_multinomial_examples():
    assert weighted_multinomial(Partition([1, 1, 1])) == 48
    assert weighted_multinomial(Partition([2, 2])) == 486
    assert weighted_multinomial(Partition([1, 1, 1, 1])) == 384


@given(parts_lists)
def test_weighted_multinomial_positive_and_invariant(parts):
    sigma = Partition(parts)
    value = weighted_multinomial(sigma)
    expected = oracle_multinomial(parts)
    for part in parts:
        expected *= (part + 1) ** part
    assert value == expected > 0


def test_valuation_shortcuts_match_big_integers():
    # Legendre-formula routes agree with direct valuations of the values
    for n in range(3, 17):
        for sigma in enumerate_partitions(n):
            for p in primes_upto(n):
                assert multinomial_valuation(p, sigma) == _ord_or_zero(
                    p, multinomial(sigma)
                )
                assert oracles.weighted_multinomial_valuation(p, sigma) == _ord_or_zero(
                    p, weighted_multinomial(sigma)
                )


def _ord_or_zero(p: int, value: int) -> int:
    return valuation(p, value)


def test_digit_partition_examples():
    assert tuple(digit_partition(6, 2)) == (4, 2)
    assert tuple(digit_partition(5, 2)) == (4, 1)
    assert tuple(digit_partition(9, 3)) == (9,)


def test_digit_partition_sums():
    for n in range(1, 101):
        for p in primes_upto(n):
            assert digit_partition(n, p).n == n


def test_split_examples():
    assert tuple(split_prime_power(4, 2)) == (2, 2)
    assert tuple(split_prime_power(9, 3)) == (3, 3, 3)
    assert tuple(split_prime_power(8, 2)) == (4, 4)
    assert tuple(split_prime_power_successor(5, 2)) == (2, 2, 1)
    assert tuple(split_prime_power_successor(10, 3)) == (3, 3, 3, 1)
    assert tuple(split_prime_power_successor(3, 2)) == (1, 1, 1)


def test_split_rejects_wrong_shape():
    with pytest.raises(ValueError):
        split_prime_power(6, 2)
    with pytest.raises(ValueError):
        split_prime_power(8, 3)
    with pytest.raises(ValueError):
        split_prime_power_successor(8, 3)


def test_special_partitions_stay_capped():
    from cybordism.numthy import prime_power

    def in_capped(sigma: Partition, n: int) -> bool:
        # the predicate equals set membership in generator_partitions(n);
        # the double-characterisation test above validates it against the
        # actual enumeration
        return sigma.n == n and max(sigma) <= n - 2

    for n in range(3, 61):
        power = prime_power(n)
        successor = prime_power(n - 1)
        if power:
            assert in_capped(split_prime_power(n, power[0]), n)
        if successor:
            assert in_capped(split_prime_power_successor(n, successor[0]), n)
        if power is None and successor is None:
            for p in primes_upto(n):
                assert in_capped(digit_partition(n, p), n)


def test_power_check_spot_values():
    report6 = power_check(6)
    entry = next(e for e in report6.entries if e.prime == 3)
    assert entry.kind == "coprime"
    assert tuple(entry.witness) == (3, 3)
    assert multinomial(Partition([3, 3])) == 20
    assert entry.witness_valuation == 0

    report8 = power_check(8)
    entry = next(e for e in report8.entries if e.prime == 2)
    assert entry.kind == "power"
    assert tuple(entry.witness) == (4, 4)
    assert multinomial(Partition([4, 4])) == 70
    assert valuation(2, 70) == 1 == entry.witness_valuation

    report5 = power_check(5)
    entry = next(e for e in report5.entries if e.prime == 2)
    assert entry.kind == "successor"
    assert tuple(entry.witness) == (2, 2, 1)
    assert multinomial(Partition([2, 2, 1])) == 30
    assert valuation(2, 30) == 1 == entry.witness_valuation


def test_power_check_passes_moderate_range():
    for n in range(3, 26):
        report = power_check(n)
        assert report.passed, (n, report)
        covered = {e.prime for e in report.entries}
        assert covered == set(primes_upto(n))


def test_power_check_matches_exhaustive_scan():
    # every field, scan_min included, against a walk over every capped partition
    for n in range(3, 61):
        assert power_check(n) == oracles.power_check_report(n), n


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=17, max_size=17))
def test_capped_minima_match_exhaustive_scan(cost):
    # one table serves n = 3..18; entry n must be the least part-cost sum
    # over every partition of n with parts at most n - 2
    minima = _capped_minima(cost)
    assert len(minima) == 19
    for n in range(3, 19):
        walked = min(sum(cost[m] for m in parts) for parts in oracles.capped_partitions(n))
        assert minima[n] == walked, (n, cost)


def test_capped_minima_match_all_sizes_knapsack():
    # both production costs, gcd and power-check, at every prime up to 400
    for p in primes_upto(400):
        for cost in (
            _weighted_part_valuations(p, 398),
            [-factorial_valuation(p, m) for m in range(399)],
        ):
            assert _capped_minima(cost) == oracles.capped_minima_over_all_sizes(cost), p


def test_oracle_enumeration_matches_capped_partitions():
    for n in range(3, 26):
        walked = sorted(tuple(sorted(parts, reverse=True)) for parts in oracles.capped_partitions(n))
        assert walked == sorted(tuple(p) for p in generator_partitions(n)), n


def test_power_check_rejects_small_n():
    with pytest.raises(ValueError):
        power_check(2)
