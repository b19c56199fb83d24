"""Gcd identity, Bezout machinery and generator certificates."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from cybordism.generators import (
    CERTIFICATE_MAX_N,
    GCD_MAX_N,
    _excess_bound,
    _first_exact_pair,
    _in_scan_order,
    _scan_runs,
    certificate,
    extended_gcd,
    low_dimension_table,
    reverify_certificate,
    s_number_gcd,
    verify_gcd_identity,
)
from cybordism.numthy import factorial_valuation, primes_upto, su_generator_s_number, valuation
from cybordism.partitions import (
    Partition,
    _weighted_part_valuations,
    generator_partitions,
    weighted_multinomial,
)


def untight_masks(vectors, target_vec):
    # bit b of a vector's mask is set when prime b is above the target's exponent
    return [
        sum(1 << bit for bit, (v, t) in enumerate(zip(vec, target_vec)) if v != t)
        for vec in vectors
    ]


@given(st.integers(min_value=1, max_value=10**12), st.integers(min_value=1, max_value=10**12))
def test_extended_gcd_is_a_bezout_identity(a, b):
    d, x, y = extended_gcd(a, b)
    assert d == math.gcd(a, b)
    assert x * a + y * b == d


def test_extended_gcd_handles_zero_and_negatives():
    assert extended_gcd(0, 5) == (5, 0, 1)
    assert extended_gcd(5, 0) == (5, 1, 0)
    d, x, y = extended_gcd(-12, 18)
    assert d == 6 and x * -12 + y * 18 == 6
    # a negative remainder is made the positive gcd, with both multipliers negated
    assert extended_gcd(-4, 0) == (4, -1, 0)
    assert extended_gcd(0, -5) == (5, 0, -1)


def test_gcd_examples():
    assert s_number_gcd(3) == 48
    assert s_number_gcd(4) == 6
    assert s_number_gcd(5) == 20


def test_gcd_matches_plain_fold():
    # the per-prime dynamic program against the exhaustive gcd fold
    for n in range(3, 41):
        assert s_number_gcd(n) == oracles.gcd_fold(n), n


def test_gcd_values_from_scan():
    # frozen from the weighted multinomials of the five capped partitions of 5
    values = sorted(weighted_multinomial(s) for s in generator_partitions(5))
    assert values == [3840, 4320, 4860, 5120, 5760]
    assert math.gcd(*values) == 20


def test_gcd_identity_report():
    report = verify_gcd_identity(5)
    assert report.passed
    assert [row.n for row in report.rows] == [3, 4, 5]
    assert report.rows[0].tag is None
    assert report.rows[1].tag.label == "II"
    assert report.rows[2].tag.label == "III"

    single = verify_gcd_identity(3)
    assert single.passed and single.rows[0].gcd_value == 48

    wide = verify_gcd_identity(30)
    assert wide.passed
    counts = wide.case_counts()
    assert sum(counts.values()) == 28
    assert counts["base"] == 1


def test_gcd_identity_rejects_small_bound():
    with pytest.raises(ValueError):
        verify_gcd_identity(2)
    with pytest.raises(ValueError, match="gcd budget"):
        verify_gcd_identity(GCD_MAX_N + 1)


def test_certificate_golden_pairs():
    cert3 = certificate(3)
    assert cert3.entries == ((Partition([1, 1, 1]), -1),)
    assert cert3.achieved == 48

    cert4 = certificate(4)
    assert oracles.as_mapping(cert4) == {Partition([2, 2]): 15, Partition([1, 1, 1, 1]): -19}
    assert [s.label for s, _ in cert4.entries] == ["2,2", "1,1,1,1"]
    assert cert4.achieved == 6

    cert5 = certificate(5)
    assert oracles.as_mapping(cert5) == {Partition([1, 1, 3]): 56, Partition([1, 2, 2]): -59}
    assert [s.label for s, _ in cert5.entries] == ["1,1,3", "1,2,2"]
    assert cert5.achieved == 20


def test_two_entry_certificates_up_to_34():
    two = [n for n in range(3, 35) if len(certificate(n).entries) == 2]
    assert two == [4, 5, 6, 8, 17, 18, 32]


def test_no_single_value_is_the_target_past_n_3():
    # why certificate needs no single-entry case: past n = 3 every capped value is at least
    # C(n, 2) 2^n, which is more than 2n(n - 1) >= g(n)
    for n in range(4, 301):
        assert math.comb(n, 2) * 2**n > 2 * n * (n - 1) >= su_generator_s_number(n), n
    for n in range(4, 21):
        assert min(map(weighted_multinomial, generator_partitions(n))) >= math.comb(n, 2) * 2**n, n


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda k: st.tuples(
            st.tuples(*[st.integers(0, 3)] * k),
            st.lists(st.tuples(*[st.booleans()] * k), max_size=12),
        )
    )
)
def test_first_exact_pair_is_the_least_covering_pair(case):
    # each prime of a vector is at the target's exponent or one above it
    target_vec, raised = case
    vectors = [tuple(t + r for t, r in zip(target_vec, bumps)) for bumps in raised]
    assert _first_exact_pair(untight_masks(vectors, target_vec)) == oracles.first_exact_pair(
        vectors, target_vec
    )


def test_first_exact_pair_cases():
    target = (0, 0, 0)
    a, b, c = (0, 1, 1), (1, 0, 0), (1, 1, 0)
    cases = {
        # a repeated mask: the partner found is after the first index
        (a, a, b): (0, 2),
        (a, b, a, b): (0, 1),
        (c, a, c, b): (1, 3),
        # no pair, none at all, or a single vector
        (a, a, c): None,
        (): None,
        (b,): None,
        # the only partner is the last index
        (b, b, b, a): (0, 3),
        # a full mask pairs with any other index
        (c, c, target): (0, 2),
        (target, target): (0, 1),
    }
    for vectors, expected in cases.items():
        assert _first_exact_pair(untight_masks(vectors, target)) == expected, vectors
        assert oracles.first_exact_pair(list(vectors), target) == expected, vectors


def test_walk_is_the_sorted_scan_order():
    for n in range(3, 31):
        walk = [parts[::-1] for parts in _in_scan_order(n)]
        assert walk == oracles.scan_order(n), n
    # each run carries start plus its head's weights
    weight = [3**m for m in range(13)]
    for head, acc, lo, rest in _scan_runs(12, weight, 7):
        assert acc == 7 + sum(weight[m] for m in head)
        assert lo == (head[-1] if head else 2) and rest == 12 - sum(head)


def test_excess_bound_covers_every_prime_excess():
    # least and greatest excess v_p(value) - v_p(g(n)) over the capped
    # partitions of n, from the knapsack over every part size
    top = 50
    greatest = {}
    for p in primes_upto(top):
        weights = _weighted_part_valuations(p, top - 2)
        least = oracles.capped_minima_over_all_sizes(weights)
        most = oracles.capped_minima_over_all_sizes([-w for w in weights])
        for n in range(max(p, 3), top + 1):
            base = factorial_valuation(p, n) - valuation(p, su_generator_s_number(n))
            assert base + least[n] == 0, (n, p)
            greatest[n] = max(greatest.get(n, 0), base - most[n])
    assert all(greatest[n] < _excess_bound(n) for n in range(3, top + 1))
    assert (greatest[31], greatest[50]) == (124, 231)
    assert (_excess_bound(31), _excess_bound(50)) == (155, 300)


def test_certificate_matches_sorted_scan():
    for n in range(3, 41):
        assert certificate(n) == oracles.certificate_by_sorted_scan(n), n


def test_certificate_rejects_small_n():
    with pytest.raises(ValueError):
        certificate(2)
    with pytest.raises(ValueError, match="certificate budget"):
        certificate(CERTIFICATE_MAX_N + 1)


def test_certificates_achieve_target_and_reverify():
    for n in range(3, 31):
        cert = certificate(n)
        target = su_generator_s_number(n)
        assert cert.achieved == target
        # combinatorial route
        total = sum(
            -coeff * weighted_multinomial(sigma) for sigma, coeff in cert.entries
        )
        assert total == target
        # independent cohomology route
        assert reverify_certificate(cert) == target


def test_certificate_entries_are_clean():
    for n in range(3, 31):
        cert = certificate(n)
        parts = [sigma for sigma, _ in cert.entries]
        coeffs = [coeff for _, coeff in cert.entries]
        assert len(set(parts)) == len(parts)
        assert all(coeff != 0 for coeff in coeffs)
        assert all(sigma.n == n and max(sigma) <= n - 2 for sigma in parts)
        if len(coeffs) > 1:
            assert any(c > 0 for c in coeffs) and any(c < 0 for c in coeffs)


def test_certificates_are_deterministic():
    for n in (4, 7, 11, 19):
        assert certificate(n) == certificate(n)


def test_low_dimension_table():
    table = low_dimension_table()
    assert table["targets"] == {2: 48, 3: 6, 4: 20}
    certs = table["certificates"]
    assert certs[3].achieved == 48
    assert certs[4].achieved == 6
    assert certs[5].achieved == 20
    assert table["dimension3_combination_euler"] == 2
    assert table["dimension3_single_manifold_euler"] == (2, -2)
