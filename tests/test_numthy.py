"""Number-theory layer: valuations, milnor factors, shape classification."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from cybordism.numthy import (
    Case,
    _valuation,
    classify,
    factorial_valuation,
    is_prime,
    milnor_factor,
    p_adic_digits,
    prime_power,
    primes_upto,
    su_generator_s_number,
    valuation,
)
from cybordism.partitions import multinomial_valuation

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def naive_valuation(p: int, a: int) -> int:
    # independent oracle: repeated division
    count = 0
    while a % p == 0:
        a //= p
        count += 1
    return count


def naive_is_prime_power(n: int) -> tuple[int, int] | None:
    for p in range(2, n + 1):
        if not is_prime(p):
            continue
        value, s = p, 1
        while value < n:
            value *= p
            s += 1
        if value == n:
            return p, s
    return None


def test_valuation_examples():
    assert valuation(2, 48) == 4
    assert valuation(5, 20) == 1
    # 486 = 2 * 3^5, frozen from the repeated-division oracle
    assert naive_valuation(3, 486) == 5
    assert valuation(3, 486) == 5


def test_valuation_rejects_bad_input():
    with pytest.raises(ValueError):
        valuation(2, 0)
    with pytest.raises(ValueError):
        valuation(4, 8)
    with pytest.raises(ValueError):
        valuation(4, 12)
    with pytest.raises(ValueError):
        valuation(1, 12)


def test_primes_upto_is_the_trial_division_filter():
    by_trial = [p for p in range(2, 10**4 + 1) if is_prime(p)]
    assert primes_upto(10**4) == by_trial
    for n in range(-2, 400):
        assert primes_upto(n) == [p for p in by_trial if p <= n], n


@given(st.sampled_from(SMALL_PRIMES), st.integers(1, 10**12))
def test_unchecked_valuation_agrees(p, a):
    assert _valuation(p, a) == valuation(p, a) == naive_valuation(p, a)


def test_valuation_of_negatives():
    assert valuation(2, -48) == 4


@given(
    st.sampled_from(SMALL_PRIMES),
    st.integers(min_value=-(10**9), max_value=10**9).filter(lambda x: x != 0),
    st.integers(min_value=-(10**9), max_value=10**9).filter(lambda x: x != 0),
)
def test_valuation_additivity(p, a, b):
    assert valuation(p, a * b) == valuation(p, a) + valuation(p, b)


@given(st.sampled_from(SMALL_PRIMES), st.integers(min_value=1, max_value=10**6))
def test_p_adic_digits_reconstruct(p, n):
    digits = p_adic_digits(n, p)
    assert digits[-1] != 0
    assert all(0 <= d < p for d in digits)
    assert sum(d * p**i for i, d in enumerate(digits)) == n


def test_p_adic_digit_examples():
    assert p_adic_digits(6, 2) == [0, 1, 1]
    assert p_adic_digits(5, 2) == [1, 0, 1]
    assert p_adic_digits(9, 3) == [0, 0, 1]
    for n, p in ((0, 2), (-3, 5)):
        with pytest.raises(ValueError, match="need n >= 1"):
            p_adic_digits(n, p)
    for p in (1, 4, 9):
        with pytest.raises(ValueError, match="digit base must be prime"):
            p_adic_digits(10, p)


def test_prime_power_recognition():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(1) is None
    assert prime_power(12) is None
    for n in range(2, 400):
        assert prime_power(n) == naive_is_prime_power(n)


def test_milnor_factor_examples():
    assert milnor_factor(3) == 2
    assert milnor_factor(4) == 5
    assert milnor_factor(5) == 1
    with pytest.raises(ValueError):
        milnor_factor(0)


def test_milnor_factor_prime_power_characterisation():
    for i in range(1, 201):
        value = milnor_factor(i)
        pp = naive_is_prime_power(i + 1)
        if pp is None:
            assert value == 1
        else:
            assert value == pp[0]
            assert is_prime(value)


def test_generator_s_number_low_values():
    assert su_generator_s_number(3) == 48
    assert su_generator_s_number(4) == 6
    assert su_generator_s_number(5) == 20
    assert su_generator_s_number(6) == milnor_factor(5) * milnor_factor(4) == 5
    with pytest.raises(ValueError):
        su_generator_s_number(2)


def test_generator_s_number_value_shape():
    # above the base dimension the value is 1, 2, 4, p, 2p or 4p (p odd prime)
    for n in range(4, 201):
        value = su_generator_s_number(n)
        odd_part = value
        while odd_part % 2 == 0:
            odd_part //= 2
        assert value // odd_part in (1, 2, 4)
        assert odd_part == 1 or is_prime(odd_part)


def test_classify_examples():
    tag = classify(8)
    assert (tag.case, tag.p, tag.q, tag.even) == (Case.POWER_SUCCESSOR_EVEN, 2, 7, True)
    assert tag.label == "II"
    tag = classify(9)
    assert (tag.case, tag.p, tag.q, tag.even) == (Case.POWER_SUCCESSOR_ODD, 3, 2, False)
    assert tag.label == "III"
    tag = classify(6)
    assert (tag.case, tag.p, tag.q) == (Case.SUCCESSOR_EVEN, None, 5)
    assert tag.label == "VI"


def test_classify_rejects_small_n():
    with pytest.raises(ValueError):
        classify(3)


def test_classify_total_and_consistent():
    for n in range(4, 201):
        tag = classify(n)
        power = naive_is_prime_power(n)
        successor = naive_is_prime_power(n - 1)
        even = n % 2 == 0
        if power and successor:
            expected = Case.POWER_SUCCESSOR_EVEN if even else Case.POWER_SUCCESSOR_ODD
        elif power:
            expected = Case.POWER_EVEN if even else Case.POWER_ODD
        elif successor:
            expected = Case.SUCCESSOR_EVEN if even else Case.SUCCESSOR_ODD
        else:
            expected = Case.GENERIC
        assert tag.case is expected
        assert tag.even == even
        # recorded parameters re-verify their defining equations
        if tag.p is not None:
            p, s = prime_power(n)
            assert p == tag.p and p**s == n
        else:
            assert power is None
        if tag.q is not None:
            q, r = prime_power(n - 1)
            assert q == tag.q and q**r + 1 == n
        else:
            assert successor is None


def test_case_predicts_generator_s_number():
    for n in range(4, 201):
        assert oracles.predicted_gcd(classify(n)) == su_generator_s_number(n)


def test_factorial_valuation_matches_direct():
    import math

    for p in (2, 3, 5, 7):
        for n in range(0, 60):
            assert factorial_valuation(p, n) == naive_valuation(p, math.factorial(n))


def test_factorial_valuation_rejects_a_base_below_two():
    # q = p never grew past n for p = 1, and p = 0 divided by zero
    for p in (1, 0, -2):
        with pytest.raises(ValueError, match="must be prime"):
            factorial_valuation(p, 5)
    with pytest.raises(ValueError, match="must be prime"):
        multinomial_valuation(1, (2, 3))


def test_primes_upto():
    assert primes_upto(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_upto(1) == []
