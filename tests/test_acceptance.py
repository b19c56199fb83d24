"""Acceptance suite: every guaranteed numeric claim, one line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
verdict lines.  All comparisons are exact; there are no tolerances.
"""

import functools
import json
import math
import random
from pathlib import Path

import oracles
from cybordism.cli import run
from cybordism.cohomology import (
    ProjectiveProduct,
    TruncatedPolynomial,
    chern_total,
    hypersurface_chern_numbers,
    hypersurface_s_number,
    power_sum_direct,
)
from cybordism.generators import (
    certificate,
    reverify_certificate,
    verify_gcd_identity,
)
from cybordism.numthy import is_prime, su_generator_s_number, valuation
from cybordism.partitions import (
    Partition,
    enumerate_partitions,
    generator_partitions,
    multinomial,
    power_check,
    weighted_multinomial,
)
from cybordism.toricdata import (
    KSRecord,
    h11_range_report,
    parse_ks,
    partition_polytope,
    verify_reflexive,
)

DATA = Path(__file__).parent / "data"


def read_lines(name: str) -> list[str]:
    return (DATA / name).read_text().splitlines()


def criterion(number: int, name: str):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {number:2d} {name}: PASS")

        return inner

    return wrap


def oracle_prime_power_base(n: int) -> int:
    for p in range(2, n + 1):
        if not is_prime(p):
            continue
        value = p
        while value < n:
            value *= p
        if value == n:
            return p
    return 1


@criterion(1, "generator s-number table")
def test_criterion_1_g_values():
    assert su_generator_s_number(3) == 48
    assert su_generator_s_number(4) == 6
    assert su_generator_s_number(5) == 20
    for n in range(4, 61):
        m_first = oracle_prime_power_base(n)  # (n-1)+1
        m_second = oracle_prime_power_base(n - 1)
        expected = m_first * m_second * (1 if n % 2 == 0 else 2)
        assert su_generator_s_number(n) == expected, n


@criterion(2, "golden s-numbers of the two K3 hypersurfaces")
def test_criterion_2_s_number_goldens():
    assert hypersurface_s_number(Partition([3])) == -48
    assert hypersurface_s_number(Partition([1, 1, 1])) == -48


@criterion(3, "cohomology route equals negated weighted multinomial")
def test_criterion_3_oracle_equivalence():
    cases = 0
    # every capped partition the ring budget admits: (1,)*16 is in, (1,)*17 is not
    for n in range(3, 17):
        for sigma in generator_partitions(n):
            assert hypersurface_s_number(sigma) == -weighted_multinomial(sigma), sigma
            cases += 1
    assert cases == 883  # hundreds of exact comparisons


@criterion(4, "gcd identity with case attribution, n <= 400")
def test_criterion_4_gcd_identity():
    # s_number_gcd is checked against the exhaustive fold for n <= 40 in
    # test_generators.py
    report = verify_gcd_identity(400)
    assert report.passed
    assert len(report.rows) == 398
    for row in report.rows:
        assert row.gcd_value == row.expected
        if row.n > 3:
            assert row.tag is not None
            assert oracles.predicted_gcd(row.tag) == row.expected
        else:
            assert row.tag is None


@criterion(5, "generator certificates, pinned pairs and full reverification")
def test_criterion_5_certificates():
    cert3 = certificate(3)
    assert oracles.as_mapping(cert3) == {Partition([1, 1, 1]): -1}
    assert cert3.achieved == 48
    cert4 = certificate(4)
    assert oracles.as_mapping(cert4) == {Partition([2, 2]): 15, Partition([1, 1, 1, 1]): -19}
    assert cert4.achieved == 6
    cert5 = certificate(5)
    assert oracles.as_mapping(cert5) == {Partition([1, 1, 3]): 56, Partition([1, 2, 2]): -59}
    assert cert5.achieved == 20
    for n in range(3, 31):
        cert = certificate(n)
        target = su_generator_s_number(n)
        assert cert.achieved == target
        assert reverify_certificate(cert) == target, n


@criterion(6, "multinomial divisibility pattern, n <= 200")
def test_criterion_6_power_check():
    # power_check is checked field by field against the exhaustive scan
    # for n <= 60 in test_partitions.py
    assert multinomial(Partition([4, 4])) == 70 and valuation(2, 70) == 1
    assert multinomial(Partition([2, 2, 1])) == 30 and valuation(2, 30) == 1
    for n in range(3, 201):
        report = power_check(n)
        assert report.passed, (n, [e for e in report.entries if not e.ok])


@criterion(7, "Chern numbers of hypersurfaces")
def test_criterion_7_chern_numbers():
    assert hypersurface_chern_numbers(Partition([3]))[Partition([2])] == 24
    assert hypersurface_chern_numbers(Partition([1, 1, 1]))[Partition([2])] == 24
    for n in range(2, 9):
        for sigma in enumerate_partitions(n):
            numbers = hypersurface_chern_numbers(sigma)
            for omega, value in numbers.items():
                if 1 in omega:
                    assert value == 0, (sigma, omega)
    for sigma in enumerate_partitions(4):
        assert 3 * hypersurface_chern_numbers(sigma)[Partition([3])] == (
            hypersurface_s_number(sigma)
        )
    for sigma in enumerate_partitions(3):
        assert -2 * hypersurface_chern_numbers(sigma)[Partition([2])] == (
            hypersurface_s_number(sigma)
        )


@criterion(8, "reflexivity of the product polytopes, n <= 8")
def test_criterion_8_reflexivity():
    for n in range(3, 9):
        for sigma in generator_partitions(n):
            poly = partition_polytope(sigma)
            report = verify_reflexive(poly)
            assert report.ok, (sigma, report.diagnostics)
            expected_vertices = math.prod(part + 1 for part in sigma)
            assert poly.vertex_count == expected_vertices
            assert poly.facet_count == sum(part + 1 for part in sigma)


@criterion(9, "record pipeline on the bundled sample")
def test_criterion_9_ks_pipeline():
    lines = read_lines("ks_sample.txt")
    records = [r for r in parse_ks(lines) if isinstance(r, KSRecord)]
    assert len(records) == 12
    # round trip
    text = "\n".join(oracles.format_ks(r) for r in records)
    assert list(parse_ks(text.splitlines())) == records
    # every accepted record satisfies the Euler-characteristic identity
    for record in records:
        assert record.consistent
        if record.chi is not None:
            assert record.chi == 2 * (record.h11 - record.h21)
    # filter and range report stay inside the observed windows
    report = h11_range_report(records)
    assert report.clean
    assert report.plus.out_of_range == ()
    assert report.minus.out_of_range == ()
    assert all(16 <= h <= 90 for h in report.plus.h11_values)
    assert all(15 <= h <= 89 for h in report.minus.h11_values)


@criterion(10, "property suites and CLI determinism")
def test_criterion_10_properties(capsys):
    # Newton identities against the direct power sums
    for n in range(1, 9):
        for sigma in enumerate_partitions(n):
            space = ProjectiveProduct(sigma)
            chern = chern_total(space)
            for j in range(1, n + 1):
                assert oracles.power_sum_class(chern, j) == power_sum_direct(space, j)

    # ring laws on seeded random truncated polynomials
    rng = random.Random(20117)
    spaces = [ProjectiveProduct(d) for d in ((3,), (2, 1), (2, 2), (1, 1, 1))]
    for _ in range(120):
        space = rng.choice(spaces)

        def sample() -> TruncatedPolynomial:
            terms = {}
            for _ in range(rng.randint(0, 5)):
                exps = tuple(rng.randint(0, cap) for cap in space.dims)
                terms[exps] = rng.randint(-9, 9)
            return TruncatedPolynomial(space, terms)

        a, b, c = sample(), sample(), sample()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert TruncatedPolynomial(space, dict(a.terms)) == a

    # partition canonicalisation and capped double characterisation
    for n in range(3, 31):
        capped = list(generator_partitions(n))
        assert capped == [p for p in enumerate_partitions(n) if max(p) <= n - 2]
        excluded = {Partition([n]), Partition([n - 1, 1])}
        assert capped == [p for p in enumerate_partitions(n) if p not in excluded]
    assert Partition([1, 3, 2]) == Partition([3, 2, 1])

    # valuation additivity on seeded random values
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 11])
        a = rng.randint(1, 10**9) * rng.choice([-1, 1])
        b = rng.randint(1, 10**9) * rng.choice([-1, 1])
        assert valuation(p, a * b) == valuation(p, a) + valuation(p, b)

    # byte-identical reruns of every subcommand
    sample_path = str(DATA / "ks_sample.txt")
    invocations = [
        ["gn", "--max", "10"],
        ["gn", "--max", "10", "--format", "csv"],
        ["alpha", "--n", "5"],
        ["gcd", "--max", "9"],
        ["certificate", "--n", "4"],
        ["s-number", "--partition", "1,1,3"],
        ["chern", "--partition", "2,2"],
        ["power-check", "--max", "9"],
        ["polytope", "--partition", "2,2"],
        ["ks", "parse", "--input", sample_path],
        ["ks", "filter", "--input", sample_path, "--target", "-1"],
        ["ks", "ranges", "--input", sample_path],
    ]
    for argv in invocations:
        first_code = run(argv)
        first = capsys.readouterr().out
        second_code = run(argv)
        second = capsys.readouterr().out
        assert first_code == second_code
        assert first == second, argv
        if "csv" not in argv:
            json.loads(first)
