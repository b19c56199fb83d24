"""Exact computations around Calabi-Yau hypersurfaces in products of projective spaces.

The library evaluates s-numbers and full Chern-number tables of the
anticanonical hypersurfaces ``N_sigma`` in ``CP^{sigma_1} x ... x
CP^{sigma_k}``, verifies that the gcd of their s-number magnitudes over
the capped partitions of ``n`` equals the attainable s-number of an
SU-bordism polynomial generator, and emits exact integer Bezout
certificates realising those generators.  A reflexive-polytope toolkit
covers the moment polytopes of the ambient spaces, and a record parser
handles Kreuzer-Skarke-style Hodge-number lists for the dimension-3
generator analysis.

All arithmetic is exact; no floating point is used anywhere.
"""

from .cohomology import (
    ProjectiveProduct,
    TruncatedPolynomial,
    chern_total,
    fundamental_pairing,
    hypersurface_chern_numbers,
    hypersurface_euler_characteristic,
    hypersurface_s_number,
    power_sum_direct,
)
from .generators import (
    GeneratorCertificate,
    certificate,
    low_dimension_table,
    reverify_certificate,
    s_number_gcd,
    verify_gcd_identity,
)
from .numthy import (
    Case,
    CaseTag,
    classify,
    milnor_factor,
    p_adic_digits,
    su_generator_s_number,
    valuation,
)
from .partitions import (
    Partition,
    digit_partition,
    enumerate_partitions,
    generator_partitions,
    multinomial,
    power_check,
    split_prime_power,
    split_prime_power_successor,
    weighted_multinomial,
)
from .toricdata import (
    KSParseError,
    KSRecord,
    ReflexivePolytope,
    filter_hodge_difference,
    h11_range_report,
    parse_ks,
    partition_polytope,
    polar_dual,
    product,
    standard_simplex,
    verify_reflexive,
)

__version__ = "0.1.0"

__all__ = [
    "Case",
    "CaseTag",
    "GeneratorCertificate",
    "KSParseError",
    "KSRecord",
    "Partition",
    "ProjectiveProduct",
    "ReflexivePolytope",
    "TruncatedPolynomial",
    "certificate",
    "chern_total",
    "classify",
    "digit_partition",
    "enumerate_partitions",
    "filter_hodge_difference",
    "fundamental_pairing",
    "generator_partitions",
    "h11_range_report",
    "hypersurface_chern_numbers",
    "hypersurface_euler_characteristic",
    "hypersurface_s_number",
    "low_dimension_table",
    "milnor_factor",
    "multinomial",
    "p_adic_digits",
    "parse_ks",
    "partition_polytope",
    "polar_dual",
    "power_check",
    "power_sum_direct",
    "product",
    "reverify_certificate",
    "s_number_gcd",
    "split_prime_power",
    "split_prime_power_successor",
    "standard_simplex",
    "su_generator_s_number",
    "valuation",
    "verify_gcd_identity",
    "verify_reflexive",
    "weighted_multinomial",
]
