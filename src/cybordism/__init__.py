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

import importlib

# exported name -> defining submodule.  A submodule is imported on the
# first access to one of its names (PEP 562), so ``import cybordism``
# alone loads none of them and each CLI command loads only what it uses.
_EXPORTS = {
    name: module
    for module, names in {
        "cohomology": (
            "hypersurface_chern_numbers", "hypersurface_euler_characteristic",
            "hypersurface_s_number", "verify_alpha",
        ),
        "dense": (
            "ProjectiveProduct", "TruncatedPolynomial", "chern_total", "fundamental_pairing",
            "power_sum_direct",
        ),
        "generators": (
            "GeneratorCertificate", "certificate", "low_dimension_table",
            "reverify_certificate", "s_number_gcd", "verify_gcd_identity",
        ),
        "numthy": (
            "Case", "CaseTag", "classify", "milnor_factor", "p_adic_digits",
            "su_generator_s_number", "valuation",
        ),
        "partitions": (
            "Partition", "digit_partition", "enumerate_partitions", "generator_partitions",
            "multinomial", "power_check", "split_prime_power", "split_prime_power_successor",
            "weighted_multinomial",
        ),
        "toricdata": (
            "KSParseError", "KSRecord", "ReflexivePolytope", "filter_hodge_difference",
            "h11_range_report", "parse_ks", "parse_ks_runs", "partition_polytope", "polar_dual",
            "product", "standard_simplex", "verify_reflexive",
        ),
    }.items()
    for name in names
}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
