"""Core DSH framework: CPFs, families, combinators, estimation, rho-values."""

from repro.core.combinators import (
    ConcatenatedFamily,
    MixtureFamily,
    PoweredFamily,
    TransformedFamily,
    negate_queries,
)
from repro.core.cpf import (
    CPF,
    AntiBitSamplingCPF,
    BitSamplingCPF,
    ConstantCPF,
    EmpiricalCPF,
    LambdaCPF,
    MixtureCPF,
    PolynomialCPF,
    PowerCPF,
    ProductCPF,
    SimHashCPF,
)
from repro.core.estimate import (
    CollisionEstimate,
    estimate_collision_probability,
    estimate_cpf_curve,
    wilson_interval,
)
from repro.core.family import (
    CoordinateProjection,
    DSHFamily,
    HashPair,
    SymmetricFamily,
    as_components,
    rows_equal,
    rows_to_keys,
)
from repro.core.rho import (
    check_decreasingly_sensitive,
    check_increasingly_sensitive,
    rho_from_probabilities,
    rho_minus,
    rho_plus,
    rho_star,
)
from repro.core.transforms import transform_family, transformed_cpf

__all__ = [
    "CPF",
    "LambdaCPF",
    "ConstantCPF",
    "BitSamplingCPF",
    "AntiBitSamplingCPF",
    "SimHashCPF",
    "PolynomialCPF",
    "ProductCPF",
    "MixtureCPF",
    "PowerCPF",
    "EmpiricalCPF",
    "DSHFamily",
    "SymmetricFamily",
    "HashPair",
    "CoordinateProjection",
    "as_components",
    "rows_equal",
    "rows_to_keys",
    "ConcatenatedFamily",
    "PoweredFamily",
    "MixtureFamily",
    "TransformedFamily",
    "negate_queries",
    "CollisionEstimate",
    "wilson_interval",
    "estimate_collision_probability",
    "estimate_cpf_curve",
    "rho_from_probabilities",
    "rho_plus",
    "rho_minus",
    "rho_star",
    "check_decreasingly_sensitive",
    "check_increasingly_sensitive",
    "transform_family",
    "transformed_cpf",
]
