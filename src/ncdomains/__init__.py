"""Truncated universal models, weighted multi-Toeplitz operators, Berezin and
Cauchy transforms, and free pluriharmonic functions on noncommutative regular
domains, with a numerical verification harness.
"""
from .berezin import (OperatorTuple, berezin_kernel, berezin_transform,
                      domain_membership, hereditary_eval)
from .cauchy import (analytic_functional_calculus, cauchy_kernel,
                     cauchy_transform, joint_spectral_radius,
                     reconstruction_operator)
from .corpus import builtin_corpus
from .fock import (TruncatedOperator, creation_tuple, verify_model_identities,
                   word_operator)
from .pluriharmonic import (PluriharmonicFunction, conjugate, distance,
                            gamma_kernel, rho_radii, schur_positivity_test)
from .toeplitz import (MultiToeplitzSymbol, fourier_coefficients,
                       is_multi_toeplitz, symbol_to_operator)
from .weights import (DomainSpec, WeightTable, hyperball_spec,
                      weights_by_convolution, weights_by_factorization)
from .words import EMPTY, Word, compare_right, enumerate_words

__all__ = [
    "OperatorTuple", "berezin_kernel", "berezin_transform",
    "domain_membership", "hereditary_eval",
    "analytic_functional_calculus", "cauchy_kernel", "cauchy_transform",
    "joint_spectral_radius", "reconstruction_operator",
    "builtin_corpus",
    "TruncatedOperator", "creation_tuple",
    "verify_model_identities", "word_operator",
    "PluriharmonicFunction", "conjugate", "distance", "gamma_kernel",
    "rho_radii", "schur_positivity_test",
    "MultiToeplitzSymbol", "fourier_coefficients", "is_multi_toeplitz",
    "symbol_to_operator",
    "DomainSpec", "WeightTable", "hyperball_spec",
    "weights_by_convolution", "weights_by_factorization",
    "EMPTY", "Word", "compare_right", "enumerate_words",
]

__version__ = "0.1.0"
