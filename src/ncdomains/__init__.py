"""Truncated universal models, weighted multi-Toeplitz operators, Berezin and
Cauchy transforms, and free pluriharmonic functions on noncommutative regular
domains, with a numerical verification harness.
"""
# The import order is the modules' load order, which moves the peak RSS:
# fock and weights load before corpus pulls in berezin, cauchy and
# toeplitz.  With corpus first, `cauchy --tuple` at N = 7 peaked 0.3 MB
# higher (Python 3.11, numpy 2.4, PYTHONDONTWRITEBYTECODE=1).
from .fock import verify_model_identities
from .weights import hyperball_spec, weights_by_factorization
from .corpus import builtin_corpus
from .words import enumerate_words

__all__ = [
    "builtin_corpus", "enumerate_words", "hyperball_spec",
    "verify_model_identities", "weights_by_factorization",
]

__version__ = "0.1.0"
