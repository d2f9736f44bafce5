"""fock.substitute, the one tuple-side substitution, against reference loops
of Kronecker products and word products: bitwise equal values."""
import numpy as np

from ncdomains.berezin import hereditary_eval
from ncdomains.corpus import (builtin_corpus, random_gated_tuple, random_hereditary,
                              random_nilpotent_tuple, random_symbol)
from ncdomains.fock import word_operator
from ncdomains.toeplitz import evaluate_symbol
from ncdomains.words import EMPTY, enumerate_words


def _kron_evaluate_symbol(sym, X, scale=1.0):
    """phi(scale X) as a sum of Kronecker products, one per block."""
    k = X[0].shape[0]
    d = sym.aux_dim
    out = np.zeros((d * k, d * k), dtype=complex)
    for alpha, blk in sym.A.items():
        Xa = word_operator(X, alpha) * (scale ** len(alpha))
        out += np.kron(blk, Xa)
    for alpha, blk in sym.B.items():
        Xa = word_operator(X, alpha) * (scale ** len(alpha))
        out += np.kron(blk, Xa.conj().T)
    return out


def _product_hereditary_eval(X, poly):
    """q(X, X^*) as a sum of products X_alpha X_beta^*."""
    out = np.zeros((X.dim, X.dim), dtype=complex)
    for (alpha, beta), c in poly.items():
        out += c * (X.word(alpha) @ X.word(beta).conj().T)
    return out


def _tuples(rng, spec):
    for k in (1, 2, 3):
        yield random_nilpotent_tuple(rng, spec, dim=k)
        yield random_gated_tuple(rng, spec, dim=k, target_radius=0.6)


def test_substitution_matches_hand_written_evaluators(monkeypatch):
    rng = np.random.default_rng(9)
    cases = []
    for name, spec in builtin_corpus().items():
        for X in _tuples(rng, spec):
            for d in (1, 2):
                sym = random_symbol(rng, spec.n, max_len=2, aux_dim=d)
                for scale in (1.0, 0.7):
                    cases.append((evaluate_symbol, (sym, X.matrices, scale),
                                  _kron_evaluate_symbol(sym, X.matrices, scale), name))
            words = enumerate_words(spec.n, 2)
            polys = [random_hereditary(rng, spec.n, max_deg=2)]
            polys += [{(alpha, beta): 1} for alpha in words for beta in words]
            for poly in polys:
                cases.append((hereditary_eval, (X, poly),
                              _product_hereditary_eval(X, poly), name))
            for alpha in enumerate_words(spec.n, 3):
                cases.append((hereditary_eval, (X, {(alpha, EMPTY): 1}), X.word(alpha), name))

    def no_kron(*args, **kwargs):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(np, "kron", no_kron)
    assert len(cases) > 1000
    for fn, args, want, name in cases:
        got = fn(*args)
        assert got.shape == want.shape and np.array_equal(got, want), (name, fn.__name__)

