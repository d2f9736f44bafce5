"""Dense reference operators for the tests, built entry by entry from exact
weights and multiplied as plain numpy matrices; nothing here reads the
model's shift maps or its operator assembly."""
from math import sqrt

import numpy as np

from ncdomains.fock import TruncatedFockBasis


def dense_creation(table, N, left):
    """W_1, ..., W_n (left) or Lambda_1, ..., Lambda_n (right) at depth N:
    e_gamma goes to sqrt(b_gamma / b_target) e_target for |gamma| < N, with
    target g_i gamma (left) or gamma g_i (right)."""
    basis = TruncatedFockBasis.build(table.spec.n, N)
    out = []
    for i in range(1, table.spec.n + 1):
        M = np.zeros((basis.dimension, basis.dimension), dtype=complex)
        for gamma in basis.words:
            if len(gamma) < N:
                target = (i,) + gamma if left else gamma + (i,)
                M[basis.index[target], basis.index[gamma]] = sqrt(
                    float(table.b[gamma] / table.b[target]))
        out.append(M)
    return out


def dense_word(mats, alpha):
    """mats[i_1 - 1] @ ... @ mats[i_k - 1]; the identity for the empty word."""
    out = np.eye(mats[0].shape[0], dtype=complex)
    for letter in alpha:
        out = out @ mats[letter - 1]
    return out
