"""Reference code for the tests.  Dense operators are built entry by entry
from exact weights and multiplied as plain numpy matrices; nothing here reads
the model's shift maps or its operator assembly.  Word factorizations are
enumerated by cut points, the definition the weight tables are checked
against."""
from itertools import combinations
from math import comb, sqrt

import numpy as np

from ncdomains.words import enumerate_words


def dense_creation(table, N, left):
    """W_1, ..., W_n (left) or Lambda_1, ..., Lambda_n (right) at depth N:
    e_gamma goes to sqrt(b_gamma / b_target) e_target for |gamma| < N, with
    target g_i gamma (left) or gamma g_i (right)."""
    words = enumerate_words(table.spec.n, N)
    index = {w: j for j, w in enumerate(words)}
    out = []
    for i in range(1, table.spec.n + 1):
        M = np.zeros((len(words), len(words)), dtype=complex)
        for gamma in words:
            if len(gamma) < N:
                target = (i,) + gamma if left else gamma + (i,)
                M[index[target], index[gamma]] = sqrt(
                    float(table.b[gamma] / table.b[target]))
        out.append(M)
    return out


def dense_word(mats, alpha):
    """mats[i_1 - 1] @ ... @ mats[i_k - 1]; the identity for the empty word."""
    out = np.eye(mats[0].shape[0], dtype=complex)
    for letter in alpha:
        out = out @ mats[letter - 1]
    return out


def dense_berezin_transform(K, G, d):
    """K^*(G (x) I_k)K blockwise over G's aux space, a (d k) x (d k) matrix
    with aux-major rows, for the (D k) x k kernel K and the (D d) x (D d)
    operator G, both word-major: G is reordered to aux-major, so that
    kron(G, I_k) acts on the rows of kron(I_d, K), whose columns are the
    output's."""
    k = K.shape[1]
    D = K.shape[0] // k
    G_aux = G.reshape(D, d, D, d).transpose(1, 0, 3, 2).reshape(d * D, d * D)
    KK = np.kron(np.eye(d), K)
    return KK.conj().T @ np.kron(G_aux, np.eye(k)) @ KK


def factorizations(alpha, j):
    """All ordered splittings alpha = gamma_1 ... gamma_j with |gamma_i| >= 1.

    There are C(|alpha|-1, j-1) of them (one per cut-point subset).
    """
    k = len(alpha)
    if not 1 <= j <= k:
        raise ValueError(f"need 1 <= j <= |alpha|={k}, got j={j}")
    out = []
    for cuts in combinations(range(1, k), j - 1):
        bounds = (0,) + cuts + (k,)
        out.append(tuple(alpha[bounds[i]:bounds[i + 1]] for i in range(j)))
    return out


def n_factorizations(length, j):
    return comb(length - 1, j - 1)
