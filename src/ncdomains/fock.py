"""Truncated universal model on the full Fock space.

All operators here are compressions P_N (.) P_N to span{e_alpha : |alpha| <= N}
in the graded-lexicographic basis, optionally tensored with an aux_dim
coefficient space.  With aux_dim = d the index layout is word-major:
flat index = word_index * d + aux_index, so the (omega, gamma) block of a
matrix is the d x d coefficient C_{omega,gamma} with
<T(x (x) e_gamma), y (x) e_omega> = <C_{omega,gamma} x, y>.

A TruncatedModel, built once per (table, N) and kept on the table, holds the
basis words, their index, the comparable word pairs and sqrt(b_alpha) in
basis order; a TruncatedOperator keeps the model it was built on.  Each word
operator is a weighted partial permutation, W_alpha e_gamma =
sqrt(b_gamma / b_{alpha gamma}) e_{alpha gamma} (Lambda_alpha appends
reverse(alpha) on the right); its word-shift index maps are memoized on the
model and read-only.
Symbols and hereditary polynomials are term lists: (alpha, beta, c, B) is
c Z_alpha Z_beta^* (x) B, B a d x d block or a scalar b, read as b I_d.
TruncatedModel.operator puts the model W in place of Z and is the one
assembly of a production model operator, scattered from the shift maps;
TruncatedModel.apply is its matrix-free counterpart, the product of that
operator with a block of vectors in one pass over the same maps, for callers
that need only such products (the Cauchy kernel, the intertwining residual).
substitute puts a k x k tuple X in place of Z, on (aux space) (x) C^k,
aux-major (flat index aux_index * k + p); word_products forms the words X_alpha
of a tuple for a whole basis, in its graded order.

A tuple X has one CP map, Phi_{q,X}(Y) = sum a_alpha X_alpha Y X_alpha^*: its
terms come from cp_map_terms and its powers from cp_map_orbit (cp_map_apply is
the first step, cp_orbit_norms the norms ||Phi^k(I)||); defects gives the one
chain (id - Phi)^j(I), j = 1..m, hermitized step by step, that domain
membership and the Berezin kernel read.

Operator norms are computed by spectral_norm, on one of two paths, after
scaling by the largest entry.  The dense path takes the square root of the
largest eigenvalue of the Gram matrix of the nonzero block, after dropping
the all-zero rows and columns (which carry no singular value).  A large
sparse input takes the Krylov path instead, by the one rule
takes_krylov_path: smaller side >= KRYLOV_MIN_SIDE and nonzeros at most
KRYLOV_MAX_DENSITY of the entries (a model operator at depth 8 with aux
dim 2 is about 1% nonzero).  spectral_norm reads the nonzeros of a matrix
A without a dense |A| copy, and sparse_norm takes the norm from them by
Lanczos on A^* A (lanczos.py), which reads A only through the
nonzero_products x -> A x and y -> A^* y, with the dense path as its
fallback.  A model operator's norm, TruncatedModel.norm, needs no matrix
on that path: TruncatedModel.nonzeros scatters the same nonzeros from the
shift maps, so the norm is bitwise spectral_norm's of the assembled
operator.  sparse_norm is the package's one Krylov norm: it also takes the
radius inequality's ||R^k E|| (cauchy.py) over k-fold products on the
nonzeros of R, so no power of R is formed.
A Ritz value lower-bounds sigma_max^2, as reported norms of compressions
P_N T P_N lower-bound the untruncated norms, nondecreasing in N.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import sqrt
from typing import Iterator, Sequence

import numpy as np

from . import lanczos
from .weights import DomainSpec, WeightTable
from .words import EMPTY, Word, enumerate_words, fock_dimension


@dataclass
class TruncatedOperator:
    """Dense operator on (truncated Fock) tensor (aux_dim-dimensional space)."""

    model: TruncatedModel
    matrix: np.ndarray
    aux_dim: int = 1

    def __post_init__(self):
        d = self.model.dimension * self.aux_dim
        if self.matrix.shape != (d, d):
            raise ValueError(
                f"matrix shape {self.matrix.shape} inconsistent with "
                f"dimension {self.model.dimension} x aux_dim {self.aux_dim}")

    def block(self, omega: Word, gamma: Word) -> np.ndarray:
        d = self.aux_dim
        i = self.model.index[omega] * d
        j = self.model.index[gamma] * d
        return self.matrix[i:i + d, j:j + d]

    def norm(self) -> float:
        """Largest singular value; a lower bound of the untruncated norm."""
        return spectral_norm(self.matrix)


# The Krylov path of spectral_norm.  On complex Gaussian entries at random
# positions it took as long as the dense path at 8-12% nonzeros (sides 512
# and 1024, 2 cores, 70-90 steps); the density cut-off is half that, for
# spectra that need more steps.
KRYLOV_MIN_SIDE = 512
KRYLOV_MAX_DENSITY = 0.05


def takes_krylov_path(shape: tuple[int, int], nonzeros: int = 0) -> bool:
    """The Krylov rule of spectral_norm, for a matrix of the given shape with
    that many nonzero entries: its smaller side is >= KRYLOV_MIN_SIDE and at
    most KRYLOV_MAX_DENSITY of its entries are nonzero.  With the default
    count of 0 it reads the side alone, so that a caller need not count the
    nonzeros of a matrix the rule rejects by its side."""
    return (min(shape) >= KRYLOV_MIN_SIDE
            and nonzeros <= KRYLOV_MAX_DENSITY * (shape[0] * shape[1]))


def nonzero_products(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                     shape: tuple[int, int], repeat: int = 0):
    """x -> A^repeat B x and y -> B^* (A^*)^repeat y, by np.bincount over the
    nonzeros, where A is the m x m matrix whose nonzero entries are vals at
    (rows, cols) and B, of the given shape (m, n), is its first n columns.
    With repeat = 0 A is never applied, so the nonzeros may also be those
    of an m x n matrix with n > m.  B x is A applied to x padded with zeros
    (+-0 products, which change no np.bincount sum), and B^* y the first n
    entries of A^* y."""
    m, n = shape
    vals_adj = vals.conj()
    width = max(m, n)

    def matvec(x):
        if width > n:
            x = np.concatenate((x, np.zeros(width - n)))
        for _ in range(repeat + 1):
            x = _scatter(rows, cols, vals, x, m)
        return x

    def rmatvec(y):
        for _ in range(repeat + 1):
            y = _scatter(cols, rows, vals_adj, y, width)
        return y[:n]

    return matvec, rmatvec


def _scatter(dst, src, v, x, size):
    """The vector of the given size with entry i the sum of v x[src] over
    dst == i: the product of x with a matrix given by its nonzeros."""
    p = v * x[src]
    return np.bincount(dst, p.real, size) + 1j * np.bincount(dst, p.imag, size)


def sparse_norm(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                shape: tuple[int, int], repeat: int = 0) -> float:
    """||A^repeat B|| for the matrices of nonzero_products(rows, cols, vals,
    shape, repeat), no power of A formed.

    The values are scaled by their largest magnitude, as in spectral_norm:
    all-zero values give 0.0, a NaN value gives NaN and an infinite one (and
    no NaN) gives inf, before any Lanczos run.  Otherwise the norm comes from
    lanczos.top_singular_value on the products and errs low; when Lanczos
    has not converged, it is the dense path's norm of A^repeat B, formed
    column by column from the same products."""
    scale = float(np.abs(vals).max(initial=0.0))
    if scale == 0.0 or not np.isfinite(scale):
        return scale
    matvec, rmatvec = nonzero_products(rows, cols, vals / scale, shape, repeat)
    sigma = lanczos.top_singular_value(matvec, rmatvec, shape)
    if sigma is None:
        sigma = _dense_norm(np.column_stack([matvec(e) for e in np.eye(shape[1])]))
    return scale ** (repeat + 1) * sigma


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value of M, the operator 2-norm.

    M is scaled by its largest entry magnitude, so entries near 1e+-200
    neither overflow nor underflow when squared.  The zero matrix gives 0.0,
    a matrix with a NaN entry gives NaN, and one with an infinite entry (and
    no NaN) gives inf.

    When takes_krylov_path selects M, by its shape and then by its count of
    nonzeros, the norm is sparse_norm of the nonzeros np.nonzero reads,
    which takes the scale from the nonzero values, so it makes no dense copy
    of M.  Otherwise the all-zero rows and columns are dropped, since they
    carry no singular value, and the norm is the square root of the largest
    eigenvalue of the smaller Gram matrix.
    """
    if takes_krylov_path(M.shape) and takes_krylov_path(M.shape, np.count_nonzero(M)):
        rows, cols = np.nonzero(M)
        return sparse_norm(rows, cols, M[rows, cols], M.shape)
    return _dense_norm(M)


def _dense_norm(M: np.ndarray) -> float:
    """The dense path of spectral_norm."""
    mag = np.abs(M)
    scale = float(mag.max(initial=0.0))
    if scale == 0.0 or not np.isfinite(scale):
        return scale
    rows, cols = mag.any(axis=1), mag.any(axis=0)
    del mag  # the largest arrays below need not coexist with it
    if rows.all() and cols.all():
        A = M / scale
    else:
        # the selection is a copy of M, so it is scaled in place
        A = M[np.ix_(rows, cols)].astype(np.result_type(M, 1.0), copy=False)
        A /= scale
    G = A @ A.conj().T if A.shape[0] <= A.shape[1] else A.conj().T @ A
    return scale * sqrt(max(float(np.linalg.eigvalsh(G)[-1]), 0.0))


class TruncatedModel:
    """Weighted Fock space of one weight table at depth N on n letters: the
    basis words, their index, and sqrt_b, sqrt(b_alpha) in basis order."""

    def __init__(self, table: WeightTable, N: int):
        if N > table.N:
            raise ValueError(f"truncation {N} exceeds table depth {table.N}")
        n = self.n = table.spec.n
        self.N = N
        self.words = tuple(enumerate_words(n, N))
        self.index = {w: i for i, w in enumerate(self.words)}
        self.dimension = len(self.words)
        self.sqrt_b = np.sqrt([float(table.b[w]) for w in self.words])
        # _next[left][i - 1][j]: index of g_i gamma (left) or gamma g_i (right)
        # for the word gamma at index j, defined for |gamma| < N
        inner = self.words[:fock_dimension(n, N - 1)]
        self._next = {left: [np.array([self.index[(i,) + g if left else g + (i,)]
                                       for g in inner], dtype=np.intp)
                             for i in range(1, n + 1)]
                      for left in (True, False)}
        self._shifts: dict[tuple[Word, bool], tuple[np.ndarray, ...]] = {}

    def comparable_pairs(self) -> tuple[np.ndarray, np.ndarray, list[Word]]:
        """Right-comparable word pairs as index arrays (long, short) and
        quotients sigma with words[long] == sigma + words[short].  Each
        unordered pair appears once; sigma == () gives the diagonal.  Read
        from the words and their index, not from the shift maps, so that the
        checks built on it stay independent of the assembly they check."""
        long, short, sigma = [], [], []
        for j, gamma in enumerate(self.words):
            for s in self.words[:fock_dimension(self.n, self.N - len(gamma))]:
                long.append(self.index[s + gamma])
                short.append(j)
                sigma.append(s)
        return np.array(long, dtype=np.intp), np.array(short, dtype=np.intp), sigma

    def shift(self, alpha: Word, left: bool = True
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """W_alpha (left) or Lambda_alpha (right) as read-only arrays
        (dst, src, weight), kept per (alpha, left): e_src maps to
        weight * e_dst, with weight = sqrt_b[src] / sqrt_b[dst].
        The sources are the words of length <= N - |alpha|; a letter outside
        1..n raises ValueError."""
        key = (alpha, left)
        if key not in self._shifts:
            n, N = self.n, self.N
            if not all(1 <= letter <= n for letter in alpha):
                raise ValueError(f"word {alpha} has letters outside 1..{n}")
            src = np.arange(fock_dimension(n, N - len(alpha)) if len(alpha) <= N else 0)
            dst = src
            for letter in reversed(alpha):
                dst = self._next[left][letter - 1][dst]
            maps = dst, src, self.sqrt_b[src] / self.sqrt_b[dst]
            for a in maps:
                a.flags.writeable = False
            self._shifts[key] = maps
        return self._shifts[key]

    def operator(self, terms, d: int = 1, left: bool = True) -> TruncatedOperator:
        """sum c W_alpha W_beta^* (x) B over the terms (alpha, beta, c, B), with
        Lambda in place of W when left is False; B is a d x d block or a
        scalar b, read as b I_d.  W_alpha W_beta^* sends e_{beta gamma} to
        w_alpha(gamma) w_beta(gamma) e_{alpha gamma} for the gamma with
        |alpha gamma|, |beta gamma| <= N, and the other basis vectors to 0."""
        D = self.dimension
        # (row word, row aux, column word, column aux): the word-major layout
        M = np.zeros((D, d, D, d), dtype=complex)
        for row_words, col_words, weight, B in self._walk(terms, left):
            M[row_words, :, col_words, :] += weight[:, None, None] * _block(B, d)
        return TruncatedOperator(self, M.reshape(D * d, D * d), d)

    def _walk(self, terms, left: bool):
        """Per term (alpha, beta, c, B): the row words alpha gamma, the column
        words beta gamma and the weights c w_alpha(gamma) w_beta(gamma) of
        W_alpha W_beta^* (Lambda when left is False), and B."""
        for alpha, beta, c, B in terms:
            dst_a, src_a, w_a = self.shift(alpha, left)
            dst_b, src_b, w_b = self.shift(beta, left)
            # both sources lead the graded basis, so the common gammas are the
            # shorter of the two
            g = min(len(src_a), len(src_b))
            yield dst_a[:g], dst_b[:g], c * w_a[:g] * w_b[:g], B

    def nonzeros(self, terms, d: int = 1, left: bool = True
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, vals), the nonzero entries of operator(terms, d, left)
        exactly as np.nonzero reads them from its matrix, which is never
        formed: in row-major order, exact zeros dropped and NaN kept.  Each
        term's blocks come from operator's expression, and the terms that
        meet on one entry are summed in term order from 0, as by its +=.

        A term has at most one block in each block row, since its row words
        are distinct, so the blocks of a block row are put in order by
        ranking each term's column word against the other terms', O(D T^2)
        work for T terms.  Nothing is sorted: numpy's sort kernels are code
        that the Krylov norm runs nowhere else, and np.unique here added
        about 0.4 MB of code pages to the peak RSS of `cauchy --tuple`."""
        D = self.dimension
        blocks = []
        for row_words, col_words, weight, B in self._walk(terms, left):
            blocks.append((row_words, col_words, weight[:, None, None] * _block(B, d)))
        # col[w, t]: the column word of term t's block in block row w, D if none
        col = np.full((D, len(blocks)), D, dtype=np.intp)
        for t, (row_words, col_words, _) in enumerate(blocks):
            col[row_words, t] = col_words
        # first[w, t]: no earlier term has a block in column word col[w, t];
        # rank[w, t]: the distinct column words of block row w left of it
        first = np.ones(col.shape, dtype=bool)
        rank = np.zeros(col.shape, dtype=np.intp)
        for u in range(len(blocks)):
            first[:, u + 1:] &= col[:, u + 1:] != col[:, u:u + 1]
            rank += (col[:, u:u + 1] < col) & first[:, u:u + 1]
        width = (first & (col < D)).sum(axis=1)  # the blocks of each block row
        start = np.cumsum(width) - width
        # entry (i, j) of the block of rank r in block row w is output entry
        # d^2 start[w] + i d width[w] + r d + j
        aux = np.arange(d)
        size = d * d * int(width.sum())
        rows, cols = np.empty(size, dtype=np.intp), np.empty(size, dtype=np.intp)
        vals = np.zeros(size, dtype=complex)
        for t, (row_words, col_words, blk) in enumerate(blocks):
            at = ((d * d * start[row_words] + d * rank[row_words, t])[:, None, None]
                  + (d * width[row_words])[:, None, None] * aux[:, None] + aux)
            rows[at] = row_words[:, None, None] * d + aux[:, None]
            cols[at] = col_words[:, None, None] * d + aux
            vals[at] += blk
        keep = vals != 0
        return rows[keep], cols[keep], vals[keep]

    def krylov_nonzeros(self, terms, d: int = 1, left: bool = True
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """nonzeros(terms, d, left) when the operator takes the Krylov path of
        spectral_norm (takes_krylov_path on its side and nonzero count), None
        otherwise; the nonzeros are built only for a side the rule admits."""
        shape = (self.dimension * d,) * 2
        if takes_krylov_path(shape):
            nonzeros = self.nonzeros(terms, d, left)
            if takes_krylov_path(shape, len(nonzeros[2])):
                return nonzeros
        return None

    def norm(self, terms, d: int = 1, left: bool = True) -> float:
        """spectral_norm(operator(terms, d, left).matrix), bitwise: on the
        Krylov path sparse_norm of nonzeros(terms, d, left), the nonzeros
        spectral_norm would read from the matrix, which is then never
        formed; otherwise the dense path's norm of the assembled matrix."""
        nonzeros = self.krylov_nonzeros(terms, d, left)
        if nonzeros is None:
            return _dense_norm(self.operator(terms, d, left).matrix)
        side = self.dimension * d
        return sparse_norm(*nonzeros, (side, side))

    def apply(self, terms, V: np.ndarray, d: int = 1, left: bool = True) -> np.ndarray:
        """operator(terms, d, left).matrix @ V without forming the matrix: one
        pass over the same shift maps, O(nonzeros * columns) work.  V has D*d
        word-major rows and any number of columns (or is a vector)."""
        D = self.dimension
        if V.shape[0] != D * d:
            raise ValueError(f"V has {V.shape[0]} rows, expected {D} x aux_dim {d}")
        V3 = V.reshape(D, d, -1)
        out = np.zeros(V3.shape, dtype=complex)
        for row_words, col_words, weight, B in self._walk(terms, left):
            if np.ndim(B) == 0:
                out[row_words] += (weight * B)[:, None, None] * V3[col_words]
            else:
                out[row_words] += weight[:, None, None] * (B @ V3[col_words])
        return out.reshape(V.shape)


def _block(B, d: int):
    """A term's aux block: B itself, or b I_d for a scalar b."""
    return B * np.eye(d) if np.ndim(B) == 0 else B


def truncated_model(table: WeightTable, N: int) -> TruncatedModel:
    """The model of `table` at depth N, built on first use and kept on the table."""
    if N not in table._models:
        table._models[N] = TruncatedModel(table, N)
    return table._models[N]


def creation_tuple(table: WeightTable, N: int, left: bool = True) -> list[TruncatedOperator]:
    """W_1, ..., W_n (left) or Lambda_1, ..., Lambda_n (right) at depth N."""
    model = truncated_model(table, N)
    return [model.operator([((i,), EMPTY, 1, 1)], left=left)
            for i in range(1, table.spec.n + 1)]


def word_operator(ops: Sequence, alpha: Word):
    """Ordered product X_{i_1} ... X_{i_k}; identity for the empty word.

    Works on plain numpy matrices, and on TruncatedOperators, whose matrices
    it multiplies and whose space the product keeps.
    """
    wrapped = isinstance(ops[0], TruncatedOperator)
    mats = [op.matrix for op in ops] if wrapped else ops
    if not alpha:
        out = np.eye(mats[0].shape[0], dtype=complex)
    else:
        # a complex copy of the first factor, equal to I @ X_{alpha[0]}
        out = np.array(mats[alpha[0] - 1], dtype=complex)
        for letter in alpha[1:]:
            out = out @ mats[letter - 1]
    return TruncatedOperator(ops[0].model, out, ops[0].aux_dim) if wrapped else out


def word_products(X: Sequence[np.ndarray], N: int) -> np.ndarray:
    """X_alpha for every word of length <= N, stacked in graded order, by the
    prefix chain X_alpha = X_{alpha[:-1]} X_{alpha[-1]}: one batched product
    per length, each word bitwise equal to word_operator(X, alpha)."""
    k = X[0].shape[0]
    letters = np.array(X, dtype=complex)
    levels = [np.eye(k, dtype=complex)[None], letters]
    for _ in range(2, N + 1):
        # graded order puts alpha + (i,) at n * index(alpha) + i - 1 in its length
        levels.append(np.matmul(levels[-1][:, None], letters).reshape(-1, k, k))
    return np.concatenate(levels[:N + 1])


def substitute(X: Sequence[np.ndarray], terms, d: int = 1) -> np.ndarray:
    """sum c B (x) X_alpha X_beta^* over the terms (alpha, beta, c, B), a
    (d*k) x (d*k) matrix with aux-major rows (flat index i * k + p); the
    tuple-side counterpart of TruncatedModel.operator."""
    k = X[0].shape[0]
    out = np.zeros((d, k, d, k), dtype=complex)
    for alpha, beta, c, B in terms:
        # one word product per term when either word is empty
        if not beta:
            M = word_operator(X, alpha)
        elif not alpha:
            M = word_operator(X, beta).conj().T
        else:
            M = word_operator(X, alpha) @ word_operator(X, beta).conj().T
        out += np.reshape(_block(B, d), (d, 1, d, 1)) * (c * M)[None, :, None, :]
    return out.reshape(d * k, d * k)


def cp_map_terms(spec: DomainSpec, X: Sequence[np.ndarray]) -> list[tuple[float, np.ndarray]]:
    """The terms (a_alpha, X_alpha), alpha in supp q, of Phi_{q,X}."""
    if len(X) != spec.n:
        raise ValueError(f"expected {spec.n} operators, got {len(X)}")
    return [(float(a), word_operator(X, alpha)) for alpha, a in spec.coefficients.items()]


def cp_map_orbit(spec: DomainSpec, X: Sequence[np.ndarray], Y: np.ndarray
                 ) -> Iterator[np.ndarray]:
    """Phi(Y), Phi^2(Y), ... for Phi = Phi_{q,X}; the words X_alpha are
    formed once per call."""
    k = Y.shape[0]
    for Xi in X:
        if Xi.shape != (k, k):
            raise ValueError("operator tuple dimensions inconsistent with Y")
    terms = [(a, Xa, Xa.conj().T) for a, Xa in cp_map_terms(spec, X)]
    while True:
        out = np.zeros_like(Y, dtype=complex)
        for a, Xa, Xa_adj in terms:
            out += a * (Xa @ Y @ Xa_adj)
        Y = out
        yield Y


def cp_map_apply(spec: DomainSpec, X: Sequence[np.ndarray], Y: np.ndarray) -> np.ndarray:
    """Phi_{q,X}(Y) = sum_{alpha in supp q} a_alpha X_alpha Y X_alpha^*."""
    return next(cp_map_orbit(spec, X, Y))


def cp_orbit_norms(spec: DomainSpec, X: Sequence[np.ndarray], k_max: int) -> list[float]:
    """||Phi^k_{q,X}(I)|| for k = 1..k_max, stopping after the first exact
    zero: every later power is zero too."""
    norms: list[float] = []
    for Y in islice(cp_map_orbit(spec, X, np.eye(X[0].shape[0], dtype=complex)), k_max):
        norms.append(spectral_norm(Y))
        if norms[-1] == 0.0:
            break
    return norms


def defects(spec: DomainSpec, X: Sequence[np.ndarray], m: int) -> list[np.ndarray]:
    """(id - Phi_{q,X})^j (I) for j = 1..m, each hermitized against roundoff
    before the next step is taken from it."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    Y = np.eye(X[0].shape[0], dtype=complex)
    out = []
    for _ in range(m):
        Y = Y - cp_map_apply(spec, X, Y)
        Y = (Y + Y.conj().T) / 2
        out.append(Y)
    return out


MODEL_TOL = 1e-10        # defects, contraction and conjugation of the model
COMMUTATION_TOL = 1e-12  # left and right creation operators commute


@dataclass
class ModelIdentityReport:
    defect_residual_left: float        # ||(id-Phi_{q,W})^m(I) - P_C||_max
    phi_norm_left: float               # max eigenvalue of Phi_{q,W}(I)
    defect_residual_right: float       # same, Lambda with reversed coefficients
    phi_norm_right: float
    commutation_residual: float        # max ||(W_i Lambda_j - Lambda_j W_i) e_gamma||

    @property
    def passed(self) -> bool:
        return (self.defect_residual_left <= MODEL_TOL
                and self.defect_residual_right <= MODEL_TOL
                and self.phi_norm_left <= 1 + MODEL_TOL
                and self.phi_norm_right <= 1 + MODEL_TOL
                and self.commutation_residual <= COMMUTATION_TOL)


def _diagonal_cp_map(model: TruncatedModel, spec: DomainSpec, y: np.ndarray,
                     left: bool) -> np.ndarray:
    """Diagonal of Phi_{q,W}(diag y) (left) or Phi_{q,Lambda}(diag y) (right):
    each word operator is a weighted partial permutation, so the map sends
    diagonal operators to diagonal ones."""
    out = np.zeros_like(y)
    for alpha, a in spec.coefficients.items():
        dst, src, w = model.shift(alpha, left)
        out[dst] += float(a) * w ** 2 * y[src]
    return out


def verify_model_identities(spec: DomainSpec, table: WeightTable,
                            N: int) -> ModelIdentityReport:
    model = truncated_model(table, N)
    D = model.dimension
    vacuum = np.zeros(D)
    vacuum[model.index[EMPTY]] = 1.0
    residuals, norms = [], []
    for s, left in ((spec, True), (spec.reversed(), False)):
        y = np.ones(D)
        for _ in range(spec.m):
            y = y - _diagonal_cp_map(model, s, y, left)
        residuals.append(float(np.max(np.abs(y - vacuum))))
        norms.append(float(np.max(_diagonal_cp_map(model, s, np.ones(D), left))))

    # W_i Lambda_j e_gamma and Lambda_j W_i e_gamma are each a weight times one
    # basis vector; both raise word length by 2, so only the interior words
    # |gamma| <= N - 2 are compared (deeper ones are truncation artifacts)
    interior = fock_dimension(spec.n, N - 2) if N >= 2 else 0
    comm = []
    for i in range(1, spec.n + 1):
        dst_w, _, w_w = model.shift((i,), left=True)
        for j in range(1, spec.n + 1):
            dst_l, _, w_l = model.shift((j,), left=False)
            mid_wl, mid_lw = dst_l[:interior], dst_w[:interior]
            wl = w_w[mid_wl] * w_l[:interior]
            lw = w_l[mid_lw] * w_w[:interior]
            cols = np.where(dst_w[mid_wl] == dst_l[mid_lw],
                            np.abs(wl - lw), np.hypot(wl, lw))
            comm.append(cols)

    return ModelIdentityReport(residuals[0], norms[0], residuals[1], norms[1],
                               float(np.max(comm, initial=0.0)))


def weighted_space_conjugation(table: WeightTable, N: int) -> float:
    """Diagonal U e_alpha = sqrt(b_alpha) e_alpha conjugating each W_i to the
    unweighted multiplication shift of the weighted Fock space picture:
    U W_i U^{-1} e_gamma = sqrt_b[dst] w / sqrt_b[src] e_{g_i gamma}.  Returns
    max over i, |gamma| < N of |(U W_i U^{-1})[g_i gamma, gamma] - 1|."""
    model = truncated_model(table, N)
    residuals = []
    for i in range(1, table.spec.n + 1):
        dst, src, w = model.shift((i,))
        residuals.append(np.abs(model.sqrt_b[dst] * w / model.sqrt_b[src] - 1.0))
    return float(np.max(residuals, initial=0.0))
