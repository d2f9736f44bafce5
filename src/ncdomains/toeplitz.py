"""Weighted right multi-Toeplitz operators: detection, symbols, assembly.

A symbol is a pair of finitely supported coefficient maps
A: word -> d x d block (including the constant A_(()) ) and
B: nonempty word -> d x d block.  The associated operator is

    phi(rW) = sum B_(alpha) (x) r^|alpha| W_alpha^*  +  A_(()) (x) I
            + sum A_(alpha) (x) r^|alpha| W_alpha.

MultiToeplitzSymbol.terms(r) is the one translation of a symbol into the
term list (alpha, beta, c, B) of fock.py; symbol_to_operator substitutes it
into the model (phi(rW)) and evaluate_symbol into a tuple (phi(rX)).

is_multi_toeplitz certifies an operator matrix against the main theorem:
zero entries at every right-incomparable word pair, read from the matrix's
nonzero entries alone with comparability tested by word-index arithmetic,
and weighted shift invariance at the comparable pairs.  The structure check
compares matrix entries only on pairs whose letter extensions stay inside
the truncation; boundary pairs would produce false negatives from
compression and are skipped.  fourier_coefficients reads the symbol back
from the first block row and column.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fock import TruncatedOperator, substitute, truncated_model
from .weights import TruncationExceededError, WeightTable
from .words import EMPTY, Word, fock_dimension

MONOTONE_TOL = 1e-10  # norm_profile: allowed decrease of ||phi(r W_N)|| in r
SCAN_ROWS = 32        # is_multi_toeplitz: block rows per pass of the nonzero scan


@dataclass
class MultiToeplitzSymbol:
    aux_dim: int = 1
    A: dict[Word, np.ndarray] = field(default_factory=dict)
    B: dict[Word, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        d = self.aux_dim
        if d < 1:
            raise ValueError(f"aux_dim must be >= 1, got {d}")
        self.A = {tuple(w): np.asarray(blk, dtype=complex).reshape(d, d)
                  for w, blk in self.A.items()}
        self.B = {tuple(w): np.asarray(blk, dtype=complex).reshape(d, d)
                  for w, blk in self.B.items()}
        if EMPTY in self.B:
            raise ValueError("B part has no constant coefficient")

    @staticmethod
    def scalar(A: dict[Word, complex] | None = None,
               B: dict[Word, complex] | None = None) -> "MultiToeplitzSymbol":
        wrap = lambda m: {w: np.array([[v]], dtype=complex) for w, v in (m or {}).items()}
        return MultiToeplitzSymbol(1, wrap(A), wrap(B))

    @property
    def constant(self) -> np.ndarray:
        return self.A.get(EMPTY, np.zeros((self.aux_dim, self.aux_dim), dtype=complex))

    @property
    def max_order(self) -> int:
        lengths = [len(w) for w in self.A] + [len(w) for w in self.B]
        return max(lengths, default=0)

    def terms(self, r: float) -> list:
        """phi(rZ) as terms (alpha, beta, c, B): (alpha, (), r^|alpha|, A_(alpha))
        and ((), alpha, r^|alpha|, B_(alpha))."""
        return ([(alpha, EMPTY, r ** len(alpha), blk) for alpha, blk in self.A.items()]
                + [(EMPTY, alpha, r ** len(alpha), blk) for alpha, blk in self.B.items()])

    def drop_zero_blocks(self) -> "MultiToeplitzSymbol":
        keep = lambda m: {w: b for w, b in m.items() if np.max(np.abs(b)) > 0.0}
        return MultiToeplitzSymbol(self.aux_dim, keep(self.A), keep(self.B))

    def adjoint(self) -> "MultiToeplitzSymbol":
        A = {EMPTY: self.constant.conj().T}
        A.update({w: blk.conj().T for w, blk in self.B.items()})
        B = {w: blk.conj().T for w, blk in self.A.items() if w != EMPTY}
        return MultiToeplitzSymbol(self.aux_dim, A, B)

    def __add__(self, other: "MultiToeplitzSymbol") -> "MultiToeplitzSymbol":
        if self.aux_dim != other.aux_dim:
            raise ValueError("aux_dim mismatch")
        d = self.aux_dim
        zero = np.zeros((d, d), dtype=complex)
        A = {w: self.A.get(w, zero) + other.A.get(w, zero)
             for w in set(self.A) | set(other.A)}
        B = {w: self.B.get(w, zero) + other.B.get(w, zero)
             for w in set(self.B) | set(other.B)}
        return MultiToeplitzSymbol(d, A, B)

    def __sub__(self, other: "MultiToeplitzSymbol") -> "MultiToeplitzSymbol":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "MultiToeplitzSymbol":
        return MultiToeplitzSymbol(
            self.aux_dim,
            {w: scalar * blk for w, blk in self.A.items()},
            {w: scalar * blk for w, blk in self.B.items()})

    __rmul__ = __mul__


def max_block_difference(s1: MultiToeplitzSymbol, s2: MultiToeplitzSymbol) -> float:
    """The largest entrywise difference of the two symbols' coefficients;
    NaN when any difference is NaN, so that it fails every tolerance."""
    zero = np.zeros((s1.aux_dim, s1.aux_dim), dtype=complex)
    diffs = [np.abs(p1.get(w, zero) - p2.get(w, zero))
             for p1, p2 in ((s1.A, s2.A), (s1.B, s2.B)) for w in set(p1) | set(p2)]
    return float(np.max(diffs, initial=0.0))


@dataclass
class ToeplitzReport:
    is_toeplitz: bool
    worst_structure_residual: float
    worst_incomparable_entry: float
    structure_witness: tuple[Word, Word, int] | None = None
    incomparable_witness: tuple[Word, Word] | None = None


def check_basis(n: int, N: int, table: WeightTable) -> None:
    """Raise ValueError unless a depth-N basis on n letters fits table."""
    if n != table.spec.n:
        raise ValueError(f"operator has n = {n} letters, the spec has {table.spec.n}")
    if N > table.N:
        raise ValueError(f"operator depth N = {N} exceeds the table depth {table.N}")


def is_multi_toeplitz(T: TruncatedOperator, table: WeightTable,
                      tol: float = 1e-10) -> ToeplitzReport:
    """Check the weighted shift-invariance relations of the operator matrix.

    Residuals are absolute, compared against tol scaled by the largest
    entry magnitude of T.  The incomparable scan reads only the nonzero
    entries of T, SCAN_ROWS block rows at a time, and tests each one's
    block words (omega, gamma) for right-comparability by their indices
    alone: in the graded basis a word's position in its length level is its
    letters read as base-n digits, the last letter lowest, so gamma is a
    suffix of omega exactly when the positions agree modulo n^|gamma|.  The
    structure residual reads the model's comparable pairs.  No D x D array
    is made, and the memory taken beyond T is that of one chunk's nonzeros
    and of the comparable pairs.  A witness is the first worst pair in
    row-major (omega, gamma[, i]) order.
    """
    check_basis(T.model.n, T.model.N, table)
    model = truncated_model(table, T.model.N)
    n, N, D, d, words, sqrt_b = (model.n, model.N, model.dimension, T.aux_dim,
                                 model.words, model.sqrt_b)
    # each word's position in its length level and n^(its length), as int32
    # (both are at most D) to halve the per-entry arrays below
    sizes = n ** np.arange(N + 1)
    position = np.concatenate([np.arange(size, dtype=np.int32) for size in sizes])
    level_size = np.repeat(sizes.astype(np.int32), sizes)

    M = T.matrix.reshape(D, d, D, d)
    peak = worst_incomp = 0.0
    incomp_pair = None  # the first worst incomparable pair (omega, gamma)
    for i in range(0, D, SCAN_ROWS):
        chunk = M[i:i + SCAN_ROWS]
        at = np.flatnonzero(chunk != 0)  # a bool test is faster than nonzero on complex
        mag = np.abs(chunk.ravel()[at])
        # at = (row d + x) D d + gamma d + y for entry (x, y) of block
        # (i + row, gamma).  np.divmod in place of //, the tables sliced at i
        # in place of adding it, and _first in place of ranking keys: those
        # integer loops are numpy code that nothing else in a verify-all run
        # loads (64 kB of peak RSS each).
        row, gamma = np.divmod(at, d * D * d)
        del at
        gamma %= D * d
        gamma = np.divmod(gamma, d)[0]
        modulus = np.minimum(level_size[i:][row], level_size[gamma])
        incomparable = position[i:][row] % modulus != position[gamma] % modulus
        del modulus
        worst = mag[incomparable].max(initial=0.0)
        if worst > worst_incomp:
            hit = incomparable & (mag == worst)
            first_row, first_gamma = _first(row[hit], gamma[hit])
            incomp_pair = (i + first_row, first_gamma)
        # np.maximum keeps a NaN entry, which then fails the check
        peak = np.maximum(peak, mag.max(initial=0.0))
        worst_incomp = np.maximum(worst_incomp, worst)
        # the next chunk's arrays need not coexist with these
        del row, gamma, mag, incomparable
    scale = max(float(peak), 1.0)
    worst_incomp = float(worst_incomp)
    incomp_witness = None
    if worst_incomp > 0:
        incomp_witness = (words[incomp_pair[0]], words[incomp_pair[1]])

    # comparable pairs (omega, gamma) whose letter extensions stay inside the
    # truncation; the words of length < N lead the graded basis, and the
    # longer word of a pair has the larger index
    long, short, _ = model.comparable_pairs()
    inner = long < fock_dimension(n, N - 1)
    long, short = long[inner], short[inner]
    off = long != short
    lng, sht = np.concatenate((long, long[off])), np.concatenate((short, short[off]))
    rows, cols = np.concatenate((long, short[off])), np.concatenate((short, long[off]))
    # weight sqrt(b_long / b_short) of each comparable pair
    base = (sqrt_b[lng] / sqrt_b[sht])[:, None, None] * M[rows, :, cols, :]
    residual = np.empty((len(rows), n))
    for i in range(1, n + 1):
        ext = model.shift((i,), left=False)[0]
        lam_e = sqrt_b[ext[lng]] / sqrt_b[ext[sht]]
        residual[:, i - 1] = np.abs(lam_e[:, None, None] * M[ext[rows], :, ext[cols], :]
                                    - base).max(axis=(1, 2))
    worst_structure = float(residual.max(initial=0.0))
    structure_witness = None
    if worst_structure > 0:
        p, i = np.nonzero(residual == worst_structure)
        omega, gamma, i = _first(rows[p], cols[p], i)
        structure_witness = (words[omega], words[gamma], int(i) + 1)
    ok = worst_structure <= tol * scale and worst_incomp <= tol * scale
    return ToeplitzReport(ok, worst_structure, worst_incomp,
                          structure_witness, incomp_witness)


def _first(*keys: np.ndarray) -> list:
    """The first of the tuples (keys[0][j], keys[1][j], ...) in lexicographic
    order, by successive minima: no sort and no arithmetic on the keys."""
    rest = np.ones(len(keys[0]), dtype=bool)
    first = []
    for key in keys:
        low = key[rest].min()
        rest &= key == low
        first.append(low)
    return first


def fourier_coefficients(T: TruncatedOperator, table: WeightTable,
                         max_order: int) -> MultiToeplitzSymbol:
    """A_(alpha) = sqrt(b_alpha) C_{alpha, ()},  B_(alpha) = sqrt(b_alpha) C_{(), alpha},
    read from the first block column and the first block row of T for the
    words of length <= max_order.  A block is kept when its largest entry
    magnitude is > 0, so all-zero blocks and blocks holding a NaN are left
    out."""
    if max_order > T.model.N:
        raise ValueError(f"max_order {max_order} exceeds truncation {T.model.N}")
    check_basis(T.model.n, T.model.N, table)
    model = truncated_model(table, T.model.N)
    D, d = model.dimension, T.aux_dim
    K = fock_dimension(model.n, max_order)
    M = T.matrix.reshape(D, d, D, d)
    w = model.sqrt_b[:K, None, None]
    parts = []
    for blocks in (w * M[:K, :, 0, :], w * M[0, :, :K, :].transpose(1, 0, 2)):
        top = np.abs(blocks).max(axis=(1, 2))
        # top > 0, tested by equality: ordering comparisons of float arrays
        # run numpy code that nothing else in a verify-all run loads
        keep = (top != 0) & ~np.isnan(top)
        # each kept block is copied out, so that the symbol does not keep
        # both (K, d, d) products alive
        parts.append({model.words[j]: blocks[j].copy() for j in np.flatnonzero(keep)})
    A, B = parts
    B.pop(EMPTY, None)
    return MultiToeplitzSymbol(d, A, B)


def symbol_to_operator(sym: MultiToeplitzSymbol, table: WeightTable,
                       r: float, N: int) -> TruncatedOperator:
    """Assemble phi(rW) on the truncation; at r = 1 this is the compression
    of phi(W) (finite support makes it meaningful)."""
    check_support(sym, N)
    return truncated_model(table, N).operator(sym.terms(r), sym.aux_dim)


def check_support(sym: MultiToeplitzSymbol, N: int) -> None:
    if sym.max_order > N:
        raise TruncationExceededError(
            f"symbol support {sym.max_order} exceeds truncation {N}")


def evaluate_symbol(sym: MultiToeplitzSymbol, X: Sequence[np.ndarray],
                    scale: float = 1.0) -> np.ndarray:
    """phi(scale X) = sum B_(a) (x) scale^|a| X_a^*  +  A_(()) (x) I
    + sum A_(a) (x) scale^|a| X_a, aux-major."""
    return substitute(X, sym.terms(scale), sym.aux_dim)


def norm_profile(sym: MultiToeplitzSymbol, table: WeightTable, radii, N: int):
    """||phi(r W_N)|| per radius.  Each value is a lower bound of the
    untruncated norm, nondecreasing in N; the profile must be nondecreasing
    in r up to MONOTONE_TOL; a NaN norm counts as a violation.  Each norm is
    TruncatedModel.norm of phi(rW_N)'s terms, that of symbol_to_operator(sym,
    table, r, N): bitwise below the Krylov cut-over, where it forms that
    operator, and within roundoff above it, where it does not."""
    check_support(sym, N)
    model = truncated_model(table, N)
    norms = [model.norm(sym.terms(float(r)), sym.aux_dim) for r in radii]
    violations = [(float(radii[i]), float(radii[i + 1]))
                  for i in range(len(norms) - 1)
                  if not norms[i] <= norms[i + 1] + MONOTONE_TOL]
    return norms, violations

