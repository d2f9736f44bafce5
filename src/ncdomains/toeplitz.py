"""Weighted right multi-Toeplitz operators: detection, symbols, assembly.

A symbol is a pair of finitely supported coefficient maps
A: word -> d x d block (including the constant A_(()) ) and
B: nonempty word -> d x d block.  The associated operator is

    phi(rW) = sum B_(alpha) (x) r^|alpha| W_alpha^*  +  A_(()) (x) I
            + sum A_(alpha) (x) r^|alpha| W_alpha.

Structure checks compare matrix entries only on index pairs whose letter
extensions stay inside the truncation; boundary pairs would produce false
negatives from compression and are skipped.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fock import TruncatedOperator, truncated_model
from .weights import TruncationExceededError, WeightTable
from .words import EMPTY, GEQ, Word, compare_right


class NotToeplitzError(ValueError):
    pass


@dataclass
class MultiToeplitzSymbol:
    aux_dim: int = 1
    A: dict[Word, np.ndarray] = field(default_factory=dict)
    B: dict[Word, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        d = self.aux_dim
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

    def drop_zero_blocks(self, tol: float = 0.0) -> "MultiToeplitzSymbol":
        keep = lambda m: {w: b for w, b in m.items() if np.max(np.abs(b)) > tol}
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

    def allclose(self, other: "MultiToeplitzSymbol", tol: float = 1e-10) -> bool:
        return max_block_difference(self, other) <= tol


def max_block_difference(s1: MultiToeplitzSymbol, s2: MultiToeplitzSymbol) -> float:
    d = s1.aux_dim
    zero = np.zeros((d, d), dtype=complex)
    worst = 0.0
    for w in set(s1.A) | set(s2.A):
        worst = max(worst, float(np.max(np.abs(s1.A.get(w, zero) - s2.A.get(w, zero)))))
    for w in set(s1.B) | set(s2.B):
        worst = max(worst, float(np.max(np.abs(s1.B.get(w, zero) - s2.B.get(w, zero)))))
    return worst


@dataclass
class ToeplitzReport:
    is_toeplitz: bool
    worst_structure_residual: float
    worst_incomparable_entry: float
    tolerance: float
    structure_witness: tuple[Word, Word, int] | None = None
    incomparable_witness: tuple[Word, Word] | None = None


def is_multi_toeplitz(T: TruncatedOperator, table: WeightTable,
                      tol: float = 1e-10) -> ToeplitzReport:
    """Check the weighted shift-invariance relations of the operator matrix.

    Residuals are absolute, compared against tol scaled by the largest
    block magnitude of T.
    """
    basis = T.basis
    if basis.n != table.spec.n or basis.N > table.N:
        raise ValueError("operator basis incompatible with weight table")
    n = basis.n
    interior = basis.N - 1
    scale = max(float(np.max(np.abs(T.matrix))), 1.0)
    sqrt_b = truncated_model(table, basis.N).sqrt_b
    index = basis.index

    worst_structure = 0.0
    worst_incomp = 0.0
    structure_witness = None
    incomp_witness = None
    for omega in basis.words:
        for gamma in basis.words:
            cmp = compare_right(omega, gamma)
            if not cmp.comparable:
                entry = float(np.max(np.abs(T.block(omega, gamma))))
                if entry > worst_incomp:
                    worst_incomp = entry
                    incomp_witness = (omega, gamma)
                continue
            if len(omega) > interior or len(gamma) > interior:
                continue
            # weight sqrt(b_long / b_short) of the comparable pair
            long, short = (omega, gamma) if cmp.relation == GEQ else (gamma, omega)
            base = sqrt_b[index[long]] / sqrt_b[index[short]] * T.block(omega, gamma)
            for i in range(1, n + 1):
                lam_e = sqrt_b[index[long + (i,)]] / sqrt_b[index[short + (i,)]]
                res = float(np.max(np.abs(lam_e * T.block(omega + (i,), gamma + (i,))
                                          - base)))
                if res > worst_structure:
                    worst_structure = res
                    structure_witness = (omega, gamma, i)
    ok = worst_structure <= tol * scale and worst_incomp <= tol * scale
    return ToeplitzReport(ok, worst_structure, worst_incomp, tol,
                          structure_witness, incomp_witness)


def fourier_coefficients(T: TruncatedOperator, table: WeightTable,
                         max_order: int) -> MultiToeplitzSymbol:
    """A_(alpha) = sqrt(b_alpha) C_{alpha, ()},  B_(alpha) = sqrt(b_alpha) C_{(), alpha}."""
    basis = T.basis
    if max_order > basis.N:
        raise ValueError(f"max_order {max_order} exceeds truncation {basis.N}")
    sqrt_b = truncated_model(table, basis.N).sqrt_b
    A: dict[Word, np.ndarray] = {}
    B: dict[Word, np.ndarray] = {}
    for alpha, w in zip(basis.words, sqrt_b):
        if len(alpha) > max_order:
            continue
        A[alpha] = w * T.block(alpha, EMPTY)
        if alpha != EMPTY:
            B[alpha] = w * T.block(EMPTY, alpha)
    return MultiToeplitzSymbol(T.aux_dim, A, B).drop_zero_blocks()


def symbol_to_operator(sym: MultiToeplitzSymbol, table: WeightTable,
                       r: float, N: int) -> TruncatedOperator:
    """Assemble phi(rW) on the truncation; at r = 1 this is the compression
    of phi(W) (finite support makes it meaningful)."""
    if sym.max_order > N:
        raise TruncationExceededError(
            f"symbol support {sym.max_order} exceeds truncation {N}")
    model = truncated_model(table, N)
    d = sym.aux_dim
    D = model.basis.dimension
    # (row word, row aux, column word, column aux): the word-major layout
    M = np.zeros((D, d, D, d), dtype=complex)
    for alpha, blk in sym.A.items():
        dst, src, w = model.shift(alpha)
        M[dst, :, src, :] += (r ** len(alpha)) * w[:, None, None] * blk
    for alpha, blk in sym.B.items():
        dst, src, w = model.shift(alpha)
        M[src, :, dst, :] += (r ** len(alpha)) * w[:, None, None] * blk
    return TruncatedOperator(model.basis, M.reshape(D * d, D * d), d)


def norm_profile(sym: MultiToeplitzSymbol, table: WeightTable,
                 radii, N: int, tol: float = 1e-10):
    """||phi(r W_N)|| per radius.  Each value is a lower bound of the
    untruncated norm, nondecreasing in N; the profile must be nondecreasing
    in r up to tol."""
    norms = []
    for r in radii:
        norms.append(symbol_to_operator(sym, table, float(r), N).norm())
    violations = [(float(radii[i]), float(radii[i + 1]))
                  for i in range(len(norms) - 1)
                  if norms[i] > norms[i + 1] + tol]
    return norms, violations


def hermitian_part_split(T: TruncatedOperator, table: WeightTable,
                         tol: float = 1e-10) -> tuple[MultiToeplitzSymbol, MultiToeplitzSymbol]:
    """Split a Toeplitz operator into its analytic (A) and antianalytic (B)
    symbol parts.  Raises NotToeplitzError on structural failure."""
    report = is_multi_toeplitz(T, table, tol)
    if not report.is_toeplitz:
        raise NotToeplitzError(
            f"structure residual {report.worst_structure_residual:.3e}, "
            f"incomparable entry {report.worst_incomparable_entry:.3e}")
    sym = fourier_coefficients(T, table, T.basis.N)
    analytic = MultiToeplitzSymbol(sym.aux_dim, dict(sym.A), {})
    antianalytic = MultiToeplitzSymbol(sym.aux_dim, {}, dict(sym.B))
    return analytic, antianalytic
