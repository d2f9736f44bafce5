"""Free pluriharmonic functions as finitely supported symbols.

A pluriharmonic function is carried by a MultiToeplitzSymbol: the A part
holds the holomorphic coefficients, the B part the antiholomorphic ones.
Values at an operator tuple live on (aux space) (x) C^k, aux-major.

General pluriharmonic functions enter only as sequences of finitely
supported ones (Weierstrass limits); every identity tested here reduces to
a uniform statement on r-scaled domains that finite supports realize
exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import TruncatedOperator, spectral_norm, truncated_model
from .toeplitz import MultiToeplitzSymbol, symbol_to_operator
from .weights import WeightTable
from .words import EMPTY, Word

RHO_RADII_KMAX = 8


def rho_radii(k_max: int = RHO_RADII_KMAX) -> list[float]:
    """Fixed radius ladder r_k = 1 - 2^-k used by the metric rho."""
    return [1.0 - 2.0 ** (-k) for k in range(1, k_max + 1)]


@dataclass
class PluriharmonicFunction:
    symbol: MultiToeplitzSymbol

    @property
    def aux_dim(self) -> int:
        return self.symbol.aux_dim

    @property
    def max_order(self) -> int:
        return self.symbol.max_order

    def is_self_adjoint(self, tol: float = 1e-12) -> bool:
        A0 = self.symbol.constant
        if np.max(np.abs(A0 - A0.conj().T)) > tol:
            return False
        d = self.aux_dim
        zero = np.zeros((d, d), dtype=complex)
        for w in set(self.symbol.A) | set(self.symbol.B):
            if w == EMPTY:
                continue
            if np.max(np.abs(self.symbol.B.get(w, zero)
                             - self.symbol.A.get(w, zero).conj().T)) > tol:
                return False
        return True

    def evaluate(self, X: Sequence[np.ndarray], scale: float = 1.0) -> np.ndarray:
        """sum B_(a) (x) X_a^*  +  A_(()) (x) I  +  sum A_(a) (x) X_a."""
        return evaluate_symbol(self.symbol, X, scale)

    def real_part(self) -> "PluriharmonicFunction":
        half = 0.5 * self.symbol
        return PluriharmonicFunction(half + half.adjoint())


def evaluate_symbol(sym: MultiToeplitzSymbol, X: Sequence[np.ndarray],
                    scale: float = 1.0) -> np.ndarray:
    from .fock import word_operator

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


def holomorphic(A: dict[Word, np.ndarray], aux_dim: int = 1) -> PluriharmonicFunction:
    return PluriharmonicFunction(MultiToeplitzSymbol(aux_dim, dict(A), {}))


def scalar_holomorphic(coeffs: dict[Word, complex]) -> PluriharmonicFunction:
    return PluriharmonicFunction(MultiToeplitzSymbol.scalar(A=coeffs))


def gamma_kernel(F: PluriharmonicFunction, table: WeightTable, r: float,
                 order: int) -> TruncatedOperator:
    """Block matrix [Gamma_rF(omega, gamma)] of the holomorphic part of F over
    the words of length <= order.

    Gamma(omega, gamma) = sqrt(b_gamma / b_{alpha gamma}) r^|alpha| A_(alpha)
    when omega = alpha gamma (A_(()) + A_(())^* on the diagonal), its adjoint
    when gamma = alpha omega, and zero when the words are incomparable.
    """
    if order > table.N:
        raise ValueError(f"order {order} exceeds table depth {table.N}")
    d = F.aux_dim
    A = F.symbol.A
    model = truncated_model(table, order)
    D, sqrt_b = model.basis.dimension, model.sqrt_b
    zero = np.zeros((d, d), dtype=complex)
    M = np.zeros((D, d, D, d), dtype=complex)
    for i, j, alpha in zip(*model.basis.comparable_pairs()):
        blk = sqrt_b[j] / sqrt_b[i] * (r ** len(alpha)) * A.get(alpha, zero)
        M[i, :, j, :] += blk
        M[j, :, i, :] += blk.conj().T
    return TruncatedOperator(model.basis, M.reshape(D * d, D * d), d)


@dataclass
class SchurPositivityReport:
    radii: list[float]
    equality_residuals: list[float]    # Gamma vs compression of F(rW)^* + F(rW)
    min_eigenvalues: list[float]
    positive: bool
    tol: float


def schur_positivity_test(F: PluriharmonicFunction, table: WeightTable,
                          radii: Sequence[float], order: int, N: int,
                          tol: float = 1e-10) -> SchurPositivityReport:
    """Certify Re F >= 0 at truncation: the Gamma block matrix must equal the
    words-<=order compression of F(rW_N)^* + F(rW_N) and be PSD per radius."""
    if F.symbol.B:
        raise ValueError("schur test expects a holomorphic (A-part only) symbol")
    if F.max_order > N - order:
        raise ValueError("need symbol support <= N - order for an exact compression")
    residuals = []
    mins = []
    for r in radii:
        G = gamma_kernel(F, table, float(r), order).matrix
        op = symbol_to_operator(F.symbol, table, float(r), N)
        H = op.matrix + op.matrix.conj().T
        # words <= order sit first in the graded basis of the big truncation
        comp = H[: len(G), : len(G)]
        residuals.append(float(np.max(np.abs(G - comp))))
        mins.append(float(np.min(np.linalg.eigvalsh((G + G.conj().T) / 2))))
    positive = all(v >= -tol for v in mins)
    return SchurPositivityReport([float(r) for r in radii], residuals, mins,
                                 positive, tol)


def distance(F: PluriharmonicFunction, G: PluriharmonicFunction,
             table: WeightTable, N: int,
             k_max: int = RHO_RADII_KMAX) -> tuple[list[float], float]:
    """d_{r_k}(F, G) = ||F(r_k W_N) - G(r_k W_N)|| and the truncated metric
    rho = sum 2^-k d/(1+d).  d_r values are lower bounds nondecreasing in N;
    the rho tail beyond k_max is bounded by 2^-k_max."""
    diff = F.symbol - G.symbol
    d_vals = []
    rho = 0.0
    for k, r in enumerate(rho_radii(k_max), start=1):
        d_r = symbol_to_operator(diff, table, r, N).norm()
        d_vals.append(d_r)
        rho += 2.0 ** (-k) * d_r / (1.0 + d_r)
    return d_vals, rho


@dataclass
class WeierstrassReport:
    converged: bool
    limit: PluriharmonicFunction | None
    cauchy_profiles: dict[float, list[float]]  # per radius: ||F_{j+1}(rW)-F_j(rW)||
    limit_distances: dict[float, list[float]]  # per radius: ||F_j(rW)-limit(rW)||


def weierstrass_limit(functions: Sequence[PluriharmonicFunction],
                      table: WeightTable, radii: Sequence[float], N: int,
                      tol: float = 1e-8) -> WeierstrassReport:
    """Check Cauchy-ness of {F_j(rW_N)} per radius; on success return the
    coefficientwise limit and verify it reproduces the operator limits."""
    if len(functions) < 2:
        raise ValueError("need at least two functions")
    cauchy: dict[float, list[float]] = {}
    for r in radii:
        diffs = []
        for j in range(len(functions) - 1):
            diff = functions[j + 1].symbol - functions[j].symbol
            diffs.append(symbol_to_operator(diff, table, float(r), N).norm())
        cauchy[float(r)] = diffs
    converged = all(diffs[-1] <= tol or diffs[-1] < diffs[0]
                    for diffs in cauchy.values())
    if not converged:
        return WeierstrassReport(False, None, cauchy, {})
    limit = functions[-1]
    dists: dict[float, list[float]] = {}
    for r in radii:
        dists[float(r)] = [
            symbol_to_operator(Fj.symbol - limit.symbol, table, float(r), N).norm()
            for Fj in functions]
    return WeierstrassReport(True, limit, cauchy, dists)


def conjugate(G: PluriharmonicFunction, tol: float = 1e-12) -> PluriharmonicFunction:
    """Harmonic conjugate H = (F - F^*) / 2i of a self-adjoint G, where F is
    the holomorphic completion of G.  H is self-adjoint, H(0) = 0, and
    G + iH is holomorphic."""
    if not G.is_self_adjoint(tol):
        raise ValueError("conjugate requires a self-adjoint pluriharmonic function")
    F = holomorphic_completion(G)
    H_sym = (1.0 / 2j) * (F.symbol - F.symbol.adjoint())
    return PluriharmonicFunction(H_sym.drop_zero_blocks())


def holomorphic_completion(G: PluriharmonicFunction) -> PluriharmonicFunction:
    """F with Re F = G: constant A_(()) kept, higher A blocks doubled."""
    A = {w: (blk if w == EMPTY else 2.0 * blk) for w, blk in G.symbol.A.items()}
    return PluriharmonicFunction(MultiToeplitzSymbol(G.aux_dim, A, {}))


@dataclass
class BoundedRoundtripReport:
    radial_gap: list[float]       # ||F(r W_N) - psi_N|| along the grid
    transform_residual: float     # ||F(X) - extended-Berezin_X[psi_N]||
    tol: float

    @property
    def passed(self) -> bool:
        return self.transform_residual <= self.tol


def bounded_roundtrip(F: PluriharmonicFunction, table: WeightTable, N: int,
                      radii: Sequence[float], X, tol: float = 1e-8
                      ) -> BoundedRoundtripReport:
    """Boundary operator psi_N = phi(W_N) from the symbol, the Dirichlet-style
    norm-convergence diagnostic ||F(rW) - psi_N|| -> 0, and the roundtrip
    F(X) = extended-Berezin_X[psi_N] at a pure X."""
    from .berezin import DomainMembershipError, berezin_transform, domain_membership

    report = domain_membership(X.spec, X)
    if not report.in_domain or not report.pure:
        raise DomainMembershipError("bounded roundtrip requires a pure domain element")
    psi = symbol_to_operator(F.symbol, table, 1.0, N)
    gaps = []
    for r in radii:
        op_r = symbol_to_operator(F.symbol, table, float(r), N)
        gaps.append(spectral_norm(op_r.matrix - psi.matrix))
    direct = F.evaluate(X.matrices)
    transported = berezin_transform(X.spec, X, psi, table)
    residual = spectral_norm(direct - transported)
    return BoundedRoundtripReport(gaps, residual, tol)
