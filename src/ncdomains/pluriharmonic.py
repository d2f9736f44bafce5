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

from .berezin import mean_value_check
from .fock import TruncatedOperator, spectral_norm, truncated_model
from .toeplitz import (MultiToeplitzSymbol, evaluate_symbol, max_block_difference,
                       norm_profile, symbol_to_operator)
from .weights import WeightTable
from .words import EMPTY, Word

# evaluate_symbol(F.symbol, X) is the value F(X), exported with the functions
__all__ = [
    "PluriharmonicFunction", "scalar_holomorphic", "evaluate_symbol", "rho_radii",
    "gamma_kernel", "SchurPositivityReport", "schur_positivity_test", "distance",
    "WeierstrassReport", "weierstrass_limit", "conjugate", "holomorphic_completion",
    "BoundedRoundtripReport", "bounded_roundtrip",
]

RHO_RADII_KMAX = 8
SELF_ADJOINT_TOL = 1e-12
PSD_TOL = 1e-10
LIMIT_TOL = 1e-8  # weierstrass_limit: a last Cauchy step this small has converged
ROUNDTRIP_TOL = 1e-8


def rho_radii() -> list[float]:
    """Fixed radius ladder r_k = 1 - 2^-k, k <= RHO_RADII_KMAX, of the metric rho."""
    return [1.0 - 2.0 ** (-k) for k in range(1, RHO_RADII_KMAX + 1)]


@dataclass
class PluriharmonicFunction:
    symbol: MultiToeplitzSymbol

    @property
    def aux_dim(self) -> int:
        return self.symbol.aux_dim

    @property
    def max_order(self) -> int:
        return self.symbol.max_order

    def is_self_adjoint(self) -> bool:
        return max_block_difference(self.symbol, self.symbol.adjoint()) <= SELF_ADJOINT_TOL

    def real_part(self) -> "PluriharmonicFunction":
        half = 0.5 * self.symbol
        return PluriharmonicFunction(half + half.adjoint())


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
    equality_residuals: list[float]    # Gamma vs compression of F(rW)^* + F(rW)
    min_eigenvalues: list[float]
    positive: bool


def schur_positivity_test(F: PluriharmonicFunction, table: WeightTable,
                          radii: Sequence[float], order: int, N: int) -> SchurPositivityReport:
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
        # words <= order sit first in the graded basis of the big truncation
        top = op.matrix[: len(G), : len(G)]
        comp = top + top.conj().T
        residuals.append(float(np.max(np.abs(G - comp))))
        mins.append(float(np.min(np.linalg.eigvalsh((G + G.conj().T) / 2))))
    positive = all(v >= -PSD_TOL for v in mins)
    return SchurPositivityReport(residuals, mins, positive)


def distance(F: PluriharmonicFunction, G: PluriharmonicFunction,
             table: WeightTable, N: int) -> tuple[list[float], float]:
    """d_{r_k}(F, G) = ||F(r_k W_N) - G(r_k W_N)|| and the truncated metric
    rho = sum 2^-k d/(1+d).  d_r values are lower bounds nondecreasing in N;
    the rho tail beyond RHO_RADII_KMAX is bounded by 2^-RHO_RADII_KMAX."""
    d_vals, _ = norm_profile(F.symbol - G.symbol, table, rho_radii(), N)
    rho = 0.0
    for k, d_r in enumerate(d_vals, start=1):
        rho += 2.0 ** (-k) * d_r / (1.0 + d_r)
    return d_vals, rho


@dataclass
class WeierstrassReport:
    converged: bool
    cauchy_profiles: dict[float, list[float]]  # per radius: ||F_{j+1}(rW)-F_j(rW)||
    limit_distances: dict[float, list[float]]  # per radius: ||F_j(rW)-F_last(rW)||


def weierstrass_limit(functions: Sequence[PluriharmonicFunction],
                      table: WeightTable, radii: Sequence[float], N: int) -> WeierstrassReport:
    """Check Cauchy-ness of {F_j(rW_N)} per radius; on success take the last
    function as the coefficientwise limit and measure each F_j's distance to it."""
    if len(functions) < 2:
        raise ValueError("need at least two functions")

    def per_radius(symbols) -> dict[float, list[float]]:
        """||S(rW_N)|| for each symbol S, grouped by radius."""
        profiles = [norm_profile(sym, table, radii, N)[0] for sym in symbols]
        return {float(r): [p[i] for p in profiles] for i, r in enumerate(radii)}

    cauchy = per_radius(Fnext.symbol - Fj.symbol
                        for Fj, Fnext in zip(functions, functions[1:]))
    converged = all(diffs[-1] <= LIMIT_TOL or diffs[-1] < diffs[0]
                    for diffs in cauchy.values())
    if not converged:
        return WeierstrassReport(False, cauchy, {})
    limit = functions[-1].symbol
    return WeierstrassReport(True, cauchy, per_radius(Fj.symbol - limit for Fj in functions))


def conjugate(G: PluriharmonicFunction) -> PluriharmonicFunction:
    """Harmonic conjugate H = (F - F^*) / 2i of a self-adjoint G, where F is
    the holomorphic completion of G.  H is self-adjoint, H(0) = 0, and
    G + iH is holomorphic."""
    if not G.is_self_adjoint():
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
                      radii: Sequence[float], X) -> BoundedRoundtripReport:
    """Boundary operator psi_N = phi(W_N) from the symbol, the Dirichlet-style
    norm-convergence diagnostic ||F(rW) - psi_N|| -> 0, and the roundtrip
    F(X) = extended-Berezin_X[psi_N] at a pure X: the mean value check at
    r = 1."""
    residual = mean_value_check(F.symbol, X.spec, X, 1.0, table, N)
    psi = symbol_to_operator(F.symbol, table, 1.0, N)
    gaps = []
    for r in radii:
        op_r = symbol_to_operator(F.symbol, table, float(r), N)
        gaps.append(spectral_norm(op_r.matrix - psi.matrix))
    return BoundedRoundtripReport(gaps, residual, ROUNDTRIP_TOL)
