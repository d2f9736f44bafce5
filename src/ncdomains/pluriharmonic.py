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
from .fock import TruncatedOperator, truncated_model
from .toeplitz import (MultiToeplitzSymbol, check_support, evaluate_symbol,
                       max_block_difference, norm_profile)
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
    d = F.aux_dim
    A = F.symbol.A
    model = truncated_model(table, order)
    D, sqrt_b = model.dimension, model.sqrt_b
    zero = np.zeros((d, d), dtype=complex)
    long, short, sigma = model.comparable_pairs()
    coef = sqrt_b[short] / sqrt_b[long] * np.array([r ** len(alpha) for alpha in sigma])
    blk = coef[:, None, None] * np.array([A.get(alpha, zero) for alpha in sigma])
    # each unordered pair appears once, so neither scatter repeats an index;
    # the diagonal (alpha = ()) gets A_(()) first and A_(())^* second
    M = np.zeros((D, d, D, d), dtype=complex)
    M[long, :, short, :] += blk
    M[short, :, long, :] += blk.conj().transpose(0, 2, 1)
    return TruncatedOperator(model, M.reshape(D * d, D * d), d)


@dataclass
class SchurPositivityReport:
    equality_residuals: list[float]    # Gamma vs compression of F(rW)^* + F(rW)
    min_eigenvalues: list[float]
    positive: bool


def schur_positivity_test(F: PluriharmonicFunction, table: WeightTable,
                          radii: Sequence[float], order: int, N: int) -> SchurPositivityReport:
    """Certify Re F >= 0 at truncation: the Gamma block matrix must equal the
    words-<=order compression of F(rW_N)^* + F(rW_N) and be PSD per radius.

    The words of length <= order lead the graded basis and the weights do
    not depend on the depth, so that compression of F(rW_N) is the operator
    of the depth-order model, bitwise; it is assembled there, and F(rW_N)
    itself never is."""
    if F.symbol.B:
        raise ValueError("schur test expects a holomorphic (A-part only) symbol")
    if F.max_order > N - order:
        raise ValueError("need symbol support <= N - order for an exact compression")
    if N > table.N:
        raise ValueError(f"truncation {N} exceeds table depth {table.N}")
    residuals = []
    mins = []
    for r in radii:
        G = gamma_kernel(F, table, float(r), order).matrix
        comp = truncated_model(table, order).operator(F.symbol.terms(float(r)),
                                                      F.aux_dim).matrix
        # in place, as top + top^* and then its difference from G: the
        # adjoint is a copy, and |comp - G| is |G - comp| bit for bit
        comp += comp.conj().T
        comp -= G
        residuals.append(float(np.max(np.abs(comp))))
        del comp  # the eigenvalue step below need not coexist with it
        G += G.conj().T
        G /= 2
        mins.append(float(np.min(np.linalg.eigvalsh(G))))
    positive = all(v >= -PSD_TOL for v in mins)
    return SchurPositivityReport(residuals, mins, positive)


def distance(F: PluriharmonicFunction, G: PluriharmonicFunction,
             table: WeightTable, N: int) -> float:
    """The truncated metric rho = sum 2^-k d/(1+d), d = ||F(r_k W_N) - G(r_k W_N)||.
    d values are lower bounds nondecreasing in N; the rho tail beyond
    RHO_RADII_KMAX is bounded by 2^-RHO_RADII_KMAX."""
    d_vals, _ = norm_profile(F.symbol - G.symbol, table, rho_radii(), N)
    rho = 0.0
    for k, d_r in enumerate(d_vals, start=1):
        rho += 2.0 ** (-k) * d_r / (1.0 + d_r)
    return rho


@dataclass
class WeierstrassReport:
    converged: bool
    cauchy_profiles: dict[float, list[float]]  # per radius: ||F_{j+1}(rW)-F_j(rW)||


def weierstrass_limit(functions: Sequence[PluriharmonicFunction],
                      table: WeightTable, radii: Sequence[float], N: int) -> WeierstrassReport:
    """Check Cauchy-ness of {F_j(rW_N)} per radius: the last step must be at
    most LIMIT_TOL or below the first (distance measures rho to a limit)."""
    if len(functions) < 2:
        raise ValueError("need at least two functions")
    profiles = [norm_profile(Fnext.symbol - Fj.symbol, table, radii, N)[0]
                for Fj, Fnext in zip(functions, functions[1:])]
    cauchy = {float(r): [p[i] for p in profiles] for i, r in enumerate(radii)}
    converged = all(diffs[-1] <= LIMIT_TOL or diffs[-1] < diffs[0]
                    for diffs in cauchy.values())
    return WeierstrassReport(converged, cauchy)


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
    check_support(F.symbol, N)
    # no two terms of one symbol share an entry, so each entry of the gap
    # operator is a + (-b), bitwise the difference of F(rW_N) and psi_N
    psi = [(alpha, beta, -c, B) for alpha, beta, c, B in F.symbol.terms(1.0)]
    model = truncated_model(table, N)
    gaps = [model.norm(F.symbol.terms(float(r)) + psi, F.aux_dim) for r in radii]
    return BoundedRoundtripReport(gaps, residual, ROUNDTRIP_TOL)
