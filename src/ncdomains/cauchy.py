"""Reconstruction operator, joint spectral radius, Cauchy transform, and the
free analytic functional calculus.

The gate for everything here is r_q(X) < 1.  spectral_gate reads it from the
linearization of Phi_{q,X} on vectorized operators alone (Gelfand's formula
applied to a finite matrix); only joint_spectral_radius computes the slowly
convergent cross-check ||Phi^k(I)||^(1/2k).  The truncated reconstruction
operator is nilpotent, so its own spectral radius is never used as a gate.

The Cauchy kernel is kept as its vacuum column, the only one the transform
reads: a (D*k) x k block column with word-major rows (flat index
word_index * k + p), the layout of the Berezin kernel.  Its Neumann sum
never forms R: each step applies R to the k columns through the model's
shift maps (TruncatedModel.apply), so the work and memory grow with the
nonzeros of R, about |supp q| D k^2, not with (D k)^2.  Only
radius_inequality_check reads R as a whole.  Where R is large and sparse it
takes R's nonzeros from its terms (TruncatedModel.krylov_nonzeros) and the
norms of the powers R^k from them with fock.sparse_norm, so neither R nor
a power of R is formed; only below that cut-over does it assemble R.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .berezin import OperatorTuple
from .fock import (TruncatedOperator, cp_map_terms, cp_orbit_norms, sparse_norm,
                   spectral_norm, truncated_model, word_products)
from .toeplitz import MultiToeplitzSymbol, evaluate_symbol, symbol_to_operator
from .weights import DomainSpec, WeightTable
from .words import EMPTY, Word, fock_dimension, reverse

GATE_MARGIN = 1e-6
RADIUS_TOL = 1e-10  # radius_inequality_check: allowed excess of ||R_N^k||


class SpectralGateError(ValueError):
    pass


@dataclass
class SpectralRadiusReport:
    r_exact: float                 # sqrt of spectral radius of the linearized map
    r_sequence: list[float]        # ||Phi^k(I)||^(1/2k)
    gate: bool

    @property
    def last_sequence_value(self) -> float:
        return self.r_sequence[-1]


def linearized_radius(spec: DomainSpec, X: OperatorTuple) -> float:
    """r_q(X): square root of the spectral radius of the k^2 x k^2 matrix of
    Y -> sum a_alpha X_alpha Y X_alpha^* on row-major vectorized operators."""
    k = X.dim
    L = np.zeros((k, k, k, k), dtype=complex)
    for a, Xa in cp_map_terms(spec, X.matrices):
        L += a * np.einsum("ip,jq->ijpq", Xa, Xa.conj())
    return sqrt(float(np.max(np.abs(np.linalg.eigvals(L.reshape(k * k, k * k))))))


def spectral_gate(spec: DomainSpec, X: OperatorTuple) -> float:
    """r_q(X) from the linearization alone; SpectralGateError unless
    r_q(X) < 1 - GATE_MARGIN."""
    r = linearized_radius(spec, X)
    if not r < 1 - GATE_MARGIN:
        raise SpectralGateError(f"joint spectral radius {r:.6f} >= 1 - {GATE_MARGIN}")
    return r


def joint_spectral_radius(spec: DomainSpec, X: OperatorTuple,
                          k_max: int = 40) -> SpectralRadiusReport:
    """r_q(X) = lim ||Phi^k(I)||^(1/2k); exact value via the linearization,
    and the sequence for k = 1..k_max (shorter if Phi^k(I) hits zero)."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    r_exact = linearized_radius(spec, X)
    seq = [nrm ** (1.0 / (2 * k)) if nrm > 0 else 0.0
           for k, nrm in enumerate(cp_orbit_norms(spec, X.matrices, k_max), start=1)]
    return SpectralRadiusReport(r_exact, seq, r_exact < 1 - GATE_MARGIN)


def _reconstruction_terms(spec: DomainSpec, X: OperatorTuple) -> list:
    """The terms of R, to be read with left=False: Lambda_{reverse(beta)}
    appends beta on the right."""
    return [(reverse(beta), EMPTY, float(a), X.word(beta).conj().T)
            for beta, a in spec.coefficients.items()]


def reconstruction_operator(spec: DomainSpec, X: OperatorTuple, N: int,
                            table: WeightTable) -> TruncatedOperator:
    """R = sum over supp(q) of a_beta Lambda_{reverse(beta)} (x) X_beta^*,
    strictly degree-raising on the truncation."""
    return truncated_model(table, N).operator(_reconstruction_terms(spec, X), X.dim,
                                              left=False)


def cauchy_kernel(spec: DomainSpec, X: OperatorTuple, N: int,
                  table: WeightTable) -> np.ndarray:
    """Vacuum column (sum_{j<=N} R^j)^m E of the Cauchy kernel, E embedding C^k
    at the empty word: a (D*k) x k block column with word-major rows, as
    berezin_kernel.  Exact on the truncation since R is nilpotent; R is
    applied through its shift maps and never formed."""
    spectral_gate(spec, X)
    model = truncated_model(table, N)
    terms = _reconstruction_terms(spec, X)
    k = X.dim
    V = np.zeros((model.dimension * k, k), dtype=complex)
    V[:k] = np.eye(k)  # the empty word comes first in the graded basis
    for _ in range(spec.m):
        C = V
        for _ in range(N):
            V = C + model.apply(terms, V, k, left=False)
    return V


def cauchy_kernel_fourier_residual(C: np.ndarray, X: OperatorTuple,
                                   table: WeightTable) -> float:
    """Check the expansion C = sum Lambda_beta (x) b_{rev(beta)} X_{rev(beta)}^*
    through the vacuum column: block omega must be sqrt(b_omega) X_omega^*."""
    k = X.dim
    # the graded basis lists the words of length <= N first
    D = C.shape[0] // k
    sqrt_b = truncated_model(table, table.N).sqrt_b[:D, None, None]
    Xw = word_products(X.matrices, table.N)[:D]
    return float(np.max(np.abs(C.reshape(D, k, k) - sqrt_b * Xw.conj().transpose(0, 2, 1)),
                        initial=0.0))


def cauchy_transform(spec: DomainSpec, X: OperatorTuple, A: TruncatedOperator,
                     N: int, table: WeightTable,
                     C: np.ndarray | None = None) -> np.ndarray:
    """k x k matrix with entries <(A (x) I)(1 (x) x), C (1 (x) y)>, that is
    sum_omega A[omega, ()] C_omega^* over the blocks of the vacuum column."""
    if C is None:
        C = cauchy_kernel(spec, X, N, table)
    if A.aux_dim != 1:
        raise ValueError("cauchy transform expects a scalar-coefficient operator")
    k = X.dim
    a = A.matrix[:, A.model.index[EMPTY]]
    return np.einsum("w,wpq->qp", a, C.reshape(-1, k, k).conj())


@dataclass
class CalculusResult:
    value: np.ndarray
    cross_residual: float
    t: float


def analytic_functional_calculus(spec: DomainSpec, X: OperatorTuple,
                                 coeffs: dict[Word, complex], N: int,
                                 table: WeightTable) -> CalculusResult:
    """Direct series sum c_alpha X_alpha, cross-checked against the Cauchy
    route C_{q,tX}[F((1/t)W_N)] for a t > 1 inside the gate."""
    r_q = spectral_gate(spec, X)
    t = 2.0 if r_q == 0 else min(1.05, sqrt(1.0 / r_q))

    F = MultiToeplitzSymbol.scalar(A=coeffs)
    direct = evaluate_symbol(F, X.matrices)
    F_trunc = symbol_to_operator(F, table, 1.0 / t, N)
    via_cauchy = cauchy_transform(spec, X.scaled(t), F_trunc, N, table)
    residual = spectral_norm(direct - via_cauchy)
    return CalculusResult(direct, residual, t)


def multiply_symbols(c1: dict[Word, complex], c2: dict[Word, complex]
                     ) -> dict[Word, complex]:
    """Noncommutative product by concatenation convolution."""
    out: dict[Word, complex] = {}
    for w1, a in c1.items():
        for w2, b in c2.items():
            w = w1 + w2
            out[w] = out.get(w, 0j) + a * b
    return {w: v for w, v in out.items() if v != 0}


@dataclass
class RadiusInequalityReport:
    margins: list[float]    # ||Phi^k(I)||^(1/2) - ||R_N^k|| per k
    violations: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


def radius_inequality_check(spec: DomainSpec, X: OperatorTuple, N: int,
                            table: WeightTable) -> RadiusInequalityReport:
    """||R_N^k|| <= ||Phi^k_{q,X}(I)||^(1/2) for k = 1..N; valid because the
    compression norm lower-bounds the full norm and ||Phi^k_{rev q,Lambda}(I)|| <= 1.

    R raises word length by at least 1, so ||R^k|| = ||R^k E_k||, E_k keeping
    the columns of the words of length <= N - k.  Where spectral_norm would
    take its Krylov path on R, R's nonzeros come from its terms (the ones
    spectral_norm would read from the assembled R, bit for bit) and
    each norm is sparse_norm's ||R^(k-1) (R E_k)||, so neither R nor a
    power of R is formed.  Otherwise reconstruction_operator assembles R,
    the products R^k E_k are dense, and R is released before the first norm
    is taken.

    Ritz values err low and ||R^k|| is the smaller side, so an early Lanczos
    stop could hide a violation; the stopping rule keeps that error within
    lanczos.TOL = 1e-14 relative, far below RADIUS_TOL.  On the two-letter
    corpus specs at N = 7 and 8 the margins matched the dense ones within
    8e-16; the smallest at gated tuples were 0 (equality, q = Z_1 + Z_2,
    m = 1) and 3e-4."""
    model = truncated_model(table, N)
    phi_norms = cp_orbit_norms(spec, X.matrices, N)
    phi_norms += [0.0] * (N - len(phi_norms))  # Phi^k(I) stays zero after a zero
    live = [fock_dimension(spec.n, N - k) * X.dim for k in range(1, N + 1)]
    nonzeros = model.krylov_nonzeros(_reconstruction_terms(spec, X), X.dim, left=False)
    if nonzeros is None:
        R = reconstruction_operator(spec, X, N, table).matrix
        powers = _dense_powers(R, live)
        del R
        # smallest first, each power dropped once its norm is taken
        lhs_norms = [spectral_norm(powers.pop()) for _ in live][::-1]
    else:
        side = model.dimension * X.dim
        lhs_norms = [sparse_norm(*nonzeros, (side, cols), repeat)
                     for repeat, cols in enumerate(live)]
    margins = []
    violations = 0
    for lhs, phi_norm in zip(lhs_norms, phi_norms):
        rhs = sqrt(phi_norm)
        margins.append(rhs - lhs)
        if not lhs <= rhs + RADIUS_TOL:  # a NaN side is a violation
            violations += 1
    return RadiusInequalityReport(margins, violations)


def _dense_powers(R: np.ndarray, live: list[int]) -> list[np.ndarray]:
    """R^k E_k for k = 1, 2, ..., E_k keeping the first live[k-1] columns,
    from the dense products R (R^(k-1) E_(k-1)) E_k; none is a view of R."""
    powers = []
    for cols in live:
        powers.append(R @ powers[-1][:, :cols] if powers else R[:, :cols].copy())
    return powers
