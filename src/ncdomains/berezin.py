"""Domain membership, purity, and the noncommutative Berezin machinery.

An operator tuple is n complex k x k matrices.  The Berezin kernel at a
domain element X is a (D*k) x k block column with word-major rows (flat
index word_index * k + p), like the Cauchy kernel's vacuum column; the
extended transform contracts its k x k blocks against aux_dim-tensored
operators, with output on (aux space) (x) C^k, aux-major (flat index i * k + p).

Nilpotent tuples are the workhorse: every kernel identity then involves
finitely many terms and holds up to roundoff on a large enough truncation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fock import (TruncatedOperator, cp_orbit_norms, defects, spectral_norm,
                   substitute, truncated_model, word_operator, word_products)
from .toeplitz import MultiToeplitzSymbol, evaluate_symbol, symbol_to_operator
from .weights import DomainSpec, WeightTable
from .words import EMPTY, Word


class DomainMembershipError(ValueError):
    pass


@dataclass
class OperatorTuple:
    spec: DomainSpec
    matrices: list[np.ndarray] = field(repr=False)

    def __post_init__(self):
        if len(self.matrices) != self.spec.n:
            raise ValueError(f"expected {self.spec.n} matrices, got {len(self.matrices)}")
        mats = [np.asarray(M, dtype=complex) for M in self.matrices]
        k = mats[0].shape[0]
        for M in mats:
            if M.shape != (k, k):
                raise ValueError("matrices must share a common square dimension")
        if k < 1:
            raise ValueError("matrices must be at least 1 x 1")
        self.matrices = mats

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]

    def scaled(self, t: float) -> "OperatorTuple":
        return OperatorTuple(self.spec, [t * M for M in self.matrices])

    def word(self, alpha: Word) -> np.ndarray:
        return word_operator(self.matrices, alpha)


PURITY_STEPS = 50
DEFECT_TOL = 1e-10  # defect eigenvalues in [-DEFECT_TOL, 0) are roundoff


@dataclass
class MembershipReport:
    in_domain: bool
    min_eigenvalues: list[float]       # smallest eigenvalue of (id-Phi)^j(I), j=1..m
    spec: DomainSpec = field(repr=False, compare=False)
    matrices: list[np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def purity_decay(self) -> list[float]:
        """||Phi^p(I)||, p = 1..PURITY_STEPS or the first zero; formed on first read."""
        return cp_orbit_norms(self.spec, self.matrices, PURITY_STEPS)

    @property
    def pure(self) -> bool:
        return self.purity_decay[-1] <= 1e-12


def domain_membership(spec: DomainSpec, X: OperatorTuple, tol: float = 1e-10
                      ) -> MembershipReport:
    """Smallest eigenvalues of the defects (id-Phi)^j(I), j = 1..m; X is in
    the domain when none is below -tol.  Purity is certified when the decay
    ||Phi^p(I)|| hits an exact structural zero (joint nilpotence) or falls
    below 1e-12 at p = PURITY_STEPS."""
    mins = [float(np.min(np.linalg.eigvalsh(Y))) for Y in defects(spec, X.matrices, spec.m)]
    return MembershipReport(all(v >= -tol for v in mins), mins, spec, X.matrices)


def defect_sqrt(spec: DomainSpec, X: OperatorTuple) -> np.ndarray:
    """Principal square root of (id-Phi)^m(I); eigenvalues in
    [-DEFECT_TOL, 0) clip to 0."""
    vals, vecs = np.linalg.eigh(defects(spec, X.matrices, spec.m)[-1])
    if np.min(vals) < -DEFECT_TOL:
        raise DomainMembershipError(
            f"defect operator has eigenvalue {np.min(vals):.3e} < -{DEFECT_TOL}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def berezin_kernel(spec: DomainSpec, X: OperatorTuple, table: WeightTable,
                   N: int) -> np.ndarray:
    """K h = sum_{|alpha| <= N} sqrt(b_alpha) e_alpha (x) Delta X_alpha^* h,
    as a (D*k) x k matrix with word-major rows."""
    delta = defect_sqrt(spec, X)
    sqrt_b = truncated_model(table, N).sqrt_b
    Xw = word_products(X.matrices, N)
    K = sqrt_b[:, None, None] * (delta @ Xw.conj().transpose(0, 2, 1))
    return K.reshape(-1, X.dim)


def berezin_transform(spec: DomainSpec, X: OperatorTuple, g: TruncatedOperator,
                      table: WeightTable, K: np.ndarray | None = None) -> np.ndarray:
    """Extended transform K^*(g (x) I)K, blockwise over g's aux space:
    block (i, j) is sum_{omega, gamma} K_omega^* g[omega i, gamma j] K_gamma.
    K, the kernel at X on g's truncation, is built when not given.

    Output is (aux_dim*k) x (aux_dim*k), aux-major; for aux_dim = 1 this is
    the plain transform on C^k.
    """
    if g.model.n != spec.n:
        raise ValueError("operator alphabet mismatch")
    if K is None:
        K = berezin_kernel(spec, X, table, g.model.N)
    D, k, d = g.model.dimension, X.dim, g.aux_dim
    Kb = K.reshape(D, k, k)
    # (p, a, i, gamma, j): sum_omega conj(K_omega[p, a]) g[omega i, gamma j]
    half = np.tensordot(Kb.conj(), g.matrix.reshape(D, d, D, d), axes=(0, 0))
    # (a, i, j, b), summed over gamma and p against K_gamma[p, b]
    out = np.tensordot(half, Kb, axes=((3, 0), (0, 1)))
    return out.transpose(1, 0, 2, 3).reshape(d * k, d * k)


def intertwining_residual(K: np.ndarray, X: OperatorTuple, table: WeightTable,
                          N: int) -> float:
    """max_i || K X_i^* - (W_i^* (x) I) K || for the Berezin kernel K at X on
    the truncation at depth N."""
    k = X.dim
    model = truncated_model(table, N)  # apply rejects a K of another depth
    residuals = []
    for i, Xi in enumerate(X.matrices, start=1):
        # block gamma of (W_i^* (x) I) K is w K_{g_i gamma}, zero at the words
        # of length N
        rhs = model.apply([(EMPTY, (i,), 1, 1)], K, k)
        residuals.append(spectral_norm(K @ Xi.conj().T - rhs))
    return float(np.max(residuals, initial=0.0))


HereditaryPolynomial = dict[tuple[Word, Word], complex]
"""q(Z, Z*) = sum c_{alpha,beta} Z_alpha Z_beta^*, keyed by (alpha, beta)."""


def hereditary_terms(poly: HereditaryPolynomial) -> list:
    """The terms (alpha, beta, c, 1) of q, in the term format of fock.py."""
    return [(alpha, beta, c, 1) for (alpha, beta), c in poly.items()]


def hereditary_eval(X: OperatorTuple, poly: HereditaryPolynomial) -> np.ndarray:
    """q(X, X^*): direct substitution Z_alpha -> X_alpha, Z_beta^* -> X_beta^*."""
    return substitute(X.matrices, hereditary_terms(poly))


def hereditary_model_operator(poly: HereditaryPolynomial, table: WeightTable,
                              N: int) -> TruncatedOperator:
    """q(W, W^*) = sum c_{alpha,beta} W_alpha W_beta^* on the truncation at depth N."""
    return truncated_model(table, N).operator(hereditary_terms(poly))


def mean_value_check(sym: MultiToeplitzSymbol, spec: DomainSpec, X: OperatorTuple,
                     r: float, table: WeightTable, N: int) -> float:
    """Residual of F(X) = extended-Berezin_{(1/r)X}[F(r W_N)] for a symbol F.

    (1/r)X must lie in the domain and be pure.
    """
    inner = X.scaled(1.0 / r)
    report = domain_membership(spec, inner, tol=1e-10)
    if not report.in_domain:
        raise DomainMembershipError("(1/r)X is outside the domain")
    if not report.pure:
        raise DomainMembershipError("(1/r)X is not certified pure")
    direct = evaluate_symbol(sym, X.matrices)
    op = symbol_to_operator(sym, table, r, N)
    transported = berezin_transform(spec, inner, op, table)
    return spectral_norm(direct - transported)
