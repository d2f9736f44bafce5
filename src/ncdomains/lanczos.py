"""Largest singular value of a matrix A given by its products, by Lanczos
on A^* A.

A is given only by x -> A x and y -> A^* y, so its cost and memory are
those of the products.  Its one caller is fock.sparse_norm, which passes
products over the nonzeros of A (fock.nonzero_products), or k-fold products
over them for the norms of powers, for fock.spectral_norm and the radius
inequality of cauchy.py.  Symbol operators of the two-letter corpus specs at
depths 8 and 9 (sides 511-2046) took 22-222 steps.  The stopping rule needs
the eigenvalues of the growing tridiagonal, a dense eigh whose cost grows as
k^3, so it is evaluated every CHECK_EVERY steps and not at every step; on
those operators the norms stayed within 1e-15 relative of the every-step
rule, and bitwise equal on the deep_n8 benchmark's (seeds 0 and 41).
"""
from __future__ import annotations

from math import sqrt
from typing import Callable

import numpy as np

MAX_STEPS = 256
TOL = 1e-14   # stop when the top Ritz pair's residual is <= TOL theta
CHECK_EVERY = 4  # steps between evaluations of the stopping rule
CHUNK = 32    # basis vectors added at a time
SEED = 0      # start vector, so norms are deterministic


def top_singular_value(matvec: Callable[[np.ndarray], np.ndarray],
                       rmatvec: Callable[[np.ndarray], np.ndarray],
                       shape: tuple[int, int]) -> float | None:
    """sigma_max of the matrix A of the given shape with A x = matvec(x) and
    A^* y = rmatvec(y), or None when Lanczos on A^* A has not converged
    within MAX_STEPS steps.

    Each step applies A and A^* once and orthogonalizes against the whole
    basis, twice; the basis grows in place, CHUNK rows at a time, so it
    holds about steps x n complex entries and is never copied.  The Ritz
    values come from the tridiagonal T_k; the run stops when the top pair's
    residual beta_k |s_k| is <= TOL theta, which breakdown (beta_k = 0)
    meets.  That rule costs a dense eigh of T_k, so it is evaluated only
    every CHECK_EVERY steps, at the last step, and whenever
    beta_k <= TOL max(alpha) already meets it (breakdown, or the roundoff
    level at which an exhausted Krylov space leaves beta_k).  A Ritz value
    is at most sigma_max^2, so the result errs low.
    """
    n = shape[1]
    q = np.random.default_rng(SEED).standard_normal(n).astype(complex)
    q /= np.linalg.norm(q)
    basis = np.empty((0, n), dtype=complex)
    alphas: list[float] = []
    betas: list[float] = []
    for k in range(MAX_STEPS):
        if k == len(basis):
            # grown in place (realloc), not copied into a larger array
            # beside it; no view of the basis outlives a step
            basis.resize((k + CHUNK, n), refcheck=False)
        basis[k] = q
        w = rmatvec(matvec(q))
        alphas.append(float(np.vdot(q, w).real))
        Q = basis[:k + 1]
        for _ in range(2):
            # Q^H w as the conjugate of Q w^*, so Q is never copied
            w -= (Q @ w.conj()).conj() @ Q
        del Q
        beta = float(np.linalg.norm(w))
        # theta >= every alpha, so beta <= TOL max(alphas) meets the rule:
        # (near) breakdown, where the next q would be roundoff
        if ((k + 1) % CHECK_EVERY == 0 or k + 1 == MAX_STEPS
                or beta <= TOL * max(alphas)):
            T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            theta, S = np.linalg.eigh(T)
            if beta * abs(S[-1, -1]) <= TOL * theta[-1]:
                return sqrt(max(float(theta[-1]), 0.0))
        betas.append(beta)
        q = w / beta
    return None
