"""Built-in domain corpus and seeded random generators for verification runs."""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .berezin import OperatorTuple, domain_membership
from .cauchy import linearized_radius
from .toeplitz import MultiToeplitzSymbol
from .weights import DomainSpec, hyperball_spec
from .words import Word, enumerate_words

DOMAIN_SLACK = (1 - 0.9) * 0.05  # smallest defect eigenvalue scale_into_domain accepts
GATE_RADIUS_SLACK = 0.05  # random_gated_tuple: accepted |r_q(X) - target_radius|


def mixed_spec(m: int) -> DomainSpec:
    """q = Z_1 + Z_2 + Z_1 Z_2 on two letters."""
    return DomainSpec(2, m, {(1,): Fraction(1), (2,): Fraction(1), (1, 2): Fraction(1)})


def builtin_corpus() -> dict[str, DomainSpec]:
    """Hyperballs (the n = 1 entries are the weighted Bergman cases) plus a
    mixed-degree domain."""
    corpus: dict[str, DomainSpec] = {}
    for n in (1, 2):
        for m in (1, 2, 3):
            corpus[f"hyperball_n{n}_m{m}"] = hyperball_spec(n, m)
    for m in (1, 2):
        corpus[f"mixed_n2_m{m}"] = mixed_spec(m)
    return corpus


def random_spec(rng: np.random.Generator, n: int, m: int,
                max_degree: int = 3) -> DomainSpec:
    """Seeded positive regular polynomial with small rational coefficients."""
    coeffs: dict[Word, Fraction] = {}
    for i in range(1, n + 1):
        coeffs[(i,)] = Fraction(int(rng.integers(1, 5)), 4)
    for w in enumerate_words(n, max_degree):
        if len(w) < 2:
            continue
        if rng.random() < 0.3:
            coeffs[w] = Fraction(int(rng.integers(1, 4)), 4)
    return DomainSpec(n, m, coeffs)


def random_symbol(rng: np.random.Generator, n: int, max_len: int,
                  aux_dim: int = 1, antianalytic: bool = True) -> MultiToeplitzSymbol:
    d = aux_dim
    def blk():
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    A = {w: blk() for w in enumerate_words(n, max_len) if rng.random() < 0.6}
    B = {}
    if antianalytic:
        B = {w: blk() for w in enumerate_words(n, max_len)
             if len(w) >= 1 and rng.random() < 0.4}
    if not A:
        A = {(): blk()}
    return MultiToeplitzSymbol(d, A, B)


def random_nilpotent_tuple(rng: np.random.Generator, spec: DomainSpec,
                           dim: int = 3) -> OperatorTuple:
    """Strictly upper triangular matrices scaled into the domain; jointly
    nilpotent of order <= dim, hence pure with a finite-support kernel."""
    mats = []
    for _ in range(spec.n):
        M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        mats.append(np.triu(M, k=1))
    X = OperatorTuple(spec, mats)
    return scale_into_domain(X)


def scale_into_domain(X: OperatorTuple) -> OperatorTuple:
    """Shrink a tuple until it sits inside the domain with DOMAIN_SLACK."""
    t = 1.0
    for _ in range(200):
        cand = X.scaled(t)
        report = domain_membership(X.spec, cand, tol=0.0)
        if report.in_domain and all(v > DOMAIN_SLACK for v in report.min_eigenvalues):
            return cand
        t *= 0.7
    raise RuntimeError("could not scale tuple into the domain")


def random_gated_tuple(rng: np.random.Generator, spec: DomainSpec, dim: int = 3,
                       target_radius: float = 0.6) -> OperatorTuple:
    """Random tuple rescaled so the joint spectral radius is within
    GATE_RADIUS_SLACK of target_radius."""
    mats = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            for _ in range(spec.n)]
    X = OperatorTuple(spec, mats)
    r = linearized_radius(spec, X)
    if r == 0:
        return X
    # r_q is not homogeneous when q mixes degrees; iterate the rescale
    for _ in range(8):
        X = X.scaled(target_radius / r if r > 0 else 1.0)
        r = linearized_radius(spec, X)
        if abs(r - target_radius) < GATE_RADIUS_SLACK:
            return X
    # the rescale oscillates when a higher-degree term dominates; the
    # coefficients are positive, so r_q(tX) is nondecreasing in t: bisect
    lo, hi = 0.0, 1.0
    while linearized_radius(spec, X.scaled(hi)) < target_radius:
        lo, hi = hi, 2.0 * hi
    for _ in range(100):
        t = (lo + hi) / 2
        r = linearized_radius(spec, X.scaled(t))
        if abs(r - target_radius) < GATE_RADIUS_SLACK:
            break
        lo, hi = (t, hi) if r < target_radius else (lo, t)
    return X.scaled(t)


def random_hereditary(rng: np.random.Generator, n: int, max_deg: int = 2
                      ) -> dict[tuple[Word, Word], complex]:
    words = [w for w in enumerate_words(n, max_deg)]
    poly = {}
    for alpha in words:
        for beta in words:
            if rng.random() < 0.3:
                poly[(alpha, beta)] = complex(rng.standard_normal(),
                                              rng.standard_normal())
    if not poly:
        poly[((), ())] = 1.0 + 0j
    return poly
