"""Exact weight tables for noncommutative regular domains.

A domain is described by a positive regular polynomial q = sum a_alpha Z_alpha
and an order m >= 1.  The weight of a word alpha is

    b_alpha = sum_{j=1..|alpha|} sum_{gamma_1...gamma_j = alpha}
              a_{gamma_1} ... a_{gamma_j} * C(j+m-1, m-1),      b_empty = 1.

Two independent algorithms compute the same table: direct factorization
enumeration, and degree-by-degree inversion of 1 - q followed by an m-fold
noncommutative convolution power.  Both run in exact rational arithmetic;
floats appear only when matrices are built from a finished table.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Mapping

from .words import EMPTY, Word, enumerate_words, reverse


class InvalidDomainError(ValueError):
    """Coefficient map violates positivity or regularity."""


@dataclass(frozen=True)
class DomainSpec:
    """A positive regular polynomial q and a domain order m.

    Coefficients are a finite map word -> nonnegative rational with no
    constant term and strictly positive linear coefficients.
    """

    n: int
    m: int
    coefficients: Mapping[Word, Fraction]

    def __post_init__(self):
        coeffs = {tuple(w): Fraction(a) for w, a in self.coefficients.items() if a != 0}
        object.__setattr__(self, "coefficients", coeffs)
        if self.n < 1:
            raise InvalidDomainError(f"n must be >= 1, got {self.n}")
        if self.m < 1:
            raise InvalidDomainError(f"m must be >= 1, got {self.m}")
        if coeffs.get(EMPTY, Fraction(0)) != 0:
            raise InvalidDomainError("constant term a_() must be zero")
        for w, a in coeffs.items():
            if a < 0:
                raise InvalidDomainError(f"negative coefficient {a} at word {w}")
            if any(not 1 <= letter <= self.n for letter in w):
                raise InvalidDomainError(f"word {w} has letters outside 1..{self.n}")
        for i in range(1, self.n + 1):
            if coeffs.get((i,), Fraction(0)) <= 0:
                raise InvalidDomainError(f"linear coefficient a_g{i} must be > 0")

    @property
    def degree(self) -> int:
        return max(len(w) for w in self.coefficients)

    def coefficient(self, w: Word) -> Fraction:
        return self.coefficients.get(w, Fraction(0))

    def reversed(self) -> "DomainSpec":
        """Spec of q-tilde, with every coefficient word reversed."""
        return DomainSpec(self.n, self.m,
                          {reverse(w): a for w, a in self.coefficients.items()})


def hyperball_spec(n: int, m: int) -> DomainSpec:
    """q = Z_1 + ... + Z_n."""
    return DomainSpec(n, m, {(i,): Fraction(1) for i in range(1, n + 1)})


@dataclass
class WeightTable:
    spec: DomainSpec
    N: int
    b: dict[Word, Fraction] = field(repr=False)
    # truncated models by depth, filled by fock.truncated_model; b stays fixed
    _models: dict = field(default_factory=dict, init=False, repr=False, compare=False)


class TruncationExceededError(ValueError):
    pass


def weights_by_factorization(spec: DomainSpec, N: int) -> WeightTable:
    """Weight table via direct enumeration of ordered factorizations.

    A depth-first walk splits off only prefixes in supp q, so it visits
    exactly the factorizations whose parts all carry a coefficient; nothing
    is memoized, so each b_alpha stays the definitional sum.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    m = spec.m
    support = list(spec.coefficients.items())
    b: dict[Word, Fraction] = {}
    for alpha in enumerate_words(spec.n, N):
        total = Fraction(0)
        # (position in alpha, parts so far, product of their coefficients)
        stack = [(0, 0, Fraction(1))]
        while stack:
            pos, j, prod = stack.pop()
            if pos == len(alpha):
                total += prod * comb(j + m - 1, m - 1)
                continue
            for beta, a in support:
                if alpha[pos:pos + len(beta)] == beta:
                    stack.append((pos + len(beta), j + 1, prod * a))
        b[alpha] = total
    _check_positive(b)
    return WeightTable(spec, N, b)


def weights_by_convolution(spec: DomainSpec, N: int) -> WeightTable:
    """Independent oracle: solve B_1 = 1 + q * B_1 degree by degree, then
    take the m-fold noncommutative convolution power of B_1."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    words = enumerate_words(spec.n, N)
    b1: dict[Word, Fraction] = {EMPTY: Fraction(1)}
    support = [(w, a) for w, a in spec.coefficients.items()]
    for alpha in words:
        if not alpha:
            continue
        total = Fraction(0)
        for beta, a in support:
            lb = len(beta)
            if lb <= len(alpha) and alpha[:lb] == beta:
                total += a * b1[alpha[lb:]]
        b1[alpha] = total
    bm = b1
    for _ in range(spec.m - 1):
        bm = _convolve(bm, b1, words)
    _check_positive(bm)
    return WeightTable(spec, N, bm)


def _convolve(x: dict[Word, Fraction], y: dict[Word, Fraction],
              words: list[Word]) -> dict[Word, Fraction]:
    out: dict[Word, Fraction] = {}
    for alpha in words:
        total = Fraction(0)
        for cut in range(len(alpha) + 1):
            total += x[alpha[:cut]] * y[alpha[cut:]]
        out[alpha] = total
    return out


def _check_positive(b: dict[Word, Fraction]) -> None:
    for w, v in b.items():
        if v <= 0:
            raise InvalidDomainError(f"weight b_{w} = {v} is not positive")


def hyperball_weights(n: int, m: int, N: int) -> WeightTable:
    """Closed form b_alpha = C(|alpha|+m-1, m-1) for q = Z_1 + ... + Z_n."""
    spec = hyperball_spec(n, m)
    b = {w: Fraction(comb(len(w) + m - 1, m - 1)) for w in enumerate_words(n, N)}
    return WeightTable(spec, N, b)


def omega_beta(table: WeightTable, beta: Word) -> tuple[Fraction, int]:
    """Depth-limited lower approximation of sup_gamma b_gamma / b_{beta gamma}.

    The true value is a supremum over the infinite semigroup; we search
    gammas up to length N - |beta| and report that search depth alongside.
    """
    depth = table.N - len(beta)
    if depth < 0:
        raise TruncationExceededError(
            f"|beta| = {len(beta)} exceeds table depth {table.N}")
    best = Fraction(0)
    for gamma in enumerate_words(table.spec.n, depth):
        ratio = table.b[gamma] / table.b[beta + gamma]
        if ratio > best:
            best = ratio
    return best, depth


@dataclass
class RatioBoundReport:
    """b_alpha * b_beta <= C(|beta|+m-1, m-1) * b_{alpha beta}, exact check."""

    pairs_checked: int
    violations: int
    worst_slack: Fraction  # min over pairs of rhs - lhs; >= 0 iff no violation

    @property
    def passed(self) -> bool:
        return self.violations == 0


def ratio_bound_check(table: WeightTable) -> RatioBoundReport:
    m = table.spec.m
    n = table.spec.n
    checked = 0
    violations = 0
    worst: Fraction | None = None
    for alpha in enumerate_words(n, table.N):
        for beta in enumerate_words(n, table.N - len(alpha)):
            lhs = table.b[alpha] * table.b[beta]
            rhs = comb(len(beta) + m - 1, m - 1) * table.b[alpha + beta]
            slack = rhs - lhs
            checked += 1
            if slack < 0:
                violations += 1
            if worst is None or slack < worst:
                worst = slack
    return RatioBoundReport(checked, violations, worst if worst is not None else Fraction(0))
