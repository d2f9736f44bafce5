"""Combinatorics of the unital free semigroup on n generators.

Words are plain tuples of letters in 1..n; the empty tuple is the unit.
Everything downstream (weight tables, operator matrices, symbol maps) is
keyed by these tuples, and matrix rows/columns follow the graded
lexicographic order produced by :func:`enumerate_words`.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

Word = tuple[int, ...]

EMPTY: Word = ()


def enumerate_words(n: int, max_len: int) -> list[Word]:
    """All words of length <= max_len, graded (length, then lexicographic).

    The position of a word in this list is its canonical basis index.
    """
    if n < 1:
        raise ValueError(f"alphabet size must be >= 1, got {n}")
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    out: list[Word] = []
    for k in range(max_len + 1):
        out.extend(product(range(1, n + 1), repeat=k))
    return out


def fock_dimension(n: int, max_len: int) -> int:
    if n == 1:
        return max_len + 1
    return (n ** (max_len + 1) - 1) // (n - 1)


def reverse(u: Word) -> Word:
    return u[::-1]


GEQ = "geq"
LT = "lt"
INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class Comparability:
    """Right-comparability of two words.

    relation "geq" with quotient sigma means omega == sigma + gamma
    (equal words give quotient ()); "lt" with nonempty sigma means
    gamma == sigma + omega; "incomparable" otherwise.
    """

    relation: str
    quotient: Word | None = None

    @property
    def comparable(self) -> bool:
        return self.relation != INCOMPARABLE


def compare_right(omega: Word, gamma: Word) -> Comparability:
    lo, lg = len(omega), len(gamma)
    if lo >= lg and omega[lo - lg:] == gamma:
        return Comparability(GEQ, omega[: lo - lg])
    if lg > lo and gamma[lg - lo:] == omega:
        return Comparability(LT, gamma[: lg - lo])
    return Comparability(INCOMPARABLE)


def factorizations(alpha: Word, j: int) -> list[tuple[Word, ...]]:
    """All ordered splittings alpha = gamma_1 ... gamma_j with |gamma_i| >= 1.

    There are C(|alpha|-1, j-1) of them (one per cut-point subset).
    """
    k = len(alpha)
    if not 1 <= j <= k:
        raise ValueError(f"need 1 <= j <= |alpha|={k}, got j={j}")
    out = []
    for cuts in combinations(range(1, k), j - 1):
        bounds = (0,) + cuts + (k,)
        out.append(tuple(alpha[bounds[i]:bounds[i + 1]] for i in range(j)))
    return out


def n_factorizations(length: int, j: int) -> int:
    return comb(length - 1, j - 1)
