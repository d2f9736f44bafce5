from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncdomains.words import (EMPTY, GEQ, INCOMPARABLE, LT, compare_right,
                             enumerate_words, factorizations,
                             fock_dimension, n_factorizations, reverse)

words_st = st.lists(st.integers(1, 3), max_size=6).map(tuple)
nonempty_words_st = st.lists(st.integers(1, 3), min_size=1, max_size=6).map(tuple)


def test_enumeration_counts():
    assert len(enumerate_words(1, 4)) == 5
    assert len(enumerate_words(2, 4)) == 31
    assert len(enumerate_words(3, 3)) == 40
    for n in (1, 2, 3):
        for N in range(5):
            assert len(enumerate_words(n, N)) == fock_dimension(n, N)


def test_enumeration_is_graded_lex():
    ws = enumerate_words(2, 3)
    assert ws[0] == EMPTY
    assert ws[1:3] == [(1,), (2,)]
    assert ws[3:7] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    # graded: lengths nondecreasing, lex within a length
    for a, b in zip(ws, ws[1:]):
        assert (len(a), a) < (len(b), b)


def test_enumeration_rejects_bad_args():
    with pytest.raises(ValueError):
        enumerate_words(0, 3)
    with pytest.raises(ValueError):
        enumerate_words(2, -1)


def test_compare_right_basic():
    assert compare_right((1, 2), (2,)).relation == GEQ
    assert compare_right((1, 2), (2,)).quotient == (1,)
    assert compare_right((2,), (1, 2)).relation == LT
    assert compare_right((2,), (1, 2)).quotient == (1,)
    assert compare_right((1,), (2,)).relation == INCOMPARABLE
    assert compare_right((1, 2), (1,)).relation == INCOMPARABLE
    same = compare_right((1, 2), (1, 2))
    assert same.relation == GEQ and same.quotient == EMPTY
    empty = compare_right(EMPTY, EMPTY)
    assert empty.relation == GEQ and empty.quotient == EMPTY


@given(words_st, words_st)
def test_compare_right_reconstructs(omega, gamma):
    cmp = compare_right(omega, gamma)
    if cmp.relation == GEQ:
        assert cmp.quotient + gamma == omega
    elif cmp.relation == LT:
        assert cmp.quotient + omega == gamma
        assert len(cmp.quotient) >= 1
    else:
        assert omega != gamma
        assert cmp.quotient is None


@given(words_st, words_st)
def test_comparability_is_suffix_relation(omega, gamma):
    cmp = compare_right(omega, gamma)
    suffix = (len(omega) >= len(gamma) and omega[len(omega) - len(gamma):] == gamma) \
        or (len(gamma) > len(omega) and gamma[len(gamma) - len(omega):] == omega)
    assert cmp.comparable == suffix


@given(nonempty_words_st, st.integers(1, 6))
def test_factorizations_count_and_concat(alpha, j):
    if j > len(alpha):
        with pytest.raises(ValueError):
            factorizations(alpha, j)
        return
    parts_list = factorizations(alpha, j)
    assert len(parts_list) == n_factorizations(len(alpha), j)
    assert len(parts_list) == comb(len(alpha) - 1, j - 1)
    for parts in parts_list:
        assert len(parts) == j
        assert all(len(p) >= 1 for p in parts)
        assert sum(parts, ()) == alpha
    assert len(set(parts_list)) == len(parts_list)


@given(words_st)
def test_reverse_involution(w):
    assert reverse(reverse(w)) == w


def test_factorizations_example():
    assert factorizations((1, 2, 1), 2) == [((1,), (2, 1)), ((1, 2), (1,))]
