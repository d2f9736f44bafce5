from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdomains.corpus import builtin_corpus, mixed_spec, random_spec
from ncdomains.weights import (DomainSpec, InvalidDomainError,
                               compactness_ratio_test, hyperball_spec,
                               hyperball_weights, omega_beta,
                               ratio_bound_check, weights_by_convolution,
                               weights_by_factorization)
from ncdomains.words import EMPTY, enumerate_words, factorizations


def test_spec_validation():
    with pytest.raises(InvalidDomainError):
        DomainSpec(2, 1, {(1,): Fraction(1)})  # missing a_g2
    with pytest.raises(InvalidDomainError):
        DomainSpec(2, 1, {(1,): 1, (2,): 1, EMPTY: 1})  # constant term
    with pytest.raises(InvalidDomainError):
        DomainSpec(2, 1, {(1,): 1, (2,): -1})
    with pytest.raises(InvalidDomainError):
        DomainSpec(2, 0, {(1,): 1, (2,): 1})
    with pytest.raises(InvalidDomainError):
        DomainSpec(2, 1, {(1,): 1, (2,): 1, (3,): 1})  # letter out of range
    # zero coefficients are dropped, not errors
    spec = DomainSpec(2, 1, {(1,): 1, (2,): 1, (1, 2): 0})
    assert (1, 2) not in spec.coefficients


def test_spec_json_roundtrip():
    spec = mixed_spec(2)
    again = DomainSpec.from_json(spec.to_json())
    assert again == spec


def test_oracles_agree_on_corpus():
    for name, spec in builtin_corpus().items():
        t1 = weights_by_factorization(spec, 4)
        t2 = weights_by_convolution(spec, 4)
        assert t1.b == t2.b, name


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10 ** 9), st.integers(1, 3), st.integers(1, 3))
def test_oracles_agree_on_random_specs(seed, n, m):
    spec = random_spec(np.random.default_rng(seed), n, m)
    N = 4 if n < 3 else 3
    assert weights_by_factorization(spec, N).b == weights_by_convolution(spec, N).b


def _all_splittings_weights(spec, N):
    """b_alpha summed over every ordered splitting of alpha, unsupported
    parts contributing zero."""
    b = {EMPTY: Fraction(1)}
    for alpha in enumerate_words(spec.n, N)[1:]:
        total = Fraction(0)
        for j in range(1, len(alpha) + 1):
            for parts in factorizations(alpha, j):
                prod = Fraction(1)
                for part in parts:
                    prod *= spec.coefficient(part)
                total += prod * comb(j + spec.m - 1, spec.m - 1)
        b[alpha] = total
    return b


def test_supported_walk_matches_all_splittings():
    specs = dict(builtin_corpus())
    specs["degree3"] = DomainSpec(2, 2, {(1,): Fraction(1, 2), (2,): Fraction(1, 3),
                                         (2, 1): Fraction(1, 4), (1, 2, 2): Fraction(1, 5)})
    for name, spec in specs.items():
        for N in range(7):
            assert weights_by_factorization(spec, N).b == _all_splittings_weights(spec, N), (name, N)


def test_hyperball_closed_form():
    for n in (1, 2):
        for m in (1, 2, 3):
            table = weights_by_factorization(hyperball_spec(n, m), 5)
            closed = hyperball_weights(n, m, 5)
            assert table.b == closed.b
            for w in enumerate_words(n, 5):
                assert table.b[w] == comb(len(w) + m - 1, m - 1)


def test_mixed_spec_values_m1():
    # q = Z1 + Z2 + Z1Z2, m = 1: b_alpha counts weighted factorizations into
    # support words; values below were summed by hand
    table = weights_by_factorization(mixed_spec(1), 3)
    assert table.b[EMPTY] == 1
    assert table.b[(1,)] == 1
    assert table.b[(2,)] == 1
    assert table.b[(1, 2)] == 2      # (1)(2) and (12)
    assert table.b[(2, 1)] == 1
    assert table.b[(1, 1)] == 1
    assert table.b[(1, 2, 1)] == 2   # (1)(2)(1) and (12)(1)
    assert table.b[(1, 1, 2)] == 2   # (1)(1)(2) and (1)(12)
    assert table.b[(2, 1, 2)] == 2   # (2)(1)(2) and (2)(12)


def test_mixed_spec_values_m2():
    # m = 2 multiplies each j-factorization by C(j+1, 1) = j+1
    table = weights_by_factorization(mixed_spec(2), 2)
    assert table.b[(1,)] == 2
    assert table.b[(1, 2)] == 2 * 1 + 3 * 1   # (12) with j=1, (1)(2) with j=2
    assert table.b[(1, 1)] == 3


def test_weight_positivity_guard():
    table = weights_by_factorization(hyperball_spec(2, 1), 3)
    assert all(v > 0 for v in table.b.values())


def test_ratio_bound_exact(ball2_table, mixed_table):
    for table in (ball2_table, mixed_table):
        report = ratio_bound_check(table)
        assert report.passed
        assert report.worst_slack >= 0
        assert report.pairs_checked > 0


def test_omega_beta_empty_is_one(ball2_table):
    est, depth = omega_beta(ball2_table, EMPTY)
    assert est == 1
    assert depth == ball2_table.N


def test_omega_beta_hyperball_letter(ball1_table):
    # m = 1 hyperball: all weights are 1, so every ratio is exactly 1
    est, _ = omega_beta(ball1_table, (1,))
    assert est == 1


def test_compactness_ratios_bounded(ball2_table):
    report = compactness_ratio_test(ball2_table)
    # b_{g_i alpha} / b_alpha = (|alpha|+2)/(|alpha|+1) <= 2, decreasing in depth
    for i in (1, 2):
        assert report.max_ratio[i] == 2
        lo, hi = report.trend(i)
        assert lo >= hi


def test_csv_export(tmp_path, ball1_table):
    path = tmp_path / "weights.csv"
    ball1_table.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "word,length,numerator,denominator,float_value"
    assert len(lines) == 1 + len(enumerate_words(2, 5))
