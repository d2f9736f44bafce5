"""Acceptance gate: one test per top-level claim, at the stated tolerances.

Scale: n <= 3, m <= 3, truncation N <= 6.  Randomized inputs are seeded and
deterministic.
"""
from math import comb

import numpy as np
import pytest

from dense_oracle import dense_creation, dense_word
from ncdomains.berezin import (berezin_kernel, berezin_transform,
                               hereditary_eval, hereditary_model_operator,
                               intertwining_residual, mean_value_check)
from ncdomains.cauchy import (analytic_functional_calculus, cauchy_kernel,
                              cauchy_transform, joint_spectral_radius,
                              multiply_symbols, radius_inequality_check)
from ncdomains.berezin import OperatorTuple
from ncdomains.cli import main
from ncdomains.corpus import (builtin_corpus, random_gated_tuple,
                              random_hereditary, random_nilpotent_tuple,
                              random_spec, random_symbol)
from ncdomains.fock import (TruncatedOperator, creation_tuple, defects,
                            truncated_model)
from ncdomains.pluriharmonic import (PluriharmonicFunction, distance,
                                     scalar_holomorphic,
                                     schur_positivity_test, weierstrass_limit)
from ncdomains.toeplitz import (MultiToeplitzSymbol, fourier_coefficients,
                                is_multi_toeplitz, max_block_difference,
                                norm_profile, symbol_to_operator)
from ncdomains.weights import (hyperball_spec, weights_by_convolution,
                               weights_by_factorization)
from ncdomains.words import EMPTY, enumerate_words


@pytest.fixture(scope="module")
def tables():
    return {name: weights_by_factorization(spec, 5)
            for name, spec in builtin_corpus().items()}


def test_01_weight_oracle_equivalence(tables):
    for name, table in tables.items():
        conv = weights_by_convolution(table.spec, table.N)
        assert table.b == conv.b, name
    rng_seeds = range(20)
    for seed in rng_seeds:
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        spec = random_spec(rng, n, m, max_degree=3)
        N = 4 if n < 3 else 3
        assert (weights_by_factorization(spec, N).b
                == weights_by_convolution(spec, N).b), seed


def test_02_hyperball_closed_form():
    for n in (1, 2, 3):
        N = 6 if n < 3 else 4
        for m in (1, 2, 3):
            table = weights_by_factorization(hyperball_spec(n, m), N)
            for w, v in table.b.items():
                assert v == comb(len(w) + m - 1, m - 1)


def test_03_defect_identity(tables):
    for name, table in tables.items():
        spec = table.spec
        W = [op.matrix for op in creation_tuple(table, 5, left=True)]
        defect = defects(spec, W, spec.m)[-1]
        P = np.zeros_like(defect)
        P[0, 0] = 1.0  # the vacuum is the first graded basis vector
        assert np.max(np.abs(defect - P)) <= 1e-10, name


def test_04_commutant_identity(tables):
    for name, table in tables.items():
        W = creation_tuple(table, 5, left=True)
        L = creation_tuple(table, 5, left=False)
        model = W[0].model
        for Wi in W:
            for Lj in L:
                D = Wi.matrix @ Lj.matrix - Lj.matrix @ Wi.matrix
                for gamma in model.words:
                    if len(gamma) <= 5 - 2:
                        col = D[:, model.index[gamma]]
                        assert np.linalg.norm(col) <= 1e-12, (name, gamma)


def test_05_toeplitz_roundtrip_and_rejection(tables):
    rng = np.random.default_rng(50)
    table = tables["hyperball_n2_m2"]
    for _ in range(10):
        sym = random_symbol(rng, 2, max_len=2, aux_dim=2)
        op = symbol_to_operator(sym, table, 1.0, 5)
        rec = fourier_coefficients(op, table, 5)
        assert max_block_difference(sym, rec) <= 1e-10
        report = is_multi_toeplitz(op, table, tol=1e-12)
        assert report.is_toeplitz

    sym = MultiToeplitzSymbol.scalar(A={(1,): 1.0})
    op = symbol_to_operator(sym, table, 1.0, 5)
    op.matrix[op.model.index[(1,)], op.model.index[(2,)]] += 0.1
    report = is_multi_toeplitz(op, table, tol=1e-10)
    assert not report.is_toeplitz
    assert report.worst_incomparable_entry >= 0.05


def test_06_norm_monotonicity(tables):
    rng = np.random.default_rng(60)
    table = tables["hyperball_n2_m2"]
    radii = [k / 10 for k in range(1, 11)]
    for _ in range(20):
        sym = random_symbol(rng, 2, max_len=2)
        norms, _ = norm_profile(sym, table, radii, 4)
        for lo, hi in zip(norms, norms[1:]):
            assert lo <= hi + 1e-10


def test_07_berezin_reproducing(tables):
    rng = np.random.default_rng(70)
    for name in ("hyperball_n2_m1", "hyperball_n2_m2", "mixed_n2_m1"):
        table = tables[name]
        spec = table.spec
        model = truncated_model(table, 5)
        W = dense_creation(table, 5, left=True)
        X = random_nilpotent_tuple(rng, spec, dim=3)  # order <= 3, N = 5 >= 3+2
        K = berezin_kernel(spec, X, table, 5)
        assert np.linalg.norm(K.conj().T @ K - np.eye(3), 2) <= 1e-10
        assert intertwining_residual(K, X, table, 5) <= 1e-10
        for alpha in enumerate_words(2, 2):
            for beta in enumerate_words(2, 2):
                g = TruncatedOperator(model, dense_word(W, alpha) @ dense_word(W, beta).conj().T)
                got = berezin_transform(spec, X, g, table)
                want = X.word(alpha) @ X.word(beta).conj().T
                assert np.linalg.norm(got - want, 2) <= 1e-10


def test_08_von_neumann_inequality(tables):
    rng = np.random.default_rng(80)
    table = tables["hyperball_n2_m2"]
    for _ in range(20):
        X = random_nilpotent_tuple(rng, table.spec, dim=3)
        poly = random_hereditary(rng, 2, max_deg=2)
        lhs = np.linalg.norm(hereditary_eval(X, poly), 2)
        # N = 5 >= (d-1) + deg q = 2 + 2
        rhs = hereditary_model_operator(poly, table, 5).norm()
        assert lhs <= rhs + 1e-8


def test_09_mean_value_property(tables):
    rng = np.random.default_rng(90)
    table = tables["hyperball_n2_m2"]
    for _ in range(10):
        X = random_nilpotent_tuple(rng, table.spec, dim=3)
        sym = random_symbol(rng, 2, max_len=2)
        for r in (0.5, 0.9):
            assert mean_value_check(sym, table.spec, X.scaled(r), r,
                                    table, 5) <= 1e-8


def test_10_gamma_kernel_identity(tables):
    rng = np.random.default_rng(100)
    table = tables["hyperball_n2_m2"]
    for _ in range(5):
        sym = random_symbol(rng, 2, max_len=2, antianalytic=False)
        F = PluriharmonicFunction(sym)
        report = schur_positivity_test(F, table, [0.3, 0.7, 0.95], 2, 5)
        assert max(report.equality_residuals) <= 1e-12
        # min-eigenvalue agreement with the explicit compression
        op = symbol_to_operator(sym, table, 0.95, 5)
        H = op.matrix + op.matrix.conj().T
        d = sym.aux_dim
        nw = len(enumerate_words(2, 2))
        comp = (H[: nw * d, : nw * d] + H[: nw * d, : nw * d].conj().T) / 2
        assert abs(float(np.min(np.linalg.eigvalsh(comp)))
                   - report.min_eigenvalues[-1]) <= 1e-10

    assert schur_positivity_test(scalar_holomorphic({EMPTY: 1.0, (1,): 1.0}),
                                 table, [0.5, 0.9], 2, 5).positive
    assert not schur_positivity_test(scalar_holomorphic({(1,): 1.0}),
                                     table, [0.5, 0.9], 2, 5).positive


def test_11_cauchy_calculus(tables):
    rng = np.random.default_rng(110)
    table = tables["hyperball_n2_m2"]
    spec = table.spec
    model = truncated_model(table, 4)
    W = dense_creation(table, 4, left=True)
    for _ in range(10):
        X = random_gated_tuple(rng, spec, dim=3, target_radius=0.6)
        C = cauchy_kernel(spec, X, 4, table)
        for alpha in enumerate_words(2, 3):
            got = cauchy_transform(spec, X, TruncatedOperator(model, dense_word(W, alpha)), 4,
                                   table, C=C)
            assert np.linalg.norm(got - X.word(alpha), 2) <= 1e-10
        c1 = {w: complex(rng.standard_normal(), rng.standard_normal())
              for w in enumerate_words(2, 2)}
        c2 = {EMPTY: 1.0, (2,): complex(rng.standard_normal())}
        r1 = analytic_functional_calculus(spec, X, c1, 4, table)
        assert r1.cross_residual <= 1e-8
        prod = multiply_symbols(c1, c2)
        v2 = analytic_functional_calculus(spec, X, c2, 4, table).value
        vp = analytic_functional_calculus(spec, X, prod, 4, table).value
        assert np.linalg.norm(r1.value @ v2 - vp, 2) <= 1e-8


def test_12_spectral_radius(tables):
    spec1 = hyperball_spec(1, 1)
    for lam in (0.3, 0.9, 0.5j):
        X = OperatorTuple(spec1, [np.array([[lam]])])
        report = joint_spectral_radius(spec1, X)
        assert abs(report.r_exact - abs(lam)) <= 1e-14

    rng = np.random.default_rng(120)
    table = tables["hyperball_n2_m2"]
    for _ in range(5):
        X = random_gated_tuple(rng, table.spec, dim=3, target_radius=0.6)
        report = joint_spectral_radius(table.spec, X, k_max=40)
        assert abs(report.r_exact - report.last_sequence_value) <= 5e-2
        ineq = radius_inequality_check(table.spec, X, 5, table)
        assert ineq.violations == 0


def test_13_metric(tables):
    rng = np.random.default_rng(130)
    table = tables["hyperball_n2_m2"]
    for _ in range(20):
        F, G, H = (PluriharmonicFunction(random_symbol(rng, 2, 2))
                   for _ in range(3))
        fg = distance(F, G, table, 4)
        gf = distance(G, F, table, 4)
        fh = distance(F, H, table, 4)
        hg = distance(H, G, table, 4)
        ff = distance(F, F, table, 4)
        assert ff == 0.0 and fg >= 0
        assert abs(fg - gf) < 1e-14
        assert fg <= fh + hg + 1e-12

    family = [PluriharmonicFunction(MultiToeplitzSymbol.scalar(
        A={(1,): 1.0 - 2.0 ** -j})) for j in range(1, 21)]
    limit = PluriharmonicFunction(MultiToeplitzSymbol.scalar(A={(1,): 1.0}))
    report = weierstrass_limit(family, table, [0.5, 0.9], 4)
    assert report.converged
    rhos = [distance(Fj, limit, table, 4) for Fj in family]
    assert all(hi <= lo for lo, hi in zip(rhos, rhos[1:]))
    assert rhos[-1] < 1e-5


def test_14_verify_all_corpus(tmp_path):
    import time
    out = tmp_path / "report.json"
    t0 = time.perf_counter()
    rc = main(["verify-all", "--max-len", "5", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert elapsed < 600
