import ast
import json
import sys
from dataclasses import replace
from math import sqrt
from pathlib import Path

import numpy as np
import pytest

from dense_oracle import dense_creation, dense_word
from ncdomains import cauchy, fock, lanczos
from ncdomains.berezin import (OperatorTuple, berezin_kernel, berezin_transform,
                               intertwining_residual)
from ncdomains.cauchy import cauchy_kernel, cauchy_transform, reconstruction_operator
from ncdomains.fock import (MODEL_TOL, cp_map_apply, cp_map_orbit,
                            cp_orbit_norms, creation_tuple, defects, sparse_norm,
                            spectral_norm, truncated_model, verify_model_identities,
                            weighted_space_conjugation, word_operator, word_products)
from ncdomains.cli import main
from ncdomains.corpus import (builtin_corpus, random_gated_tuple, random_nilpotent_tuple,
                              random_symbol, scale_into_domain)
from ncdomains.report import VerificationReport
from ncdomains.serialization import dump_json, tuple_to_json
from ncdomains.toeplitz import MultiToeplitzSymbol, symbol_to_operator
from ncdomains.verify import full_suite
from ncdomains.weights import weights_by_factorization
from ncdomains.words import EMPTY, enumerate_words, fock_dimension, reverse


def test_creation_matrix_entries(ball2_table):
    W1 = creation_tuple(ball2_table, 3)[0]
    index = W1.model.index
    # W_1 e_() = sqrt(b_()/b_(1)) e_(1) = (1/sqrt(2)) e_(1) for m = 2
    col = W1.matrix[:, index[EMPTY]]
    assert abs(col[index[(1,)]] - 1 / sqrt(2)) < 1e-15
    assert np.count_nonzero(col) == 1
    # boundary words map to zero
    assert np.all(W1.matrix[:, index[(1, 1, 1)]] == 0)


def test_unweighted_shift_for_m1(ball1_table):
    # m = 1 hyperball weights are all 1: W_i is the plain left shift
    W1 = creation_tuple(ball1_table, 3)[0]
    model = W1.model
    for gamma in model.words:
        if len(gamma) < 3:
            assert W1.matrix[model.index[(1,) + gamma], model.index[gamma]] == 1.0


def test_word_operator_orders_letters(ball2_table):
    W = creation_tuple(ball2_table, 3, left=True)
    index = W[0].model.index
    v = word_operator(W, (1, 2)).matrix[:, index[EMPTY]]
    # W_1 W_2 e_() lands on e_(1,2), not e_(2,1)
    assert v[index[(1, 2)]] != 0
    assert v[index[(2, 1)]] == 0
    # the product of creation operators against the chained dense oracle
    for name, spec in builtin_corpus().items():
        table = weights_by_factorization(spec, 4)
        for N in range(5):
            for left in (True, False):
                ops = creation_tuple(table, N, left=left)
                ref = dense_creation(table, N, left)
                for alpha in enumerate_words(spec.n, N):
                    got = word_operator(ops, alpha)
                    assert got.model is ops[0].model and got.aux_dim == 1
                    err = np.max(np.abs(got.matrix - dense_word(ref, alpha)))
                    assert err <= 1e-15, (name, N, left, alpha)


def test_word_operator_starts_from_first_factor():
    """A word product equals the chain started from the identity, bit for
    bit, on real and complex finite matrices and every word up to length 3;
    the result is a new array, so writing to it leaves the inputs alone."""
    rng = np.random.default_rng(37)
    for ops in ([rng.standard_normal((4, 4)) for _ in range(2)],
                [rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
                 for _ in range(3)]):
        before = [M.copy() for M in ops]
        for alpha in enumerate_words(len(ops), 3):
            got = word_operator(ops, alpha)
            assert np.array_equal(got, dense_word(ops, alpha)), alpha
            assert got.dtype == complex
            got[...] = np.nan
            assert all(np.array_equal(M, B) for M, B in zip(ops, before)), alpha


def test_word_products_match_word_operator():
    """The prefix chain gives every word of length <= N in graded order, each
    bitwise equal to word_operator's product, at nilpotent and dense tuples."""
    rng = np.random.default_rng(43)
    for name, spec in builtin_corpus().items():
        for k in (1, 2, 3):
            dense = [rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
                     for _ in range(spec.n)]
            for X in (random_nilpotent_tuple(rng, spec, dim=k).matrices, dense):
                for N in range(6):
                    words = enumerate_words(spec.n, N)
                    got = word_products(X, N)
                    assert got.shape == (len(words), k, k)
                    for alpha, Xa in zip(words, got):
                        assert Xa.tobytes() == word_operator(X, alpha).tobytes(), (name, k, N)


def test_defect_identity_on_corpus():
    for name, spec in builtin_corpus().items():
        table = weights_by_factorization(spec, 3)
        W = [op.matrix for op in creation_tuple(table, 3, left=True)]
        defect = defects(spec, W, spec.m)[-1]
        P = np.zeros_like(defect)
        P[0, 0] = 1.0  # the vacuum is the first graded basis vector
        assert np.max(np.abs(defect - P)) < 1e-10, name


def test_model_identities_report(ball2_table):
    report = verify_model_identities(ball2_table.spec, ball2_table, 4)
    assert report.passed
    assert report.commutation_residual < 1e-12
    # commutation is held to its own tolerance, tighter than the other identities'
    assert not replace(report, commutation_residual=5e-11).passed


def test_conjugation_to_unweighted_shift(ball2_table, mixed_table):
    for table in (ball2_table, mixed_table):
        assert weighted_space_conjugation(table, 4) <= MODEL_TOL


def test_model_folds_keep_nan():
    """A NaN weight at the word (2,) reaches the commutation and conjugation
    residuals as NaN, whichever letter pair meets it first."""
    table = weights_by_factorization(builtin_corpus()["mixed_n2_m1"], 3)
    model = truncated_model(table, 3)
    model.sqrt_b[model.index[(2,)]] = np.nan
    ident = verify_model_identities(table.spec, table, 3)
    assert np.isnan(ident.commutation_residual) and not ident.passed
    assert np.isnan(weighted_space_conjugation(table, 3))


def test_cp_map_positive(ball2_table):
    spec = ball2_table.spec
    W = [op.matrix for op in creation_tuple(ball2_table, 3, left=True)]
    phi = cp_map_apply(spec, W, np.eye(W[0].shape[0], dtype=complex))
    vals = np.linalg.eigvalsh((phi + phi.conj().T) / 2)
    assert vals.min() >= -1e-12
    assert vals.max() <= 1 + 1e-12


def test_cp_map_orbit_matches_repeated_apply():
    """The orbit forms the words once; each power is bitwise the one from
    applying cp_map_apply again, and the norms stop right after the first
    exact zero.  The mixed specs carry the word (1, 2)."""
    rng = np.random.default_rng(53)
    for name, spec in builtin_corpus().items():
        for X in (random_nilpotent_tuple(rng, spec, dim=3),
                  random_gated_tuple(rng, spec, dim=3, target_radius=0.6),
                  OperatorTuple(spec, [np.zeros((2, 2))] * spec.n)):
            Y = np.eye(X.dim, dtype=complex)
            orbit = cp_map_orbit(spec, X.matrices, Y)
            norms = []
            for k in range(40):
                Y = cp_map_apply(spec, X.matrices, Y)
                assert np.array_equal(next(orbit), Y), (name, k)
                norms.append(spectral_norm(Y))
            if 0.0 in norms:
                norms = norms[:norms.index(0.0) + 1]
            for k_max in (1, 2, 5, 40):
                assert cp_orbit_norms(spec, X.matrices, k_max) == norms[:k_max], (name, k_max)
        assert cp_orbit_norms(spec, X.matrices, 40) == [0.0]  # the zero tuple


def test_cp_map_apply_validates_inputs(ball2_table):
    spec = ball2_table.spec
    with pytest.raises(ValueError, match="expected 2 operators"):
        cp_map_apply(spec, [np.eye(2)], np.eye(2))
    with pytest.raises(ValueError, match="inconsistent"):
        cp_map_apply(spec, [np.eye(2), np.eye(2)], np.eye(3))


def test_block_extraction(ball2_table):
    W1 = creation_tuple(ball2_table, 2)[0]
    blk = W1.block((1,), EMPTY)
    assert blk.shape == (1, 1)
    assert abs(blk[0, 0] - 1 / sqrt(2)) < 1e-15


def test_creation_rejects_bad_letter(ball2_table):
    """Letters outside 1..n raise from the shift maps, also for words longer
    than N, and from symbol_to_operator; a depth beyond the table raises."""
    model = truncated_model(ball2_table, 2)
    for alpha in ((0,), (3,), (1, 0), (3, 1, 1)):
        for left in (True, False):
            with pytest.raises(ValueError, match="letters outside 1..2"):
                model.shift(alpha, left)
    for letter in (0, 3):
        for sym in (MultiToeplitzSymbol.scalar(A={(letter,): 1.0}),
                    MultiToeplitzSymbol.scalar(B={(1, letter): 1.0})):
            with pytest.raises(ValueError, match="letters outside 1..2"):
                symbol_to_operator(sym, ball2_table, 1.0, 2)
    with pytest.raises(ValueError, match="exceeds table depth"):
        creation_tuple(ball2_table, 9)


def test_conjugation_matches_dense_product():
    """The residual read from the shift maps against U W_i U^{-1} formed from
    dense creation matrices and the unweighted shift built from the words."""
    for name, spec in builtin_corpus().items():
        table = weights_by_factorization(spec, 4)
        for N in range(5):
            words = enumerate_words(spec.n, N)
            sqrt_b = np.array([sqrt(table.b[w]) for w in words])
            inner = [j for j, g in enumerate(words) if len(g) < N]
            want = 0.0
            for i, Wi in enumerate(dense_creation(table, N, left=True), start=1):
                shift = np.zeros_like(Wi)
                for j in inner:
                    shift[words.index((i,) + words[j]), j] = 1.0
                conj = np.diag(sqrt_b) @ Wi @ np.diag(1.0 / sqrt_b)
                cols = np.linalg.norm((conj - shift)[:, inner], axis=0)
                want = max(want, float(cols.max(initial=0.0)))
            got = weighted_space_conjugation(table, N)
            assert abs(got - want) <= 1e-15, (name, N, got, want)


def test_index_maps_match_dense_products():
    rng = np.random.default_rng(11)
    for name, spec in builtin_corpus().items():
        table = weights_by_factorization(spec, 4)
        for N in range(5):
            W = dense_creation(table, N, left=True)
            L = dense_creation(table, N, left=False)
            for left, ref in ((True, W), (False, L)):
                got = [op.matrix for op in creation_tuple(table, N, left=left)]
                assert np.max(np.abs(np.array(got) - np.array(ref))) <= 1e-15, name
            for d in (1, 2):
                blk = lambda: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                words = enumerate_words(spec.n, N)
                sym = MultiToeplitzSymbol(d, {w: blk() for w in words},
                                          {w: blk() for w in words if w})
                for r in (1.0, 0.6):
                    want = sum(np.kron(dense_word(W, a) * r ** len(a), c)
                               for a, c in sym.A.items())
                    want = want + sum(np.kron(dense_word(W, a).conj().T * r ** len(a), c)
                                      for a, c in sym.B.items())
                    got = symbol_to_operator(sym, table, r, N).matrix
                    assert np.max(np.abs(got - want)) <= 1e-13, (name, N, d, r)
                X = OperatorTuple(spec, [blk() for _ in range(spec.n)])
                want = sum(float(a) * np.kron(dense_word(L, reverse(beta)),
                                              X.word(beta).conj().T)
                           for beta, a in spec.coefficients.items())
                got = reconstruction_operator(spec, X, N, table).matrix
                assert np.max(np.abs(got - want)) <= 1e-13, (name, N, d)
            # one term with both words nonempty, on Lambda, with a 2 x 2 block
            alpha, beta = (1,), (spec.n, 1)
            B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            want = 0.7 * np.kron(dense_word(L, alpha) @ dense_word(L, beta).conj().T, B)
            got = truncated_model(table, N).operator([(alpha, beta, 0.7, B)], 2, left=False)
            assert got.aux_dim == 2, (name, N)
            assert np.max(np.abs(got.matrix - want)) <= 1e-13, (name, N)


def test_block_columns_match_dense_references():
    """Kernel columns, transforms and model identities against dense (Dk)^2
    references: kron(., I_k) operators and dense creation-matrix products."""
    rng = np.random.default_rng(13)

    def rand(d):
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    for name, spec in builtin_corpus().items():
        table = weights_by_factorization(spec, 4)
        for N in range(5):
            report = verify_model_identities(spec, table, N)
            W = dense_creation(table, N, True)
            D = W[0].shape[0]
            vacuum = np.zeros((D, D))
            vacuum[0, 0] = 1.0
            for ops, s, res, nrm in (
                    (W, spec,
                     report.defect_residual_left, report.phi_norm_left),
                    (dense_creation(table, N, False), spec.reversed(),
                     report.defect_residual_right, report.phi_norm_right)):
                want = np.max(np.abs(defects(s, ops, spec.m)[-1] - vacuum))
                assert abs(res - want) <= 1e-13, (name, N)
                phi = cp_map_apply(s, ops, np.eye(D, dtype=complex))
                want = np.max(np.linalg.eigvalsh((phi + phi.conj().T) / 2))
                assert abs(nrm - want) <= 1e-13, (name, N)
            words = enumerate_words(spec.n, N)
            for k in (1, 2, 3):
                Ik = np.eye(k)
                E = np.kron(vacuum[:, :1], Ik)
                X = random_gated_tuple(rng, spec, dim=k, target_radius=0.6)
                R = reconstruction_operator(spec, X, N, table).matrix
                S = sum(np.linalg.matrix_power(R, j) for j in range(N + 1))
                C_dense = np.linalg.matrix_power(S, spec.m)
                C = cauchy_kernel(spec, X, N, table)
                assert np.max(np.abs(C - C_dense @ E)) <= 1e-13, (name, N, k)
                A = symbol_to_operator(MultiToeplitzSymbol.scalar(
                    A={w: complex(*rng.standard_normal(2)) for w in words}), table, 1.0, N)
                want = (C_dense @ E).conj().T @ np.kron(A.matrix, Ik) @ E
                got = cauchy_transform(spec, X, A, N, table, C=C)
                assert np.max(np.abs(got - want)) <= 1e-13, (name, N, k)

                Y = scale_into_domain(OperatorTuple(spec, [rand(k) for _ in range(spec.n)]))
                K = berezin_kernel(spec, Y, table, N)
                want = max(np.linalg.norm(K @ Yi.conj().T - np.kron(Wi.conj().T, Ik) @ K, 2)
                           for Yi, Wi in zip(Y.matrices, W))
                assert abs(intertwining_residual(K, Y, table, N) - want) <= 1e-13
                for d in (1, 2):
                    sym = MultiToeplitzSymbol(d, {w: rand(d) for w in words},
                                              {w: rand(d) for w in words if w})
                    g = symbol_to_operator(sym, table, 0.6, N)
                    want = np.block([[K.conj().T @ np.kron(g.matrix[i::d, j::d], Ik) @ K
                                      for j in range(d)] for i in range(d)])
                    got = berezin_transform(spec, Y, g, table)
                    assert np.max(np.abs(got - want)) <= 1e-13, (name, N, k, d)
                    assert np.array_equal(got, berezin_transform(spec, Y, g, table, K))


def test_apply_matches_operator():
    """TruncatedModel.apply against the assembled operator times V: symbol
    terms (block B), hereditary terms with both words nonempty and scalar or
    block B, on W and Lambda, aux dim 1 and 2, a block of columns and a
    vector; the reconstruction terms of the Cauchy kernel on Lambda."""
    rng = np.random.default_rng(41)

    def rand(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for name, spec in builtin_corpus().items():
        table = weights_by_factorization(spec, 4)
        for N in range(5):
            model = truncated_model(table, N)
            D = model.dimension
            words = enumerate_words(spec.n, N)
            for d in (1, 2):
                sym = MultiToeplitzSymbol(d, {w: rand(d, d) for w in words},
                                          {w: rand(d, d) for w in words if w})
                hered = [(alpha, beta, complex(*rng.standard_normal(2)),
                          1 if rng.random() < 0.5 else rand(d, d))
                         for alpha in words[1:] for beta in words[1:]
                         if len(alpha) + len(beta) <= N + 1]
                for terms in (sym.terms(0.8), hered):
                    for left in (True, False):
                        M = model.operator(terms, d, left).matrix
                        for V in (rand(D * d, 3), rand(D * d)):
                            err = np.max(np.abs(model.apply(terms, V, d, left) - M @ V),
                                         initial=0.0)
                            assert err <= 1e-13, (name, N, d, left)
            k = 3
            X = OperatorTuple(spec, [rand(k, k) for _ in range(spec.n)])
            R = reconstruction_operator(spec, X, N, table).matrix
            V = rand(D * k, k)
            got = model.apply(cauchy._reconstruction_terms(spec, X), V, k, left=False)
            assert np.max(np.abs(got - R @ V)) <= 1e-13, (name, N)
    with pytest.raises(ValueError, match="rows"):
        model.apply([((1,), EMPTY, 1, 1)], np.zeros((D + 1, 2)))


def _assert_nonzeros_bitwise(model, terms, d, left):
    """model.nonzeros against np.nonzero of the assembled matrix: the same
    rows and cols in the same order, the same value bits."""
    M = model.operator(terms, d, left).matrix
    rows, cols = np.nonzero(M)
    got_rows, got_cols, got_vals = model.nonzeros(terms, d, left)
    assert got_rows.dtype == rows.dtype and got_cols.dtype == cols.dtype
    assert np.array_equal(got_rows, rows) and np.array_equal(got_cols, cols)
    assert got_vals.dtype == complex and got_vals.tobytes() == M[rows, cols].tobytes()
    return got_vals


@pytest.mark.parametrize("name", sorted(builtin_corpus()))
def test_nonzeros_match_np_nonzero(name):
    """TruncatedModel.nonzeros is np.nonzero of the assembled operator, bit
    for bit, at N <= 6, aux dim 1-3, on W and Lambda: symbol terms; the
    terms of R, whose nilpotent X_beta^* hold exact zeros (all of them at
    dim 1); and the hereditary pair W_1 W_n^*, W_11 W_n1^*, which meet on
    the entries (1 1 gamma, n 1 gamma) and are summed there."""
    spec = builtin_corpus()[name]
    table = weights_by_factorization(spec, 6)
    rng = np.random.default_rng(sorted(builtin_corpus()).index(name) + 100)
    n = spec.n
    pair = [((1,), (n,), 1, 1), ((1, 1), (n, 1), 1, 1)]
    for N in (0, 1, 3, 6):
        model = truncated_model(table, N)
        for d in (1, 2, 3):
            sym = random_symbol(rng, n, max_len=min(N, 3), aux_dim=d).terms(0.7)
            R = cauchy._reconstruction_terms(spec, random_nilpotent_tuple(rng, spec, dim=d))
            for left in (True, False):
                for terms in (sym, R, pair):
                    _assert_nonzeros_bitwise(model, terms, d, left)
    # the first term alone has an entry per |gamma| <= 5, and the second
    # meets it on each of its own
    summed = _assert_nonzeros_bitwise(truncated_model(table, 6), pair, 1, True)
    assert len(summed) == fock_dimension(n, 5)


def test_nonzeros_special_values(mixed_table):
    """Blocks holding -0.0 (alone or beside a nonzero part), NaN and inf,
    terms that cancel exactly, a -0.0 coefficient, three terms on one block
    and no terms at all: zeros
    are dropped whatever their sign, NaN is kept (inf - inf included), and
    sums start from 0, as the assembled matrix's do."""
    model = truncated_model(mixed_table, 4)
    B = np.array([[-0.0, np.nan, complex(-0.0, 2.0)],
                  [complex(0.0, -0.0), 1.5, np.inf],
                  [complex(-0.0, -0.0), complex(3.0, -0.0), -np.inf]])
    cases = [
        [((1,), EMPTY, 1.0, B), (EMPTY, (2,), 0.5, B.T)],
        [((1,), EMPTY, 1.0, B), ((1,), EMPTY, -1.0, B)],
        [((2, 1), (1,), 2.0, 1), ((2, 1), (1,), -2.0, 1),
         (EMPTY, EMPTY, -0.0, np.where(np.isfinite(B), B, 1.0))],
        [((1,), (2,), 1j, np.eye(3)), ((1, 1), (2, 1), -1j, np.eye(3))],
        [((1,), EMPTY, 0.1, 1), (EMPTY, (2,), 0.3, 1), ((1,), EMPTY, 0.7, 1),
         ((1,), EMPTY, 0.2, 1)],  # three terms on one block, summed in order
        [],
    ]
    with np.errstate(invalid="ignore"):  # inf - inf, in both assemblies
        for terms in cases:
            for left in (True, False):
                _assert_nonzeros_bitwise(model, terms, 3, left)
        vals = model.nonzeros(cases[1], 3)[2]
    assert len(vals) and np.isnan(vals).all()  # +-inf - +-inf and NaN - NaN
    assert len(model.nonzeros(cases[2], 3)[2]) == 0


# (spec, N, aux dim) on the Krylov path: sides 1022 and 1023
MODEL_NORM_CASES = (("mixed_n2_m2", 8, 2), ("hyperball_n2_m1", 9, 1))


def test_model_norm_matches_spectral_norm(krylov_runs):
    """TruncatedModel.norm from the nonzeros equals spectral_norm of the
    assembled operator bit for bit, on W and Lambda, with symbol terms."""
    rng = np.random.default_rng(67)
    for name, N, d in MODEL_NORM_CASES:
        model = truncated_model(weights_by_factorization(builtin_corpus()[name], N), N)
        for left in (True, False):
            terms = random_symbol(rng, 2, 2, aux_dim=d).terms(0.9)
            got = model.norm(terms, d, left)
            want = spectral_norm(model.operator(terms, d, left).matrix)
            assert got == want and got > 0, (N, d, left)
    assert len(krylov_runs) == 8 and None not in krylov_runs
    assert krylov_runs[0::2] == krylov_runs[1::2]


def test_model_norm_falls_back_to_dense(monkeypatch, krylov_runs):
    """Where the density rule rejects the nonzeros, the norm is the dense
    path's, as for spectral_norm of the assembled matrix."""
    name, N, d = MODEL_NORM_CASES[0]
    model = truncated_model(weights_by_factorization(builtin_corpus()[name], N), N)
    terms = random_symbol(np.random.default_rng(73), 2, 2, aux_dim=d).terms(0.9)
    monkeypatch.setattr(fock, "KRYLOV_MAX_DENSITY", 1e-4)
    assert model.krylov_nonzeros(terms, d) is None
    assert model.norm(terms, d) == spectral_norm(model.operator(terms, d).matrix)
    assert krylov_runs == []


def test_model_norm_memory(traced_peak, krylov_runs):
    """The norm of an aux-2 symbol operator at N = 9 (side 2046) from its
    nonzeros: 4.4 MB traced, the nonzeros and the Lanczos basis, where the
    dense matrix alone is 67 MB (72.5 MB traced through it)."""
    spec = builtin_corpus()["mixed_n2_m2"]
    model = truncated_model(weights_by_factorization(spec, 9), 9)
    terms = random_symbol(np.random.default_rng(5), 2, 2, aux_dim=2).terms(0.9)
    peak, got = traced_peak(model.norm, terms, 2)
    assert peak < 12e6, peak
    assert len(krylov_runs) == 1 and krylov_runs[0] is not None
    assert got > 0


def test_scalar_term_block_is_identity(mixed_table):
    """A scalar B in a term is b I_d, in the model operator and in the tuple
    substitution."""
    model = truncated_model(mixed_table, 3)
    X = [np.eye(2), 2 * np.eye(2)]
    for d in (1, 2):
        for alpha, beta in (((1,), EMPTY), ((2,), (1, 2))):
            M = model.operator([(alpha, beta, 0.5, 3)], d).matrix
            B = model.operator([(alpha, beta, 0.5, 3 * np.eye(d))], d).matrix
            assert np.array_equal(M, B), (d, alpha, beta)
            assert np.array_equal(fock.substitute(X, [(alpha, beta, 0.5, 3)], d),
                                  fock.substitute(X, [(alpha, beta, 0.5, 3 * np.eye(d))], d))


@pytest.mark.parametrize("name", sorted(builtin_corpus()))
def test_operator_at_lower_depth_is_leading_block(name):
    """The words of length <= order lead the graded basis and the weights do
    not depend on the depth, so the depth-order assembly is the leading block
    of the depth-N one, bit for bit, also for symbols supported above order."""
    spec = builtin_corpus()[name]
    table = weights_by_factorization(spec, 6)
    rng = np.random.default_rng(sorted(builtin_corpus()).index(name))
    for N in range(7):
        for d in (1, 2):
            terms = random_symbol(rng, spec.n, max_len=min(N, 3), aux_dim=d).terms(0.7)
            for left in (True, False):
                full = truncated_model(table, N).operator(terms, d, left).matrix
                for order in range(N + 1):
                    top = truncated_model(table, order).operator(terms, d, left).matrix
                    g = len(top)
                    assert top.tobytes() == full[:g, :g].tobytes(), (N, d, left, order)


def test_truncated_model_kept_per_depth(ball2_table):
    model = truncated_model(ball2_table, 3)
    assert truncated_model(ball2_table, 3) is model
    assert truncated_model(ball2_table, 4) is not model
    assert creation_tuple(ball2_table, 3)[0].model is model
    maps = model.shift((1, 2), left=False)
    assert all(a is b for a, b in zip(model.shift((1, 2), left=False), maps))
    for a in maps:
        with pytest.raises(ValueError):
            a[0] = 0
    with pytest.raises(ValueError):
        truncated_model(ball2_table, 6)


def _spectral_cases():
    rng = np.random.default_rng(17)

    def gauss(m, n, cplx):
        M = rng.standard_normal((m, n))
        return M + 1j * rng.standard_normal((m, n)) if cplx else M

    for cplx in (False, True):
        for shape in ((5, 5), (7, 3), (3, 7), (40, 40)):
            yield gauss(*shape, cplx)
        yield gauss(8, 2, cplx) @ gauss(2, 9, cplx)                # rank 2
        yield np.triu(gauss(6, 6, cplx), k=1)                    # nilpotent
        M = gauss(9, 7, cplx)
        M[[0, 4, 8]] = 0
        M[:, [1, 5]] = 0
        yield M                                                  # zero rows and columns
        yield gauss(1, 1, cplx)
        for scale in (1e-200, 1e200):
            yield scale * gauss(6, 4, cplx)
    yield np.array([[-3.0]])
    yield np.diag([1.0, 1.0 - 1e-15, 1e-12])                      # near-degenerate top


def test_spectral_norm_matches_svd():
    for M in _spectral_cases():
        want = np.linalg.norm(M, 2)
        assert np.isfinite(want) and want > 0
        assert abs(spectral_norm(M) - want) <= 1e-13 * want, M.shape
    for shape in ((1, 1), (4, 6)):
        assert spectral_norm(np.zeros(shape)) == 0.0
    M = np.eye(3, dtype=complex)
    M[1, 2] = np.nan
    assert not np.isfinite(spectral_norm(M))


@pytest.fixture
def krylov_always(monkeypatch, krylov_runs):
    """Every nonzero finite input takes the Krylov path."""
    monkeypatch.setattr(fock, "KRYLOV_MIN_SIDE", 1)
    monkeypatch.setattr(fock, "KRYLOV_MAX_DENSITY", 1.0)
    return krylov_runs


def _assert_matches_svd(M):
    want = np.linalg.norm(M, 2)
    assert np.isfinite(want) and want > 0
    assert abs(spectral_norm(M) - want) <= 1e-13 * want, M.shape


def test_spectral_norm_leaves_input_unchanged():
    """The dense path scales its copy of the nonzero block in place, never
    the input; integer input is promoted, not truncated."""
    for M in _spectral_cases():
        before = M.copy()
        spectral_norm(M)
        assert np.array_equal(M, before)
    M = np.array([[0, 3, 0], [0, 0, 0], [0, 0, -4]])
    assert spectral_norm(M) == 4.0 and spectral_norm(M.T.copy()) == 4.0


def test_krylov_norm_matches_svd(krylov_always):
    """The Krylov path alone, on the dense path's cases: Gaussian, low rank,
    nilpotent, zero rows and columns, 1 x 1, entries near 1e+-200 and a
    near-degenerate top pair."""
    cases = list(_spectral_cases())
    for M in cases:
        _assert_matches_svd(M)
    assert len(krylov_always) == len(cases) and None not in krylov_always
    for shape in ((1, 1), (4, 6)):
        assert spectral_norm(np.zeros(shape)) == 0.0
    assert len(krylov_always) == len(cases)


def test_krylov_norm_on_model_operators(krylov_always):
    """Symbol operators of every n = 2 corpus spec at depth 8, aux dim 1
    (side 511) and 2 (side 1022)."""
    rng = np.random.default_rng(19)
    for name, spec in builtin_corpus().items():
        if spec.n != 2:
            continue
        table = weights_by_factorization(spec, 8)
        for aux in (1, 2):
            sym = random_symbol(rng, 2, 2, aux_dim=aux)
            _assert_matches_svd(symbol_to_operator(sym, table, 0.9, 8).matrix)
    assert len(krylov_always) == 10 and None not in krylov_always


def _sparse(rng, shape, density):
    M = np.zeros(shape, dtype=complex)
    mask = rng.random(shape) < density
    M[mask] = rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum())
    return M


def test_krylov_breakdown(monkeypatch, krylov_runs):
    """A^* A a multiple of the identity breaks down at step 1; of rank 1, at
    step 2, once the start vector and the top singular vector span the
    Krylov space."""
    rng = np.random.default_rng(23)
    n = 600
    monkeypatch.setattr(lanczos, "MAX_STEPS", 1)
    for M in (2.5 * np.eye(n), 3j * np.eye(n)[rng.permutation(n)]):
        _assert_matches_svd(M)
    u, v = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
    u[rng.choice(n, 20, replace=False)] = rng.standard_normal(20) + 1j
    v[rng.choice(n, 20, replace=False)] = rng.standard_normal(20) - 1j
    monkeypatch.setattr(lanczos, "MAX_STEPS", 2)
    _assert_matches_svd(np.outer(u, v))
    assert len(krylov_runs) == 3 and None not in krylov_runs


def test_krylov_norm_sparse_cases(krylov_runs):
    """Large sparse inputs under the default selection: a near-degenerate top
    pair, zero rows and columns, entries near 1e+-200; NaN and inf entries
    return before the Krylov path."""
    rng = np.random.default_rng(29)
    n = 600
    d = rng.uniform(0.0, 0.9, n)
    d[:2] = 1.0, 1.0 - 1e-15
    M = _sparse(rng, (n + 100, n), 0.02)
    M[[0, 10, n + 99]] = 0
    M[:, [5, n - 1]] = 0
    for A in (np.diag(d)[:, rng.permutation(n)], M, 1e-200 * M, 1e200 * M):
        _assert_matches_svd(A)
    assert len(krylov_runs) == 4 and None not in krylov_runs
    M[3, 4] = np.inf
    assert spectral_norm(M) == np.inf
    M[5, 6] = np.nan
    assert np.isnan(spectral_norm(M))
    assert len(krylov_runs) == 4


def test_krylov_path_special_values(traced_peak, krylov_runs):
    """Large sparse inputs that are zero (negative zeros included), or have
    an inf or a NaN entry, return 0.0, inf and NaN from their nonzero values
    alone: Lanczos never runs, and no dense |M| (8.4 MB at side 1024) is made."""
    M = np.zeros((1024, 1024), dtype=complex)
    M[[0, 5], [3, 700]] = -0.0, complex(0.0, -0.0)
    peak, got = traced_peak(spectral_norm, M)
    assert got == 0.0 and peak < 1e6, peak
    M[[2, 9], [4, 11]] = 1.5, np.inf
    peak, got = traced_peak(spectral_norm, M)
    assert got == np.inf and peak < 1e6, peak
    M[20, 30] = complex(0.0, np.nan)
    peak, got = traced_peak(spectral_norm, M)
    assert np.isnan(got) and peak < 1e6, peak
    assert krylov_runs == []


def test_krylov_norm_memory(deep_table, traced_peak, krylov_runs):
    """The Krylov path on a symbol operator at depth 8, aux dim 2 (side 1022,
    17 MB): the nonzeros and the Lanczos basis, under 4 MB."""
    sym = random_symbol(np.random.default_rng(59), 2, 2, aux_dim=2)
    M = symbol_to_operator(sym, deep_table, 0.9, 8).matrix
    peak, got = traced_peak(spectral_norm, M)
    assert peak < 4e6, peak
    assert len(krylov_runs) == 1 and krylov_runs[0] is not None
    assert got >= np.abs(M).max() * (1 - 1e-12)


def test_krylov_falls_back_to_dense(monkeypatch, deep_table, krylov_runs):
    """A symbol operator at depth 8, aux dim 2, takes the Krylov path; cut at
    two steps, it gives the dense path's norm."""
    sym = random_symbol(np.random.default_rng(31), 2, 2, aux_dim=2)
    M = symbol_to_operator(sym, deep_table, 0.9, 8).matrix
    krylov = spectral_norm(M)
    monkeypatch.setattr(lanczos, "MAX_STEPS", 2)
    assert abs(spectral_norm(M) - krylov) <= 1e-13 * krylov
    assert krylov_runs[0] is not None and krylov_runs[1:] == [None]


def test_krylov_sparse_stopping_checks(monkeypatch, krylov_runs):
    """The stopping rule evaluated every CHECK_EVERY steps gives the norm of
    the rule evaluated at every step, within 1e-15 relative, on symbol
    operators of the n = 2 corpus specs at depth 8, aux dim 2."""
    rng = np.random.default_rng(43)
    for name, spec in builtin_corpus().items():
        if spec.n != 2:
            continue
        table = weights_by_factorization(spec, 8)
        M = symbol_to_operator(random_symbol(rng, 2, 2, aux_dim=2), table, 0.9, 8).matrix
        sparse = spectral_norm(M)
        with monkeypatch.context() as m:
            m.setattr(lanczos, "CHECK_EVERY", 1)
            every = spectral_norm(M)
        assert abs(sparse - every) <= 1e-15 * every, name
    assert len(krylov_runs) == 10 and None not in krylov_runs


def _nonzeros(M):
    rows, cols = np.nonzero(M)
    return rows, cols, M[rows, cols]


def _sparse_norm_cases(rng):
    """(nonzeros, shape, repeat, the dense A^repeat B): a random sparse A of
    side 300 with B its first n columns, n = 300, 120 and 7, repeat = 0..3;
    and rectangular m x n matrices, n > m and n < m, with repeat = 0.  Every
    side is below KRYLOV_MIN_SIDE, so spectral_norm of the products is dense."""
    A = _sparse(rng, (300, 300), 0.02)
    for n in (300, 120, 7):
        for repeat in range(4):
            yield _nonzeros(A), (300, n), repeat, np.linalg.matrix_power(A, repeat) @ A[:, :n]
    for shape in ((150, 400), (400, 150)):
        M = _sparse(rng, shape, 0.03)
        yield _nonzeros(M), shape, 0, M


def test_sparse_norm_matches_dense_products(krylov_runs):
    """Lanczos over the products gives the dense norm of the formed product."""
    cases = list(_sparse_norm_cases(np.random.default_rng(61)))
    for nonzeros, shape, repeat, P in cases:
        want = spectral_norm(P)
        assert want > 0
        got = sparse_norm(*nonzeros, shape, repeat)
        assert abs(got - want) <= 1e-13 * want, (shape, repeat)
    assert len(krylov_runs) == len(cases) and None not in krylov_runs


def test_sparse_norm_falls_back_to_dense(monkeypatch, krylov_runs):
    """Lanczos cut at two steps: the norm of the product formed from the
    nonzeros, for repeat = 0 and 2 on a square A and for a rectangular
    matrix with more columns than rows."""
    picked = {((300, 120), 0), ((300, 120), 2), ((150, 400), 0)}
    cases = [c for c in _sparse_norm_cases(np.random.default_rng(67)) if c[1:3] in picked]
    assert len(cases) == 3
    monkeypatch.setattr(lanczos, "MAX_STEPS", 2)
    for nonzeros, shape, repeat, P in cases:
        want = spectral_norm(P)
        got = sparse_norm(*nonzeros, shape, repeat)
        assert abs(got - want) <= 1e-13 * want, (shape, repeat)
    assert krylov_runs == [None] * 3


def test_sparse_norm_special_values(krylov_runs):
    """All-zero values (negative zeros included) give 0.0, a NaN value NaN
    and an inf value inf, at every repeat, before any Lanczos run."""
    rows, cols = np.array([0, 3, 5]), np.array([1, 0, 4])
    for repeat in (0, 2):
        for vals, want in (([0.0, -0.0, complex(0.0, -0.0)], 0.0),
                           ([1.0, np.inf, 2j], np.inf),
                           ([1.0, np.inf, complex(0.0, np.nan)], np.nan)):
            got = sparse_norm(rows, cols, np.array(vals, dtype=complex), (6, 3), repeat)
            assert got == want or (np.isnan(want) and np.isnan(got)), (vals, repeat)
    assert krylov_runs == []


def test_spectral_norm_selection(monkeypatch):
    """The corpus reports and dense inputs never take the Krylov path."""
    def forbidden(*args):
        raise AssertionError("Krylov path taken")

    monkeypatch.setattr(lanczos, "top_singular_value", forbidden)
    report = VerificationReport({})
    full_suite(builtin_corpus()["mixed_n2_m2"], 6, report)
    assert report.passed
    rng = np.random.default_rng(37)
    _assert_matches_svd(rng.standard_normal((600, 600)))


def _svd_calls(source: str) -> list[int]:
    """Lines calling an SVD or a matrix norm of order +-2."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", ""))
        ords = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "ord"]
        if name in ("norm", "matrix_norm"):
            ords = [o.operand if isinstance(o, ast.UnaryOp) else o for o in ords]
            if any(isinstance(o, ast.Constant) and o.value == 2 for o in ords):
                lines.append(node.lineno)
        elif name in ("svd", "svdvals"):
            lines.append(node.lineno)
    return lines


def test_no_svd_in_library():
    """Every operator 2-norm in the package goes through fock.spectral_norm."""
    assert _svd_calls("np.linalg.norm(A - B, 2)\nla.svd(A)\nnorm(x, ord=-2)\n"
                      "np.linalg.norm(v, axis=0)\n") == [1, 2, 3]
    src = Path(__file__).resolve().parent.parent / "src" / "ncdomains"
    found = {path.name: _svd_calls(path.read_text()) for path in sorted(src.glob("*.py"))}
    assert not any(found.values()), found


def test_commutation_on_index_maps_matches_dense_products():
    for name, spec in builtin_corpus().items():
        table = weights_by_factorization(spec, 4)
        for N in range(5):
            W = dense_creation(table, N, left=True)
            L = dense_creation(table, N, left=False)
            interior = len(enumerate_words(spec.n, N - 2)) if N >= 2 else 0
            want = 0.0
            for Wi in W:
                for Lj in L:
                    cols = np.linalg.norm((Wi @ Lj - Lj @ Wi)[:, :interior], axis=0)
                    want = max(want, float(cols.max(initial=0.0)))
            got = verify_model_identities(spec, table, N).commutation_residual
            assert abs(got - want) <= 1e-15, (name, N, got, want)
            assert got <= 1e-15


GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden_corpus_n5.json"


def test_production_skips_dense_creation_path(monkeypatch, tmp_path):
    """The verification suites and the single-spec CLI commands read every
    model operator from the shift maps, never from creation_tuple, which is
    patched to raise wherever the package binds it.  The corpus run at
    depth 4 records the check list of the benchmark's golden file, read here
    and never written."""
    def dense(*args, **kwargs):
        raise AssertionError("creation_tuple called")

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "ncdomains"]:
        if hasattr(module, "creation_tuple"):
            monkeypatch.setattr(module, "creation_tuple", dense)
    report = VerificationReport({})
    for name, spec in builtin_corpus().items():
        full_suite(spec, 4, report, label=f".{name}")
    assert report.passed
    golden = json.loads(GOLDEN.read_text())["checks"]
    assert [[c.check_id, c.status, c.tolerance] for c in report.checks] == golden

    rng = np.random.default_rng(3)
    spec = builtin_corpus()["mixed_n2_m2"]
    X, Xg = tmp_path / "X.json", tmp_path / "Xg.json"
    dump_json(tuple_to_json(random_nilpotent_tuple(rng, spec, dim=2)), X)
    dump_json(tuple_to_json(random_gated_tuple(rng, spec, dim=2, target_radius=0.6)), Xg)
    for argv in (["model"], ["toeplitz"], ["berezin", "--tuple", str(X)],
                 ["cauchy", "--tuple", str(Xg)]):
        assert main([*argv, "--spec", "mixed_n2_m2", "--max-len", "4"]) == 0, argv
