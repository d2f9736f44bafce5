import numpy as np
import pytest

from dense_oracle import dense_berezin_transform, dense_creation, dense_word
from ncdomains.berezin import (DomainMembershipError, OperatorTuple,
                               berezin_kernel, berezin_transform, defect_sqrt,
                               domain_membership, hereditary_eval,
                               hereditary_model_operator,
                               intertwining_residual, mean_value_check)
from ncdomains.corpus import (builtin_corpus, random_hereditary, random_nilpotent_tuple,
                              random_symbol, scale_into_domain)
from ncdomains.fock import TruncatedOperator, cp_map_apply, truncated_model
from ncdomains.weights import hyperball_spec, weights_by_convolution
from ncdomains.words import enumerate_words


def zero_tuple(spec, k=2):
    return OperatorTuple(spec, [np.zeros((k, k)) for _ in range(spec.n)])


def test_zero_tuple_membership(ball2_table):
    spec = ball2_table.spec
    report = domain_membership(spec, zero_tuple(spec))
    assert report.in_domain
    assert report.pure
    assert report.min_eigenvalues == [1.0] * spec.m


def test_scalar_membership_boundary():
    spec = hyperball_spec(1, 1)
    inside = OperatorTuple(spec, [np.array([[0.9]])])
    outside = OperatorTuple(spec, [np.array([[1.1]])])
    assert domain_membership(spec, inside).in_domain
    assert not domain_membership(spec, outside).in_domain


def test_nilpotent_tuples_are_pure(ball2_table):
    rng = np.random.default_rng(11)
    spec = ball2_table.spec
    for _ in range(5):
        X = random_nilpotent_tuple(rng, spec, dim=3)
        report = domain_membership(spec, X)
        assert report.pure
        assert report.purity_decay[-1] == 0.0
        assert all(v > 0.0 for v in report.purity_decay[:-1])


def test_scale_into_domain_skips_purity_decay(monkeypatch):
    """Rescaling reads membership and the defect eigenvalues only; the purity
    decay is formed on first read of `purity_decay` or `pure`."""
    def decay(*args, **kwargs):
        raise AssertionError("purity decay formed")

    monkeypatch.setattr("ncdomains.berezin.cp_orbit_norms", decay)
    rng = np.random.default_rng(2)
    for spec in builtin_corpus().values():
        X = OperatorTuple(spec, [rng.standard_normal((3, 3)) for _ in range(spec.n)])
        scale_into_domain(X)
        random_nilpotent_tuple(rng, spec, dim=3)
    with pytest.raises(AssertionError, match="purity decay formed"):
        domain_membership(spec, X).pure


def test_defect_sqrt_squares_back(ball2_table):
    rng = np.random.default_rng(5)
    spec = ball2_table.spec
    X = random_nilpotent_tuple(rng, spec, dim=3)
    delta = defect_sqrt(spec, X)
    Y = np.eye(X.dim, dtype=complex)
    from ncdomains.fock import cp_map_apply
    for _ in range(spec.m):
        Y = Y - cp_map_apply(spec, X.matrices, Y)
    assert np.linalg.norm(delta @ delta - Y, 2) < 1e-12


def test_kernel_isometry_and_intertwining(ball2_table):
    rng = np.random.default_rng(2)
    spec = ball2_table.spec
    for _ in range(5):
        X = random_nilpotent_tuple(rng, spec, dim=3)
        K = berezin_kernel(spec, X, ball2_table, 5)
        assert np.linalg.norm(K.conj().T @ K - np.eye(X.dim), 2) < 1e-10
        assert intertwining_residual(K, X, ball2_table, 5) < 1e-10
    with pytest.raises(ValueError):  # K is the depth-5 kernel
        intertwining_residual(K, X, ball2_table, 4)
    K[0, 0] = np.nan
    assert np.isnan(intertwining_residual(K, X, ball2_table, 5))


def test_reproducing_property(ball2_table, mixed_table):
    rng = np.random.default_rng(4)
    for table in (ball2_table, mixed_table):
        spec = table.spec
        model = truncated_model(table, 5)
        W = dense_creation(table, 5, left=True)
        X = random_nilpotent_tuple(rng, spec, dim=3)
        for alpha in enumerate_words(2, 2):
            for beta in enumerate_words(2, 2):
                g = TruncatedOperator(model, dense_word(W, alpha) @ dense_word(W, beta).conj().T)
                got = berezin_transform(spec, X, g, table)
                want = X.word(alpha) @ X.word(beta).conj().T
                assert np.linalg.norm(got - want, 2) < 1e-10


def test_von_neumann_inequality(ball2_table):
    rng = np.random.default_rng(9)
    spec = ball2_table.spec
    for _ in range(20):
        X = random_nilpotent_tuple(rng, spec, dim=3)
        poly = random_hereditary(rng, 2, max_deg=2)
        lhs = np.linalg.norm(hereditary_eval(X, poly), 2)
        rhs = hereditary_model_operator(poly, ball2_table, 5).norm()
        assert lhs <= rhs + 1e-8


def test_hereditary_model_operator_matches_dense_products():
    """W_alpha W_beta^* scattered from two shift maps against the product of
    dense word operators, including words longer than N."""
    for name, spec in builtin_corpus().items():
        table = weights_by_convolution(spec, 5)
        for N in range(6):
            W = dense_creation(table, N, left=True)
            words = enumerate_words(spec.n, min(N + 1, 3))
            for alpha in words:
                for beta in words:
                    want = dense_word(W, alpha) @ dense_word(W, beta).conj().T
                    got = hereditary_model_operator({(alpha, beta): 1}, table, N).matrix
                    assert np.max(np.abs(got - want)) <= 1e-15, (name, N, alpha, beta)


def test_mean_value_property(ball2_table):
    rng = np.random.default_rng(14)
    spec = ball2_table.spec
    for _ in range(5):
        X = random_nilpotent_tuple(rng, spec, dim=3)
        sym = random_symbol(rng, 2, max_len=2)
        for r in (0.5, 0.9):
            res = mean_value_check(sym, spec, X.scaled(r), r, ball2_table, 5)
            assert res < 1e-8


def test_mean_value_rejects_outside():
    spec = hyperball_spec(1, 1)
    X = OperatorTuple(spec, [np.array([[0.9]])])  # (1/0.5)X leaves the domain
    sym = random_symbol(np.random.default_rng(0), 1, max_len=1)
    with pytest.raises(DomainMembershipError):
        mean_value_check(sym, spec, X, 0.5, None, 3)


def test_tuple_shape_validation(ball2_table):
    spec = ball2_table.spec
    with pytest.raises(ValueError):
        OperatorTuple(spec, [np.zeros((2, 2))])
    with pytest.raises(ValueError):
        OperatorTuple(spec, [np.zeros((2, 2)), np.zeros((3, 3))])
    with pytest.raises(ValueError, match="at least 1 x 1"):
        OperatorTuple(spec, [np.zeros((0, 0))] * spec.n)


def test_kernel_prefix_products_match_word_operator():
    """One product per word and the defect root from fock.defects give the
    kernel that X.word(alpha) and an inline defect loop build, bit for bit,
    at nilpotent and at dense domain tuples."""
    rng = np.random.default_rng(29)
    for name, spec in builtin_corpus().items():
        table = weights_by_convolution(spec, 4)
        for k in (1, 2, 3):
            dense = OperatorTuple(spec, [rng.standard_normal((k, k))
                                         + 1j * rng.standard_normal((k, k))
                                         for _ in range(spec.n)])
            for X in (random_nilpotent_tuple(rng, spec, dim=k), scale_into_domain(dense)):
                # (id - Phi)^m (I), hermitized at each step, and its square
                # root, written out
                Y = np.eye(k, dtype=complex)
                for _ in range(spec.m):
                    Y = Y - cp_map_apply(spec, X.matrices, Y)
                    Y = (Y + Y.conj().T) / 2
                vals, vecs = np.linalg.eigh(Y)
                delta = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
                for N in range(5):
                    model = truncated_model(table, N)
                    want = np.concatenate([w * (delta @ X.word(alpha).conj().T)
                                           for alpha, w in zip(model.words,
                                                               model.sqrt_b)])
                    assert np.array_equal(berezin_kernel(spec, X, table, N), want), (name, k, N)


def test_transform_matches_kron_oracle():
    """The transform equals K^*(g (x) I_k)K formed by np.kron in the
    oracle, within 1e-13 of its largest entry, on random dense g of aux
    dim 1 and 2, at every corpus spec, depths 0, 2 and 4, tuple dims 1
    and 3."""
    rng = np.random.default_rng(37)
    for name, spec in builtin_corpus().items():
        table = weights_by_convolution(spec, 4)
        for N in (0, 2, 4):
            for k in (1, 3):
                X = random_nilpotent_tuple(rng, spec, dim=k)
                K = berezin_kernel(spec, X, table, N)
                model = truncated_model(table, N)
                D = model.dimension
                for aux in (1, 2):
                    g = TruncatedOperator(model, rng.standard_normal((D * aux, D * aux))
                                          + 1j * rng.standard_normal((D * aux, D * aux)), aux)
                    want = dense_berezin_transform(K, g.matrix, aux)
                    got = berezin_transform(spec, X, g, table, K)
                    assert got.shape == want.shape
                    tol = 1e-13 * np.abs(want).max()
                    assert np.abs(got - want).max() <= tol, (name, N, k, aux)
