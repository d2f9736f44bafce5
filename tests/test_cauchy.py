from fractions import Fraction
from math import sqrt

import numpy as np
import pytest

from dense_oracle import dense_creation, dense_word
from ncdomains import berezin, cauchy, corpus, fock, lanczos
from ncdomains.berezin import OperatorTuple
from ncdomains.cauchy import (SpectralGateError,
                              analytic_functional_calculus, cauchy_kernel,
                              cauchy_kernel_fourier_residual, cauchy_transform,
                              joint_spectral_radius, linearized_radius,
                              multiply_symbols, radius_inequality_check,
                              reconstruction_operator, spectral_gate)
from ncdomains.corpus import builtin_corpus, random_gated_tuple, random_nilpotent_tuple
from ncdomains.fock import TruncatedOperator, cp_map_apply, cp_orbit_norms, truncated_model
from ncdomains.weights import (DomainSpec, hyperball_spec, weights_by_convolution,
                               weights_by_factorization)
from ncdomains.words import EMPTY, enumerate_words


def test_scalar_spectral_radius():
    spec = hyperball_spec(1, 1)
    X = OperatorTuple(spec, [np.array([[0.4 + 0.3j]])])
    report = joint_spectral_radius(spec, X)
    assert abs(report.r_exact - 0.5) < 1e-14
    assert report.gate


def test_nilpotent_radius_zero(ball2_table):
    rng = np.random.default_rng(1)
    X = random_nilpotent_tuple(rng, ball2_table.spec, dim=3)
    report = joint_spectral_radius(ball2_table.spec, X)
    assert report.r_exact < 1e-12
    assert report.r_sequence[-1] == 0.0


def test_half_identity_pair_radius():
    spec = hyperball_spec(2, 1)
    X = OperatorTuple(spec, [0.5 * np.eye(3), 0.5 * np.eye(3)])
    report = joint_spectral_radius(spec, X)
    assert abs(report.r_exact - sqrt(0.5)) < 1e-12


def test_gate_radius_is_the_reported_radius():
    rng = np.random.default_rng(59)
    for name, spec in builtin_corpus().items():
        for X in (random_gated_tuple(rng, spec, dim=3, target_radius=0.6),
                  random_nilpotent_tuple(rng, spec, dim=3)):
            assert spectral_gate(spec, X) == joint_spectral_radius(spec, X).r_exact, name
        X = OperatorTuple(spec, [np.eye(2)] * spec.n)
        assert linearized_radius(spec, X) == joint_spectral_radius(spec, X).r_exact
        with pytest.raises(SpectralGateError):
            spectral_gate(spec, X)


def test_gated_tuple_reaches_target_radius():
    """On q = Z/3 + 2Z^3 the rescale oscillates (r_q 14.0 -> 0.053 -> 1.70 ...);
    the bisection on t still lands r_q within GATE_RADIUS_SLACK of the target."""
    spec = DomainSpec(1, 2, {(1,): Fraction(1, 3), (1, 1, 1): Fraction(2)})
    rng = np.random.default_rng(67)
    for _ in range(20):
        for target in (0.3, 0.6, 0.9):
            X = random_gated_tuple(rng, spec, dim=3, target_radius=target)
            assert abs(linearized_radius(spec, X) - target) < corpus.GATE_RADIUS_SLACK


def test_gate_computes_no_cp_map_power(monkeypatch):
    """The gate reads the linearization alone: with every route to Phi^k(I)
    raising, the kernel, the calculus and the gated generator still run."""
    def forbidden(*args, **kwargs):
        raise AssertionError("Phi^k(I) computed")

    for module in (fock, berezin, cauchy, corpus):
        for name in ("cp_map_orbit", "cp_map_apply", "cp_orbit_norms"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    rng = np.random.default_rng(61)
    for name, spec in builtin_corpus().items():
        table = weights_by_convolution(spec, 3)
        X = random_gated_tuple(rng, spec, dim=3, target_radius=0.6)
        cauchy_kernel(spec, X, 3, table)
        res = analytic_functional_calculus(spec, X, {EMPTY: 0.5, (1,): 1.0}, 3, table)
        assert res.cross_residual < 1e-8, name


def test_joint_spectral_radius_rejects_empty_sequence(ball2_table):
    X = OperatorTuple(ball2_table.spec, [np.eye(2), np.eye(2)])
    for k_max in (0, -1):
        with pytest.raises(ValueError, match="k_max"):
            joint_spectral_radius(ball2_table.spec, X, k_max=k_max)


def test_gelfand_sequence_approaches_exact(ball2_table):
    rng = np.random.default_rng(17)
    for _ in range(5):
        X = random_gated_tuple(rng, ball2_table.spec, dim=3, target_radius=0.6)
        report = joint_spectral_radius(ball2_table.spec, X, k_max=40)
        assert abs(report.r_exact - report.last_sequence_value) < 5e-2


def test_reconstruction_nilpotent(ball2_table):
    rng = np.random.default_rng(19)
    X = random_gated_tuple(rng, ball2_table.spec, dim=2)
    R = reconstruction_operator(ball2_table.spec, X, 3, ball2_table)
    P = np.linalg.matrix_power(R.matrix, 4)
    assert np.max(np.abs(P)) == 0.0


def test_reconstruction_zero_tuple(ball2_table):
    spec = ball2_table.spec
    X = OperatorTuple(spec, [np.zeros((2, 2)), np.zeros((2, 2))])
    R = reconstruction_operator(spec, X, 3, ball2_table)
    assert np.max(np.abs(R.matrix)) == 0.0
    C = cauchy_kernel(spec, X, 3, ball2_table)
    E = np.zeros_like(C)
    E[:2] = np.eye(2)  # vacuum injection: the empty word comes first
    assert np.max(np.abs(C - E)) < 1e-14


def test_cauchy_kernel_fourier_column(ball2_table, mixed_table):
    rng = np.random.default_rng(23)
    for table in (ball2_table, mixed_table):
        X = random_gated_tuple(rng, table.spec, dim=3, target_radius=0.6)
        C = cauchy_kernel(table.spec, X, 4, table)
        assert cauchy_kernel_fourier_residual(C, X, table) < 1e-10
        C[0, 0] = np.nan  # the vacuum block, compared first
        assert np.isnan(cauchy_kernel_fourier_residual(C, X, table))


def test_cauchy_kernel_memory_scales_with_nonzeros(traced_peak):
    """At depth 9 (D = 1023) with k = 3 the dense reconstruction operator
    alone is 151 MB; the kernel, model build included, stays under 5 MB."""
    spec = builtin_corpus()["mixed_n2_m2"]
    table = weights_by_factorization(spec, 9)
    X = random_gated_tuple(np.random.default_rng(47), spec, dim=3, target_radius=0.6)
    peak, C = traced_peak(cauchy_kernel, spec, X, 9, table)
    assert peak < 5e6, peak
    assert cauchy_kernel_fourier_residual(C, X, table) < 1e-10


def test_cauchy_kernel_gate(ball2_table):
    spec = ball2_table.spec
    X = OperatorTuple(spec, [np.eye(2), np.eye(2)])
    with pytest.raises(SpectralGateError):
        cauchy_kernel(spec, X, 3, ball2_table)


def test_transform_identity_and_words(ball2_table):
    spec = ball2_table.spec
    rng = np.random.default_rng(29)
    model = truncated_model(ball2_table, 4)
    W = dense_creation(ball2_table, 4, left=True)
    for _ in range(3):
        X = random_gated_tuple(rng, spec, dim=3, target_radius=0.5)
        C = cauchy_kernel(spec, X, 4, ball2_table)
        I = TruncatedOperator(model, np.eye(model.dimension, dtype=complex))
        got = cauchy_transform(spec, X, I, 4, ball2_table, C=C)
        assert np.linalg.norm(got - np.eye(3), 2) < 1e-10
        for alpha in enumerate_words(2, 3):
            got = cauchy_transform(spec, X, TruncatedOperator(model, dense_word(W, alpha)), 4,
                                   ball2_table, C=C)
            assert np.linalg.norm(got - X.word(alpha), 2) < 1e-10


def test_functional_calculus_routes_agree(ball2_table):
    spec = ball2_table.spec
    rng = np.random.default_rng(31)
    for _ in range(5):
        X = random_gated_tuple(rng, spec, dim=3, target_radius=0.6)
        coeffs = {w: complex(rng.standard_normal(), rng.standard_normal())
                  for w in enumerate_words(2, 3)}
        res = analytic_functional_calculus(spec, X, coeffs, 4, ball2_table)
        assert res.cross_residual < 1e-8
        assert res.t > 1.0


def test_functional_calculus_multiplicative(ball2_table):
    spec = ball2_table.spec
    rng = np.random.default_rng(37)
    X = random_gated_tuple(rng, spec, dim=3, target_radius=0.5)
    c1 = {EMPTY: 1.0, (1,): 2.0, (2, 1): -1j}
    c2 = {(2,): 0.5, (1, 2): 1.0}
    prod = multiply_symbols(c1, c2)
    v1 = analytic_functional_calculus(spec, X, c1, 5, ball2_table).value
    v2 = analytic_functional_calculus(spec, X, c2, 5, ball2_table).value
    vp = analytic_functional_calculus(spec, X, prod, 5, ball2_table).value
    assert np.linalg.norm(v1 @ v2 - vp, 2) < 1e-8


def test_multiply_symbols_concatenates():
    out = multiply_symbols({(1,): 2.0}, {(2,): 3.0, EMPTY: 1.0})
    assert out == {(1, 2): 6.0, (1,): 2.0}


def test_calculus_gate_failure(ball2_table):
    spec = ball2_table.spec
    X = OperatorTuple(spec, [np.eye(2), np.eye(2)])
    with pytest.raises(SpectralGateError):
        analytic_functional_calculus(spec, X, {(1,): 1.0}, 3, ball2_table)


def test_radius_inequality(ball2_table):
    rng = np.random.default_rng(43)
    spec = ball2_table.spec
    for _ in range(5):
        X = random_gated_tuple(rng, spec, dim=3, target_radius=0.6)
        report = radius_inequality_check(spec, X, 4, ball2_table)
        assert report.passed
        assert all(m >= -1e-10 for m in report.margins)
    # NaN sides are a violation, not a pass
    X.matrices[0][0, 0] = np.nan
    report = radius_inequality_check(spec, X, 4, ball2_table)
    assert np.isnan(report.margins).all()
    assert report.violations == 4 and not report.passed


def test_radius_inequality_matches_dense_powers():
    """Margins from the live columns of R^k against full dense powers and
    their SVD norms; the nilpotent tuples reach Phi^k(I) = 0 before k = N,
    so their margins come from the zero-padded norms."""
    rng = np.random.default_rng(47)
    padded = 0
    for name, spec in builtin_corpus().items():
        table = weights_by_convolution(spec, 4)
        tuples = [f(rng, spec, dim=k) for k in (1, 2, 3)
                  for f in (random_gated_tuple, random_nilpotent_tuple)]
        for X in tuples:
            k = X.dim
            padded += len(cp_orbit_norms(spec, X.matrices, 4)) < 4
            for N in range(5):
                R = reconstruction_operator(spec, X, N, table).matrix
                P = np.eye(R.shape[0], dtype=complex)
                Y = np.eye(k, dtype=complex)
                want = []
                for _ in range(N):
                    P = P @ R
                    Y = cp_map_apply(spec, X.matrices, Y)
                    want.append(sqrt(np.linalg.norm(Y, 2)) - np.linalg.norm(P, 2))
                got = radius_inequality_check(spec, X, N, table).margins
                assert len(got) == N
                assert np.max(np.abs(np.subtract(got, want)), initial=0.0) <= 1e-12, (name, k, N)
    assert padded  # the nilpotent tuples end their orbit early


def test_radius_inequality_zero_tuple(ball2_table):
    spec = ball2_table.spec
    X = OperatorTuple(spec, [np.zeros((2, 2)), np.zeros((2, 2))])
    report = radius_inequality_check(spec, X, 3, ball2_table)
    assert report.passed
    assert all(m == 0.0 for m in report.margins)


# At depth 7 with tuple dim 3 R has side 765 and is about 1% nonzero, so
# radius_inequality_check takes the Krylov path; q = Z_1 + Z_2 with m = 1
# holds the inequality with equality, and mixed_n2_m2 is the benchmark's spec.
DEPTH7_SPECS = ("hyperball_n2_m1", "mixed_n2_m2")


def _dense_products_check(case):
    """radius_inequality_check on the dense products path, forced by a
    Krylov cut-over that no matrix reaches."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fock, "KRYLOV_MIN_SIDE", 10 ** 9)
        return radius_inequality_check(*case)


@pytest.fixture(scope="module")
def depth7_cases():
    """(spec, X, N, table) at N = 7, a gated and a nilpotent tuple of dim 3
    per spec of DEPTH7_SPECS, each with its dense products report."""
    rng = np.random.default_rng(71)
    cases = []
    for name in DEPTH7_SPECS:
        spec = builtin_corpus()[name]
        table = weights_by_factorization(spec, 7)
        cases += [(spec, random_gated_tuple(rng, spec, dim=3, target_radius=0.6), 7, table),
                  (spec, random_nilpotent_tuple(rng, spec, dim=3), 7, table)]
    return [(case, _dense_products_check(case)) for case in cases]


def _assert_margins_match(got, want):
    assert len(got) == len(want)
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-12, (got, want)


def test_radius_inequality_krylov_matches_dense_products(depth7_cases, krylov_runs):
    """At N = 7 every power takes Lanczos over R's nonzeros, and the margins
    match the dense products'; the zero powers of a nilpotent tuple
    (X_alpha = 0 for |alpha| >= 3) give 0.0."""
    for i, (case, dense) in enumerate(depth7_cases):
        krylov = radius_inequality_check(*case)
        assert len(krylov_runs) == 7 * (i + 1) and None not in krylov_runs
        _assert_margins_match(krylov.margins, dense.margins)
        assert krylov.passed and dense.passed
        if i % 2:
            assert krylov.margins[2:] == [0.0] * 5


def test_radius_inequality_krylov_fallback(monkeypatch, depth7_cases, krylov_runs):
    """Lanczos cut at two steps: the powers it leaves unconverged take the
    dense answer, formed from the products over R's nonzeros."""
    case, dense = depth7_cases[2]
    monkeypatch.setattr(lanczos, "MAX_STEPS", 2)
    _assert_margins_match(radius_inequality_check(*case).margins, dense.margins)
    assert len(krylov_runs) == 7 and None in krylov_runs


def test_radius_inequality_krylov_nan_entry(depth7_cases, krylov_runs):
    """A NaN tuple entry makes every power a violation, on the Krylov path
    too, and Lanczos never runs."""
    spec, X, N, table = depth7_cases[2][0]
    X = OperatorTuple(spec, [M.copy() for M in X.matrices])
    X.matrices[0][0, 0] = np.nan
    report = radius_inequality_check(spec, X, N, table)
    assert np.isnan(report.margins).all()
    assert report.violations == N and not report.passed
    assert krylov_runs == []


def test_radius_inequality_designed_failure(monkeypatch, depth7_cases, krylov_runs):
    """With ||Phi^k(I)|| halved both paths report the same violations."""
    orbit_norms = cauchy.cp_orbit_norms
    monkeypatch.setattr(cauchy, "cp_orbit_norms",
                        lambda *args: [v / 2 for v in orbit_norms(*args)])
    for case, _ in depth7_cases[::2]:
        krylov = radius_inequality_check(*case)
        assert krylov.violations == _dense_products_check(case).violations > 0
    assert len(krylov_runs) == 14


def test_radius_inequality_memory(depth7_cases, traced_peak):
    """At N = 7, k = 3 (side 765) R's nonzeros come from its terms: neither
    the dense R (9.4 MB) nor a power of R or an R @ Q (21.0 MB with the
    dense products) is formed, and the peak is the Lanczos basis beside the
    nonzeros (1.0 MB).  At N = 5 (side 189) the dense products are all
    formed before R is released, so the largest norm is taken without R
    beside it (1.27 MB when R was kept)."""
    case, dense = depth7_cases[2]
    peak, got = traced_peak(radius_inequality_check, *case)
    assert peak < 3e6, peak
    _assert_margins_match(got.margins, dense.margins)
    spec, X = case[:2]
    small = weights_by_factorization(spec, 5)
    radius_inequality_check(spec, X, 5, small)  # the model's shift maps are built
    peak, got = traced_peak(radius_inequality_check, spec, X, 5, small)
    assert peak < 1.15e6, peak
    assert got.passed
