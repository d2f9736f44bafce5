import numpy as np
import pytest

from ncdomains.berezin import OperatorTuple
from ncdomains.corpus import (builtin_corpus, random_gated_tuple, random_nilpotent_tuple,
                              random_symbol)
from ncdomains.fock import spectral_norm, truncated_model
from ncdomains.pluriharmonic import (PluriharmonicFunction, bounded_roundtrip,
                                     conjugate, distance, gamma_kernel,
                                     evaluate_symbol, holomorphic_completion,
                                     rho_radii,
                                     scalar_holomorphic, schur_positivity_test,
                                     weierstrass_limit)
from ncdomains.toeplitz import MultiToeplitzSymbol, symbol_to_operator
from ncdomains.weights import weights_by_factorization
from ncdomains.words import EMPTY


def test_rho_radii_ladder():
    rs = rho_radii()
    assert rs[0] == 0.5
    assert rs[-1] == 1 - 2 ** -8
    assert rs == sorted(rs)


def test_self_adjointness():
    F = PluriharmonicFunction(MultiToeplitzSymbol.scalar(
        A={EMPTY: 1.0, (1,): 2.0}, B={(1,): 2.0}))
    assert F.is_self_adjoint()
    G = PluriharmonicFunction(MultiToeplitzSymbol.scalar(A={(1,): 2.0}))
    assert not G.is_self_adjoint()
    assert G.real_part().is_self_adjoint()


def test_evaluate_matches_direct_sum(ball2_table):
    rng = np.random.default_rng(6)
    X = random_nilpotent_tuple(rng, ball2_table.spec, dim=3)
    F = scalar_holomorphic({EMPTY: 2.0, (1,): 1.0, (1, 2): -1j})
    val = evaluate_symbol(F.symbol, X.matrices)
    want = 2.0 * np.eye(3) + X.matrices[0] + (-1j) * X.word((1, 2))
    assert np.linalg.norm(val - want, 2) < 1e-14


def test_gamma_kernel_identity(ball2_table):
    rng = np.random.default_rng(8)
    sym = random_symbol(rng, 2, max_len=2, antianalytic=False)
    F = PluriharmonicFunction(sym)
    report = schur_positivity_test(F, ball2_table, [0.3, 0.7, 0.95], 2, 5)
    assert max(report.equality_residuals) < 1e-12


def test_gamma_psd_examples(ball2_table):
    pos = scalar_holomorphic({EMPTY: 1.0, (1,): 1.0})
    rep = schur_positivity_test(pos, ball2_table, [0.5, 0.9], 2, 5)
    assert rep.positive
    neg = scalar_holomorphic({(1,): 1.0})
    rep = schur_positivity_test(neg, ball2_table, [0.5, 0.9], 2, 5)
    assert not rep.positive


def test_gamma_kernel_constant_diagonal(ball2_table):
    F = scalar_holomorphic({EMPTY: 1.5})
    G = gamma_kernel(F, ball2_table, 0.7, 2)
    for w in G.model.words:
        assert abs(G.block(w, w)[0, 0] - 3.0) < 1e-15
    # off-diagonal comparable blocks vanish for a constant symbol
    assert abs(G.block((1,), EMPTY)[0, 0]) == 0.0


def _gamma_kernel_by_pairs(F, table, r, order):
    """Reference: gamma_kernel as one loop over the comparable pairs."""
    d = F.aux_dim
    model = truncated_model(table, order)
    D, sqrt_b = model.dimension, model.sqrt_b
    zero = np.zeros((d, d), dtype=complex)
    M = np.zeros((D, d, D, d), dtype=complex)
    for i, j, alpha in zip(*model.comparable_pairs()):
        blk = sqrt_b[j] / sqrt_b[i] * (r ** len(alpha)) * F.symbol.A.get(alpha, zero)
        M[i, :, j, :] += blk
        M[j, :, i, :] += blk.conj().T
    return M.reshape(D * d, D * d)


@pytest.mark.parametrize("name", sorted(builtin_corpus()))
def test_gamma_kernel_scatter_matches_pair_loop(name):
    spec = builtin_corpus()[name]
    table = weights_by_factorization(spec, 5)
    rng = np.random.default_rng(sorted(builtin_corpus()).index(name))
    for order in range(6):
        for d in (1, 2):
            F = PluriharmonicFunction(random_symbol(rng, spec.n, max_len=min(order + 1, 3),
                                                    aux_dim=d, antianalytic=False))
            for r in (1.0, 0.7):
                got = gamma_kernel(F, table, r, order).matrix
                assert got.tobytes() == _gamma_kernel_by_pairs(F, table, r, order).tobytes()


def test_schur_test_memory(deep_table, traced_peak):
    """At N = 8, aux dim 2, order 6 the compared blocks are 254 x 254 (1 MB
    each); F(rW_8), 1022 x 1022 (16.7 MB), is never assembled."""
    rng = np.random.default_rng(53)
    F = PluriharmonicFunction(random_symbol(rng, 2, 2, aux_dim=2, antianalytic=False))
    peak, report = traced_peak(schur_positivity_test, F, deep_table, [0.5, 0.9], 6, 8)
    assert peak < 4e6, peak
    assert max(report.equality_residuals) < 1e-12


def test_schur_requires_holomorphic(ball2_table):
    F = PluriharmonicFunction(MultiToeplitzSymbol.scalar(B={(1,): 1.0}))
    with pytest.raises(ValueError):
        schur_positivity_test(F, ball2_table, [0.5], 2, 5)


def test_schur_checks_depths(ball2_table):
    """The support must fit in N - order, and N in the table."""
    F = scalar_holomorphic({(1, 2): 1.0})
    with pytest.raises(ValueError, match="support"):
        schur_positivity_test(F, ball2_table, [0.5], 4, 5)
    with pytest.raises(ValueError, match="exceeds table depth"):
        schur_positivity_test(F, ball2_table, [0.5], 2, 6)


def test_metric_axioms(ball2_table):
    rng = np.random.default_rng(12)
    for _ in range(20):
        F, G, H = (PluriharmonicFunction(random_symbol(rng, 2, 2))
                   for _ in range(3))
        fg = distance(F, G, ball2_table, 4)
        gf = distance(G, F, ball2_table, 4)
        fh = distance(F, H, ball2_table, 4)
        hg = distance(H, G, ball2_table, 4)
        ff = distance(F, F, ball2_table, 4)
        assert fg >= 0 and ff == 0.0
        assert fg == gf
        assert fg <= fh + hg + 1e-12


def test_metric_separates(ball2_table):
    F = scalar_holomorphic({(1,): 1.0})
    G = scalar_holomorphic({(1,): 1.0 + 1e-6})
    rho = distance(F, G, ball2_table, 4)
    assert rho > 0


def test_weierstrass_limit(ball2_table):
    family = [PluriharmonicFunction(MultiToeplitzSymbol.scalar(
        A={(1,): 1.0 - 1.0 / j})) for j in range(1, 9)]
    report = weierstrass_limit(family, ball2_table, [0.5, 0.9], 4)
    assert report.converged
    rhos = [distance(Fj, family[-1], ball2_table, 4) for Fj in family]
    assert rhos[-1] == 0.0
    assert rhos == sorted(rhos, reverse=True)


def test_conjugate_properties(ball2_table):
    rng = np.random.default_rng(13)
    sym = random_symbol(rng, 2, max_len=2, antianalytic=False)
    G = PluriharmonicFunction(sym).real_part()
    H = conjugate(G)
    assert H.is_self_adjoint()
    # H(0) = 0: no constant block
    assert np.max(np.abs(H.symbol.constant)) < 1e-14
    # G + iH is holomorphic: antianalytic parts cancel
    combo = G.symbol + 1j * H.symbol
    for w, blk in combo.B.items():
        assert np.max(np.abs(blk)) < 1e-12, w


def test_conjugate_requires_self_adjoint():
    F = scalar_holomorphic({(1,): 1.0})
    with pytest.raises(ValueError):
        conjugate(F)


def test_holomorphic_completion_real_part():
    G = scalar_holomorphic({EMPTY: 1.0, (1,): 0.5}).real_part()
    F = holomorphic_completion(G)
    assert not F.symbol.B
    again = F.real_part()
    from ncdomains.toeplitz import max_block_difference
    assert max_block_difference(again.symbol, G.symbol) < 1e-14


def test_evaluate_symbol_self_adjoint_is_hermitian(ball2_table):
    rng = np.random.default_rng(41)
    X = random_gated_tuple(rng, ball2_table.spec, dim=3, target_radius=0.5)
    G = PluriharmonicFunction(MultiToeplitzSymbol.scalar(
        A={EMPTY: 1.0, (1,): 1.0 - 2j}, B={(1,): 1.0 + 2j}))
    assert G.is_self_adjoint()
    val = evaluate_symbol(G.symbol, X.matrices)
    assert np.linalg.norm(val - val.conj().T, 2) < 1e-12


def test_evaluate_symbol_b_part_takes_adjoints():
    E12 = np.zeros((2, 2)); E12[0, 1] = 0.3
    sym = MultiToeplitzSymbol.scalar(A={(1,): 1.0}, B={(1,): 1.0})
    val = evaluate_symbol(sym, [E12, np.zeros((2, 2))])
    assert np.linalg.norm(val - (E12 + E12.T), 2) < 1e-14


def test_bounded_roundtrip(ball2_table):
    rng = np.random.default_rng(21)
    X = random_nilpotent_tuple(rng, ball2_table.spec, dim=3)
    F = PluriharmonicFunction(random_symbol(rng, 2, 2))
    report = bounded_roundtrip(F, ball2_table, 5, [0.5, 0.9, 0.99], X)
    assert report.passed
    assert report.radial_gap == sorted(report.radial_gap, reverse=True)


@pytest.mark.parametrize("N, d", [(4, 1), (5, 2), (8, 2)])
def test_bounded_roundtrip_gaps_are_operator_differences(deep_table, krylov_runs, N, d):
    """Each gap is bitwise the norm of F(rW_N) - psi_N formed from the two
    assembled operators.  At N = 8, aux 2 (side 1022) every gap is taken on
    the Krylov path, where neither operator is formed."""
    rng = np.random.default_rng(N + d)
    X = random_nilpotent_tuple(rng, deep_table.spec, dim=2)
    F = PluriharmonicFunction(random_symbol(rng, 2, max_len=2, aux_dim=d))
    radii = [0.5, 0.9, 0.99]
    gaps = bounded_roundtrip(F, deep_table, N, radii, X).radial_gap
    assert len(krylov_runs) == (len(radii) if N == 8 else 0)
    psi = symbol_to_operator(F.symbol, deep_table, 1.0, N).matrix
    assert gaps == [spectral_norm(symbol_to_operator(F.symbol, deep_table, r, N).matrix - psi)
                    for r in radii]


def test_bounded_roundtrip_constant(ball2_table):
    X = OperatorTuple(ball2_table.spec, [np.zeros((2, 2)), np.zeros((2, 2))])
    F = scalar_holomorphic({EMPTY: 3.0})
    report = bounded_roundtrip(F, ball2_table, 4, [0.5, 0.9], X)
    assert report.transform_residual < 1e-12
    assert all(g == 0 for g in report.radial_gap)
