import numpy as np
import pytest

from dense_oracle import dense_creation
from ncdomains.corpus import builtin_corpus, random_symbol
from ncdomains.pluriharmonic import PluriharmonicFunction, gamma_kernel
from ncdomains.toeplitz import (MultiToeplitzSymbol, ToeplitzReport,
                                fourier_coefficients, is_multi_toeplitz,
                                max_block_difference, norm_profile,
                                symbol_to_operator)
from ncdomains.fock import TruncatedOperator, truncated_model
from ncdomains.weights import hyperball_spec, weights_by_convolution, weights_by_factorization
from ncdomains.words import EMPTY, GEQ, compare_right


def test_identity_is_toeplitz(ball2_table):
    model = truncated_model(ball2_table, 3)
    I = TruncatedOperator(model, np.eye(model.dimension, dtype=complex))
    report = is_multi_toeplitz(I, ball2_table)
    assert report.is_toeplitz
    sym = fourier_coefficients(I, ball2_table, 3)
    assert set(sym.A) == {EMPTY}
    assert not sym.B
    assert np.allclose(sym.A[EMPTY], 1.0)


def test_creation_operator_is_toeplitz(ball2_table):
    W1 = TruncatedOperator(truncated_model(ball2_table, 4),
                           dense_creation(ball2_table, 4, left=True)[0])
    report = is_multi_toeplitz(W1, ball2_table)
    assert report.is_toeplitz, (report.worst_structure_residual,
                                report.worst_incomparable_entry)


def test_roundtrip_scalar(ball2_table):
    sym = MultiToeplitzSymbol.scalar(A={EMPTY: 0.5, (1,): 1.0, (1, 2): -2.0},
                                     B={(2,): 3.0j})
    op = symbol_to_operator(sym, ball2_table, 1.0, 4)
    rec = fourier_coefficients(op, ball2_table, 4)
    assert max_block_difference(sym, rec) < 1e-12
    assert is_multi_toeplitz(op, ball2_table, tol=1e-12).is_toeplitz


def test_roundtrip_matrix_blocks(ball2_table, mixed_table):
    rng = np.random.default_rng(7)
    for table in (ball2_table, mixed_table):
        sym = random_symbol(rng, 2, max_len=2, aux_dim=2)
        op = symbol_to_operator(sym, table, 1.0, 4)
        rec = fourier_coefficients(op, table, 4)
        assert max_block_difference(sym, rec) < 1e-10


def test_operator_of_another_alphabet_rejected(ball2_table):
    """Detection and the Fourier coefficients read the words and weights of
    the table they are given, so an operator on three letters is rejected
    with a two-letter table, not read with the wrong words."""
    table3 = weights_by_factorization(hyperball_spec(3, 1), 3)
    T = symbol_to_operator(MultiToeplitzSymbol.scalar(A={(3,): 1.0}), table3, 1.0, 3)
    with pytest.raises(ValueError, match="operator has n = 3 letters, the spec has 2"):
        is_multi_toeplitz(T, ball2_table)
    with pytest.raises(ValueError, match="operator has n = 3 letters, the spec has 2"):
        fourier_coefficients(T, ball2_table, 1)


def test_perturbation_detected(ball2_table):
    sym = MultiToeplitzSymbol.scalar(A={(1,): 1.0})
    op = symbol_to_operator(sym, ball2_table, 1.0, 3)
    i = op.model.index[(1,)]
    j = op.model.index[(2,)]
    op.matrix[i, j] += 0.1
    report = is_multi_toeplitz(op, ball2_table, tol=1e-10)
    assert not report.is_toeplitz
    assert report.worst_incomparable_entry >= 0.05
    assert report.incomparable_witness == ((1,), (2,))


def test_structure_perturbation_detected(ball2_table):
    # bump a comparable entry instead: the extension relation must flag it
    sym = MultiToeplitzSymbol.scalar(A={(1,): 1.0})
    op = symbol_to_operator(sym, ball2_table, 1.0, 3)
    i = op.model.index[(1, 2)]
    j = op.model.index[(2,)]
    op.matrix[i, j] += 0.1
    report = is_multi_toeplitz(op, ball2_table, tol=1e-10)
    assert not report.is_toeplitz
    assert report.worst_structure_residual >= 0.05


@pytest.mark.parametrize("name", sorted(builtin_corpus()))
@pytest.mark.parametrize("N", [2, 3])
def test_single_entry_bumps_accepted_only_as_coefficients(name, N):
    """The converse at truncation.  Bumping one entry of a symbol operator
    by 0.1 keeps it multi-Toeplitz exactly at the 2 n^N entries (empty, alpha)
    and (alpha, empty) with |alpha| = N: there the bump is a new coefficient
    B_(alpha) or A_(alpha), which no interior relation reaches.  Every
    accepted operator is the operator of its Fourier coefficients."""
    spec = builtin_corpus()[name]
    table = weights_by_factorization(spec, N)
    T = symbol_to_operator(random_symbol(np.random.default_rng(N), spec.n, max_len=N),
                           table, 0.8, N)
    index = T.model.index
    edge = [index[alpha] for alpha in T.model.words if len(alpha) == N]
    empty = index[EMPTY]
    accepted = set()
    for i, j in np.ndindex(T.matrix.shape):
        M = T.matrix.copy()
        M[i, j] += 0.1
        op = TruncatedOperator(T.model, M)
        if is_multi_toeplitz(op, table, 1e-10).is_toeplitz:
            accepted.add((i, j))
            back = symbol_to_operator(fourier_coefficients(op, table, N), table, 1.0, N)
            assert np.max(np.abs(back.matrix - M)) <= 1e-12
    assert accepted == {(empty, a) for a in edge} | {(a, empty) for a in edge}
    assert len(accepted) == 2 * spec.n ** N


@pytest.mark.parametrize("aux_dim, A", [(0, {(): np.zeros((0, 0))}), (-1, {})])
def test_symbol_aux_dim_at_least_one(aux_dim, A):
    with pytest.raises(ValueError, match="aux_dim must be >= 1"):
        MultiToeplitzSymbol(aux_dim, A)


def test_adjoint_swaps_parts():
    sym = MultiToeplitzSymbol.scalar(A={EMPTY: 1j, (1,): 2.0}, B={(2,): 3.0})
    adj = sym.adjoint()
    assert adj.constant[0, 0] == -1j
    assert adj.A[(2,)][0, 0] == 3.0
    assert adj.B[(1,)][0, 0] == 2.0


def test_norm_profile_monotone(ball2_table):
    rng = np.random.default_rng(3)
    radii = [k / 10 for k in range(1, 11)]
    for _ in range(5):
        sym = random_symbol(rng, 2, max_len=2)
        norms, violations = norm_profile(sym, ball2_table, radii, 4)
        assert violations == []
        assert norms == sorted(norms)
    # NaN norms are a violation, not a pass
    sym = MultiToeplitzSymbol.scalar(A={(): np.nan, (1,): 1.0})
    norms, violations = norm_profile(sym, ball2_table, [0.5, 1.0], 4)
    assert np.isnan(norms).all()
    assert violations == [(0.5, 1.0)]


def test_norm_profile_on_krylov_path_assembles_nothing(deep_table, monkeypatch):
    """At depth 8 with aux dim 2 (side 1022) the profile's norms come from
    the nonzeros alone and equal the assembled operators' norms within
    1e-13 relative."""
    sym = random_symbol(np.random.default_rng(13), 2, max_len=2, aux_dim=2)
    radii = [0.5, 0.9, 1.0]
    want = [symbol_to_operator(sym, deep_table, r, 8).norm() for r in radii]

    def forbidden(*args, **kwargs):
        raise AssertionError("model operator assembled")

    monkeypatch.setattr(type(truncated_model(deep_table, 8)), "operator", forbidden)
    norms, violations = norm_profile(sym, deep_table, radii, 8)
    np.testing.assert_allclose(norms, want, rtol=1e-13, atol=0)
    assert violations == []


def test_symbol_support_exceeds_truncation(ball2_table):
    from ncdomains.weights import TruncationExceededError
    sym = MultiToeplitzSymbol.scalar(A={(1,) * 5: 1.0})
    with pytest.raises(TruncationExceededError):
        symbol_to_operator(sym, ball2_table, 1.0, 3)
    with pytest.raises(TruncationExceededError):
        norm_profile(sym, ball2_table, [1.0], 3)


@pytest.mark.parametrize("n", [1, 2])
def test_comparable_pairs_match_compare_right(n):
    table = weights_by_factorization(hyperball_spec(n, 1), 5)
    for N in range(6):
        model = truncated_model(table, N)
        long, short, sigma = model.comparable_pairs()
        got = [(model.words[i], model.words[j], s) for i, j, s in zip(long, short, sigma)]
        want = set()
        for omega in model.words:
            for gamma in model.words:
                cmp = compare_right(omega, gamma)
                if cmp.comparable:
                    want.add((omega, gamma, cmp.quotient) if cmp.relation == GEQ
                             else (gamma, omega, cmp.quotient))
        assert len(got) == len(want)
        assert set(got) == want


def _all_pairs_is_multi_toeplitz(T, table, tol):
    """Reference: the scan of every word pair through compare_right."""
    model = T.model
    n = model.n
    interior = model.N - 1
    scale = max(float(np.max(np.abs(T.matrix))), 1.0)
    sqrt_b = truncated_model(table, model.N).sqrt_b
    index = model.index
    worst_structure = 0.0
    worst_incomp = 0.0
    structure_witness = None
    incomp_witness = None
    for omega in model.words:
        for gamma in model.words:
            cmp = compare_right(omega, gamma)
            if not cmp.comparable:
                entry = float(np.max(np.abs(T.block(omega, gamma))))
                if entry > worst_incomp:
                    worst_incomp = entry
                    incomp_witness = (omega, gamma)
                continue
            if len(omega) > interior or len(gamma) > interior:
                continue
            long, short = (omega, gamma) if cmp.relation == GEQ else (gamma, omega)
            base = sqrt_b[index[long]] / sqrt_b[index[short]] * T.block(omega, gamma)
            for i in range(1, n + 1):
                lam_e = sqrt_b[index[long + (i,)]] / sqrt_b[index[short + (i,)]]
                res = float(np.max(np.abs(lam_e * T.block(omega + (i,), gamma + (i,))
                                          - base)))
                if res > worst_structure:
                    worst_structure = res
                    structure_witness = (omega, gamma, i)
    ok = worst_structure <= tol * scale and worst_incomp <= tol * scale
    return ToeplitzReport(ok, worst_structure, worst_incomp,
                          structure_witness, incomp_witness)


def _all_pairs_gamma_kernel(F, table, r, order):
    """Reference: the four-case Gamma kernel over every word pair."""
    d = F.aux_dim
    A = F.symbol.A
    A0 = F.symbol.constant
    model = truncated_model(table, order)
    words, sqrt_b = model.words, model.sqrt_b
    zero = np.zeros((d, d), dtype=complex)
    M = np.zeros((len(words) * d, len(words) * d), dtype=complex)
    for i, omega in enumerate(words):
        for j, gamma in enumerate(words):
            cmp = compare_right(omega, gamma)
            if not cmp.comparable:
                continue
            if cmp.relation == GEQ and cmp.quotient == EMPTY:
                blk = A0 + A0.conj().T
            elif cmp.relation == GEQ:
                w = sqrt_b[j] / sqrt_b[i]
                blk = w * (r ** len(cmp.quotient)) * A.get(cmp.quotient, zero)
            else:
                w = sqrt_b[i] / sqrt_b[j]
                blk = w * (r ** len(cmp.quotient)) * A.get(cmp.quotient, zero).conj().T
            M[i * d:(i + 1) * d, j * d:(j + 1) * d] = blk
    return M


# also scanned at N = 6 (D = 127), where the nonzero scan of is_multi_toeplitz
# takes its SCAN_ROWS block rows in four chunks
DEEP_SCAN_SPEC = "mixed_n2_m2"


@pytest.mark.parametrize("name", sorted(builtin_corpus()))
def test_pair_enumeration_matches_all_pairs_scan(name):
    spec = builtin_corpus()[name]
    depths = [*range(5), *([6] if name == DEEP_SCAN_SPEC else [])]
    table = weights_by_convolution(spec, depths[-1])
    rng = np.random.default_rng(sorted(builtin_corpus()).index(name))
    for N in depths:
        for d in (1, 2):
            T = symbol_to_operator(random_symbol(rng, spec.n, max_len=min(2, N), aux_dim=d),
                                   table, 0.8, N)
            size = T.matrix.shape
            bumped = T.matrix.copy()
            bumped[rng.integers(size[0]), rng.integers(size[1])] += 0.1
            gaussian = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            signs = rng.choice([-1.0, 1.0], size)  # ties: the first worst pair wins
            for M in (T.matrix, bumped, gaussian, signs, np.zeros(size)):
                op = TruncatedOperator(T.model, M.astype(complex), d)
                assert (is_multi_toeplitz(op, table, 1e-12)
                        == _all_pairs_is_multi_toeplitz(op, table, 1e-12))
            F = PluriharmonicFunction(random_symbol(rng, spec.n, max_len=min(2, N),
                                                    aux_dim=d, antianalytic=False))
            for r in (1.0, 0.7):
                assert np.array_equal(gamma_kernel(F, table, r, N).matrix,
                                      _all_pairs_gamma_kernel(F, table, r, N))


def test_toeplitz_scan_memory(deep_table, traced_peak):
    """At N = 8, aux dim 2 (side 1022, about 1% nonzero) the scan reads the
    nonzero entries of SCAN_ROWS block rows at a time and the comparable
    pairs: a traced peak of 1.03 MB (numpy 2.4), bounded here with a 25%
    margin, below the 2.1 MB that a 511 x 511 float table alone would take."""
    sym = random_symbol(np.random.default_rng(61), 2, 2, aux_dim=2)
    T = symbol_to_operator(sym, deep_table, 0.9, 8)
    peak, report = traced_peak(is_multi_toeplitz, T, deep_table, 1e-12)
    assert peak < 1.3e6, peak
    assert report.is_toeplitz


def test_toeplitz_scan_memory_on_a_dense_operator(deep_table, traced_peak):
    """A dense operator of side 1022 has every entry nonzero, so each chunk
    holds 64 x 1022 entries: a traced peak of 2.69 MB (numpy 2.4), within
    the 3.41 MB of the scan that kept a 511 x 511 table of block magnitudes."""
    model = truncated_model(deep_table, 8)
    rng = np.random.default_rng(62)
    M = rng.standard_normal((1022, 1022)) + 1j * rng.standard_normal((1022, 1022))
    peak, report = traced_peak(is_multi_toeplitz, TruncatedOperator(model, M, 2),
                               deep_table, 1e-12)
    assert peak < 3.4e6, peak
    assert not report.is_toeplitz


def test_toeplitz_scan_makes_no_word_pair_table(traced_peak):
    """At N = 10 on one aux dimension (D = 2047) a D x D table of the
    smallest dtype, bool, would take 4.2 MB; the scan's traced peak is
    2.2 MB (numpy 2.4), so it holds no D x D array."""
    table = weights_by_factorization(hyperball_spec(2, 1), 10)
    sym = random_symbol(np.random.default_rng(63), 2, 2)
    T = symbol_to_operator(sym, table, 0.9, 10)
    D = T.model.dimension
    peak, report = traced_peak(is_multi_toeplitz, T, table, 1e-12)
    assert peak < D * D, (peak, D)
    assert report.is_toeplitz
