"""Verification suites: each numerically certifies a family of identities on
one domain spec and appends pass/fail records to a report.

weights_suite builds the weight table of (spec, N); every other suite takes
that table and reads the spec and the depth N from it (table.spec, table.N).
The CLI subcommands and the acceptance test module are thin wrappers around
these functions, so a green `verify-all` and a green test suite certify the
same computations.
"""
from __future__ import annotations

from math import sqrt

import numpy as np

from .berezin import (OperatorTuple, berezin_kernel, berezin_transform,
                      hereditary_eval, hereditary_model_operator, hereditary_terms,
                      intertwining_residual, mean_value_check)
from .cauchy import (analytic_functional_calculus, cauchy_kernel,
                     cauchy_kernel_fourier_residual, cauchy_transform,
                     joint_spectral_radius, linearized_radius, multiply_symbols,
                     radius_inequality_check)
from .corpus import (random_gated_tuple, random_hereditary,
                     random_nilpotent_tuple, random_symbol)
from .fock import (COMMUTATION_TOL, MODEL_TOL, spectral_norm, truncated_model,
                   verify_model_identities, weighted_space_conjugation)
from .pluriharmonic import (PluriharmonicFunction, distance, scalar_holomorphic,
                            schur_positivity_test, weierstrass_limit)
from .report import VerificationReport
from .toeplitz import (MultiToeplitzSymbol, evaluate_symbol, fourier_coefficients,
                       is_multi_toeplitz, max_block_difference, norm_profile,
                       symbol_to_operator)
from .weights import (DomainSpec, WeightTable, hyperball_spec, hyperball_weights,
                      omega_beta, ratio_bound_check, weights_by_convolution,
                      weights_by_factorization)
from .words import EMPTY, enumerate_words


def build_table(spec: DomainSpec, N: int) -> WeightTable:
    """The production weight table; convolution stays the oracle."""
    return weights_by_factorization(spec, N)


def weights_suite(spec: DomainSpec, N: int, report: VerificationReport) -> WeightTable:
    table = build_table(spec, N)
    conv = weights_by_convolution(spec, N)
    equal = table.b == conv.b
    report.flag("weights.oracle_equality",
                "factorization-sum weights equal convolution-inverse weights, exact rationals",
                equal)

    is_hyperball = (spec.coefficients ==
                    hyperball_spec(spec.n, spec.m).coefficients)
    if is_hyperball:
        report.flag("weights.hyperball_closed_form",
                    "hyperball weights match the binomial closed form exactly",
                    table.b == hyperball_weights(spec.n, spec.m, N).b)

    bound = ratio_bound_check(table)
    report.flag("weights.ratio_bound",
                "b_alpha b_beta <= C(|beta|+m-1, m-1) b_{alpha beta}, exact check",
                bound.passed, {"pairs": bound.pairs_checked})

    est, depth = omega_beta(table, EMPTY)
    report.flag("weights.omega_empty",
                "depth-limited ratio supremum equals 1 at the empty word",
                est == 1, {"depth": depth})
    return table


def model_suite(table: WeightTable, report: VerificationReport) -> None:
    spec, N = table.spec, table.N
    ident = verify_model_identities(spec, table, N)
    report.check("model.defect_left",
                 "(id - Phi at W)^m (I) equals the vacuum projection",
                 ident.defect_residual_left, MODEL_TOL)
    report.check("model.defect_right",
                 "(id - Phi at Lambda, reversed coefficients)^m (I) equals the vacuum projection",
                 ident.defect_residual_right, MODEL_TOL)
    report.check("model.contraction_left",
                 "Phi at W maps I below the identity",
                 ident.phi_norm_left - 1.0, MODEL_TOL)
    report.check("model.commutation",
                 "left and right weighted creation operators commute on interior words",
                 ident.commutation_residual, COMMUTATION_TOL)
    report.check("model.conjugation",
                 "diagonal sqrt-weight conjugation turns W_i into the unweighted shift",
                 weighted_space_conjugation(table, N), MODEL_TOL)


def toeplitz_suite(table: WeightTable, report: VerificationReport, seed: int = 0,
                   n_symbols: int = 20) -> None:
    spec, N = table.spec, table.N
    rng = np.random.default_rng(seed)

    roundtrip, structure = [], []
    for _ in range(n_symbols):
        sym = random_symbol(rng, spec.n, max_len=min(2, N - 1))
        op = symbol_to_operator(sym, table, 1.0, N)
        rec = fourier_coefficients(op, table, N)
        roundtrip.append(max_block_difference(sym, rec))
        rep = is_multi_toeplitz(op, table, tol=1e-12)
        structure += [rep.worst_structure_residual, rep.worst_incomparable_entry]
    report.check("toeplitz.roundtrip",
                 "symbol -> operator -> Fourier coefficients recovers every block",
                 roundtrip, 1e-10, {"seed": seed, "symbols": n_symbols})
    report.check("toeplitz.structure",
                 "assembled symbols satisfy the weighted shift-invariance relations",
                 structure, 1e-12)

    # a designed failure: one incomparable entry bumped by 0.1 must be caught
    if spec.n >= 2:
        sym = random_symbol(rng, spec.n, max_len=1)
        op = symbol_to_operator(sym, table, 1.0, N)
        i = op.model.index[(1,)]
        j = op.model.index[(2,)]
        op.matrix[i, j] += 0.1
        rep = is_multi_toeplitz(op, table, tol=1e-10)
        report.flag("toeplitz.perturbation_rejected",
                    "a 0.1 bump at an incomparable entry is rejected with residual >= 0.05",
                    (not rep.is_toeplitz) and rep.worst_incomparable_entry >= 0.05,
                    {"residual": rep.worst_incomparable_entry})

    radii = [k / 10.0 for k in range(1, 11)]
    decreases = []
    for _ in range(n_symbols):
        sym = random_symbol(rng, spec.n, max_len=min(2, N - 1))
        norms, violations = norm_profile(sym, table, radii, N)
        decreases += [norms[radii.index(a)] - norms[radii.index(b)] for a, b in violations]
    report.check("toeplitz.norm_monotone",
                 "||phi(r W_N)|| is nondecreasing in r",
                 decreases, 1e-10)


def berezin_suite(table: WeightTable, report: VerificationReport, seed: int = 0,
                  n_tuples: int = 5) -> None:
    spec, N = table.spec, table.N
    rng = np.random.default_rng(seed)

    repro, iso, inter, vn, mean, kernels = [], [], [], [], [], []
    for _ in range(n_tuples):
        X = random_nilpotent_tuple(rng, spec, dim=3)
        K = berezin_kernel(spec, X, table, N)
        kernels.append((X, K))
        iso.append(spectral_norm(K.conj().T @ K - np.eye(X.dim)))
        inter.append(intertwining_residual(K, X, table, N))
        poly = random_hereditary(rng, spec.n, max_deg=2)
        lhs = spectral_norm(hereditary_eval(X, poly))
        rhs = truncated_model(table, N).norm(hereditary_terms(poly))
        vn.append(lhs - rhs)

        sym = random_symbol(rng, spec.n, max_len=2)
        for r in (0.5, 0.9):
            mean.append(mean_value_check(sym, spec, X.scaled(r), r, table, N))

    # each monomial W_alpha W_beta^* is built once and transformed at every tuple
    words = enumerate_words(spec.n, 2)
    for alpha in words:
        for beta in words:
            poly = {(alpha, beta): 1}
            g = hereditary_model_operator(poly, table, N)
            repro += [spectral_norm(berezin_transform(spec, X, g, table, K)
                                    - hereditary_eval(X, poly)) for X, K in kernels]

    report.check("berezin.reproducing",
                 "Berezin transform sends W_alpha W_beta^* to X_alpha X_beta^* at pure tuples",
                 repro, 1e-10, {"seed": seed})
    report.check("berezin.kernel_isometry",
                 "K^* K = I at pure tuples once the truncation covers the kernel support",
                 iso, 1e-10)
    report.check("berezin.intertwining",
                 "K X_i^* = (W_i^* (x) I) K",
                 inter, 1e-10)
    report.check("berezin.von_neumann",
                 "||q(X, X^*)|| <= ||q(W_N, W_N^*)|| for hereditary polynomials",
                 vn, 1e-8)
    report.check("berezin.mean_value",
                 "F(X) equals the extended Berezin transform of F(r W_N) at (1/r) X",
                 mean, 1e-8)


def pluriharmonic_suite(table: WeightTable, report: VerificationReport,
                        seed: int = 0) -> None:
    spec, N = table.spec, table.N
    rng = np.random.default_rng(seed)
    order = max(1, min(2, N - 2))
    radii = [0.3, 0.7, 0.95]

    eq, eig = [], []
    for _ in range(5):
        sym = random_symbol(rng, spec.n, max_len=min(2, N - order),
                            antianalytic=False)
        F = PluriharmonicFunction(sym)
        rep = schur_positivity_test(F, table, radii, order, N)
        eq += rep.equality_residuals
        # the words-<=order block of F(rW_N), read from the depth-order model
        top = truncated_model(table, order).operator(sym.terms(radii[-1]),
                                                     sym.aux_dim).matrix
        # top + top^* is Hermitian bit for bit: IEEE addition commutes
        comp_min = float(np.min(np.linalg.eigvalsh(top + top.conj().T)))
        eig.append(abs(comp_min - rep.min_eigenvalues[-1]))
    report.check("pluriharmonic.gamma_identity",
                 "Gamma kernel block matrix equals the compression of F(rW)^* + F(rW)",
                 eq, 1e-12, {"seed": seed})
    report.check("pluriharmonic.gamma_eigen",
                 "Gamma kernel and compression share their minimum eigenvalue",
                 eig, 1e-10)

    # a_1 W_1 W_1^* <= Phi_{q,W}(I) <= I, so ||sqrt(a_1) W_1|| <= 1
    F_pos = scalar_holomorphic({EMPTY: 1.0, (1,): sqrt(float(spec.coefficient((1,))))})
    rep = schur_positivity_test(F_pos, table, [0.5, 0.9], order, N)
    report.flag("pluriharmonic.psd_example",
                "1 + sqrt(a_1) Z_1 has positive real part at truncation", rep.positive)
    F_zero = scalar_holomorphic({(1,): 1.0})
    rep = schur_positivity_test(F_zero, table, [0.5, 0.9], order, N)
    report.flag("pluriharmonic.non_psd_example",
                "Z_1 without constant term is reported non-positive", not rep.positive)

    excess = []
    for _ in range(20):
        F, G, H = (PluriharmonicFunction(random_symbol(rng, spec.n, 2))
                   for _ in range(3))
        rho_fg = distance(F, G, table, N)
        rho_fh = distance(F, H, table, N)
        rho_hg = distance(H, G, table, N)
        excess.append(rho_fg - (rho_fh + rho_hg))
    report.check("pluriharmonic.metric_axioms",
                 "rho is symmetric, vanishes on the diagonal, and obeys the triangle inequality",
                 excess, 1e-12,
                 {"symmetry": "exact: F - G = -(G - F)", "diagonal": "exact: F - F = 0"})

    family = [PluriharmonicFunction(MultiToeplitzSymbol.scalar(
        A={(1,): 1.0 - 1.0 / j})) for j in range(1, 9)]
    wrep = weierstrass_limit(family, table, [0.5, 0.9], N)
    limit = PluriharmonicFunction(MultiToeplitzSymbol.scalar(A={(1,): 1.0}))
    rhos = [distance(Fj, limit, table, N) for Fj in family]
    decreasing = all(rhos[i + 1] <= rhos[i] + 1e-12 for i in range(len(rhos) - 1))
    report.flag("pluriharmonic.weierstrass",
                "a convergent family is Cauchy per radius and rho-converges monotonically",
                wrep.converged and decreasing and rhos[-1] < rhos[0])


def cauchy_suite(table: WeightTable, report: VerificationReport, seed: int = 0,
                 n_tuples: int = 10) -> None:
    spec, N = table.spec, table.N
    rng = np.random.default_rng(seed)

    if spec.n == 1 and spec.degree == 1:
        lam = 0.37
        X = OperatorTuple(spec, [np.array([[lam]], dtype=complex)])
        a1 = float(spec.coefficient((1,)))
        report.check("cauchy.scalar_radius",
                     "linearized joint spectral radius matches the scalar closed form",
                     abs(linearized_radius(spec, X) - sqrt(a1) * lam), 1e-12)

    seq, fourier, transform, route, mult, kernels = [], [], [], [], [], []
    zero_radius_viol = 0
    radius_margins: list[float] = []
    for _ in range(n_tuples):
        X = random_gated_tuple(rng, spec, dim=3, target_radius=0.6)
        r = joint_spectral_radius(spec, X, k_max=40)
        seq.append(abs(r.r_exact - r.last_sequence_value))

        C = cauchy_kernel(spec, X, N, table)
        kernels.append((X, C))
        fourier.append(cauchy_kernel_fourier_residual(C, X, table))

        c1 = {w: complex(rng.standard_normal(), rng.standard_normal())
              for w in enumerate_words(spec.n, 2) if rng.random() < 0.6} or {EMPTY: 1.0}
        c2 = {w: complex(rng.standard_normal(), rng.standard_normal())
              for w in enumerate_words(spec.n, 2) if rng.random() < 0.6} or {(1,): 1.0}
        res1 = analytic_functional_calculus(spec, X, c1, N, table)
        res2 = analytic_functional_calculus(spec, X, c2, N, table)
        route += [res1.cross_residual, res2.cross_residual]
        prod = multiply_symbols(c1, c2)
        direct_prod = evaluate_symbol(MultiToeplitzSymbol.scalar(A=prod), X.matrices)
        mult.append(spectral_norm(res1.value @ res2.value - direct_prod))

        ineq = radius_inequality_check(spec, X, N, table)
        zero_radius_viol += ineq.violations
        radius_margins += ineq.margins

    # each W_alpha is built once and transformed at every tuple
    for alpha in enumerate_words(spec.n, min(3, N - 1)):
        poly = {(alpha, EMPTY): 1}
        W_alpha = hereditary_model_operator(poly, table, N)
        transform += [spectral_norm(cauchy_transform(spec, X, W_alpha, N, table, C=C)
                                    - hereditary_eval(X, poly)) for X, C in kernels]

    report.check("cauchy.gelfand_sequence",
                 "||Phi^k(I)||^(1/2k) at k = 40 approaches the linearized radius",
                 seq, 5e-2, {"seed": seed})
    report.check("cauchy.kernel_fourier",
                 "Cauchy kernel vacuum column carries sqrt(b_omega) X_omega^*",
                 fourier, 1e-10)
    report.check("cauchy.transform_reproducing",
                 "Cauchy transform sends W_alpha to X_alpha",
                 transform, 1e-10)
    report.check("cauchy.route_agreement",
                 "direct power series agrees with the Cauchy-kernel evaluation route",
                 route, 1e-8)
    report.check("cauchy.multiplicative",
                 "the analytic calculus is multiplicative on polynomial symbols",
                 mult, 1e-8)
    report.flag("cauchy.radius_inequality",
                "||R_N^k|| <= ||Phi^k(I)||^(1/2) for k <= N, zero violations",
                zero_radius_viol == 0,
                # the smallest ||Phi^k(I)||^(1/2) - ||R_N^k|| over tuples and k
                {"min_margin": float(np.min(radius_margins)) if radius_margins else None})


def full_suite(spec: DomainSpec, N: int, report: VerificationReport,
               seed: int = 0, label: str = "") -> None:
    """All six suites; `label` is appended to the check ids they record."""
    first = len(report.checks)
    table = weights_suite(spec, N, report)
    model_suite(table, report)
    toeplitz_suite(table, report, seed=seed, n_symbols=5)
    berezin_suite(table, report, seed=seed, n_tuples=3)
    pluriharmonic_suite(table, report, seed=seed)
    cauchy_suite(table, report, seed=seed, n_tuples=3)
    for rec in report.checks[first:]:
        rec.check_id += label
