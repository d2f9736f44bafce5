"""Command line entry point: orchestrates the verification suites and emits
machine-readable reports.

Each single-spec command builds its report in `start`; without a file
option, model, toeplitz, berezin, pluriharmonic and cauchy run their suite
through `cmd_suite`.  Every check runs at its stated tolerance.

Exit code is 0 iff every executed check passed, and 2 on malformed input,
which includes an option given in a mode that does not read it: --seed with
a file option, toeplitz --radius without --symbol, or weights --format
without --out.
All randomized inputs come from a seeded generator whose seed is echoed in
the report.  Each record prints one line, and a failed record its detail on
the next line (toeplitz's file modes write no report that would show it).  The
argument types finite_float, positive_int and nonnegative_int, which the
scripts share, turn an out-of-range value into a usage error (exit 2).
"""
from __future__ import annotations

import argparse
import math
import sys

from . import verify
from .berezin import domain_membership
from .cauchy import joint_spectral_radius, radius_inequality_check
from .corpus import builtin_corpus
from .report import FAIL, VerificationReport
from .serialization import (dump_json, load_json, operator_from_json,
                            operator_to_json, spec_from_json, spec_to_json,
                            symbol_from_json, symbol_to_json, table_to_csv,
                            table_to_json, tuple_from_json)
from .toeplitz import (MultiToeplitzSymbol, fourier_coefficients,
                       is_multi_toeplitz, max_block_difference,
                       symbol_to_operator)
from .weights import DomainSpec
from .words import fock_dimension


def resolve_spec(name_or_path: str) -> DomainSpec:
    corpus = builtin_corpus()
    if name_or_path in corpus:
        return corpus[name_or_path]
    return spec_from_json(load_json(name_or_path))


OPTIONS = {
    "spec": ("--spec", {"required": True,
                        "help": "builtin spec name or path to a spec JSON file"}),
    "max_len": ("--max-len", {"type": int, "default": 4, "metavar": "N",
                              "help": "truncation depth (default 4)"}),
    "seed": ("--seed", {"type": int, "default": None,
                        "help": "seed of the suites' random inputs (default 0); "
                                "read in the suite mode only"}),
    "out": ("--out", {"default": None, "help": "report/output path"}),
}


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def nonnegative_int(text: str, least: int = 0) -> int:
    value = int(text)
    if value < least:
        raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
    return value


def positive_int(text: str) -> int:
    return nonnegative_int(text, least=1)


def add_options(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        flag, kwargs = OPTIONS[name]
        p.add_argument(flag, **kwargs)


def suite_seed(args) -> int:
    """--seed of a suite run, 0 when not given."""
    return 0 if args.seed is None else args.seed


def reject_seed(args, mode: str) -> None:
    """--seed is read in the suite mode only; given with a file option it is
    malformed input, not ignored."""
    if args.seed is not None:
        raise ValueError(f"--seed is read only in the suite mode, not with {mode}")


def start(args, **config) -> tuple[DomainSpec, VerificationReport]:
    """The spec of a single-spec command and its report, whose config holds
    the command, the spec, the depth N, the number of letters n, the Fock
    dimension D at N and `config` (the seed, where the mode reads one).
    The file modes add the dimension they read: the tuple dimension k, or
    the operator's or symbol's aux_dim."""
    spec = resolve_spec(args.spec)
    return spec, VerificationReport({"command": args.command, "spec": spec_to_json(spec),
                                     "N": args.max_len, "n": spec.n,
                                     "D": fock_dimension(spec.n, args.max_len), **config})


def finish(report: VerificationReport, out: str | None) -> int:
    """Print one line per record, and a failed record's detail on the next."""
    for c in report.checks:
        res = "" if c.residual is None else f"  residual={c.residual:.3e}"
        tol = "" if c.tolerance is None else f" tol={c.tolerance:.0e}"
        print(f"[{c.status:>6}] {c.check_id}{res}{tol}")
        if c.status == FAIL:
            print("         " + ", ".join(f"{k}={v}" for k, v in c.detail.items()))
    n_fail = len(report.failures)
    print(f"{len(report.checks)} checks, {n_fail} failed")
    if out:
        dump_json(report.to_json(), out)
        print(f"report written to {out}")
    return 0 if report.passed else 1


def cmd_suite(args) -> int:
    """The suite mode of model, toeplitz, berezin, pluriharmonic and cauchy:
    verify.<command>_suite on the spec's weight table.  The suite is looked
    up when the command runs, so a wrapped suite is the one called."""
    seed = {"seed": suite_seed(args)} if "seed" in vars(args) else {}
    spec, report = start(args, **seed)
    suite = getattr(verify, f"{args.command}_suite")
    suite(verify.build_table(spec, args.max_len), report, **seed)
    return finish(report, args.out)


def cmd_weights(args) -> int:
    if args.format is not None and not args.out:
        raise ValueError("--format is read only with --out")
    spec, report = start(args)
    table = verify.weights_suite(spec, args.max_len, report)
    if args.out:
        if args.format == "json":
            dump_json(table_to_json(table), args.out)
        else:
            table_to_csv(table, args.out)
        print(f"weight table written to {args.out}")
    return finish(report, None)


def cmd_toeplitz(args) -> int:
    """--radius is read with --symbol only (1.0 when not given); given in
    another mode it is malformed input, not ignored."""
    if args.radius is not None and not args.symbol:
        raise ValueError("--radius is read only with --symbol, not "
                         + ("with --op" if args.op else "in the suite mode"))
    if not (args.op or args.symbol):
        return cmd_suite(args)
    reject_seed(args, "--op" if args.op else "--symbol")
    spec, report = start(args)
    N = args.max_len
    table = verify.build_table(spec, N)
    if args.op:
        T = operator_from_json(load_json(args.op), table)
        report.config["aux_dim"] = T.aux_dim
        rep = is_multi_toeplitz(T, table)
        report.flag("toeplitz.check",
                    "operator satisfies the weighted shift-invariance relations",
                    rep.is_toeplitz,
                    {"worst_structure_residual": rep.worst_structure_residual,
                     "worst_incomparable_entry": rep.worst_incomparable_entry,
                     "structure_witness": rep.structure_witness,
                     "incomparable_witness": rep.incomparable_witness})
        if rep.is_toeplitz and args.out:
            sym = fourier_coefficients(T, table, T.model.N)
            dump_json(symbol_to_json(sym), args.out)
            print(f"symbol written to {args.out}")
        return finish(report, None)
    r = 1.0 if args.radius is None else args.radius
    sym = symbol_from_json(load_json(args.symbol))
    report.config["aux_dim"] = sym.aux_dim
    T = symbol_to_operator(sym, table, r, N)
    rec = fourier_coefficients(T, table, N)
    scaled = MultiToeplitzSymbol(
        sym.aux_dim,
        {w: blk * r ** len(w) for w, blk in sym.A.items()},
        {w: blk * r ** len(w) for w, blk in sym.B.items()})
    report.check("toeplitz.roundtrip",
                 "symbol -> operator -> Fourier coefficients round trip",
                 max_block_difference(scaled, rec), 1e-10)
    if args.out:
        dump_json(operator_to_json(T), args.out)
        print(f"operator written to {args.out}")
    return finish(report, None)


def cmd_berezin(args) -> int:
    if not args.tuple:
        return cmd_suite(args)
    reject_seed(args, "--tuple")
    spec, report = start(args)
    X = tuple_from_json(load_json(args.tuple), spec)
    report.config["k"] = X.dim
    mem = domain_membership(spec, X)
    report.flag("berezin.membership",
                "all defect operators of the tuple are positive semidefinite",
                mem.in_domain, {"min_eigenvalues": mem.min_eigenvalues,
                                "pure": mem.pure})
    return finish(report, args.out)


def cmd_cauchy(args) -> int:
    if not args.tuple:
        return cmd_suite(args)
    reject_seed(args, "--tuple")
    spec, report = start(args)
    table = verify.build_table(spec, args.max_len)
    X = tuple_from_json(load_json(args.tuple), spec)
    report.config["k"] = X.dim
    r = joint_spectral_radius(spec, X)
    report.flag("cauchy.gate", "joint spectral radius below the calculus gate",
                r.gate, {"r_exact": r.r_exact,
                         "sequence_tail": r.r_sequence[-3:]})
    ineq = radius_inequality_check(spec, X, args.max_len, table)
    report.flag("cauchy.radius_inequality",
                "reconstruction-operator powers below the CP-map power bound",
                ineq.passed, {"margins": ineq.margins})
    return finish(report, args.out)


def cmd_verify_all(args) -> int:
    N, seed = args.max_len, suite_seed(args)
    report = VerificationReport({"command": "verify-all", "N": N, "seed": seed})
    for name, spec in builtin_corpus().items():
        verify.full_suite(spec, N, report, seed=seed, label=f".{name}")
    report.config["elapsed_seconds"] = report.elapsed()
    print(f"corpus run took {report.config['elapsed_seconds']:.1f} s")
    return finish(report, args.out)


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes only the options it reads."""
    parser = argparse.ArgumentParser(
        prog="ncdomains",
        description="verification harness for truncated universal models on "
                    "noncommutative regular domains")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weights", help="weight tables and oracle checks")
    add_options(p, "spec", "max_len", "out")
    p.add_argument("--format", choices=("csv", "json"), default=None,
                   help="with --out only (default csv)")
    p.set_defaults(fn=cmd_weights)

    p = sub.add_parser("model", help="universal model identities")
    add_options(p, "spec", "max_len", "out")
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("toeplitz", help="multi-Toeplitz structure and symbols")
    add_options(p, "spec", "max_len", "seed", "out")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--op", default=None, help="operator JSON to check")
    source.add_argument("--symbol", default=None, help="symbol JSON to assemble")
    p.add_argument("--radius", type=finite_float, default=None,
                   help="with --symbol only (default 1.0)")
    p.set_defaults(fn=cmd_toeplitz)

    p = sub.add_parser("berezin", help="membership, purity, Berezin identities")
    add_options(p, "spec", "max_len", "seed", "out")
    p.add_argument("--tuple", default=None, help="operator tuple JSON")
    p.set_defaults(fn=cmd_berezin)

    p = sub.add_parser("pluriharmonic", help="Gamma kernel, metric, limits")
    add_options(p, "spec", "max_len", "seed", "out")
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("cauchy", help="spectral radii and functional calculus")
    add_options(p, "spec", "max_len", "seed", "out")
    p.add_argument("--tuple", default=None, help="operator tuple JSON")
    p.set_defaults(fn=cmd_cauchy)

    p = sub.add_parser("verify-all", help="full suite over the builtin corpus")
    add_options(p, "max_len", "seed", "out")
    p.set_defaults(fn=cmd_verify_all)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
