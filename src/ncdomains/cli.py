"""Command line entry point: orchestrates the verification suites and emits
machine-readable reports.

Each single-spec command builds its report in `start`; without a file
option, model, toeplitz, berezin, pluriharmonic and cauchy run their suite
through `cmd_suite`.  Every check runs at its stated tolerance.

Exit code is 0 iff every executed check passed, and 2 on malformed input.
All randomized inputs come from a seeded generator whose seed is echoed in
the report.
"""
from __future__ import annotations

import argparse
import math
import sys

from . import verify
from .berezin import domain_membership
from .cauchy import joint_spectral_radius, radius_inequality_check
from .corpus import builtin_corpus
from .report import VerificationReport
from .serialization import (dump_json, load_json, operator_from_json,
                            operator_to_json, spec_from_json, spec_to_json,
                            symbol_from_json, symbol_to_json, table_to_csv,
                            table_to_json, tuple_from_json)
from .toeplitz import (MultiToeplitzSymbol, fourier_coefficients,
                       is_multi_toeplitz, max_block_difference,
                       symbol_to_operator)
from .weights import DomainSpec


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
    "seed": ("--seed", {"type": int, "default": 0}),
    "out": ("--out", {"default": None, "help": "report/output path"}),
}


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def add_options(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        flag, kwargs = OPTIONS[name]
        p.add_argument(flag, **kwargs)


def start(args, **config) -> tuple[DomainSpec, VerificationReport]:
    """The spec of a single-spec command and its report, whose config holds
    the command, the spec, the depth N and `config` (the seed, where the
    mode reads one)."""
    spec = resolve_spec(args.spec)
    return spec, VerificationReport({"command": args.command, "spec": spec_to_json(spec),
                                     "N": args.max_len, **config})


def finish(report: VerificationReport, out: str | None) -> int:
    for c in report.checks:
        res = "" if c.residual is None else f"  residual={c.residual:.3e}"
        tol = "" if c.tolerance is None else f" tol={c.tolerance:.0e}"
        print(f"[{c.status:>6}] {c.check_id}{res}{tol}")
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
    seed = {"seed": args.seed} if "seed" in vars(args) else {}
    spec, report = start(args, **seed)
    suite = getattr(verify, f"{args.command}_suite")
    suite(verify.build_table(spec, args.max_len), report, **seed)
    return finish(report, args.out)


def cmd_weights(args) -> int:
    spec, report = start(args)
    table = verify.weights_suite(spec, args.max_len, report)
    if args.out:
        if args.format == "csv":
            table_to_csv(table, args.out)
        else:
            dump_json(table_to_json(table), args.out)
        print(f"weight table written to {args.out}")
    return finish(report, None)


def cmd_toeplitz(args) -> int:
    if not (args.op or args.symbol):
        return cmd_suite(args)
    spec, report = start(args)
    N = args.max_len
    table = verify.build_table(spec, N)
    if args.op:
        T = operator_from_json(load_json(args.op), table)
        rep = is_multi_toeplitz(T, table)
        report.flag("toeplitz.check",
                    "operator satisfies the weighted shift-invariance relations",
                    rep.is_toeplitz,
                    {"worst_structure_residual": rep.worst_structure_residual,
                     "worst_incomparable_entry": rep.worst_incomparable_entry,
                     "structure_witness": [list(w) for w in rep.structure_witness[:2]]
                     + [rep.structure_witness[2]] if rep.structure_witness else None,
                     "incomparable_witness": [list(w) for w in rep.incomparable_witness]
                     if rep.incomparable_witness else None})
        if rep.is_toeplitz and args.out:
            sym = fourier_coefficients(T, table, T.basis.N)
            dump_json(symbol_to_json(sym), args.out)
            print(f"symbol written to {args.out}")
        return finish(report, None)
    sym = symbol_from_json(load_json(args.symbol))
    T = symbol_to_operator(sym, table, args.radius, N)
    rec = fourier_coefficients(T, table, N)
    scaled = MultiToeplitzSymbol(
        sym.aux_dim,
        {w: blk * args.radius ** len(w) for w, blk in sym.A.items()},
        {w: blk * args.radius ** len(w) for w, blk in sym.B.items()})
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
    spec, report = start(args)
    X = tuple_from_json(load_json(args.tuple), spec)
    mem = domain_membership(spec, X)
    report.flag("berezin.membership",
                "all defect operators of the tuple are positive semidefinite",
                mem.in_domain, {"min_eigenvalues": mem.min_eigenvalues,
                                "pure": mem.pure})
    return finish(report, args.out)


def cmd_cauchy(args) -> int:
    if not args.tuple:
        return cmd_suite(args)
    spec, report = start(args)
    table = verify.build_table(spec, args.max_len)
    X = tuple_from_json(load_json(args.tuple), spec)
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
    N = args.max_len
    report = VerificationReport({"command": "verify-all", "N": N,
                                 "seed": args.seed})
    for name, spec in builtin_corpus().items():
        verify.full_suite(spec, N, report, seed=args.seed, label=f".{name}")
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
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_weights)

    p = sub.add_parser("model", help="universal model identities")
    add_options(p, "spec", "max_len", "out")
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("toeplitz", help="multi-Toeplitz structure and symbols")
    add_options(p, "spec", "max_len", "seed", "out")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--op", default=None, help="operator JSON to check")
    source.add_argument("--symbol", default=None, help="symbol JSON to assemble")
    p.add_argument("--radius", type=finite_float, default=1.0)
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
