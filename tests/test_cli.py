import argparse
import json
import platform
import time
from fractions import Fraction

import numpy as np
import pytest

from ncdomains import cli
from ncdomains.berezin import OperatorTuple
from ncdomains.cli import build_parser, main
from ncdomains.corpus import (builtin_corpus, mixed_spec, random_gated_tuple,
                              random_nilpotent_tuple, random_symbol)
from ncdomains.fock import TruncatedModel
from ncdomains.serialization import (dump_json, load_json, matrix_to_json,
                                     operator_to_json, spec_from_json, spec_to_json,
                                     symbol_from_json, symbol_to_json,
                                     tuple_to_json)
from ncdomains.toeplitz import (MultiToeplitzSymbol, max_block_difference,
                                symbol_to_operator)
from ncdomains.weights import DomainSpec, weights_by_factorization
from ncdomains.words import fock_dimension


def test_weights_csv_row_count(tmp_path):
    out = tmp_path / "w.csv"
    rc = main(["weights", "--spec", "hyperball_n2_m1", "--max-len", "4",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 31


# the exact files of `weights --spec mixed_n2_m1 --max-len 2`; the CSV word
# column is the JSON array, quoted where it holds a comma
WEIGHTS_CSV = (
    "word,length,numerator,denominator,float_value\r\n"
    "[],0,1,1,1.0\r\n[1],1,1,1,1.0\r\n[2],1,1,1,1.0\r\n"
    '"[1, 1]",2,1,1,1.0\r\n"[1, 2]",2,2,1,2.0\r\n"[2, 1]",2,1,1,1.0\r\n'
    '"[2, 2]",2,1,1,1.0\r\n')
WEIGHTS_JSON = (
    '{"N": 2, "spec": {"coefficients": [{"denominator": 1, "numerator": 1, "word": [1]}, '
    '{"denominator": 1, "numerator": 1, "word": [2]}, '
    '{"denominator": 1, "numerator": 1, "word": [1, 2]}], "m": 1, "n": 2}, '
    '"weights": [{"denominator": 1, "float_value": 1.0, "numerator": 1, "word": []}, '
    '{"denominator": 1, "float_value": 1.0, "numerator": 1, "word": [1]}, '
    '{"denominator": 1, "float_value": 1.0, "numerator": 1, "word": [2]}, '
    '{"denominator": 1, "float_value": 1.0, "numerator": 1, "word": [1, 1]}, '
    '{"denominator": 1, "float_value": 2.0, "numerator": 2, "word": [1, 2]}, '
    '{"denominator": 1, "float_value": 1.0, "numerator": 1, "word": [2, 1]}, '
    '{"denominator": 1, "float_value": 1.0, "numerator": 1, "word": [2, 2]}]}\n')


@pytest.mark.parametrize("fmt, text", [("csv", WEIGHTS_CSV), ("json", WEIGHTS_JSON)],
                         ids=["csv", "json"])
def test_weights_file_text(tmp_path, fmt, text):
    out = tmp_path / f"w.{fmt}"
    assert main(["weights", "--spec", "mixed_n2_m1", "--max-len", "2",
                 "--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == text.encode()


def test_weights_out_prints_checks(tmp_path, capsys):
    out = tmp_path / "w.json"
    rc = main(["weights", "--spec", "mixed_n2_m1", "--max-len", "3",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    assert len(json.loads(out.read_text())["weights"]) == 15
    lines = capsys.readouterr().out.splitlines()
    passed = [ln for ln in lines if ln.startswith("[  pass] weights.")]
    assert passed
    assert f"{len(passed)} checks, 0 failed" in lines


def test_weights_with_spec_file(tmp_path):
    spec_path = tmp_path / "spec.json"
    dump_json(spec_to_json(mixed_spec(2)), spec_path)
    rc = main(["weights", "--spec", str(spec_path), "--max-len", "3"])
    assert rc == 0


def test_model_report_json(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["model", "--spec", "hyperball_n2_m2", "--max-len", "3",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["summary"]["fail"] == 0
    assert report["summary"]["total"] > 0
    assert all("identity" in c for c in report["checks"])


def test_toeplitz_check_rejects_perturbed(tmp_path, capsys):
    table = weights_by_factorization(mixed_spec(1), 3)
    sym = MultiToeplitzSymbol.scalar(A={(1,): 1.0})
    op = symbol_to_operator(sym, table, 1.0, 3)
    op.matrix[op.model.index[(1,)], op.model.index[(2,)]] += 0.1
    spec_path = tmp_path / "spec.json"
    op_path = tmp_path / "op.json"
    dump_json(spec_to_json(mixed_spec(1)), spec_path)
    dump_json(operator_to_json(op), op_path)
    rc = main(["toeplitz", "--spec", str(spec_path), "--max-len", "3",
               "--op", str(op_path)])
    assert rc == 1
    # the failed record's detail, with its witness words, on the next line
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "[  fail] toeplitz.check"
    assert "incomparable_witness=((1,), (2,))" in lines[1]
    assert lines[2:] == ["1 checks, 1 failed"]


def test_toeplitz_op_symbol_at_operator_depth(tmp_path, capsys):
    # a depth-3 operator checked under the default --max-len 4
    table = weights_by_factorization(mixed_spec(1), 3)
    sym = MultiToeplitzSymbol.scalar(A={(): 1.0, (1,): 2.0}, B={(2,): 1j})
    op_path = tmp_path / "op.json"
    sym_path = tmp_path / "sym.json"
    dump_json(operator_to_json(symbol_to_operator(sym, table, 1.0, 3)), op_path)
    rc = main(["toeplitz", "--spec", "mixed_n2_m1", "--op", str(op_path),
               "--out", str(sym_path)])
    assert rc == 0
    # a passing record prints its one line and no detail
    assert capsys.readouterr().out.splitlines() == [
        f"symbol written to {sym_path}", "[  pass] toeplitz.check", "1 checks, 0 failed"]
    assert max_block_difference(symbol_from_json(load_json(sym_path)), sym) < 1e-12


def test_toeplitz_build_from_symbol(tmp_path):
    sym = MultiToeplitzSymbol.scalar(A={(): 1.0, (1,): 2.0}, B={(2,): 1j})
    sym_path = tmp_path / "sym.json"
    dump_json(symbol_to_json(sym), sym_path)
    rc = main(["toeplitz", "--spec", "hyperball_n2_m2", "--max-len", "3",
               "--symbol", str(sym_path), "--out", str(tmp_path / "op.json")])
    assert rc == 0


def test_berezin_tuple_membership(tmp_path):
    spec = mixed_spec(1)
    X = OperatorTuple(spec, [np.zeros((2, 2)), np.zeros((2, 2))])
    path = tmp_path / "tuple.json"
    dump_json(tuple_to_json(X), path)
    rc = main(["berezin", "--spec", "mixed_n2_m1", "--max-len", "3",
               "--tuple", str(path)])
    assert rc == 0


def test_malformed_config_exit_code(tmp_path):
    rc = main(["weights", "--spec", str(tmp_path / "missing.json"),
               "--max-len", "3"])
    assert rc == 2


def test_verify_all_small(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["verify-all", "--max-len", "4", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["summary"]["fail"] == 0
    assert report["config"]["seed"] == 0


def test_report_environment(tmp_path, monkeypatch):
    """Every report's config names the Python, numpy and BLAS that ran it
    and the BLAS thread settings."""
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "report.json"
    assert main(["verify-all", "--max-len", "2", "--out", str(out)]) == 0
    env = json.loads(out.read_text())["config"]["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert set(env["blas"]) == {"name", "version"} and env["blas"]["name"]
    assert env["threads"]["OMP_NUM_THREADS"] == "3"
    assert env["threads"]["MKL_NUM_THREADS"] is None
    assert set(env["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS"}


def test_subcommand_options():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: {flag for a in p._actions for flag in a.option_strings} - {"-h", "--help"}
           for name, p in sub.choices.items()}
    common = {"--spec", "--max-len", "--out"}
    assert got == {
        "weights": common | {"--format"},
        "model": common,
        "toeplitz": common | {"--seed", "--op", "--symbol", "--radius"},
        "berezin": common | {"--seed", "--tuple"},
        "pluriharmonic": common | {"--seed"},
        "cauchy": common | {"--seed", "--tuple"},
        "verify-all": {"--max-len", "--seed", "--out"},
    }


def test_toeplitz_op_and_symbol_exclusive(tmp_path, capsys):
    """--op checks an operator file and --symbol assembles one; given both,
    the command exits 2 with one error line instead of ignoring --symbol."""
    sym = MultiToeplitzSymbol.scalar(A={(): 1.0, (1,): 2.0})
    table = weights_by_factorization(mixed_spec(1), 2)
    op_path, sym_path = tmp_path / "op.json", tmp_path / "sym.json"
    dump_json(operator_to_json(symbol_to_operator(sym, table, 1.0, 2)), op_path)
    dump_json(symbol_to_json(sym), sym_path)
    with pytest.raises(SystemExit) as exc:
        main(["toeplitz", "--spec", "mixed_n2_m1", "--max-len", "2",
              "--op", str(op_path), "--symbol", str(sym_path)])
    assert exc.value.code == 2
    errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and "not allowed with argument" in errors[0]


@pytest.mark.parametrize("argv, message", [
    (["toeplitz", "--op", "op.json", "--seed", "0"],
     "--seed is read only in the suite mode, not with --op"),
    (["toeplitz", "--symbol", "sym.json", "--seed", "3"],
     "--seed is read only in the suite mode, not with --symbol"),
    (["berezin", "--tuple", "X.json", "--seed", "0"],
     "--seed is read only in the suite mode, not with --tuple"),
    (["cauchy", "--tuple", "X.json", "--seed", "1"],
     "--seed is read only in the suite mode, not with --tuple"),
    (["toeplitz", "--op", "op.json", "--radius", "0.5"],
     "--radius is read only with --symbol, not with --op"),
    (["toeplitz", "--radius", "1.0"],
     "--radius is read only with --symbol, not in the suite mode"),
], ids=["toeplitz-op-seed", "toeplitz-symbol-seed", "berezin-tuple-seed",
        "cauchy-tuple-seed", "toeplitz-op-radius", "toeplitz-suite-radius"])
def test_option_outside_its_mode(tmp_path, monkeypatch, capsys, argv, message):
    """--seed is read only in the suite mode and --radius only with
    toeplitz --symbol.  Given in another mode, even at its default value,
    either one exits 2 with one error line and nothing run, instead of
    being ignored."""
    spec = mixed_spec(1)
    sym = MultiToeplitzSymbol.scalar(A={(): 1.0, (1,): 2.0})
    table = weights_by_factorization(spec, 2)
    dump_json(operator_to_json(symbol_to_operator(sym, table, 1.0, 2)), tmp_path / "op.json")
    dump_json(symbol_to_json(sym), tmp_path / "sym.json")
    dump_json(tuple_to_json(random_nilpotent_tuple(np.random.default_rng(4), spec, dim=2)),
              tmp_path / "X.json")
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--spec", "mixed_n2_m1", "--max-len", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"]
    assert captured.out == ""


SEEDED = {"command", "spec", "N", "n", "D", "seed", "environment"}


@pytest.mark.parametrize("argv, keys", [
    (["model"], SEEDED - {"seed"}),
    (["toeplitz"], SEEDED),
    (["berezin"], SEEDED),
    (["pluriharmonic"], SEEDED),
    (["cauchy"], SEEDED),
    (["berezin", "--tuple", "X.json"], SEEDED - {"seed"} | {"k"}),
    (["cauchy", "--tuple", "Xg.json"], SEEDED - {"seed"} | {"k"}),
], ids=["model", "toeplitz", "berezin", "pluriharmonic", "cauchy", "berezin-tuple",
        "cauchy-tuple"])
def test_report_config_keys(tmp_path, monkeypatch, argv, keys):
    """A written report's config names the command, the spec, N, the number
    of letters n and the Fock dimension D, the seed only where the mode reads
    one (the suites, not the tuple modes), and the tuple dimension k in the
    tuple modes."""
    rng = np.random.default_rng(3)
    spec = builtin_corpus()["mixed_n2_m1"]
    dump_json(tuple_to_json(random_nilpotent_tuple(rng, spec, dim=2)), tmp_path / "X.json")
    dump_json(tuple_to_json(random_gated_tuple(rng, spec, dim=2, target_radius=0.6)),
              tmp_path / "Xg.json")
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--spec", "mixed_n2_m1", "--max-len", "2",
                 "--out", "report.json"]) == 0
    config = json.loads((tmp_path / "report.json").read_text())["config"]
    assert set(config) == keys
    assert (config["command"], config["N"]) == (argv[0], 2)
    assert config["spec"] == spec_to_json(spec)
    assert (config["n"], config["D"]) == (2, 7)
    assert config.get("k", 2) == 2


@pytest.mark.parametrize("mode", ["--symbol", "--op"])
def test_toeplitz_file_config_keys(tmp_path, monkeypatch, mode):
    """toeplitz --symbol and --op write a file, not a report; the config of
    the report they print adds the aux_dim of the file they read."""
    sym = random_symbol(np.random.default_rng(5), 2, max_len=2, aux_dim=2)
    table = weights_by_factorization(mixed_spec(1), 3)
    dump_json(symbol_to_json(sym), tmp_path / "sym.json")
    dump_json(operator_to_json(symbol_to_operator(sym, table, 1.0, 3)), tmp_path / "op.json")
    configs = []
    finish = cli.finish
    monkeypatch.setattr(cli, "finish", lambda report, out: configs.append(report.config)
                        or finish(report, out))
    path = tmp_path / ("sym.json" if mode == "--symbol" else "op.json")
    assert main(["toeplitz", "--spec", "mixed_n2_m1", "--max-len", "3",
                 mode, str(path)]) == 0
    assert configs == [{"command": "toeplitz", "spec": spec_to_json(mixed_spec(1)),
                        "N": 3, "n": 2, "D": 15, "aux_dim": 2}]


@pytest.mark.parametrize("field, value", [("word", 1), ("word", ["1"]), ("n", 2.0),
                                          ("top", []), ("top", "x"),
                                          ("coefficients", 5), ("coefficients", [5]),
                                          ("denominator", 0),
                                          pytest.param("coefficients", [
                                              *spec_to_json(mixed_spec(1))["coefficients"],
                                              {"word": [1], "numerator": 1}],
                                              id="duplicate-word")])
def test_malformed_spec_exit_code(tmp_path, capsys, field, value):
    spec = spec_to_json(mixed_spec(1))
    if field == "top":
        spec = value
    elif field in ("n", "coefficients"):
        spec[field] = value
    else:
        spec["coefficients"][0][field] = value
    path = tmp_path / "bad.json"
    dump_json(spec, path)
    rc = main(["model", "--spec", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command, spec", [
    # a ball of radius 2: ||W_1|| = 2, so 1 + Z_1 is not PSD at r = 0.9
    ("pluriharmonic", DomainSpec(2, 1, {(1,): Fraction(1, 4), (2,): Fraction(1, 4)})),
    # the degree-3 term dominates the rescale of random_gated_tuple
    ("cauchy", DomainSpec(1, 2, {(1,): Fraction(1, 3), (1, 1, 1): Fraction(2)})),
], ids=["quarter", "deg3"])
def test_suite_passes_off_corpus_spec(tmp_path, command, spec):
    path = tmp_path / "spec.json"
    dump_json(spec_to_json(spec), path)
    assert spec_from_json(load_json(path)) == spec
    assert main([command, "--spec", str(path), "--max-len", "4"]) == 0


def _tuple_file(field, value):
    obj = tuple_to_json(OperatorTuple(mixed_spec(1), [np.zeros((1, 1))] * 2))
    if field == "top":
        return value
    obj[field] = value
    return obj


def _symbol_file(field, value):
    obj = symbol_to_json(MultiToeplitzSymbol.scalar(A={(1,): 1.0}))
    if field in ("word", "block"):
        obj["A"][0][field] = value
    else:
        obj[field] = value
    return obj


def _operator_file(field, value):
    table = weights_by_factorization(mixed_spec(1), 2)
    obj = operator_to_json(symbol_to_operator(MultiToeplitzSymbol.scalar(A={(1,): 1.0}),
                                              table, 1.0, 2))
    obj[field] = value
    return obj


def _dense_operator_file(field, value):
    """An operator file in the dense form written before the sparse one."""
    obj = _operator_file(field, value)
    del obj["index"]
    return obj


MALFORMED_FILES = {
    "tuple": (_tuple_file, ["berezin", "--spec", "mixed_n2_m1", "--tuple"]),
    "symbol": (_symbol_file, ["toeplitz", "--spec", "hyperball_n2_m1", "--max-len", "2",
                              "--symbol"]),
    "operator": (_operator_file, ["toeplitz", "--spec", "mixed_n2_m1", "--max-len", "2",
                                  "--op"]),
}
MALFORMED_FILES["dense operator"] = (_dense_operator_file, MALFORMED_FILES["operator"][1])


@pytest.mark.parametrize("kind, field, value", [
    ("tuple", "top", []), ("tuple", "matrices", 5),
    ("symbol", "A", 5), ("symbol", "A", [5]), ("symbol", "word", "x"),
    ("symbol", "aux_dim", "x"), ("symbol", "block", [[1, 0]]),
    ("operator", "n", "x"), ("operator", "data", [1, 0, 2]),
    ("operator", "index", 5), ("operator", "index", ["0", 8, 15]),
    ("operator", "index", [-1, 8, 15]), ("operator", "index", [0, 8, 49]),
    ("operator", "index", [0, 8, 8]), ("operator", "index", [8, 0, 15]),
    ("operator", "index", [0, 8]), ("operator", "index", [True, 8, 15]),
    ("dense operator", "data", [1, 0, 2]),
    pytest.param("symbol", "A", [{"word": [1], "block": [[[1.0, 0.0]]]},
                                 {"word": [1], "block": [[[3.0, 0.0]]]}],
                 id="symbol-duplicate-word"),
    ("tuple", "dim", 7), ("tuple", "n", 5), ("tuple", "spec", "not a spec"),
    ("tuple", "dim", 0),
    pytest.param("tuple", "spec", spec_to_json(mixed_spec(2)), id="tuple-spec-mismatch"),
])
def test_malformed_file_exit_code(tmp_path, capsys, kind, field, value):
    """A malformed tuple, symbol or operator file: exit 2, one error line.
    The operator's 7 x 7 matrix has 3 nonzero entries, so an index must be
    3 ascending integer positions in 0..48."""
    make, argv = MALFORMED_FILES[kind]
    path = tmp_path / f"{kind}.json"
    dump_json(make(field, value), path)
    rc = main([*argv, str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_operator_file_depth_checked_before_basis(tmp_path, capsys, monkeypatch):
    """An operator file whose N does not match its matrix is rejected before
    the depth-N model, with a basis of 2^61 words here, is built."""
    def no_model(self, table, N):
        raise AssertionError(f"model of depth {N} built")

    path = tmp_path / "op.json"
    dump_json(_operator_file("N", 60), path)
    monkeypatch.setattr(TruncatedModel, "__init__", no_model)
    rc = main([*MALFORMED_FILES["operator"][1], str(path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: matrix shape (7, 7) inconsistent")


@pytest.mark.parametrize("n, N, aux, rows, error", [
    (2, 40, 1, fock_dimension(2, 40), "operator depth N = 40 exceeds the table depth 3"),
    (2, 4, 1, fock_dimension(2, 4), "operator depth N = 4 exceeds the table depth 3"),
    (3, 2, 1, fock_dimension(3, 2), "operator has n = 3 letters, the spec has 2"),
    (2, 2, 1, fock_dimension(2, 40), "matrix shape"),
    (3, 10 ** 9, 1, 13, "matrix shape (13, 13) inconsistent with n = 3, N = 1000000000"),
    (2, 0, 100000, 100000, "operator has 100000 rows, more than the 4096"),
], ids=["depth-40", "depth-4", "letters", "shape", "depth-1e9", "aux"])
def test_operator_file_header_checked_before_allocation(tmp_path, capsys, monkeypatch,
                                                        n, N, aux, rows, error):
    """A sparse operator file with no entries can declare any shape; its n,
    N and shape, and the row bound, are checked before the matrix is
    allocated or the model is built, and a depth too large for its rows
    before 3^N is formed."""
    def refuse(*args, **kwargs):
        raise AssertionError("allocated or model built")

    path = tmp_path / "op.json"
    dump_json({"n": n, "N": N, "aux_dim": aux, "rows": rows, "cols": rows,
               "index": [], "data": []}, path)
    monkeypatch.setattr(np, "zeros", refuse)
    monkeypatch.setattr(TruncatedModel, "__init__", refuse)
    rc = main(["toeplitz", "--spec", "mixed_n2_m1", "--max-len", "3", "--op", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}") and err.count("\n") == 1


def test_nan_symbol_fails_roundtrip(tmp_path, capsys):
    """A symbol with a NaN coefficient fails the round trip, not passes it."""
    sym = MultiToeplitzSymbol.scalar(A={(): 1.0, (1,): np.nan}, B={(2,): 1j})
    path = tmp_path / "sym.json"
    dump_json(symbol_to_json(sym), path)
    rc = main(["toeplitz", "--spec", "mixed_n2_m2", "--max-len", "3",
               "--symbol", str(path)])
    assert rc == 1
    out = capsys.readouterr().out.splitlines()
    assert "[  fail] toeplitz.roundtrip  residual=nan tol=1e-10" in out


@pytest.mark.parametrize("radius", ["nan", "inf", "-inf"])
def test_nonfinite_radius_exit_code(tmp_path, capsys, radius):
    path = tmp_path / "sym.json"
    dump_json(symbol_to_json(MultiToeplitzSymbol.scalar(A={(1,): 1.0})), path)
    with pytest.raises(SystemExit) as exc:
        main(["toeplitz", "--spec", "mixed_n2_m2", "--max-len", "3",
              "--symbol", str(path), f"--radius={radius}"])
    assert exc.value.code == 2
    errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and "argument --radius: must be finite" in errors[0]


def _check_malformed_tuple_data(tmp_path, capsys, data):
    obj = tuple_to_json(OperatorTuple(mixed_spec(1), [np.zeros((1, 1))] * 2))
    obj["matrices"][0]["data"] = data
    path = tmp_path / "tuple.json"
    dump_json(obj, path)
    rc = main(["berezin", "--spec", "mixed_n2_m1", "--tuple", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed matrix") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["berezin", "cauchy"])
def test_tuple_of_dimension_zero_names_dim(tmp_path, capsys, command):
    """A tuple file of 0 x 0 matrices is rejected by its dim header, not by
    a reduction over an empty array."""
    path = tmp_path / "tuple.json"
    dump_json({**_tuple_file("dim", 0),
               "matrices": [matrix_to_json(np.zeros((0, 0)))] * 2}, path)
    assert main([command, "--spec", "mixed_n2_m1", "--tuple", str(path)]) == 2
    assert capsys.readouterr().err == "error: dim must be >= 1, got 0\n"


def test_malformed_tuple_exit_code(tmp_path, capsys):
    _check_malformed_tuple_data(tmp_path, capsys, [["a", "b"]])


@pytest.mark.parametrize("data", [[["1", 0]], [[None, 0]], [[10 ** 400, 0]]])
def test_malformed_tuple_entry_exit_code(tmp_path, capsys, data):
    """String, null and overflowing matrix entries: exit 2, one error line."""
    _check_malformed_tuple_data(tmp_path, capsys, data)


@pytest.mark.parametrize("letter", [0, 3])
def test_symbol_letter_outside_alphabet_exit_code(tmp_path, capsys, letter):
    """Letters 0 and n + 1 are outside the alphabet: exit 2, one error line."""
    path = tmp_path / "sym.json"
    dump_json(symbol_to_json(MultiToeplitzSymbol.scalar(A={(letter,): 1.0})), path)
    rc = main(["toeplitz", "--spec", "hyperball_n2_m1", "--max-len", "2",
               "--symbol", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: word ({letter},) has letters outside 1..2\n"


def test_check_elapsed_times(tmp_path):
    out = tmp_path / "report.json"
    main(["verify-all", "--max-len", "2", "--out", str(out)])
    report = json.loads(out.read_text())
    elapsed = [c["elapsed"] for c in report["checks"]]
    assert all(e > 0 for e in elapsed)
    assert sum(elapsed) <= report["config"]["elapsed_seconds"]


def test_suite_elapsed_totals(tmp_path):
    out = tmp_path / "report.json"
    main(["verify-all", "--max-len", "2", "--out", str(out)])
    report = json.loads(out.read_text())
    totals = report["summary"]["elapsed"]
    assert set(totals) == {"weights", "model", "toeplitz", "berezin",
                           "pluriharmonic", "cauchy"}
    elapsed = [c["elapsed"] for c in report["checks"]]
    assert sum(totals.values()) == pytest.approx(sum(elapsed), rel=1e-12)


def test_tuple_commands_time_the_tuple_work(tmp_path, monkeypatch):
    """The --tuple records of berezin and cauchy include the membership test
    and the spectral radius computed before them."""
    def slow(fn):
        def wrapped(*args, **kwargs):
            time.sleep(0.05)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli, "domain_membership", slow(cli.domain_membership))
    monkeypatch.setattr(cli, "joint_spectral_radius", slow(cli.joint_spectral_radius))
    rng = np.random.default_rng(3)
    spec = builtin_corpus()["mixed_n2_m2"]
    X, Xg = tmp_path / "X.json", tmp_path / "Xg.json"
    dump_json(tuple_to_json(random_nilpotent_tuple(rng, spec, dim=2)), X)
    dump_json(tuple_to_json(random_gated_tuple(rng, spec, dim=2, target_radius=0.6)), Xg)
    for command, path, check_id in (("berezin", X, "berezin.membership"),
                                    ("cauchy", Xg, "cauchy.gate")):
        out = tmp_path / f"{command}.json"
        assert main([command, "--spec", "mixed_n2_m2", "--max-len", "3",
                     "--tuple", str(path), "--out", str(out)]) == 0
        checks = {c["check_id"]: c for c in json.loads(out.read_text())["checks"]}
        assert checks[check_id]["elapsed"] >= 0.05
