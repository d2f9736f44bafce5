import json

import numpy as np
import pytest

from ncdomains.berezin import OperatorTuple
from ncdomains.corpus import mixed_spec, random_symbol
from ncdomains.fock import TruncatedOperator, creation_tuple, truncated_model
from ncdomains.serialization import (dump_json, load_json, matrix_from_json,
                                     matrix_to_json, operator_from_json,
                                     operator_to_json, spec_from_json, spec_to_json,
                                     symbol_from_json, symbol_to_json,
                                     tuple_from_json, tuple_to_json)
from ncdomains.toeplitz import MultiToeplitzSymbol, symbol_to_operator
from ncdomains.weights import hyperball_spec, weights_by_factorization

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan]


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def test_matrix_roundtrip():
    """A matrix is {rows, cols, data}; an aux_dim key, which older tuple
    files carry, is not read."""
    M = np.array([[1 + 2j, 0], [3.5, -1j]])
    obj = matrix_to_json(M)
    assert sorted(obj) == ["cols", "data", "rows"]
    assert np.array_equal(matrix_from_json(obj), M)
    assert np.array_equal(matrix_from_json({**obj, "aux_dim": 2}), M)


def test_empty_matrix_roundtrip():
    """An empty matrix is written as data [] and reads back with its shape."""
    back = matrix_from_json(matrix_to_json(np.zeros((0, 3), dtype=complex)))
    assert back.shape == (0, 3)


def test_operator_roundtrip(ball2_table):
    """An operator read against a table is built on that table's model at
    the file's depth, the one truncated_model keeps."""
    W1 = creation_tuple(ball2_table, 3)[0]
    back = operator_from_json(operator_to_json(W1), ball2_table)
    assert back.model is truncated_model(ball2_table, 3)
    assert np.array_equal(W1.matrix, back.matrix)


def test_symbol_roundtrip():
    sym = random_symbol(np.random.default_rng(0), 2, max_len=2, aux_dim=2)
    back = symbol_from_json(symbol_to_json(sym))
    assert back.aux_dim == 2
    assert set(back.A) == set(sym.A) and set(back.B) == set(sym.B)
    for w in sym.A:
        assert np.array_equal(sym.A[w], back.A[w])


def test_repeated_word_rejected():
    """A word given twice in a spec or in one part of a symbol raises
    ValueError naming it; the same word in both symbol parts is allowed."""
    spec = spec_to_json(mixed_spec(1))
    spec["coefficients"].append({"word": [1, 2], "numerator": 3})
    with pytest.raises(ValueError, match=r"word \[1, 2\] repeats"):
        spec_from_json(spec)
    sym = symbol_to_json(MultiToeplitzSymbol.scalar(A={(2,): 1.0}, B={(2,): 2.0}))
    assert set(symbol_from_json(sym).B) == {(2,)}
    for part in ("A", "B"):
        bad = json.loads(json.dumps(sym))
        bad[part].append(bad[part][0])
        with pytest.raises(ValueError, match=rf"word \[2\] repeats in symbol part {part}"):
            symbol_from_json(bad)


def test_tuple_roundtrip(tmp_path):
    """A tuple reads back, and a file whose matrices carry the aux_dim key of
    older files loads unchanged."""
    spec = mixed_spec(2)
    X = OperatorTuple(spec, [np.eye(2) * 0.1, np.ones((2, 2)) * 0.05j])
    path = tmp_path / "tuple.json"
    obj = tuple_to_json(X)
    older = {**obj, "matrices": [{**m, "aux_dim": 1} for m in obj["matrices"]]}
    for written in (obj, older):
        dump_json(written, path)
        back = tuple_from_json(load_json(path))
        assert back.spec == spec
        for M, Mb in zip(X.matrices, back.matrices):
            assert np.array_equal(M, Mb)


@pytest.mark.parametrize("field, value, error", [
    ("dim", 7, r"tuple declares dim = 7 but holds a \(2, 2\) matrix"),
    ("n", 5, "tuple declares n = 5 but holds 2 matrices"),
])
def test_tuple_headers_must_match_matrices(field, value, error):
    """A tuple file's n and dim headers are checked against its matrices,
    whether the spec comes from the file or from the caller."""
    spec = mixed_spec(2)
    obj = tuple_to_json(OperatorTuple(spec, [np.eye(2) * 0.1, np.eye(2) * 0.2]))
    obj[field] = value
    for given in (None, spec):
        with pytest.raises(ValueError, match=error):
            tuple_from_json(obj, given)


def test_special_values_roundtrip_bitwise(tmp_path):
    """Signed zeros, infinities and NaN in both parts survive a file round
    trip bit for bit, as matrix entries and as symbol blocks."""
    pairs = np.array([[re, im] for re in SPECIAL for im in SPECIAL])
    M = pairs.view(complex).reshape(5, 5)      # no arithmetic on the values
    assert np.signbit(M.real).sum() == 10 and np.signbit(M.imag).sum() == 10
    path = tmp_path / "m.json"
    dump_json(matrix_to_json(M), path)
    back = matrix_from_json(load_json(path))
    assert np.array_equal(_bits(back), _bits(M))

    table = weights_by_factorization(hyperball_spec(4, 1), 1)
    T = TruncatedOperator(truncated_model(table, 1), M)    # 5 words
    dump_json(operator_to_json(T), path)
    obj = load_json(path)
    assert obj["index"] == [i for i in range(25) if i != 0]   # only +0.0+0.0j left out
    back = operator_from_json(obj, table)
    assert np.array_equal(_bits(back.matrix), _bits(M))

    sym = MultiToeplitzSymbol(5, {(): M, (1, 2): M.T}, {(2,): M[::-1]})
    dump_json(symbol_to_json(sym), path)
    back = symbol_from_json(load_json(path))
    for part, back_part in ((sym.A, back.A), (sym.B, back.B)):
        assert set(part) == set(back_part)
        for w in part:
            assert np.array_equal(_bits(back_part[w]), _bits(part[w]))


def test_aux_symbol_roundtrip_bitwise(tmp_path):
    sym = random_symbol(np.random.default_rng(4), 2, max_len=3, aux_dim=2)
    path = tmp_path / "sym.json"
    dump_json(symbol_to_json(sym), path)
    back = symbol_from_json(load_json(path))
    assert back.aux_dim == 2
    assert set(back.A) == set(sym.A) and set(back.B) == set(sym.B)
    for part, back_part in ((sym.A, back.A), (sym.B, back.B)):
        for w in part:
            assert np.array_equal(_bits(back_part[w]), _bits(part[w]))


def test_large_operator_file_roundtrip(tmp_path):
    """The 510 x 510 operator of an aux-2 symbol at depth 7 is written as one
    line listing only its nonzero entries, under a tenth of the dense form's
    size, and reads back bit for bit; a file in the former indented layout
    holds the same JSON.  A dense file of the earlier form, which has no
    index, is refused."""
    table = weights_by_factorization(mixed_spec(2), 7)
    sym = random_symbol(np.random.default_rng(7), 2, max_len=2, aux_dim=2)
    T = symbol_to_operator(sym, table, 0.9, 7)
    assert T.matrix.shape == (510, 510)
    path, indented = tmp_path / "op.json", tmp_path / "op_indented.json"
    dense = tmp_path / "op_dense.json"
    dump_json(operator_to_json(T), path)
    assert path.read_text().count("\n") == 1
    nonzero = np.count_nonzero(_bits(T.matrix).reshape(-1, 2).any(axis=1))
    assert 0 < nonzero and len(load_json(path)["index"]) == nonzero
    back = operator_from_json(load_json(path), table)
    assert (back.model, back.aux_dim) == (truncated_model(table, 7), 2)
    assert np.array_equal(_bits(back.matrix), _bits(T.matrix))

    with open(indented, "w") as fh:
        json.dump(operator_to_json(T), fh, indent=2, sort_keys=True)
    assert load_json(indented) == load_json(path)
    old = operator_from_json(load_json(indented), table)
    assert np.array_equal(_bits(old.matrix), _bits(T.matrix))

    dump_json({**matrix_to_json(T.matrix), "aux_dim": 2, "n": 2, "N": 7}, dense)
    assert path.stat().st_size < dense.stat().st_size / 10
    with pytest.raises(ValueError, match="operator file has no index"):
        operator_from_json(load_json(dense), table)
