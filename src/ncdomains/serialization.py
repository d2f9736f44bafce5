"""Every file format of the CLI and the library: the JSON files, and the CSV
form of a weight table.

Words are integer arrays ([] is the empty word), and an exact rational is
its {numerator, denominator} pair.  A domain spec is {n, m, coefficients:
[{word, numerator, denominator}]}; a weight table is {spec, N, weights:
[{word, numerator, denominator, float_value}]}, or a CSV file with the
columns word, length, numerator, denominator, float_value, its word the
JSON array.  Both list words in the graded order of enumerate_words.

Matrices are {rows, cols, aux_dim, data} with data a row-major list of
[re, im] pairs.  Symbols are {aux_dim, A: [{word, block}], B: [{word, block}]}
with blocks nested [re, im] arrays.  Operator tuples are {n, dim, spec,
matrices: [...]}, the headers n and dim >= 1 matching the matrices; a tuple
read for a given spec must carry that spec.

Operators are sparse: {n, N, aux_dim, rows, cols, index, data}, where index
lists in ascending order the flat row-major position of every entry whose
bits are not all zero, and data holds their [re, im] pairs.  A weighted
multi-Toeplitz operator has entries only at comparable word pairs, so the
file grows with its nonzeros, not with D^2; -0.0, the infinities and NaN are
kept.  Operator files in the dense matrix form, with n and N added, still
load.  An operator file is read against the weight table of its spec, onto
its model, and holds at most MAX_OPERATOR_ROWS rows; the header is checked
before the matrix is allocated.  Tuple matrices are k x k and stay dense:
their reader allocates no more than the file itself holds.

Files are written as compact one-line JSON with sorted keys, through the C
encoder of the json module; the keys are unchanged, and indented files load
the same.  Complex arrays go to and from their [re, im] pairs as float views,
never through arithmetic, so every value, -0.0 and the infinities included,
reads back bit for bit (NaN as NaN).  Malformed input, a word repeated in
a spec or in one part of a symbol included, raises ValueError.
"""
from __future__ import annotations

import csv
import json
from fractions import Fraction

import numpy as np

from .berezin import OperatorTuple
from .fock import TruncatedOperator, truncated_model
from .toeplitz import MultiToeplitzSymbol, check_basis
from .weights import DomainSpec, WeightTable
from .words import Word, enumerate_words, fock_dimension

# An operator file holds at most this many rows: the dense matrix is then at
# most 256 MiB.  A sparse file is not bounded by its own size, as a dense one is.
MAX_OPERATOR_ROWS = 4096


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _count(value, what: str, least: int = 0) -> int:
    if _integer(value, what) < least:
        raise ValueError(f"{what} must be >= {least}, got {value!r}")
    return value


def _word(value) -> tuple:
    return tuple(_integer(letter, "letter") for letter in _list(value, "word"))


def _pairs(a: np.ndarray) -> list:
    """The [re, im] pairs of a, nested as a.shape + (2,)."""
    return np.ascontiguousarray(a, dtype=complex).view(float).reshape(*a.shape, 2).tolist()


def _complex(data, shape: tuple, what: str) -> np.ndarray:
    """The complex array of shape whose [re, im] pairs are data, nested
    exactly as shape + (2,) with numbers only: dtype=float would read null
    as NaN and parse strings."""
    try:
        arr = np.asarray(data)
        if arr.size == 0:          # [] stands for every empty shape
            arr = arr.reshape(*shape, 2)
    except ValueError as exc:
        raise ValueError(f"malformed {what}: {exc}") from None
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"malformed {what}: entries must be numbers")
    arr = arr.astype(float, copy=False)
    if arr.shape != (*shape, 2):
        raise ValueError(f"malformed {what}: expected [re, im] pairs of shape "
                         f"{(*shape, 2)}, got {arr.shape}")
    return arr.view(complex).reshape(shape)


def matrix_to_json(M: np.ndarray, aux_dim: int = 1) -> dict:
    rows, cols = M.shape
    return {"rows": rows, "cols": cols, "aux_dim": aux_dim, "data": _pairs(M.reshape(-1))}


def matrix_from_json(obj: dict) -> tuple[np.ndarray, int]:
    """Parse the matrix_to_json() form; malformed data raise ValueError."""
    obj = _object(obj, "matrix")
    rows, cols = _count(obj["rows"], "rows"), _count(obj["cols"], "cols")
    aux = _count(obj.get("aux_dim", 1), "aux_dim", least=1)
    return _complex(obj["data"], (rows * cols,), "matrix").reshape(rows, cols), aux


def operator_to_json(T: TruncatedOperator) -> dict:
    """The sparse form: every entry whose bits are not all zero."""
    rows, cols = T.matrix.shape
    flat = np.ascontiguousarray(T.matrix, dtype=complex).reshape(-1)
    index = np.flatnonzero(flat.view(np.uint64).reshape(-1, 2).any(axis=1))
    return {"n": T.model.n, "N": T.model.N, "aux_dim": T.aux_dim,
            "rows": rows, "cols": cols, "index": index.tolist(),
            "data": _pairs(flat[index])}


def _positions(value, size: int) -> np.ndarray:
    """The sparse form's index: flat positions in 0..size-1, ascending."""
    value = _list(value, "index")
    index = np.asarray(value)
    if index.size == 0:
        return index.astype(np.intp)
    # numpy reads true as 1 among integers
    if index.ndim != 1 or index.dtype.kind != "i" or any(type(v) is bool for v in value):
        raise ValueError(f"malformed index: entries must be integers in 0..{size - 1}")
    if np.any(np.diff(index) <= 0):
        raise ValueError("malformed index: entries must be strictly ascending")
    if index[0] < 0 or index[-1] >= size:
        raise ValueError(f"malformed index: entries must be integers in 0..{size - 1}")
    return index


def operator_from_json(obj: dict, table: WeightTable) -> TruncatedOperator:
    """Parse either operator form onto the model truncated_model(table, N).
    The header is checked, against the basis dimension, MAX_OPERATOR_ROWS
    and the weight table, before the matrix is allocated or the model built:
    a small sparse file can declare a huge shape."""
    obj = _object(obj, "operator")
    rows, cols = _count(obj["rows"], "rows"), _count(obj["cols"], "cols")
    aux = _count(obj.get("aux_dim", 1), "aux_dim", least=1)
    n, N = _count(obj["n"], "n"), _count(obj["N"], "N")
    # for n >= 2 the dimension exceeds 2^N, so a depth of rows.bit_length()
    # or more cannot match and its dimension is never formed
    if ((n >= 2 and N >= rows.bit_length()) or rows != cols
            or fock_dimension(n, N) * aux != rows):
        raise ValueError(f"matrix shape {(rows, cols)} inconsistent with n = {n}, "
                         f"N = {N}, aux_dim = {aux}")
    check_basis(n, N, table)
    if rows > MAX_OPERATOR_ROWS:
        raise ValueError(f"operator has {rows} rows, more than the "
                         f"{MAX_OPERATOR_ROWS} an operator file may hold")
    if "index" in obj:
        index = _positions(obj["index"], rows * cols)
        values = _complex(obj["data"], index.shape, "operator data")
        M = np.zeros(rows * cols, dtype=complex)
        M[index] = values
        M = M.reshape(rows, cols)
    else:
        M, _ = matrix_from_json(obj)
    return TruncatedOperator(truncated_model(table, N), M, aux)


def symbol_to_json(sym: MultiToeplitzSymbol) -> dict:
    return {
        "aux_dim": sym.aux_dim,
        "A": [{"word": list(w), "block": _pairs(b)} for w, b in sorted(sym.A.items())],
        "B": [{"word": list(w), "block": _pairs(b)} for w, b in sorted(sym.B.items())],
    }


def symbol_from_json(obj: dict) -> MultiToeplitzSymbol:
    obj = _object(obj, "symbol")
    d = _count(obj.get("aux_dim", 1), "aux_dim", least=1)

    def part(key: str) -> dict:
        blocks = {}
        for e in _list(obj.get(key, []), key):
            e = _object(e, "symbol entry")
            w = _word(e["word"])
            if w in blocks:
                raise ValueError(f"word {list(w)} repeats in symbol part {key}")
            blocks[w] = _complex(e["block"], (d, d), "block")
        return blocks

    return MultiToeplitzSymbol(d, part("A"), part("B"))


def _rational(w: Word, v: Fraction) -> dict:
    """One word-plus-rational entry: a spec coefficient or a table row."""
    return {"word": list(w), "numerator": v.numerator, "denominator": v.denominator}


def spec_to_json(spec: DomainSpec) -> dict:
    coeffs = sorted(spec.coefficients.items(), key=lambda t: (len(t[0]), t[0]))
    return {"n": spec.n, "m": spec.m, "coefficients": [_rational(w, a) for w, a in coeffs]}


def spec_from_json(obj: dict) -> DomainSpec:
    """Parse the spec_to_json() form; a missing denominator is 1."""
    obj = _object(obj, "spec")
    coeffs = {}
    for entry in _list(obj["coefficients"], "coefficients"):
        entry = _object(entry, "coefficient")
        w = _word(entry["word"])
        if w in coeffs:
            raise ValueError(f"word {list(w)} repeats in coefficients")
        denominator = _integer(entry.get("denominator", 1), "denominator")
        if denominator == 0:
            raise ValueError(f"zero denominator at word {list(w)}")
        coeffs[w] = Fraction(_integer(entry["numerator"], "numerator"), denominator)
    return DomainSpec(_integer(obj["n"], "n"), _integer(obj["m"], "m"), coeffs)


def _weights(table: WeightTable) -> list[dict]:
    """The table's rows in the graded order of enumerate_words."""
    return [{**_rational(w, table.b[w]), "float_value": float(table.b[w])}
            for w in enumerate_words(table.spec.n, table.N)]


def table_to_json(table: WeightTable) -> dict:
    return {"spec": spec_to_json(table.spec), "N": table.N, "weights": _weights(table)}


def table_to_csv(table: WeightTable, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["word", "length", "numerator", "denominator", "float_value"])
        for row in _weights(table):
            writer.writerow([json.dumps(row["word"]), len(row["word"]), row["numerator"],
                             row["denominator"], row["float_value"]])


def tuple_to_json(X: OperatorTuple) -> dict:
    return {
        "n": X.spec.n,
        "dim": X.dim,
        "spec": spec_to_json(X.spec),
        "matrices": [matrix_to_json(M) for M in X.matrices],
    }


def tuple_from_json(obj: dict, spec: DomainSpec | None = None) -> OperatorTuple:
    """Parse the tuple_to_json() form; the n and dim headers must match the
    matrices, and the file's spec must equal spec when one is given."""
    obj = _object(obj, "operator tuple")
    n, dim = _count(obj["n"], "n"), _count(obj["dim"], "dim", least=1)
    own = spec_from_json(obj["spec"])
    if spec is None:
        spec = own
    elif own != spec:
        raise ValueError("the tuple file's spec differs from the given spec")
    mats = [matrix_from_json(m)[0] for m in _list(obj["matrices"], "matrices")]
    if len(mats) != n:
        raise ValueError(f"tuple declares n = {n} but holds {len(mats)} matrices")
    for M in mats:
        if M.shape != (dim, dim):
            raise ValueError(f"tuple declares dim = {dim} but holds a {M.shape} matrix")
    return OperatorTuple(spec, mats)


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def dump_json(obj, path) -> None:
    """Write obj as one line of JSON with sorted keys.  json.dumps without
    indent is the only call that takes the C encoder; json.dump and any
    indent run the pure-Python one."""
    text = json.dumps(obj, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")
