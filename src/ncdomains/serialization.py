"""JSON file formats shared by the CLI and the library.

Words are integer arrays ([] is the empty word).  Matrices are
{rows, cols, aux_dim, data} with data a row-major list of [re, im] pairs.
Symbols are {aux_dim, A: [{word, block}], B: [{word, block}]} with blocks
nested [re, im] arrays.  Operator tuples are {n, dim, matrices: [...]}.
"""
from __future__ import annotations

import json

import numpy as np

from .berezin import OperatorTuple
from .fock import TruncatedFockBasis, TruncatedOperator
from .toeplitz import MultiToeplitzSymbol
from .weights import DomainSpec


def matrix_to_json(M: np.ndarray, aux_dim: int = 1) -> dict:
    rows, cols = M.shape
    data = [[float(v.real), float(v.imag)] for v in M.reshape(-1)]
    return {"rows": rows, "cols": cols, "aux_dim": aux_dim, "data": data}


def matrix_from_json(obj: dict) -> tuple[np.ndarray, int]:
    """Parse the matrix_to_json() form; malformed data raise ValueError."""
    try:
        rows, cols = obj["rows"], obj["cols"]
        flat = np.array([complex(re, im) for re, im in obj["data"]])
        return flat.reshape(rows, cols), obj.get("aux_dim", 1)
    except TypeError as exc:
        raise ValueError(f"malformed matrix: {exc}") from None


def operator_to_json(T: TruncatedOperator) -> dict:
    obj = matrix_to_json(T.matrix, T.aux_dim)
    obj["n"] = T.basis.n
    obj["N"] = T.basis.N
    return obj


def operator_from_json(obj: dict) -> TruncatedOperator:
    M, aux = matrix_from_json(obj)
    basis = TruncatedFockBasis.build(obj["n"], obj["N"])
    return TruncatedOperator(basis, M, aux)


def _block_to_json(blk: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in blk]


def _block_from_json(rows: list) -> np.ndarray:
    try:
        return np.array([[complex(re, im) for re, im in row] for row in rows])
    except TypeError as exc:
        raise ValueError(f"malformed block: {exc}") from None


def symbol_to_json(sym: MultiToeplitzSymbol) -> dict:
    return {
        "aux_dim": sym.aux_dim,
        "A": [{"word": list(w), "block": _block_to_json(b)} for w, b in sorted(sym.A.items())],
        "B": [{"word": list(w), "block": _block_to_json(b)} for w, b in sorted(sym.B.items())],
    }


def symbol_from_json(obj: dict) -> MultiToeplitzSymbol:
    A = {tuple(e["word"]): _block_from_json(e["block"]) for e in obj.get("A", [])}
    B = {tuple(e["word"]): _block_from_json(e["block"]) for e in obj.get("B", [])}
    return MultiToeplitzSymbol(obj.get("aux_dim", 1), A, B)


def tuple_to_json(X: OperatorTuple) -> dict:
    return {
        "n": X.spec.n,
        "dim": X.dim,
        "spec": X.spec.to_json(),
        "matrices": [matrix_to_json(M) for M in X.matrices],
    }


def tuple_from_json(obj: dict, spec: DomainSpec | None = None) -> OperatorTuple:
    if spec is None:
        spec = DomainSpec.from_json(obj["spec"])
    mats = [matrix_from_json(m)[0] for m in obj["matrices"]]
    return OperatorTuple(spec, mats)


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def dump_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
