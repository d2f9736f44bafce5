"""Source guards: imports happen at module level in the library, no file
imports a name it never uses, no library file folds residuals with
`x = max(x, ...)`, only serialization.py reads or writes files, and files
are written by the C JSON encoder."""
import ast
import json
import json.encoder
from pathlib import Path

import numpy as np
import pytest

from ncdomains.cli import main
from ncdomains.corpus import mixed_spec
from ncdomains.serialization import dump_json, operator_to_json
from ncdomains.toeplitz import MultiToeplitzSymbol, symbol_to_operator
from ncdomains.weights import weights_by_factorization

ROOT = Path(__file__).resolve().parent.parent


def _function_imports(source: str) -> list[int]:
    """Lines of import statements inside a function body."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines += [sub.lineno for sub in ast.walk(node)
                      if isinstance(sub, (ast.Import, ast.ImportFrom))]
    return sorted(set(lines))


def _unused_imports(source: str) -> list[str]:
    """Imported names that are neither read anywhere in the file nor listed
    in __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return sorted(name for name in imported if name not in used)


def test_no_function_level_imports_in_library():
    assert _function_imports(
        "import os\n"
        "def f():\n"
        "    from .toeplitz import symbol_to_operator\n"
        "    def g():\n"
        "        import json\n"
        "class C:\n"
        "    def m(self):\n"
        "        import sys\n") == [3, 5, 8]
    src = ROOT / "src" / "ncdomains"
    found = {p.name: _function_imports(p.read_text()) for p in sorted(src.glob("*.py"))}
    assert not any(found.values()), {k: v for k, v in found.items() if v}


def test_no_unused_imports():
    assert _unused_imports(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .words import EMPTY, Word, reverse\n"
        "from .fock import spectral_norm\n"
        "__all__ = ['spectral_norm']\n"
        "def f(w: Word):\n"
        "    return np.zeros(len(reverse(w)))\n") == ["EMPTY", "os"]
    files = [p for d in ("src", "tests", "scripts") for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(files) > 20
    found = {str(p.relative_to(ROOT)): _unused_imports(p.read_text()) for p in files}
    assert not any(found.values()), {k: v for k, v in found.items() if v}


ARITHMETIC_DUNDERS = {f"__{side}{op}__" for side in ("", "r", "i") for op in (
    "add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "pow")} | {"__neg__", "__pos__"}


def _operator_arithmetic(source: str, cls: str = "TruncatedOperator") -> list[str]:
    """Arithmetic dunders and adjoint defined or assigned in the body of cls."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [item.name]
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                found += [n for n in names if n in ARITHMETIC_DUNDERS or n == "adjoint"]
    return found


def test_truncated_operator_has_no_arithmetic():
    """Model operators are assembled by TruncatedModel.operator alone; the
    class carries a matrix, its blocks and its norm, and no second algebra."""
    assert _operator_arithmetic(
        "class TruncatedOperator:\n"
        "    def block(self): pass\n"
        "    def __matmul__(self, o): pass\n"
        "    def adjoint(self): pass\n"
        "    __rmul__ = __mul__ = None\n"
        "class Other:\n"
        "    def __add__(self, o): pass\n") == ["__matmul__", "adjoint", "__rmul__", "__mul__"]
    src = ROOT / "src" / "ncdomains"
    found = {p.name: _operator_arithmetic(p.read_text()) for p in sorted(src.glob("*.py"))}
    assert not any(found.values()), {k: v for k, v in found.items() if v}


def _max_folds(source: str) -> list[int]:
    """Lines that rebind a name to the builtin max with that name first,
    `x = max(x, ...)`: it drops a NaN case, since max(0.0, nan) is 0.0."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name) and node.value.func.id == "max"
            and node.value.args and isinstance(node.value.args[0], ast.Name)
            and node.value.args[0].id == node.targets[0].id]


def test_no_max_folds_in_library():
    """A check's cases are folded once, by VerificationReport.check or np.max."""
    assert _max_folds(
        "worst = 0.0\n"
        "for x in xs:\n"
        "    worst = max(worst, x)\n"
        "    best = max(worst, x)\n"
        "    worst = np.max(worst, x)\n"
        "    n = max(1, min(2, n))\n"
        "def f(a, b):\n"
        "    a = max(a, b, 0.0)\n") == [3, 8]
    src = ROOT / "src" / "ncdomains"
    found = {p.name: _max_folds(p.read_text()) for p in sorted(src.glob("*.py"))}
    assert not any(found.values()), {k: v for k, v in found.items() if v}


FORMAT_MODULES = {"json", "csv"}


def _file_access(source: str) -> list[int]:
    """Lines that import json or csv, in any form, or call open, as a
    builtin or as a method."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] in FORMAT_MODULES for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] in FORMAT_MODULES:
                lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "open":
                lines.append(node.lineno)
    return sorted(set(lines))


def test_only_serialization_touches_files():
    """Every file format is decided in serialization.py alone."""
    assert _file_access(
        "import json\n"
        "import os, csv as c\n"
        "from json.decoder import JSONDecodeError\n"
        "from .serialization import dump_json\n"
        "import jsonschema\n"
        "with open(path) as fh:\n"
        "    fh.read()\n"
        "path.open('w')\n"
        "opened = reopen(path)\n") == [1, 2, 3, 6, 8]
    src = ROOT / "src" / "ncdomains"
    found = {p.name: _file_access(p.read_text()) for p in sorted(src.glob("*.py"))}
    assert found.pop("serialization.py")
    assert not any(found.values()), {k: v for k, v in found.items() if v}


def test_dump_json_never_takes_the_pure_python_encoder(tmp_path, monkeypatch):
    """json.dump and any indent run json.encoder._make_iterencode, the
    pure-Python encoder, which is several times slower on operator files."""
    def pure_python_encoder(*args, **kwargs):
        raise AssertionError("pure-Python JSON encoder called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
    with pytest.raises(AssertionError):
        json.dumps({"a": [1.0]}, indent=2)
    table = weights_by_factorization(mixed_spec(1), 3)
    T = symbol_to_operator(MultiToeplitzSymbol.scalar(A={(): 1.0, (1,): 2.0}, B={(2,): 1j}),
                           table, 0.9, 3)
    dump_json(operator_to_json(T), tmp_path / "op.json")
    out = tmp_path / "report.json"
    assert main(["model", "--spec", "mixed_n2_m1", "--max-len", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["summary"]["fail"] == 0
    assert np.isclose(json.loads((tmp_path / "op.json").read_text())["data"][0][0], 1.0)
