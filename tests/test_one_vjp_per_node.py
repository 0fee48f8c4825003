"""The tape alone decides which inputs are differentiated.

Each `autodiff.Var` holds its parents and one VJP, and liveness is fixed
when a node is built: a plain array or a constant `Var` is simply listed
as a parent.  A memo shared by per-parent VJPs (`shared_vjp`), a model
primitive that asks whether an input is a `Var`, or a module that walks
`Var.parents` itself would be a second place making that decision.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "otsheaf"


def names_used(source: str, filename: str) -> set[str]:
    """Every identifier the source defines, imports, reads or writes."""
    found = set()
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
    return found


def var_type_checks(source: str, filename: str) -> list[int]:
    """Line numbers of isinstance(..., Var) calls, Var alone or in a tuple."""
    lines = []
    for node in ast.walk(ast.parse(source, filename)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        kinds = node.args[1]
        elts = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
        if any(isinstance(e, ast.Name) and e.id == "Var" for e in elts):
            lines.append(node.lineno)
    return lines


def parents_reads(source: str, filename: str) -> list[int]:
    """Line numbers of every `.parents` attribute access."""
    return [node.lineno for node in ast.walk(ast.parse(source, filename))
            if isinstance(node, ast.Attribute) and node.attr == "parents"]


def test_scan_flags_each_pattern():
    src = ("from .autodiff import shared_vjp\n"
           "def f(x, node):\n"
           "    a = isinstance(x, Var)\n"
           "    b = isinstance(x, (np.ndarray, Var))\n"
           "    c = isinstance(x, np.ndarray)\n"
           "    path.mkdir(parents=True)\n"
           "    return node.parents\n")
    assert "shared_vjp" in names_used(src, "probe.py")
    assert var_type_checks(src, "probe.py") == [3, 4]
    assert parents_reads(src, "probe.py") == [7]


def test_no_shared_vjp_in_the_package():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    assert [p.name for p in files
            if "shared_vjp" in names_used(p.read_text(), p.name)] == []


def test_model_never_asks_whether_an_input_is_a_var():
    source = (PACKAGE / "model.py").read_text()
    assert var_type_checks(source, "model.py") == []


def test_only_autodiff_reads_var_parents():
    files = sorted(PACKAGE.glob("*.py"))
    found = {p.name: parents_reads(p.read_text(), p.name) for p in files
             if p.name != "autodiff.py"}
    assert {k: v for k, v in found.items() if v} == {}
    assert parents_reads((PACKAGE / "autodiff.py").read_text(), "autodiff.py")
