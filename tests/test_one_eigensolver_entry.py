"""Eigensolves on an operator go through one entry point.

`laplacian._extreme_eigs` decomposes an operator densely up to one cutoff
and runs seeded ARPACK, shifted at the low end, above it.  A direct call of
an eigensolver anywhere else in the package would bring back a second
cutoff or an unseeded ARPACK start.  Per-block decompositions of (n, d, d)
stacks are not eigensolves on an operator; the functions that make them
are listed by name.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "otsheaf"

SOLVERS = {"eigh", "eigvalsh", "eigsh", "eigs", "lobpcg"}
ALLOWED = {
    "_extreme_eigs",            # the entry point
    "_block_isqrt",             # per-block eigh of the diagonal blocks
    "_compressed_normalized",   # the same, for the compressed operator
    "jacobi_block_preconditioner",  # the same, when L carries no diag_eigh
    "_gradcheck_fixture",       # per-block eigvalsh of a fixture's blocks
}


def _solver_name(call: ast.Call) -> str | None:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)
    return name if name in SOLVERS else None


def stray_eigensolves(source: str, filename: str) -> list[str]:
    """file:line of every solver call outside the allowed functions."""
    found = []

    def visit(node, allowed):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            allowed = allowed or node.name in ALLOWED
        if isinstance(node, ast.Call) and not allowed and _solver_name(node):
            found.append(f"{filename}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, allowed)

    visit(ast.parse(source, filename), False)
    return found


def test_scan_flags_solver_calls_outside_the_entry_point():
    src = ("import numpy as np\n"
           "from scipy.sparse.linalg import eigsh\n"
           "def _extreme_eigs(A):\n"
           "    return eigsh(A, k=1)\n"
           "def _block_isqrt(D):\n"
           "    return np.linalg.eigh(D)\n"
           "def lambda_max(L):\n"
           "    return np.linalg.eigvalsh(L.to_dense())[-1]\n"
           "def low_end(A):\n"
           "    return eigsh(A, k=2, which='SA')\n")
    assert stray_eigensolves(src, "probe.py") == ["probe.py:8", "probe.py:10"]


def test_package_has_one_eigensolver_entry_point():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = [hit for path in files
             for hit in stray_eigensolves(path.read_text(), path.name)]
    assert found == []
