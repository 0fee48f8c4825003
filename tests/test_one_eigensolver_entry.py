"""Eigensolves go through two functions, named by module and qualified name.

`laplacian._extreme_eigs` decomposes an operator densely up to one cutoff
and runs seeded ARPACK, shifted at the low end, above it.
`laplacian.SheafLaplacian.block_eigh` decomposes the (n, d, d) stack of an
operator's diagonal blocks once and keeps the result for every reader.  A
direct call of an eigensolver anywhere else in the package would bring back
a second cutoff, an unseeded ARPACK start or a second decomposition of the
same blocks.  A function is allowed by its module and its qualified name,
so a same-named function in another module or class is not.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "otsheaf"

SOLVERS = {"eigh", "eigvalsh", "eigsh", "eigs", "lobpcg"}
ALLOWED = {
    ("laplacian", "_extreme_eigs"),               # the operator entry point
    ("laplacian", "SheafLaplacian.block_eigh"),   # the blocks' decomposition
}


def _solver_name(call: ast.Call) -> str | None:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)
    return name if name in SOLVERS else None


def stray_eigensolves(source: str, module: str) -> list[str]:
    """module:line of every solver call outside the allowed functions."""
    found = []

    def visit(node, scope, allowed):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = (*scope, node.name)
            allowed = allowed or (module, ".".join(scope)) in ALLOWED
        if isinstance(node, ast.Call) and not allowed and _solver_name(node):
            found.append(f"{module}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope, allowed)

    visit(ast.parse(source, module), (), False)
    return found


def test_scan_flags_solver_calls_outside_the_entry_point():
    src = ("import numpy as np\n"
           "from scipy.sparse.linalg import eigsh\n"
           "def _extreme_eigs(A):\n"
           "    return eigsh(A, k=1)\n"
           "class SheafLaplacian:\n"
           "    def block_eigh(self):\n"
           "        return np.linalg.eigh(self.diag)\n"
           "def block_eigh(D):\n"
           "    return np.linalg.eigh(D)\n"
           "def lambda_max(L):\n"
           "    return np.linalg.eigvalsh(L.to_dense())[-1]\n"
           "def low_end(A):\n"
           "    return eigsh(A, k=2, which='SA')\n")
    assert stray_eigensolves(src, "laplacian") == [
        "laplacian:9", "laplacian:11", "laplacian:13"]
    # the same functions in another module are not the allowed ones
    assert stray_eigensolves(src, "model") == [
        "model:4", "model:7", "model:9", "model:11", "model:13"]


def test_package_has_one_eigensolver_entry_point():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = [hit for path in files
             for hit in stray_eigensolves(path.read_text(), path.stem)]
    assert found == []
