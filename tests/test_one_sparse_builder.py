"""Block-pattern matrices are built in one place.

`laplacian.block_sparse` sorts the block coordinates once and returns
canonical BSR, with duplicates summed and explicit zeros kept; the sheaf
Laplacian, the incidence operator, S L S and the compressed normalized
operator all go through it, and the package applies them as BSR.
A sparse-matrix constructor called anywhere else in the package would bring
back a second assembler, with its own entry order and its own handling of
duplicates and explicit zeros.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "otsheaf"

CONSTRUCTORS = {"coo_matrix", "csr_matrix", "csc_matrix", "bsr_matrix",
                "coo_array", "csr_array", "csc_array", "bsr_array"}
BUILDER = "block_sparse"


def _constructor_name(call: ast.Call) -> str | None:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)
    return name if name in CONSTRUCTORS else None


def stray_constructors(source: str, filename: str) -> list[str]:
    """file:line of every sparse constructor call outside block_sparse."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name == BUILDER
        if isinstance(node, ast.Call) and not inside and _constructor_name(node):
            found.append(f"{filename}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source, filename), False)
    return found


def test_scan_flags_hand_written_assemblers():
    # the two COO assemblers the builder replaced, in to_csr and in the
    # compressed normalized operator; annotations name types, not calls
    src = ("import scipy.sparse as sp\n"
           "def block_sparse(rows, cols, blocks, n_rows, n_cols):\n"
           "    return sp.bsr_matrix((blocks, cols, rows)).tocsr()\n"
           "class SheafLaplacian:\n"
           "    _csr: sp.csr_matrix | None = None\n"
           "    def to_csr(self) -> sp.csr_matrix:\n"
           "        coo = sp.coo_matrix((data, (rows, cols)))\n"
           "        return coo.tocsr()\n"
           "def _compressed_normalized(L):\n"
           "    return sp.coo_matrix((v, (r, c)), shape=(k, k)).tocsr()\n")
    assert stray_constructors(src, "probe.py") == ["probe.py:7", "probe.py:10"]


def test_package_builds_block_patterns_in_one_place():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = [hit for path in files
             for hit in stray_constructors(path.read_text(), path.name)]
    assert found == []
