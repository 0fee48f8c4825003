"""Each diagonal block is factored once.

`SheafLaplacian.block_eigh` eigendecomposes every diagonal block D_i
once; the tape's S reads it, and the CG preconditioner forms
(I + dt D_i)^-1 from it (`jacobi_block_preconditioner`).  An explicit
inverse, from numpy or scipy, would bring back a second factorization of
blocks the package has already decomposed, so no `linalg.inv` is called
under src/otsheaf/.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "otsheaf"


def _dotted(node) -> str | None:
    """'np.linalg' for the expression np.linalg, None past a call or index."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def inverse_calls(source: str, filename: str) -> list[str]:
    """file:line of every call of a linalg module's inv."""
    tree = ast.parse(source, filename)
    # names bound to inv itself by `from numpy.linalg import inv [as x]`
    bare = {alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").endswith("linalg")
            for alias in node.names if alias.name == "inv"}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "inv":
            owner = _dotted(func.value) or ""
            hit = owner.split(".")[-1] == "linalg"
        else:
            hit = isinstance(func, ast.Name) and func.id in bare
        if hit:
            found.append(node.lineno)
    return [f"{filename}:{line}" for line in sorted(found)]


def test_scan_flags_every_spelling_of_an_inverse():
    src = ("import numpy as np\n"
           "import scipy.linalg\n"
           "from numpy.linalg import inv as block_inv\n"
           "a = np.linalg.inv(m)\n"
           "b = scipy.linalg.inv(m)\n"
           "c = block_inv(m)\n"
           "d = np.linalg.eigh(m)\n"
           "e = np.linalg.solve(m, v)\n"
           "f = tape.inv(m)\n"
           "g = np.linalg.pinv(m)\n")
    assert inverse_calls(src, "probe.py") == ["probe.py:4", "probe.py:5",
                                             "probe.py:6"]


def test_package_calls_no_matrix_inverse():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = [hit for path in files
             for hit in inverse_calls(path.read_text(), path.name)]
    assert found == []
