"""Three-operand einsums stay out of the package.

numpy's einsum contracts three operands in one nested loop without BLAS;
at d=16 that is about 80x slower than the equivalent chain of matmuls, so
every such contraction is written with `@`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "otsheaf"


def _einsum_operands(call: ast.Call) -> int | None:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "einsum":
        return len(call.args) - 1   # the first argument is the subscripts
    return None


def three_operand_einsums(source: str, filename: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Call):
            operands = _einsum_operands(node)
            if operands is not None and operands >= 3:
                found.append(f"{filename}:{node.lineno}")
    return found


def test_scan_flags_a_three_operand_call():
    src = ("import numpy as np\n"
           "a = np.einsum('ab,bc->ac', x, y)\n"
           "b = np.einsum('ab,bc,cd->ad', x, y, z)\n")
    assert three_operand_einsums(src, "probe.py") == ["probe.py:3"]


def test_package_has_no_three_operand_einsum():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = [hit for path in files
             for hit in three_operand_einsums(path.read_text(), path.name)]
    assert found == []
