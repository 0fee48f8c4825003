"""Contractions that have a BLAS form stay out of einsum.

numpy's einsum contracts three operands in one nested loop without BLAS;
at d=16 that is about 80x slower than the equivalent chain of matmuls, so
every such contraction is written with `@`.  The same holds for two
operands of three or more subscripts each that sum an index: the batched
Gram product "eab,eac->ebc" is a stacked matmul, and at m=890, d=16 on one
core it takes 2.8 ms through einsum against 0.2 to 0.4 ms through `@`.
Einsums that only multiply (outer products) or that reduce against a
vector or matrix stay allowed.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "otsheaf"


def _einsum_call(call: ast.Call) -> bool:
    func = call.func
    return isinstance(func, ast.Attribute) and func.attr == "einsum"


def _summed_batched_pair(subscripts: str) -> bool:
    """Two operands of >= 3 subscripts each, and an index summed away."""
    inputs, arrow, output = subscripts.replace(" ", "").partition("->")
    operands = [op.replace("...", "") for op in inputs.split(",")]
    letters = "".join(operands)
    if not arrow:   # implicit output: the indices that occur once
        output = "".join(c for c in letters if letters.count(c) == 1)
    summed = set(letters) - set(output)
    return (len(operands) == 2 and all(len(op) >= 3 for op in operands)
            and bool(summed))


def _subscripts(call: ast.Call) -> str | None:
    spec = call.args[0] if call.args else None
    if isinstance(spec, ast.Constant) and isinstance(spec.value, str):
        return spec.value
    return None


def _scan(source: str, filename: str, flag) -> list[str]:
    """file:line of every einsum call for which flag(call) holds."""
    return [f"{filename}:{node.lineno}"
            for node in ast.walk(ast.parse(source, filename))
            if isinstance(node, ast.Call) and _einsum_call(node) and flag(node)]


def three_operand_einsums(source: str, filename: str) -> list[str]:
    # the first argument is the subscripts
    return _scan(source, filename, lambda call: len(call.args) - 1 >= 3)


def batched_gram_einsums(source: str, filename: str) -> list[str]:
    def flag(call):
        spec = _subscripts(call)
        return spec is not None and _summed_batched_pair(spec)
    return _scan(source, filename, flag)


def _package_hits(scan) -> list[str]:
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    return [hit for path in files for hit in scan(path.read_text(), path.name)]


def test_scan_flags_a_three_operand_call():
    src = ("import numpy as np\n"
           "a = np.einsum('ab,bc->ac', x, y)\n"
           "b = np.einsum('ab,bc,cd->ad', x, y, z)\n")
    assert three_operand_einsums(src, "probe.py") == ["probe.py:3"]


def test_scan_flags_a_batched_gram_product():
    src = ("import numpy as np\n"
           "a = np.einsum('eab,eac->ebc', x, x)\n"
           "b = np.einsum('ea,eb->eab', u, v)\n"
           "c = np.einsum('nab,nb->na', m, v)\n"
           "d = np.einsum('ia,ib->iab', u, v)\n"
           "e = np.einsum('eab,ebc', x, y)\n"
           "f = np.einsum('eab,eab->eab', x, y)\n")
    assert batched_gram_einsums(src, "probe.py") == ["probe.py:2",
                                                     "probe.py:6"]


def test_package_has_no_three_operand_einsum():
    assert _package_hits(three_operand_einsums) == []


def test_package_has_no_batched_gram_einsum():
    assert _package_hits(batched_gram_einsums) == []
