"""Restriction maps are formed in one place, and the lift stands alone.

`model.restriction_maps` turns transport plans into restriction maps, and
`model.sheaf_laplacian` is the one path from (W_theta, plans) to the sheaf
Laplacian.  A second `restriction*` builder elsewhere in the package could
drift from the one the tape differentiates, and a `transport` module that
imports `laplacian` or `model` would be more than the lift.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "otsheaf"

# modules the lift may not import from
NOT_IMPORTED_BY_TRANSPORT = {"laplacian", "model"}
# (file, function) pairs outside model.py allowed to define restriction*
ALLOWED = {
    # recovers maps from L's off blocks; the benchmark's spans still time it
    # by name, and it goes once they no longer do
    ("laplacian.py", "reassemble_restrictions"),
}


def imported_package_modules(source: str, filename: str) -> set[str]:
    """Names of otsheaf modules the source imports, relatively or not."""
    found = set()
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                names = ([module.split(".")[0]] if module
                         else [a.name for a in node.names])
                found.update(names)
            elif module.startswith("otsheaf."):
                found.add(module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("otsheaf."))
    return found


def stray_restriction_builders(source: str, filename: str) -> list[str]:
    """file:function of every def restriction* outside model.py's allowlist."""
    if filename == "model.py":
        return []
    return [f"{filename}:{node.name}"
            for node in ast.walk(ast.parse(source, filename))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("restriction")
            and (filename, node.name) not in ALLOWED]


def test_scan_flags_package_imports():
    src = ("import numpy as np\n"
           "from .laplacian import SheafIncidence\n"
           "from . import model\n"
           "import otsheaf.graphs\n"
           "from otsheaf.diffusion import cg_solve\n")
    assert imported_package_modules(src, "probe.py") == {
        "laplacian", "model", "graphs", "diffusion"}


def test_scan_flags_restriction_builders_outside_the_model():
    src = ("def restriction_product(P, W):\n"
           "    return W.T @ P\n"
           "def reassemble_restrictions(L, B):\n"
           "    return B\n"
           "def edge_plans(g):\n"
           "    return g\n")
    assert stray_restriction_builders(src, "transport.py") == [
        "transport.py:restriction_product"]
    assert stray_restriction_builders(src, "laplacian.py") == [
        "laplacian.py:restriction_product"]
    assert stray_restriction_builders(src, "model.py") == []


def test_transport_imports_neither_laplacian_nor_model():
    source = (PACKAGE / "transport.py").read_text()
    assert imported_package_modules(source, "transport.py") \
        & NOT_IMPORTED_BY_TRANSPORT == set()


def test_restriction_maps_are_built_in_the_model_alone():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = [hit for path in files
             for hit in stray_restriction_builders(path.read_text(), path.name)]
    assert found == []
