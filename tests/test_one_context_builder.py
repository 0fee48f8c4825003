"""A fit's frozen inputs are derived in one place.

`training.run_plans` picks a fit's transport plans (the identity stack for
scalar_edge, the lift otherwise) and `training.epoch_context` gathers them
with the rest of what the loss holds fixed.  Fitting, evaluation, the
stability metric and the CLI's operator dump all go through the two.  A
context or a lift built by hand anywhere else would be a second derivation
that can drift from the one training uses, as a drift metric that always
lifted once did on scalar_edge fits.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "otsheaf"

SCANNED = ("training.py", "cli.py")
BUILDERS = {"EpochContext": "epoch_context", "edge_plans": "run_plans"}


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)


def stray_builds(source: str, filename: str) -> list[str]:
    """file:line of every context or plan build outside its builder."""
    found = []

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = node.name
        if isinstance(node, ast.Call):
            name = _callee(node)
            if name in BUILDERS and enclosing != BUILDERS[name]:
                found.append(f"{filename}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source, filename), None)
    return found


def test_scan_flags_hand_built_inputs():
    # the builders themselves pass; a hand-built context and a lift in
    # another function are flagged, and so is a context built in run_plans
    src = ("def run_plans(data, W_proj, cfg, variant):\n"
           "    return edge_plans(data.g.edges, data.feats.H, W_proj, eps)\n"
           "def epoch_context(data, plans, X0, cfg):\n"
           "    return EpochContext(n=data.g.n, plans=plans, X0=X0)\n"
           "def stability_metric(params_t, params_0, data, cfg):\n"
           "    plans = transport.edge_plans(edges, H, params_0.W_proj, eps)\n"
           "    ctx = EpochContext(n=g.n, plans=plans, X0=X0)\n"
           "    return ctx\n"
           "def mixed(data):\n"
           "    def run_plans():\n"
           "        return EpochContext(n=1)\n")
    assert stray_builds(src, "probe.py") == [
        "probe.py:6", "probe.py:7", "probe.py:11"]


def test_fit_inputs_built_in_one_place():
    found = [hit for name in SCANNED
             for hit in stray_builds((PACKAGE / name).read_text(), name)]
    assert found == []
