"""A fit's frozen inputs and its calibration are each derived in one place.

`training.epoch_context` projects the features once, picks a fit's
transport plans (the identity stack for scalar_edge, the lift of the
projection otherwise) and gathers them with the rest of what the loss
holds fixed.  Fitting, evaluation, the stability metric and the CLI's
operator dump all go through it.  A context, a projection or a lift built
by hand anywhere else would be a second derivation that can drift from
the one training uses, as a drift metric that always lifted once did on
scalar_edge fits.

`training.calibrate` is the one stage from predictions to calibrated
probabilities (Beta posterior, node trust, calibration); an epoch and
`evaluate` both run it, and the loss reads the array it forms.  A second
posterior-to-calibration sequence is how the loss and the reports once
came to use two roundings of the calibrated formula.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "otsheaf"

SCANNED = ("training.py", "cli.py")
BUILDERS = {"EpochContext": "epoch_context", "edge_plans": "epoch_context",
            "projected_features": "epoch_context"}
STAGE = {"posterior_update": "calibrate", "node_kappa": "calibrate",
         "calibrate_prediction": "calibrate"}


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)


def stray_builds(source: str, filename: str,
                 builders: dict = BUILDERS) -> list[str]:
    """file:line of every call of a builders key outside its builder."""
    found = []

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = node.name
        if isinstance(node, ast.Call):
            name = _callee(node)
            if name in builders and enclosing != builders[name]:
                found.append(f"{filename}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source, filename), None)
    return found


def test_scan_flags_hand_built_inputs():
    # the builder itself passes; a hand-built context, projection and lift
    # in another function are flagged, and so is a nested function that
    # only shares the builder's name
    src = ("def epoch_context(data, W_proj, cfg, variant):\n"
           "    X0 = projected_features(data.feats.H, W_proj)\n"
           "    plans = edge_plans(data.g.edges, X0, eps)\n"
           "    return EpochContext(n=data.g.n, plans=plans, X0=X0)\n"
           "def stability_metric(params_t, params_0, data, cfg):\n"
           "    X0 = transport.projected_features(H, params_0.W_proj)\n"
           "    plans = transport.edge_plans(edges, X0, eps)\n"
           "    ctx = EpochContext(n=g.n, plans=plans, X0=X0)\n"
           "    return ctx\n"
           "def mixed(data):\n"
           "    def run():\n"
           "        return EpochContext(n=1)\n")
    assert stray_builds(src, "probe.py") == [
        "probe.py:6", "probe.py:7", "probe.py:8", "probe.py:12"]


def test_fit_inputs_built_in_one_place():
    found = [hit for name in SCANNED
             for hit in stray_builds((PACKAGE / name).read_text(), name)]
    assert found == []


def test_scan_flags_calibration_outside_the_stage():
    src = ("def calibrate(probs, data, cfg):\n"
           "    post = posterior_update(cfg.a0, cfg.b0, probs, g, y, mask)\n"
           "    kappa = node_kappa(post, g)\n"
           "    return calibrate_prediction(probs, kappa)\n"
           "def evaluate(params, data, cfg):\n"
           "    post = calibration.posterior_update(1.0, 1.0, p, g, y, mask)\n"
           "    return calibrate_prediction(p, node_kappa(post, g))\n")
    assert stray_builds(src, "probe.py", STAGE) == [
        "probe.py:6", "probe.py:7", "probe.py:7"]


def test_calibration_runs_in_one_stage():
    source = (PACKAGE / "training.py").read_text()
    assert stray_builds(source, "training.py", STAGE) == []
