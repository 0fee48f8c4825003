"""The traced benchmark rebinds package names; every one of them must exist.

perfbench/spans.py times layers by replacing module attributes such as
`otsheaf.training.assemble_laplacian`.  A refactor that drops or renames
one of them would make the traced run fail, so this pins the list.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod   # dataclasses resolve their module by name
    spec.loader.exec_module(mod)
    return mod


def test_every_layer_target_resolves():
    targets = _spans_module().layer_targets()
    assert targets
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _, _ in targets
               if not callable(getattr(mod, attr, None))]
    assert missing == []
