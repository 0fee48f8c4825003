"""The benchmark's view of the package must keep resolving.

perfbench/spans.py times layers by replacing module attributes such as
`otsheaf.training.assemble_laplacian`, and perfbench/workloads.py builds
each workload's `TrainConfig` by field name.  A refactor that drops or
renames one of them would make the benchmark fail, so this pins both.
"""

import importlib.util
import sys
from pathlib import Path

from otsheaf import TrainConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod   # dataclasses resolve their module by name
    spec.loader.exec_module(mod)
    return mod


def test_every_layer_target_resolves():
    targets = _perfbench_module("spans").layer_targets()
    assert targets
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _, _ in targets
               if not callable(getattr(mod, attr, None))]
    assert missing == []


def test_every_workload_builds_its_config():
    workloads = _perfbench_module("workloads").WORKLOADS
    assert workloads
    for w in workloads.values():
        assert isinstance(w.config(), TrainConfig)
        assert isinstance(w.tiny().config(), TrainConfig)
