"""The benchmark's view of the package must keep resolving.

perfbench/spans.py times layers by replacing module attributes such as
`otsheaf.training.assemble_laplacian`, and perfbench/workloads.py builds
each workload's `TrainConfig` by field name.  A refactor that drops or
renames one of them would make the benchmark fail, so this pins both.
The span inspectors read fields of the package's result types, which only
a traced run exercises, so each workload's tiny shape is run traced too.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name", ["ascent_n40", "lift_n300"])
def test_tiny_traced_run_has_no_errors(name, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    harness = importlib.import_module("harness")
    wl = importlib.import_module("workloads").WORKLOADS[name]
    result = harness.run_workload(wl.tiny(), seed=1, seconds=0.0, trace=True)
    assert result.failed == 0
    assert result.errors == []
    assert result.check_failures == []
