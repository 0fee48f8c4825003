"""No module of the package imports scipy.special, and no run loads it.

Importing scipy.special costs every process about 3.4 MB and 0.1 s.  The
package's only special functions, ln Gamma and psi for the Beta KL in
`calibration` and the log-sum-exp of the dense `sinkhorn` in `transport`,
are evaluated in numpy.  The scan flags `import scipy.special`,
`from scipy.special import ...` and `from scipy import special`; the run
in a fresh interpreter catches an import that arrives through another
module.  The tests of those functions use scipy.special as their oracle.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "otsheaf"


def _is_special(name: str) -> bool:
    return name == "scipy.special" or name.startswith("scipy.special.")


def special_imports(source: str, module: str) -> list[str]:
    """module:line of every statement that imports scipy.special."""
    found = []
    for node in ast.walk(ast.parse(source, module)):
        if isinstance(node, ast.Import):
            hit = any(_is_special(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            hit = _is_special(node.module) or node.module == "scipy" and any(
                alias.name == "special" for alias in node.names)
        else:
            continue
        if hit:
            found.append(f"{module}:{node.lineno}")
    return found


def test_scan_flags_planted_imports():
    src = ("import numpy as np\n"
           "import scipy.sparse as sp\n"
           "import scipy.special\n"
           "from scipy.special import digamma\n"
           "from scipy import sparse, special\n"
           "from scipy.sparse.linalg import eigsh\n"
           "from . import special\n"
           "def f():\n"
           "    import scipy.special._ufuncs as u\n"
           "    return u\n")
    assert special_imports(src, "calibration") == [
        "calibration:3", "calibration:4", "calibration:5", "calibration:9"]


def test_package_imports_no_scipy_special():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = [hit for path in files
             for hit in special_imports(path.read_text(), path.stem)]
    assert found == []


# Fits and scores both variants on a tiny graph, then one epoch on the
# lift_n300 shape (n * d_v = 4800 is above DENSE_CUTOFF, so the gap
# estimate runs ARPACK), and prints every scipy.special module loaded.
RUN = """
import sys

from otsheaf import (Dataset, TrainConfig, evaluate, fit, make_split,
                     synthetic_dataset)


def dataset(n, classes, d0, per_class, seed):
    g, feats, labels = synthetic_dataset(n=n, num_classes=classes, d0=d0,
                                         seed=seed)
    return Dataset(g, feats, labels, make_split(labels, per_class, seed))


tiny = dataset(24, 3, 6, 3, 0)
for variant in ("we_lift", "scalar_edge"):
    cfg = TrainConfig(d_v=3, epochs=2, seed=0)
    params, _ = fit(tiny, cfg, variant)
    evaluate(params, tiny, cfg, variant)
data = dataset(300, 5, 64, 20, 1)
cfg = TrainConfig(d_v=16, epochs=1, seed=1)
params, _ = fit(data, cfg)
evaluate(params, data, cfg)
print(sorted(m for m in sys.modules
             if m == "scipy.special" or m.startswith("scipy.special.")))
"""


def test_fit_and_evaluate_load_no_scipy_special():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", RUN], capture_output=True,
                         text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"
