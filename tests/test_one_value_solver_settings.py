"""A solver setting that has one value in use is a module constant.

No fit, check, command or demo gives the Wolfe step, `project`, the
eigensolver's dense cutoff, the block null cutoff, the posterior's sweep
budget, the lift's tolerances and measure floor, or the sparsifier's
leverage sketch a second value, so each is a named constant that its
function reads at call time, and a test that needs another value
monkeypatches it.  A
config class or a parameter for one of them would bring back a knob that
cannot change a result.  The block null cutoff is read in `_block_frames`
alone: the tape's S and the gap estimate's T both come from there, so the
estimate describes the operator the tape built.  The gap ascent's step
count is no config key, so nothing in `src/` or `demos/` names
`gap_steps` but `TrainConfig`, whose deprecated constructor argument the
benchmark's ascent workload still passes, and `train_epoch`, which
reads it.

The same holds for the acceptance checks' fixtures and the scoring
helpers' settings: no check and no shared fixture run takes a parameter,
and `ece`'s bin count, the contraction slack and the sweep's variants are
no parameters either.  Trainer defaults live only in `TrainConfig`, so the
functions it feeds declare no default for a value it holds.
"""

import ast
import inspect
from pathlib import Path

from otsheaf import verify
from otsheaf.calibration import kl_term, posterior_update
from otsheaf.diffusion import CGConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "otsheaf"

CLASSES = {"WolfeConfig", "DiffusionConfig", "LiftConfig",
           "SparsifierConfig"}
PARAMETERS = {"dense_cutoff", "cutoff_rel", "max_rounds", "max_sweeps",
              "inner_steps", "floor", "probes", "sample_scale", "bins",
              "slack", "variants"}
BLOCK_CUTOFF = "BLOCK_CUTOFF_REL"
BLOCK_CUTOFF_READER = "_block_frames"
GAP_STEPS = "gap_steps"
GAP_STEPS_OWNERS = {"TrainConfig", "train_epoch"}


def stray_settings(source: str, filename: str) -> list[str]:
    """file:line of every settings class and every parameter for a constant."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ClassDef) and node.name in CLASSES:
            found.append(f"{filename}:{node.lineno}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs):
                if arg.arg in PARAMETERS:
                    found.append(f"{filename}:{arg.lineno}")
    return found


def block_cutoff_reads(source: str, filename: str) -> list[str]:
    """file:line of every read of the block null cutoff outside its reader."""
    found = []

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = node.name
        read = ((isinstance(node, ast.Name) and node.id == BLOCK_CUTOFF
                 and isinstance(node.ctx, ast.Load))
                or (isinstance(node, ast.Attribute)
                    and node.attr == BLOCK_CUTOFF
                    and isinstance(node.ctx, ast.Load)))
        if read and enclosing != BLOCK_CUTOFF_READER:
            found.append(f"{filename}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source, filename), None)
    return found


def gap_steps_names(source: str, filename: str) -> list[str]:
    """file:line of every gap_steps name, keyword, argument or string
    outside TrainConfig and train_epoch."""
    found = []

    def visit(node):
        if (isinstance(node, (ast.ClassDef, ast.FunctionDef))
                and node.name in GAP_STEPS_OWNERS):
            return
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.arg if isinstance(node, (ast.arg, ast.keyword))
                else node.value if isinstance(node, ast.Constant)
                else None)
        if name == GAP_STEPS:
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source, filename))
    return [f"{filename}:{line}" for line in sorted(found)]


def _package_hits(scan) -> list[str]:
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    return [hit for path in files for hit in scan(path.read_text(), path.name)]


def test_scan_flags_settings_classes_and_parameters():
    src = ("from dataclasses import dataclass\n"
           "@dataclass\n"
           "class WolfeConfig:\n"
           "    c_w: float = 0.1\n"
           "def project(L, dense_cutoff=1000,\n"
           "            *, max_rounds=3):\n"
           "    return L\n"
           "def run_gap_ascent(L, steps, seed=0):\n"
           "    return L\n"
           "update = lambda prior, max_sweeps=10: prior\n")
    assert stray_settings(src, "probe.py") == [
        "probe.py:3", "probe.py:5", "probe.py:6", "probe.py:10"]


def test_scan_flags_block_cutoff_reads_outside_its_reader():
    src = ("BLOCK_CUTOFF_REL = 1e-12\n"
           "def _block_frames(w, V):\n"
           "    return w > BLOCK_CUTOFF_REL\n"
           "def _block_isqrt(diag):\n"
           "    return diag > BLOCK_CUTOFF_REL\n"
           "def isqrt_blocks(diag):\n"
           "    return diag > laplacian.BLOCK_CUTOFF_REL\n")
    assert block_cutoff_reads(src, "probe.py") == ["probe.py:5", "probe.py:7"]


def test_package_has_no_settings_for_one_value_constants():
    assert _package_hits(stray_settings) == []


def test_block_cutoff_is_read_in_one_place():
    assert _package_hits(block_cutoff_reads) == []
    assert "BLOCK_CUTOFF_REL = " in (PACKAGE / "laplacian.py").read_text()


def test_scan_flags_gap_steps_outside_its_owners():
    src = ("from dataclasses import InitVar, dataclass\n"
           "@dataclass\n"
           "class TrainConfig:\n"
           "    gap_steps: InitVar[int] = 0\n"
           "    def __post_init__(self, gap_steps):\n"
           "        self.steps = gap_steps\n"
           "class Other:\n"
           "    gap_steps: int = 0\n"
           "def run(cfg, gap_steps=1):\n"
           "    return cfg.gap_steps, getattr(cfg, 'gap_steps')\n"
           "TrainConfig(gap_steps=2)\n"
           "def train_epoch(state, data, cfg):\n"
           "    return cfg.gap_steps\n")
    assert gap_steps_names(src, "probe.py") == [
        "probe.py:8", "probe.py:9", "probe.py:10", "probe.py:10",
        "probe.py:11"]


def test_no_gap_steps_outside_its_owners():
    files = [*sorted(PACKAGE.glob("*.py")),
             *sorted((ROOT / "demos").glob("*.py"))]
    hits = [hit for path in files
            for hit in gap_steps_names(path.read_text(), path.name)]
    assert hits == []


def test_checks_and_their_shared_run_take_no_parameter():
    fixtures = {**verify.CHECKS, "_synthetic_run": verify._synthetic_run}
    takers = {name: list(inspect.signature(fn).parameters)
              for name, fn in fixtures.items()
              if inspect.signature(fn).parameters}
    assert takers == {}


# each function fed from TrainConfig -> its parameters for TrainConfig values
TRAINER_VALUES = {posterior_update: ("gamma_cap", "n_msg"),
                  kl_term: ("delta",),
                  CGConfig: ("tol", "max_iter")}


def test_no_second_default_for_trainer_values():
    defaults = {f"{fn.__name__}.{name}": param.default
                for fn, names in TRAINER_VALUES.items()
                for name, param in inspect.signature(fn).parameters.items()
                if name in names and param.default is not param.empty}
    assert defaults == {}
    for fn, names in TRAINER_VALUES.items():
        assert set(names) <= set(inspect.signature(fn).parameters)
