"""Every top-level function and class of the package is reached.

A name counts as reached when something besides its own definition names
it: code in the package (the `__init__` re-exports aside), a demo or the
benchmark harness, as a call, an attribute, an import or a string (the
harness rebinds functions by name).  Tests do not count: a function only
tests call is code no fit, check or command runs.  The allowlist below
names the exceptions and why each is kept; adding a name to it is a
change to this check.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "otsheaf"

ALLOWED = {
    # test oracles of the forward pass: the fusion and the classifier
    # written as plain array code
    "diffusion.fuse",
    "diffusion.predict",
    # the paper's stability bound and the drift it bounds, which no check
    # compares yet
    "training.stability_metric",
    "training.stability_bound",
}


def _refs(tree) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def unreached(modules: dict[str, str], others: list[str]) -> list[str]:
    """module.name of every top-level definition nothing else names.

    modules maps a package module's name to its source; others are the
    sources of the demos and the harness.
    """
    tops = {mod: [(getattr(node, "name", None), _refs(node))
                  for node in ast.parse(src).body]
            for mod, src in modules.items()}
    whole = {mod: set().union(*(r for _, r in body))
             for mod, body in tops.items()}
    elsewhere = set().union(*(_refs(ast.parse(src)) for src in others))
    found = []
    for mod, body in tops.items():
        defined = [name for name, _ in body if name is not None]
        for name in defined:
            refs = elsewhere.union(*(r for other, r in whole.items()
                                     if other != mod),
                                   *(r for top, r in body if top != name))
            if name not in refs:
                found.append(f"{mod}.{name}")
    return found


def test_scan_flags_names_nothing_else_reaches():
    modules = {
        "a": ("def used():\n    return helper()\n"
              "def helper():\n    return 1\n"
              "def lonely():\n    return lonely()\n"
              "class Orphan:\n    pass\n"),
        "b": "from .a import used\nTIMED = ('a', 'rebound')\n",
        "c": "def rebound():\n    pass\ndef dead():\n    pass\n",
    }
    demo = "import a\nprint(a.Orphan)\n"
    assert unreached(modules, [demo]) == ["a.lonely", "c.dead"]
    assert unreached(modules, []) == ["a.lonely", "a.Orphan", "c.dead"]


def test_every_package_name_is_reached():
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    others = [p.read_text() for d in ("demos", "perfbench")
              for p in sorted((ROOT / d).glob("*.py"))]
    assert modules and others
    assert sorted(unreached(modules, others)) == sorted(ALLOWED)
