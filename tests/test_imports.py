"""No module of the library imports a name that its code never uses, nor a
private (leading-underscore) name of another of its modules.

A refactor that removes the last use of an imported name leaves the import
behind; this scan of each module's syntax tree finds it.  ``__init__.py`` is
left out, because it imports names to re-export them.  A name that
``perfbench/spans.py`` wraps in a module counts as used there: the tracer
replaces it in that module's namespace.

Importing the package leaves ``scipy.optimize`` unloaded: it is most of the
import time and about 50 MB of resident memory, and only the fixed
assignment needs it.  The return-all-pods terminal cost solves its
assignment in numpy, so a run under that cost model leaves it unloaded too.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "podrepo").glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import Optional, Sequence\n"
                          "x: Optional[int] = os.sep\n") == {"Sequence"}


@pytest.fixture()
def traced(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("spans").WRAPPED


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path, traced):
    unused = unused_imports(path.read_text()) - set(traced.get(f"podrepo.{path.stem}", ()))
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"


def private_imports(source: str) -> set[str]:
    """The private names that ``source`` takes from a podrepo module: imported
    by name, or read as an attribute of an imported podrepo module."""
    tree = ast.parse(source)
    modules, private = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "podrepo"):
            for a in node.names:
                if a.name.startswith("_"):
                    private.add(a.name)
                elif node.module in (None, "podrepo"):  # a module: from . import core
                    modules.add(a.asname or a.name)
    return private | {f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in modules and node.attr.startswith("_")
                      and not node.attr.endswith("__")}


def test_scan_finds_a_private_import():
    assert private_imports("from __future__ import annotations\n"
                           "from . import core as c, instances\n"
                           "from .core import Instance, _helper\n"
                           "from podrepo.exact import _search\n"
                           "from numpy import _private\n"
                           "x = c._cache, instances.build, instances.__name__\n"
                           ) == {"_helper", "_search", "c._cache"}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "podrepo").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_private_name_crosses_a_module(path):
    private = private_imports(path.read_text())
    assert not private, f"{path.name} takes private names {sorted(private)}"


def run_fresh(code: str) -> list[str]:
    """The words a fresh interpreter prints running ``code`` on ``src/``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.split()


def test_import_leaves_scipy_optimize_unloaded():
    assert run_fresh("import sys, podrepo; print('scipy.optimize' in sys.modules)") == ["False"]


def test_return_all_pods_run_leaves_scipy_optimize_unloaded():
    """The run pays a terminal cost: its total is above the same plan's
    total under the zero terminal cost."""
    code = ("import sys\n"
            "from dataclasses import replace\n"
            "from podrepo import core, harness\n"
            "from podrepo.instances import build_small_system\n"
            "inst = build_small_system(1, n=200)\n"
            "returned = replace(inst, costs=replace(inst.costs,"
            " terminal=core.TERMINAL_RETURN_ALL))\n"
            "actions, cost, _ = harness.run_policy(returned, 'cheapest:decision')\n"
            "print(cost > core.total_cost(inst, actions), 'scipy.optimize' in sys.modules)\n")
    assert run_fresh(code) == ["True", "False"]
