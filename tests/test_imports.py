"""No module of the library imports a name that its code never uses, nor a
private (leading-underscore) name of another of its modules.

A refactor that removes the last use of an imported name leaves the import
behind; this scan of each module's syntax tree finds it.  ``__init__.py`` is
left out, because it imports names to re-export them.  A name that
``perfbench/spans.py`` wraps in a module counts as used there: the tracer
replaces it in that module's namespace.

The library ships only what it runs: every public top-level function, class
and assignment is read by the library's own code outside its definition,
by the benchmark, or wrapped by the tracer.  A helper only the tests call
lives under ``tests/``.  ``cli.py`` is left out, because click registers its
commands by decorator.

No run loads ``scipy.optimize``: importing it adds about 49 MB of resident
memory and half a second.  The fixed assignment and the return-all-pods
terminal cost call scipy's compiled assignment kernel, which
``core.linear_sum_assignment`` loads from its extension file alone.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from podrepo.core import save_instance
from podrepo.instances import build_small_system

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


def podrepo_imports(tree: ast.AST) -> tuple[set[str], set[str]]:
    """The names that ``tree`` imports from podrepo, and the local names of
    the podrepo modules among them."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "podrepo"):
            for a in node.names:
                names.add(a.name)
                if node.module in (None, "podrepo"):  # a module: from . import core
                    modules.add(a.asname or a.name)
    return names, modules


def module_attributes(tree: ast.AST, modules: set[str]) -> set[tuple[str, str]]:
    """The ``(module, name)`` pairs that ``tree`` reads as ``module.name``."""
    return {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def private_imports(source: str) -> set[str]:
    """The private names that ``source`` takes from a podrepo module: imported
    by name, or read as an attribute of an imported podrepo module."""
    tree = ast.parse(source)
    names, modules = podrepo_imports(tree)
    return {name for name in names if name.startswith("_")} | {
        f"{module}.{attr}" for module, attr in module_attributes(tree, modules)
        if attr.startswith("_") and not attr.endswith("__")}


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


def defined_names(stmt: ast.stmt) -> list[str]:
    """The public names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def unused_definitions(sources: dict[str, str], outside: set[str]) -> set[str]:
    """The ``module.name`` of each public top-level definition in ``sources``
    (module name -> source) that no module reads outside the definition
    itself, as a bare name or as ``module.name``, and ``outside`` (names read
    beyond the library) does not list."""
    defined, reads = set(), []  # reads: (module, defined names, names read)
    for module, source in sources.items():
        tree = ast.parse(source)
        _, modules = podrepo_imports(tree)
        for stmt in tree.body:
            names = defined_names(stmt)
            defined |= {(module, name) for name in names}
            read = {node.id for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            read |= {attr for _, attr in module_attributes(stmt, modules)}
            reads.append((module, names, read))
    return {f"{module}.{name}" for module, name in defined
            if name not in outside
            and not any(name in read and not (where == module and name in names)
                        for where, names, read in reads)}


def test_scan_finds_an_unused_definition():
    sources = {"a": "from . import b as bee\n"
                    "LIMIT = 3\n"
                    "def helper(n):\n    return helper(n - 1) if n else LIMIT\n"
                    "def run():\n    return bee.used()\n",
               "b": "def used(obj):\n    return obj.run\n"
                    "def benchmarked():\n    pass\n"
                    "def _private():\n    pass\n"}
    assert unused_definitions(sources, {"benchmarked"}) == {"a.helper", "a.run"}


def test_every_public_name_is_used(traced):
    """Re-exports in ``__init__.py`` do not count as uses."""
    sources = {p.stem: p.read_text() for p in (ROOT / "src" / "podrepo").glob("*.py")
               if p.name != "__init__.py"}
    benchmark = set().union(*traced.values())
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                benchmark.add(node.id)
            elif isinstance(node, ast.Attribute):
                benchmark.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                benchmark |= {a.name for a in node.names}
    unused = {name for name in unused_definitions(sources, benchmark)
              if not name.startswith("cli.")}
    assert not unused, f"only the tests use {sorted(unused)}: move them to tests/"


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


def test_fixed_run_leaves_scipy_optimize_unloaded():
    code = ("import sys\n"
            "from podrepo import harness\n"
            "from podrepo.instances import build_small_system\n"
            "actions, cost, _ = harness.run_policy(build_small_system(1, n=200), 'fixed')\n"
            "print(len(actions), 'scipy.optimize' in sys.modules)\n")
    assert run_fresh(code) == ["200", "False"]


def test_fixed_comparison_from_the_cli_leaves_scipy_optimize_unloaded(tmp_path):
    path = tmp_path / "small.json"
    save_instance(build_small_system(1, n=200), path)
    code = ("import sys\n"
            "from podrepo import cli\n"
            f"code = cli.main(['compare', {str(path)!r}, '--policy', 'fixed',"
            " '--policy', 'random'])\n"
            "print(code, 'scipy.optimize' in sys.modules)\n")
    assert run_fresh(code)[-2:] == ["0", "False"]
