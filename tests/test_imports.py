"""Every import in the package and in its tests, and every private
module-level name in the package, is used; no public function in the
package takes a private parameter.

An import counts as used when the module reads the bound name somewhere
or lists it in __all__ (a re-export). A private name (one leading
underscore, not a dunder) bound at module level by an assignment, def or
class must be read in its own module; other modules may not need it, so
an unread one is a leftover. A parameter with a leading underscore on a
public function or method is a hook for tests that callers can still
pass; tests patch the module instead. Checked with the standard
library's ast module, so the check needs no linter.
"""

import ast
from pathlib import Path

import pytest

import sinoquad

MODULES = sorted(Path(sinoquad.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = _loaded_names(tree)
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read and name not in exported]


def _loaded_names(tree) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unread_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}  # private module-level name -> line
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                bound.setdefault(name, node.lineno)
    read = _loaded_names(tree)
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_checker_flags_an_unused_import():
    source = "import os\nimport numpy as np\nfrom scipy.special import gammaln\n" \
             "from . import rng\n__all__ = ['rng']\nprint(np.pi)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: gammaln"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unread_private_name():
    source = ("_USED, _LEFT = 1, 2\n__version__ = '1'\n_kept: int = 3\n"
              "def _helper():\n    return _USED + _kept\n"
              "class _Old:\n    pass\n"
              "def public():\n    return _helper()\n")
    assert unread_private_names(source) == ["line 1: _LEFT", "line 6: _Old"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text()) == []


def private_parameters(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("_") and not node.name.startswith("__"):
            continue  # a private function's parameters are its own business
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        found += [f"line {node.lineno}: {node.name}({a.arg})" for a in params
                  if a.arg.startswith("_")]
    return found


def test_checker_flags_a_private_parameter():
    # shepp_logan's signature when it took a table for one test
    source = ("def shepp_logan(size: int = 128, _table=None) -> Image:\n    pass\n"
              "def _render(_grid):\n    pass\n"
              "class Tensor:\n    def __init__(self, data, *, _op=None):\n        pass\n")
    assert private_parameters(source) == ["line 1: shepp_logan(_table)",
                                          "line 6: __init__(_op)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_parameters(path):
    assert private_parameters(path.read_text()) == []
