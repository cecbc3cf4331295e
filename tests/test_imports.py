"""Every import in the package is used.

An import counts as used when the module reads the bound name somewhere
or lists it in __all__ (a re-export). Checked with the standard library's
ast module, so the check needs no linter.
"""

import ast
from pathlib import Path

import pytest

import sinoquad

MODULES = sorted(Path(sinoquad.__file__).parent.glob("*.py"))


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
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read and name not in exported]


def test_checker_flags_an_unused_import():
    source = "import os\nimport numpy as np\nfrom scipy.special import gammaln\n" \
             "from . import rng\n__all__ = ['rng']\nprint(np.pi)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: gammaln"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
