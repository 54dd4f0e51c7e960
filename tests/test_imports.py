"""Source hygiene: no module of the package imports a name it never uses.

The check parses each module with `ast`: a name bound by an import must
appear somewhere in the module as a plain name (an attribute base such as
`np` in `np.zeros` counts). `__init__.py` is exempt, because its imports
are the package's exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gvforge"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the source never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_finds_unused_imports():
    source = ("import os\nimport os.path\nimport numpy as np\n"
              "from math import isqrt, log\n\nprint(np.zeros(isqrt(4)))\n")
    assert unused_imports(source) == [(2, "os"), (4, "log")]


def test_modules_are_found():
    assert len(MODULES) >= 6


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
