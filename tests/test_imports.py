"""Source hygiene: no module of the package imports a name it never uses,
and no private name is defined that nothing reads.

The checks parse each module with `ast`. A name bound by an import must
appear somewhere in the module as a plain name (an attribute base such as
`np` in `np.zeros` counts); `__init__.py` is exempt, because its imports
are the package's exports. A private name (`_foo`) bound at module level,
or in the body of a module-level class, must be read somewhere under
`src/`, as a plain name, an attribute (`nt._WINDOW`) or an imported name.
`lenstra` imports neither `enclosure` nor `mpmath`: its box geometry is
algebraic, so it needs no interval enclosures. numpy and `enclosure` (so
mpmath) are imported only inside the functions that use them, and the CLI
imports each module inside the commands that need it: `import gvforge.cli`
and `verify` load neither numpy nor mpmath, `construct` loads no mpmath,
and `bounds` and `certify` load no numpy; `import gvforge.cli` loads no
other module of the package than `gvforge.errors`. No module reads the
environment, so no setting hides in a variable, and none keeps state
between calls: no `global` statement and no `functools.cache` or
`lru_cache` memo.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gvforge"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(SRC.parent.rglob("*.py"))


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


def private_definitions(source: str) -> list:
    """(line, name) of each private name bound at module level or in the
    body of a module-level class."""
    tree = ast.parse(source)
    body = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            body.extend(node.body)
    out = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend((t.lineno, t.id) for target in targets
                       for t in ast.walk(target) if isinstance(t, ast.Name))
    return sorted((line, name) for line, name in out
                  if name.startswith("_") and not name.startswith("__"))


def names_read(source: str) -> set:
    """Every name the source loads, reads as an attribute, or imports."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_checker_finds_unread_private_names():
    source = ("_a = 1\n_b: int = 2\n_c, d = 3, 4\n\ndef _e():\n    return _a\n\n"
              "class _F:\n    def _g(self):\n        return self._h\n"
              "    def _h(self):\n        _i = 5\n\n_b = _b\n")
    assert private_definitions(source) == [
        (1, "_a"), (2, "_b"), (3, "_c"), (5, "_e"), (8, "_F"), (9, "_g"),
        (11, "_h"), (14, "_b")]
    read = names_read(source)
    assert [name for _, name in private_definitions(source)
            if name not in read] == ["_c", "_e", "_F", "_g"]


def test_no_unread_private_names():
    read = set().union(*(names_read(p.read_text()) for p in SOURCES))
    unread = [(path.name, line, name) for path in sorted(SRC.glob("*.py"))
              for line, name in private_definitions(path.read_text())
              if name not in read]
    assert unread == []


def imported_modules(source: str) -> set:
    """Every dotted part of each module name the source imports, including
    submodules imported from a package (`from . import enclosure`)."""
    return import_parts(ast.walk(ast.parse(source)))


def import_parts(nodes) -> set:
    """imported_modules of the import statements among `nodes`."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module)
            names.update(alias.name for alias in node.names)
    return {part for name in names for part in name.split(".")}


def test_checker_finds_interval_imports():
    source = ("from . import enclosure as enc\nfrom .enclosure import iv\n"
              "import mpmath.libmp\nfrom .errors import DomainError\n")
    assert {"enclosure", "mpmath"} <= imported_modules(source)
    assert not {"enclosure", "mpmath"} & imported_modules(
        "import math\nfrom .quadfield import is_fundamental\n")


def test_lenstra_imports_no_interval_arithmetic():
    source = (SRC / "lenstra.py").read_text()
    assert not {"enclosure", "mpmath"} & imported_modules(source)


# modules that `import gvforge.cli`, `certify` and `bounds` load; none may
# import numpy, or a module that does, at module level
NUMPY_FREE = ("numtheory", "bounds", "enclosure", "errors", "cli")


def module_level_imports(source: str) -> set:
    """imported_modules of the statements outside every function body."""
    stack, kept = list(ast.parse(source).body), []
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            kept.append(node)
            stack.extend(ast.iter_child_nodes(node))
    return import_parts(kept)


def test_checker_skips_function_level_imports():
    source = ("import os\ntry:\n    import numpy as np\nexcept ImportError:\n"
              "    pass\n\ndef f():\n    from . import lenstra\n"
              "\nclass C:\n    from . import quadfield\n")
    assert module_level_imports(source) == {"os", "numpy", "quadfield"}


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_numpy_free_modules_import_no_numpy(name):
    source = (SRC / (name + ".py")).read_text()
    assert not {"numpy", "lenstra", "quadfield"} & module_level_imports(source)


@pytest.mark.parametrize("name", ("lenstra", "quadfield"))
def test_numpy_is_imported_only_where_it_is_used(name):
    source = (SRC / (name + ".py")).read_text()
    assert "numpy" not in module_level_imports(source)


# modules that `import gvforge.cli`, `construct` and `verify` load; none may
# import `enclosure`, mpmath, or `bounds` (which imports them) at module level
MPMATH_FREE = ("numtheory", "quadfield", "lenstra", "errors", "cli")


@pytest.mark.parametrize("name", MPMATH_FREE)
def test_mpmath_free_modules_import_no_enclosure(name):
    source = (SRC / (name + ".py")).read_text()
    assert not {"enclosure", "mpmath", "bounds"} & module_level_imports(source)


LOADED = """
import contextlib, io, json, sys
heavy = ("numpy", "gvforge.lenstra", "gvforge.quadfield")
def loaded():
    return [m for m in heavy if m in sys.modules]
from gvforge import cli
out = [loaded()]
with contextlib.redirect_stdout(io.StringIO()):
    rc = [cli.main(["certify", "--q", str(2 ** 42)]),
          cli.main(["bounds", "--q", "1048576", "--q", "1073741824",
                    "--delta-grid", "1/10:9/10:1/10"])]
out += [rc, loaded()]
print(json.dumps(out))
"""


def test_certify_and_bounds_load_no_numpy():
    """In a fresh interpreter: importing the CLI loads neither numpy nor
    lenstra nor quadfield, and a certify and a bounds sweep leave numpy
    unloaded."""
    run = subprocess.run(
        [sys.executable, "-c", LOADED], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert json.loads(run.stdout) == [[], [0, 0], []]


COMMAND_LOADS = """
import contextlib, io, json, sys
from gvforge import cli
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(argv) if argv else 0
print(json.dumps([rc, [m for m in ("numpy", "mpmath") if m in sys.modules]]))
"""
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("argv, rc, loaded", [
    ([], 0, []),
    (["verify", str(GOLDEN / "13_11_70_2.code")], 0, []),
    (["verify", str(GOLDEN / "tampered.code")], 2, []),
    (["construct", "--disc", "-4", "--r", "9", "--q", "13", "--G", "1"], 0,
     ["numpy"]),
], ids=("import", "verify", "verify_tampered", "construct"))
def test_commands_load_only_what_they_use(argv, rc, loaded):
    """In a fresh interpreter: `import gvforge.cli` and `verify` load
    neither numpy nor mpmath, and `construct` loads numpy but no mpmath."""
    run = subprocess.run(
        [sys.executable, "-c", COMMAND_LOADS, json.dumps(argv)],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert json.loads(run.stdout) == [rc, loaded]


ENVIRONMENT = ("environ", "getenv")


def environment_reads(source: str) -> list:
    """(line, name) of each read of os.environ or os.getenv, and of each
    import of either from os."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            out.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            out.extend((node.lineno, alias.name) for alias in node.names
                       if alias.name in ENVIRONMENT)
    return sorted(out)


def test_checker_finds_environment_reads():
    source = ("import os\nfrom os import getenv, path\n\n"
              "a = os.environ.get('A')\nb = os.getenv('B')\nc = os.cpu_count()\n")
    assert environment_reads(source) == [
        (2, "getenv"), (4, "environ"), (5, "getenv")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    assert environment_reads(path.read_text()) == []


CLI_LOADS = """
import json, sys
import gvforge.cli
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "gvforge")))
"""


def test_cli_import_loads_no_other_package_module():
    """In a fresh interpreter, `import gvforge.cli` loads only the package,
    the CLI and the exception types."""
    run = subprocess.run(
        [sys.executable, "-c", CLI_LOADS], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert json.loads(run.stdout) == ["gvforge", "gvforge.cli", "gvforge.errors"]


MEMOS = ("cache", "lru_cache")


def hidden_state(source: str) -> list:
    """(line, what) of each `global` statement and each function decorated
    with `cache` or `lru_cache`, bare or called, as a plain name or as an
    attribute (`functools.cache`)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Global):
            out.append((node.lineno, "global"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                fn = dec.func if isinstance(dec, ast.Call) else dec
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(
                    fn, "id", None)
                if name in MEMOS:
                    out.append((dec.lineno, name))
    return sorted(out)


def test_checker_finds_hidden_state():
    source = ("import functools\nfrom functools import cache, lru_cache\n"
              "_t = None\n\n@cache\ndef a():\n    global _t\n    return 1\n\n"
              "@functools.lru_cache(maxsize=None)\ndef b():\n    return 2\n\n"
              "@lru_cache\ndef c():\n    return 3\n\n"
              "@functools.cache\ndef d():\n    return 4\n\n"
              "@staticmethod\ndef e():\n    return 5\n")
    assert hidden_state(source) == [
        (5, "cache"), (7, "global"), (10, "lru_cache"), (14, "lru_cache"),
        (18, "cache")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_keeps_hidden_state(path):
    assert hidden_state(path.read_text()) == []
