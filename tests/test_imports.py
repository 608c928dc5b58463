"""Lints, with the standard-library ``ast`` only: every name a qflip module, or
the test oracle, imports is used in it; every top-level name a qflip module
defines has a reader in the package or in the benchmark's unit; and every
top-level name the test oracle defines has a reader in the oracle or in a
test module.  ``__init__.py`` is exempt from all: it defines only the
docstring and ``__version__``.
"""

import ast
from pathlib import Path

import pytest

from test_benchmark_contract import UNIT_NAMES

SRC = Path(__file__).resolve().parent.parent / "src" / "qflip"
PACKAGE = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ORACLE = Path(__file__).with_name("oracle.py")
MODULES = PACKAGE + [ORACLE]
# the modules that may read the oracle's names: the test modules and conftest
TEST_MODULES = sorted(p for p in ORACLE.parent.glob("*.py") if p != ORACLE)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of ``source`` that nothing reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


def test_the_check_sees_an_unused_import():
    source = "from cmath import exp as cexp\nimport numpy as np\nfrom .bloch import FlipParams\nx = np.pi\n"
    assert unused_imports(source) == ["line 1: cexp", "line 3: FlipParams"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _defined(stmt: ast.stmt) -> list[str]:
    """Names a top-level statement defines: a function, a class or assigned names."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]


def _loaded(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unread_names(sources: dict[str, str], outside: set[tuple[str, str]] = frozenset()) -> list[str]:
    """``module.name`` of each top-level name of ``sources`` (module -> source)
    that nothing reads.

    A name is read when a statement of its own module other than its
    definition loads it, when another module imports it (``from .module
    import name``, or ``from module import name`` between top-level modules
    such as the tests and their oracle) or reads it as ``module.name`` after
    ``from . import module``, or when ``outside`` holds (module, name).
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set(outside)
    for tree in trees.values():
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level == 1 or node.module in trees):
                for alias in node.names:
                    if node.module:
                        read.add((node.module, alias.name))
                    else:
                        modules.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                read.add((node.value.id, node.attr))
    unread = []
    for module, tree in trees.items():
        for stmt in tree.body:
            for name in _defined(stmt):
                if (module, name) not in read and not any(name in _loaded(s) for s in tree.body if s is not stmt):
                    unread.append(f"{module}.{name}")
    return unread


def test_the_check_sees_an_unread_name():
    sources = {
        "geo": "import numpy as np\nTOL = 1e-9\nUNUSED = 2\ndef area(r):\n    return np.pi * r * r\n"
        "def helper():\n    return helper()\nclass Shape:\n    pass\n",
        "cli": "from . import geo\nfrom .geo import TOL\ndef main():\n    return geo.area(TOL)\n",
    }
    assert unread_names(sources) == ["geo.UNUSED", "geo.helper", "geo.Shape", "cli.main"]
    assert unread_names(sources, {("geo", "Shape"), ("cli", "main")}) == ["geo.UNUSED", "geo.helper"]


def test_every_top_level_name_has_a_reader():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    unit = {(module.removeprefix("qflip."), name) for module, name in UNIT_NAMES}
    assert unread_names(sources, unit) == []


def test_the_check_sees_an_unread_oracle_name():
    sources = {
        "oracle": "import numpy as np\nTOL = 1e-9\ndef kron(a, b):\n    return np.kron(a, b)\n"
        "def _pair(a):\n    return kron(a, a)\ndef planted():\n    return TOL\n",
        "test_linalg": "from oracle import kron\ndef test_kron():\n    assert kron(1, 2) == 2\n",
    }
    unread = unread_names(sources)
    assert [name for name in unread if name.startswith("oracle.")] == ["oracle._pair", "oracle.planted"]


def test_every_oracle_name_has_a_reader():
    sources = {path.stem: path.read_text() for path in [ORACLE, *TEST_MODULES]}
    assert [name for name in unread_names(sources) if name.startswith("oracle.")] == []
