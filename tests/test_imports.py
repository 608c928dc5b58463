"""Lint: every name a qflip module, or the test oracle, imports is used in it.

Standard-library ``ast`` only.  ``__init__.py`` is exempt: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qflip"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + [Path(__file__).with_name("oracle.py")]


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
