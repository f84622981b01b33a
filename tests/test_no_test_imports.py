"""Lint gate: nothing under ``src/`` imports the test tree.

The step-unrolled recurrent oracles in ``tests/nn/oracles.py`` (and any
other test helper) exist only to check the library; a production module
reaching for them would put a reference path back behind the kernels.

The walk is AST-based, so aliased (``import tests as t``), submodule
(``from tests.nn import oracles``), and function-local imports are all
caught.
"""

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parents[1] / "src"


def _test_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "tests":
                    yield node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module \
                    and node.module.split(".")[0] == "tests":
                yield node.lineno


def test_src_never_imports_tests():
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        rel = path.relative_to(SRC_ROOT).as_posix()
        offenders.extend(f"src/{rel}:{line}" for line in _test_imports(path))
    assert not offenders, (
        "src/ module(s) import the test tree; test oracles and helpers "
        "stay test-only:\n  " + "\n  ".join(offenders))


def test_walk_sees_the_package():
    """An empty walk would pass vacuously."""
    assert any(SRC_ROOT.rglob("*.py"))
