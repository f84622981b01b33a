"""Lint gate: no naked ``numpy`` imports outside the backend seam.

All model, layer, op, training, and serving code must reach arrays
through :mod:`repro.nn.backend` (``from repro.nn.backend import xp``)
so array math has one import seam (see docs/BACKEND.md).  Only the
backend itself, the dtype/serialization planes that define the on-disk
and precision contracts, and the data/bench planes (host-side by
design) may import numpy directly.

The walk is AST-based, so aliased (``import numpy as onp``),
submodule (``import numpy.linalg``), and function-local imports are
all caught.
"""

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"

# Modules allowed to import numpy directly, relative to src/repro.
# Keep this list short and deliberate — every addition widens the seam.
ALLOWED = (
    "nn/backend.py",        # the seam itself
    "nn/dtype.py",          # precision policy (numpy dtype objects)
    "nn/serialization.py",  # .npz on-disk contract
    "data/",                # host-side data plane (generation, shards)
    "bench/",               # harness-side timing/measurement code
)


def _numpy_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    yield node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module \
                    and node.module.split(".")[0] == "numpy":
                yield node.lineno


def test_numpy_only_imported_through_the_backend_seam():
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        rel = path.relative_to(SRC_ROOT).as_posix()
        if rel.startswith(ALLOWED):
            continue
        offenders.extend(f"src/repro/{rel}:{line}"
                         for line in _numpy_imports(path))
    assert not offenders, (
        "naked numpy import(s) outside the backend seam — route through "
        "`from repro.nn.backend import xp` instead (docs/BACKEND.md):\n  "
        + "\n  ".join(offenders))


def test_allowlist_entries_exist():
    """A stale allowlist entry means the gate silently covers nothing."""
    for entry in ALLOWED:
        assert (SRC_ROOT / entry).exists(), f"stale allowlist entry: {entry}"
