"""Array-API seam: every array op in the stack routes through here.

The rest of ``repro`` (ops, tensor, layers, baselines, serve, train,
metrics, experiments) performs its array math against :data:`xp` — it
never imports ``numpy`` directly.  The only sanctioned direct-numpy
modules are this one, the precision policy (:mod:`repro.nn.dtype`), the
serialization edges (``.npz`` I/O is a numpy file format), and the
data/bench planes, whose on-disk byte contracts are pinned to numpy; the
lint gate in ``tests/test_no_naked_numpy.py`` keeps that seam from
eroding.

:data:`xp` is the numpy module itself, bound at import: there is one
array backend, so attribute lookup costs exactly a module attribute read
and every ``xp.<name>`` is the numpy object of that name.  The seam is
the import discipline the lint gate enforces, not a runtime switch — a
faster kernel for one op replaces that op's implementation in
:mod:`repro.nn.ops`, where the gradcheck and bit-identity suites already
pin it (see docs/BACKEND.md).
"""

from __future__ import annotations

import numpy as xp

__all__ = ["xp"]
