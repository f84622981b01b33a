"""Make the benchmark's modules and the program importable in tests."""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")
for path in (HERE.parent.parent / "src", HERE.parent):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
