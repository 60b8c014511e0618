"""Process set-up shared by the benchmark's entry points.

Call :func:`prepare` before numpy is imported anywhere: OpenBLAS reads its
thread count once, when numpy loads, so the pin has no effect afterwards.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    pass


def prepare() -> None:
    """Pin BLAS to one thread and import ``editdiff`` from this checkout."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread pin")
    for var in BLAS_VARS:
        os.environ[var] = "1"
    if not (SRC / "editdiff" / "__init__.py").is_file():
        raise MissingProgram(f"no editdiff sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import editdiff

    # an installed copy elsewhere must not stand in for the checkout's code
    if Path(editdiff.__file__).resolve().parent != SRC / "editdiff":
        raise MissingProgram(f"editdiff imported from {editdiff.__file__}, not {SRC}")


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, read from numpy's bundled library."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None
