"""Process set-up shared by the benchmark's entry points (stdlib only).

`pin_blas` must run before anything imports numpy: OpenBLAS and OpenMP read
their thread counts once, when the library loads.  With the default 2-thread
pool a fit op took 8.0-8.8 s on a 2-core machine and 5.9-6.1 s pinned, so
the pin makes the timings measure the program rather than the scheduler.
"""

import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


class MissingSource(RuntimeError):
    """The checkout holds no `disrates` package to benchmark."""


def pin_blas():
    """Pin BLAS/OpenMP pools to one thread; returns whether numpy was loaded first."""
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    return "numpy" in sys.modules


def use_checkout_source():
    """Put the checkout's `src` first on the import path.

    Raises MissingSource when the checkout has no package, so that the
    benchmark never measures some other installed copy.
    """
    if not (SOURCE / "disrates" / "__init__.py").is_file():
        raise MissingSource(f"no disrates package under {SOURCE}")
    sys.path.insert(0, str(SOURCE))


def check_imported_from_checkout(module):
    """Raise MissingSource unless `module` was loaded from the checkout."""
    origin = Path(module.__file__).resolve()
    if SOURCE.resolve() not in origin.parents:
        raise MissingSource(f"{module.__name__} was imported from {origin}")
