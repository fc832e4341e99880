"""Process set-up shared by the benchmark entry points.

Kept free of numpy imports: the BLAS thread counts must be fixed before
numpy loads, so this module runs first.
"""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))


def prepare(root=None):
    """Pin BLAS to one thread and make `floquetlib` importable from `<root>/src`.

    `root` is the checkout root (default: the working directory). Raises
    SystemExit with code 2 when the checkout holds no floquetlib source,
    so the benchmark never measures some other installed copy.
    """
    root = os.path.abspath(root or os.getcwd())
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "floquetlib", "__init__.py")):
        sys.stderr.write(f"perfbench: no floquetlib source under {src}\n")
        raise SystemExit(2)
    sys.path.insert(0, src)
    import floquetlib

    if not os.path.abspath(floquetlib.__file__).startswith(src + os.sep):
        sys.stderr.write(f"perfbench: floquetlib imported from {floquetlib.__file__}\n")
        raise SystemExit(2)
    return root


def work_root():
    """Scratch directory for task outputs, inside the checkout's benchmark directory."""
    path = os.path.join(HERE, ".work")
    os.makedirs(path, exist_ok=True)
    return path
