"""``python -m equiterm`` and the ``equiterm`` script: the CLI, with BLAS
pinned to one thread unless the caller set a count.  The pin must precede
numpy's load, which ``import equiterm`` does not start."""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
