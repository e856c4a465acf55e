"""The ``bfmix`` command (also ``python -m bfmix``).

LOBPCG's dense block algebra rounds differently under different OpenBLAS
thread counts, and outputs must not depend on them.  So the entry point
pins OpenBLAS, OpenMP and MKL to one thread, overriding the environment,
before NumPy first loads.  A program that imports NumPy before calling
:mod:`bfmix.cli` itself keeps its own BLAS setting.
"""

import os


def main() -> None:
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    from .cli import main as cli

    cli(prog_name="bfmix")


if __name__ == "__main__":
    main()
