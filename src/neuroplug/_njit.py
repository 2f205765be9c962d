"""Kept only so that ``perfbench/worker.py`` can record ``HAVE_NUMBA``.

Every kernel in `_kernels` has a single numpy/Python implementation; numba
is neither used nor required.
"""

HAVE_NUMBA = False
