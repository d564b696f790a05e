"""Numerical verification of weighted and fractional Poincare inequalities
on discretized Euclidean balls, with sharp-constant estimation.

BLAS is pinned to one thread here, before any import loads numpy, so
repeated runs of the same config are byte-identical regardless of machine
load.  The thread variables are assigned, so the pin wins over the
environment; importing numpy before poincheck defeats it.
"""

import os

os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

__version__ = "0.1.0"
