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

from .weights import (
    UNIT_WEIGHT,
    LayerCakeMeasure,
    RadialProfile,
    eval_weight,
    layer_cake,
    make_step_profile,
    reconstruct,
    sample_profile,
    truncate_profile,
)
from .grid import (
    CellSet,
    Grid,
    GridFunction,
    ball_cells,
    build_grid,
    deviation_p,
    deviation_p_rows,
    full_cells,
    weighted_mean,
)
from .forms import (
    KernelSpec,
    kernel_energy,
    local_energy,
    local_energy_rows,
    transfer_constant,
    weighted_gradient_constant,
)
from .inequalities import (
    HypothesisViolation,
    InequalityReport,
    check_kernel_floor,
    check_shift_stability,
    check_transfer,
    check_truncated_fractional,
    check_truncation_bound,
    check_weighted_gradient,
    check_weighted_kernel,
)
from .sharp import (
    EigenConvergenceError,
    QuadraticFormPair,
    assemble_p2,
    assemble_transfer_p2,
    dense_oracle_eigen,
    estimate_gradient_constant,
    ratio_ascent,
    smallest_nonzero_eigen,
)

__version__ = "0.1.0"
