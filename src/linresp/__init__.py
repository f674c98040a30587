"""Linear response and inverse density control for expanding circle maps.

Compute the first-order change of the invariant density under a map
perturbation, solve the inverse problem (which perturbation realizes a
prescribed density change, including the minimal Sobolev-norm one), and
cross-check everything against an independent Ulam finite-difference
oracle.
"""

from .control import (ControlSolution, InfeasibleTargetError, minimal_norm_control,
                      solve_control, step1_g, step2_epsilon)
from .doubling import exact_control, exact_forward
from .fourier import (DEFAULT_ORDER, FourierSeries, SobolevWeights, antiderivative,
                      cosine, dft, differentiate, grid_values, next_pow2, sine,
                      sobolev_norm, sup_norm, zeros)
from .maps import CircleMap, NotExpandingError, PerturbedFamily, PreimageError
from .response import (ResponseProblem, UnderResolvedError, derivative_operator,
                       forward_response)
from .transfer import (SpectralGapError, TransferMatrix, apply_transfer,
                       apply_transfer_pointwise, fixed_point_residual, galerkin_matrix,
                       invariant_density, solve_zero_mean)
from .verify import UlamModel, bin_averages, compare_l1, fd_response, ulam_build

__version__ = "0.1.0"

__all__ = [
    "CircleMap", "ControlSolution", "DEFAULT_ORDER", "FourierSeries",
    "InfeasibleTargetError", "NotExpandingError",
    "PerturbedFamily", "PreimageError", "ResponseProblem", "SobolevWeights",
    "SpectralGapError", "TransferMatrix", "UlamModel", "UnderResolvedError",
    "antiderivative", "apply_transfer", "apply_transfer_pointwise",
    "bin_averages", "compare_l1", "cosine", "derivative_operator",
    "dft", "differentiate", "exact_control", "exact_forward",
    "fd_response", "fixed_point_residual", "forward_response",
    "galerkin_matrix", "grid_values", "invariant_density",
    "minimal_norm_control", "next_pow2",
    "sine", "sobolev_norm", "solve_control", "solve_zero_mean", "step1_g",
    "step2_epsilon", "sup_norm", "ulam_build", "zeros",
]
