"""Linear response and inverse density control for expanding circle maps.

Compute the first-order change of the invariant density under a map
perturbation, solve the inverse problem (which perturbation realizes a
prescribed density change, including the minimal Sobolev-norm one), and
cross-check everything against an independent Ulam finite-difference
oracle.

``import linresp`` loads this file alone, not numpy.  Each exported name,
and each submodule (``linresp.control``, ``linresp.verify``, ...), is
imported on first access (PEP 562), so the first use of a name pays its
module's import and later uses read the cached name.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the submodule that defines it.
_EXPORTS = {
    "control": ("ControlSolution", "minimal_norm_control", "solve_control", "step1_g",
                "step2_epsilon"),
    "doubling": ("exact_control", "exact_forward"),
    "fourier": ("DEFAULT_ORDER", "FourierSeries", "SobolevWeights", "antiderivative",
                "cosine", "dft", "differentiate", "grid_values", "next_pow2", "sine",
                "sobolev_norm", "sup_norm", "zeros"),
    "maps": ("CircleMap", "NotExpandingError", "PerturbedFamily", "PreimageError"),
    "response": ("InfeasibleTargetError", "derivative_operator", "forward_response"),
    "transfer": ("ResponseProblem", "SpectralGapError", "UnderResolvedError", "apply_transfer",
                 "apply_transfer_pointwise", "fixed_point_residual", "galerkin_matrix",
                 "solve_zero_mean"),
    "verify": ("UlamModel", "bin_averages", "compare_l1", "fd_response", "ulam_build"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"_format", "cli"}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
