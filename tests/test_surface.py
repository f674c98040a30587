import linresp

# The package exports what its commands run, and nothing else.
EXPORTS = [
    "CircleMap", "ControlSolution", "DEFAULT_ORDER", "FourierSeries",
    "InfeasibleTargetError", "NotExpandingError",
    "PerturbedFamily", "PreimageError", "ResponseProblem", "SobolevWeights",
    "SpectralGapError", "TransferMatrix", "UlamModel", "UnderResolvedError",
    "antiderivative", "apply_transfer", "apply_transfer_pointwise",
    "bin_averages", "compare_l1", "constant", "cosine", "derivative_operator",
    "dft", "differentiate", "doubling_map", "exact_control", "exact_forward",
    "fd_response", "fixed_point_residual", "forward_response",
    "galerkin_matrix", "grid_values", "invariant_density", "kernel_directions",
    "minimal_norm_control", "minimal_norm_truncation_report", "next_pow2",
    "sine", "sobolev_norm", "solve_control", "solve_zero_mean", "step1_g",
    "step2_epsilon", "sup_norm", "ulam_build", "zeros",
]

# Test-only helpers moved to tests/conftest.py or deleted, and the second
# uniform-grid route (grid_values is the only one).
REMOVED = ["CircleDiffeo", "build_conjugate", "transfer_conjugacy_check",
           "finite_difference_response_check", "multiply", "weighted_inner_product",
           "l1_norm", "l2_norm", "GridFunction", "idft"]


def test_every_exported_name_resolves():
    missing = [name for name in linresp.__all__ if not hasattr(linresp, name)]
    assert missing == []


def test_exported_names_unique():
    assert len(set(linresp.__all__)) == len(linresp.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from linresp import *", namespace)
    assert set(linresp.__all__) <= set(namespace)


def test_exports_are_pinned():
    assert len(EXPORTS) == 46
    assert sorted(linresp.__all__) == sorted(EXPORTS)


def test_removed_names_stay_out():
    modules = (linresp, linresp.control, linresp.fourier, linresp.maps,
               linresp.response, linresp.transfer)
    assert [(m.__name__, n) for m in modules for n in REMOVED if hasattr(m, n)] == []
    assert not hasattr(linresp.FourierSeries, "plus_constant")
    assert not hasattr(linresp.FourierSeries, "mean")
    # Solves return Hermitian series by construction, with no repair step.
    assert not hasattr(linresp.FourierSeries, "hermitian_symmetrized")
    assert not hasattr(linresp.fourier, "_real_rows")
    assert not callable(linresp.sine(1))
    assert not callable(linresp.doubling_map())
    assert not hasattr(linresp.PerturbedFamily, "preimage_shift")
