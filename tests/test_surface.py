from dataclasses import fields, is_dataclass
from functools import cached_property
from inspect import signature

import pytest

import linresp

# The package exports what its commands run, and nothing else, each name
# imported from its submodule on first access, with one exception:
# linresp/doubling.py, the paper's closed-form solution of the
# doubling map, exports exact_control and exact_forward, and fourier exports
# the zeros they use.  No command runs them; they stay in the package as the
# paper's worked example, and perfbench's checker imports exact_forward.
# Test fixtures such as constant and doubling_map live in tests/conftest.py.
EXPORTS = [
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

# Test-only helpers moved to tests/conftest.py or deleted, the second
# uniform-grid route (grid_values is the only one), the oddness rule
# that is now CircleMap.is_odd, the N/2N norm report that
# truncation_defect replaced, and the private step 1 that step1_g now is.
REMOVED = ["CircleDiffeo", "build_conjugate", "transfer_conjugacy_check",
           "finite_difference_response_check", "multiply", "weighted_inner_product",
           "l1_norm", "l2_norm", "GridFunction", "idft", "_is_odd",
           "minimal_norm_truncation_report", "kernel_directions", "_weighted_system",
           "constant", "doubling_map", "_step1_g", "_real_scalar"]


def test_every_exported_name_resolves():
    missing = [name for name in linresp.__all__ if not hasattr(linresp, name)]
    assert missing == []
    assert set(linresp.__all__) <= set(dir(linresp))


def test_first_access_imports_and_caches_the_name(monkeypatch):
    # An export not yet read is found through the package's __getattr__, and
    # the name is then kept in the package namespace.
    monkeypatch.delitem(vars(linresp), "sine", raising=False)
    assert linresp.sine is linresp.fourier.sine
    assert vars(linresp)["sine"] is linresp.fourier.sine


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        linresp.no_such_name


def test_submodules_import_by_name():
    from linresp import doubling, fourier  # perfbench's checker imports these
    assert doubling.exact_forward is linresp.exact_forward
    assert fourier is linresp.fourier


def test_infeasible_target_error_is_one_class():
    # Defined beside UnderResolvedError, so that cli.main maps it to exit 3
    # without importing control; control re-exports it.
    assert linresp.InfeasibleTargetError is linresp.control.InfeasibleTargetError
    assert linresp.InfeasibleTargetError is linresp.response.InfeasibleTargetError


def test_exported_names_unique():
    assert len(set(linresp.__all__)) == len(linresp.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from linresp import *", namespace)
    assert set(linresp.__all__) <= set(namespace)


def test_exports_are_pinned():
    assert len(EXPORTS) == 42
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
    assert not callable(linresp.CircleMap(2, linresp.zeros(0)))
    assert not hasattr(linresp.PerturbedFamily, "preimage_shift")
    # Only tests read these: Hermitian checks compare the coefficients with
    # their conjugate reverse, and a series is scaled by multiplication.
    assert not hasattr(linresp.FourierSeries, "hermitian_defect")
    assert not hasattr(linresp.FourierSeries, "__truediv__")
    # The Ulam operator offers M @ v, the stationary iteration's product,
    # and no v @ M; column sums come from conftest.ulam_products.
    operator = linresp.verify.TransitionOperator
    assert [n for n in ("__rmatmul__", "__array_ufunc__", "_operand", "_blocks")
            if n in vars(operator)] == []
    # One derivative order, and step 1 takes f = (I - L) rho1.
    assert list(signature(linresp.differentiate).parameters) == ["series"]
    assert list(signature(linresp.step1_g).parameters) == ["problem", "f"]


def _cached_names(cls) -> set:
    return {name for klass in cls.__mro__ for name, value in vars(klass).items()
            if isinstance(value, cached_property)}


def test_frozen_objects_hold_only_declared_state(wavy):
    # Every attribute of an instance is a declared field or a cached_property:
    # derived state is declared, never injected under a private name.
    from linresp import (PerturbedFamily, ResponseProblem, SobolevWeights, cosine,
                         minimal_norm_control, ulam_build)
    wavy.preimages(0.3)  # caches the Horner rows of the branch inversion
    problem = ResponseProblem.for_map(wavy, 16)
    problem.matrix.restricted_condition  # the density and the factorization are cached
    family = PerturbedFamily(wavy, cosine(1, 0.01))
    family.delta_max
    model = ulam_build(wavy, 64)
    objects = [cosine(1), SobolevWeights(a=0.5), wavy, family, problem.matrix, problem,
               minimal_norm_control(problem, cosine(1)), model, model.matrix]
    assert [type(o).__name__ for o in objects if not is_dataclass(o)] == []
    undeclared = {type(o).__name__: sorted(set(vars(o)) - {f.name for f in fields(o)}
                                           - _cached_names(type(o))) for o in objects}
    assert undeclared == {type(o).__name__: [] for o in objects}
