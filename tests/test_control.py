import tracemalloc

import numpy as np
import pytest

from linresp import (CircleMap, GridFunction, InfeasibleTargetError,
                     ResponseProblem, SobolevWeights, apply_transfer_pointwise,
                     constant, cosine, dft, differentiate, forward_response,
                     kernel_directions, minimal_norm_control,
                     minimal_norm_truncation_report, next_pow2, sine,
                     sobolev_norm, solve_control, step1_g, step2_epsilon,
                     sup_norm, weighted_inner_product, zeros)
from linresp.control import _weighted_real_system, constraint_matrix

from conftest import complex_minimal_norm, direct_galerkin_entries, random_series

TWO_PI = 2 * np.pi
EPS0_COEFF = 1 / (4 * np.pi)  # cos(4 pi x)/(2 pi) has +-2 coefficients 1/(4 pi)


class TestStepOne:
    def test_doubling_sin_target(self, doubling_problem):
        g = step1_g(doubling_problem, sine(1))
        # f = (I - L) sin = sin, g = f o T = sin(4 pi x)
        assert g.coeff(2) == pytest.approx(1 / 2j, abs=1e-12)
        assert g.coeff(-2) == pytest.approx(-1 / 2j, abs=1e-12)
        assert sup_norm(g - sine(2)) < 1e-10

    def test_zero_target(self, doubling_problem):
        assert sup_norm(step1_g(doubling_problem, zeros(2))) < 1e-13

    def test_wavy_self_verification(self, wavy, wavy_problem):
        g = step1_g(wavy_problem, sine(1))
        f = sine(1).with_order(64) - \
            dft(GridFunction(apply_transfer_pointwise(
                wavy, sine(1), np.arange(512) / 512)), 64)
        x = np.arange(1024) / 1024
        defect = np.max(np.abs(apply_transfer_pointwise(wavy, g, x) - f.evaluate(x)))
        assert defect < 1e-9
        assert abs(g.coeff(0)) < 1e-10

    def test_rejects_nonzero_mean(self, wavy_problem):
        with pytest.raises(ValueError, match="zero mean"):
            step1_g(wavy_problem, constant(0.5))


class TestStepTwo:
    def test_doubling_reproduces_worked_example(self, doubling_problem):
        eps = step2_epsilon(doubling_problem, sine(2))
        assert eps.coeff(2) == pytest.approx(EPS0_COEFF, abs=1e-12)
        assert eps.coeff(-2) == pytest.approx(EPS0_COEFF, abs=1e-12)
        assert sup_norm(eps - cosine(2, 1 / TWO_PI)) < 1e-12

    def test_zero_input(self, doubling_problem):
        assert sup_norm(step2_epsilon(doubling_problem, zeros(2))) < 1e-13

    def test_wavy_ode_residual(self, wavy_problem):
        rng = np.random.default_rng(73)
        g = random_series(rng, 8, zero_mean=True)
        eps = step2_epsilon(wavy_problem, g)
        # residual of -eps' rho/T' - eps rho'/T' + eps rho T''/T'^2 = g
        x = np.arange(1024) / 1024
        tp = wavy_problem.map.evaluate(x, 1)
        tpp = wavy_problem.map.evaluate(x, 2)
        rho = wavy_problem.density.evaluate(x)
        rhop = differentiate(wavy_problem.density).evaluate(x)
        lhs = (-differentiate(eps).evaluate(x) * rho / tp
               - eps.evaluate(x) * rhop / tp
               + eps.evaluate(x) * rho * tpp / tp**2)
        assert np.max(np.abs(lhs - g.evaluate(x))) < 1e-9
        assert abs(eps.coeff(0)) < 1e-12

    def test_rejects_nonzero_mean(self, wavy_problem):
        with pytest.raises(ValueError, match="zero mean"):
            step2_epsilon(wavy_problem, constant(1.0))


class TestSolveControl:
    def test_doubling_worked_example(self, doubling_problem):
        sol = solve_control(doubling_problem, sine(1))
        assert sol.method == "two_step"
        assert sup_norm(sol.epsilon - cosine(2, 1 / TWO_PI)) < 1e-12
        assert sol.residual < 1e-8

    def test_zero_target(self, doubling_problem):
        sol = solve_control(doubling_problem, zeros(2))
        assert sup_norm(sol.epsilon) < 1e-13
        assert sol.norm == pytest.approx(0.0, abs=1e-13)

    def test_wavy_round_trip(self, wavy_problem):
        target = sine(1)
        sol = solve_control(wavy_problem, target)
        realized = forward_response(wavy_problem, sol.epsilon)
        assert sup_norm(realized - target) < 1e-6


def product_form_constraint(problem, order):
    """-G diag(2 pi i k) Toeplitz(m): the constraint matrix as a product of factors.

    m is the order-``order`` truncation of rho/T', Toeplitz(m) multiplies an
    order-``order`` series by it (giving order 2*order), the diagonal
    differentiates, and G is the wide Galerkin block by direct quadrature.
    """
    circle_map, rho = problem.map, problem.density
    size = next_pow2(max(8 * order, 256))
    x = np.arange(size) / size
    mult = dft(GridFunction(rho.evaluate(x) / circle_map.evaluate(x, 1)), order)
    wide = 2 * order
    k = np.arange(-wide, wide + 1)
    offset = k[:, None] - np.arange(-order, order + 1)[None, :]
    toeplitz = np.where(np.abs(offset) <= order,
                        mult.coeffs[np.clip(offset + order, 0, 2 * order)], 0.0)
    galerkin = direct_galerkin_entries(circle_map, order, wide,
                                       next_pow2(max(8 * wide, 256)))
    return -(galerkin @ ((2j * np.pi * k)[:, None] * toeplitz))


@pytest.fixture(scope="module")
def degree_three_problem():
    return ResponseProblem.for_map(CircleMap(3, sine(1, 0.15) + cosine(2, 0.05)), 64)


class TestConstraintMatrix:
    @pytest.mark.parametrize("name", ["wavy_problem", "degree_three_problem"])
    @pytest.mark.parametrize("order", [16, 32])
    def test_matches_product_form(self, request, name, order):
        problem = request.getfixturevalue(name)
        reference = product_form_constraint(problem, order)
        gap = np.max(np.abs(constraint_matrix(problem, order) - reference))
        assert gap < 1e-12 * np.max(np.abs(reference))


@pytest.fixture(scope="module")
def triple_problem(triple):
    return ResponseProblem.for_map(triple, 64)


@pytest.fixture(scope="module")
def seeded_degree_three_problem():
    periodic = random_series(np.random.default_rng(109), 3, zero_mean=True)
    periodic = periodic / (2 * sup_norm(differentiate(periodic)))  # 2.5 <= T' <= 3.5
    return ResponseProblem.for_map(CircleMap(3, periodic), 64)


@pytest.fixture(scope="module")
def benchmark_problem(wavy):
    return ResponseProblem.for_map(wavy, 256)


class TestRealBasisSolve:
    @pytest.mark.parametrize("name", ["wavy_problem", "triple_problem",
                                      "seeded_degree_three_problem"])
    @pytest.mark.parametrize("order", [16, 32])
    def test_matches_complex_svd(self, request, name, order):
        # Agreement to 1e-9 needs the smallest kept singular value well above
        # the cutoff: near it, rounding-level changes to A move eps by up to ~1e-7.
        problem = request.getfixturevalue(name)
        target = sine(1)
        weights = SobolevWeights(0.5, 0.0, 0.0, 1.0)
        reference, rank = complex_minimal_norm(problem, target, weights, order)
        sol = minimal_norm_control(problem, target, weights, order)
        assert sol.rank == rank
        assert sol.epsilon.hermitian_defect == 0.0
        gap = np.max(np.abs(sol.epsilon.coeffs - reference))
        assert gap <= 1e-9 * np.max(np.abs(reference))

    def test_ranks_kept_at_benchmark_config(self, benchmark_problem):
        # The control-n256 benchmark config; the smallest singular value kept
        # at order 512 is 1.0048e-10 of the largest, next to the 1e-10 cutoff.
        problem = benchmark_problem
        target = cosine(1) + cosine(3, 0.5)
        weights = SobolevWeights(0.5, 0.0, 0.0, 1.0)
        ranks = [minimal_norm_control(problem, target, weights, order).rank
                 for order in (256, 512)]
        assert ranks == [306, 442]
        assert solve_control(problem, target, weights).rank is None

    def test_order_doubled_system_memory(self, benchmark_problem):
        # Blocked assembly and the real basis from rows j >= 0 keep the
        # order-512 system near its own size (about 32 MiB, 136.5 MiB unblocked).
        tracemalloc.start()
        try:
            _weighted_real_system(benchmark_problem, SobolevWeights(0.5, 0.0, 0.0, 1.0), 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20


class TestMinimalNorm:
    @pytest.mark.parametrize("weights", [SobolevWeights(),
                                         SobolevWeights(0.5, 0.25, 0.1, 1.0)])
    def test_doubling_distinguished_solution(self, doubling_problem, weights):
        sol = minimal_norm_control(doubling_problem, sine(1), weights)
        gap = np.abs(sol.epsilon.with_order(64).coeffs
                     - cosine(2, 1 / TWO_PI).with_order(64).coeffs)
        assert np.max(gap) < 1e-10
        odd = sol.epsilon.coeffs[sol.epsilon.modes % 2 == 1]
        assert np.max(np.abs(odd)) < 1e-10

    def test_doubling_l2_norm_value(self, doubling_problem):
        sol = minimal_norm_control(doubling_problem, sine(1))
        assert sol.norm == pytest.approx(np.sqrt(8) / (8 * np.pi), abs=1e-12)

    def test_zero_target(self, wavy_problem):
        sol = minimal_norm_control(wavy_problem, zeros(3))
        assert np.all(sol.epsilon.coeffs == 0)
        assert sol.norm == 0.0

    def test_infeasible_at_small_truncation(self, doubling_problem):
        with pytest.raises(InfeasibleTargetError, match="larger order"):
            minimal_norm_control(doubling_problem, sine(2), order=2)

    def test_round_trip(self, wavy_problem):
        target = sine(1)
        sol = minimal_norm_control(wavy_problem, target)
        assert sup_norm(forward_response(wavy_problem, sol.epsilon) - target) < 1e-6

    def test_minimality_and_affine_structure(self, wavy_problem):
        weights = SobolevWeights(0.2, 0.0, 0.0, 0.5)
        target = sine(1)
        minimal = minimal_norm_control(wavy_problem, target, weights)
        particular = solve_control(wavy_problem, target, weights)
        assert minimal.norm <= particular.norm + 1e-12
        # difference of two solutions produces no first-order response
        gap = forward_response(wavy_problem,
                               particular.epsilon - minimal.epsilon)
        assert sup_norm(gap) < 1e-7


class TestHigherDegree:
    def test_degree_three_pipeline(self):
        from linresp import CircleMap, ResponseProblem
        base = CircleMap(3, sine(1, 0.15) + cosine(2, 0.05))
        problem = ResponseProblem.for_map(base, 64)
        target = sine(1) + cosine(2, 0.4)
        particular = solve_control(problem, target)
        assert sup_norm(forward_response(problem, particular.epsilon)
                        - target) < 1e-6
        weights = SobolevWeights(0.3, 0.1, 0.0, 0.7)
        minimal = minimal_norm_control(problem, target, weights)
        assert sup_norm(forward_response(problem, minimal.epsilon)
                        - target) < 1e-6
        assert minimal.norm <= sobolev_norm(particular.epsilon, weights) + 1e-9


class TestKernelDirections:
    def test_doubling_odd_modes_in_kernel(self, doubling_problem):
        for eps in (sine(1), cosine(1)):
            assert sup_norm(forward_response(doubling_problem, eps)) < 1e-7

    def test_directions_have_no_response(self, wavy_problem):
        for v in kernel_directions(wavy_problem, count=4):
            assert sup_norm(forward_response(wavy_problem, v)) < 1e-7

    def test_superposition_leaves_response_unchanged(self, wavy_problem):
        sol = minimal_norm_control(wavy_problem, sine(1))
        base = forward_response(wavy_problem, sol.epsilon)
        for v in kernel_directions(wavy_problem, count=3):
            shifted = forward_response(wavy_problem, sol.epsilon + v)
            assert sup_norm(shifted - base) < 1e-7

    def test_w_orthogonality_of_minimal_solution(self, wavy_problem):
        weights = SobolevWeights(0.5, 0.25, 0.1, 1.0)
        sol = minimal_norm_control(wavy_problem, sine(1), weights)
        for v in kernel_directions(wavy_problem, count=10, weights=weights):
            assert abs(weighted_inner_product(sol.epsilon, v, weights)) < 1e-8

    def test_kernel_steps_increase_norm(self, wavy_problem):
        rng = np.random.default_rng(79)
        weights = SobolevWeights(0.5, 0.25, 0.1, 1.0)
        sol = minimal_norm_control(wavy_problem, sine(1), weights)
        basis = kernel_directions(wavy_problem, count=10, weights=weights)
        for _ in range(10):
            mix = rng.normal(size=len(basis))
            mix /= np.linalg.norm(mix)
            step = zeros(0)
            for c, v in zip(mix, basis):
                step = step + float(c) * v
            grown = sobolev_norm(sol.epsilon + step, weights)
            assert grown >= sol.norm - 1e-12
            assert grown > sol.norm + 1e-10

    def test_orthonormal_basis(self, wavy_problem):
        weights = SobolevWeights(0.1, 0.0, 0.0, 1.0)
        basis = kernel_directions(wavy_problem, count=6, weights=weights)
        gram = np.array([[weighted_inner_product(a, b, weights) for b in basis]
                         for a in basis])
        np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-10)

    @pytest.mark.parametrize("weights, count, share", [
        (SobolevWeights(), 45, 1e-8),
        (SobolevWeights(0.5, 0.0, 0.0, 1.0), 51, 1e-6),
    ], ids=["l2", "sobolev"])
    def test_conjugacy_direction_in_kernel(self, wavy_problem, weights, count, share):
        # eps = X o T - T' X moves rho by -(rho X)', which X = 1/rho makes zero;
        # count is every null direction at N = 64, so none is missing or extra
        circle_map, rho = wavy_problem.map, wavy_problem.density
        x = np.arange(1024) / 1024
        eps = dft(GridFunction(1.0 / rho.evaluate(circle_map.evaluate(x))
                               - circle_map.evaluate(x, 1) / rho.evaluate(x)),
                  wavy_problem.order)
        assert sup_norm(forward_response(wavy_problem, eps)) < 1e-10
        outside = eps
        for v in kernel_directions(wavy_problem, count=count, weights=weights):
            outside = outside - float(weighted_inner_product(v, eps, weights).real) * v
        assert sobolev_norm(outside, weights) <= share * sobolev_norm(eps, weights)

    def test_warns_when_kernel_exhausted(self, doubling_problem):
        with pytest.warns(RuntimeWarning, match="null directions"):
            kernel_directions(doubling_problem, order=4, count=50)


class TestTruncationReport:
    def test_doubling_norms_stable(self, doubling_problem):
        report = minimal_norm_truncation_report(doubling_problem, sine(1),
                                                order=32)
        assert report["order"] == 32 and report["order_doubled"] == 64
        assert report["difference"] < 1e-9
