import numpy as np
import pytest

from linresp import cosine, derivative_operator, dft, forward_response, sine, sup_norm, zeros

from conftest import (constant, finite_difference_response_check, random_series, seeded_maps,
                      steep_map)

TWO_PI = 2 * np.pi


def series_of(values_fn, order, size=1024):
    x = np.arange(size) / size
    return dft(values_fn(x), order)


class TestResponseProblem:
    def test_order_is_the_matrix_order(self, wavy):
        from linresp import ResponseProblem, galerkin_matrix
        problem = ResponseProblem(galerkin_matrix(wavy, 16))
        assert problem.order == problem.matrix.order == 16
        assert ResponseProblem.for_map(wavy, 24).order == 24

    def test_refuses_a_density_or_order_from_the_caller(self, wavy):
        # the map, the density and the order follow from the matrix; the old
        # (map, density, order, matrix) and (map, matrix) forms are refused
        from linresp import ResponseProblem, galerkin_matrix
        matrix = galerkin_matrix(wavy, 16)
        rho = ResponseProblem(matrix).density
        with pytest.raises(TypeError):
            ResponseProblem(wavy, rho, 3, matrix)
        with pytest.raises(TypeError):
            ResponseProblem(wavy, matrix)
        with pytest.raises(TypeError, match="TransferMatrix"):
            ResponseProblem(rho)

    def test_matrix_of_an_equal_map_is_accepted(self, wavy):
        from linresp import CircleMap, ResponseProblem, galerkin_matrix
        twin = CircleMap(2, sine(1, 0.1).with_order(3))
        # another object, its periodic part padded to order 3
        problem = ResponseProblem(galerkin_matrix(twin, 32))
        assert problem.map is twin
        assert problem.pointwise_residual < 1e-9

    def test_under_resolved_computed_density(self):
        from linresp import CircleMap, ResponseProblem, UnderResolvedError
        steep = CircleMap(2, sine(1, 0.155))
        with pytest.raises(UnderResolvedError, match="residual"):
            ResponseProblem.for_map(steep, 8)
        assert ResponseProblem.for_map(steep, 64).pointwise_residual < 1e-9

    def test_steep_degree_five_map_resolves(self):
        # max T' = 8.33: e^{-2 pi i j T} outgrows a fixed 8N quadrature grid
        from linresp import CircleMap, ResponseProblem
        from linresp.transfer import quadrature_size
        steep = CircleMap(5, sine(1, 0.4) + cosine(7, 0.02))
        problem = ResponseProblem.for_map(steep, 128)
        assert quadrature_size(steep, 128, 128) == 2048
        assert problem.pointwise_residual <= 1e-9

    @pytest.mark.parametrize("name, order", [("steep", 109), ("seeded-degree5", 64),
                                             ("seeded-degree6", 105)])
    def test_resolves_where_an_aliased_grid_refused(self, name, order):
        # A Galerkin grid without a tail margin aliased here: pointwise
        # residuals 3.3e-9, 4.3e-9 and 1.2e-7, refused as under-resolved.
        from linresp import ResponseProblem
        circle_map = {"steep": steep_map(), "seeded-degree5": seeded_maps()[3],
                      "seeded-degree6": seeded_maps()[4]}[name]
        assert ResponseProblem.for_map(circle_map, order).pointwise_residual <= 1e-9

    def test_steep_degree_five_map_truncated_at_64(self):
        # Residual 1.2e-9 from truncation, not from the grid: still refused.
        from linresp import ResponseProblem, UnderResolvedError
        with pytest.raises(UnderResolvedError, match="residual 1.2"):
            ResponseProblem.for_map(steep_map(), 64)

    @pytest.mark.parametrize("order", [-3, 0, 2.5, True, "64"])
    def test_refuses_order_not_an_integer_of_at_least_one(self, wavy, order):
        from linresp import ResponseProblem
        with pytest.raises(ValueError, match="truncation order must be"):
            ResponseProblem.for_map(wavy, order)


class TestDerivativeOperator:
    def test_odd_direction_annihilated(self, doubling_problem):
        out = derivative_operator(doubling_problem, sine(1), constant(1.0))
        assert sup_norm(out) < 1e-12

    def test_doubling_worked_direction(self, doubling_problem):
        # -(eps/2)' = sin(4 pi x), halved to sin(2 pi x)
        eps = cosine(2, 1 / TWO_PI)
        out = derivative_operator(doubling_problem, eps, constant(1.0))
        assert sup_norm(out - sine(1)) < 1e-10

    def test_zero_direction(self, wavy_problem):
        out = derivative_operator(wavy_problem, zeros(2), wavy_problem.density)
        assert sup_norm(out) < 1e-12

    def test_three_term_form_agrees(self, wavy_problem):
        # raises if the compact and three-term forms drift apart
        rng = np.random.default_rng(61)
        eps = random_series(rng, 8, decay=0.8)
        w = random_series(rng, 8, decay=0.8)
        derivative_operator(wavy_problem, eps, w)

    def test_linear_in_both_arguments(self, wavy_problem):
        rng = np.random.default_rng(67)
        e1, e2 = random_series(rng, 6), random_series(rng, 6)
        w1, w2 = random_series(rng, 6), random_series(rng, 6)
        lhs = derivative_operator(wavy_problem, e1 + 3.0 * e2, w1)
        rhs = (derivative_operator(wavy_problem, e1, w1)
               + 3.0 * derivative_operator(wavy_problem, e2, w1))
        assert sup_norm(lhs - rhs) < 1e-10
        lhs = derivative_operator(wavy_problem, e1, w1 - 2.0 * w2)
        rhs = (derivative_operator(wavy_problem, e1, w1)
               - 2.0 * derivative_operator(wavy_problem, e1, w2))
        assert sup_norm(lhs - rhs) < 1e-10


class TestForwardResponse:
    def test_doubling_worked_example(self, doubling_problem):
        out = forward_response(doubling_problem, cosine(2, 1 / TWO_PI))
        assert sup_norm(out - sine(1)) < 1e-10

    def test_zero_direction(self, wavy_problem):
        assert sup_norm(forward_response(wavy_problem, zeros(1))) < 1e-12

    def test_kernel_direction_scaled_derivative(self, wavy_problem):
        # eps = c T'/rho gives (eps rho/T')' = 0, hence zero response
        eps = series_of(lambda x: 0.02 * wavy_problem.map.evaluate(x, 1)
                        / wavy_problem.density.evaluate(x), 96)
        assert sup_norm(forward_response(wavy_problem, eps)) < 1e-7

    def test_zero_mean_output(self, wavy_problem):
        rng = np.random.default_rng(71)
        for _ in range(3):
            eps = random_series(rng, 10)
            out = forward_response(wavy_problem, eps)
            assert abs(out.coeff(0)) < 1e-10


class TestFiniteDifferenceCheck:
    def test_doubling_budget(self, doubling_problem):
        gap = finite_difference_response_check(
            doubling_problem, cosine(2, 1 / TWO_PI), 1e-3)
        assert gap < 1e-4

    def test_zero_direction(self, wavy_problem):
        assert finite_difference_response_check(wavy_problem, zeros(1), 1e-3) == 0.0

    @pytest.mark.parametrize("problem_name", ["doubling_problem", "wavy_problem"])
    def test_quadratic_scaling(self, problem_name, request):
        problem = request.getfixturevalue(problem_name)
        eps = cosine(2, 1 / TWO_PI)
        coarse = finite_difference_response_check(problem, eps, 1e-2)
        fine = finite_difference_response_check(problem, eps, 5e-3)
        assert 2.8 < coarse / fine < 5.2

    def test_curvature_constant_stable_across_maps(self, doubling_problem,
                                                   wavy_problem):
        # fitted C = gap/delta^2 must be delta-independent per map
        eps = cosine(2, 1 / TWO_PI)
        for problem in (doubling_problem, wavy_problem):
            c_values = [finite_difference_response_check(problem, eps, d) / d**2
                        for d in (1e-2, 5e-3)]
            assert c_values[0] == pytest.approx(c_values[1], rel=0.3)
