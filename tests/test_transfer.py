import tracemalloc

import numpy as np
import pytest

from linresp import (CircleMap, ResponseProblem, SobolevWeights, apply_transfer, compare_l1,
                     cosine, derivative_operator, dft, fixed_point_residual, forward_response,
                     galerkin_matrix, grid_values, invariant_density, sine, solve_zero_mean,
                     sup_norm, ulam_build, zeros)
from linresp.control import minimal_norm_control
from linresp import transfer
from linresp.fourier import baby_steps
from linresp.transfer import apply_transfer_pointwise, quadrature_size

from conftest import (CircleDiffeo, build_conjugate, complex_entries, complex_restricted_solves,
                      conjugate_fill, constant, direct_galerkin_entries, doubling_map, multiply,
                      random_series, seeded_maps, steep_map, transfer_conjugacy_check,
                      whole_restricted_solves)

GALERKIN_MAPS = {"wavy": CircleMap(2, sine(1, 0.1)), "steep": steep_map(),
                 **{f"seeded-degree{m.degree}": m for m in seeded_maps()}}
ALIASING_MAPS = {**GALERKIN_MAPS, "triple": CircleMap(3, zeros(0)), "doubling": doubling_map()}


class TestApplyTransfer:
    def test_doubling_fixes_uniform(self, doubling):
        out = apply_transfer(doubling, constant(1.0), out_order=8)
        np.testing.assert_allclose(out.coeffs, constant(1.0).with_order(8).coeffs,
                                   atol=1e-12)

    def test_doubling_mode_rule(self, doubling):
        # even modes halve their frequency, odd modes die
        out = apply_transfer(doubling, cosine(2), out_order=4)
        np.testing.assert_allclose(out.coeffs, cosine(1).with_order(4).coeffs,
                                   atol=1e-12)
        assert sup_norm(apply_transfer(doubling, sine(1), out_order=4)) < 1e-12

    def test_wavy_pushforward_of_uniform(self, wavy):
        out = apply_transfer(wavy, constant(1.0), out_order=64)
        assert out.coeff(0) == pytest.approx(1.0, abs=1e-10)
        # Ulam row sums are exact bin averages of L(1)
        model = ulam_build(wavy, 2**15)
        rows = model.matrix @ np.ones(2**15)
        assert compare_l1(rows, out) < 1e-6

    def test_pointwise_on_grid_matches_series_route(self, wavy):
        w = constant(1.0) + cosine(1, 0.3)
        out = apply_transfer_pointwise(wavy, w, np.arange(256) / 256)
        series_out = apply_transfer(wavy, w, out_order=64)
        np.testing.assert_allclose(out, grid_values(series_out, 256), atol=1e-10)

    def test_grid_input_refused(self, wavy):
        with pytest.raises(TypeError, match="FourierSeries"):
            apply_transfer(wavy, grid_values(constant(1.0), 256))

    def test_integral_preserved(self, doubling, wavy, triple):
        rng = np.random.default_rng(41)
        for circle_map in (doubling, wavy, triple):
            w = random_series(rng, 10)
            out = apply_transfer(circle_map, w, out_order=32)
            assert abs(out.coeff(0) - w.coeff(0)) < 1e-10

    def test_positivity(self, wavy):
        rng = np.random.default_rng(43)
        base = random_series(rng, 6)
        nonneg = multiply(base, base)
        out = apply_transfer_pointwise(wavy, nonneg, np.arange(256) / 256)
        assert np.min(out) > -1e-12


class TestPreimageFreeTransfer:
    """apply_transfer on a series by duality, against the Newton-preimage route."""

    @pytest.mark.parametrize("name", ["doubling", "wavy", "triple", "steep"]
                             + [f"seeded{i}" for i in range(5)])
    @pytest.mark.parametrize("out", [8, 32, 128])
    def test_matches_newton_route(self, request, name, out):
        if name == "steep":
            circle_map = steep_map()
        elif name.startswith("seeded"):
            circle_map = seeded_maps()[int(name[6:])]
        else:
            circle_map = request.getfixturevalue(name)
        w = random_series(np.random.default_rng(out), 4 * out, decay=0.05)
        size = max(1024, 16 * out)
        x = np.arange(size) / size
        reference = dft(apply_transfer_pointwise(circle_map, w, x), out)
        got = apply_transfer(circle_map, w, out_order=out)
        scale = np.max(np.abs(reference.coeffs))
        assert np.max(np.abs(got.coeffs - reference.coeffs)) <= 1e-12 * scale

    def test_production_paths_compute_no_preimages(self, wavy_problem, monkeypatch):
        calls = []
        original = CircleMap.invert_lift

        def counted(self, targets):
            calls.append(np.size(targets))
            return original(self, targets)

        monkeypatch.setattr(CircleMap, "invert_lift", counted)
        eps = cosine(1, 0.01) + sine(3, 0.02)
        derivative_operator(wavy_problem, eps, wavy_problem.density)
        forward_response(wavy_problem, eps)
        minimal_norm_control(wavy_problem, cosine(1) + cosine(3, 0.5),
                             SobolevWeights(0.5, 0.0, 0.0, 1.0))
        assert calls == []
        # the independent checks still use Newton preimages
        fixed_point_residual(wavy_problem.map, wavy_problem.density)
        assert calls


def running_product_transfer(circle_map, w, out_order):
    """apply_transfer one moment at a time: the grid mean of w z^j, z^j by running product."""
    size = quadrature_size(circle_map, out_order, w.order)
    z = np.exp(-2j * np.pi * circle_map.grid_values(size))
    acc = grid_values(w, size).astype(complex)
    upper = np.empty(out_order + 1, dtype=complex)
    for j in range(out_order + 1):
        upper[j] = acc.sum()
        acc *= z
    upper /= size
    return np.concatenate((np.conj(upper[:0:-1]), upper))


class TestTransferMoments:
    """apply_transfer's baby-step/giant-step moments against the one-mode-at-a-time loop.

    J = out_order + 1 moments take R = ceil(sqrt(J)) baby rows: J = 1 is
    one moment, J = 16 and 256 are perfect squares, and the others leave
    the last giant row short.
    """

    OUT_ORDERS = [0, 1, 2, 15, 16, 17, 96, 256, 512]

    @pytest.mark.parametrize("out", OUT_ORDERS)
    @pytest.mark.parametrize("name", ["wavy", "steep", "seeded-degree6"])
    def test_matches_running_product(self, name, out):
        circle_map = GALERKIN_MAPS[name]
        w = random_series(np.random.default_rng(out), 48, decay=0.02)
        got = apply_transfer(circle_map, w, out_order=out)
        reference = running_product_transfer(circle_map, w, out)
        assert np.max(np.abs(got.coeffs - reference)) <= 1e-13 * np.sum(np.abs(w.coeffs))

    @pytest.mark.parametrize("out", [n for n in OUT_ORDERS if n >= 1])
    def test_matches_galerkin_product(self, wavy, out):
        # input order <= N: L w is M w in the Galerkin matrix of order N
        w = random_series(np.random.default_rng(out + 1), min(out, 40), decay=0.02)
        got = apply_transfer(wavy, w, out_order=out)
        reference = complex_entries(galerkin_matrix(wavy, out)) @ w.with_order(out).coeffs
        assert np.max(np.abs(got.coeffs - reference)) <= 1e-13 * np.sum(np.abs(w.coeffs))

    @pytest.mark.parametrize("points", [1, 3, 100])
    @pytest.mark.parametrize("out", [16, 96])
    def test_chunk_boundaries(self, wavy, monkeypatch, points, out):
        # chunks of 1, 3 and 100 grid points; the grids of 256 and 512 points
        # leave the last chunk of 3 and of 100 points short
        w = random_series(np.random.default_rng(67), 48, decay=0.02)
        baby = baby_steps(out + 1)
        rows = baby + 2 * -(-(out + 1) // baby)
        monkeypatch.setattr(transfer, "BLOCK", points * rows)
        got = apply_transfer(wavy, w, out_order=out)
        reference = running_product_transfer(wavy, w, out)
        assert np.max(np.abs(got.coeffs - reference)) <= 1e-13 * np.sum(np.abs(w.coeffs))


class TestGalerkinMatrix:
    def test_doubling_shift_structure(self, doubling):
        m = galerkin_matrix(doubling, 8)
        expected = np.zeros((17, 17))
        for j in range(-4, 5):
            expected[j + 8, 2 * j + 8] = 1.0
        np.testing.assert_allclose(complex_entries(m), expected, atol=1e-12)

    def test_row_zero_unit(self, wavy):
        m = galerkin_matrix(wavy, 16)
        unit = np.zeros(33)
        unit[16] = 1.0
        np.testing.assert_allclose(complex_entries(m)[16], unit, atol=1e-10)

    def test_leading_eigenvalue_one(self, wavy):
        m = galerkin_matrix(wavy, 32)
        eigs = np.linalg.eigvals(complex_entries(m))
        assert np.max(np.abs(eigs)) == pytest.approx(1.0, abs=1e-10)

    def test_matches_pointwise_application(self, wavy):
        # degree <= N/2 polynomials: matrix and Newton-preimage route agree
        rng = np.random.default_rng(47)
        m = galerkin_matrix(wavy, 32)
        w = random_series(rng, 16)
        via_matrix = complex_entries(m) @ w.with_order(32).coeffs
        x = np.arange(256) / 256
        via_points = dft(apply_transfer_pointwise(wavy, w, x), 32)
        assert np.max(np.abs(via_matrix - via_points.coeffs)) < 1e-8

    @pytest.mark.parametrize("name", ["wavy", "triple"])
    @pytest.mark.parametrize("order", [8, 32, 128])
    def test_fft_assembly_matches_direct_quadrature(self, request, name, order):
        # order 128 (Q = 1024): the 129 rows j >= 0 take five blocks, the last of one row
        circle_map = request.getfixturevalue(name)
        m = galerkin_matrix(circle_map, order)
        reference = direct_galerkin_entries(circle_map, order, order,
                                            quadrature_size(circle_map, order, order))
        assert np.max(np.abs(complex_entries(m) - reference)) < 1e-13

    def test_assembly_independent_of_block_size(self, wavy, monkeypatch):
        # the running product carries across blocks, so any block size gives the same bits
        order, quad = 32, 256
        weights = [1.0, np.random.default_rng(53).normal(size=quad)]
        results = []
        for rows in (1, 7, order + 1):
            monkeypatch.setattr(transfer, "BLOCK", rows * quad)
            results.append([transfer._galerkin_rows(wavy, order, order, quad, w)
                            for w in weights])
        for other in results[1:]:
            for got, expected in zip(other, results[0]):
                assert np.array_equal(got, expected)

    @pytest.mark.parametrize("order", [-3, 0, 2.5, True, "8"])
    def test_refuses_order_not_an_integer_of_at_least_one(self, wavy, order):
        with pytest.raises(ValueError, match="truncation order must be"):
            galerkin_matrix(wavy, order)


def last_order_within(grid, size_of):
    """The largest order n with size_of(n) <= grid: its band lies just under ``grid``."""
    n = 1
    while size_of(n + 1) <= grid:
        n += 1
    return n


class TestQuadratureSize:
    """Each integral on its grid against a 16 times finer one.

    At the largest order that a grid holds, the band in_order + out_order
    max T' + tail lies within about 1 + max T' modes of the power of two, so
    a tail that falls short shows as aliasing.  A fixed 16 (K+1) tail is off
    by up to 1.8e-6 (seeded degree 6, grid 4096) and a grid without one by
    more.
    """

    @pytest.mark.parametrize("name, grid", [*((name, 1024) for name in ALIASING_MAPS),
                                            ("steep", 4096), ("seeded-degree6", 4096)])
    def test_galerkin_rows(self, name, grid):
        circle_map = ALIASING_MAPS[name]
        order = last_order_within(grid, lambda n: quadrature_size(circle_map, n, n))
        m = galerkin_matrix(circle_map, order)
        assert quadrature_size(circle_map, order, order) == grid
        fine = conjugate_fill(transfer._galerkin_rows(circle_map, order, order, 16 * grid))
        assert np.max(np.abs(complex_entries(m) - fine)) < 1e-13

    @pytest.mark.parametrize("name", list(ALIASING_MAPS))
    def test_apply_transfer(self, name, monkeypatch):
        circle_map = ALIASING_MAPS[name]
        rng = np.random.default_rng(59)
        w = random_series(rng, 96, decay=0.0)
        out = last_order_within(1024, lambda n: quadrature_size(circle_map, n, w.order))
        coarse = apply_transfer(circle_map, w, out)
        monkeypatch.setattr(transfer, "quadrature_size", lambda *a: 16 * quadrature_size(*a))
        fine = apply_transfer(circle_map, w, out)
        assert np.max(np.abs(coarse.coeffs - fine.coeffs)) < 1e-13 * np.sum(np.abs(w.coeffs))

    @pytest.mark.parametrize("name", list(ALIASING_MAPS))
    def test_constraint_weight(self, name):
        # constraint_matrix scales the Galerkin block of the density rho by
        # -2 pi i j, on the grid for orders (N, N + order of rho).
        circle_map = ALIASING_MAPS[name]
        rho = ResponseProblem.for_map(circle_map, 128).density
        order = last_order_within(1024, lambda n: quadrature_size(circle_map, n, n + rho.order))

        def block(size):
            return conjugate_fill(transfer._galerkin_rows(circle_map, order, order, size,
                                                          grid_values(rho, size)))

        size = quadrature_size(circle_map, order, order + rho.order)
        assert np.max(np.abs(block(size) - block(16 * size))) < 1e-13


class TestInvariantDensity:
    def test_doubling_uniform(self, doubling):
        rho = invariant_density(galerkin_matrix(doubling, 16))
        np.testing.assert_allclose(rho.coeffs, constant(1.0).with_order(16).coeffs,
                                   atol=1e-12)

    def test_triple_uniform(self, triple):
        rho = invariant_density(galerkin_matrix(triple, 16))
        np.testing.assert_allclose(rho.coeffs, constant(1.0).with_order(16).coeffs,
                                   atol=1e-12)

    @pytest.mark.parametrize("name", list(GALERKIN_MAPS))
    def test_solves_galerkin_system_to_rounding(self, name):
        m = galerkin_matrix(GALERKIN_MAPS[name], 64)
        rho = invariant_density(m).coeffs
        assert np.max(np.abs(complex_entries(m) @ rho - rho)) <= 1e-14

    def test_wavy_matches_ulam(self, wavy, wavy_problem):
        model = ulam_build(wavy, 2**15)
        assert compare_l1(model.stationary, wavy_problem.density) < 1e-3

    def test_pointwise_residual(self, wavy, wavy_problem):
        assert fixed_point_residual(wavy, wavy_problem.density) < 1e-9

    def test_positive_and_normalized(self, wavy_problem):
        rho = wavy_problem.density
        assert rho.coeff(0) == pytest.approx(1.0, abs=1e-12)
        assert np.min(grid_values(rho, 4096)) > 0


class TestSolveZeroMean:
    def test_doubling_odd_mode(self, doubling):
        # L kills sin(2 pi x), so the Neumann series stops immediately
        out = solve_zero_mean(galerkin_matrix(doubling, 16), sine(1))
        np.testing.assert_allclose(out.coeffs, sine(1).with_order(16).coeffs,
                                   atol=1e-12)

    def test_doubling_two_term_series(self, doubling):
        out = solve_zero_mean(galerkin_matrix(doubling, 16), sine(2))
        expected = sine(2) + sine(1)
        np.testing.assert_allclose(out.coeffs, expected.with_order(16).coeffs,
                                   atol=1e-12)

    def test_zero_rhs(self, wavy):
        out = solve_zero_mean(galerkin_matrix(wavy, 16), zeros(4))
        assert np.all(out.coeffs == 0)

    def test_rejects_nonzero_mean(self, wavy):
        with pytest.raises(ValueError, match="mean"):
            solve_zero_mean(galerkin_matrix(wavy, 16), constant(1.0))

    def test_residual_small(self, wavy_problem):
        rng = np.random.default_rng(53)
        rhs = random_series(rng, 20, zero_mean=True).with_order(64)
        v = solve_zero_mean(wavy_problem.matrix, rhs)
        defect = complex_entries(wavy_problem.matrix) @ v.coeffs
        np.testing.assert_allclose(v.coeffs - defect, rhs.coeffs, atol=1e-10)
        assert abs(v.coeff(0)) == 0.0

    @pytest.mark.parametrize("name", list(GALERKIN_MAPS))
    def test_real_route_matches_complex_inverse(self, name):
        matrix = galerkin_matrix(GALERKIN_MAPS[name], 64)
        rhs = random_series(np.random.default_rng(59), 20, zero_mean=True)
        rho, v = complex_restricted_solves(matrix, rhs)
        for got, want in ((invariant_density(matrix), rho), (solve_zero_mean(matrix, rhs), v)):
            assert np.max(np.abs(got.coeffs - want)) <= 1e-13 * np.max(np.abs(want))

    @staticmethod
    def retained_share(circle_map):
        tracemalloc.start()
        try:
            matrix = galerkin_matrix(circle_map, 256)
            invariant_density(matrix)
            solve_zero_mean(matrix, sine(3))
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # in units of the bytes of a complex (2N+1) x (2N+1) matrix
        return retained / (16 * matrix.real.size)

    def test_retains_one_factorization(self, wavy):
        # After the density and a solve, the matrix keeps its real form, half
        # a complex matrix's bytes, and the inverses of the cos and sin blocks
        # of the restricted system, a quarter: no complex matrix and no copy
        # of the system.
        assert self.retained_share(wavy) <= 0.8

    def test_retains_one_factorization_of_the_whole_system(self):
        # A map that is not odd keeps the inverse of the whole real restricted
        # system, another half.
        assert self.retained_share(CircleMap(3, sine(1, 0.15) + cosine(2, 0.05))) <= 1.05

    def test_restricted_system_well_conditioned(self, wavy_problem):
        cond = wavy_problem.matrix.restricted_condition
        assert np.isfinite(cond) and cond < 1e12

    def test_near_singular_system_reported(self):
        # hand-built real matrix whose restricted I - M is diag(2, 1e-13)
        from linresp import TransferMatrix
        real = np.diag([1.0, -1.0, 1.0 - 1e-13])
        shaky = TransferMatrix(real, steep_map())
        assert shaky.restricted_condition > 1e12
        with pytest.warns(RuntimeWarning, match="condition"):
            solve_zero_mean(shaky, sine(1, 1e-15))


class TestParitySplit:
    """An odd map's restricted system inverted as its cos and sin blocks."""

    @pytest.mark.parametrize("name", ["doubling", "wavy"])
    @pytest.mark.parametrize("order", [16, 64, 256])
    def test_matches_the_whole_system(self, request, name, order):
        matrix = galerkin_matrix(request.getfixturevalue(name), order)
        cos, sin = slice(0, order), slice(order, None)
        assert [block for block, _ in matrix._factorization[0]] == [cos, sin]
        rhs = random_series(np.random.default_rng(order), 12, zero_mean=True)
        rho, v, condition = whole_restricted_solves(matrix, rhs)
        for got, want in ((invariant_density(matrix), rho), (solve_zero_mean(matrix, rhs), v)):
            assert np.max(np.abs(got.coeffs - want)) <= 1e-13 * np.max(np.abs(want))
        assert matrix.restricted_condition == pytest.approx(condition, rel=1e-10)

    def test_rounding_level_real_part_takes_the_whole_route(self):
        # a real part of 1e-17 breaks the symmetry, as in control._real_blocks
        nearly = CircleMap(2, sine(1, 0.1) + cosine(1, 2e-17))
        matrix = galerkin_matrix(nearly, 64)
        assert [block for block, _ in matrix._factorization[0]] == [slice(None)]
        rhs = random_series(np.random.default_rng(61), 20, zero_mean=True)
        rho, v, condition = whole_restricted_solves(matrix, rhs)
        assert np.array_equal(invariant_density(matrix).coeffs, rho)
        assert np.array_equal(solve_zero_mean(matrix, rhs).coeffs, v)
        assert matrix.restricted_condition == condition


class TestConjugacy:
    def test_identity_diffeo(self, doubling):
        w = constant(1.0) + cosine(1, 0.5)
        residual = transfer_conjugacy_check(doubling, CircleDiffeo.identity(), w)
        assert residual < 1e-12

    def test_small_diffeo_on_wavy(self, wavy):
        h = CircleDiffeo(sine(1, 0.05 / (2 * np.pi)))
        w = constant(1.0) + cosine(1, 0.5)
        assert transfer_conjugacy_check(wavy, h, w) < 1e-8

    def test_density_conjugacy_gives_uniform(self, wavy, wavy_problem):
        # h = integral of rho conjugates to a map preserving Lebesgue
        h = CircleDiffeo.from_density(wavy_problem.density)
        assert transfer_conjugacy_check(wavy, h, wavy_problem.density) < 1e-8
        conj = build_conjugate(wavy, h)
        out = apply_transfer(conj, constant(1.0), out_order=64)
        assert sup_norm(out - constant(1.0)) < 1e-8
