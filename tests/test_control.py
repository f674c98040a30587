import tracemalloc

import numpy as np
import pytest

import linresp.control as control
from linresp import (CircleMap, FourierSeries, InfeasibleTargetError, ResponseProblem,
                     SobolevWeights, apply_transfer_pointwise, cosine, derivative_operator, dft,
                     differentiate, exact_control, forward_response, minimal_norm_control,
                     next_pow2, sine, sobolev_norm, solve_control, step1_g, step2_epsilon,
                     sup_norm, zeros)
from linresp.control import (FEASIBILITY_TOL, PSEUDOINVERSE_CUTOFF, _block_lstsq,
                             _constraint_rhs, _constraint_rows, _floored, _real_blocks,
                             _weight_scale, _weighted_block, truncation_defect)
from linresp.transfer import real_matrix_from_rows

from conftest import (complex_minimal_norm, constant, constraint_matrix, direct_galerkin_entries,
                      doubling_map, full_system_lstsq, kernel_directions, padded_blocks,
                      random_series, seeded_maps, steep_map, weighted_inner_product)

TWO_PI = 2 * np.pi
EPS0_COEFF = 1 / (4 * np.pi)  # cos(4 pi x)/(2 pi) has +-2 coefficients 1/(4 pi)


def transfer_defect(problem, rho1):
    """f = (I - L) rho1 at the problem's order, as ``solve_control`` gives it to step 1."""
    return FourierSeries(_constraint_rhs(problem, rho1, problem.order))


class TestStepOne:
    def test_doubling_sin_target(self, doubling_problem):
        g = step1_g(doubling_problem, transfer_defect(doubling_problem, sine(1)))
        # f = (I - L) sin = sin, g = f o T = sin(4 pi x)
        assert g.coeff(2) == pytest.approx(1 / 2j, abs=1e-12)
        assert g.coeff(-2) == pytest.approx(-1 / 2j, abs=1e-12)
        assert sup_norm(g - sine(2)) < 1e-10

    def test_zero_target(self, doubling_problem):
        f = transfer_defect(doubling_problem, zeros(2))
        assert sup_norm(step1_g(doubling_problem, f)) < 1e-13

    def test_wavy_self_verification(self, wavy, wavy_problem):
        g = step1_g(wavy_problem, transfer_defect(wavy_problem, sine(1)))
        # f by Newton preimages, independent of the transfer image step 1 was given
        f = sine(1).with_order(64) - \
            dft(apply_transfer_pointwise(wavy, sine(1), np.arange(512) / 512), 64)
        x = np.arange(1024) / 1024
        defect = np.max(np.abs(apply_transfer_pointwise(wavy, g, x) - f.evaluate(x)))
        assert defect < 1e-9
        assert abs(g.coeff(0)) < 1e-10

    def test_rejects_nonzero_mean(self, wavy_problem, monkeypatch):
        # solve_control refuses the target before step 1 runs
        monkeypatch.setattr(control, "step1_g", None)
        with pytest.raises(ValueError, match="zero mean"):
            solve_control(wavy_problem, constant(0.5))

    def test_refuses_target_beyond_truncation(self, wavy, monkeypatch):
        # cos 40 pi x is mode 20 > N = 16: infeasible, not a failed verification,
        # and refused before step 1 runs
        problem = ResponseProblem.for_map(wavy, 16)
        monkeypatch.setattr(control, "step1_g", None)
        with pytest.raises(InfeasibleTargetError, match="exceeds truncation 16"):
            solve_control(problem, sine(1) + cosine(20, 0.5))


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

    def test_one_transfer_image_of_the_target(self, wavy_problem, monkeypatch):
        # (I - L) t feeds both step 1 and the constraint residual
        calls = []
        original = control.apply_transfer

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(control, "apply_transfer", counted)
        solve_control(wavy_problem, sine(1))
        assert len(calls) == 1

    def test_nonzero_mean_beyond_truncation_is_a_mean_error(self, wavy):
        # A larger order cannot mend a nonzero mean, so it is refused first,
        # as minimal_norm_control refuses it, not as an infeasible target.
        problem = ResponseProblem.for_map(wavy, 16)
        target = cosine(40) + constant(0.5)
        for solve in (solve_control, minimal_norm_control):
            with pytest.raises(ValueError, match="zero mean"):
                solve(problem, target)


def product_form_constraint(problem, order):
    """-diag(2 pi i j) G Toeplitz(rho): the constraint matrix as a product of factors.

    Toeplitz(rho) multiplies an order-``order`` series by the problem's
    density rho of order N (giving order ``order`` + N), G is the wide
    Galerkin block by direct quadrature, columns |k| <= order + N, and the
    diagonal is the -2 pi i j of the integration by parts.
    """
    rho = problem.density
    wide = order + rho.order
    k = np.arange(-wide, wide + 1)
    offset = k[:, None] - np.arange(-order, order + 1)[None, :]
    toeplitz = np.where(np.abs(offset) <= rho.order,
                        rho.coeffs[np.clip(offset + rho.order, 0, 2 * rho.order)], 0.0)
    galerkin = direct_galerkin_entries(problem.map, order, wide,
                                       next_pow2(max(8 * wide, 256)))
    j = np.arange(-order, order + 1)
    return -(2j * np.pi * j)[:, None] * (galerkin @ toeplitz)


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

    @pytest.mark.parametrize("index", [3, 4])
    def test_is_the_derivative_of_the_problem_density(self, index):
        # A eps = D_eps rho for the problem's own rho.  A weight re-truncated
        # from rho/T' at order N misses by 1.1e-9 (degree 5) and 1.2e-6 (degree 6).
        problem = ResponseProblem.for_map(seeded_maps()[index], 64)
        a = constraint_matrix(problem, 64)
        for seed in range(3):
            eps = random_series(np.random.default_rng(seed), 64)
            expected = derivative_operator(problem, eps, problem.density).coeffs
            gap = np.max(np.abs(a @ eps.coeffs - expected))
            assert gap <= 1e-10 * np.max(np.abs(expected))


@pytest.fixture(scope="module")
def triple_problem(triple):
    return ResponseProblem.for_map(triple, 64)


@pytest.fixture(scope="module")
def seeded_degree_three_problem():
    periodic = random_series(np.random.default_rng(109), 3, zero_mean=True)
    periodic = periodic * (1.0 / (2 * sup_norm(differentiate(periodic))))  # 2.5 <= T' <= 3.5
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
        c = sol.epsilon.coeffs
        assert np.array_equal(c, np.conj(c[::-1]))
        gap = np.max(np.abs(sol.epsilon.coeffs - reference))
        assert gap <= 1e-9 * np.max(np.abs(reference))

    def test_ranks_kept_at_benchmark_config(self, benchmark_problem):
        # The control-n256 benchmark config; the smallest singular value kept
        # at order 512 is 1.0048e-10 of the largest, next to the 1e-10 cutoff.
        problem = benchmark_problem
        target = cosine(1) + cosine(3, 0.5)
        weights = SobolevWeights(0.5, 0.0, 0.0, 1.0)
        solutions = [minimal_norm_control(problem, target, weights, order)
                     for order in (256, 512)]
        assert [sol.rank for sol in solutions] == [306, 442]
        # smallest kept and largest dropped singular value over the largest
        assert solutions[0].margin == pytest.approx((1.0419e-10, 7.714e-12), rel=1e-3)
        assert solutions[1].margin == pytest.approx((1.0048e-10, 9.912e-11), rel=1e-3)
        two_step = solve_control(problem, target, weights)
        assert two_step.rank is None and two_step.margin is None

    def test_order_doubled_system_memory(self, benchmark_problem):
        # Blocked assembly, and only the two weighted blocks built from the
        # rows j >= 0, keep the order-512 system near the size of those rows:
        # 8 MiB of rows and a 12.7 MiB peak, against 24.1 MiB with the whole
        # real system and its scaled copy (136.5 MiB unblocked).
        tracemalloc.start()
        try:
            rows = _floored(_constraint_rows(benchmark_problem, 512))
            scale = _weight_scale(SobolevWeights(0.5, 0.0, 0.0, 1.0), 512)
            [_weighted_block(rows, scale, b) for b in _real_blocks(benchmark_problem.map, 512)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_minimal_norm_transient_memory(self, benchmark_problem):
        # At N = 256 the call peaks at 3.66 MiB of traced memory: the 2 MiB
        # of complex rows, the noise floor's magnitudes and the two 257 x 256
        # blocks; the whole real system, its scaled copy and the bordered copy
        # took it to 6.10 MiB.  The pin allows 0.5 MiB over the measured peak.
        target = cosine(1) + cosine(3, 0.5)
        tracemalloc.start()
        try:
            minimal_norm_control(benchmark_problem, target, BLOCK_WEIGHTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.66 * 2**20 + 0.5 * 2**20


ODD_MAPS = {"doubling": doubling_map(), "wavy": CircleMap(2, sine(1, 0.1)),
            "triple": CircleMap(3, zeros(0)),
            "degree-three": CircleMap(3, sine(1, 0.15) + sine(2, 0.05))}
NON_ODD_MAPS = {"steep": steep_map(),
                **{f"seeded-degree{m.degree}": m for m in seeded_maps()},
                "degree-three": CircleMap(3, sine(1, 0.15) + cosine(2, 0.05))}
BLOCK_WEIGHTS = SobolevWeights(0.5, 0.0, 0.0, 1.0)


@pytest.fixture(scope="module")
def odd_problems():
    return {name: ResponseProblem.for_map(m, 64) for name, m in ODD_MAPS.items()}


class TestBlockSolve:
    @pytest.mark.parametrize("name", ODD_MAPS)
    @pytest.mark.parametrize("order", [16, 32, 64])
    def test_odd_map_matches_full_system(self, odd_problems, name, order):
        problem = odd_problems[name]
        target = sine(1) + cosine(1)
        reference = full_system_lstsq(problem, target, BLOCK_WEIGHTS, order)
        # the premise of the split: the cos x cos and sin x sin blocks are rounding
        cos, sin = slice(0, order + 1), slice(order + 1, None)
        top = np.max(np.abs(reference.system))
        assert np.max(np.abs(reference.system[cos, cos])) <= 1e-12 * top
        assert np.max(np.abs(reference.system[sin, sin])) <= 1e-12 * top
        assert _real_blocks(problem.map, order) == [(cos, sin), (sin, cos)]
        sol = minimal_norm_control(problem, target, BLOCK_WEIGHTS, order)
        assert sol.rank == reference.rank
        assert sol.residual <= FEASIBILITY_TOL
        s = reference.singular_values
        assert sol.margin[0] == pytest.approx(s[sol.rank - 1] / s[0], rel=1e-4)
        if sol.margin[0] >= 10 * PSEUDOINVERSE_CUTOFF:
            # near the cutoff, rounding-level changes to A move eps by more
            gap = np.max(np.abs(sol.epsilon.coeffs - reference.epsilon))
            assert gap <= 1e-9 * np.max(np.abs(reference.epsilon))

    @pytest.mark.parametrize("name", ["wavy", "doubling", "steep", "degree-three"])
    @pytest.mark.parametrize("order", [16, 64, 256])
    def test_built_blocks_are_slices_of_the_whole_system(self, name, order):
        # Each block, scaled in place, holds the bits of the same slice of
        # the whole weighted real system, its zeros' signs included, with a
        # zero border; the same holds for the blocks the other maps do not use.
        circle_map = {**ODD_MAPS, **NON_ODD_MAPS}[name]
        problem = ResponseProblem.for_map(circle_map, 96)
        rows = _floored(_constraint_rows(problem, order))
        scale = _weight_scale(BLOCK_WEIGHTS, order)
        whole = real_matrix_from_rows(rows) * scale
        cos, sin = slice(0, order + 1), slice(order + 1, None)
        quarters = [(r, c) for r in (cos, sin) for c in (cos, sin)]
        for block in _real_blocks(circle_map, order) + quarters:
            padded = _weighted_block(rows, scale, block)
            assert np.array_equal(padded[:-1, :-1], whole[block])
            assert np.array_equal(np.signbit(padded[:-1, :-1]), np.signbit(whole[block]))
            assert not padded[-1].any() and not padded[:, -1].any()

    def test_solve_builds_only_the_blocks(self, benchmark_problem, monkeypatch):
        # An odd map's solve asks the builder for its two blocks and nothing else.
        calls = []
        original = control.real_matrix_from_rows
        monkeypatch.setattr(control, "real_matrix_from_rows",
                            lambda rows, *block, **kw: calls.append(block)
                            or original(rows, *block, **kw))
        minimal_norm_control(benchmark_problem, cosine(1) + cosine(3, 0.5), BLOCK_WEIGHTS)
        assert calls == [tuple(b) for b in _real_blocks(benchmark_problem.map, 256)]

    @pytest.mark.parametrize("name", NON_ODD_MAPS)
    def test_other_maps_solve_the_whole_system(self, name):
        # order 96 resolves every map's density; the target need not be feasible
        circle_map = NON_ODD_MAPS[name]
        problem = ResponseProblem.for_map(circle_map, 96)
        reference = full_system_lstsq(problem, sine(1) + cosine(1), BLOCK_WEIGHTS, 96)
        blocks = _real_blocks(circle_map, 96)
        assert blocks == [(slice(None), slice(None))]
        coords, rank, _ = _block_lstsq(padded_blocks(reference.system, blocks),
                                       reference.rhs, blocks)
        assert np.array_equal(coords, reference.coords)
        assert rank == reference.rank

    def test_whole_system_solution_is_the_reference(self):
        problem = ResponseProblem.for_map(NON_ODD_MAPS["degree-three"], 64)
        target = sine(1) + cosine(1)
        reference = full_system_lstsq(problem, target, BLOCK_WEIGHTS, 64)
        sol = minimal_norm_control(problem, target, BLOCK_WEIGHTS)
        assert np.array_equal(sol.epsilon.coeffs, reference.epsilon)
        s = reference.singular_values
        assert sol.margin == (s[sol.rank - 1] / s[0], s[sol.rank] / s[0])

    def test_rounding_level_real_part_is_not_odd(self, wavy):
        # a real part of 1e-17 breaks the symmetry the split rests on
        nearly = CircleMap(2, sine(1, 0.1) + cosine(1, 2e-17))
        assert np.max(np.abs(nearly.periodic_part.coeffs.real)) == 1e-17
        assert _real_blocks(nearly, 32) == [(slice(None), slice(None))]
        assert len(_real_blocks(wavy, 32)) == 2
        problem = ResponseProblem.for_map(nearly, 64)
        reference = full_system_lstsq(problem, sine(1), BLOCK_WEIGHTS, 32)
        sol = minimal_norm_control(problem, sine(1), BLOCK_WEIGHTS, 32)
        assert np.array_equal(sol.epsilon.coeffs, reference.epsilon)

    def test_one_dgelsd_per_block_at_benchmark_config(self, benchmark_problem, monkeypatch):
        calls = []
        original = control.np.linalg.lstsq
        monkeypatch.setattr(control.np.linalg, "lstsq",
                            lambda *a, **kw: calls.append(a[0].shape) or original(*a, **kw))
        target = cosine(1) + cosine(3, 0.5)
        for order, rank, margin in ((256, 306, (1.0419e-10, 7.714e-12)),
                                    (512, 442, (1.0048e-10, 9.912e-11))):
            calls.clear()
            sol = minimal_norm_control(benchmark_problem, target, BLOCK_WEIGHTS, order)
            assert len(calls) == 2
            assert sol.rank == rank
            assert sol.margin == pytest.approx(margin, rel=1e-3)

    def test_top_from_a_later_block_resolves_the_earlier(self, monkeypatch):
        # The first block has the larger Frobenius norm, the second the largest
        # singular value, 1.4.  The first block's 1.2e-10 is kept under its own
        # cutoff (1e-10) and dropped under the global one (1.4e-10).
        rng = np.random.default_rng(18)
        k = 8

        def block(rows, cols, s):
            u = np.linalg.qr(rng.normal(size=(rows, rows)))[0][:, :len(s)]
            v = np.linalg.qr(rng.normal(size=(cols, cols)))[0][:, :len(s)]
            return (u * s) @ v.T

        first = block(k + 1, k, [1.0, 0.8, 0.6, 0.5, 0.3, 0.1, 1.2e-10, 1e-14])
        second = block(k, k + 1, [1.4, 0.05, 0.02, 0.01, 5e-3, 2e-3, 1e-3, 5e-11])
        assert np.linalg.norm(first) > np.linalg.norm(second)
        cos, sin = slice(0, k + 1), slice(k + 1, None)
        blocks = [(cos, sin), (sin, cos)]
        system = np.zeros((2 * k + 1, 2 * k + 1))
        system[cos, sin] = first
        system[sin, cos] = second
        rhs = rng.normal(size=2 * k + 1)
        coords, _, rank, s = np.linalg.lstsq(system, rhs, rcond=PSEUDOINVERSE_CUTOFF)
        own = [np.linalg.lstsq(system[rows, cols], rhs[rows],
                               rcond=PSEUDOINVERSE_CUTOFF)[2] for rows, cols in blocks]
        assert sum(own) == rank + 1 == 14

        calls = []
        original = control.np.linalg.lstsq
        monkeypatch.setattr(control.np.linalg, "lstsq",
                            lambda *a, **kw: calls.append(a[0].shape) or original(*a, **kw))
        got, got_rank, margin = _block_lstsq(padded_blocks(system, blocks), rhs, blocks)
        # the first block, then the second bordered, then the first bordered again
        assert calls == [(k + 1, k), (k + 1, k + 2), (k + 2, k + 1)]
        assert got_rank == rank
        assert margin == pytest.approx((s[rank - 1] / s[0], s[rank] / s[0]), rel=1e-12)
        assert np.max(np.abs(got - coords)) <= 1e-12 * np.max(np.abs(coords))

    def test_cutoff_is_global_over_blocks(self, benchmark_problem):
        # on the benchmark config the blocks' largest singular values are
        # 1.09e-3 and 0.369: a per-block cutoff would keep rank 527, not 442
        target = cosine(1) + cosine(3, 0.5)
        reference = full_system_lstsq(benchmark_problem, target, BLOCK_WEIGHTS, 512)
        blocks = _real_blocks(benchmark_problem.map, 512)
        own = [np.linalg.lstsq(reference.system[rows, cols], reference.rhs[rows],
                               rcond=PSEUDOINVERSE_CUTOFF)[2] for rows, cols in blocks]
        assert sum(own) == 527
        _, rank, _ = _block_lstsq(padded_blocks(reference.system, blocks),
                                  reference.rhs, blocks)
        assert rank == reference.rank == 442


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
        eps = dft(1.0 / rho.evaluate(circle_map.evaluate(x))
                  - circle_map.evaluate(x, 1) / rho.evaluate(x), wavy_problem.order)
        assert sup_norm(forward_response(wavy_problem, eps)) < 1e-10
        outside = eps
        for v in kernel_directions(wavy_problem, count=count, weights=weights):
            outside = outside - float(weighted_inner_product(v, eps, weights).real) * v
        assert sobolev_norm(outside, weights) <= share * sobolev_norm(eps, weights)

    def test_warns_when_kernel_exhausted(self, doubling_problem):
        with pytest.warns(RuntimeWarning, match="null directions"):
            kernel_directions(doubling_problem, order=4, count=50)

    @pytest.mark.parametrize("count", [0, -2, 2.5, True])
    def test_refuses_count_below_one(self, wavy_problem, count):
        # Unchecked, count=-2 would slice null[:-2] and drop the last two directions.
        with pytest.raises(ValueError, match="count"):
            kernel_directions(wavy_problem, order=16, count=count)


class TestTruncationReport:
    def test_doubling_norms_stable(self, doubling_problem):
        low, high = (minimal_norm_control(doubling_problem, sine(1), order=k).norm
                     for k in (32, 64))
        assert abs(high - low) < 1e-9


class TestTruncationDefect:
    """truncation_defect: A eps - r at order 2N as -(L(rho eps))' - r, with no assembly."""

    @pytest.mark.parametrize("name", ["wavy_problem", "degree_three_problem"])
    def test_matches_the_assembled_constraint(self, request, name):
        problem = request.getfixturevalue(name)
        target = cosine(1) + cosine(3, 0.5)
        eps = minimal_norm_control(problem, target, BLOCK_WEIGHTS, 32).epsilon
        defect = truncation_defect(problem, target, eps, 64)
        image = constraint_matrix(problem, 64) @ eps.with_order(64).coeffs
        reference = image - _constraint_rhs(problem, target, 64)
        assert defect.order == 64
        assert np.max(np.abs(defect.coeffs - reference)) <= 1e-10 * np.max(np.abs(image))

    def test_doubling_exact_control(self, doubling):
        # The exact eps leaves only rounding, which the factor 2 pi j of the
        # derivative amplifies: 5.9e-14 at order 32, 1.9e-12 at order 128.
        problem = ResponseProblem.for_map(doubling, 16)
        target = sine(1) + cosine(3, 0.5)
        defect = truncation_defect(problem, target, exact_control(target), 32)
        assert np.linalg.norm(defect.coeffs) <= 1e-12

    def test_target_beyond_order_is_infeasible(self, wavy_problem):
        with pytest.raises(InfeasibleTargetError, match="exceeds truncation 16"):
            truncation_defect(wavy_problem, cosine(20), zeros(2), 16)


@pytest.mark.parametrize("order", [-1, 0, 2.5, True])
@pytest.mark.parametrize("solve", [
    lambda p, order: minimal_norm_control(p, sine(1), order=order),
    lambda p, order: kernel_directions(p, order=order),
    lambda p, order: [minimal_norm_control(p, sine(1), order=k).norm
                      for k in (order, 2 * order)],
    lambda p, order: truncation_defect(p, sine(1), zeros(2), order),
], ids=["minimal_norm_control", "kernel_directions", "truncation_report",
        "truncation_defect"])
def test_refuses_order_below_one(wavy_problem, solve, order):
    # Unchecked, -1 would read as "exceeds truncation -1", 2.5 would fail
    # inside numpy and True would solve at order 1.
    with pytest.raises(ValueError, match="order must be"):
        solve(wavy_problem, order)


class TestSharedAssembly:
    """Rank and margin pins of the minimal-norm solves at N and 2N."""

    def test_benchmark_config(self, benchmark_problem):
        # the order-N grid has 2048 points, the order-2N grid 4096
        target = cosine(1) + cosine(3, 0.5)
        low = minimal_norm_control(benchmark_problem, target, BLOCK_WEIGHTS, 256)
        assert low.rank == 306
        assert low.margin == pytest.approx((1.0419e-10, 7.714e-12), rel=1e-3)
        high = minimal_norm_control(benchmark_problem, target, BLOCK_WEIGHTS, 512)
        assert high.rank == 442
        assert high.margin == pytest.approx((1.0048e-10, 9.912e-11), rel=1e-3)

    def test_non_odd_map(self, degree_three_problem):
        target = cosine(1) + cosine(3, 0.5)
        low = minimal_norm_control(degree_three_problem, target, BLOCK_WEIGHTS)
        assert low.rank == 58
        assert low.margin == pytest.approx((3.0098e-10, 5.944e-12), rel=1e-3)
        high = minimal_norm_control(degree_three_problem, target, BLOCK_WEIGHTS, 128)
        assert high.rank == 112
        assert high.margin == pytest.approx((3.2959e-10, 2.5265e-11), rel=1e-3)

    def test_non_odd_map_on_a_finer_grid(self):
        problem = ResponseProblem.for_map(NON_ODD_MAPS["degree-three"], 96)
        target = cosine(1) + cosine(3, 0.5)
        sol = minimal_norm_control(problem, target, BLOCK_WEIGHTS)
        assert sol.rank == 84
        assert sol.margin == pytest.approx((9.146e-10, 7.387e-11), rel=1e-3)
        realized = forward_response(problem, sol.epsilon)
        assert sup_norm(realized - target) <= 1e-9

    @pytest.mark.parametrize("name", ["wavy_problem", "degree_three_problem"])
    def test_residual_from_the_rows_j_nonnegative(self, request, name):
        # ||d||^2 = |d_0|^2 + 2 sum_{j>0} |d_j|^2 against the full complex defect
        problem = request.getfixturevalue(name)
        target = cosine(1) + cosine(3, 0.5)
        for order in (32, 64):
            sol = minimal_norm_control(problem, target, BLOCK_WEIGHTS, order)
            defect = (constraint_matrix(problem, order) @ sol.epsilon.coeffs
                      - _constraint_rhs(problem, target, order))
            assert sol.residual == pytest.approx(np.linalg.norm(defect), rel=1e-4)

    def test_target_beyond_truncation_is_refused_before_assembly(self, wavy_problem,
                                                                  monkeypatch):
        monkeypatch.setattr(control, "_constraint_rows", None)
        with pytest.raises(InfeasibleTargetError, match="exceeds truncation 16"):
            minimal_norm_control(wavy_problem, cosine(20), order=16)


REFUSED_TARGETS = {"mix": cosine(1) + cosine(3, 0.5), "sin2": sine(2)}


@pytest.fixture(scope="module")
def steep_problem():
    return ResponseProblem.for_map(steep_map(), 128)


class TestSobolevRefusal:
    """A target the steep map realizes at N=128 is refused under Sobolev weights.

    With a=0.5, d=1 the square weighted system keeps too few singular values
    above the 1e-10 cutoff, and the constraint residual (1.284e-8 for mix,
    1.220e-8 for sin2) misses the feasibility bound, while L2 weights and the
    two-step route realize both targets near 1e-12.  The refusal is a known
    defect: its tests are strict xfails, so a fix shows as XPASS.
    """

    @pytest.mark.parametrize("name", list(REFUSED_TARGETS))
    def test_l2_weights_and_two_step_realize_the_target(self, steep_problem, name):
        target = REFUSED_TARGETS[name]
        assert minimal_norm_control(steep_problem, target).residual < 1e-11
        assert solve_control(steep_problem, target, BLOCK_WEIGHTS).residual < 1e-11

    @pytest.mark.xfail(strict=True, raises=InfeasibleTargetError,
                       reason="the square weighted system cuts too many singular values")
    @pytest.mark.parametrize("name", list(REFUSED_TARGETS))
    def test_sobolev_weights_realize_the_target(self, steep_problem, name):
        sol = minimal_norm_control(steep_problem, REFUSED_TARGETS[name], BLOCK_WEIGHTS)
        assert sol.residual < FEASIBILITY_TOL


SCALED_MIX = cosine(1) + cosine(3, 0.5)
SCALED_SOLVES = {
    "forward_response": (forward_response, cosine(2)),
    "solve_control": (lambda p, t: solve_control(p, t).epsilon, SCALED_MIX),
    "minimal_norm_control": (
        lambda p, t: minimal_norm_control(p, t, SobolevWeights(a=0.5, d=1.0)).epsilon,
        SCALED_MIX),
}


def check_scaled(problem, name, scale):
    """The answer to the data times ``scale`` is ``scale`` times the unit answer."""
    solve, data = SCALED_SOLVES[name]
    unit, scaled = solve(problem, data), solve(problem, data * scale)
    assert sup_norm(scaled - unit * scale) < 1e-13 * sup_norm(scaled)


class TestScaledLinearProblems:
    """A linear problem scaled by up to 1e6 returns the scale times its unit answer.

    On the wavy map at N=64 the rounding error grows with the data: at scale
    1e5 forward_response's two forms differ by 5.5e-9, solve_control's
    step-1 defect is 3.9e-9 and minimal_norm_control's residual is 1.65e-8,
    above the unscaled tolerances 1e-9, 1e-9 and 1e-8.  So each gate holds
    its defect to the tolerance times max(1, s), s the size of its data.
    """

    def test_scale_1e4_returns_the_scaled_unit_answer(self, wavy_problem):
        for name in SCALED_SOLVES:
            check_scaled(wavy_problem, name, 1e4)

    def test_scale_1e6_returns_the_scaled_unit_answer(self, wavy_problem):
        for name in SCALED_SOLVES:
            check_scaled(wavy_problem, name, 1e6)

    def test_forward_response_at_scale_1e5(self, wavy_problem):
        check_scaled(wavy_problem, "forward_response", 1e5)

    def test_solve_control_at_scale_1e5(self, wavy_problem):
        check_scaled(wavy_problem, "solve_control", 1e5)

    def test_minimal_norm_control_at_scale_1e5(self, wavy_problem):
        check_scaled(wavy_problem, "minimal_norm_control", 1e5)
