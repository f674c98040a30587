import numpy as np
import pytest

from linresp import (CircleDiffeo, CircleMap, GridFunction, SobolevWeights, apply_transfer,
                     build_conjugate, compare_l1, constant, cosine, derivative_operator,
                     dft, fixed_point_residual, forward_response, galerkin_matrix, idft,
                     invariant_density, sine, solve_zero_mean, sup_norm,
                     transfer_conjugacy_check, ulam_build, zeros)
from linresp.control import minimal_norm_control
from linresp import transfer
from linresp.transfer import apply_transfer_pointwise

from conftest import direct_galerkin_entries, random_series, seeded_maps, steep_map

GALERKIN_MAPS = {"wavy": CircleMap(2, sine(1, 0.1)), "steep": steep_map(),
                 **{f"seeded-degree{m.degree}": m for m in seeded_maps()}}


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
        rows = np.asarray(model.matrix.sum(axis=1)).ravel()
        assert compare_l1(rows, out) < 1e-6

    def test_grid_input_returns_grid(self, wavy):
        g = idft(constant(1.0) + cosine(1, 0.3), 256)
        out = apply_transfer(wavy, g)
        assert isinstance(out, GridFunction)
        assert out.size == 256
        series_out = apply_transfer(wavy, constant(1.0) + cosine(1, 0.3),
                                    out_order=64)
        np.testing.assert_allclose(out.samples, idft(series_out, 256).samples,
                                   atol=1e-10)

    def test_integral_preserved(self, doubling, wavy, triple):
        rng = np.random.default_rng(41)
        for circle_map in (doubling, wavy, triple):
            w = random_series(rng, 10)
            out = apply_transfer(circle_map, w, out_order=32)
            assert abs(out.coeff(0) - w.coeff(0)) < 1e-10

    def test_positivity(self, wavy):
        rng = np.random.default_rng(43)
        base = random_series(rng, 6)
        nonneg = GridFunction(idft(base, 256).samples ** 2)
        out = apply_transfer(wavy, nonneg)
        assert np.min(out.samples) > -1e-12


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
        reference = dft(GridFunction(apply_transfer_pointwise(circle_map, w, x)), out)
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


class TestGalerkinMatrix:
    def test_doubling_shift_structure(self, doubling):
        m = galerkin_matrix(doubling, 8)
        expected = np.zeros((17, 17))
        for j in range(-4, 5):
            expected[j + 8, 2 * j + 8] = 1.0
        np.testing.assert_allclose(m.entries, expected, atol=1e-12)

    def test_row_zero_unit(self, wavy):
        m = galerkin_matrix(wavy, 16)
        unit = np.zeros(33)
        unit[16] = 1.0
        np.testing.assert_allclose(m.entries[16], unit, atol=1e-10)

    def test_leading_eigenvalue_one(self, wavy):
        m = galerkin_matrix(wavy, 32)
        eigs = np.linalg.eigvals(m.entries)
        assert np.max(np.abs(eigs)) == pytest.approx(1.0, abs=1e-10)

    def test_matches_pointwise_application(self, wavy):
        # degree <= N/2 polynomials: matrix and Newton-preimage route agree
        rng = np.random.default_rng(47)
        m = galerkin_matrix(wavy, 32)
        w = random_series(rng, 16)
        via_matrix = m.apply(w)
        x = np.arange(256) / 256
        via_points = dft(GridFunction(apply_transfer_pointwise(wavy, w, x)), 32)
        assert np.max(np.abs(via_matrix.coeffs - via_points.coeffs)) < 1e-8

    @pytest.mark.parametrize("name", ["wavy", "triple"])
    @pytest.mark.parametrize("order", [8, 32, 128])
    def test_fft_assembly_matches_direct_quadrature(self, request, name, order):
        # order 128 (Q = 1024): the 129 rows j >= 0 take five blocks, the last of one row
        circle_map = request.getfixturevalue(name)
        m = galerkin_matrix(circle_map, order)
        reference = direct_galerkin_entries(circle_map, order, order, m.quad_size)
        assert np.max(np.abs(m.entries - reference)) < 1e-13

    def test_assembly_independent_of_block_size(self, wavy, monkeypatch):
        # the running product carries across blocks, so any block size gives the same bits
        order, quad = 32, 256
        weights = [1.0, np.random.default_rng(53).normal(size=quad)]
        results = []
        for rows in (1, 7, order + 1):
            monkeypatch.setattr(transfer, "ASSEMBLY_BLOCK", rows * quad)
            results.append([transfer._galerkin_entries(wavy, order, order, quad, w)
                            for w in weights])
        for other in results[1:]:
            for got, expected in zip(other, results[0]):
                assert np.array_equal(got, expected)

    @pytest.mark.parametrize("order", [8, 64, 256])
    def test_quadrature_floors_kept_for_mild_maps(self, wavy, order):
        from linresp.transfer import quadrature_size
        assert galerkin_matrix(wavy, order).quad_size == max(8 * order, 128)
        assert quadrature_size(wavy, order, max(16 * order, 256)) == max(16 * order, 256)

    def test_quadrature_grows_with_max_derivative(self):
        from linresp import CircleMap
        from linresp.transfer import quadrature_size
        steep = CircleMap(5, sine(1, 0.4) + cosine(7, 0.02))
        fine = np.arange(2**16) / 2**16
        assert steep.max_derivative == pytest.approx(np.max(steep.evaluate(fine, 1)), rel=1e-6)
        assert quadrature_size(steep, 128, 1024) == 2048
        assert quadrature_size(steep, 128, 4096) == 4096


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
        assert np.max(np.abs(m.entries @ rho - rho)) <= 1e-14

    def test_wavy_matches_ulam(self, wavy, wavy_problem):
        model = ulam_build(wavy, 2**15)
        assert compare_l1(model.stationary, wavy_problem.density) < 1e-3

    def test_pointwise_residual(self, wavy, wavy_problem):
        assert fixed_point_residual(wavy, wavy_problem.density) < 1e-9

    def test_positive_and_normalized(self, wavy_problem):
        rho = wavy_problem.density
        assert rho.coeff(0) == pytest.approx(1.0, abs=1e-12)
        assert np.min(idft(rho, 4096).samples) > 0


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
        defect = wavy_problem.matrix.apply(v)
        np.testing.assert_allclose((v - defect).coeffs, rhs.coeffs, atol=1e-10)
        assert abs(v.coeff(0)) == 0.0

    def test_restricted_system_well_conditioned(self, wavy_problem):
        cond = wavy_problem.matrix.restricted_condition
        assert np.isfinite(cond) and cond < 1e12

    def test_near_singular_system_reported(self):
        # hand-built matrix whose restricted I - M is nearly rank one
        from linresp import TransferMatrix
        entries = np.array([[0.0, 0.0, -1.0],
                            [0.0, 1.0, 0.0],
                            [-1.0, 0.0, -1e-13]], dtype=complex)
        shaky = TransferMatrix(entries, 1, 8)
        assert shaky.restricted_condition > 1e12
        with pytest.warns(RuntimeWarning, match="condition"):
            solve_zero_mean(shaky, sine(1, 1e-15))


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
