import numpy as np
import pytest

from linresp import (FourierSeries, GridFunction, SobolevWeights, antiderivative,
                     constant, cosine, dft, differentiate, idft, l2_norm,
                     multiply, sine, sobolev_norm, sup_norm, zeros)
from linresp.fourier import from_real_basis, to_real_basis, to_real_basis_matrix

from conftest import random_series

TWO_PI = 2 * np.pi


def grid(size):
    return np.arange(size) / size


class TestDft:
    def test_sin_on_eight_points(self):
        g = GridFunction(np.sin(TWO_PI * grid(8)))
        f = dft(g, 1)
        assert f.coeff(1) == pytest.approx(1 / 2j, abs=1e-15)
        assert f.coeff(-1) == pytest.approx(-1 / 2j, abs=1e-15)
        assert abs(f.coeff(0)) < 1e-15

    def test_constant(self):
        f = dft(GridFunction(np.ones(8)), 2)
        assert f.coeff(0) == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(f.coeffs[f.modes != 0])) < 1e-15

    def test_cos_over_two_pi(self):
        g = GridFunction(np.cos(2 * TWO_PI * grid(16)) / TWO_PI)
        f = dft(g, 2)
        assert f.coeff(2) == pytest.approx(1 / (4 * np.pi), abs=1e-15)
        assert f.coeff(-2) == pytest.approx(1 / (4 * np.pi), abs=1e-15)

    def test_rejects_aliasing_grid(self):
        with pytest.raises(ValueError, match="alias"):
            dft(GridFunction(np.ones(8)), 4)

    def test_exact_for_resolved_polynomials(self):
        rng = np.random.default_rng(3)
        f = random_series(rng, 5)
        g = idft(f, 16)
        back = dft(g, 5)
        np.testing.assert_allclose(back.coeffs, f.coeffs, atol=1e-14)


class TestIdft:
    def test_sin_samples(self):
        f = sine(1)
        g = idft(f, 8)
        np.testing.assert_allclose(g.samples, np.sin(TWO_PI * grid(8)), atol=1e-15)

    def test_zero_series(self):
        assert np.all(idft(zeros(3), 16).samples == 0)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(7)
        f = random_series(rng, 10)
        assert np.max(np.abs(dft(idft(f, 32), 10).coeffs - f.coeffs)) < 1e-12
        # and on the sample side: dft then idft at the same resolution
        g = idft(f, 32)
        back = idft(dft(g, 10), 32)
        assert np.max(np.abs(back.samples - g.samples)) < 1e-12

    def test_broken_symmetry_detected(self):
        crooked = FourierSeries(np.array([0.0, 0.0, 1.0], dtype=complex))
        with pytest.raises(ValueError, match="Hermitian"):
            idft(crooked, 8)

    def test_evaluate_refuses_broken_symmetry(self):
        # evaluation reads modes 0..N only, so the check is on the coefficients
        crooked = FourierSeries(np.array([0.0, 0.0, 1.0], dtype=complex))
        with pytest.raises(ValueError, match="Hermitian"):
            crooked.evaluate(np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="Hermitian"):
            crooked.evaluate(0.3)

    def test_grid_values_fold_high_modes(self):
        # modes beyond size/2 fold onto n mod size: exact point values
        from linresp.fourier import grid_values
        f = random_series(np.random.default_rng(11), 40)
        x = np.arange(16) / 16
        np.testing.assert_allclose(grid_values(f, 16), f.evaluate(x), rtol=0, atol=1e-13)
        np.testing.assert_allclose(grid_values(f, 128), idft(f, 128).samples, rtol=0, atol=0)


class TestDifferentiate:
    def test_sine(self):
        d = differentiate(sine(1))
        expected = cosine(1, TWO_PI)
        np.testing.assert_allclose(d.coeffs, expected.coeffs, atol=1e-15)

    def test_constant_any_order(self):
        for order in (1, 2, 3, 4):
            assert np.all(differentiate(constant(3.0), order).coeffs == 0)

    def test_chain_rule_example(self):
        # d/dx cos(4 pi x)/(2 pi) = -2 sin(4 pi x)
        d = differentiate(cosine(2, 1 / TWO_PI))
        np.testing.assert_allclose(d.coeffs, sine(2, -2.0).coeffs, atol=1e-15)


class TestAntiderivative:
    def test_sin_four_pi(self):
        # integral of sin(4 pi x) = -cos(4 pi x)/(4 pi), zero mean
        a = antiderivative(sine(2))
        np.testing.assert_allclose(a.coeffs, cosine(2, -1 / (4 * np.pi)).coeffs,
                                   atol=1e-16)

    def test_zero(self):
        assert np.all(antiderivative(zeros(2)).coeffs == 0)

    def test_two_sin_four_pi(self):
        # 2 b_2 e^{4 pi i x} + 2 b_{-2} e^{-4 pi i x} with b_2 = -i/2 is
        # 2 sin(4 pi x); its primitive is -cos(4 pi x)/(2 pi).
        c = np.zeros(5, dtype=complex)
        c[4] = 2 * (-0.5j)
        c[0] = 2 * (0.5j)
        a = antiderivative(FourierSeries(c))
        np.testing.assert_allclose(a.coeffs, cosine(2, -1 / TWO_PI).coeffs, atol=1e-16)

    def test_rejects_nonzero_mean(self):
        with pytest.raises(ValueError, match="mean"):
            antiderivative(constant(1.0))

    def test_inverts_differentiate(self):
        rng = np.random.default_rng(11)
        f = random_series(rng, 8, zero_mean=True)
        np.testing.assert_allclose(differentiate(antiderivative(f)).coeffs,
                                   f.coeffs, atol=1e-12)


class TestMultiply:
    def test_identity(self):
        rng = np.random.default_rng(13)
        f = random_series(rng, 6)
        prod = multiply(f, constant(1.0))
        np.testing.assert_allclose(prod.with_order(6).coeffs, f.coeffs, atol=1e-14)

    def test_sin_squared(self):
        prod = multiply(sine(1), sine(1))
        expected = constant(0.5).with_order(2) + cosine(2, -0.5)
        np.testing.assert_allclose(prod.coeffs, expected.coeffs, atol=1e-15)

    def test_doubling_example_product(self):
        # eps0 * rho / T' with rho = 1, T' = 2: cos(4 pi x)/(4 pi),
        # whose +-2 coefficients are 1/(8 pi).
        prod = multiply(cosine(2, 1 / TWO_PI), constant(0.5))
        assert prod.coeff(2) == pytest.approx(1 / (8 * np.pi), abs=1e-15)
        np.testing.assert_allclose(prod.coeffs,
                                   cosine(2, 1 / (4 * np.pi)).with_order(2).coeffs,
                                   atol=1e-15)

    def test_commutative_bilinear(self):
        rng = np.random.default_rng(17)
        f, g, h = (random_series(rng, 5) for _ in range(3))
        np.testing.assert_allclose(multiply(f, g).coeffs, multiply(g, f).coeffs,
                                   atol=1e-12)
        lhs = multiply(f + 2.0 * h, g)
        rhs = multiply(f, g) + 2.0 * multiply(h, g)
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)

    def test_preserves_hermitian_symmetry(self):
        rng = np.random.default_rng(19)
        f, g = random_series(rng, 7), random_series(rng, 4)
        assert multiply(f, g).hermitian_defect == 0.0


class TestSobolevNorm:
    def test_worked_example_l2_value(self):
        f = cosine(2, 1 / TWO_PI)
        assert sobolev_norm(f, SobolevWeights()) == pytest.approx(
            np.sqrt(8) / (8 * np.pi), abs=1e-15)

    def test_zero_function(self):
        assert sobolev_norm(zeros(4), SobolevWeights(1, 1, 1, 1)) == 0.0

    def test_constant_any_weights(self):
        assert sobolev_norm(constant(1.0), SobolevWeights(2, 3, 4, 5)) == 1.0

    def test_parseval_matches_quadrature(self):
        rng = np.random.default_rng(23)
        f = random_series(rng, 12)
        vals = idft(f, 1024).samples
        assert l2_norm(f) == pytest.approx(np.sqrt(np.mean(vals**2)), abs=1e-10)

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            SobolevWeights(a=-1.0)


class TestSeriesBasics:
    def test_evaluate_real_output(self):
        rng = np.random.default_rng(29)
        f = random_series(rng, 9)
        x = rng.uniform(0, 1, 50)
        manual = sum(f.coeff(n) * np.exp(2j * np.pi * n * x) for n in range(-9, 10))
        np.testing.assert_allclose(f.evaluate(x), manual.real, atol=1e-12)
        assert isinstance(f.evaluate(0.25), float)

    def test_operations_preserve_symmetry(self):
        rng = np.random.default_rng(31)
        f = random_series(rng, 6)
        g = random_series(rng, 3)
        for result in (f + g, f - g, 2.5 * f, -f, differentiate(f),
                       antiderivative(f - constant(f.mean)), multiply(f, g)):
            assert result.hermitian_defect == 0.0

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(37)
        f = random_series(rng, 5)
        back = FourierSeries.from_dict(f.to_dict())
        np.testing.assert_array_equal(back.coeffs, f.coeffs)

    def test_grid_requires_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            GridFunction(np.ones(12))

    def test_complex_scalar_rejected(self):
        with pytest.raises(TypeError):
            sine(1) * 1j

    def test_sup_norm(self):
        assert sup_norm(sine(1)) == pytest.approx(1.0, abs=1e-12)


class TestRealBasis:
    def test_round_trip_is_isometry(self):
        rng = np.random.default_rng(101)
        f = random_series(rng, 7)
        coords = to_real_basis(f.coeffs)
        assert coords.dtype == float and coords.size == f.coeffs.size
        np.testing.assert_allclose(from_real_basis(coords).coeffs, f.coeffs, atol=1e-15)
        assert np.linalg.norm(coords) == pytest.approx(np.linalg.norm(f.coeffs), rel=1e-14)
        u = rng.normal(size=15)
        back = from_real_basis(u)
        assert back.hermitian_defect == 0.0
        np.testing.assert_allclose(to_real_basis(back.coeffs), u, atol=1e-15)

    def test_cosine_and_sine_coordinates(self):
        # f = a_0 + sqrt(2) sum (a_n cos + b_n sin), coordinates (a_0, a_1..a_3, b_1..b_3)
        expected = np.zeros(7)
        expected[2] = 0.6 / np.sqrt(2)
        expected[3 + 2] = -0.4 / np.sqrt(2)
        f = (cosine(2, 0.6) + sine(2, -0.4)).with_order(3)
        np.testing.assert_allclose(to_real_basis(f.coeffs), expected, atol=1e-15)
        assert to_real_basis(constant(1.5).coeffs)[0] == 1.5

    def test_rejects_non_hermitian_coefficients(self):
        with pytest.raises(ValueError, match="Hermitian"):
            to_real_basis(np.array([1j, 0.0, 0.0]))

    def test_matrix_matches_explicit_change_of_basis(self, wavy):
        from linresp import galerkin_matrix
        for order in (6, 64):
            a = galerkin_matrix(wavy, order).entries
            size = 2 * order + 1
            q = np.array([from_real_basis(e).coeffs for e in np.eye(size)]).T
            np.testing.assert_allclose(q.conj().T @ q, np.eye(size), atol=1e-15)
            explicit = q.conj().T @ a @ q
            assert np.max(np.abs(explicit.imag)) < 1e-15
            np.testing.assert_allclose(to_real_basis_matrix(a), explicit.real, atol=1e-15)

    def test_matrix_must_commute_with_conjugation(self, wavy):
        from linresp import galerkin_matrix
        rng = np.random.default_rng(103)
        noise = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        row_zero = np.array(galerkin_matrix(wavy, 4).entries)
        row_zero[4, 5] += 1e-6  # A[0, 1]: row 0 is no longer Hermitian
        negative_row = np.array(galerkin_matrix(wavy, 4).entries)
        negative_row[2] += 1e-6 * rng.normal(size=9)  # row j = -2: the formula never reads it
        for a in (noise, row_zero, negative_row):
            with pytest.raises(ValueError, match="imaginary residue"):
                to_real_basis_matrix(a)
