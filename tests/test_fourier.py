import re
import tracemalloc

import numpy as np
import pytest

from linresp import (FourierSeries, SobolevWeights, antiderivative, cosine, dft,
                     differentiate, grid_values, sine, sobolev_norm, sup_norm, zeros)
from linresp import control, transfer
from linresp.fourier import (BLOCK, DENSE_GRID, baby_steps, exact_size, from_real_basis,
                             half_spectrum, next_pow2, real_horner, require_zero_mean,
                             to_real_basis)
from linresp.transfer import quadrature_size, real_matrix_from_rows

from conftest import constant, conjugate_fill, multiply, random_series, real_basis_change

TWO_PI = 2 * np.pi


def grid(size):
    return np.arange(size) / size


class TestDft:
    def test_sin_on_eight_points(self):
        f = dft(np.sin(TWO_PI * grid(8)), 1)
        assert f.coeff(1) == pytest.approx(1 / 2j, abs=1e-15)
        assert f.coeff(-1) == pytest.approx(-1 / 2j, abs=1e-15)
        assert abs(f.coeff(0)) < 1e-15

    def test_constant(self):
        f = dft(np.ones(8), 2)
        assert f.coeff(0) == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(f.coeffs[f.modes != 0])) < 1e-15

    def test_cos_over_two_pi(self):
        f = dft(np.cos(2 * TWO_PI * grid(16)) / TWO_PI, 2)
        assert f.coeff(2) == pytest.approx(1 / (4 * np.pi), abs=1e-15)
        assert f.coeff(-2) == pytest.approx(1 / (4 * np.pi), abs=1e-15)

    def test_rejects_aliasing_grid(self):
        with pytest.raises(ValueError, match="alias"):
            dft(np.ones(8), 4)

    def test_exact_for_resolved_polynomials(self):
        rng = np.random.default_rng(3)
        f = random_series(rng, 5)
        back = dft(grid_values(f, 16), 5)
        np.testing.assert_allclose(back.coeffs, f.coeffs, atol=1e-14)


class TestIdft:
    def test_sin_samples(self):
        f = sine(1)
        np.testing.assert_allclose(grid_values(f, 8), np.sin(TWO_PI * grid(8)), atol=1e-15)

    def test_zero_series(self):
        assert np.all(grid_values(zeros(3), 16) == 0)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(7)
        f = random_series(rng, 10)
        assert np.max(np.abs(dft(grid_values(f, 32), 10).coeffs - f.coeffs)) < 1e-12
        # and on the sample side: dft then grid_values at the same resolution
        g = grid_values(f, 32)
        back = grid_values(dft(g, 10), 32)
        assert np.max(np.abs(back - g)) < 1e-12

    def test_broken_symmetry_detected(self):
        crooked = FourierSeries(np.array([0.0, 0.0, 1.0], dtype=complex))
        with pytest.raises(ValueError, match="Hermitian"):
            grid_values(crooked, 8)

    def test_evaluate_refuses_broken_symmetry(self):
        # evaluation reads modes 0..N only, so the check is on the coefficients
        crooked = FourierSeries(np.array([0.0, 0.0, 1.0], dtype=complex))
        with pytest.raises(ValueError, match="Hermitian"):
            crooked.evaluate(np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="Hermitian"):
            crooked.evaluate(0.3)

    def test_grid_values_fold_high_modes(self):
        # modes beyond size/2 fold onto n mod size: exact point values
        f = random_series(np.random.default_rng(11), 40)
        x = np.arange(16) / 16
        np.testing.assert_allclose(grid_values(f, 16), f.evaluate(x), rtol=0, atol=1e-13)


class TestDifferentiate:
    def test_sine(self):
        d = differentiate(sine(1))
        expected = cosine(1, TWO_PI)
        np.testing.assert_allclose(d.coeffs, expected.coeffs, atol=1e-15)

    def test_constant_any_order(self):
        d = constant(3.0)
        for _ in range(4):
            d = differentiate(d)
            assert np.all(d.coeffs == 0)

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


class TestRequireZeroMean:
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e5])
    def test_gate_is_relative_to_the_largest_coefficient(self, scale):
        # bound 1e-10 max(1, max |c_n|): a cos 2 pi x of amplitude 2 scale has
        # coefficients of size scale
        bound = 1e-10 * max(1.0, scale)
        assert require_zero_mean(cosine(1, 2 * scale) + constant(0.9 * bound), "t") == bound
        with pytest.raises(ValueError, match="t has mean .*zero mean"):
            require_zero_mean(cosine(1, 2 * scale) + constant(1.1 * bound), "t")


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
        c = multiply(f, g).coeffs
        assert np.array_equal(c, np.conj(c[::-1]))


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
        vals = grid_values(f, 1024)
        assert sobolev_norm(f, SobolevWeights()) == pytest.approx(np.sqrt(np.mean(vals**2)),
                                                                  abs=1e-10)

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            SobolevWeights(a=-1.0)
        for bad in ("0.5", True, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite number"):
                SobolevWeights(d=bad)

    @pytest.mark.parametrize("name, value", [("a", 1e200), ("d", 1e300)])
    def test_weights_that_overflow_are_refused(self, wavy_problem, name, value):
        # W(n) overflows at order 1 for these weights; the pytest settings
        # turn a RuntimeWarning into an error, so none is emitted either
        from linresp import minimal_norm_control
        weights = SobolevWeights(**{name: value})
        with pytest.raises(ValueError, match=re.escape(f"weight '{name}' = {value!r} ") +
                           ".* at order 16"):
            weights.mode_weights(16)
        with pytest.raises(ValueError, match=f"weight '{name}' .* at order 1$"):
            sobolev_norm(cosine(1), weights)
        with pytest.raises(ValueError, match=f"weight '{name}' .* at order 64"):
            minimal_norm_control(wavy_problem, cosine(1), weights)
        # at order 0, W(0) = 1 whatever the weights
        assert sobolev_norm(constant(1.0), weights) == 1.0

    def test_weights_from_dict_refuses_unknown_keys(self):
        assert SobolevWeights.from_dict({"d": 1.0}) == SobolevWeights(d=1.0)
        with pytest.raises(ValueError, match="unknown weights keys"):
            SobolevWeights.from_dict({"D": 1.0})


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
                       antiderivative(f - constant(f.coeff(0).real)), multiply(f, g)):
            assert np.array_equal(result.coeffs, np.conj(result.coeffs[::-1]))

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(37)
        f = random_series(rng, 5)
        back = FourierSeries.from_dict(f.to_dict())
        np.testing.assert_array_equal(back.coeffs, f.coeffs)

    @pytest.mark.parametrize("block, match", [
        ({"N": 1.9, "coeffs": [[0.0, 0.0]] * 3}, "integer"),
        ({"N": True, "coeffs": [[0.0, 0.0]] * 3}, "integer"),
        ({"N": 1, "coeffs": [[0.0, 0.0]] * 3, "extra": 5}, "unknown series keys"),
        ({"N": -1, "coeffs": []}, ">= 0"),
        ([[0.0, 0.0]], "object"),
        ({"N": 0}, "needs keys \\['coeffs'\\]"),
    ], ids=["N-fraction", "N-bool", "extra-key", "N-negative", "not-an-object",
            "coeffs-missing"])
    def test_from_dict_refuses_malformed_blocks(self, block, match):
        with pytest.raises(ValueError, match=match):
            FourierSeries.from_dict(block)

    def test_dft_exact_on_any_resolving_grid(self):
        f = random_series(np.random.default_rng(5), 5)
        x = grid(12)  # 12 >= 2*5 + 1 points, not a power of two
        np.testing.assert_allclose(dft(f.evaluate(x), 5).coeffs, f.coeffs, rtol=0, atol=1e-14)
        with pytest.raises(ValueError, match="one-dimensional"):
            dft(np.ones((2, 12)), 5)

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
        assert np.array_equal(back.coeffs, np.conj(back.coeffs[::-1]))
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
        from linresp.transfer import _galerkin_rows, quadrature_size
        for order in (6, 64):
            matrix = galerkin_matrix(wavy, order)
            rows = _galerkin_rows(wavy, order, order, quadrature_size(wavy, order, order))
            q = real_basis_change(order)
            np.testing.assert_allclose(q.conj().T @ q, np.eye(2 * order + 1), atol=1e-15)
            explicit = q.conj().T @ conjugate_fill(rows) @ q
            assert np.max(np.abs(explicit.imag)) < 1e-15
            np.testing.assert_allclose(real_matrix_from_rows(rows), explicit.real, atol=1e-15)
            assert np.array_equal(matrix, real_matrix_from_rows(rows))

    def test_transfer_matrix_is_real_and_square(self, wavy, doubling):
        from linresp import ResponseProblem, galerkin_matrix
        real = galerkin_matrix(wavy, 4)
        with pytest.raises(TypeError, match="complex"):
            ResponseProblem(real.astype(complex), wavy)
        assert ResponseProblem(galerkin_matrix(doubling, 3), doubling).order == 3
        # the order is (size - 1) / 2 of a square odd size >= 3: order 0 is
        # refused, as galerkin_matrix refuses it
        for shape in ((9, 8), (8, 8), (1, 1), (9,), (3, 3, 3)):
            with pytest.raises(ValueError, match="square matrix of odd size >= 3"):
                ResponseProblem(np.zeros(shape), wavy)


def blocked_horner(rows, z):
    """One Horner pass per block of BLOCK points: the evaluation of short rows."""
    out = np.empty((rows.shape[0], z.size))
    for start in range(0, z.size, BLOCK):
        block = z[start:start + BLOCK]
        acc = np.repeat(rows[:, -1:], block.size, axis=1)
        for k in range(rows.shape[1] - 2, -1, -1):
            acc *= block
            acc += rows[:, k:k + 1]
        out[:, start:start + BLOCK] = 2.0 * acc.real
    return out


class TestRealHorner:
    """``real_horner``: baby-step/giant-step rows of 64 modes or more, Horner below."""

    # Points y = k/2^16: e^{2 pi i n y} is the table entry n k mod 2^16, exact to rounding.
    TURN = 1 << 16
    TABLE = np.exp(2j * np.pi * np.arange(TURN) / TURN)

    def rows_and_points(self, order, count, points):
        rng = np.random.default_rng(1000 * order + 10 * count + points % 7)
        series = [random_series(rng, order, decay=0.0) for _ in range(count)]
        return series, rng.integers(-self.TURN, 2 * self.TURN, points)

    def unit(self, k):
        return self.TABLE[k % self.TURN]

    @pytest.mark.parametrize("points", [1, 3, BLOCK - 1, BLOCK + 1])
    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("order", [0, 1, 2, 40, 62, 63, 64, 65, 256, 768, 769, 1024])
    def test_matches_direct_sum(self, order, count, points):
        series, k = self.rows_and_points(order, count, points)
        got = real_horner(half_spectrum(*series), self.unit(k))
        for row, s in zip(got, series):
            direct = np.full(k.size, s.coeff(0).real)
            for n in range(1, order + 1):
                e = self.unit(n * k)
                direct += (s.coeff(n) * e).real + (s.coeff(-n) * np.conj(e)).real
            assert np.max(np.abs(row - direct)) <= 1e-13 * np.sum(np.abs(s.coeffs))

    @pytest.mark.parametrize("points", [3, BLOCK + 1])
    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("order", [0, 1, 2, 39, 62])
    def test_short_rows_are_plain_horner(self, order, count, points):
        # rows of fewer than 64 modes: the same operations in the same order
        series, k = self.rows_and_points(order, count, points)
        rows, z = half_spectrum(*series), self.unit(k)
        assert np.array_equal(real_horner(rows, z), blocked_horner(rows, z))

    @pytest.mark.parametrize("count", [1, 2])
    def test_long_row_memory(self, count):
        # the powers, inner sums and accumulator of a 769-mode pass fit in the
        # Horner accumulator of count x BLOCK points
        series, k = self.rows_and_points(768, count, 2 * BLOCK)
        rows, z = half_spectrum(*series), self.unit(k)
        peaks = []
        for evaluate in (blocked_horner, real_horner):
            tracemalloc.start()
            evaluate(rows, z)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= peaks[0]


# Orders from 0 to 4096, each side of the powers of two.
SIZE_ORDERS = [0, 1, 2, 3, 31, 32, 33, 63, 64, 96, 255, 256, 257, 511, 512, 1023, 1024,
               2047, 2048, 4095, 4096]


@pytest.mark.parametrize("order", SIZE_ORDERS)
def test_size_rules_keep_the_sizes_they_replace(wavy, monkeypatch, order):
    """Each grid and block size rule gives the value of its closed formula."""
    # truncation_defect (at least 2), the CLI's default CSV grid (512), sup_norm
    # and the density's positivity check (DENSE_GRID)
    for at_least in (2, 512, DENSE_GRID):
        assert exact_size(order, at_least) == next_pow2(max(at_least, 2 * order + 2))
    assert DENSE_GRID == 4096
    # derivative_operator: one grid for the orders of the padded product,
    # the direction and w
    for pad, others in ((4 * order, (order, 1)), (4, (order, 0)), (0, (1, order))):
        assert exact_size(max(pad, *others)) == next_pow2(
            max(2 * pad + 2, *(2 * k + 2 for k in others)))
    assert control._two_step_size(order) == next_pow2(max(4 * order, 512))
    # Ulam products: 2^15 segments per block
    assert 2 * BLOCK == 1 << 15

    # Galerkin assembly: half the rows of a 2^15-sample block, at least one
    quad = quadrature_size(wavy, order, order)
    rows = max(1, (1 << 15) // quad // 2)
    ifft, blocks = np.fft.ifft, []

    def row_ffts(a, **kw):  # the map's grid values are one 1-D transform
        blocks.extend(a.shape[:a.ndim - 1])
        return ifft(a, **kw)

    monkeypatch.setattr(np.fft, "ifft", row_ffts)
    transfer._galerkin_rows(wavy, 2 * rows, 0, quad)
    assert blocks == [rows, rows, 1]

    # apply_transfer: chunks of at most 2^15 / 2 complex samples over its rows
    limits, chunked = [], transfer.block_length
    monkeypatch.setattr(transfer, "block_length",
                        lambda size, limit: limits.append(limit) or chunked(size, limit))
    transfer.apply_transfer(wavy, cosine(1), out_order=order)
    baby = baby_steps(order + 1)
    assert limits == [(1 << 15) // 2 // (baby + 2 * -(-(order + 1) // baby))]
