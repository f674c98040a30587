import numpy as np
import pytest

from linresp import (FourierSeries, SobolevWeights, cosine, exact_control, exact_forward,
                     forward_response, minimal_norm_control, sine, sobolev_norm, sup_norm,
                     zeros)

from conftest import (constant, random_series, reference_exact_control,
                      reference_exact_forward)

TWO_PI = 2 * np.pi


def even_zero_mean(rng, order):
    series = random_series(rng, order, zero_mean=True)
    c = np.array(series.coeffs)
    c[series.modes % 2 == 1] = 0.0
    return FourierSeries(c)


class TestExactControl:
    def test_worked_example(self):
        eps = exact_control(sine(1))
        np.testing.assert_allclose(eps.coeffs,
                                   cosine(2, 1 / TWO_PI).with_order(eps.order).coeffs,
                                   atol=1e-16)

    def test_zero_target(self):
        assert np.all(exact_control(zeros(3)).coeffs == 0)

    def test_sin_two_target(self, doubling_problem):
        # frozen from the coefficient rule (a_{2n} - a_n)/(2 pi i n)
        eps = exact_control(sine(2))
        assert eps.coeff(2) == pytest.approx(-1 / (4 * np.pi), abs=1e-16)
        assert eps.coeff(4) == pytest.approx(1 / (8 * np.pi), abs=1e-16)
        assert all(abs(eps.coeff(n)) == 0 for n in (0, 1, 3) )
        general = minimal_norm_control(doubling_problem, sine(2))
        gap = np.abs(eps.with_order(64).coeffs
                     - general.epsilon.with_order(64).coeffs)
        assert np.max(gap) < 1e-10

    def test_rejects_nonzero_mean(self):
        with pytest.raises(ValueError, match="zero mean"):
            exact_control(constant(1.0))

    def test_scaled_target_with_rounding_level_mean(self):
        # The mean gate is relative to the target's size: 1e5 sin 2 pi x with a
        # mean of 1e-9 (1e-14 of it) is the unit problem scaled, but a mean of
        # 1e-4 (1e-9 of it) is refused.
        eps = exact_control(1e5 * sine(1) + constant(1e-9))
        np.testing.assert_allclose(eps.coeffs, 1e5 * exact_control(sine(1)).coeffs,
                                   rtol=0, atol=1e-11)
        with pytest.raises(ValueError, match="zero mean"):
            exact_control(1e5 * sine(1) + constant(1e-4))

    def test_free_odd_modes_integrated(self):
        eps_plain = exact_control(sine(1))
        eps = exact_control(sine(1), odd_modes=sine(1))
        # odd content of -eps'/2 integrates term-wise: coefficient
        # -c_1/(pi i) at frequency 1 with c_1 = 1/(2i) gives 1/(2 pi)
        assert eps.coeff(1) == pytest.approx(1 / TWO_PI, abs=1e-16)
        assert eps.coeff(2) == eps_plain.coeff(2)
        # odd modes never reach the response
        np.testing.assert_allclose(exact_forward(eps).coeffs,
                                   exact_forward(eps_plain).with_order(1).coeffs,
                                   atol=1e-15)

    def test_rejects_even_content_in_free_part(self):
        with pytest.raises(ValueError, match="odd frequencies"):
            exact_control(sine(1), cosine(2))


class TestAgainstModeLoops:
    """The coefficient slices against the per-mode loops in conftest, bit for bit."""

    def test_random_targets(self):
        rng = np.random.default_rng(113)
        for order in range(40):
            target = random_series(rng, order, zero_mean=True)
            eps = exact_control(target)
            assert np.array_equal(eps.coeffs, reference_exact_control(target).coeffs)
            assert np.array_equal(exact_forward(eps).coeffs,
                                  reference_exact_forward(eps).coeffs)

    def test_odd_data(self):
        free = sine(1) + cosine(3, 0.2)
        eps = exact_control(sine(2), free)
        assert np.array_equal(eps.coeffs, reference_exact_control(sine(2), free).coeffs)
        assert np.array_equal(exact_forward(eps).coeffs, reference_exact_forward(eps).coeffs)


class TestExactForward:
    def test_worked_example_reversed(self):
        out = exact_forward(cosine(2, 1 / TWO_PI))
        np.testing.assert_allclose(out.coeffs, sine(1).coeffs, atol=1e-15)

    def test_odd_modes_annihilated(self):
        out = exact_forward(sine(1) + cosine(1, 0.3))
        assert sup_norm(out.with_order(1)) < 1e-15

    def test_agrees_with_general_solver(self, doubling_problem):
        rng = np.random.default_rng(83)
        eps = random_series(rng, 32, decay=0.4)
        mine = exact_forward(eps).with_order(64)
        general = forward_response(doubling_problem, eps).with_order(64)
        assert np.max(np.abs(mine.coeffs - general.coeffs)) < 1e-10


class TestRoundTripsAndNorms:
    def test_control_of_forward_is_identity_on_even_modes(self):
        rng = np.random.default_rng(89)
        eps = even_zero_mean(rng, 16)
        back = exact_control(exact_forward(eps))
        assert np.max(np.abs(back.with_order(16).coeffs - eps.coeffs)) < 1e-12

    def test_norm_series_identity(self):
        rng = np.random.default_rng(97)
        target = random_series(rng, 12, zero_mean=True)
        eps = exact_control(target)
        total = 0.0
        for n in range(1, target.order + 1):
            for m in (n, -n):
                diff = target.coeff(2 * m) - target.coeff(m)
                total += abs(diff) ** 2 / (np.pi**2 * (2 * m) ** 2)
        assert sobolev_norm(eps, SobolevWeights()) ** 2 == pytest.approx(total, abs=1e-12)

    def test_agreement_with_spectral_minimizer_on_random_targets(
            self, doubling_problem):
        rng = np.random.default_rng(101)
        for _ in range(20):
            target = random_series(rng, 8, decay=0.7, zero_mean=True)
            exact = exact_control(target).with_order(64)
            general = minimal_norm_control(doubling_problem, target)
            gap = np.abs(exact.coeffs - general.epsilon.with_order(64).coeffs)
            assert np.max(gap) < 1e-9
