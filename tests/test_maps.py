import numpy as np
import pytest

from conftest import (CircleDiffeo, constant, horner_values, preimage_shift, random_series,
                      reference_invert_lift, seeded_maps, steep_map)
from linresp import (CircleMap, FourierSeries, NotExpandingError, PerturbedFamily,
                     PreimageError, cosine, fourier, maps, sine, zeros)
from linresp.fourier import differentiate


class TestCircleMap:
    def test_doubling_values(self, doubling):
        assert doubling.evaluate(0.3) == pytest.approx(0.6, abs=1e-15)
        assert doubling.evaluate(0.3, 1) == 2.0
        assert doubling.evaluate(0.3, 2) == 0.0
        with pytest.raises(ValueError, match="0..2"):
            doubling.evaluate(0.3, 3)

    def test_non_hermitian_periodic_part_refused(self):
        crooked = FourierSeries(np.array([0.0, 0.0, 0.05], dtype=complex))
        with pytest.raises(ValueError, match="Hermitian"):
            CircleMap(2, crooked)

    def test_wavy_derivative_at_zero(self, wavy):
        # p = 0.1 sin(2 pi x), so T'(0) = 2 + 0.2 pi
        assert wavy.evaluate(0.0, 1) == pytest.approx(2 + 0.2 * np.pi, abs=1e-13)

    def test_lift_periodicity(self, wavy):
        x = np.linspace(0, 1, 7)
        np.testing.assert_allclose(wavy.lift(x + 1), wavy.lift(x) + 2, atol=1e-12)

    def test_rejects_non_expanding(self):
        # p' = 2 pi cos(2 pi x) dips below 1 - d
        with pytest.raises(NotExpandingError):
            CircleMap(2, sine(1))

    def test_rejects_degree_one(self):
        with pytest.raises(ValueError):
            CircleMap(1, zeros(0))

    @pytest.mark.parametrize("degree", [2.5, 2.9, True], ids=["half", "near-three", "bool"])
    def test_constructor_refuses_non_integral_degree(self, degree):
        # The constructor and from_dict share one rule: no silent truncation to 2.
        with pytest.raises(ValueError, match="map degree must be an integer"):
            CircleMap(degree, sine(1, 0.1))

    @pytest.mark.parametrize("degree", [np.int64(3), 3.0])
    def test_constructor_takes_integral_numbers(self, degree):
        assert type(CircleMap(degree, zeros(0)).degree) is int

    def test_from_dict_round_trip(self, wavy):
        back = CircleMap.from_dict(wavy.to_dict())
        assert back.degree == 2
        np.testing.assert_array_equal(back.periodic_part.coeffs, wavy.periodic_part.coeffs)

    @pytest.mark.parametrize("block, match", [
        ({"degree": 2, "periodic_part": {"N": True, "coeffs": [[0.0, 0.05], [0.0, 0.0],
                                                               [0.0, -0.05]]},
          "perodic": 1}, "unknown map keys"),
        ({"degree": 2, "periodic_part": {"N": True, "coeffs": [[0.0, 0.05], [0.0, 0.0],
                                                               [0.0, -0.05]]}}, "series N"),
        ({"degree": 2.7, "periodic_part": {"N": 0, "coeffs": [[0.0, 0.0]]}}, "degree"),
        ({"degree": True, "periodic_part": {"N": 0, "coeffs": [[0.0, 0.0]]}}, "degree"),
        ({"degree": 2, "periodic_part": "sin"}, "object"),
        ({"degree": 2}, "needs keys \\['periodic_part'\\]"),
    ], ids=["misspelled-key", "series-N-bool", "degree-fraction", "degree-bool",
            "periodic-part-string", "periodic-part-missing"])
    def test_from_dict_refuses_malformed_blocks(self, block, match):
        with pytest.raises(ValueError, match=match):
            CircleMap.from_dict(block)


class TestPreimages:
    def test_doubling_half(self, doubling):
        np.testing.assert_allclose(doubling.preimages(0.5), [0.25, 0.75], atol=1e-15)

    def test_doubling_zero(self, doubling):
        np.testing.assert_allclose(doubling.preimages(0.0), [0.0, 0.5], atol=1e-15)

    def test_wavy_resubstitution(self, wavy):
        y = wavy.preimages(0.5)
        for i in range(2):
            assert abs(wavy.lift(y[i]) - (0.5 + i)) < 1e-13

    def test_map_of_preimage_is_identity(self, doubling, wavy, triple):
        rng = np.random.default_rng(5)
        xs = rng.uniform(0, 1, 20)
        for circle_map in (doubling, wavy, triple):
            ys = circle_map.preimages(xs)
            assert ys.shape == (circle_map.degree, 20)
            for i in range(circle_map.degree):
                gap = np.abs(np.mod(circle_map.evaluate(ys[i]) - xs + 0.5, 1.0) - 0.5)
                assert np.max(gap) < 1e-12

    def test_branches_strictly_increasing(self, wavy):
        rng = np.random.default_rng(9)
        ys = wavy.preimages(rng.uniform(0, 1, 30))
        assert np.all(np.diff(ys, axis=0) > 0)

    def test_nonzero_lift_at_origin(self):
        # p(0) != 0 shifts the branch targets; preimages must still invert T
        from linresp import cosine
        shifted = CircleMap(3, cosine(1, 0.05))
        rng = np.random.default_rng(15)
        xs = rng.uniform(0, 1, 10)
        ys = shifted.preimages(xs)
        assert ys.shape == (3, 10)
        assert np.all((ys >= 0) & (ys < 1 + 1e-12))
        for i in range(3):
            gap = np.abs(np.mod(shifted.evaluate(ys[i]) - xs + 0.5, 1.0) - 0.5)
            assert np.max(gap) < 1e-12


class TestPerturbedFamily:
    def test_member_zero_is_base(self, wavy):
        fam = PerturbedFamily(wavy, sine(1))
        member = fam.member(0.0)
        np.testing.assert_array_equal(member.periodic_part.with_order(1).coeffs,
                                      wavy.periodic_part.coeffs)

    def test_sine_perturbed_family(self, doubling):
        # T_delta(x) = 2x + delta sin(2 pi x)
        fam = PerturbedFamily(doubling, sine(1))
        member = fam.member(0.1)
        np.testing.assert_allclose(member.periodic_part.with_order(1).coeffs,
                                   sine(1, 0.1).coeffs, atol=1e-16)

    def test_delta_max_formula(self, doubling):
        fam = PerturbedFamily(doubling, sine(1))
        # (min T' - 1 - margin) / max|eps'| = 0.95 / (2 pi)
        assert fam.delta_max == pytest.approx(0.95 / (2 * np.pi), rel=1e-9)

    def test_boundary_rejected(self, doubling):
        fam = PerturbedFamily(doubling, sine(1))
        with pytest.raises(ValueError, match="expansivity"):
            fam.member(fam.delta_max)

    def test_zero_direction_unbounded(self, doubling):
        assert PerturbedFamily(doubling, zeros(0)).delta_max == np.inf


class TestPreimageShift:
    def test_doubling_formula(self, doubling):
        # branch 0 preimage of 1/2 is 1/4; prediction 1/4 - delta sin(pi/2)/2
        fam = PerturbedFamily(doubling, sine(1))
        for delta in (0.0, 1e-2, 1e-3):
            assert preimage_shift(fam, 0.5, 0, delta) == pytest.approx(
                0.25 - delta / 2, abs=1e-14)

    def test_zero_direction(self, wavy):
        fam = PerturbedFamily(wavy, zeros(0))
        y0 = wavy.preimages(0.3)
        for i, delta in ((0, 0.0), (1, 0.05)):
            assert preimage_shift(fam, 0.3, i, delta) == pytest.approx(y0[i], abs=1e-14)

    @pytest.mark.parametrize("map_name", ["doubling", "wavy"])
    def test_quadratic_error(self, map_name, request):
        # |preimage(member(delta)) - prediction| <= K delta^2: the error
        # ratio must shrink ~100x per delta decade.
        base = request.getfixturevalue(map_name)
        fam = PerturbedFamily(base, sine(1))
        rng = np.random.default_rng(21)
        xs = rng.uniform(0, 1, 16)
        worst = {}
        for delta in (1e-2, 1e-3, 1e-4):
            member = fam.member(delta)
            err = 0.0
            for x in xs:
                actual = member.preimages(x)
                for i in range(base.degree):
                    err = max(err, abs(actual[i] - preimage_shift(fam, x, i, delta)))
            worst[delta] = err
        assert 50 < worst[1e-2] / worst[1e-3] < 200
        assert 50 < worst[1e-3] / worst[1e-4] < 200


class TestCircleDiffeo:
    def test_invert(self):
        h = CircleDiffeo(sine(1, 0.05 / (2 * np.pi)))
        x = np.linspace(0, 1, 33)
        np.testing.assert_allclose(h.evaluate(h.invert(x)), x, atol=1e-12)

    def test_rejects_non_diffeo(self):
        with pytest.raises(ValueError, match="diffeomorphism"):
            CircleDiffeo(sine(1, 0.3))

    def test_from_density(self, wavy_problem):
        h = CircleDiffeo.from_density(wavy_problem.density)
        assert h.evaluate(0.0) == pytest.approx(0.0, abs=1e-13)
        # h' = rho > 0 and h(1) - h(0) = total mass = 1
        assert h.deriv(0.37) == pytest.approx(wavy_problem.density.evaluate(0.37),
                                              abs=1e-12)
        assert h.evaluate(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_from_density_requires_mean_one(self):
        with pytest.raises(ValueError, match="mean 1"):
            CircleDiffeo.from_density(constant(2.0))


def _all_maps(doubling, wavy, triple):
    shifted = CircleMap(3, cosine(1, 0.05) + constant(0.3))  # p has mean 0.3
    return [doubling, wavy, triple, shifted, steep_map()] + seeded_maps()


class TestEmptyInput:
    def test_invert_lift(self, wavy):
        assert wavy.invert_lift(np.array([])).shape == (0,)

    def test_preimages(self, wavy, triple):
        assert wavy.preimages(np.array([])).shape == (2, 0)
        assert triple.preimages([]).shape == (3, 0)

    def test_diffeo_invert(self):
        h = CircleDiffeo(sine(1, 0.05))
        assert h.invert(np.array([])).shape == (0,)


class TestAgainstReference:
    """The half-spectrum pair and interpolated seeds against the full-spectrum Newton."""

    def test_invert_lift(self, doubling, wavy, triple):
        rng = np.random.default_rng(31)
        for circle_map in _all_maps(doubling, wavy, triple):
            # several periods of the lift on either side of [L(0), L(0) + d)
            t = rng.uniform(-2.0, circle_map.degree + 2.0, 500)
            np.testing.assert_allclose(circle_map.invert_lift(t),
                                       reference_invert_lift(circle_map, t),
                                       rtol=0, atol=1e-13)

    def test_invert_lift_at_table_ends(self, doubling, wavy, perturbed_wavy):
        # L(0) + k d, its neighbours and the grid's p(0) (FFT, not Horner) clip
        # the seed table's index at either end
        for circle_map in (doubling, wavy, perturbed_wavy, steep_map()):
            d, lift0 = circle_map.degree, circle_map.lift(0.0)
            ends = [lift0 + k * d for k in range(-2, 4)] + [circle_map.grid_values(4096)[0]]
            t = np.array(ends + [np.nextafter(e, side) for e in ends
                                 for side in (-np.inf, np.inf)])
            np.testing.assert_allclose(circle_map.invert_lift(t),
                                       reference_invert_lift(circle_map, t),
                                       rtol=0, atol=1e-13)

    def test_invert_lift_across_blocks(self, newton_calls):
        # two full blocks and a partial one, each solved on its own; the steep
        # map takes a Newton step in every block
        steep = steep_map()
        t = np.linspace(-2.0, 7.0, 2 * fourier.BLOCK + 301)
        y = steep.invert_lift(t)
        assert len(newton_calls) == 3
        assert all(values == 2 for values, _ in newton_calls), newton_calls
        np.testing.assert_allclose(y, reference_invert_lift(steep, t), rtol=0, atol=1e-13)

    def test_preimages(self, doubling, wavy, triple):
        rng = np.random.default_rng(32)
        xs = rng.uniform(0, 1, 200)
        for circle_map in _all_maps(doubling, wavy, triple):
            kmin = np.ceil(circle_map.lift(0.0) - xs)
            branches = np.arange(circle_map.degree)[:, None]
            expected = reference_invert_lift(circle_map, xs + kmin + branches)
            np.testing.assert_allclose(circle_map.preimages(xs), expected,
                                       rtol=0, atol=1e-13)

    def test_lift_pair(self, doubling, wavy, triple, perturbed_wavy):
        # two full Horner blocks and a partial one, against the full-spectrum
        # pass; the perturbed member's value pass is chopped, its slope is not
        x = np.linspace(-1.0, 2.0, 2 * fourier.BLOCK + 301)
        value_row, slope_row = perturbed_wavy._half
        assert (value_row.shape, slope_row.shape) == ((1, 40), (1, 65))
        for circle_map in _all_maps(doubling, wavy, triple) + [perturbed_wavy]:
            d, p = circle_map.degree, circle_map.periodic_part
            value, slope = circle_map._lift_value(x)
            slope = slope()
            np.testing.assert_allclose(value, d * x + horner_values(p.coeffs, x).real,
                                       rtol=0, atol=1e-13)
            np.testing.assert_allclose(
                slope, d + horner_values(differentiate(p).coeffs, x).real, rtol=0, atol=1e-13)
            np.testing.assert_allclose(circle_map.lift(x), value, rtol=0, atol=1e-13)

    def test_diffeo_round_trip(self, wavy_problem):
        rng = np.random.default_rng(33)
        q = random_series(rng, 6, zero_mean=True)
        slope = float(np.max(np.abs(differentiate(q).evaluate(np.arange(4096) / 4096))))
        x = np.linspace(-1.5, 2.5, 401)
        for h in (CircleDiffeo(sine(1, 0.05 / (2 * np.pi))),
                  CircleDiffeo(q * (0.8 / slope)),
                  CircleDiffeo.from_density(wavy_problem.density)):
            np.testing.assert_allclose(h.evaluate(h.invert(x)), x, rtol=0, atol=1e-13)
            np.testing.assert_allclose(h.invert(h.evaluate(x)), x, rtol=0, atol=1e-12)


@pytest.fixture
def newton_calls(monkeypatch):
    """Records (value calls, slope calls) of every ``_solve_increasing`` run."""
    calls = []
    original = maps._solve_increasing

    def counting(value, *args, **kwargs):
        n = [0, 0]

        def counted(y):
            n[0] += 1
            f, slope = value(y)

            def counted_slope():
                n[1] += 1
                return slope()
            return f, counted_slope

        try:
            return original(counted, *args, **kwargs)
        finally:
            calls.append(tuple(n))

    monkeypatch.setattr(maps, "_solve_increasing", counting)
    return calls


class TestNewtonSweeps:
    """Hermite seeds leave at most one Newton step (two evaluations)."""

    def _check(self, circle_map, calls):
        calls.clear()
        rng = np.random.default_rng(41)
        circle_map.preimages(rng.uniform(0, 1, 1000))
        circle_map.invert_lift(circle_map.lift(0.0)
                               + np.linspace(0.0, circle_map.degree, 4097))
        assert len(calls) == 2
        assert max(values for values, _ in calls) <= 2, calls

    def test_perturbed_wavy(self, perturbed_wavy, newton_calls):
        self._check(perturbed_wavy, newton_calls)

    @pytest.mark.parametrize("index", range(5))
    def test_seeded(self, index, newton_calls):
        self._check(seeded_maps()[index], newton_calls)

    def test_steep(self, newton_calls):
        self._check(steep_map(), newton_calls)

    def test_slope_only_before_a_step(self, newton_calls):
        # the converged sweep evaluates the value alone; the steep map still takes a step
        steep_map().invert_lift(np.linspace(0.0, 5.0, 1001))
        assert len(newton_calls) == 1
        assert all(values >= 2 and slopes == values - 1
                   for values, slopes in newton_calls), newton_calls

    def test_one_pass_on_ulam_edges(self, perturbed_wavy, newton_calls, monkeypatch):
        # the 2^17 + 1 bin edges of a 2^16-bin Ulam build go through in blocks
        # that cover them all; in each, one value pass both seeds and checks,
        # and no slope is taken
        sizes = []
        counting = maps._solve_increasing
        monkeypatch.setattr(maps, "_solve_increasing", lambda value, target, *args:
                            sizes.append(target.size) or counting(value, target, *args))
        bins = 2 ** 16
        edges = (np.ceil(perturbed_wavy.lift(0.0) * bins) + np.arange(2 * bins + 1)) / bins
        perturbed_wavy.invert_lift(edges)
        assert sizes == [fourier.BLOCK] * 8 + [1]
        assert sum(sizes) == 2 * bins + 1
        assert newton_calls == [(1, 0)] * len(sizes)


class TestNewtonFallback:
    def test_bisection_meets_tolerance(self, newton_calls):
        steep = steep_map()
        base = steep.lift(0.0) + np.linspace(0.0, 5.0, 257)
        lo = (base - steep._inversion.p_hi) / 5
        hi = (base - steep._inversion.p_lo) / 5
        seed = (base - steep.lift(0.0)) / 5
        y = maps._solve_increasing(steep._lift_value, base, seed, lo, hi, maxit=1)
        assert newton_calls[-1][0] > 100  # the bisection sweeps ran
        assert np.max(np.abs(steep._lift_value(y)[0] - base)) < maps.NEWTON_TOL
        np.testing.assert_allclose(y, steep.invert_lift(base), rtol=0, atol=1e-13)

    def test_target_outside_bracket(self, wavy):
        root = np.array([0.2, 0.6])
        target = wavy.lift(root)
        with pytest.raises(PreimageError, match="did not converge"):
            maps._solve_increasing(wavy._lift_value, target, root + 0.35,
                                   root + 0.3, root + 0.4)
