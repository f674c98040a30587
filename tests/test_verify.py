import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import linresp
import linresp.maps as maps
import linresp.verify as verify

from conftest import (collocation_density, collocation_fd_response, constant, dense_ulam_matrix,
                      doubling_map, reference_invert_lift, seeded_maps, steep_map, ulam_products)
from linresp import (CircleMap, PerturbedFamily, ResponseProblem, UnderResolvedError,
                     bin_averages, compare_l1, cosine, exact_forward, fd_response,
                     forward_response, sine, ulam_build, zeros)

TWO_PI = 2 * np.pi


class TestUlamBuild:
    def test_doubling_four_bins(self, doubling):
        model = ulam_build(doubling, 4)
        expected = np.array([[0.5, 0.0, 0.5, 0.0],
                             [0.5, 0.0, 0.5, 0.0],
                             [0.0, 0.5, 0.0, 0.5],
                             [0.0, 0.5, 0.0, 0.5]])
        dense = np.column_stack([model @ column for column in np.eye(4)])
        np.testing.assert_allclose(dense, expected, atol=1e-14)
        np.testing.assert_allclose(model.stationary, np.ones(4), atol=1e-13)

    def test_doubling_fine_stationary(self, doubling):
        model = ulam_build(doubling, 2**15)
        assert np.max(np.abs(model.stationary - 1.0)) < 1e-10

    def test_columns_stochastic(self, wavy):
        model = ulam_build(wavy, 2**12)
        sums = ulam_products(model, np.ones(2**12))[1]
        assert np.max(np.abs(sums - 1.0)) < 1e-12

    def test_stationary_properties(self, wavy):
        model = ulam_build(wavy, 2**12)
        v = model.stationary
        assert np.all(v >= 0)
        assert v.sum() == pytest.approx(2**12, rel=1e-12)
        assert np.mean(np.abs(model @ v - v)) < 1e-12

    def test_matches_spectral_density(self, wavy, wavy_problem):
        model = ulam_build(wavy, 2**15)
        assert compare_l1(model.stationary, wavy_problem.density) < 1e-3

    def test_convergence_under_refinement(self, wavy, wavy_problem):
        # the distance to the spectral density halves (+-30%) per doubling
        errors = {k: compare_l1(ulam_build(wavy, 2**k).stationary,
                                wavy_problem.density)
                  for k in (12, 13, 14)}
        assert 0.35 < errors[13] / errors[12] < 0.65
        assert 0.35 < errors[14] / errors[13] < 0.65

    @pytest.mark.parametrize("name", ["doubling", "wavy"])
    def test_bin_count_not_a_power_of_two(self, request, name):
        # In bin units each slot weight is an exact difference, so every
        # column telescopes to 1; weights from lengths times bins were off by
        # 2.1e-12 here and refused.
        model = ulam_build(request.getfixturevalue(name), 20_000)
        sums = ulam_products(model, np.ones(20_000))[1]
        assert np.max(np.abs(sums - 1.0)) <= 1e-12
        assert model.stationary.sum() == pytest.approx(20_000, rel=1e-12)

    def test_rejects_single_bin(self, doubling):
        with pytest.raises(ValueError):
            ulam_build(doubling, 1)

    @pytest.mark.parametrize("bins", [2.5, 3.7, True, "64"])
    def test_refuses_bins_not_an_integer(self, doubling, bins):
        with pytest.raises(ValueError, match="bins must be an integer"):
            ulam_build(doubling, bins)

    def test_degree_zero_memory(self, wavy_family, perturbed_wavy):
        # The verify-bins64k build and response: the 2^17 + 1 edges are
        # interpolated through one spectrum of their size, freed before the
        # linear part is added, the operator holds one source row beside its
        # two weight rows, and a product's temporaries are one block of
        # segments long.  Measured at 5.25 MB for the build and 5.91 MB for
        # the response (7.34 and 8.01 MB with a stored second source row and
        # full-length product temporaries); each bound leaves half of one
        # more 2^17-point float array, 0.52 MB.
        for run, bound in ((lambda: ulam_build(perturbed_wavy, 2**16), 5.8e6),
                           (lambda: fd_response(wavy_family, 1e-3, 2**16), 6.45e6)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound

    def test_edges_that_do_not_rise_are_refused(self, wavy, monkeypatch):
        original = CircleMap.invert_lattice

        def swapped(self, lo, bins, out):
            original(self, lo, bins, out)
            out[[5, 6]] = out[[6, 5]]
            return out

        monkeypatch.setattr(CircleMap, "invert_lattice", swapped)
        with pytest.raises(RuntimeError, match="do not rise strictly"):
            ulam_build(wavy, 64)

    def test_nonzero_lift_at_origin(self):
        # branch windows shift when p(0) != 0; columns must still tile
        from linresp import CircleMap
        shifted = CircleMap(2, cosine(1, 0.05))
        model = ulam_build(shifted, 2**10)
        sums = ulam_products(model, np.ones(2**10))[1]
        assert np.max(np.abs(sums - 1.0)) < 1e-12
        assert model.stationary.sum() == pytest.approx(2**10, rel=1e-12)


ORACLE_MAPS = {
    "doubling": doubling_map(),
    "wavy": CircleMap(2, sine(1, 0.1)),
    "shifted": CircleMap(2, cosine(1, 0.05)),  # p(0) != 0
    "steep": steep_map(),
    "seeded-degree-3": seeded_maps()[1],
}


# CI's non-odd map 3x + 0.15 sin 2 pi x + 0.05 cos 4 pi x, whose Newton
# roots sit up to 1.8e-14 from the polished ones.
LATTICE_MAPS = {**ORACLE_MAPS, "non-odd-degree-3": CircleMap(3, sine(1, 0.15) + cosine(2, 0.05))}


@pytest.fixture
def inverted_points(monkeypatch):
    """The number of targets of every ``CircleMap.invert_lift`` call, in order."""
    points = []
    original = CircleMap.invert_lift

    def counted(self, targets):
        points.append(np.size(targets))
        return original(self, targets)

    monkeypatch.setattr(CircleMap, "invert_lift", counted)
    return points


class TestInvertLattice:
    """The bin-edge preimages by spectral interpolation, against the polished reference Newton."""

    @pytest.mark.parametrize("bins", [2**16, 20_000, 65_521, 4])
    @pytest.mark.parametrize("name", list(LATTICE_MAPS))
    def test_meets_polished_reference_and_rises(self, name, bins, inverted_points):
        # Measured: at most 6.1e-16 (steep, 65,521 bins), and 0 on the
        # doubling map; the bound is 1e-15, under NEWTON_TOL / max T' on
        # every map.  At 4 bins 2M = 512 nodes exceed the d bins targets, so
        # every target is solved by Newton.
        circle_map = LATTICE_MAPS[name]
        start = float(circle_map.lift(0.0))
        lo = int(np.ceil(start * bins - 1e-9))
        hi = int(np.floor((start + circle_map.degree) * bins + 1e-9))
        targets = np.arange(lo, hi + 1) / bins
        y = circle_map.invert_lattice(lo, bins, np.empty(targets.size))
        assert 1e-15 < maps.NEWTON_TOL / circle_map.max_derivative
        reference = reference_invert_lift(circle_map, targets, polish=True)
        assert np.max(np.abs(y - reference)) <= 1e-15
        assert np.all(y[1:] > y[:-1])
        if bins == 4:
            assert inverted_points == [targets.size]
        else:
            assert sum(inverted_points) < targets.size // 10

    @pytest.mark.parametrize("size", [2**11 - 1, 2**11 + 2])
    def test_refuses_more_or_less_than_one_period(self, wavy, size):
        with pytest.raises(ValueError, match="one period of the lattice"):
            wavy.invert_lattice(0, 2**10, np.empty(size))


@pytest.mark.parametrize("name, nodes", [("perturbed-wavy", 2 * maps.LATTICE_NODES),
                                         ("steep", 8 * maps.LATTICE_NODES)])
def test_ulam_edges_take_newton_at_a_few_hundred_nodes(perturbed_wavy, inverted_points,
                                                       name, nodes):
    # A 2^16-bin build inverts d 2^16 + 1 edges (131,073 on the wavy member)
    # from Newton at 2M nodes: M = 256 passes the first check on the wavy
    # member, and M grows to 1024 on the steep map.
    circle_map = perturbed_wavy if name == "perturbed-wavy" else steep_map()
    ulam_build(circle_map, 2**16)
    assert sum(inverted_points) == nodes


class TestTransitionOperator:
    """The Ulam model's transition matrix, through its one product M @ v."""

    @pytest.mark.parametrize("bins", [256, 300])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", list(ORACLE_MAPS))
    def test_products_match_dense_reference(self, name, seed, bins):
        # seed draws the operand: three random vectors per map and bin count
        circle_map = ORACLE_MAPS[name]
        model = ulam_build(circle_map, bins)
        dense = dense_ulam_matrix(circle_map, bins)
        assert model.shape == dense.shape
        v = np.random.default_rng(seed).uniform(-1.0, 1.0, dense.shape[0])
        np.testing.assert_allclose(model @ v, dense @ v, rtol=0, atol=1e-14)
        # the column-wise product from the operator's own arrays
        np.testing.assert_allclose(ulam_products(model, v)[1], v @ dense, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("name", ["perturbed-wavy", "steep"])
    def test_blocked_products_match_one_pass_reference(self, perturbed_wavy, name):
        # At 2^16 bins every run of segments spans several product blocks
        # (the steep map has five runs); the product must equal the
        # unblocked formula bit for bit.
        circle_map = perturbed_wavy if name == "perturbed-wavy" else steep_map()
        model = ulam_build(circle_map, 2**16)
        assert model.source.shape == (model.weights.shape[1],)
        assert model.source.size > 2 * (2 * verify.BLOCK)  # blocks of 2 BLOCK segments
        v = np.random.default_rng(5).uniform(-1.0, 1.0, model.bins)
        assert np.array_equal(model @ v, ulam_products(model, v)[0])

    def test_refuses_operand_of_wrong_size(self, wavy):
        model = ulam_build(wavy, 16)
        for operand in (np.ones(32), np.ones((16, 2))):
            with pytest.raises(ValueError, match="expected"):
                model @ operand


class TestFdResponse:
    def test_doubling_recovers_target(self, doubling):
        family = PerturbedFamily(doubling, cosine(2, 1 / TWO_PI))
        binned = fd_response(family, 1e-3, 2**14)
        assert compare_l1(binned, sine(1)) < 5e-2

    def test_zero_direction(self, wavy):
        family = PerturbedFamily(wavy, zeros(1))
        assert np.max(np.abs(fd_response(family, 1e-3, 2**10))) < 1e-12

    def test_odd_in_direction(self, doubling):
        plus = fd_response(PerturbedFamily(doubling, cosine(2, 0.01)), 1e-3, 2**10)
        minus = fd_response(PerturbedFamily(doubling, cosine(2, -0.01)), 1e-3, 2**10)
        assert np.max(np.abs(plus + minus)) < 1e-10

    def test_kernel_direction_near_zero(self, doubling):
        family = PerturbedFamily(doubling, sine(1))
        binned = fd_response(family, 1e-3, 2**14)
        assert compare_l1(binned, zeros(1)) < 5e-2

    @pytest.mark.parametrize("bins", [1, 2.5, 3.7, True])
    def test_refuses_bins_not_an_integer_of_at_least_two(self, doubling, bins):
        family = PerturbedFamily(doubling, cosine(2, 0.01))
        with pytest.raises(ValueError, match="bins must be"):
            fd_response(family, 1e-3, bins)

    @pytest.mark.parametrize("delta", [0.0, -1e-3, float("nan")])
    def test_refuses_non_positive_step(self, doubling, delta):
        family = PerturbedFamily(doubling, cosine(2, 0.01))
        with pytest.raises(ValueError, match="delta must be positive"):
            fd_response(family, delta, 2**10)


@pytest.fixture(scope="module")
def galerkin_128(wavy):
    """Galerkin problems at N=128, the reference the collocation density must meet."""
    return {"wavy": ResponseProblem.for_map(wavy, 128),
            "steep": ResponseProblem.for_map(steep_map(), 128)}


class TestCollocation:
    """The spectral collocation reference: density and central-difference response."""

    def test_doubling_density_is_one(self, doubling):
        assert np.max(np.abs(collocation_density(doubling, 33) - 1.0)) < 1e-13

    @pytest.mark.parametrize("name, points", [("wavy", 65), ("steep", 257)])
    def test_density_matches_galerkin(self, galerkin_128, name, points):
        problem = galerkin_128[name]
        rho = collocation_density(problem.map, points)
        nodes = np.arange(points) / points
        assert np.max(np.abs(rho - problem.density.evaluate(nodes))) < 1e-12

    def test_refuses_too_few_points(self):
        # steep at M = 129: midpoint residual 2.1e-9 against the 1e-9 gate
        with pytest.raises(UnderResolvedError, match="midpoint residual"):
            collocation_density(steep_map(), 129)

    @pytest.mark.parametrize("points", [1, 2, 4, 64, 2.5, True])
    def test_refuses_even_or_fewer_than_three_points(self, doubling, points):
        with pytest.raises(ValueError, match="collocation points must be"):
            collocation_density(doubling, points)

    @pytest.mark.parametrize("name", ["wavy", "steep"])
    def test_central_difference_is_second_order(self, galerkin_128, name):
        problem = galerkin_128[name]
        eps = cosine(1, 0.05) + sine(2, 0.02)
        family = PerturbedFamily(problem.map, eps)
        nodes = np.arange(257) / 257
        exact = forward_response(problem, eps).evaluate(nodes)
        coarse, fine = (collocation_fd_response(family, h, 257) for h in (1e-3, 5e-4))
        ratio = np.max(np.abs(coarse - exact)) / np.max(np.abs(fine - exact))
        assert 3.9 <= ratio <= 4.1
        assert np.max(np.abs((4.0 * fine - coarse) / 3.0 - exact)) < 1e-9

    def test_doubling_richardson_matches_exact_forward(self, doubling):
        eps = cosine(2, 1 / TWO_PI) + sine(3, 0.01)
        family = PerturbedFamily(doubling, eps)
        coarse, fine = (collocation_fd_response(family, h, 65) for h in (1e-3, 5e-4))
        exact = exact_forward(eps).evaluate(np.arange(65) / 65)
        assert np.max(np.abs((4.0 * fine - coarse) / 3.0 - exact)) < 1e-10

    def test_zero_direction(self, wavy):
        family = PerturbedFamily(wavy, zeros(1))
        assert np.max(np.abs(collocation_fd_response(family, 1e-3, 65))) == 0.0

    def test_odd_in_direction(self, doubling):
        plus = collocation_fd_response(PerturbedFamily(doubling, cosine(2, 0.01)), 1e-3, 33)
        minus = collocation_fd_response(PerturbedFamily(doubling, cosine(2, -0.01)), 1e-3, 33)
        assert np.max(np.abs(plus + minus)) < 1e-10

    @pytest.mark.parametrize("delta", [0.0, -1e-3, float("nan")])
    def test_refuses_non_positive_step(self, doubling, delta):
        family = PerturbedFamily(doubling, cosine(2, 0.01))
        with pytest.raises(ValueError, match="delta must be positive"):
            collocation_fd_response(family, delta, 33)


class TestCompareL1:
    def test_identical_data(self):
        values = bin_averages(constant(1.0) + sine(1, 0.2), 64)
        assert compare_l1(values, constant(1.0) + sine(1, 0.2)) == 0.0

    def test_uniform_vs_one_plus_sin(self):
        # integral of |sin(2 pi x)| = 2/pi
        uniform = np.ones(4096)
        assert compare_l1(uniform, constant(1.0) + sine(1)) == pytest.approx(
            2 / np.pi, abs=1e-5)

    def test_bin_averages_exact(self):
        series = cosine(3, 0.7)
        bins = 32
        edges = np.arange(bins + 1) / bins
        exact = np.array([
            0.7 * (np.sin(3 * TWO_PI * edges[j + 1]) - np.sin(3 * TWO_PI * edges[j]))
            / (3 * TWO_PI / bins) for j in range(bins)])
        np.testing.assert_allclose(bin_averages(series, bins), exact, atol=1e-13)

    def test_small_bin_count_accumulates_aliases(self):
        # bins < 2N+1 still exact: colliding modes add at the grid points
        series = cosine(5, 1.0)
        vals = bin_averages(series, 4)
        edges = np.arange(5) / 4
        exact = np.array([
            (np.sin(5 * TWO_PI * edges[j + 1]) - np.sin(5 * TWO_PI * edges[j]))
            / (5 * TWO_PI / 4) for j in range(4)])
        np.testing.assert_allclose(vals, exact, atol=1e-14)


# Modules no linresp process needs.  Each command also leaves the solvers it
# does not run unimported: density and respond compile neither the control
# solves nor the Ulam oracle, and no command runs the doubling-map closed form.
NEVER_LOADED = ("scipy", "numpy.polynomial")
NOT_RUN = {
    "density": ("linresp.control", "linresp.verify", "linresp.doubling"),
    "respond": ("linresp.control", "linresp.verify", "linresp.doubling"),
    "control": ("linresp.verify", "linresp.doubling"),
    "verify": ("linresp.doubling",),
}
DOUBLING_MAP = {"degree": 2, "periodic_part": {"N": 0, "coeffs": [[0.0, 0.0]]}}
PROBE_MAP = {"degree": 2, "periodic_part": {"N": 1, "coeffs": [[0.0, 0.05], [0.0, 0.0],
                                                                [0.0, -0.05]]}}


def _loaded(modules: tuple) -> str:
    """An expression listing the loaded ones of ``modules`` and their submodules."""
    return (f"sorted(m for m in sys.modules "
            f"if any(m == w or m.startswith(w + '.') for w in {modules!r}))")


def _child_output(code: str, *argv) -> str:
    """The last line ``code`` prints in a fresh interpreter importing linresp from here."""
    src = str(Path(linresp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                            env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, check=True)
    return result.stdout.strip().splitlines()[-1]


def _command_probe(tmp_path, command: str, **config) -> tuple[int, list[str]]:
    """Exit code of ``linresp <command>`` run by cli.main, and the listed modules it loaded."""
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps({"map": PROBE_MAP, **config}))
    watched = NEVER_LOADED + NOT_RUN[command]
    code = ("import json, sys; from linresp.cli import main; "
            "code = main([sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3]]); "
            f"print(json.dumps([code, {_loaded(watched)}]))")
    return tuple(json.loads(_child_output(code, command, path, tmp_path / command)))


def test_package_import_leaves_scipy_sparse_unloaded(tmp_path):
    # import linresp loads the package alone, not numpy and no submodule;
    # a verify run, the Ulam oracle included, needs neither scipy nor
    # numpy.polynomial.
    probe = f"import sys, linresp; print({_loaded(('linresp', 'numpy', 'scipy'))})"
    assert _child_output(probe) == "['linresp']"
    config = {"N": 16, "target": "mix", "verify": {"delta": 1e-3, "bins": 1024}}
    assert _command_probe(tmp_path, "verify", **config) == (0, [])
    assert (tmp_path / "verify" / "verify.json").exists()


@pytest.mark.parametrize("command, config, exit_code", [
    ("density", {"N": 16}, 0),
    ("respond", {"N": 16, "epsilon": "cos2"}, 0),
    ("control", {"N": 16, "target": "mix"}, 0),
    # the target's mode 3 lies beyond N=2: main maps the refusal to exit 3
    ("control", {"map": DOUBLING_MAP, "N": 2, "target": "cos3"}, 3),
], ids=["density", "respond", "control", "control-infeasible"])
def test_commands_import_only_the_solvers_they_run(tmp_path, command, config, exit_code):
    assert _command_probe(tmp_path, command, **config) == (exit_code, [])
