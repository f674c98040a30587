import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import linresp

from linresp import (PerturbedFamily, bin_averages, compare_l1, constant, cosine,
                     fd_response, sine, ulam_build, zeros)

TWO_PI = 2 * np.pi


class TestUlamBuild:
    def test_doubling_four_bins(self, doubling):
        model = ulam_build(doubling, 4)
        expected = np.array([[0.5, 0.0, 0.5, 0.0],
                             [0.5, 0.0, 0.5, 0.0],
                             [0.0, 0.5, 0.0, 0.5],
                             [0.0, 0.5, 0.0, 0.5]])
        np.testing.assert_allclose(model.matrix.toarray(), expected, atol=1e-14)
        np.testing.assert_allclose(model.stationary, np.ones(4), atol=1e-13)

    def test_doubling_fine_stationary(self, doubling):
        model = ulam_build(doubling, 2**15)
        assert np.max(np.abs(model.stationary - 1.0)) < 1e-10

    def test_columns_stochastic(self, wavy):
        model = ulam_build(wavy, 2**12)
        sums = np.asarray(model.matrix.sum(axis=0)).ravel()
        assert np.max(np.abs(sums - 1.0)) < 1e-12

    def test_stationary_properties(self, wavy):
        model = ulam_build(wavy, 2**12)
        v = model.stationary
        assert np.all(v >= 0)
        assert v.sum() == pytest.approx(2**12, rel=1e-12)
        assert np.mean(np.abs(model.matrix @ v - v)) < 1e-12

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

    def test_degree_two_matches_spectral_density(self, wavy, wavy_problem):
        bins = 2**12
        model = ulam_build(wavy, bins, degree=2)
        v = model.stationary
        assert v.shape == (bins,)
        assert np.all(v > 0)
        assert v.sum() == pytest.approx(bins, rel=1e-12)
        assert compare_l1(v, wavy_problem.density) < 1e-9

    def test_degree_two_moment_layout(self, wavy):
        # P_0 rows of a P_0 column carry unit mass, of a P_q column (q > 0) none
        bins = 2**10
        model = ulam_build(wavy, bins, degree=2)
        assert model.matrix.shape == (3 * bins, 3 * bins)
        mass = np.asarray(model.matrix[::3].sum(axis=0)).reshape(bins, 3)
        assert np.max(np.abs(mass[:, 0] - 1.0)) < 1e-12
        assert np.max(np.abs(mass[:, 1:])) < 1e-12

    def test_rejects_single_bin(self, doubling):
        with pytest.raises(ValueError):
            ulam_build(doubling, 1)

    def test_rejects_negative_degree(self, doubling):
        with pytest.raises(ValueError):
            ulam_build(doubling, 4, degree=-1)

    def test_nonzero_lift_at_origin(self):
        # branch windows shift when p(0) != 0; columns must still tile
        from linresp import CircleMap
        shifted = CircleMap(2, cosine(1, 0.05))
        model = ulam_build(shifted, 2**10)
        sums = np.asarray(model.matrix.sum(axis=0)).ravel()
        assert np.max(np.abs(sums - 1.0)) < 1e-12
        assert model.stationary.sum() == pytest.approx(2**10, rel=1e-12)


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


def test_package_import_leaves_scipy_sparse_unloaded():
    # Only the oracle needs scipy.sparse; commands that never verify skip it.
    src = str(Path(linresp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = "import sys, linresp; print('scipy.sparse' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
