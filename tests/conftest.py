import numpy as np
import pytest

from linresp import CircleMap, FourierSeries, ResponseProblem, doubling_map, sine


@pytest.fixture(scope="session")
def doubling():
    return doubling_map()


@pytest.fixture(scope="session")
def wavy():
    # degree 2 with periodic part 0.1 sin(2 pi x): the nonlinear workhorse
    return CircleMap(2, sine(1, 0.1))


@pytest.fixture(scope="session")
def triple():
    return CircleMap(3, FourierSeries(np.zeros(1, dtype=complex)))


@pytest.fixture(scope="session")
def doubling_problem(doubling):
    return ResponseProblem.for_map(doubling, 64)


@pytest.fixture(scope="session")
def wavy_problem(wavy):
    return ResponseProblem.for_map(wavy, 64)


def random_series(rng, order, decay=0.5, zero_mean=False):
    """Random real-valued trigonometric polynomial with decaying modes."""
    c = rng.normal(size=2 * order + 1) + 1j * rng.normal(size=2 * order + 1)
    n = np.arange(-order, order + 1)
    c *= np.exp(-decay * np.abs(n))
    series = FourierSeries(c).hermitian_symmetrized()
    if zero_mean:
        c = np.array(series.coeffs)
        c[order] = 0.0
        series = FourierSeries(c)
    return series


def direct_galerkin_entries(circle_map, row_order, col_order, quad_size):
    """Galerkin block by direct trapezoidal quadrature: the dense reference.

    entries[j, k] = (1/Q) sum_x e^{-2 pi i j T(x)} e^{2 pi i k x}.
    """
    x = np.arange(quad_size) / quad_size
    rows = np.arange(-row_order, row_order + 1)
    cols = np.arange(-col_order, col_order + 1)
    left = np.exp(-2j * np.pi * np.outer(rows, circle_map.lift(x)))
    right = np.exp(2j * np.pi * np.outer(x, cols))
    return (left @ right) / quad_size


def complex_minimal_norm(problem, target, weights, order):
    """Minimal-norm eps by a complex SVD pseudoinverse: the dense reference.

    eps = W^{-1/2} (A W^{-1/2})^+ r with singular values at or below 1e-10 of
    the largest dropped; returns the Hermitian-symmetrized coefficients and
    the rank kept.
    """
    from linresp.control import _constraint_rhs, constraint_matrix

    a = constraint_matrix(problem, order)
    scale = 1.0 / np.sqrt(weights.mode_weights(order))
    u, s, vh = np.linalg.svd(a * scale[None, :])
    r = _constraint_rhs(problem, target, order)
    keep = s > 1e-10 * s[0]
    coef = vh[keep].conj().T @ ((u[:, keep].conj().T @ r) / s[keep])
    eps = FourierSeries(scale * coef).hermitian_symmetrized()
    return eps.coeffs, int(np.count_nonzero(keep))
