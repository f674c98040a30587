import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from linresp import (CircleMap, FourierSeries, PerturbedFamily, ResponseProblem, SobolevWeights,
                     antiderivative, apply_transfer_pointwise, cosine, dft, forward_response,
                     galerkin_matrix, grid_values, invariant_density, next_pow2, sine, zeros)
from linresp.fourier import as_integer, differentiate, from_real_basis, to_real_basis
from linresp.transfer import real_matrix_from_rows


def constant(value):
    """The constant function ``value`` as a series of order 0."""
    return FourierSeries(np.array([complex(value)]))


def doubling_map():
    """The linear degree-2 map x -> 2x (mod 1)."""
    return CircleMap(2, zeros(0))


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


@pytest.fixture(scope="session")
def wavy_family(wavy_problem):
    """The wavy map along an order-64 minimal-norm control, as ``linresp verify`` runs it.

    This is the family of the verify-bins64k benchmark config: target mix
    and weights a=0.5, d=1.
    """
    from linresp import SobolevWeights, minimal_norm_control

    target = cosine(1) + cosine(3, 0.5)
    eps = minimal_norm_control(wavy_problem, target, SobolevWeights(a=0.5, d=1.0)).epsilon
    return PerturbedFamily(wavy_problem.map, eps)


@pytest.fixture(scope="session")
def perturbed_wavy(wavy_family):
    """The plus member of the verify-bins64k benchmark config, at delta 1e-3."""
    return wavy_family.member(1e-3)


def random_series(rng, order, decay=0.5, zero_mean=False):
    """Random real-valued trigonometric polynomial with decaying modes."""
    c = rng.normal(size=2 * order + 1) + 1j * rng.normal(size=2 * order + 1)
    n = np.arange(-order, order + 1)
    c *= np.exp(-decay * np.abs(n))
    series = FourierSeries(0.5 * (c + np.conj(c[::-1])))
    if zero_mean:
        c = np.array(series.coeffs)
        c[order] = 0.0
        series = FourierSeries(c)
    return series


def _reference_halve(series):
    """Frequency halving out_m = in_{2m} by a loop over modes."""
    half = series.order // 2
    out = np.zeros(2 * half + 1, dtype=complex)
    for m in range(-half, half + 1):
        out[m + half] = series.coeff(2 * m)
    return FourierSeries(out)


def reference_exact_control(target, odd_modes=None):
    """Doubling-map control by loops over modes: the reference closed form.

    Forced data a_m - a_{2m} at frequency 2m (mode 0 cleared) plus the odd
    data, integrated term-wise as -2 f.
    """
    n = target.order
    forced = np.zeros(4 * n + 1, dtype=complex)
    for m in range(-n, n + 1):
        forced[2 * m + 2 * n] = target.coeff(m) - target.coeff(2 * m)
    forced[2 * n] = 0.0
    data = FourierSeries(forced) + (odd_modes if odd_modes is not None else zeros(0))
    mid = data.order
    c = np.array(data.coeffs)
    k = data.modes.astype(float)
    k[mid] = 1.0
    c = -c / (1j * np.pi * k)
    c[mid] = 0.0
    return FourierSeries(c)


def reference_exact_forward(eps):
    """Doubling-map response: the Neumann series of loop halvings of -eps'/2."""
    term = _reference_halve(differentiate(eps) * (-0.5))
    total = term
    while term.order >= 1 and np.any(term.coeffs != 0):
        term = _reference_halve(term)
        total = total + term
    return total


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


def conjugate_fill(upper):
    """The whole matrix on modes -N..N from its rows j >= 0, by A[-j, -k] = conj A[j, k]."""
    return np.concatenate((np.conj(upper[:0:-1, ::-1]), upper))


def real_basis_change(order):
    """The explicit unitary Q of ``from_real_basis``: column i is unit coordinate i's series."""
    size = 2 * order + 1
    return np.array([from_real_basis(e).coeffs for e in np.eye(size)]).T


def complex_entries(matrix):
    """The complex Galerkin matrix M = Q real Q^H of a ``TransferMatrix``."""
    q = real_basis_change(matrix.order)
    return q @ matrix.real @ q.conj().T


def constraint_matrix(problem, order):
    """The whole complex constraint matrix A at ``order``, noise floor applied.

    A maps eps coefficients to those of D_eps rho; the package assembles only
    its rows j >= 0 (``control._constraint_rows``), and the rows j < 0 follow
    by conjugate symmetry.
    """
    from linresp.control import _constraint_rows, _floored

    return conjugate_fill(_floored(_constraint_rows(problem, order)))


def complex_minimal_norm(problem, target, weights, order):
    """Minimal-norm eps by a complex SVD pseudoinverse: the dense reference.

    eps = W^{-1/2} (A W^{-1/2})^+ r with singular values at or below 1e-10 of
    the largest dropped; returns the Hermitian-symmetrized coefficients and
    the rank kept.
    """
    from linresp.control import _constraint_rhs

    a = constraint_matrix(problem, order)
    scale = 1.0 / np.sqrt(weights.mode_weights(order))
    u, s, vh = np.linalg.svd(a * scale[None, :])
    r = _constraint_rhs(problem, target, order)
    keep = s > 1e-10 * s[0]
    coef = vh[keep].conj().T @ ((u[:, keep].conj().T @ r) / s[keep])
    eps = scale * coef
    return 0.5 * (eps + np.conj(eps[::-1])), int(np.count_nonzero(keep))


def complex_restricted_solves(matrix, rhs):
    """Density and zero-mean solve by the complex restricted inverse: the real route's reference.

    I - M without the row and column of mode 0 is inverted as a complex
    (2N) x (2N) matrix; rho = (1, R^{-1} M[r, 0]) and v = (0, R^{-1} b_r),
    each Hermitian-symmetrized.  Returns the coefficients of rho and of v.
    """
    mid = matrix.order
    entries = complex_entries(matrix)
    system = np.eye(2 * mid + 1) - entries
    inverse = np.linalg.inv(np.delete(np.delete(system, mid, axis=0), mid, axis=1))
    solves = []
    for value, column in ((1.0, entries[:, mid]), (0.0, rhs.with_order(mid).coeffs)):
        c = np.insert(inverse @ np.delete(column, mid), mid, value)
        solves.append(0.5 * (c + np.conj(c[::-1])))
    return solves


def whole_restricted_solves(matrix, rhs):
    """Density and zero-mean solve by one inverse of the whole real R: the parity split's reference.

    R = I - Q^H M Q without the a_0 row and column, inverted as one 2N x 2N
    matrix.  Returns the coefficients of rho and of v, and the 1-norm
    condition number of R.
    """
    mid = matrix.order
    system = np.eye(2 * mid) - matrix.real[1:, 1:]
    inverse = np.linalg.inv(system)
    solves = []
    for value, column in ((1.0, matrix.real[1:, 0]),
                          (0.0, to_real_basis(rhs.with_order(mid).coeffs)[1:])):
        coords = inverse @ column
        solves.append(from_real_basis(np.concatenate(([value], coords))).coeffs)
    return (*solves, float(np.linalg.norm(system, 1) * np.linalg.norm(inverse, 1)))


def weighted_system(problem, weights, order):
    """The W^{-1/2} scaling and the whole weighted real system Q^H A Q W^{-1/2}.

    The block builder with whole slices, scaled in one product: the
    reference every block of ``control._weighted_block`` equals bit for bit.
    """
    from linresp.control import _constraint_rows, _floored, _weight_scale

    scale = _weight_scale(weights, order)
    return scale, real_matrix_from_rows(_floored(_constraint_rows(problem, order))) * scale


def padded_blocks(system, blocks):
    """The (rows, cols) blocks of ``system``, each with one more zero row and column.

    The form ``control._block_lstsq`` reads, as ``control._weighted_block``
    builds it.
    """
    padded = []
    for rows, cols in blocks:
        block = system[rows, cols]
        padded.append(np.zeros((block.shape[0] + 1, block.shape[1] + 1)))
        padded[-1][:-1, :-1] = block
    return padded


def kernel_directions(problem, order=None, count=6, weights=SobolevWeights()):
    """W-orthonormal directions spanning the numerical null space of A.

    Perturbations along these directions change the invariant density only
    at second order: the right singular vectors of the whole weighted real
    system beyond its rank.  If fewer than ``count`` null directions exist
    at this truncation, the available ones are returned with a warning; a
    ``count`` or an ``order`` that is not an integer >= 1 is a ValueError.
    """
    from linresp.control import PSEUDOINVERSE_CUTOFF

    count = as_integer("count", count, 1)
    order = as_integer("order", problem.order if order is None else order, 1)
    scale, system = weighted_system(problem, weights, order)
    _, s, vh = np.linalg.svd(system)
    # Rows of vh are real and orthonormal, so eps = Q W^{-1/2} v is real and
    # W-orthonormal; they come in decreasing singular value: a fixed order.
    null = vh[s <= PSEUDOINVERSE_CUTOFF * s[0]]
    if null.size == 0:
        warnings.warn("no null directions at this truncation", RuntimeWarning)
        return []
    found = null.shape[0]
    if found < count:
        warnings.warn(f"only {found} null directions exist at truncation {order} "
                      f"(requested {count})", RuntimeWarning)
    return [from_real_basis(scale * v) for v in null[:count]]


def full_system_lstsq(problem, target, weights, order):
    """One dgelsd call on the whole weighted real system: the block solve's reference.

    Returns the system, its right-hand side, the solution coordinates, the
    eps coefficients, the rank kept and the singular values.
    """
    from linresp.control import _constraint_rhs

    scale, system = weighted_system(problem, weights, order)
    rhs = to_real_basis(_constraint_rhs(problem, target, order))
    coords, _, rank, s = np.linalg.lstsq(system, rhs, rcond=1e-10)
    return SimpleNamespace(system=system, rhs=rhs, coords=coords,
                           epsilon=from_real_basis(scale * coords).coeffs,
                           rank=int(rank), singular_values=s)


def steep_map():
    """Degree 5 with min T' 1.67 and max T' 8.33: strong curvature for Newton."""
    return CircleMap(5, sine(1, 0.4) + cosine(7, 0.02))


def seeded_maps():
    """Degree 2..6 maps with random_series periodic parts of order 3..7.

    Each p is scaled so that max |p'| is a seeded fraction in [0.3, 0.9] of
    d - 1, which keeps min T' above 1.
    """
    rng = np.random.default_rng(2024)
    maps = []
    for degree in range(2, 7):
        periodic = random_series(rng, degree + 1, decay=0.3, zero_mean=True)
        x = np.arange(4096) / 4096
        slope = float(np.max(np.abs(differentiate(periodic).evaluate(x))))
        maps.append(CircleMap(degree, periodic * (rng.uniform(0.3, 0.9) * (degree - 1) / slope)))
    return maps


def horner_values(coeffs, x):
    """Complex series values by a full-spectrum Horner pass: the reference evaluation."""
    z = np.exp(2j * np.pi * x)
    acc = np.full(x.shape, coeffs[-1], dtype=complex)
    for k in range(coeffs.size - 2, -1, -1):
        acc *= z
        acc += coeffs[k]
    order = (coeffs.size - 1) // 2
    if order:
        acc *= np.exp(-2j * np.pi * order * x)
    return acc


def reference_invert_lift(circle_map, targets):
    """Branch inversion by full-spectrum complex Horner pairs: the reference Newton.

    Newton starts from the doubling-map seed (t - L(0))/d and shares only
    ``_solve_increasing`` and its bracket with ``CircleMap.invert_lift``.
    """
    from linresp.maps import _solve_increasing

    d = circle_map.degree
    p = circle_map.periodic_part
    dp = differentiate(p)

    def lift_value(y):
        return (d * y + horner_values(p.coeffs, y).real,
                lambda: d + horner_values(dp.coeffs, y).real)

    t = np.asarray(targets, dtype=float)
    lift0 = circle_map.lift(0.0)
    shift = np.floor((t - lift0) / d)
    base = t - d * shift
    lo = (base - circle_map._inversion.p_hi) / d
    hi = (base - circle_map._inversion.p_lo) / d
    return _solve_increasing(lift_value, base, (base - lift0) / d, lo, hi) + shift


def dense_ulam_matrix(circle_map, bins):
    """Ulam's matrix, dense, from (row, column, value) triplets: the reference.

    Pieces are the preimages of the image bins, each cut at a source-bin edge,
    concatenated into one list; a piece's entry is its length in bin units
    (preimages times bins, where bin edges are integers), and np.add.at sums
    the entries of pieces that share a row and column.  Meant for
    bins <= 1024.
    """
    d = circle_map.degree
    start = float(circle_map.lift(0.0))
    lo = int(np.ceil(start * bins - 1e-9))
    hi = int(np.floor((start + d) * bins + 1e-9))
    targets = np.arange(lo, hi + 1) / bins
    if targets[0] > start + 1e-15:
        targets = np.concatenate(([start], targets))
    if targets[-1] < start + d - 1e-15:
        targets = np.concatenate((targets, [start + d]))
    y = circle_map.invert_lift(targets)
    y[0], y[-1] = 0.0, 1.0
    u_lo, u_hi = y[:-1] * bins, y[1:] * bins
    image_edge = np.floor(0.5 * (targets[:-1] + targets[1:]) * bins).astype(int)
    j0 = np.minimum(u_lo.astype(int), bins - 1)
    edge = j0 + 1.0
    first = np.minimum(u_hi, edge) - u_lo
    whole, cut = first > 0.0, u_hi > edge
    length = np.concatenate((first[whole], (u_hi - edge)[cut]))
    source = np.concatenate((j0[whole], j0[cut] + 1))
    image_edge = np.concatenate((image_edge[whole], image_edge[cut]))
    dense = np.zeros((bins, bins))
    np.add.at(dense, (image_edge % bins, source), length)
    return dense


def ulam_products(matrix, v):
    """(M @ v, v @ M) from a ``TransitionOperator``'s own arrays, in one pass each.

    The reference of the operator's one product, ``M @ v``, and the only
    route to ``v @ M``, whose v = 1 gives the column sums.  Slot 1 of
    segment s sits in source bin min(source[s] + 1, bins - 1), where its
    weight is 0 past the last bin, and segment s images into bin
    (first + s) mod bins; np.add.at folds the segments in order.
    """
    bins, source = matrix.bins, matrix.source
    (w0, w1), following = matrix.weights, np.minimum(source + 1, bins - 1)
    image_bins = (matrix.first + np.arange(source.size)) % bins
    forward = np.zeros(bins)
    np.add.at(forward, image_bins, w0 * v[source] + w1 * v[following])
    image = v[image_bins]
    backward = np.bincount(source, w0 * image, bins) + np.bincount(following, w1 * image, bins)
    return forward, backward


def multiply(f, g):
    """Pointwise product at order N_f + N_g, exact on a 2x zero-padded grid."""
    order = f.order + g.order
    size = next_pow2(2 * order + 2)
    return dft(grid_values(f, size) * grid_values(g, size), order)


def weighted_inner_product(f, g, weights):
    """W-inner product sum_n W(n) conj(f_n) g_n."""
    order = max(f.order, g.order)
    return complex(np.sum(weights.mode_weights(order) * np.conj(f.with_order(order).coeffs)
                          * g.with_order(order).coeffs))


def preimage_shift(family, x, branch, delta):
    """First-order prediction y0 - delta eps(y0)/T0'(y0) of a branch preimage under T_delta."""
    if not abs(delta) < family.delta_max:
        raise ValueError("|delta| >= delta_max")
    y0 = family.base.preimages(x)[branch]
    return float(y0 - delta * family.direction.evaluate(y0) / family.base.evaluate(y0, 1))


def finite_difference_response_check(problem, direction, delta, grid=4096):
    """L1 gap between the central difference of spectral densities of T_{+-delta} and rho1.

    The gap scales as O(delta^2).
    """
    family = PerturbedFamily(problem.map, direction)
    rho_plus, rho_minus = (invariant_density(galerkin_matrix(family.member(s), problem.order))
                           for s in (delta, -delta))
    gap = (rho_plus - rho_minus) * (0.5 / delta) - forward_response(problem, direction)
    return float(np.mean(np.abs(grid_values(gap, next_pow2(max(grid, 2 * gap.order + 2))))))


class CircleDiffeo:
    """Orientation-preserving circle diffeomorphism h(x) = x + q(x), q periodic, h' > 0.

    ``invert`` bisects, so it shares no inversion code with ``CircleMap``.
    """

    def __init__(self, displacement):
        self.displacement = displacement
        self._dq = differentiate(displacement)
        size = next_pow2(max(16 * (displacement.order + 1), 4096))
        if float(np.min(1.0 + grid_values(self._dq, size))) <= 0.0:
            raise ValueError("h' <= 0 somewhere: not a diffeomorphism")
        q = grid_values(displacement, size)
        pad = 1e-9 + 1e-3 * (float(np.max(q)) - float(np.min(q)))
        self._q_lo, self._q_hi = float(np.min(q)) - pad, float(np.max(q)) + pad

    def evaluate(self, x):
        return np.asarray(x, dtype=float) + self.displacement.evaluate(x)

    def deriv(self, x):
        return 1.0 + self._dq.evaluate(x)

    def invert(self, x):
        """Solve y + q(y) = x by 64 halvings of [x - max q, x - min q]."""
        x = np.asarray(x, dtype=float)
        lo, hi = x - self._q_hi, x - self._q_lo
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            below = self.evaluate(mid) <= x
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        y = 0.5 * (lo + hi)
        return float(y) if x.ndim == 0 else y

    @classmethod
    def identity(cls):
        return cls(zeros(0))

    @classmethod
    def from_density(cls, density):
        """h(x) = integral of the density from 0 to x, for a mean-1 density."""
        if abs(density.coeff(0) - 1.0) > 1e-8:
            raise ValueError("density must have mean 1")
        primitive = antiderivative(density - constant(1.0))
        return cls(primitive + constant(-primitive.evaluate(0.0)))


def build_conjugate(circle_map, diffeo, order=128):
    """S = h o T o h^{-1} as a CircleMap, its periodic part sampled through h^{-1}."""
    size = next_pow2(max(8 * order, 1024))
    x = np.arange(size) / size
    lifted = circle_map.lift(diffeo.invert(x))
    outer = lifted + diffeo.displacement.evaluate(lifted)
    return CircleMap(circle_map.degree, dft(outer - circle_map.degree * x, order))


def transfer_conjugacy_check(circle_map, diffeo, w, grid=1024, conjugate_order=128):
    """Max-norm residual of (L_S w) o h = (1/h') L_T((w o h) h') on a grid.

    S is rebuilt by ``build_conjugate``, so the two sides share no preimages.
    """
    conjugate = build_conjugate(circle_map, diffeo, conjugate_order)
    x = np.arange(grid) / grid
    left = apply_transfer_pointwise(conjugate, w, np.mod(diffeo.evaluate(x), 1.0))
    size = next_pow2(max(8 * conjugate_order, 1024))
    xs = np.arange(size) / size
    composed = dft(w.evaluate(diffeo.evaluate(xs)) * diffeo.deriv(xs), conjugate_order)
    right = apply_transfer_pointwise(circle_map, composed, x) / diffeo.deriv(x)
    return float(np.max(np.abs(left - right)))
