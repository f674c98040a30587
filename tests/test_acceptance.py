"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion alongside the measured numbers.
"""

import time

import numpy as np
import pytest

from linresp import (PerturbedFamily, SobolevWeights, apply_transfer,
                     compare_l1, cosine, derivative_operator, dft,
                     differentiate, exact_control, fd_response, fixed_point_residual,
                     forward_response, minimal_norm_control,
                     next_pow2, sine, sobolev_norm, solve_control, sup_norm)
from linresp.verify import collocation_fd_response

from conftest import (CircleDiffeo, build_conjugate, constant, kernel_directions, preimage_shift,
                      random_series, transfer_conjugacy_check, weighted_inner_product)

TWO_PI = 2 * np.pi
EPS0 = cosine(2, 1 / TWO_PI)  # the doubling map's distinguished solution

NONLINEAR_TARGETS = [
    ("sin", sine(1)),
    ("sin2", sine(2)),
    ("mix", cosine(1) + cosine(3, 0.5)),
]


@pytest.fixture(scope="module")
def nonlinear_solutions(wavy_problem):
    """Two-step solutions and round-trip gaps for the three stated targets."""
    start = time.perf_counter()
    solutions = []
    for name, target in NONLINEAR_TARGETS:
        solution = solve_control(wavy_problem, target)
        gap = sup_norm(forward_response(wavy_problem, solution.epsilon) - target)
        solutions.append((name, target, solution, gap))
    elapsed = time.perf_counter() - start
    return solutions, elapsed


def _validation_cases(doubling, wavy, nonlinear_solutions):
    solutions, _ = nonlinear_solutions
    cases = [("doubling/sin", doubling, EPS0, sine(1))]
    cases += [(f"wavy/{name}", wavy, sol.epsilon, target)
              for name, target, sol, _ in solutions]
    return cases


@pytest.fixture(scope="module")
def ulam_validation(doubling, wavy, nonlinear_solutions):
    """L1 discrepancies of the Ulam central difference at delta = 1e-3, 2^14 bins."""
    start = time.perf_counter()
    rows = [(label, compare_l1(fd_response(PerturbedFamily(base, eps), 1e-3, 2**14), target))
            for label, base, eps, target in _validation_cases(doubling, wavy,
                                                              nonlinear_solutions)]
    elapsed = time.perf_counter() - start
    return rows, elapsed


COLLOCATION_POINTS = 65


@pytest.fixture(scope="module")
def collocation_validation(doubling, wavy, nonlinear_solutions):
    """Mean nodal distance of the collocation central difference to the target.

    At delta and delta/2 on M = 65 points; Ulam's first-order discretization
    error hides the O(delta^2) term of a central difference, collocation's
    does not.
    """
    nodes = np.arange(COLLOCATION_POINTS) / COLLOCATION_POINTS
    rows = []
    for label, base, eps, target in _validation_cases(doubling, wavy, nonlinear_solutions):
        family = PerturbedFamily(base, eps)
        coarse, fine = (
            float(np.mean(np.abs(collocation_fd_response(family, h, COLLOCATION_POINTS)
                                 - target.evaluate(nodes))))
            for h in (1e-3, 5e-4))
        rows.append((label, coarse, fine))
    return rows


def test_criterion_1_exact_doubling_path():
    start = time.perf_counter()
    eps = exact_control(sine(1))
    elapsed = time.perf_counter() - start

    off_modes = [n for n in range(-eps.order, eps.order + 1)
                 if abs(n) != 2 and abs(eps.coeff(n)) > 0]
    assert off_modes == []
    x = np.arange(4096) / 4096
    sampled_error = np.max(np.abs(eps.evaluate(x) - np.cos(2 * TWO_PI * x) / TWO_PI))
    assert sampled_error < 1e-12
    norm = sobolev_norm(eps, SobolevWeights())
    assert norm == pytest.approx(np.sqrt(8) / (8 * np.pi), abs=1e-12)
    assert elapsed < 0.1
    print(f"\nACCEPTANCE 1 (exact doubling path): PASS  "
          f"max sample error {sampled_error:.2e}, "
          f"norm {norm:.12f}, {elapsed*1e3:.1f} ms")


def test_criterion_2_general_pipeline_matches_exact(doubling_problem):
    exact = exact_control(sine(1)).with_order(64)
    start = time.perf_counter()
    worst_gap = worst_off = 0.0
    for weights in (SobolevWeights(), SobolevWeights(0.5, 0.25, 0.1, 1.0)):
        solution = minimal_norm_control(doubling_problem, sine(1), weights,
                                        order=64)
        eps = solution.epsilon.with_order(64)
        worst_gap = max(worst_gap, float(np.max(np.abs(eps.coeffs - exact.coeffs))))
        off = np.abs(eps.coeffs[(eps.modes % 2 == 1) | (eps.modes == 0)])
        worst_off = max(worst_off, float(np.max(off)))
    elapsed = time.perf_counter() - start

    assert worst_gap < 1e-9
    assert worst_off < 1e-10
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2 (general spectral pipeline): PASS  "
          f"coefficient gap {worst_gap:.2e}, odd/zero modes {worst_off:.2e}, "
          f"{elapsed:.2f} s")


def test_criterion_3_nonlinear_round_trips(nonlinear_solutions):
    solutions, elapsed = nonlinear_solutions
    for name, _, _, gap in solutions:
        assert gap < 1e-6, f"round trip for target {name} off by {gap:.3e}"
    assert elapsed < 10.0
    gaps = ", ".join(f"{name} {gap:.2e}" for name, _, _, gap in solutions)
    print(f"\nACCEPTANCE 3 (forward/inverse round trip): PASS  {gaps}, "
          f"{elapsed:.2f} s")


def test_criterion_4_ulam_budget(ulam_validation):
    rows, elapsed = ulam_validation
    for label, coarse in rows:
        assert coarse < 5e-2, f"{label}: L1 discrepancy {coarse:.3e} over budget"
    assert elapsed < 60.0
    report = ", ".join(f"{label} {coarse:.2e}" for label, coarse in rows)
    print(f"\nACCEPTANCE 4a (Ulam oracle, 5e-2 budget): PASS  {report}, "
          f"{elapsed:.1f} s")


def test_criterion_4_quadratic_shrink(collocation_validation):
    print("\nACCEPTANCE 4b (discrepancy shrinks ~4x when delta halves, collocation):")
    failures = []
    for label, coarse, fine in collocation_validation:
        ratio = coarse / fine
        ok = 3.9 <= ratio <= 4.1
        print(f"  {label}: D(1e-3)={coarse:.3e} D(5e-4)={fine:.3e} "
              f"ratio={ratio:.2f} {'PASS' if ok else 'FAIL'}")
        if not ok:
            failures.append((label, ratio))
    assert not failures, (
        "quadratic shrink outside 4x +-2.5% for: "
        + ", ".join(f"{label} (ratio {ratio:.2f})" for label, ratio in failures))


@pytest.mark.parametrize("map_name", ["doubling", "wavy"])
def test_criterion_5_preimage_perturbation(map_name, request):
    base = request.getfixturevalue(map_name)
    family = PerturbedFamily(base, sine(1))
    rng = np.random.default_rng(2024)
    points = rng.uniform(0.0, 1.0, 16)
    worst = {}
    for delta in (1e-2, 1e-3, 1e-4):
        member = family.member(delta)
        error = 0.0
        for x in points:
            actual = member.preimages(x)
            for branch in range(base.degree):
                predicted = preimage_shift(family, x, branch, delta)
                error = max(error, abs(actual[branch] - predicted))
        worst[delta] = error
    first = worst[1e-2] / worst[1e-3]
    second = worst[1e-3] / worst[1e-4]
    assert 50 < first < 200
    assert 50 < second < 200
    print(f"\nACCEPTANCE 5 (preimage expansion, {map_name}): PASS  "
          f"ratios {first:.1f}x, {second:.1f}x")


def test_criterion_6_conjugacy_identity(wavy, wavy_problem):
    w = constant(1.0) + cosine(1, 0.5)
    small = CircleDiffeo(sine(1, 0.05 / TWO_PI))
    residual_small = transfer_conjugacy_check(wavy, small, w, grid=1024)
    assert residual_small < 1e-8

    density_diffeo = CircleDiffeo.from_density(wavy_problem.density)
    residual_density = transfer_conjugacy_check(wavy, density_diffeo,
                                                wavy_problem.density, grid=1024)
    assert residual_density < 1e-8

    conjugated = build_conjugate(wavy, density_diffeo)
    haar_gap = sup_norm(apply_transfer(conjugated, constant(1.0), out_order=64)
                        - constant(1.0), grid=1024)
    assert haar_gap < 1e-8
    print(f"\nACCEPTANCE 6 (conjugacy identity): PASS  residuals "
          f"{residual_small:.2e}, {residual_density:.2e}, "
          f"Haar gap {haar_gap:.2e}")


def test_criterion_7_operator_invariants(doubling_problem, wavy_problem):
    rng = np.random.default_rng(4096)

    # integral preservation: mode 0 fixed within 1e-10
    preservation = 0.0
    for problem in (doubling_problem, wavy_problem):
        for _ in range(3):
            w = random_series(rng, 12)
            out = apply_transfer(problem.map, w, out_order=32)
            preservation = max(preservation, abs(out.coeff(0) - w.coeff(0)))
    assert preservation < 1e-10

    # invariant density pointwise residual
    density_residual = max(
        fixed_point_residual(problem.map, problem.density)
        for problem in (doubling_problem, wavy_problem))
    assert density_residual < 1e-9

    # compact vs three-term derivative operator, three-term recomputed here
    form_gap = 0.0
    for problem in (doubling_problem, wavy_problem):
        eps = random_series(rng, 8, decay=0.8)
        w = random_series(rng, 8, decay=0.8)
        compact = derivative_operator(problem, eps, w)
        pad = 4 * problem.order
        size = next_pow2(2 * pad + 2)
        x = np.arange(size) / size
        tp = problem.map.evaluate(x, 1)
        combined = dft(
            -w.evaluate(x) * differentiate(eps).evaluate(x) / tp
            - eps.evaluate(x) * differentiate(w).evaluate(x) / tp
            + eps.evaluate(x) * problem.map.evaluate(x, 2) * w.evaluate(x) / tp**2,
            pad)
        three_term = apply_transfer(problem.map, combined,
                                    out_order=problem.order)
        form_gap = max(form_gap, sup_norm(compact - three_term, grid=1024))
    assert form_gap < 1e-9

    # kernel directions produce no first-order response
    kernel_response = 0.0
    for problem in (doubling_problem, wavy_problem):
        for direction in kernel_directions(problem, count=6):
            kernel_response = max(
                kernel_response, sup_norm(forward_response(problem, direction)))
    assert kernel_response < 1e-7

    # the minimal solution is W-orthogonal to the kernel
    weights = SobolevWeights(0.5, 0.25, 0.1, 1.0)
    solution = minimal_norm_control(wavy_problem, sine(1), weights)
    orthogonality = max(
        abs(weighted_inner_product(solution.epsilon, direction, weights))
        for direction in kernel_directions(wavy_problem, count=10,
                                           weights=weights))
    assert orthogonality < 1e-8

    print(f"\nACCEPTANCE 7 (operator invariants): PASS  "
          f"integral {preservation:.2e}, density residual {density_residual:.2e}, "
          f"form gap {form_gap:.2e}, kernel response {kernel_response:.2e}, "
          f"W-orthogonality {orthogonality:.2e}")
