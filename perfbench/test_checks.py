"""Tests of how the benchmark classifies one CLI operation.

Run from the root of a checkout:  python3 -m pytest perfbench/test_checks.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from run import Checker, Job  # noqa: E402
from workloads import Command  # noqa: E402

GOOD_CONTROL = {"density_residual": 1e-14, "roundtrip_sup_error": 1e-9,
                "two_step": {"residual": 1e-12}, "minimal_norm": {"residual": 1e-12}}


def _job(tmp_path, subcommand: str, result: dict | None) -> Job:
    job = Job(Command(subcommand, {}, subcommand), 0, tmp_path)
    if result is not None:
        job.out.mkdir()
        name = {"control": "control.json", "verify": "verify.json"}[subcommand]
        (job.out / name).write_text(json.dumps(result))
    return job


def test_good_outputs_succeed(tmp_path):
    checker = Checker()
    assert checker.check(_job(tmp_path, "control", GOOD_CONTROL), "test", 0, "")
    assert (checker.attempted, checker.failures, checker.incorrect) == (1, [], 0)


@pytest.mark.parametrize("code", [0, 4])
def test_failing_verify_is_incorrect_whatever_the_exit_code(tmp_path, code):
    checker = Checker()
    job = _job(tmp_path, "verify", {"passed": False, "l1_discrepancy": 0.5})
    assert not checker.check(job, "test", code, "verify: FAIL")
    assert checker.incorrect == 1


def test_wrong_control_residual_is_incorrect(tmp_path):
    checker = Checker()
    job = _job(tmp_path, "control", {**GOOD_CONTROL, "density_residual": 1e-6})
    assert not checker.check(job, "test", 0, "")
    assert checker.incorrect == 1


@pytest.mark.parametrize("code, stderr", [
    (1, "config error: N must be >= 1\n"),
    (2, "solver failure: fixed-point residual 3e-08 > 1e-09\n"),
    (3, "infeasible: target has a nonzero mean\n"),
])
def test_refusal_is_failed_but_not_incorrect(tmp_path, code, stderr):
    checker = Checker()
    assert not checker.check(_job(tmp_path, "control", None), "test", code, stderr)
    assert (len(checker.failures), checker.incorrect) == (1, 0)


@pytest.mark.parametrize("code, stderr", [
    (-1, "Traceback (most recent call last):\nZeroDivisionError\n"),
    (1, "Traceback (most recent call last):\nKeyError: 'x'\n"),
    (2, "config error: wrong prefix for this exit code\n"),
    (-9, ""),
])
def test_crash_is_incorrect(tmp_path, code, stderr):
    checker = Checker()
    assert not checker.check(_job(tmp_path, "control", None), "test", code, stderr)
    assert checker.incorrect == 1
