"""Command-line pipeline: JSON job configs in, JSON + CSV results out.

Subcommands: density, respond, control, verify.  Outputs are byte-stable
for identical configs (fixed field order, 17-significant-digit floats) and
every JSON result embeds the config hash and the solver residuals.  Every
float is written as Python's ``'%.17g' % x`` writes it; CSV rows and JSON
coefficient arrays go through one numpy kernel, ``_format.format_17g``,
which hands the values it cannot settle to Python's ``%``, value by value.

Exit codes: 0 success, 1 config error, 2 solver failure, 3 target not
realizable at the requested truncation, 4 verification budget violation.
A command removes its result JSON and its CSV files from ``--out`` once its
config is read, writes the CSV files, and writes the JSON last: a run
refused after its config is read leaves no result file, its own or an
earlier run's.

This module imports only what every command runs (``fourier``, ``maps``,
``response`` with ``transfer``, and ``_format``).  ``control`` and ``verify``
load when a command that runs them is dispatched, before its config is read,
so ``density`` and ``respond`` never import them.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from ._format import format_17g
from .fourier import (DEFAULT_ORDER, FourierSeries, SobolevWeights, as_integer, as_real,
                      check_keys, cosine, exact_size, grid_values, next_pow2, sine, sup_norm)
from .maps import CircleMap, PerturbedFamily
from .response import InfeasibleTargetError, ResponseProblem, forward_response

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY = 4

VERIFY_BUDGET = 5e-2
NEGLIGIBLE_RESPONSE = 1e-7
# Rows per format_17g call, so that the kernel's temporaries (about 300
# bytes per value, 1.2 MB a block) stay bounded however long the file is.
CSV_BLOCK = 2048

CONFIG_KEYS = ("map", "N", "grid", "target", "epsilon", "weights", "verify")


def _presets() -> dict[str, FourierSeries]:
    return {
        "sin": sine(1),
        "cos": cosine(1),
        "sin2": sine(2),
        "cos2": cosine(2),
        "cos3": cosine(3),
        "mix": cosine(1) + cosine(3, 0.5),
        "eps_doubling_sin": cosine(2, 0.5 / np.pi),
    }


class ConfigError(ValueError):
    """The job configuration is malformed."""


def canonical_json(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, %.17g floats.

    A float array of pairs, such as a series' coefficients in ``to_dict``,
    is written by one ``format_17g`` call, in the bytes of the nested lists.
    """
    if isinstance(obj, np.ndarray):
        if not np.isfinite(obj).all():
            raise ValueError("non-finite value in output")
        return "[[" + format_17g(obj, (b",", b"],[")).decode()[:-2] + "]"
    if isinstance(obj, dict):
        items = ",".join(f"{json.dumps(str(k))}:{canonical_json(v)}"
                         for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not np.isfinite(value):
            raise ValueError("non-finite value in output")
        return format(value, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _parsed(what: str, parse, value):
    """parse(value), with malformed input reported as a ConfigError."""
    try:
        return parse(value)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _checked(rule, *args):
    """A library schema rule (``as_integer``, ``as_real``, ``check_keys``) raising ConfigError."""
    try:
        return rule(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_series(value, what: str) -> FourierSeries:
    if isinstance(value, str):
        presets = _presets()  # built only for a preset name
        if value not in presets:
            raise ConfigError(f"unknown {what} preset {value!r}; "
                              f"choose from {sorted(presets)}")
        return presets[value]
    if isinstance(value, dict) and "preset" in value:
        _checked(check_keys, f"{what} preset", value, ("preset", "scale"))
        base = _parse_series(value["preset"], what)
        return base * _checked(as_real, f"{what} scale", value.get("scale", 1.0))
    if isinstance(value, dict) and "coeffs" in value:
        return _parsed(f"{what} series", FourierSeries.from_dict, value)
    raise ConfigError(f"{what} must be a preset name or a series object")


@dataclass
class VerifySettings:
    delta: float
    bins: int

    def to_dict(self) -> dict:
        return {"delta": self.delta, "bins": self.bins}


@dataclass
class JobConfig:
    """Parsed job description; round-trips through to_dict/from_dict."""

    map: CircleMap
    order: int = DEFAULT_ORDER
    grid: int = 512
    target: FourierSeries | None = None
    epsilon: FourierSeries | None = None
    weights: SobolevWeights = SobolevWeights()
    verify: VerifySettings | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "JobConfig":
        _checked(check_keys, "config", data, CONFIG_KEYS)
        if "map" not in data:
            raise ConfigError("config needs a 'map' entry")
        circle_map = _parsed("map", CircleMap.from_dict, data["map"])
        order = _checked(as_integer, "N", data.get("N", DEFAULT_ORDER), 1)
        grid = next_pow2(_checked(as_integer, "grid", data.get("grid", 512), 1))
        target = _parse_series(data["target"], "target") if "target" in data else None
        epsilon = _parse_series(data["epsilon"], "epsilon") if "epsilon" in data else None
        weights = _parsed("weights", SobolevWeights.from_dict, data.get("weights", {}))
        verify = None
        if "verify" in data:
            block = data["verify"]
            _checked(check_keys, "verify", block, ("delta", "bins"))
            verify = VerifySettings(_checked(as_real, "verify.delta", block.get("delta")),
                                    _checked(as_integer, "verify.bins", block.get("bins"), 2))
            if not verify.delta > 0:
                raise ConfigError("verify.delta must be positive")
        return cls(circle_map, order, grid, target, epsilon, weights, verify)

    def to_dict(self) -> dict:
        values = {"map": self.map, "N": self.order, "grid": self.grid, "target": self.target,
                  "epsilon": self.epsilon, "weights": self.weights, "verify": self.verify}
        return {key: value if isinstance(value, int) else value.to_dict()
                for key, value in values.items() if value is not None}

    @property
    def sha256(self) -> str:
        return hashlib.sha256(canonical_json(self.to_dict()).encode()).hexdigest()


def load_config(path: str) -> JobConfig:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return JobConfig.from_dict(data)


def _write_csv(path: Path, header: tuple[str, str], xs, values) -> None:
    with path.open("wb") as fh:
        fh.write(f"{header[0]},{header[1]}\n".encode())
        for start in range(0, len(xs), CSV_BLOCK):
            block = np.column_stack((xs[start:start + CSV_BLOCK],
                                     values[start:start + CSV_BLOCK]))
            fh.write(format_17g(block, (b",", b"\n")))


def _series_csv(path: Path, series: FourierSeries, grid: int) -> None:
    size = exact_size(series.order, grid)
    _write_csv(path, ("x", "value"), np.arange(size) / size, grid_values(series, size))


# Each command writes its CSV files and returns its result fields, which follow
# the shared header in the result JSON, and its summary line.

def cmd_density(config: JobConfig, problem: ResponseProblem, out: Path):
    _series_csv(out / "density.csv", problem.density, config.grid)
    return ({"residual": problem.galerkin_residual,
             "pointwise_residual": problem.pointwise_residual,
             "density": problem.density.to_dict()},
            f"residual {problem.galerkin_residual:.3e}")


def cmd_respond(config: JobConfig, problem: ResponseProblem, out: Path):
    response = forward_response(problem, config.epsilon)
    magnitude = sup_norm(response)
    negligible = bool(magnitude < NEGLIGIBLE_RESPONSE)
    _series_csv(out / "response.csv", response, config.grid)
    note = " (negligible: kernel direction)" if negligible else ""
    return ({"density_residual": problem.galerkin_residual, "response_sup_norm": magnitude,
             "negligible": negligible, "response": response.to_dict()},
            f"sup norm {magnitude:.3e}{note}")


def cmd_control(config: JobConfig, problem: ResponseProblem, out: Path):
    from .control import minimal_norm_control, solve_control, truncation_defect
    two_step = solve_control(problem, config.target, config.weights)
    minimal = minimal_norm_control(problem, config.target, config.weights)
    defect = truncation_defect(problem, config.target, minimal.epsilon, 2 * config.order)
    roundtrip = sup_norm(forward_response(problem, minimal.epsilon) - config.target)
    _series_csv(out / "epsilon_two_step.csv", two_step.epsilon, config.grid)
    _series_csv(out / "epsilon_minimal_norm.csv", minimal.epsilon, config.grid)
    return ({"density_residual": problem.galerkin_residual, "two_step": two_step.to_dict(),
             "minimal_norm": minimal.to_dict(), "roundtrip_sup_error": roundtrip,
             "truncation_defect": {"order": defect.order,
                                   "residual": float(np.linalg.norm(defect.coeffs))}},
            f"minimal norm {minimal.norm:.6g}, residual {minimal.residual:.3e}")


def cmd_verify(config: JobConfig, problem: ResponseProblem, out: Path):
    from .control import minimal_norm_control
    from .verify import compare_l1, fd_response
    settings, eps, solution_residual = config.verify, config.epsilon, None
    if eps is None:
        solution = minimal_norm_control(problem, config.target, config.weights)
        eps, solution_residual = solution.epsilon, solution.residual
    # Ulam's method meets VERIFY_BUDGET with a wide margin (4.3e-4 on the wavy
    # map at 2^16 bins); it inverts the bin edges by spectral interpolation
    # of Newton nodes and keeps two weights per segment.  Its first-order
    # discretization error hides the O(delta^2) term, which the tests
    # resolve with the collocation reference of tests/conftest.py.
    binned = fd_response(PerturbedFamily(config.map, eps), settings.delta, settings.bins)
    discrepancy = compare_l1(binned, config.target)
    passed = bool(discrepancy < VERIFY_BUDGET)
    midpoints = (np.arange(settings.bins) + 0.5) / settings.bins
    _write_csv(out / "fd_response.csv", ("bin_midpoint", "value"), midpoints, binned)
    return ({"density_residual": problem.galerkin_residual,
             "epsilon_source": "config" if config.epsilon is not None else "minimal_norm",
             "solution_residual": solution_residual, "delta": settings.delta,
             "bins": settings.bins, "l1_discrepancy": discrepancy, "budget": VERIFY_BUDGET,
             "passed": passed},
            f"{'PASS' if passed else 'FAIL'} L1 discrepancy {discrepancy:.4g} "
            f"(budget {VERIFY_BUDGET})")


class _Command(NamedTuple):
    run: Callable
    result: str  # the result JSON's file name in --out
    csvs: tuple[str, ...]  # the CSV files it writes there
    solvers: tuple[str, ...]  # modules it runs beyond those imported above
    needs: tuple[str, ...]  # config entries it reads before any solve
    help: str


# main imports a command's solvers before it reads the config, so that they
# load before the command allocates any array.
_COMMANDS = {
    "density": _Command(cmd_density, "density.json", ("density.csv",), (), (),
                        "invariant density of the configured map"),
    "respond": _Command(cmd_respond, "response.json", ("response.csv",), (), ("epsilon",),
                        "first-order density change for a given perturbation"),
    "control": _Command(cmd_control, "control.json",
                        ("epsilon_two_step.csv", "epsilon_minimal_norm.csv"),
                        ("control",), ("target",),
                        "two-step and minimal-norm perturbations for a target"),
    "verify": _Command(cmd_verify, "verify.json", ("fd_response.csv",), ("control", "verify"),
                       ("verify", "target"), "Ulam finite-difference check of a control solution"),
}
_MISSING = {"epsilon": "an 'epsilon' entry", "target": "a 'target' entry",
            "verify": "a 'verify' block with delta and bins"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linresp",
        description="Linear response and density control for expanding circle maps")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        cmd.add_argument("--config", required=True, help="path to the JSON job config")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--modes", type=int, help="override the truncation order N")
        cmd.add_argument("--grid", type=int, help="override the CSV sampling grid")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    name, command = args.command, _COMMANDS[args.command]
    for solver in command.solvers:
        importlib.import_module(f".{solver}", __package__)
    try:
        config = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for stale in (*command.csvs, command.result):
            (out / stale).unlink(missing_ok=True)
        path = out / command.result
        if args.modes is not None:
            config.order = _checked(as_integer, "--modes", args.modes, 1)
        if args.grid is not None:
            config.grid = next_pow2(_checked(as_integer, "--grid", args.grid, 1))
        for entry in command.needs:
            if getattr(config, entry) is None:
                raise ConfigError(f"{name} needs {_MISSING[entry]}")
        # Bin averages alias modes above bins/2, as fourier.dft's samples do: with
        # fewer bins a target can average to zero in every bin and pass vacuously.
        if "verify" in command.needs and config.verify.bins < 2 * config.target.order + 1:
            raise ConfigError(f"verify.bins {config.verify.bins} cannot resolve a target of "
                              f"order {config.target.order}; use at least "
                              f"{2 * config.target.order + 1}")
        problem = ResponseProblem.for_map(config.map, config.order)
        fields, summary = command.run(config, problem, out)
        payload = {"command": name, "config_sha256": config.sha256, "N": config.order, **fields}
        path.write_text(canonical_json(payload) + "\n")
        print(f"{name}: {summary} -> {path}")
        return EXIT_OK if fields.get("passed", True) else EXIT_VERIFY
    except InfeasibleTargetError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so this clause comes first.
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, MemoryError) as exc:
        # A MemoryError is a config that asks for arrays larger than the host holds.
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # load_config reports an unreadable config itself, so this is the output.
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
