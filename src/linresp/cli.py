"""Command-line pipeline: JSON job configs in, JSON + CSV results out.

Subcommands: density, respond, control, verify.  Outputs are byte-stable
for identical configs (fixed field order, 17-significant-digit floats) and
every JSON result embeds the config hash and the solver residuals.

Exit codes: 0 success, 1 config error, 2 solver failure, 3 target not
realizable at the requested truncation, 4 verification budget violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .control import (InfeasibleTargetError, minimal_norm_control,
                      minimal_norm_truncation_report, solve_control)
from .fourier import (DEFAULT_ORDER, FourierSeries, SobolevWeights, cosine,
                      idft, next_pow2, sine, sup_norm)
from .maps import CircleMap, PerturbedFamily, PreimageError
from .response import ResponseProblem, forward_response
from .transfer import SpectralGapError
from .verify import compare_l1, fd_response

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY = 4

VERIFY_BUDGET = 5e-2
NEGLIGIBLE_RESPONSE = 1e-7
CSV_BLOCK = 4096  # rows per format call

TWO_PI = 2.0 * np.pi
CONFIG_KEYS = ("map", "N", "grid", "target", "epsilon", "weights", "verify")


def _presets() -> dict[str, FourierSeries]:
    return {
        "sin": sine(1),
        "cos": cosine(1),
        "sin2": sine(2),
        "cos2": cosine(2),
        "cos3": cosine(3),
        "mix": cosine(1) + cosine(3, 0.5),
        "eps_doubling_sin": cosine(2, 1.0 / TWO_PI),
    }


class ConfigError(ValueError):
    """The job configuration is malformed."""


def canonical_json(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, %.17g floats."""
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


def _integer(what: str, value, low: int) -> int:
    """An integral number >= low as an int; booleans and fractions are refused."""
    if isinstance(value, bool) or not (isinstance(value, int) or
                                       (isinstance(value, float) and value.is_integer())):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{what} must be >= {low}")
    return int(value)


def _known_keys(block: dict, known: tuple[str, ...], what: str) -> None:
    unknown = sorted(set(block) - set(known))
    if unknown:
        raise ConfigError(f"unknown {what} keys {unknown}; expected some of {list(known)}")


def _parse_series(value, what: str) -> FourierSeries:
    presets = _presets()
    if isinstance(value, str):
        if value not in presets:
            raise ConfigError(f"unknown {what} preset {value!r}; "
                              f"choose from {sorted(presets)}")
        return presets[value]
    if isinstance(value, dict) and "preset" in value:
        _known_keys(value, ("preset", "scale"), f"{what} preset")
        base = _parse_series(value["preset"], what)
        return base * _parsed(f"{what} scale", float, value.get("scale", 1.0))
    if isinstance(value, dict) and "coeffs" in value:
        _check_series_keys(value, what)
        return _parsed(f"{what} series", FourierSeries.from_dict, value)
    raise ConfigError(f"{what} must be a preset name or a series object")


def _check_series_keys(block: dict, what: str) -> None:
    """A series object has the keys N and coeffs only, with an integral N >= 0."""
    _known_keys(block, ("N", "coeffs"), f"{what} series")
    _integer(f"{what} N", block.get("N"), 0)


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
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        _known_keys(data, CONFIG_KEYS, "config")
        if "map" not in data:
            raise ConfigError("config needs a 'map' entry")
        if isinstance(data["map"], dict):
            _known_keys(data["map"], ("degree", "periodic_part"), "map")
            _integer("map degree", data["map"].get("degree"), 2)
            if isinstance(data["map"].get("periodic_part"), dict):
                _check_series_keys(data["map"]["periodic_part"], "map periodic_part")
        circle_map = _parsed("map", CircleMap.from_dict, data["map"])
        order = _integer("N", data.get("N", DEFAULT_ORDER), 1)
        grid = next_pow2(_integer("grid", data.get("grid", 512), 1))
        target = _parse_series(data["target"], "target") if "target" in data else None
        epsilon = _parse_series(data["epsilon"], "epsilon") if "epsilon" in data else None
        raw_weights = data.get("weights", {})
        if not isinstance(raw_weights, dict):
            raise ConfigError("weights must be an object with keys a, b, c, d")
        _known_keys(raw_weights, ("a", "b", "c", "d"), "weights")
        weights = _parsed("weights", SobolevWeights.from_dict, raw_weights)
        verify = None
        if "verify" in data:
            block = data["verify"]
            if not isinstance(block, dict):
                raise ConfigError("verify must be an object with keys delta, bins")
            _known_keys(block, ("delta", "bins"), "verify")
            verify = VerifySettings(_parsed("verify.delta", float, block.get("delta")),
                                    _integer("verify.bins", block.get("bins"), 2))
            if not (verify.delta > 0 and np.isfinite(verify.delta)):
                raise ConfigError("verify.delta must be positive and finite")
        return cls(circle_map, order, grid, target, epsilon, weights, verify)

    def to_dict(self) -> dict:
        out: dict = {"map": self.map.to_dict(), "N": self.order, "grid": self.grid}
        if self.target is not None:
            out["target"] = self.target.to_dict()
        if self.epsilon is not None:
            out["epsilon"] = self.epsilon.to_dict()
        out["weights"] = self.weights.to_dict()
        if self.verify is not None:
            out["verify"] = self.verify.to_dict()
        return out

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


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(canonical_json(payload) + "\n")


def _write_csv(path: Path, header: tuple[str, str], xs, values) -> None:
    rows = np.column_stack((xs, values)).astype(float)
    with path.open("w") as fh:
        fh.write(f"{header[0]},{header[1]}\n")
        # One format call per block: few float objects alive at once, so the
        # small-object heap they borrow is reused rather than left to grow.
        for start in range(0, len(rows), CSV_BLOCK):
            block = rows[start:start + CSV_BLOCK]
            fh.write("%.17g,%.17g\n" * len(block) % tuple(block.ravel().tolist()))


def _series_csv(path: Path, series: FourierSeries, grid: int) -> None:
    size = next_pow2(max(grid, 2 * series.order + 2))
    values = idft(series, size).samples
    _write_csv(path, ("x", "value"), np.arange(size) / size, values)


def _problem(config: JobConfig) -> tuple[ResponseProblem, float]:
    """The configured problem and its Galerkin residual sup |M rho - rho|."""
    problem = ResponseProblem.for_map(config.map, config.order)
    rho = problem.density.coeffs
    return problem, float(np.max(np.abs(problem.matrix.entries @ rho - rho)))


def cmd_density(config: JobConfig, out: Path) -> int:
    problem, residual = _problem(config)
    payload = {
        "command": "density",
        "config_sha256": config.sha256,
        "N": config.order,
        "residual": residual,
        "pointwise_residual": problem.pointwise_residual,
        "density": problem.density.to_dict(),
    }
    _write_json(out / "density.json", payload)
    _series_csv(out / "density.csv", problem.density, config.grid)
    print(f"density: residual {residual:.3e} -> {out / 'density.json'}")
    return EXIT_OK


def cmd_respond(config: JobConfig, out: Path) -> int:
    if config.epsilon is None:
        raise ConfigError("respond needs an 'epsilon' entry")
    problem, residual = _problem(config)
    response = forward_response(problem, config.epsilon)
    magnitude = sup_norm(response)
    payload = {
        "command": "respond",
        "config_sha256": config.sha256,
        "N": config.order,
        "density_residual": residual,
        "response_sup_norm": magnitude,
        "negligible": bool(magnitude < NEGLIGIBLE_RESPONSE),
        "response": response.to_dict(),
    }
    _write_json(out / "response.json", payload)
    _series_csv(out / "response.csv", response, config.grid)
    note = " (negligible: kernel direction)" if magnitude < NEGLIGIBLE_RESPONSE else ""
    print(f"respond: sup norm {magnitude:.3e}{note} -> {out / 'response.json'}")
    return EXIT_OK


def cmd_control(config: JobConfig, out: Path) -> int:
    if config.target is None:
        raise ConfigError("control needs a 'target' entry")
    problem, residual = _problem(config)
    two_step = solve_control(problem, config.target, config.weights)
    minimal = minimal_norm_control(problem, config.target, config.weights)
    roundtrip = sup_norm(forward_response(problem, minimal.epsilon) - config.target)
    report = minimal_norm_truncation_report(problem, config.target, config.weights,
                                            low=minimal)
    payload = {
        "command": "control",
        "config_sha256": config.sha256,
        "N": config.order,
        "density_residual": residual,
        "two_step": two_step.to_dict(),
        "minimal_norm": minimal.to_dict(),
        "roundtrip_sup_error": roundtrip,
        "truncation_norms": report,
    }
    _write_json(out / "control.json", payload)
    _series_csv(out / "epsilon_two_step.csv", two_step.epsilon, config.grid)
    _series_csv(out / "epsilon_minimal_norm.csv", minimal.epsilon, config.grid)
    print(f"control: minimal norm {minimal.norm:.6g}, residual {minimal.residual:.3e} "
          f"-> {out / 'control.json'}")
    return EXIT_OK


def cmd_verify(config: JobConfig, out: Path) -> int:
    if config.verify is None:
        raise ConfigError("verify needs a 'verify' block with delta and bins")
    if config.target is None:
        raise ConfigError("verify needs a 'target' entry")
    problem, residual = _problem(config)
    if config.epsilon is not None:
        eps = config.epsilon
        source = "config"
        solution_residual = None
    else:
        solution = minimal_norm_control(problem, config.target, config.weights)
        eps = solution.epsilon
        source = "minimal_norm"
        solution_residual = solution.residual
    family = PerturbedFamily(config.map, eps)
    settings = config.verify
    # Ulam's oracle (degree 0) meets VERIFY_BUDGET with a wide margin; degree 2
    # costs about 3.2x as much at 2^16 bins (0.65 s against 0.20 s, 2-vCPU host).
    binned = fd_response(family, settings.delta, settings.bins, degree=0)
    discrepancy = compare_l1(binned, config.target)
    passed = bool(discrepancy < VERIFY_BUDGET)
    payload = {
        "command": "verify",
        "config_sha256": config.sha256,
        "N": config.order,
        "density_residual": residual,
        "epsilon_source": source,
        "solution_residual": solution_residual,
        "delta": settings.delta,
        "bins": settings.bins,
        "l1_discrepancy": discrepancy,
        "budget": VERIFY_BUDGET,
        "passed": passed,
    }
    _write_json(out / "verify.json", payload)
    midpoints = (np.arange(settings.bins) + 0.5) / settings.bins
    _write_csv(out / "fd_response.csv", ("bin_midpoint", "value"), midpoints, binned)
    verdict = "PASS" if passed else "FAIL"
    print(f"verify: {verdict} L1 discrepancy {discrepancy:.4g} "
          f"(budget {VERIFY_BUDGET}) -> {out / 'verify.json'}")
    return EXIT_OK if passed else EXIT_VERIFY


_COMMANDS = {
    "density": cmd_density,
    "respond": cmd_respond,
    "control": cmd_control,
    "verify": cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linresp",
        description="Linear response and density control for expanding circle maps")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("density", "invariant density of the configured map"),
            ("respond", "first-order density change for a given perturbation"),
            ("control", "two-step and minimal-norm perturbations for a target"),
            ("verify", "Ulam finite-difference check of a control solution")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON job config")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--modes", type=int, help="override the truncation order N")
        cmd.add_argument("--grid", type=int, help="override the CSV sampling grid")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.modes is not None:
            config.order = _integer("--modes", args.modes, 1)
        if args.grid is not None:
            config.grid = next_pow2(_integer("--grid", args.grid, 1))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config, out)
    except InfeasibleTargetError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SpectralGapError, PreimageError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
