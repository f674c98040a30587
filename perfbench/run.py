"""Benchmark of the linresp CLI on seeded workloads, timed from outside the package.

Run from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload control-n256 --seed 1 --seconds 30 --trace 0

With --trace 0 the run measures the end-to-end metrics: CLI subprocess wall
time and peak RSS, in-process ``linresp.cli.main`` time after a warm-up call,
and the start-up time of ``import linresp``.  A timing sample is one pass
over the workload's commands.  With --trace 1 it alternates untraced and
traced passes and reports per-layer metrics from spans recorded around
linresp's public functions (see spans.py).  Every command's outputs are
checked; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
CLI = "from linresp.cli import run; run()"
IMPORT_RUNS = 5  # per traced run; an untraced run makes 3 up front and 1 per pass
CHILD_TIMEOUT_S = 60.0
RESULT_FILES = {"control": "control.json", "verify": "verify.json", "respond": "response.json"}
# Exit codes with which the CLI refuses a job, and the stderr prefix it
# prints then.  Any other non-zero exit, or one of these with a traceback,
# is a crash.  Exit 4 is a verify run that wrote a failing verify.json.
REFUSALS = {1: "config error:", 2: "solver failure:", 3: "infeasible:"}
EXIT_VERIFY = 4


def _cap_blas_threads() -> int:
    """Pin BLAS threads to the CPUs this process may use, for it and its children."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def _blas_threads(numpy) -> int:
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return int(getter())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def machine_record(nproc: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(numpy), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path) -> tuple[int, float, float]:
    """Run a child to completion: (exit code, wall seconds, peak RSS in MB)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=_child_env())
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Job:
    """One workload command, with its config file and output directory on disk."""

    def __init__(self, spec, index: int, workdir: Path) -> None:
        self.spec = spec
        self.index = index
        self.dir = workdir / f"{index}-{spec.label}"
        self.out = self.dir / "out"
        self.config = self.dir / "config.json"
        self.dir.mkdir(parents=True)
        self.config.write_text(json.dumps(spec.config))
        self.argv = [spec.subcommand, "--config", str(self.config), "--out", str(self.out)]

    def fresh_out(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


def _sup_norm(series, size: int = 4096) -> float:
    """Sup norm on a uniform grid, computed here so that no traced layer runs."""
    import numpy as np
    spectrum = np.zeros(size, dtype=complex)
    spectrum[series.modes % size] = series.coeffs
    return float(np.max(np.abs(np.fft.ifft(spectrum) * size)))


class Checker:
    """Per-operation correctness, byte stability and failure counts."""

    def __init__(self) -> None:
        from linresp import doubling, fourier
        self.doubling, self.fourier = doubling, fourier
        self.attempted = 0
        self.failures: list[dict] = []
        self.incorrect = 0
        self.hashes: dict[int, dict] = {}
        self.last: dict[str, dict] = {}

    def check(self, cmd: Job, mode: str, code: int, stderr: str) -> bool:
        """Record one operation; True when it succeeded and its outputs hold.

        A refusal is a failed operation.  A crash, or outputs that are
        wrong or unstable (whatever the exit code), is also an incorrect one.
        """
        self.attempted += 1
        refused = (code in REFUSALS and "Traceback (most recent call last)" not in stderr
                   and any(line.startswith(REFUSALS[code]) for line in stderr.splitlines()))
        if refused:
            problems = [f"refused with exit code {code}"]
        elif code in (0, EXIT_VERIFY):
            problems = ([f"exit code {code}"] if code else []) + self._problems(cmd)
        else:
            problems = [f"crashed with exit code {code}: {stderr[-300:].strip()}"]
        if problems:
            self.failures.append({"command": cmd.spec.label, "mode": mode,
                                  "problems": problems})
            self.incorrect += not refused
        return not problems

    def _problems(self, cmd: Job) -> list[str]:
        result_path = cmd.out / RESULT_FILES[cmd.spec.subcommand]
        if not result_path.is_file():
            return [f"missing {result_path.name}"]
        digest = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(cmd.out.iterdir())}
        problems = []
        if self.hashes.setdefault(cmd.index, digest) != digest:
            problems.append("outputs differ from the first run of this config")
        try:
            result = json.loads(result_path.read_text())
            self.last[cmd.spec.subcommand] = result
            problems += getattr(self, f"_check_{cmd.spec.subcommand}")(cmd, result)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"malformed {result_path.name}: {exc!r}")
        return problems

    @staticmethod
    def _limit(problems: list, what: str, value, limit: float) -> None:
        if value is None or not abs(value) <= limit:
            problems.append(f"{what} {value} > {limit:g}")

    def _check_control(self, cmd: Job, result: dict) -> list[str]:
        problems: list[str] = []
        self._limit(problems, "density_residual", result["density_residual"], 1e-10)
        for key in ("two_step", "minimal_norm"):
            self._limit(problems, f"{key}.residual", result[key]["residual"], 1e-8)
        self._limit(problems, "roundtrip_sup_error", result["roundtrip_sup_error"], 1e-6)
        return problems

    def _check_verify(self, cmd: Job, result: dict) -> list[str]:
        return [] if result["passed"] is True else ["verify.json passed is not true"]

    def _check_respond(self, cmd: Job, result: dict) -> list[str]:
        problems: list[str] = []
        response = self.fourier.FourierSeries.from_dict(result["response"])
        self._limit(problems, "response mean", abs(response.coeff(0)), 1e-10)
        periodic = cmd.spec.config["map"]["periodic_part"]
        if cmd.spec.config["map"]["degree"] == 2 and not any(
                re or im for re, im in periodic["coeffs"]):
            eps = self.fourier.FourierSeries.from_dict(cmd.spec.config["epsilon"])
            gap = _sup_norm(response - self.doubling.exact_forward(eps))
            self._limit(problems, "doubling-map gap to exact_forward", gap, 1e-10)
        return problems


def run_inprocess(cmd: Job, cli) -> tuple[int, float, float, str]:
    """Call linresp.cli.main in this process: (exit code, start, end, stderr)."""
    cmd.fresh_out()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(cmd.argv)
        except SystemExit as exc:  # argparse rejecting the command line
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a benchmark error
            code = -1
            traceback.print_exc()
        end = time.perf_counter()
    if code != 0:
        print(f"[{cmd.spec.label}] in-process exit {code}: {err.getvalue()[-300:].strip()}",
              file=sys.stderr)
    return code, start, end, err.getvalue()


def run_subprocess(cmd: Job) -> tuple[int, float, float, str]:
    """Run the CLI in a child: (exit code, wall seconds, peak RSS in MB, stderr)."""
    cmd.fresh_out()
    code, wall, rss = spawn([sys.executable, "-c", CLI] + cmd.argv,
                            cmd.dir / "stdout.txt", cmd.dir / "stderr.txt")
    err = (cmd.dir / "stderr.txt").read_text()
    if code != 0:
        print(f"[{cmd.spec.label}] subprocess exit {code}: {err[-300:].strip()}",
              file=sys.stderr)
    return code, wall, rss, err


def import_runs(workdir: Path, importtime: bool, count: int) -> list:
    """Fresh interpreters running ``import linresp``: wall seconds or importtime text."""
    flags = ["-X", "importtime"] if importtime else []
    results = []
    for i in range(count):
        err = workdir / f"import-{i}.txt"
        code, wall, _ = spawn([sys.executable] + flags + ["-c", "import linresp"],
                              workdir / "import-out.txt", err)
        if code != 0:
            raise RuntimeError(f"import linresp failed: {err.read_text()[-500:]}")
        results.append(err.read_text() if importtime else wall)
    return results


def measure_passes(seconds: float, one_pass) -> None:
    """Start passes over the workload until ``seconds`` have elapsed (at least one)."""
    deadline = time.perf_counter() + seconds
    one_pass()
    while time.perf_counter() < deadline:
        one_pass()


def percentile_note(values: list[float]) -> str:
    """The highest of p99/p90 that has at least ten samples beyond it."""
    for p in (99, 90):
        if len(values) * (1 - p / 100) >= 10:
            return f", p{p} {statistics.quantiles(values, n=100)[p - 1]:.6g}"
    return ""


def warm_up(commands, checker, cli) -> None:
    """One in-process call per command: lazy imports and first-call set-up."""
    for cmd in commands:
        code, _, _, err = run_inprocess(cmd, cli)
        checker.check(cmd, "warm-up", code, err)


def end_to_end(commands, checker, cli, workdir, seconds) -> dict:
    """Per pass over the commands: summed wall and solve time, largest peak RSS.

    Every command's time is in its pass's sum, failed or not, so the sample
    set does not depend on which commands fail.  A pass in which no
    operation of a kind succeeded gives no sample of that kind.
    """
    setup = import_runs(workdir, importtime=False, count=3)
    warm_up(commands, checker, cli)
    samples: dict[str, list[float]] = {"wall_s": [], "solve_s": [], "peak_rss_mb": []}

    def one_pass():
        wall = solve = rss = 0.0
        sub_ok = in_ok = False
        for cmd in commands:
            code, seconds, mb, err = run_subprocess(cmd)
            sub_ok |= checker.check(cmd, "subprocess", code, err)
            wall, rss = wall + seconds, max(rss, mb)
            code, start, end, err = run_inprocess(cmd, cli)
            in_ok |= checker.check(cmd, "in-process", code, err)
            solve += end - start
        if sub_ok:
            samples["wall_s"].append(wall)
            samples["peak_rss_mb"].append(rss)
        if in_ok:
            samples["solve_s"].append(solve)
        # Spread set-up samples over the run, so one slow phase of a shared
        # machine does not decide them all.
        setup.extend(import_runs(workdir, importtime=False, count=1))

    measure_passes(seconds, one_pass)
    units = {"wall_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
    metrics = {name: (units[name], values) for name, values in samples.items()}
    metrics["setup_s"] = ("s", setup)
    return metrics


PER_LAYER_COUNTS = {
    "maps.CircleMap.invert_lift": ("points",),
    "transfer.galerkin_matrix": ("ops",),
    "control.constraint_matrix": ("ops",),
}


def per_layer(commands, checker, cli, workdir, seconds, spans_path: Path) -> dict:
    import spans

    imports = [spans.parse_importtime(text)
               for text in import_runs(workdir, importtime=True, count=IMPORT_RUNS)]
    warm_up(commands, checker, cli)
    recorder = spans.Recorder()
    untraced: list[float] = []
    traced: list[float] = []
    remainder: list[float] = []
    per_pass: list[dict] = []

    def one_pass():
        solve, ok = 0.0, False
        for cmd in commands:
            code, start, end, err = run_inprocess(cmd, cli)
            ok |= checker.check(cmd, "untraced", code, err)
            solve += end - start
        if ok:
            untraced.append(solve)
        first = len(recorder.spans)
        runs = []
        undo = spans.install(recorder)
        try:
            for cmd in commands:
                recorder.run += 1
                runs.append((cmd, recorder.run, *run_inprocess(cmd, cli)))
        finally:
            spans.uninstall(undo)
        # Checked only now, so that no traced layer times the checker.
        solve = gap = 0.0
        ok = False
        for cmd, run, code, start, end, err in runs:
            ok |= checker.check(cmd, "traced", code, err)
            solve += end - start
            gap += spans.untraced_remainder(
                [s for s in recorder.spans[first:] if s.run == run], start, end)
        if ok:
            traced.append(solve)
            remainder.append(gap)
        per_pass.append(spans.aggregate(recorder.spans[first:]))

    measure_passes(seconds, one_pass)
    with open(spans_path, "w") as fh:
        for s in recorder.spans:
            fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "run": s.run, **s.counts}) + "\n")

    def column(name: str, key: str) -> list[float]:
        """One value per traced pass; 0 for a function the pass never called."""
        return [agg.get(name, {}).get(key, 0) for agg in per_pass]

    def counted(name: str, key: str) -> list[float]:
        return [agg.get(name, {}).get("counts", {}).get(key, 0) for agg in per_pass]

    metrics: dict[str, tuple[str, list[float]]] = {}
    for name in spans.TRACED:
        metrics[f"{name}.calls"] = ("count", column(name, "calls"))
        metrics[f"{name}.s"] = ("s", column(name, "s"))
        metrics[f"{name}.self_s"] = ("s", column(name, "self_s"))
        for count in PER_LAYER_COUNTS.get(name, ()):
            metrics[f"{name}.{count}"] = ("count", counted(name, count))
    horner = "fourier.horner_values"
    point_modes = counted(horner, "point_modes")
    significant = counted(horner, "significant_point_modes")
    metrics[f"{horner}.point_modes"] = ("count", point_modes)
    metrics[f"{horner}.significant_mode_fraction"] = (
        "ratio", [s / p if p else 1.0 for s, p in zip(significant, point_modes)])
    minimal = "control.minimal_norm_control"
    metrics[f"{minimal}.calls_per_command"] = (
        "count", [c / len(commands) for c in column(minimal, "calls")])
    for key in ("total_s", "numpy_s", "scipy_s", "linresp_self_s"):
        metrics[f"import.{key}"] = ("s", [entry[key] for entry in imports])
    metrics["trace.solve_s"] = ("s", traced)
    metrics["trace.untraced_solve_s"] = ("s", untraced)
    metrics["trace.untraced_remainder_s"] = ("s", remainder)
    if traced and untraced:
        metrics["trace.overhead_pct"] = (
            "%", [100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)])
    l1 = checker.last.get("verify", {}).get("l1_discrepancy", 0.0)
    metrics["verify.l1_discrepancy"] = ("l1", [l1])
    return metrics


def run_workload(workload, args, cli, nproc: int) -> dict:
    """Measure one workload, print its report and return the result object."""
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        commands = [Job(spec, i, workdir)
                    for i, spec in enumerate(workload.build(args.seed))]
        checker = Checker()
        machine = machine_record(nproc)
        if args.trace:
            metrics = per_layer(commands, checker, cli, workdir, args.seconds,
                                OUT / f"spans-{workload.name}-seed{args.seed}.jsonl")
        else:
            metrics = end_to_end(commands, checker, cli, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_share = len(checker.failures) / max(checker.attempted, 1)
    if args.trace:
        metrics["ops.failed_share"] = ("ratio", [failed_share])
    print(f"workload {workload.name} (seed {args.seed}): {workload.why}")
    print("machine " + json.dumps(machine))
    print(f"  failed operations: {len(checker.failures)} of {checker.attempted} "
          f"({failed_share:.1%})")
    report = {}
    missing = [name for name, (_, values) in metrics.items() if not values]
    for name, (unit, values) in metrics.items():
        if not values:
            print(f"  {name}: no sample, no operation of its kind succeeded")
            continue
        value = statistics.median(values)
        report[name] = {"value": value, "unit": unit, "samples": len(values)}
        print(f"  {name}: median {value:.6g} {unit} (n={len(values)}{percentile_note(values)})")
    if args.trace:
        whole = report["cli.main.s"]["value"]
        top = sorted((v["value"], k[:-len(".self_s")]) for k, v in report.items()
                     if k.endswith(".self_s"))[::-1][:5]
        print("  largest self times, share of cli.main time: "
              + ", ".join(f"{k} {v / whole:.0%}" for v, k in top if whole))
    for failure in checker.failures:
        print("  failed: " + json.dumps(failure))
    # Timings of failed operations alone are not reported, and such a run
    # is not a correct one.
    result = {"correct": checker.incorrect == 0 and checker.attempted > 0 and not missing,
              "attempted": checker.attempted, "failed": len(checker.failures),
              "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                          for k, v in report.items()}}
    (OUT / f"{tag}.json").write_text(json.dumps(
        {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
         "machine": machine, "metrics": report, "failures": checker.failures,
         **{k: result[k] for k in ("correct", "attempted", "failed")}}, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all' to run every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "linresp" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'linresp'} not found; run from the root of a linresp "
              "checkout", file=sys.stderr)
        return 2
    nproc = _cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import linresp.cli as cli
    from workloads import WORKLOADS

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: linresp imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(WORKLOADS[args.workload], args, cli, nproc)))
        return 0
    # Every workload in turn; the last line combines them, metrics named
    # <workload>.<metric>.
    results = {name: run_workload(w, args, cli, nproc) for name, w in WORKLOADS.items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
