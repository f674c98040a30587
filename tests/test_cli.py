import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import linresp._format as fmt
import linresp.cli as cli
import linresp.response
from linresp import FourierSeries, InfeasibleTargetError, SpectralGapError, cosine, sine
from linresp.cli import EXIT_INFEASIBLE, JobConfig, canonical_json, main

from conftest import seeded_maps, steep_map

DOUBLING = {"degree": 2, "periodic_part": {"N": 0, "coeffs": [[0.0, 0.0]]}}
WAVY = {"degree": 2,
        "periodic_part": {"N": 1, "coeffs": [[0.0, 0.05], [0.0, 0.0], [0.0, -0.05]]}}
# 2x + 0.155 sin(2 pi x): at N=8 its density fails the pointwise fixed-point check.
STEEP = {"degree": 2,
         "periodic_part": {"N": 1, "coeffs": [[0.0, 0.0775], [0.0, 0.0], [0.0, -0.0775]]}}


def write_config(tmp_path, name="job.json", **entries):
    cfg = {"map": DOUBLING, "N": 64}
    cfg.update(entries)
    path = tmp_path / name
    path.write_text(json.dumps(cfg, default=np.ndarray.tolist))  # to_dict holds arrays
    return path


class TestConfig:
    def test_round_trip(self, tmp_path):
        path = write_config(tmp_path, target="sin",
                            weights={"a": 0.5, "b": 0.0, "c": 0.0, "d": 1.0},
                            verify={"delta": 1e-3, "bins": 1024})
        cfg = cli.load_config(str(path))
        again = JobConfig.from_dict(cfg.to_dict())
        assert canonical_json(again.to_dict()) == canonical_json(cfg.to_dict())
        assert again.sha256 == cfg.sha256

    def test_unknown_preset(self, tmp_path):
        path = write_config(tmp_path, target="nope")
        with pytest.raises(cli.ConfigError, match="preset"):
            cli.load_config(str(path))

    def test_non_finite_rejected(self, tmp_path):
        bad = dict(DOUBLING)
        bad = {"degree": 2, "periodic_part": {"N": 0, "coeffs": [[1e400, 0.0]]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"map": bad}))
        with pytest.raises(cli.ConfigError):
            cli.load_config(str(path))

    @pytest.mark.parametrize("entries", [
        {"weights": "abc"},
        {"target": {"preset": "sin", "scale": [1]}},
        {"N": None},
        {"grid": None},
        {"weights": {"D": 1.0}},
        {"n": 256},
        {"targt": "sin"},
        {"N": 64.9},
        {"N": True},
        {"grid": 0},
        {"grid": -4},
        {"verify": {"delta": 1e-3, "bins": 1024, "degree": 2}},
        {"verify": {"delta": 1e-3, "bins": 1024.5}},
        {"verify": {"delta": 1e-3, "bins": True}},
        {"map": {"degree": 2.5, "periodic_part": {"N": 0, "coeffs": [[0.0, 0.0]]}}},
        {"map": {"degree": True, "periodic_part": {"N": 0, "coeffs": [[0.0, 0.0]]}}},
        {"target": {"preset": "sin", "scal": 2.0}},
        {"map": {"degree": 2, "periodic_part": {"N": 0, "coeffs": [[0.0, 0.0]]},
                 "perodic": {"N": 0, "coeffs": [[0.0, 0.0]]}}},
        {"target": {"N": True, "coeffs": [[0.0, 0.5], [0.0, 0.0], [0.0, -0.5]]}},
        {"target": {"preset": "sin", "coeffs": [[0.0, 0.0]], "N": 0}},
        {"map": {"degree": 2, "periodic_part": {"N": True,
                                                "coeffs": [[0.0, 0.05], [0.0, 0.0], [0.0, -0.05]]}}},
        {"weights": {"a": "0.5"}},
        {"weights": {"d": True}},
        {"verify": {"delta": "0.001", "bins": 1024}},
        {"verify": {"delta": None, "bins": 1024}},
        {"target": {"preset": "cos", "scale": "0.5"}},
        {"target": {"preset": "cos", "scale": False}},
        {"target": {"N": 0, "coeffs": [["0.5", 0.0]]}},
        {"target": {"N": 0, "coeffs": [[0.0, True]]}},
    ], ids=["weights-string", "scale-list", "N-null", "grid-null", "weights-unknown-key",
            "lowercase-n", "misspelled-target", "N-fraction", "N-bool", "grid-zero",
            "grid-negative", "verify-unknown-key", "bins-fraction", "bins-bool",
            "degree-fraction", "degree-bool", "preset-misspelled-scale", "map-unknown-key",
            "series-N-bool", "preset-with-coeffs", "periodic-part-N-bool",
            "weight-string", "weight-bool", "delta-string", "delta-null", "scale-string",
            "scale-bool", "coefficient-string", "coefficient-bool"])
    def test_malformed_entries_are_config_errors(self, tmp_path, capsys, entries):
        path = write_config(tmp_path, **entries)
        assert main(["density", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err

    def test_non_hermitian_map_refused(self, tmp_path, capsys):
        # mode +1 without its conjugate at mode -1: not a real periodic part
        crooked = {"degree": 2,
                   "periodic_part": {"N": 1, "coeffs": [[0.0, 0.0], [0.0, 0.0], [0.05, 0.0]]}}
        path = write_config(tmp_path, map=crooked)
        assert main(["density", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Hermitian" in err

    def test_csv_rows_match_format_17g(self, tmp_path):
        # more rows than one CSV_BLOCK, and values whose shortest form differs
        rng = np.random.default_rng(5)
        xs = np.arange(cli.CSV_BLOCK + 7) / 3.0
        values = rng.normal(size=xs.size) * 10.0 ** rng.integers(-300, 300, xs.size)
        values[:3] = [-0.0, 0.1, 1e-320]
        cli._write_csv(tmp_path / "t.csv", ("x", "value"), xs, values)
        expected = "x,value\n" + "".join(f"{format(float(x), '.17g')},{format(float(v), '.17g')}\n"
                                         for x, v in zip(xs, values))
        assert (tmp_path / "t.csv").read_text() == expected

    def test_canonical_floats(self):
        text = canonical_json({"x": 0.1, "flag": True, "n": 3})
        assert text == '{"x":0.10000000000000001,"flag":true,"n":3}'

    def test_coefficient_arrays_match_the_recursive_path(self):
        rng = np.random.default_rng(18)
        size = 2049
        parts = rng.normal(size=(2, size)) * 10.0 ** rng.integers(-300, 301, (2, size))
        parts[:, :6] = [[-0.0, 0.1, 5e-324, 3.0, -1e300, 1e-300],
                        [0.0, -0.1, -5e-324, 1024.0, 1e300, -7.0]]
        series = FourierSeries(parts[0] + 1j * parts[1])
        data = series.to_dict()
        pairs = [[float(c.real), float(c.imag)] for c in series.coeffs]
        assert data["coeffs"].dtype == float and data["coeffs"].tolist() == pairs
        recursive = "[" + ",".join(f"[{format(re, '.17g')},{format(im, '.17g')}]"
                                   for re, im in pairs) + "]"
        assert canonical_json(data) == '{"N":1024,"coeffs":' + recursive + "}"
        assert canonical_json(data["coeffs"]) == recursive
        assert canonical_json(pairs) == recursive

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_coefficient_arrays_refuse_non_finite(self, value):
        with pytest.raises(ValueError, match="non-finite value in output"):
            canonical_json({"coeffs": [[0.5, 0.0], [0.25, value]]})
        with pytest.raises(ValueError, match="non-finite value in output"):
            canonical_json({"coeffs": np.array([[0.5, 0.0], [0.25, value]])})

    @pytest.mark.parametrize("obj, text", [
        ([], "[]"),
        ([[True, 1.0]], "[[true,1]]"),
        ([[1, 2.5]], "[[1,2.5]]"),
        ([[np.float64(0.1), 1.0]], "[[0.10000000000000001,1]]"),
        ([[1.0, 2.0], [3.0]], "[[1,2],[3]]"),
        ([[1.0, 2.0, 3.0]], "[[1,2,3]]"),
        ([(1.0, 2.0)], "[[1,2]]"),
        ([{"a": 1.0}, [2.0, 3.0]], '[{"a":1},[2,3]]'),
    ])
    def test_other_lists_keep_their_bytes(self, obj, text):
        assert canonical_json(obj) == text


def format_17g_lines(values) -> str:
    """Python's own '%.17g', one value per line: the reference for the kernel."""
    return "".join("%.17g\n" % v for v in np.asarray(values, float).tolist())


def kernel_lines(values) -> str:
    """fmt.format_17g, one value per line, in calls of at most 2^16 values.

    Input shorter than fmt._FEW is padded with zeros, whose lines are cut
    off again, so that the kernel formats it rather than Python.
    """
    flat = np.asarray(values, float).ravel()
    pad = max(0, fmt._FEW - flat.size)
    flat = np.concatenate((flat, np.zeros(pad)))
    text = "".join(fmt.format_17g(part[:, None], (b"\n",)).decode()
                   for part in np.array_split(flat, -(-flat.size // 2**16)))
    return text[:len(text) - 2 * pad]


def ulp_neighbours(x: float, count: int) -> list[float]:
    """x and the count doubles on each side of it."""
    out, up, down = [x], x, x
    for _ in range(count):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [float(up), float(down)]
    return out


class TestFormat17g:
    """format_17g writes every float64 exactly as '%.17g' % x does."""

    def test_a_million_values(self):
        rng = np.random.default_rng(24)
        # Random bit patterns: about half in [1e-306, 1e17), the rest the fallback.
        bits = rng.integers(0, 2**64, 500_000, dtype=np.uint64).view(np.float64)
        # Random mantissas with binary exponents -25..60, where 10^(16-e) is
        # mostly exact, and the edge at 1e17.
        exponent = rng.integers(1023 - 25, 1023 + 61, 500_000).astype(np.uint64)
        mantissa = rng.integers(0, 2**52, 500_000, dtype=np.uint64)
        inside = ((exponent << np.uint64(52)) | mantissa).view(np.float64)
        inside *= rng.choice([-1.0, 1.0], inside.size)
        values = np.concatenate((bits[np.isfinite(bits)], inside))
        assert values.size >= 10**6 - 1000
        assert kernel_lines(values) == format_17g_lines(values)

    def test_powers_of_ten_and_their_neighbours(self):
        values = [v * sign for k in range(-30, 31) for v in ulp_neighbours(float(f"1e{k}"), 40)
                  for sign in (1.0, -1.0)]
        assert kernel_lines(values) == format_17g_lines(values)

    def test_scaled_values_next_to_the_mantissa_bounds(self):
        # a * 10^s within one ulp of 10^16 or 10^17, where the decimal exponent
        # is decided by the sign of the low part.
        values = []
        for s in range(23):
            for bound in (10**16, 10**17):
                ulp = 2.0 if bound == 10**16 else 16.0
                values += [a for a in ulp_neighbours(float(bound) / float(10**s), 4)
                           if abs(Fraction(a) * 10**s - bound) <= ulp]
        assert len(values) > 2 * 23
        assert kernel_lines(values) == format_17g_lines(values)

    def test_half_way_mantissas_round_to_even(self):
        # a = m / 2^(s+1) with m odd: a * 10^s is an exact half-integer.
        rng = np.random.default_rng(7)
        values = []
        for s in range(1, 23):
            low, high = 10.0 ** (16 - s), min(10.0 ** (17 - s), 2.0 ** (52 - s))
            odd = rng.integers(int(low * 2 ** (s + 1)), int(high * 2 ** (s + 1)), 100) | 1
            values += np.ldexp(odd.astype(float), -(s + 1)).tolist()
        assert all((Fraction(a) * 10**(16 - math.floor(math.log10(a)))).denominator == 2
                   for a in values)
        assert kernel_lines(values) == format_17g_lines(values)

    def test_near_half_way_values_below_the_exact_powers(self):
        # The doubles nearest to 17-digit decimal half-way points where
        # 10^(16-e) is not an exact double, and short binary mantissas there.
        rng = np.random.default_rng(8)
        values = [float(f"{rng.integers(10**16, 10**17)}5e{k - 17}")
                  for k in range(-305, -6, 2) for _ in range(20)]
        values += [math.ldexp(m, q) for q in range(-1015, -20, 5)
                   for m in (1, 3, 5, 25, 2**52 + 1, 2**53 - 1)]
        assert kernel_lines(values) == format_17g_lines(values)

    @pytest.mark.parametrize("bins", [2, 3, 7, 1000, 2**16, 10**5, 2**20])
    def test_bin_midpoints(self, bins):
        midpoints = (np.arange(bins) + 0.5) / bins
        assert kernel_lines(midpoints) == format_17g_lines(midpoints)

    def test_extremes_in_a_coefficient_array(self):
        extremes = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                    -1.7976931348623157e308, 1e-6, 1e17, 99999999999999984.0]
        pairs = [[v, -v] for v in extremes] + [[0.5, 0.25]] * fmt._FEW
        expected = "[" + ",".join(f"[{format(re, '.17g')},{format(im, '.17g')}]"
                                  for re, im in pairs) + "]"
        assert canonical_json(pairs) == expected

    def test_non_finite_values_in_a_csv(self, tmp_path):
        xs = np.arange(fmt._FEW) / 5.0
        values = np.ones(fmt._FEW)
        values[:4] = [np.nan, np.inf, -np.inf, -0.0]
        cli._write_csv(tmp_path / "t.csv", ("x", "value"), xs, values)
        assert (tmp_path / "t.csv").read_text() == "x,value\n" + "".join(
            "%.17g,%.17g\n" % (x, v) for x, v in zip(xs.tolist(), values.tolist()))
        assert (tmp_path / "t.csv").read_text().splitlines()[1:4] == [
            "0,nan", "0.20000000000000001,inf", "0.40000000000000002,-inf"]

    def test_only_values_outside_the_range_fall_back(self, monkeypatch):
        handed = []
        python_17g = fmt._python_17g

        def spy(values):
            handed.extend(values.tolist())
            return python_17g(values)

        monkeypatch.setattr(fmt, "_python_17g", spy)
        inside = np.concatenate(([1e-6, 9.9e-7, -3.25e-200, 2e-306, 1e16, 0.0],
                                 (np.arange(2**16 - 6) + 0.5) / 2**16))
        assert kernel_lines(inside) == format_17g_lines(inside)
        assert handed == []
        # 2^-25 * 10^24 = 5^24 / 2 is a tie, which the inexact 10^24 cannot settle.
        outside = [2**-25, 9e-307, 2.2250738585072014e-308, 5e-324, 1e17, -2e300,
                   np.inf, np.nan]
        values = outside + [0.25] * fmt._FEW
        assert kernel_lines(values) == format_17g_lines(values)
        assert handed[:6] == outside[:6] and len(handed) == len(outside)
        # A call of fewer values than _FEW is all Python's.
        handed.clear()
        few = np.full((fmt._FEW - 1, 1), 0.25)
        assert fmt.format_17g(few, (b"\n",)).decode() == format_17g_lines(few.ravel())
        assert handed == few.ravel().tolist()

    def test_writing_65536_rows_allocates_less_than_the_format_call_writer(self, tmp_path):
        # The writer that formatted each block with one '%' call peaked at
        # 2.10 MB of traced allocations for these rows.
        bins = 2**16
        midpoints = (np.arange(bins) + 0.5) / bins
        values = np.random.default_rng(3).normal(size=bins)
        cli._write_csv(tmp_path / "warm.csv", ("bin_midpoint", "value"), midpoints, values)
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / "t.csv", ("bin_midpoint", "value"), midpoints, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_100_000


class TestDensity:
    def test_doubling_uniform_csv(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["density", "--config", str(path), "--out", str(out)]) == 0
        payload = json.loads((out / "density.json").read_text())
        assert payload["residual"] < 1e-10
        assert payload["config_sha256"]
        rows = (out / "density.csv").read_text().strip().splitlines()[1:]
        values = np.array([float(r.split(",")[1]) for r in rows])
        np.testing.assert_allclose(values, 1.0, atol=1e-10)

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ nope")
        assert main(["density", "--config", str(path), "--out",
                     str(tmp_path / "o")]) == 1

    def test_wavy_residual_field(self, tmp_path):
        path = write_config(tmp_path, map=WAVY)
        out = tmp_path / "out"
        assert main(["density", "--config", str(path), "--out", str(out)]) == 0
        payload = json.loads((out / "density.json").read_text())
        assert payload["residual"] < 1e-10
        assert payload["pointwise_residual"] < 1e-9

    def test_grid_flag_controls_csv(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["density", "--config", str(path), "--out", str(out),
                     "--grid", "256"]) == 0
        rows = (out / "density.csv").read_text().strip().splitlines()
        assert len(rows) == 256 + 1

    @pytest.mark.parametrize("grid", ["0", "-4"])
    def test_nonpositive_grid_flag_is_config_error(self, tmp_path, capsys, grid):
        path = write_config(tmp_path)
        assert main(["density", "--config", str(path), "--out", str(tmp_path / "o"),
                     "--grid", grid]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_steep_degree_five_map_at_128_modes(self, tmp_path):
        # max T' = 8.33; a fixed 8N quadrature grid left a residual of 0.27 here
        steep = {"degree": 5, "periodic_part": (sine(1, 0.4) + cosine(7, 0.02)).to_dict()}
        path = write_config(tmp_path, map=steep, N=64)
        out = tmp_path / "out"
        assert main(["density", "--config", str(path), "--out", str(out),
                     "--modes", "128"]) == 0
        payload = json.loads((out / "density.json").read_text())
        assert payload["pointwise_residual"] <= 1e-9

    @pytest.mark.parametrize("name, order, code", [
        ("steep", 109, 0), ("seeded-degree5", 64, 0), ("seeded-degree6", 105, 0),
        ("steep", 64, 2)])
    def test_exit_code_follows_the_truncation_not_the_grid(self, tmp_path, name, order, code):
        # A Galerkin grid without a tail margin aliased on the first three
        # (exit 2); the steep map at N=64 is truncated and stays refused.
        circle_map = {"steep": steep_map(), "seeded-degree5": seeded_maps()[3],
                      "seeded-degree6": seeded_maps()[4]}[name]
        path = write_config(tmp_path, map=circle_map.to_dict(), N=order)
        out = tmp_path / "out"
        assert main(["density", "--config", str(path), "--out", str(out)]) == code
        assert (out / "density.json").exists() == (code == 0)


class TestRespond:
    def test_doubling_worked_example(self, tmp_path):
        path = write_config(tmp_path, epsilon="eps_doubling_sin")
        out = tmp_path / "out"
        assert main(["respond", "--config", str(path), "--out", str(out)]) == 0
        payload = json.loads((out / "response.json").read_text())
        response = FourierSeries.from_dict(payload["response"])
        gap = response.with_order(64).coeffs - sine(1).with_order(64).coeffs
        assert np.max(np.abs(gap)) < 1e-10
        assert not payload["negligible"]

    def test_zero_direction(self, tmp_path):
        path = write_config(
            tmp_path, epsilon={"N": 0, "coeffs": [[0.0, 0.0]]})
        out = tmp_path / "out"
        assert main(["respond", "--config", str(path), "--out", str(out)]) == 0
        payload = json.loads((out / "response.json").read_text())
        assert payload["response_sup_norm"] < 1e-12

    def test_kernel_direction_flagged(self, tmp_path):
        path = write_config(tmp_path, epsilon="sin")
        out = tmp_path / "out"
        assert main(["respond", "--config", str(path), "--out", str(out)]) == 0
        payload = json.loads((out / "response.json").read_text())
        assert payload["negligible"] is True

    def test_missing_epsilon(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["respond", "--config", str(path), "--out",
                     str(tmp_path / "o")]) == 1


class TestControl:
    def test_doubling_sin_target(self, tmp_path):
        path = write_config(tmp_path, target="sin")
        out = tmp_path / "out"
        assert main(["control", "--config", str(path), "--out", str(out)]) == 0
        payload = json.loads((out / "control.json").read_text())
        assert payload["minimal_norm"]["norm"] == pytest.approx(
            np.sqrt(8) / (8 * np.pi), abs=1e-12)
        eps = FourierSeries.from_dict(payload["minimal_norm"]["epsilon"])
        assert eps.coeff(2) == pytest.approx(1 / (4 * np.pi), abs=1e-10)
        assert payload["two_step"]["residual"] < 1e-8
        assert payload["roundtrip_sup_error"] < 1e-6
        # the order-N eps checked against the order-2N equations, with no second solve
        assert "truncation_norms" not in payload
        assert payload["truncation_defect"]["order"] == 128
        # rounding only, amplified by the derivative's 2 pi j (1.8e-12 here)
        assert payload["truncation_defect"]["residual"] < 1e-11

    def test_zero_target(self, tmp_path):
        path = write_config(tmp_path, target={"N": 1, "coeffs":
                                              [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]})
        out = tmp_path / "out"
        assert main(["control", "--config", str(path), "--out", str(out)]) == 0
        payload = json.loads((out / "control.json").read_text())
        assert payload["minimal_norm"]["norm"] == 0.0
        assert payload["two_step"]["norm"] < 1e-12

    def test_wavy_target_reports_residual(self, tmp_path):
        path = write_config(tmp_path, map=WAVY, target="sin")
        out = tmp_path / "out"
        assert main(["control", "--config", str(path), "--out", str(out)]) == 0
        payload = json.loads((out / "control.json").read_text())
        assert payload["roundtrip_sup_error"] < 1e-6

    def test_infeasible_exit_code(self, tmp_path):
        path = write_config(tmp_path, target="sin2", N=2)
        assert main(["control", "--config", str(path), "--out",
                     str(tmp_path / "o")]) == 3

    def test_one_minimal_norm_solve_per_order(self, tmp_path, monkeypatch):
        # one constraint assembly and one solve, at order N; the order-2N
        # check (truncation_defect) assembles nothing
        import linresp.control as control
        orders = []
        original = control._constraint_rows

        def counted(problem, order):
            orders.append(order)
            return original(problem, order)

        monkeypatch.setattr(control, "_constraint_rows", counted)
        path = write_config(tmp_path, map=WAVY, target="sin", N=16)
        assert main(["control", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert orders == [16]

    def test_one_dgelsd_per_block(self, tmp_path, monkeypatch):
        # the wavy map is odd: two blocks at order N and no solve at 2N; under
        # these weights the blocks' own cutoffs differ from the global one
        shapes = []
        original = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *a, **kw: shapes.append(a[0].shape) or original(*a, **kw))
        path = write_config(tmp_path, map=WAVY, target="mix", N=32,
                            weights={"a": 0.5, "d": 1.0})
        assert main(["control", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert len(shapes) == 2

    @pytest.mark.xfail(strict=True, raises=InfeasibleTargetError,
                       reason="Sobolev weights refuse targets that L2 weights realize")
    @pytest.mark.parametrize("target", ["mix", "sin2"])
    def test_sobolev_weights_realize_the_target(self, tmp_path, capsys, target):
        # The steep map at N=128 under weights a=0.5, d=1 exits 3 (infeasible);
        # the library test of the same refusal shows that the target is realizable.
        path = write_config(tmp_path, map=steep_map().to_dict(), N=128, target=target,
                            weights={"a": 0.5, "d": 1.0})
        code = main(["control", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        if code == EXIT_INFEASIBLE:
            raise InfeasibleTargetError(err)
        assert code == 0, err

    def test_modes_flag_overrides(self, tmp_path):
        path = write_config(tmp_path, target="sin2", N=64)
        assert main(["control", "--config", str(path), "--out",
                     str(tmp_path / "o"), "--modes", "2"]) == 3

    @pytest.mark.parametrize("command", ["control", "verify"])
    def test_target_beyond_truncation_is_infeasible(self, tmp_path, capsys, command):
        path = write_config(tmp_path, target="cos3", N=2,
                            verify={"delta": 1e-3, "bins": 1024})
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("infeasible:") and "exceeds truncation 2" in err
        assert "Traceback" not in err

    def test_nonzero_mean_beyond_truncation_is_a_config_error(self, tmp_path, capsys):
        # cos 80 pi x + 0.5 at N=16: a larger order cannot mend the mean
        coeffs = [[0.0, 0.0]] * 81
        coeffs[0] = coeffs[80] = [0.5, 0.0]
        coeffs[40] = [0.5, 0.0]
        path = write_config(tmp_path, map=WAVY, N=16, target={"N": 40, "coeffs": coeffs})
        assert main(["control", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "mean" in err
        assert "Traceback" not in err


class TestVerify:
    def test_doubling_pass(self, tmp_path):
        path = write_config(tmp_path, target="sin",
                            verify={"delta": 1e-3, "bins": 16384})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
        payload = json.loads((out / "verify.json").read_text())
        assert payload["passed"] is True
        assert payload["l1_discrepancy"] < 5e-2
        lines = (out / "fd_response.csv").read_text().strip().splitlines()
        assert lines[0] == "bin_midpoint,value"
        assert len(lines) == 16384 + 1

    def test_sign_flipped_epsilon_fails(self, tmp_path):
        # regression guard: the oracle must reject the wrong sign convention
        path = write_config(tmp_path, target="sin",
                            epsilon={"preset": "eps_doubling_sin", "scale": -1.0},
                            verify={"delta": 1e-3, "bins": 16384})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 4
        payload = json.loads((out / "verify.json").read_text())
        assert payload["passed"] is False

    def test_zero_epsilon_zero_target_passes(self, tmp_path):
        path = write_config(tmp_path,
                            target={"N": 1, "coeffs": [[0.0, 0.0], [0.0, 0.0],
                                                       [0.0, 0.0]]},
                            epsilon={"N": 0, "coeffs": [[0.0, 0.0]]},
                            verify={"delta": 1e-3, "bins": 1024})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 0

    def test_cli_uses_degree_zero_oracle(self, tmp_path):
        # verify writes Ulam's discrepancy (2.6e-2 at 1024 bins); on the wavy
        # map the collocation reference of the same central difference sits
        # at 2.3e-4, so the two oracles cannot be mistaken for each other.
        from linresp import (PerturbedFamily, ResponseProblem, compare_l1,
                             fd_response, minimal_norm_control)
        from linresp.verify import collocation_fd_response
        path = write_config(tmp_path, map=WAVY, target="sin",
                            weights={"a": 0.5, "b": 0.0, "c": 0.0, "d": 1.0},
                            verify={"delta": 1e-3, "bins": 1024})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
        payload = json.loads((out / "verify.json").read_text())
        config = cli.load_config(str(path))
        problem = ResponseProblem.for_map(config.map, config.order)
        eps = minimal_norm_control(problem, config.target, config.weights).epsilon
        family = PerturbedFamily(config.map, eps)
        assert payload["l1_discrepancy"] == compare_l1(fd_response(family, 1e-3, 1024),
                                                       config.target)
        nodes = np.arange(65) / 65
        reference = float(np.mean(np.abs(collocation_fd_response(family, 1e-3, 65)
                                         - config.target.evaluate(nodes))))
        assert reference < 0.05 * payload["l1_discrepancy"]

    @pytest.mark.parametrize("bins, refused", [(2, True), (4, True), (6, True), (7, False)])
    def test_bins_must_resolve_the_target(self, tmp_path, capsys, bins, refused):
        # mix = cos 2 pi x + 0.5 cos 6 pi x averages to zero in each of 2 bins,
        # and modes 1 and 3 alias at 4 and 6: refused before any Ulam build.
        # 7 bins resolve mode 3; the coarse Ulam answer then fails the budget.
        path = write_config(tmp_path, target="mix", verify={"delta": 1e-3, "bins": bins})
        out = tmp_path / "out"
        code = main(["verify", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == (cli.EXIT_CONFIG if refused else cli.EXIT_VERIFY)
        assert err.startswith("config error:") == refused
        assert ("at least 7" in err) == refused
        assert (out / "verify.json").exists() != refused

    def test_missing_verify_block(self, tmp_path):
        path = write_config(tmp_path, target="sin")
        assert main(["verify", "--config", str(path), "--out",
                     str(tmp_path / "o")]) == 1


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, target="sin")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["control", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["control", "--config", str(path), "--out", str(out2)]) == 0
        assert (out1 / "control.json").read_bytes() == \
            (out2 / "control.json").read_bytes()
        assert (out1 / "epsilon_minimal_norm.csv").read_bytes() == \
            (out2 / "epsilon_minimal_norm.csv").read_bytes()

    @pytest.mark.parametrize("command", ["density", "respond"])
    def test_under_resolved_truncation_is_solver_failure(self, tmp_path, capsys, command):
        path = write_config(tmp_path, map=STEEP, N=8, epsilon="sin")
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("solver failure:") and "fixed-point residual" in err
        assert "Traceback" not in err

    # LinAlgError subclasses ValueError, yet a failed LAPACK call is no config error.
    @pytest.mark.parametrize("error", [SpectralGapError, np.linalg.LinAlgError])
    def test_solver_failure_exit_code(self, tmp_path, monkeypatch, capsys, error):
        def boom(*args, **kwargs):
            raise error("Singular matrix")

        monkeypatch.setattr(linresp.response, "invariant_density", boom)
        path = write_config(tmp_path)
        assert main(["density", "--config", str(path), "--out",
                     str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("solver failure:")

    def test_out_naming_a_file_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["density", "--config", str(path), "--out", str(taken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output:")
        assert "Traceback" not in err
