import json

import numpy as np
import pytest

import linresp.cli as cli
import linresp.response
from linresp import FourierSeries, cosine, sine
from linresp.cli import JobConfig, canonical_json, main

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
    path.write_text(json.dumps(cfg))
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
    ], ids=["weights-string", "scale-list", "N-null", "grid-null", "weights-unknown-key",
            "lowercase-n", "misspelled-target", "N-fraction", "N-bool", "grid-zero",
            "grid-negative", "verify-unknown-key", "bins-fraction", "bins-bool",
            "degree-fraction", "degree-bool", "preset-misspelled-scale", "map-unknown-key",
            "series-N-bool", "preset-with-coeffs", "periodic-part-N-bool"])
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
        assert "truncation_norms" in payload

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
        import linresp.control as control
        orders = []
        original = control.constraint_matrix

        def counted(problem, order):
            orders.append(order)
            return original(problem, order)

        monkeypatch.setattr(control, "constraint_matrix", counted)
        path = write_config(tmp_path, map=WAVY, target="sin", N=16)
        assert main(["control", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert orders == [16, 32]

    def test_modes_flag_overrides(self, tmp_path):
        path = write_config(tmp_path, target="sin2", N=64)
        assert main(["control", "--config", str(path), "--out",
                     str(tmp_path / "o"), "--modes", "2"]) == 3


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
        from linresp import (PerturbedFamily, ResponseProblem, compare_l1,
                             fd_response, minimal_norm_control)
        path = write_config(tmp_path, target="sin",
                            weights={"a": 0.5, "b": 0.0, "c": 0.0, "d": 1.0},
                            verify={"delta": 1e-3, "bins": 1024})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
        payload = json.loads((out / "verify.json").read_text())
        config = cli.load_config(str(path))
        problem = ResponseProblem.for_map(config.map, config.order)
        eps = minimal_norm_control(problem, config.target, config.weights).epsilon
        family = PerturbedFamily(config.map, eps)
        expected = {degree: compare_l1(fd_response(family, 1e-3, 1024, degree=degree),
                                       config.target)
                    for degree in (0, 2)}
        assert expected[0] != expected[2]
        assert payload["l1_discrepancy"] == expected[0]

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

    def test_solver_failure_exit_code(self, tmp_path, monkeypatch):
        from linresp import SpectralGapError

        def boom(*args, **kwargs):
            raise SpectralGapError("no gap")

        monkeypatch.setattr(linresp.response, "invariant_density", boom)
        path = write_config(tmp_path)
        assert main(["density", "--config", str(path), "--out",
                     str(tmp_path / "o")]) == 2
