import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quadkick
from quadkick import cli, planner
from quadkick.cli import main
from quadkick.config import FIELD_TO_KEY, KEY_TO_FIELD, load_config
from quadkick.errors import ParameterError
from quadkick.kicks import PhysicalParams
from quadkick.planner import SweepAxis, SweepCell, SweepSpec, sweep
from quadkick.state import GaussianState

NBAR_100UK = 12.598398495684691623


def run(args, capsys=None):
    code = main(args)
    if capsys is not None:
        return code, capsys.readouterr()
    return code


def parse_kv_csv(text):
    rows = [line.split(",") for line in text.strip().splitlines()]
    assert rows[0] == ["key", "value"]
    return {k: float(v) for k, v in rows[1:]}


def parse_table_csv(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def assert_same_text(got, want):
    """``got == want``, compared line by line, so that a failure names a few
    lines instead of diffing megabytes."""
    pairs = zip(got.split("\n"), want.split("\n"))
    wrong = [(i, g, w) for i, (g, w) in enumerate(pairs) if g != w]
    assert not wrong and len(got) == len(want), f"{len(wrong)} lines differ, e.g. {wrong[:3]}"


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def json_layout(value, float_text, indent=""):
    """The text of ``json.dumps(value, indent=2)``, with ``float_text(x)`` for
    every float x: ``repr`` gives json.dumps' own bytes, ``"%.16e".__mod__``
    the CLI's."""
    inner = indent + "  "
    if isinstance(value, float):
        return float_text(value)
    if isinstance(value, dict) and value:
        items = [f"{inner}{json.dumps(k)}: {json_layout(v, float_text, inner)}" for k, v in value.items()]
    elif isinstance(value, list) and value:
        items = [inner + json_layout(v, float_text, inner) for v in value]
    else:
        return json.dumps(value)
    brackets = "{}" if isinstance(value, dict) else "[]"
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n{indent}{brackets[1]}"


def assert_cli_json(text):
    """``text`` is the CLI's JSON: json.dumps' layout with every float as
    ``"%.16e"``, which json.dumps' own bytes confirm; returns the payload."""
    payload = json.loads(text, parse_constant=reject_constant)
    assert json_layout(payload, repr) == json.dumps(payload, indent=2)
    assert_same_text(text, json_layout(payload, "%.16e".__mod__) + "\n")
    return payload


def parse_summary(text):
    out = {}
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            out[key.strip()] = float(value)
    return out


class TestConstants:
    def test_defaults(self, capsys):
        code, captured = run(["constants"], capsys)
        assert code == 0
        values = parse_kv_csv(captured.out)
        assert values["g_from_physical"] == pytest.approx(1.0748377206979389e-4, rel=1e-12)
        assert values["g_tilde"] == 2.1e7
        assert values["t_star"] == pytest.approx(3.427758604236288e-7, rel=1e-12)
        assert values["n_bar"] == pytest.approx(NBAR_100UK, rel=1e-12)
        assert values["reduction_factor"] == pytest.approx(1 / 21.0, rel=1e-15)

    def test_default_cfg_is_the_builtin_defaults(self):
        # README: without --config, the built-in defaults are identical to default.cfg
        path = Path(__file__).parent.parent / "default.cfg"
        assert load_config(str(path)) == PhysicalParams()
        lines = (ln.split("#", 1)[0] for ln in path.read_text().splitlines())
        keys = [ln.partition("=")[0].strip() for ln in lines if ln.strip()]
        assert keys == list(KEY_TO_FIELD)

    def test_config_override(self, tmp_path, capsys):
        cfg = tmp_path / "cold.cfg"
        cfg.write_text("T = 1e-3  # one millikelvin\n")
        code, captured = run(["constants", "--config", str(cfg)], capsys)
        assert code == 0
        values = parse_kv_csv(captured.out)
        assert values["n_bar"] == pytest.approx(130.42097572596894, rel=1e-12)

    def test_json_format(self, capsys):
        code, captured = run(["constants", "--format", "json"], capsys)
        assert code == 0
        values = json.loads(captured.out)
        assert values["g_tilde"] == 2.1e7

    def test_invalid_reflectivity_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("R = 1\n")
        code, captured = run(["constants", "--config", str(cfg)], capsys)
        assert code == 2
        assert "R" in captured.err

    def test_unknown_key_exit_2_names_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("g = 1e-4\nboost = 3\n")
        code, captured = run(["constants", "--config", str(cfg)], capsys)
        assert code == 2
        assert "line 2" in captured.err and "boost" in captured.err

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_other_line_ends_parse(self, tmp_path, end):
        cfg = tmp_path / "dos.cfg"
        cfg.write_bytes(f"T = 1e-3{end}g = 2e-4{end}".encode())
        assert load_config(str(cfg)) == PhysicalParams(T=1e-3, g=2e-4)
        cfg.write_bytes(f"T = 1e-3{end}boost = 3{end}".encode())
        with pytest.raises(ParameterError, match="line 2: unknown key 'boost'"):
            load_config(str(cfg))

    def test_malformed_line_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        code, captured = run(["constants", "--config", str(cfg)], capsys)
        assert code == 2
        assert "line 1" in captured.err


    def test_overflowing_occupancy_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "slow.cfg"
        cfg.write_text("omega_m = 1e-300\n")
        code, captured = run(["constants", "--config", str(cfg)], capsys)
        assert code == 2
        assert captured.err.startswith("error: thermal occupancy overflows")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n_p = 1e308\ng = 10\n", "effective stiffness"),
            ("mass = 1e-320\nL = 1e-300\n", "coupling from physical parameters"),
        ],
        ids=["gain_overflow", "zero_denominator"],
    )
    def test_non_finite_derived_value_exit_2(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text(text)
        code, captured = run(["constants", "--config", str(cfg), "--format", "json"], capsys)
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert len(captured.err.splitlines()) == 1


class TestSimulate:
    def test_default_two_pulse_protocol(self, capsys):
        code, captured = run(["simulate"], capsys)
        assert code == 0
        rows = parse_table_csv(captured.out)
        assert [r["kind"] for r in rows] == ["initial", "kick", "free", "kick"]
        v0 = NBAR_100UK + 0.5
        assert float(rows[-1]["var_x"]) == pytest.approx(v0 / 441.0, rel=1e-12)
        assert rows[-1]["x_squeezed"] == "true"
        assert rows[0]["x_squeezed"] == "false"

    def test_empty_schedule_echoes_initial_state(self, capsys):
        code, captured = run(["simulate", "--schedule", ""], capsys)
        assert code == 0
        lines = captured.out.strip().splitlines()
        assert len(lines) == 2  # header plus the initial state
        row = parse_table_csv(captured.out)[0]
        assert row["kind"] == "initial"
        assert float(row["var_x"]) == pytest.approx(NBAR_100UK + 0.5, rel=1e-12)

    def test_json_row_structure(self, capsys):
        code, captured = run(["simulate", "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(captured.out)
        assert rows[-1]["index"] == 3
        assert isinstance(rows[-1]["x_squeezed"], bool)
        assert rows[-1]["var_x"] == pytest.approx((NBAR_100UK + 0.5) / 441.0, rel=1e-12)

    def test_dissipation_adds_bath_variance(self, tmp_path, capsys):
        cfg = tmp_path / "warm.cfg"
        cfg.write_text("T = 1\n")
        schedule = "kick;free;kick;free:3.141592653589793e-06"
        finals = {}
        for flag in ("off", "on"):
            code, captured = run(
                ["simulate", "--config", str(cfg), "--schedule", schedule, "--dissipation", flag],
                capsys,
            )
            assert code == 0
            finals[flag] = float(parse_table_csv(captured.out)[-1]["var_x"])
        # each thermal contact feeds in ~(1 - e^{-gamma tau})(n_env + 1/2);
        # the trailing half-period one dominates at ~4e-2 for a 1 K bath
        assert 0.036 <= finals["on"] - finals["off"] <= 0.047

    def test_bad_schedule_exit_2(self, capsys):
        code, captured = run(["simulate", "--schedule", "warp:1"], capsys)
        assert code == 2
        assert "segment" in captured.err

    def test_overflowing_schedule_exit_4(self, capsys):
        code, captured = run(["simulate", "--schedule", "kick:1e300;free;kick:1e300"], capsys)
        assert code == 4
        assert "segment" in captured.err

    def test_non_finite_rotation_angle_exit_4(self, capsys):
        code, captured = run(["simulate", "--schedule", "free:1e303"], capsys)
        assert code == 4
        assert captured.err.startswith("error: segment 0 (free)")
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_invariant_message_carries_plain_float(self, capsys):
        code, captured = run(["simulate", "--schedule", "kick:1e250;free;kick:1e250"], capsys)
        assert code == 4
        assert "np.float64" not in captured.err
        det = captured.err.split("det = ", 1)[1].split()[0]
        assert float(det) < 0.25

    @pytest.mark.parametrize("pairs, code", [(18, 0), (19, 4)])
    def test_lossless_default_fold_cancels_det(self, pairs, code, capsys):
        # Known defect: at the default parameters, with no dissipation, each kick
        # multiplies var_p by 21, and after 19 kick;free pairs the cos(pi/2) ~ 6e-17
        # map entries cancel var_p*var_x - cross^2 to 0 although the state is physical
        got, captured = run(["simulate", "--schedule", ";".join(["kick;free"] * pairs)], capsys)
        assert got == code
        assert captured.err == ("" if code == 0 else (
            "error: segment 37 (free) produced an invalid state: "
            "covariance violates the Heisenberg bound: det = 0.0 < 1/4\n"
        ))


    def test_overflowing_occupancy_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "slow.cfg"
        cfg.write_text("omega_m = 1e-300\n")
        code, captured = run(["simulate", "--config", str(cfg)], capsys)
        assert code == 2
        assert captured.err.startswith("error: thermal occupancy overflows")
        assert captured.out == ""

    def test_vacuum_row_is_not_squeezed(self, tmp_path, capsys):
        # at T = 0 the initial var_x is the vacuum's 1/2, and squeezing is strictly below it
        cfg = tmp_path / "cold.cfg"
        cfg.write_text("T = 0\n")
        code, captured = run(["simulate", "--config", str(cfg)], capsys)
        assert code == 0
        row = parse_table_csv(captured.out)[0]
        assert (row["var_x"], row["x_squeezed"]) == ("5.0000000000000000e-01", "false")

    def test_default_durations_where_twice_omega_overflows(self, tmp_path, capsys):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("omega_m = 1e308\nT = 0\n")
        code, captured = run(["simulate", "--config", str(cfg), "--schedule", "free;diss"], capsys)
        assert code == 0
        rows = parse_table_csv(captured.out)
        assert [r["duration"] for r in rows[1:]] == ["1.5707963267948964e-308"] * 2


class TestReadout:
    def test_thermal_state_summary(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run(["readout", "--var-p", "13.5", "--var-x", "13.5", "--out", str(out)])
        assert code == 0
        summary = parse_summary(out.read_text())
        assert summary["dc_shift"] == pytest.approx(13.5, rel=1e-2)
        assert summary["kappa_over_2omega"] == 5.0
        rows = parse_table_csv(out.read_text())
        assert float(rows[-1]["inferred_x2"]) == pytest.approx(13.5, rel=1e-2)

    @pytest.mark.parametrize("kappa", [3e6, 3.3e7, 1e8])
    @pytest.mark.parametrize("omega_m", [7.3e5, 2.2e6])
    def test_kappa_over_2omega_is_the_probes(self, tmp_path, capsys, kappa, omega_m):
        # the summary's figure is kappa/(2·omega_m) of the probe, as text, in both formats
        cfg = tmp_path / "probe.cfg"
        cfg.write_text(f"kappa = {kappa!r}\nomega_m = {omega_m!r}\n")
        want = "%.16e" % (kappa / (2.0 * omega_m))
        argv = ["readout", "--config", str(cfg), "--var-p", "13.5", "--var-x", "13.5"]
        code, captured = run(argv, capsys)
        assert code == 0 and f"# kappa_over_2omega = {want}\n" in captured.out
        code, captured = run(argv + ["--format", "json"], capsys)
        assert code == 0 and f'\n    "kappa_over_2omega": {want},\n' in captured.out

    def test_vacuum_summary(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run(["readout", "--var-p", "0.5", "--var-x", "0.5", "--out", str(out)])
        assert code == 0
        assert parse_summary(out.read_text())["dc_shift"] == pytest.approx(0.5, rel=1e-2)

    def test_squeezing_visible_as_shift_ratio(self, tmp_path):
        shifts = {}
        for name, var_p, var_x in (
            ("before", 138.5, 138.5),
            ("after", 138.5 * 441.0, 138.5 / 441.0),
        ):
            out = tmp_path / f"{name}.csv"
            code = run(
                ["readout", "--var-p", repr(var_p), "--var-x", repr(var_x), "--out", str(out)]
            )
            assert code == 0
            shifts[name] = parse_summary(out.read_text())["dc_shift"]
        assert shifts["after"] / shifts["before"] == pytest.approx(1 / 441.0, rel=1e-2)

    def test_state_from_simulation_row(self, tmp_path):
        sim = tmp_path / "sim.csv"
        assert run(["simulate", "--out", str(sim)]) == 0
        out = tmp_path / "trace.csv"
        code = run(["readout", "--from-simulation", f"{sim}:1", "--out", str(out)])
        assert code == 0
        v_after_one_kick = (NBAR_100UK + 0.5) / 21.0
        assert parse_summary(out.read_text())["dc_shift"] == pytest.approx(
            v_after_one_kick, rel=1e-2
        )

    @pytest.mark.parametrize("source", ["kappa_1e8", "from_simulation"])
    def test_json_trace_is_json_dumps(self, tmp_path, source):
        # the layout of json.dumps(…, indent=2), with "%.16e" for every float
        if source == "kappa_1e8":
            cfg = tmp_path / "fast_cavity.cfg"
            cfg.write_text("kappa = 1e8\n")
            argv = ["--config", str(cfg), "--var-p", "3", "--var-x", "0.2", "--cross", "0.1"]
        else:
            sim = tmp_path / "sim.csv"
            assert run(["simulate", "--schedule", "kick;free;kick;diss", "--out", str(sim)]) == 0
            argv = ["--from-simulation", f"{sim}:2"]
        out = tmp_path / "trace.json"
        code = run(["readout", *argv, "--free-evolution", "on", "--format", "json", "--out", str(out)])
        assert code == 0
        payload = assert_cli_json(out.read_text())
        assert len(payload["trace"]) > 10**4

    def test_free_evolution_mode_reports_ripple(self, tmp_path):
        sim = tmp_path / "sim.csv"
        assert run(["simulate", "--out", str(sim)]) == 0
        static = tmp_path / "static.csv"
        evolving = tmp_path / "evolving.csv"
        assert run(["readout", "--from-simulation", str(sim), "--out", str(static)]) == 0
        assert (
            run(
                [
                    "readout",
                    "--from-simulation",
                    str(sim),
                    "--free-evolution",
                    "on",
                    "--out",
                    str(evolving),
                ]
            )
            == 0
        )
        assert parse_summary(evolving.read_text())["ripple_amplitude"] > 100 * parse_summary(
            static.read_text()
        )["ripple_amplitude"]

    def test_missing_state_exit_2(self, capsys):
        code, captured = run(["readout"], capsys)
        assert code == 2
        assert "var-p" in captured.err or "var_p" in captured.err or "variances" in captured.err


    def test_step_count_bound_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "slow_cavity.cfg"
        cfg.write_text("kappa = 1e-30\n")
        code, captured = run(
            ["readout", "--config", str(cfg), "--var-p", "1", "--var-x", "1"], capsys
        )
        assert (code, captured.out) == (2, "")
        # 40/kappa = 4e31 s in steps of 1/(20·2·omega_m) = 2.5e-8 s
        assert captured.err == (
            "error: time grid needs 1599999999999999963980957175296544473088 RK4 steps, "
            "more than the limit of 10000000\n"
        )

    @pytest.mark.parametrize(
        "g, message",
        [("0", "trace analysis needs a positive coupling"), ("1e300", "h*g*max(x^2) = ")],
        ids=["uncoupled", "step_too_coarse"],
    )
    def test_unusable_coupling_exit_2(self, tmp_path, capsys, g, message):
        cfg = tmp_path / "coupling.cfg"
        cfg.write_text(f"g = {g}\n")
        code, captured = run(
            ["readout", "--config", str(cfg), "--var-p", "1", "--var-x", "1"], capsys
        )
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_overflowing_baseline_exit_2(self, tmp_path, capsys):
        # omega_m ≈ kappa/2 keeps the grid near 2,800 steps, but (drive/kappa)² overflows
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("kappa = 1e-160\nomega_m = 5e-161\ng = 1e-161\n")
        out = tmp_path / "trace.csv"
        argv = ["readout", "--config", str(cfg), "--var-p", "1", "--var-x", "1", "--out", str(out)]
        code, captured = run(argv, capsys)
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            "error: kappa = 1e-160 too small: baseline intensity (drive/kappa)^2 = inf is not finite\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        # (drive/kappa)² is 0.0 at kappa = 1e200 and subnormal at 1e160
        ("kappa = 1e200\nomega_m = 5e199\ng = 1e192\n",
         "kappa = 1e+200 too large: baseline intensity (drive/kappa)^2 = 0.0 "
         "is below the smallest normal double"),
        ("kappa = 1e160\nomega_m = 5e159\ng = 1e152\n",
         "kappa = 1e+160 too large: baseline intensity (drive/kappa)^2 = 1e-310 "
         "is below the smallest normal double"),
        # 20·kappa overflows, so the step 1/(20·kappa) would be 0.0
        ("kappa = 1e307\n",
         "step 1/(20*max(kappa, 2*omega_m)) underflows to 0 at kappa = 1e+307, omega_m = 1000000.0"),
        # 16·pi/omega_m overflows, so the probe window would be inf
        ("omega_m = 1e-320\n",
         "probe window 40/kappa + 16*pi/omega_m overflows at kappa = 10000000.0, omega_m = 1e-320"),
    ], ids=["baseline_zero", "baseline_subnormal", "step_zero", "window_overflow"])
    def test_huge_kappa_exit_2(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(config)
        out = tmp_path / "trace.csv"
        argv = ["readout", "--config", str(cfg), "--var-p", "1", "--var-x", "1", "--out", str(out)]
        code, captured = run(argv, capsys)
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")
        assert not out.exists()

    def test_uncoupled_rejected_before_integrating(self, tmp_path, capsys, monkeypatch):
        def no_integration(*args):
            raise AssertionError("integrate_langevin called")

        monkeypatch.setattr(cli, "integrate_langevin", no_integration)
        cfg = tmp_path / "uncoupled.cfg"
        cfg.write_text("g = 0\nkappa = 1e8\n")
        code, captured = run(
            ["readout", "--config", str(cfg), "--var-p", "1", "--var-x", "1"], capsys
        )
        assert code == 2
        assert captured.err == "error: trace analysis needs a positive coupling\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("g", ["1e-320", "1e-300", "1e-10"])
    def test_tiny_coupling_exit_2_or_finite_output(self, tmp_path, capsys, g, fmt):
        # kappa/(2g) overflows at g = 1e-320; at 1e-300 the calibration is finite
        # but the shift 2g·x²/kappa = 2e-304 lies below the residual transient;
        # at 1e-10 the shift, 2e-14, clears 1e3 times it
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(f"g = {g}\n")
        argv = ["readout", "--config", str(cfg), "--var-p", "1000", "--var-x", "1000", "--format", fmt]
        code, captured = run(argv, capsys)
        if g == "1e-320":
            assert (code, captured.out) == (2, "")
            assert captured.err == (
                "error: coupling g = 1e-320 too small: calibration kappa/(2g) = inf\n"
            )
            return
        if g == "1e-300":
            assert (code, captured.out) == (2, "")
            assert captured.err.startswith("error: coupling g = 1e-300 too small: relative shift")
            assert len(captured.err.splitlines()) == 1
            return
        assert code == 0
        if fmt == "json":
            payload = json.loads(captured.out, parse_constant=reject_constant)
            values = list(payload["summary"].values())
            values += [v for row in payload["trace"] for v in row.values()]
        else:
            lines = captured.out.splitlines()
            values = [float(line.partition(" = ")[2]) for line in lines[:4]]
            values += [float(v) for line in lines[5:] for v in line.split(",")]
        assert np.all(np.isfinite(values))

    def test_shift_near_the_transient_exit_2(self, tmp_path, capsys):
        # the snapshot shift 2g·x²/kappa = 4.2e-18 sits at the transient e^-40 left
        # in the window: with the floor at e^-40 itself this read dc_shift 0.3365
        # for var_x = 0.2 and exited 0; the floor is 1e3·e^-40 = 4.25e-15
        cfg = tmp_path / "near.cfg"
        cfg.write_text("kappa = 4.25e14\nomega_m = 7.7775e15\ng = 0.004505\n")
        code, captured = run(
            ["readout", "--config", str(cfg), "--var-p", "3", "--var-x", "0.2"], capsys
        )
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: coupling g = 0.004505 too small: relative shift")
        assert captured.err.endswith("is not above the residual transient exp(-40) by a factor of 1e3\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_bytes_are_the_out_file(self, fmt, tmp_path, capsys):
        # both sinks write the same chunks: the summary, the header, one per block
        argv = ["readout", "--var-p", "3", "--var-x", "0.2", "--free-evolution", "on", "--format", fmt]
        code, captured = run(argv, capsys)
        assert (code, captured.err) == (0, "")
        out = tmp_path / f"trace.{fmt}"
        assert run(argv + ["--out", str(out)]) == 0
        assert captured.out.encode() == out.read_bytes()

    def test_rejected_readout_writes_no_file(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code, captured = run(["readout", "--var-p", "1e300", "--var-x", "1e300", "--out", str(out)], capsys)
        assert code == 2
        assert captured.err.startswith("error: invalid state: ")
        assert not out.exists()

    def test_rejected_after_integration_writes_no_file(self, tmp_path, capsys):
        # analyze_trace rejects the trace that integrate_langevin made: the
        # file is opened only after every check, so there is none
        cfg = tmp_path / "near.cfg"
        cfg.write_text("kappa = 4.25e14\nomega_m = 7.7775e15\ng = 0.004505\n")
        out = tmp_path / "trace.csv"
        argv = ["readout", "--config", str(cfg), "--var-p", "3", "--var-x", "0.2", "--out", str(out)]
        code, captured = run(argv, capsys)
        assert code == 2 and captured.err.startswith("error: coupling g = 0.004505 too small")
        assert not out.exists()

    @staticmethod
    def long_trace_argv(tmp_path, fmt):
        """A κ = 1e8 readout: 101,332 rows, 25 blocks."""
        cfg = tmp_path / "long.cfg"
        cfg.write_text("kappa = 1e8\n")
        return ["readout", "--config", str(cfg), "--var-p", "3", "--var-x", "0.2", "--cross", "0.1",
                "--free-evolution", "on", "--format", fmt]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_trace_memory_is_below_its_file(self, fmt, tmp_path):
        # the rows are formatted one block at a time as they are written, so
        # the text of the whole trace is never held
        import quadkick._rows  # noqa: F401  its tables are built at import, once per process

        out = tmp_path / f"trace.{fmt}"
        tracemalloc.start()
        try:
            code = run(self.long_trace_argv(tmp_path, fmt) + ["--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < out.stat().st_size, (peak, out.stat().st_size)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_full_device_exit_3(self, fmt, tmp_path):
        # a write that fails midway through the trace: one error line, no traceback
        result = fresh_python("-m", "quadkick", *self.long_trace_argv(tmp_path, fmt), "--out", "/dev/full")
        assert result.returncode == 3
        assert result.stderr.startswith(b"error: cannot write output: ")
        assert result.stderr.count(b"\n") == 1

    def test_non_finite_determinant_exit_2(self, capsys):
        code, captured = run(
            ["readout", "--var-p", "1e300", "--var-x", "1e300", "--cross", "1e300"], capsys
        )
        assert code == 2
        assert "determinant must be finite" in captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""


# coordinates at 0, subnormal, ≥ 1e17 and huge, which the CLI formats with _fmt
# once per axis value; the block writer sees only the values
SPECIAL_VALUES = (0.0, 5e-324, 1e-310, 1e17, 1e18, 1e30, 1e300)
grid_values = st.builds(
    lambda m, e, sign: sign * m * 10.0**e,
    st.floats(1.0, 10.0), st.integers(-12, 31), st.sampled_from((1.0, 1.0, 1.0, -1.0)),
) | st.sampled_from(SPECIAL_VALUES + tuple(-v for v in SPECIAL_VALUES))


@st.composite
def closed_form_grids(draw):
    """1- and 2-axis grids of the closed-form observables over any axis, with
    negated (invalid) values, and delta_tau offsets that make the wait negative."""
    fields = [*KEY_TO_FIELD.values(), "delta_tau"]
    names = draw(st.lists(st.sampled_from(fields), min_size=1, max_size=2, unique=True))
    axes = tuple(SweepAxis(name, draw(st.lists(grid_values, min_size=1, max_size=5)))
                 for name in names)
    return SweepSpec(axes, PhysicalParams(), draw(st.sampled_from(("var_x", "var_p",
                                                                    "decoherence_term"))))


def sweep_oracle(spec):
    """The CSV and JSON bytes of ``spec`` from its ``sweep`` cells, one row at a time."""
    keys = [FIELD_TO_KEY.get(a.name, a.name) for a in spec.axes]
    csv, rows = [",".join(keys + [spec.observable, "status"])], []
    for cell in sweep(spec):
        coords = ",".join(cli._fmt(v) for _, v in cell.coords)
        if cell.error is None:
            csv.append("%s,%.16e,ok" % (coords, cell.value))
        else:
            csv.append(coords + ",ERROR," + cell.error.replace(",", ";"))
        rows.append(cli._JSON_SWEEP_CELL % (
            ",\n".join(f"      {json.dumps(k)}: %.16e" % v for k, (_, v) in zip(keys, cell.coords)),
            "null" if cell.value is None else "%.16e" % cell.value,
            "null" if cell.error is None else json.dumps(cell.error),
        ))
    return "\n".join(csv) + "\n", "[\n" + ",\n".join(rows) + "\n]\n"


@st.composite
def pulses_grids(draw):
    """1- and 2-axis ``pulses_needed`` grids of at most 3 × 3 cells over any
    axis, with negated (invalid) values, with and without dissipation."""
    fields = [*KEY_TO_FIELD.values(), "delta_tau"]
    names = draw(st.lists(st.sampled_from(fields), min_size=1, max_size=2, unique=True))
    axes = tuple(SweepAxis(name, draw(st.lists(grid_values, min_size=1, max_size=3)))
                 for name in names)
    return SweepSpec(axes, PhysicalParams(), "pulses_needed", draw(st.booleans()))


class TestSweepWriters:
    """Sweeps, written from columns, against ``sweep``'s cells row by row."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(spec=closed_form_grids())
    # values 3.3e-16 and 4.9e-32 outside [1e-11, 1e17), coordinates 0, 1e18 and 1e30
    @example(spec=SweepSpec(
        (SweepAxis("g", (1e-4, -1.0)), SweepAxis("n_p", (0.0, 1e18, 1e30))), PhysicalParams()
    ))
    # a negative wait: "duration must be non-negative, got …" has a comma
    @example(spec=SweepSpec(
        (SweepAxis("omega_m", (1e6, 5e-324)), SweepAxis("delta_tau", (-2e-6, 0.0, 1e-8))),
        PhysicalParams(), "var_p",
    ))
    def test_cli_bytes_are_the_per_cell_oracle(self, spec):
        argv = ["sweep", "--observable", spec.observable]
        for axis in spec.axes:
            argv.append(f"--axis={FIELD_TO_KEY.get(axis.name, axis.name)}="
                        + ",".join(map(repr, axis.values)))
        built = []
        make, new = SweepCell._make.__func__, SweepCell.__new__
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SweepCell, "_make", classmethod(lambda c, it: built.append(c) or make(c, it)))
            mp.setattr(SweepCell, "__new__", lambda c, *a: built.append(c) or new(c, *a))
            got = []
            for fmt in ("csv", "json"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(argv + ["--format", fmt]) == 0
                got.append(out.getvalue())
        # the CLI writes from the columns: it reads no cell
        assert built == []
        want = sweep_oracle(spec)
        assert got[0] == want[0]
        assert got[1] == want[1]

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(spec=pulses_grids())
    def test_pulses_cli_bytes_are_the_per_cell_oracle(self, spec):
        argv = ["sweep", "--observable", "pulses_needed",
                "--dissipation", "on" if spec.include_dissipation else "off"]
        for axis in spec.axes:
            argv.append(f"--axis={FIELD_TO_KEY.get(axis.name, axis.name)}="
                        + ",".join(map(repr, axis.values)))
        built = []
        make, new = SweepCell._make.__func__, SweepCell.__new__
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SweepCell, "_make", classmethod(lambda c, it: built.append(c) or make(c, it)))
            mp.setattr(SweepCell, "__new__", lambda c, *a: built.append(c) or new(c, *a))
            got = []
            for fmt in ("csv", "json"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(argv + ["--format", fmt]) == 0
                got.append(out.getvalue())
        # the CLI writes from the columns: it reads no cell
        assert built == []
        assert tuple(got) == sweep_oracle(spec)


class TestJsonReadsAsCsv:
    """json.loads of each command's JSON gives the doubles of its CSV, bit for bit."""

    CASES = {
        "constants": ["constants"],
        # signed zero durations, which the JSON writes as -0.0000000000000000e+00
        "simulate_signed_zero": ["simulate", "--schedule", "free:-0;kick:0;diss:0;kick;free;diss"],
        "readout_1e7": ["readout", "--var-p", "3", "--var-x", "0.2", "--cross", "0.1",
                        "--free-evolution", "on"],
        "readout_1e8": ["readout", "--var-p", "3", "--var-x", "0.2", "--cross", "0.1",
                        "--free-evolution", "on", "--config", "KAPPA_1E8"],
        "sweep_var_x_errors": ["sweep", "--axis", "g=0,1e-4,1e300,-1",
                               "--axis", "omega_m=1e6,-1,1e-310,2.5e5"],
        "sweep_pulses_errors": ["sweep", "--axis", "n_p=1e6,3e7", "--axis", "g=0,1e-4,-1",
                                "--observable", "pulses_needed", "--dissipation", "on"],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_json_gives_the_csv_doubles(self, case, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("kappa = 1e8\n")
        argv = [str(cfg) if a == "KAPPA_1E8" else a for a in self.CASES[case]]
        texts = []
        for fmt in ("csv", "json"):
            code, captured = run(argv + ["--format", fmt], capsys)
            assert (code, captured.err) == (0, "")
            texts.append(captured.out)
        csv, payload = texts[0], assert_cli_json(texts[1])
        rows = [line.split(",") for line in csv.splitlines() if not line.startswith("#")]
        header, rows = rows[0], rows[1:]
        # (CSV text, JSON double) of every float, and the other cells as texts
        floats, others = [], []
        if argv[0] == "constants":
            assert [k for k, _ in rows] == list(payload)
            floats = [(v, payload[k]) for k, v in rows]
        elif argv[0] == "readout":
            summary = [line[2:].split(" = ") for line in csv.splitlines() if line.startswith("#")]
            assert [k for k, _ in summary] == list(payload["summary"])
            assert [header] == [list(r) for r in payload["trace"][:1]]
            floats = [(v, payload["summary"][k]) for k, v in summary]
            floats += [(c, v) for row, r in zip(rows, payload["trace"]) for c, v in zip(row, r.values())]
            assert len(rows) == len(payload["trace"]) > 10**4
        elif argv[0] == "simulate":
            assert [header] == [list(r) for r in payload[:1]]
            for row, r in zip(rows, payload):
                floats += zip(row[2:7], list(r.values())[2:7])
                others.append((row[:2] + row[7:], [str(r["index"]), r["kind"], json.dumps(r["x_squeezed"])]))
        else:
            assert header[:-2] == list(payload[0]["coords"])
            for row, r in zip(rows, payload):
                coords = list(r["coords"].values())
                floats += zip(row[: len(coords)], coords)
                if r["error"] is None:
                    floats.append((row[-2], r["value"]))
                    others.append((row[-1], "ok"))
                else:
                    others.append((row[-2:], ["ERROR", r["error"].replace(",", ";")]))
            assert any(r["error"] for r in payload) and any(r["error"] is None for r in payload)
        assert argv[0] in ("constants", "readout") or len(rows) == len(payload)
        assert [float(c).hex() for c, _ in floats] == [v.hex() for _, v in floats]
        assert all(csv_cells == json_cells for csv_cells, json_cells in others)


class TestSweep:
    def test_decoherence_temperature_sweep(self, capsys):
        code, captured = run(
            [
                "sweep",
                "--axis",
                "T=1,1e-3,1e-4",
                "--observable",
                "decoherence_term",
            ],
            capsys,
        )
        assert code == 0
        rows = parse_table_csv(captured.out)
        values = [float(r["decoherence_term"]) for r in rows]
        for got, mag in zip(values, (4e-2, 4e-5, 4e-6)):
            assert mag / 1.1 <= got <= mag * 1.1
        assert all(r["status"] == "ok" for r in rows)

    @pytest.mark.parametrize("observable", ["var_x", "pulses_needed"])
    def test_grid_limit_exits_2(self, observable, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(planner, "MAX_CELLS", 6)
        base = ["sweep", "--observable", observable]
        code, captured = run([*base, "--axis", "T=1e-4,1e-3", "--axis", "n_p=1e10,2e10,3e10"], capsys)
        assert (code, captured.err) == (0, "")
        out = tmp_path / "out.csv"
        seven = "T=" + ",".join(f"{k}e-4" for k in range(1, 8))
        code, captured = run([*base, "--axis", seven, "--axis", "n_p=1e10", "--out", str(out)], capsys)
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: sweep grid has 7 cells, more than the limit of 6\n"
        assert not out.exists()

    def test_jitter_sweep_middle_row_minimal(self, capsys):
        code, captured = run(["sweep", "--axis", "delta_tau=-1e-8,0,1e-8"], capsys)
        assert code == 0
        values = [float(r["var_x"]) for r in parse_table_csv(captured.out)]
        assert values[1] < values[0] and values[1] < values[2]

    def test_error_cell_marked(self, capsys):
        code, captured = run(["sweep", "--axis", "R=0.4,2.0"], capsys)
        assert code == 0
        rows = parse_table_csv(captured.out)
        assert rows[0]["status"] == "ok"
        assert rows[1]["var_x"] == "ERROR"
        assert "R" in rows[1]["status"]

    def test_overflowing_cell_marked(self, capsys):
        code, captured = run(
            ["sweep", "--axis", "n_p=1e300,1e11", "--observable", "var_p"], capsys
        )
        assert code == 0
        assert "Traceback" not in captured.err
        rows = parse_table_csv(captured.out)
        assert rows[0]["var_p"] == "ERROR"
        assert rows[1]["status"] == "ok"

    def test_overflowing_gain_cell_marked(self, tmp_path, capsys):
        cfg = tmp_path / "strong.cfg"
        cfg.write_text("g = 10\n")
        code, captured = run(["sweep", "--config", str(cfg), "--axis", "n_p=1e308,1e11"], capsys)
        assert code == 0
        rows = parse_table_csv(captured.out)
        assert rows[0]["var_x"] == "ERROR"
        assert rows[0]["status"].startswith("effective stiffness")
        assert rows[1]["status"] == "ok"

    def test_overflowing_occupancy_cell_marked(self, capsys):
        code, captured = run(["sweep", "--axis", "omega_m=1e-300,1e6"], capsys)
        assert code == 0
        rows = parse_table_csv(captured.out)
        assert rows[0]["var_x"] == "ERROR"
        assert rows[0]["status"].startswith("thermal occupancy overflows")
        assert rows[1]["status"] == "ok"

    def test_negative_wait_cell_marked(self, capsys):
        # the quarter period is ~1.57e-6 s, so a -1e-5 s offset asks for a negative wait
        code, captured = run(["sweep", "--axis", "delta_tau=-1e-5,0"], capsys)
        assert code == 0
        rows = parse_table_csv(captured.out)
        assert rows[0]["var_x"] == "ERROR"
        assert rows[0]["status"].startswith("duration must be non-negative")
        assert rows[1]["status"] == "ok"

    def test_unreachable_dissipative_cells_counted(self, tmp_path, capsys):
        # both cells never reach the target; folding their 64-kick protocol
        # cancels det(cov) to 0, which used to surface as an ERROR row
        cfg = tmp_path / "lossy.cfg"
        cfg.write_text("gamma = 3.1e4\ng = 6.99e-5\n")
        code, captured = run(
            ["sweep", "--config", str(cfg), "--axis", "n_p=4.05e10,1e11", "--axis", "T=0.095",
             "--observable", "pulses_needed", "--dissipation", "on"],
            capsys,
        )
        assert code == 0
        lines = captured.out.splitlines()
        assert lines[0] == "n_p,T,pulses_needed,status"
        assert [ln.split(",", 2)[2] for ln in lines[1:]] == ["6.4000000000000000e+01,ok"] * 2

    def test_lambda_key_accepted_as_axis(self, capsys):
        code, captured = run(["sweep", "--axis", "lambda=532e-9,1064e-9"], capsys)
        assert code == 0
        assert len(parse_table_csv(captured.out)) == 2

    def test_field_name_wavelength_is_not_an_axis(self, capsys):
        # axis names are the config keys plus delta_tau, as in a config file
        code, captured = run(["sweep", "--axis", "wavelength=5e-7"], capsys)
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: unknown sweep parameter 'wavelength'\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("observable", ["var_x", "var_p", "decoherence_term"])
    def test_failing_cells_write_nothing_to_stderr(self, observable, fmt):
        # g̃, the quarter period, the occupancy and the angle overflow, and
        # some values are invalid: every such cell is an ERROR row, and no
        # numpy RuntimeWarning from evaluating the grid reaches stderr
        result = fresh_python(
            "-W", "always", "-m", "quadkick", "sweep",
            "--axis", "omega_m=1e6,-1,1e-310,1e-300,5e-324",
            "--axis", "g=1e-4,1e300,-1,0",
            "--observable", observable, "--format", fmt,
        )
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout.count(b"ERROR" if fmt == "csv" else b'"error": "') >= 10
        result = fresh_python(
            "-W", "always", "-m", "quadkick", "sweep",
            "--axis", "delta_tau=1.7e308,-1.7e308,-0.0,-1e-5",
            "--axis", "gamma=0,1.7e308,-5e-324", "--observable", observable, "--format", fmt,
        )
        assert (result.returncode, result.stderr) == (0, b"")

    def test_no_axis_exit_2(self, capsys):
        code, captured = run(["sweep"], capsys)
        assert code == 2

    def test_three_axes_exit_2(self, capsys):
        code, captured = run(
            ["sweep", "--axis", "T=1", "--axis", "n_p=1e10", "--axis", "R=0.1"], capsys
        )
        assert code == 2

    def test_json_cells(self, capsys):
        code, captured = run(
            ["sweep", "--axis", "T=1e-3", "--observable", "pulses_needed", "--format", "json"],
            capsys,
        )
        assert code == 0
        cells = json.loads(captured.out)
        assert cells[0]["coords"] == {"T": 1e-3}
        assert cells[0]["value"] == 2.0
        assert cells[0]["error"] is None

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("observable", ["var_x", "var_p", "decoherence_term", "pulses_needed"])
    def test_dissipation_is_read_only_by_pulses_needed(self, observable, fmt, capsys):
        # gamma = -1 and the wait made negative by delta_tau = -2e-6 give ERROR cells
        argv = ["sweep", "--axis", "gamma=0.1,3e4,1e6,-1", "--axis", "delta_tau=-2e-6,0",
                "--observable", observable, "--format", fmt]
        on, off = (run(argv + ["--dissipation", d], capsys) for d in ("on", "off"))
        assert on[0] == off[0] == 0
        assert "ERROR" in on[1].out or '"error": "' in on[1].out
        assert (on[1].out == off[1].out) == (observable != "pulses_needed")


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--schedule=--"], "error: schedule segment 0: unknown kind '--'\n"),
            (["sweep", "--axis=--"], "error: axis '--': expected NAME=V1,V2,...\n"),
        ],
    )
    def test_double_dash_value_is_text(self, argv, message, capsys):
        # argparse alone hands the value of --opt=-- over as [], which crashed here
        code, captured = run(argv, capsys)
        assert (code, captured.out, captured.err) == (2, "", message)

    @pytest.mark.parametrize(
        "argv", [["constants", "--format=--"], ["readout", "--var-p=--", "--var-x", "1"]]
    )
    def test_double_dash_value_is_checked(self, argv, capsys):
        code, captured = run(argv, capsys)
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: argument ") and "invalid" in captured.err
        assert captured.err.count("\n") == 1

    def test_unwritable_output_exit_3(self, capsys):
        code, captured = run(["constants", "--out", "/nonexistent-dir/x.csv"], capsys)
        assert code == 3
        assert "write" in captured.err

    def test_success_exit_0(self):
        assert run(["constants", "--out", "/dev/null"]) == 0

    @pytest.mark.parametrize(
        "argv", [["constants"], ["readout", "--var-p", "3", "--var-x", "0.2"]], ids=lambda a: a[0]
    )
    def test_closed_stdout_exit_3(self, argv):
        # started with fd 1 closed, sys.stdout is None: one error line, as for --out
        result = fresh_python("-m", "quadkick", *argv, preexec_fn=lambda: os.close(1))
        assert (result.returncode, result.stderr) == (3, b"error: cannot write output: stdout is closed\n")

    FAILURES = [
        (["constants", "--config", "/nonexistent-dir/x.cfg"], 2),
        # the lossless default fold's det cancels at segment 37
        (["simulate", "--schedule", ";".join(["kick;free"] * 19)], 4),
    ]

    @pytest.mark.parametrize("argv, code", FAILURES, ids=["exit_2", "exit_4"])
    def test_closed_stderr_keeps_exit_code(self, argv, code):
        # started with fd 2 closed, sys.stderr is None: the error line is dropped, not sent to stdout
        result = fresh_python("-m", "quadkick", *argv, preexec_fn=lambda: os.close(2))
        assert (result.returncode, result.stdout) == (code, b"")

    @pytest.mark.parametrize("argv, code", FAILURES, ids=["exit_2", "exit_4"])
    def test_broken_stderr_keeps_exit_code(self, argv, code):
        # stderr is a pipe whose reader has closed: writing the error line fails with EPIPE
        read, write = os.pipe()
        os.close(read)
        try:
            result = fresh_python("-m", "quadkick", *argv, stderr=write)
        finally:
            os.close(write)
        assert (result.returncode, result.stdout) == (code, b"")


class TestParserReuse:
    """``main`` builds its parser once per process; no call leaks into the next."""

    def test_append_default_not_shared(self, capsys):
        argv = ["sweep", "--axis", "T=1,1e-3", "--observable", "decoherence_term"]
        assert run(argv, capsys)[0] == 0
        argv = ["sweep", "--axis", "n_p=1e10", "--observable", "decoherence_term"]
        code, captured = run(argv, capsys)
        assert code == 0
        assert captured.out.splitlines()[0] == "n_p,decoherence_term,status"
        assert len(captured.out.splitlines()) == 2

    def test_usage_error_then_valid_call(self, capsys):
        assert run(["constants", "--format", "xml"], capsys)[0] == 2
        code, captured = run(["constants"], capsys)
        assert code == 0
        assert captured.out.encode() == fresh_python("-m", "quadkick", "constants").stdout


class TestDeterminism:
    COMMANDS = [
        ["constants"],
        ["simulate", "--schedule", "kick;free;kick;diss"],
        ["readout", "--var-p", "13.5", "--var-x", "0.4"],
        ["sweep", "--axis", "T=1,1e-3", "--observable", "decoherence_term"],
        ["simulate", "--format", "json"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0] + "-" + a[-1])
    def test_repeated_runs_byte_identical(self, argv, tmp_path):
        first = tmp_path / "first.out"
        second = tmp_path / "second.out"
        assert run(argv + ["--out", str(first)]) == 0
        assert run(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rows_are_written_without_a_state_or_cell_each(fmt, monkeypatch, capsys):
    # simulate writes the fold's rows and sweep the grid's columns: only the
    # thermal initial state is built, so neither pays for a list of objects
    built = []
    post_init = GaussianState.__post_init__

    def counted(state):
        built.append(state)
        post_init(state)

    def no_cell(*args):
        raise AssertionError("a SweepCell was built")

    monkeypatch.setattr(GaussianState, "__post_init__", counted)
    monkeypatch.setattr(planner, "SweepCell", no_cell)
    schedule = ";".join(["kick;free;kick;diss"] * 10)
    code, captured = run(["simulate", "--schedule", schedule, "--format", fmt], capsys)
    assert code == 0 and len(built) == 1
    assert captured.out.count("dissipate") == 10
    # a 4 x 4 closed-form grid with one invalid n_p value: four ERROR cells
    argv = ["sweep", "--axis", "n_p=1e10,1e11,-1,2e11", "--axis", "T=1e-5,1e-4,1e-3,1e-2"]
    code, captured = run(argv + ["--format", fmt], capsys)
    assert code == 0 and len(built) == 1
    assert captured.out.count("field n_p: value -1.0 is out of range") == 4


def fresh_python(*args, **kwargs):
    """``python *args`` in a fresh interpreter that imports the same quadkick
    as this test, installed or not; ``kwargs`` go to ``subprocess.run``.
    stdout and stderr are captured unless ``kwargs`` name other streams."""
    src = str(Path(quadkick.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": path}, **(streams | kwargs)
    )


def test_console_entry_point():
    result = fresh_python("-m", "quadkick", "constants")
    assert result.returncode == 0
    assert b"g_tilde" in result.stdout


def test_import_builds_no_writer_tables():
    # the block writer builds its tables when it is imported, and imports numpy:
    # neither import loads it
    for module in ("quadkick", "quadkick.cli"):
        code = f"import sys, {module}; print(sorted({{'numpy', 'quadkick._rows'}} & set(sys.modules)))"
        assert fresh_python("-c", code).stdout == b"[]\n"


@pytest.mark.parametrize("module", ["quadkick", "quadkick.cli"])
def test_import_loads_no_numpy(module):
    code = f"import sys, {module}; print('numpy' in sys.modules)"
    assert fresh_python("-c", code).stdout == b"False\n"


def imported_modules(stderr):
    """Module names of the ``-X importtime`` lines in ``stderr``."""
    lines = stderr.decode().splitlines()
    return [ln.rsplit("|", 1)[1].strip() for ln in lines if ln.startswith("import time:")]


@pytest.mark.parametrize(
    "argv",
    [
        ["constants"],
        ["simulate", "--dissipation", "on"],
        ["sweep", "--axis", "n_p=1e9,1e10", "--observable", "pulses_needed"],
        pytest.param(
            ["sweep", "--axis", "n_p=1e9,1e10", "--observable", "pulses_needed", "--format", "json"],
            id="sweep_json",
        ),
        pytest.param(
            ["sweep", "--axis", "n_p=1e9,-1", "--axis", "T=1e-4", "--observable", "pulses_needed"],
            id="sweep_error_row",
        ),
    ],
    ids=lambda a: a[0],
)
def test_numpy_free_commands_start_without_numpy(argv):
    result = fresh_python("-X", "importtime", "-m", "quadkick", *argv)
    assert result.returncode == 0
    names = imported_modules(result.stderr)
    assert "quadkick.cli" in names
    assert [n for n in names if n.split(".")[0] == "numpy" or n == "quadkick._rows"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["readout", "--var-p", "3", "--var-x", "0.2", "--free-evolution", "on"],
        ["sweep", "--axis", "g=1e-4,2e-4", "--axis", "T=0,1e-4", "--format", "json"],
        # the block writer and its tables are imported on first use in this process
        pytest.param(["sweep", "--axis", "g=1e-4,-1", "--axis", "n_p=0,1e18,1e30"], id="sweep_csv"),
    ],
    ids=lambda a: a[0],
)
def test_numpy_commands_in_fresh_process(argv, capsys):
    # numpy is imported on first use: the bytes are those of an in-process run
    result = fresh_python("-m", "quadkick", *argv)
    assert result.returncode == 0 and result.stderr == b""
    assert result.stdout == run(argv, capsys)[1].out.encode()
