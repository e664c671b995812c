import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadkick
from quadkick.cli import main

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

    def test_malformed_line_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        code, captured = run(["constants", "--config", str(cfg)], capsys)
        assert code == 2
        assert "line 1" in captured.err


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

    def test_lambda_key_accepted_as_axis(self, capsys):
        code, captured = run(["sweep", "--axis", "lambda=532e-9,1064e-9"], capsys)
        assert code == 0
        assert len(parse_table_csv(captured.out)) == 2

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


class TestExitCodes:
    def test_unwritable_output_exit_3(self, capsys):
        code, captured = run(["constants", "--out", "/nonexistent-dir/x.csv"], capsys)
        assert code == 3
        assert "write" in captured.err

    def test_success_exit_0(self):
        assert run(["constants", "--out", "/dev/null"]) == 0


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


def test_console_entry_point():
    # the subprocess imports the same quadkick as this test, installed or not
    src = str(Path(quadkick.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "quadkick", "constants"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert "g_tilde" in result.stdout
