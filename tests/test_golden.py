"""Golden CLI outputs: every command below must reproduce its committed bytes.

Short outputs are stored whole in ``tests/golden/<name>``.  Readout traces
(about 780 KB each) and long simulate runs are stored as ``<name>.digest``:
their ``# …`` summary lines in full (a JSON trace and a simulate run have
none), then one ``sha256 = <hex>`` line over the whole output.

Regenerate the files (only when an output change is intended and explained)
with ``PYTHONPATH=src python tests/test_golden.py``.

``ERRORS`` pins the failing runs: each entry is the files to write into a
scratch working directory (text, or bytes written as they are), the argv, the
exit code and the exact stderr.
Paths in argv are relative, so no temporary directory reaches a message.
"""

import hashlib
from pathlib import Path

import pytest

from quadkick.cli import main

GOLDEN = Path(__file__).parent / "golden"
GRID = ["sweep", "--axis", "n_p=1e6,3e7,1e8,2e11"]
# 240 tokens, bare and valued, and 331 segments with --dissipation on; the
# config's strong damping keeps every state's det(cov) clear of cancellation
LONG_SCHEDULE = ";".join(
    ["kick", "free", "kick:2e10", "free:7.5e-7", "diss", "kick:1e10", "diss:2e-5", "free",
     "kick", "free:0", "kick"] * 22
)
LONG_SIMULATE = [
    "simulate", "--config", str(GOLDEN / "simulate_long.cfg"), "--schedule", LONG_SCHEDULE,
    "--dissipation", "on",
]

CASES = {
    "constants.csv": ["constants"],
    "constants.json": ["constants", "--format", "json"],
    "simulate_kick_free_kick_diss.csv": ["simulate", "--schedule", "kick;free;kick;diss"],
    "simulate_diss_on.json": [
        "simulate", "--schedule", "kick;free;kick:3e10;diss:1e-3", "--dissipation", "on",
        "--format", "json",
    ],
    "simulate_long.digest": LONG_SIMULATE,
    "simulate_long_json.digest": LONG_SIMULATE + ["--format", "json"],
    # signed zero durations and photon numbers, and a bare token of each kind
    "simulate_signed_zero.csv": ["simulate", "--schedule", "free:-0;kick:0;diss:0;kick;free;diss"],
    "readout_snapshot.digest": [
        "readout", "--var-p", "61078.5", "--var-x", "0.3140589569160997",
    ],
    "readout_free_evolution.digest": [
        "readout", "--var-p", "3", "--var-x", "0.2", "--cross", "0.1", "--free-evolution", "on",
    ],
    "readout_free_evolution_json.digest": [
        "readout", "--var-p", "3", "--var-x", "0.2", "--cross", "0.1", "--free-evolution", "on",
        "--format", "json",
    ],
    "sweep_decoherence_T.csv": [
        "sweep", "--axis", "T=1,1e-3,1e-4", "--observable", "decoherence_term",
    ],
    "sweep_pulses_n_p_T.csv": GRID + [
        "--axis", "T=1e-5,1e-3,-1", "--observable", "pulses_needed", "--dissipation", "on",
    ],
    "sweep_pulses_n_p_g.json": GRID + [
        "--axis", "g=0,1e-4,-1", "--observable", "pulses_needed", "--dissipation", "on",
        "--format", "json",
    ],
    "sweep_var_p_n_p_delta_tau.csv": GRID + [
        "--axis", "delta_tau=0,1e-8,-3e-8", "--observable", "var_p",
    ],
    # g̃ overflows at g = 1e300, the quarter period at omega_m = 1e-310
    "sweep_var_x_g_omega_m.json": [
        "sweep", "--axis", "g=0,1e-4,1e300,-1", "--axis", "omega_m=1e6,-1,1e-310,2.5e5",
        "--format", "json",
    ],
    # cos/sin of omega_m·tau change in every cell; tau < 0 at delta_tau = -2e-6
    "sweep_var_x_omega_m_delta_tau.csv": [
        "sweep", "--axis", "omega_m=1e6,2.5e5,3.3e6",
        "--axis", "delta_tau=0,1e-8,-3e-8,7.7e-7,-2e-6",
    ],
    # the doubly invalid cell reports g, the first field in field order
    "sweep_var_x_g_T.csv": ["sweep", "--axis", "g=-1,1e-4", "--axis", "T=-1,1e-4"],
    # the same with the axes swapped, on the path that imports no numpy: still g
    "sweep_pulses_T_g.csv": [
        "sweep", "--axis", "T=-1,1e-4", "--axis", "g=-1,1e-4", "--observable", "pulses_needed",
        "--dissipation", "on",
    ],
    # values 3.3e-16 and 4.9e-32 lie outside the block writer's digit kernel, and
    # coordinates 0, 1e18 and 1e30 go to _fmt; the negative g gives ERROR rows
    "sweep_var_x_g_n_p.csv": ["sweep", "--axis", "g=1e-4,-1", "--axis", "n_p=0,1e18,1e30"],
    # R enters no formula, but its invalid value still fails the cell
    "sweep_var_p_R.csv": ["sweep", "--axis", "R=1,0.5", "--observable", "var_p"],
}


SIM_CSV = "index,var_p,var_x,cross\n0,1.5,1.5,0.0\n"
BAD_STATE_CSV = "index,var_p,var_x,cross\n0,0.1,0.1,0.0\n"
NOT_UTF8 = b"g = 1e-4 \xff\n"

# name -> (files, argv, exit code, stderr)
ERRORS = {
    "config_syntax": (
        {"c.cfg": "omega_m = 1e6\ng 1e-4\n"}, ["constants", "--config", "c.cfg"], 2,
        "error: line 2: expected 'key = value', got 'g 1e-4'\n",
    ),
    "config_unknown_key": (
        {"c.cfg": "g = 1e-4\nboost = 3\n"}, ["constants", "--config", "c.cfg"], 2,
        "error: line 2: unknown key 'boost'\n",
    ),
    "config_repeated_key": (
        {"c.cfg": "T = 1e-3\nT = 1e-4  # again\n"}, ["constants", "--config", "c.cfg"], 2,
        "error: line 2: repeated key 'T'\n",
    ),
    "config_unparsable_value": (
        {"c.cfg": "\n# comment\nn_p = lots\n"}, ["simulate", "--config", "c.cfg"], 2,
        "error: line 3: field n_p: cannot parse 'lots' as a number\n",
    ),
    "config_missing": (
        {}, ["constants", "--config", "missing.cfg"], 2,
        "error: cannot read config 'missing.cfg': "
        "[Errno 2] No such file or directory: 'missing.cfg'\n",
    ),
    "config_out_of_range": (
        {"c.cfg": "R = 1.5\n"}, ["sweep", "--config", "c.cfg", "--axis", "g=1"], 2,
        "error: field R: value 1.5 is out of range\n",
    ),
    "schedule_bad_kind": (
        {}, ["simulate", "--schedule", "kick;wiggle"], 2,
        "error: schedule segment 1: unknown kind 'wiggle'\n",
    ),
    "schedule_bad_value": (
        {}, ["simulate", "--schedule", "kick;free:abc"], 2,
        "error: schedule segment 1: could not convert string to float: 'abc'\n",
    ),
    "schedule_negative_duration": (
        {}, ["simulate", "--schedule", "diss:-1"], 2,
        "error: schedule segment 0: segment duration must be non-negative and finite, got -1.0\n",
    ),
    # a token's photon number is checked by the n_p field's rule before any stiffness
    "kick_nan": (
        {}, ["simulate", "--schedule", "kick:nan"], 2,
        "error: schedule segment 0: field n_p: value nan is out of range\n",
    ),
    "kick_negative": (
        {}, ["simulate", "--schedule", "kick:-5"], 2,
        "error: schedule segment 0: field n_p: value -5.0 is out of range\n",
    ),
    # an infinite photon number is out of range, not an overflowing stiffness
    "kick_inf": (
        {}, ["simulate", "--schedule", "kick;free;kick:inf"], 2,
        "error: schedule segment 2: field n_p: value inf is out of range\n",
    ),
    "axis_without_equals": (
        {}, ["sweep", "--axis", "n_p"], 2,
        "error: axis 'n_p': expected NAME=V1,V2,...\n",
    ),
    "axis_bad_float": (
        {}, ["sweep", "--axis", "n_p=1e9,lots"], 2,
        "error: axis n_p: could not convert string to float: 'lots'\n",
    ),
    "axis_unknown_name": (
        {}, ["sweep", "--axis", "boost=1"], 2,
        "error: unknown sweep parameter 'boost'\n",
    ),
    "axis_three": (
        {}, ["sweep", "--axis", "n_p=1e9", "--axis", "g=1e-4", "--axis", "T=0"], 2,
        "error: sweep needs one or two axes\n",
    ),
    "axis_duplicate": (
        {}, ["sweep", "--axis", "n_p=1e9", "--axis", "n_p=1e10"], 2,
        "error: sweep axes must be distinct\n",
    ),
    "readout_no_state": (
        {}, ["readout", "--var-p", "1"], 2,
        "error: readout needs --var-p and --var-x, or --from-simulation\n",
    ),
    "readout_both_sources": (
        {"sim.csv": SIM_CSV}, ["readout", "--from-simulation", "sim.csv", "--var-x", "1"], 2,
        "error: give either --from-simulation or explicit variances, not both\n",
    ),
    # --cross is an explicit moment too, even at the value it defaults to
    "readout_both_sources_cross": (
        {"sim.csv": SIM_CSV}, ["readout", "--from-simulation", "sim.csv", "--cross", "0.1"], 2,
        "error: give either --from-simulation or explicit variances, not both\n",
    ),
    "readout_both_sources_cross_zero": (
        {"sim.csv": SIM_CSV}, ["readout", "--from-simulation", "sim.csv", "--cross", "0"], 2,
        "error: give either --from-simulation or explicit variances, not both\n",
    ),
    "readout_invalid_state": (
        {}, ["readout", "--var-p", "0.1", "--var-x", "0.1"], 2,
        "error: invalid state: covariance violates the Heisenberg bound: "
        "det = 0.010000000000000002 < 1/4\n",
    ),
    "readout_zero_coupling": (
        {"c.cfg": "g = 0\n"}, ["readout", "--config", "c.cfg", "--var-p", "1", "--var-x", "1"],
        2, "error: trace analysis needs a positive coupling\n",
    ),
    "from_simulation_missing": (
        {}, ["readout", "--from-simulation", "nosuch.csv"], 2,
        "error: cannot read simulation output 'nosuch.csv': "
        "[Errno 2] No such file or directory: 'nosuch.csv'\n",
    ),
    "from_simulation_bad_row": (
        {"sim.csv": SIM_CSV}, ["readout", "--from-simulation", "sim.csv:5"], 2,
        "error: cannot extract row 5 from 'sim.csv': list index out of range\n",
    ),
    # a ROW is an optional "-" and ASCII digits; anything else is part of the path
    "from_simulation_row_two_minus": (
        {"sim.csv": SIM_CSV}, ["readout", "--from-simulation", "sim.csv:--5"], 2,
        "error: cannot read simulation output 'sim.csv:--5': "
        "[Errno 2] No such file or directory: 'sim.csv:--5'\n",
    ),
    "from_simulation_row_superscript": (
        {"sim.csv": SIM_CSV}, ["readout", "--from-simulation", "sim.csv:\u00b2"], 2,
        "error: cannot read simulation output 'sim.csv:\u00b2': "
        "[Errno 2] No such file or directory: 'sim.csv:\u00b2'\n",
    ),
    # more digits than int() converts
    "from_simulation_row_5000_digits": (
        {"sim.csv": SIM_CSV}, ["readout", "--from-simulation", "sim.csv:" + "9" * 5000], 2,
        "error: cannot extract row from 'sim.csv': row has 5000 digits\n",
    ),
    "from_simulation_nul_path": (
        {}, ["readout", "--from-simulation", "sim\0.csv"], 2,
        "error: cannot read simulation output 'sim\\x00.csv': embedded null byte\n",
    ),
    "from_simulation_row_not_object": (
        {"sim.json": "[1]"}, ["readout", "--from-simulation", "sim.json"], 2,
        "error: cannot extract row -1 from 'sim.json': 'int' object is not subscriptable\n",
    ),
    "from_simulation_null_moment": (
        {"sim.json": '[{"var_p": null, "var_x": 1, "cross": 0}]'},
        ["readout", "--from-simulation", "sim.json"], 2,
        "error: cannot extract row -1 from 'sim.json': "
        "float() argument must be a string or a real number, not 'NoneType'\n",
    ),
    # float() takes these; a JSON moment must be a number
    "from_simulation_string_moment": (
        {"sim.json": '[{"var_p": "3_0", "var_x": 0.4, "cross": 0}]'},
        ["readout", "--from-simulation", "sim.json"], 2,
        "error: cannot extract row -1 from 'sim.json': var_p is not a number: \"3_0\"\n",
    ),
    "from_simulation_bool_moment": (
        {"sim.json": '[{"var_p": 3, "var_x": 0.4, "cross": false}]'},
        ["readout", "--from-simulation", "sim.json"], 2,
        "error: cannot extract row -1 from 'sim.json': cross is not a number: false\n",
    ),
    "from_simulation_huge_moment": (
        {"sim.json": '[{"var_p": 1' + "0" * 400 + ', "var_x": 1, "cross": 0}]'},
        ["readout", "--from-simulation", "sim.json"], 2,
        "error: cannot extract row -1 from 'sim.json': int too large to convert to float\n",
    ),
    "from_simulation_deep_json": (
        {"sim.json": "[" * 100000}, ["readout", "--from-simulation", "sim.json"], 2,
        "error: cannot extract row -1 from 'sim.json': "
        "maximum recursion depth exceeded while decoding a JSON array from a unicode string\n",
    ),
    "from_simulation_not_utf8": (
        {"sim.csv": NOT_UTF8}, ["readout", "--from-simulation", "sim.csv"], 2,
        "error: cannot read simulation output 'sim.csv': "
        "'utf-8' codec can't decode byte 0xff in position 9: invalid start byte\n",
    ),
    "config_not_utf8": (
        {"c.cfg": NOT_UTF8}, ["constants", "--config", "c.cfg"], 2,
        "error: cannot read config 'c.cfg': "
        "'utf-8' codec can't decode byte 0xff in position 9: invalid start byte\n",
    ),
    # a form feed is no line end: the file has one line, and the cell holds '0\x0c2'
    "config_form_feed": (
        {"c.cfg": "g = 1e-4\x0cboost = 3"}, ["constants", "--config", "c.cfg"], 2,
        "error: line 1: field g: cannot parse '1e-4\\x0cboost = 3' as a number\n",
    ),
    "from_simulation_form_feed": (
        {"sim.csv": "var_p,var_x,cross\n1,1,0\x0c2,2,0\n"},
        ["readout", "--from-simulation", "sim.csv"], 2,
        "error: cannot extract row -1 from 'sim.csv': "
        "could not convert string to float: '0\\x0c2'\n",
    ),
    "from_simulation_invalid_state": (
        {"sim.csv": BAD_STATE_CSV}, ["readout", "--from-simulation", "sim.csv"], 2,
        "error: row -1 of 'sim.csv' is not a valid state: covariance violates the "
        "Heisenberg bound: det = 0.010000000000000002 < 1/4\n",
    ),
    "invariant_violation": (
        {}, ["simulate", "--schedule", "free:1e303"], 4,
        "error: segment 0 (free) produced an invalid state: "
        "free rotation angle must be finite, got inf\n",
    ),
    "readout_tiny_coupling": (
        {"c.cfg": "g = 1e-320\n"}, ["readout", "--config", "c.cfg", "--var-p", "1", "--var-x", "1"],
        2, "error: coupling g = 1e-320 too small: calibration kappa/(2g) = inf\n",
    ),
    "readout_below_transient": (
        {"c.cfg": "g = 1e-300\n"}, ["readout", "--config", "c.cfg", "--var-p", "1", "--var-x", "1"],
        2, "error: coupling g = 1e-300 too small: relative shift 2g*|dc|/kappa = "
        "1.653932549908023e-20 is not above the residual transient exp(-40) by a factor of 1e3\n",
    ),
    "readout_tiny_omega_m": (
        {"c.cfg": "omega_m = 1e-320\n"},
        ["readout", "--config", "c.cfg", "--var-p", "1", "--var-x", "1"], 2,
        "error: probe window 40/kappa + 16*pi/omega_m overflows "
        "at kappa = 10000000.0, omega_m = 1e-320\n",
    ),
    "argparse_bad_float": (
        {}, ["readout", "--var-p", "abc"], 2,
        "error: argument --var-p: invalid float value: 'abc'\n",
    ),
    "argparse_bad_choice": (
        {}, ["constants", "--format", "xml"], 2,
        "error: argument --format: invalid choice: 'xml' (choose from 'csv', 'json')\n",
    ),
    "argparse_missing_value": (
        {}, ["simulate", "--schedule"], 2,
        "error: argument --schedule: expected one argument\n",
    ),
    "argparse_unknown_command": (
        {}, ["bogus"], 2,
        "error: argument command: invalid choice: 'bogus' "
        "(choose from 'constants', 'simulate', 'readout', 'sweep')\n",
    ),
    "output_nul_path": (
        {}, ["constants", "--out", "out\0.csv"], 3,
        "error: cannot write output: embedded null byte\n",
    ),
    "unwritable_output": (
        {}, ["constants", "--out", "/"], 3,
        "error: cannot write output: [Errno 21] Is a directory: '/'\n",
    ),
}


def run_error(files: dict, argv: list[str], cwd: Path, capsys) -> tuple[int, str, str]:
    """Run one failing command in ``cwd``; return (exit code, stdout, stderr)."""
    for name, data in files.items():
        if isinstance(data, bytes):
            (cwd / name).write_bytes(data)
        else:
            (cwd / name).write_text(data)
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def render(name: str, argv: list[str], out: Path) -> bytes:
    """Run one command and return the bytes the golden file should hold."""
    assert main(argv + ["--out", str(out)]) == 0
    data = out.read_bytes()
    if not name.endswith(".digest"):
        return data
    summary = [ln for ln in data.split(b"\n") if ln.startswith(b"# ")]
    digest = hashlib.sha256(data).hexdigest().encode()
    return b"\n".join(summary + [b"sha256 = " + digest]) + b"\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    expected = (GOLDEN / name).read_bytes()
    assert render(name, CASES[name], tmp_path / "out") == expected


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_golden_error(name, tmp_path, monkeypatch, capsys):
    files, argv, code, stderr = ERRORS[name]
    monkeypatch.chdir(tmp_path)
    assert run_error(files, argv, tmp_path, capsys) == (code, "", stderr)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            (GOLDEN / name).write_bytes(render(name, argv, Path(tmp) / "out"))
            print(f"wrote {GOLDEN / name}")
