"""Property test of the CLI contract over finite, extreme and negative inputs.

``constants``, ``simulate`` and a one-axis ``sweep`` run in-process with
``--format json`` on drawn config files, schedules and axes.  Every run must
exit 0, 2 or 4; a failing run writes exactly one ``error:`` line and no
traceback; a successful run writes strict JSON (no NaN or Infinity).
A second test feeds text drawn from the grammars' own alphabet through the
``--schedule=``, ``--axis=`` and config-file channels under the same contract.
A third writes drawn bytes (raw, UTF-8 text or JSON) as a config file and as
the ``readout --from-simulation`` input, the latter with a ``:ROW`` suffix of
drawn text or none: each run exits 0 or 2, and a config error's line number
is no larger than the file's line count.
A fourth runs ``readout``, with ``--free-evolution`` on and off, on drawn
kappa, omega_m and g under the first contract.  A drawn omega_m near 1e3
gives a legal 10**7-step grid, about 10 s a run, so a draw whose default
grid has more than 50,000 steps is skipped; a grid the config rejects runs.
A fifth checks that every readout that exits 0 reads back its closed form.
"""

import contextlib
import io
import json
import math
import re

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadkick.cli import main
from quadkick.config import KEY_TO_FIELD
from quadkick.errors import ParameterError
from quadkick.kicks import PhysicalParams
from quadkick.planner import OBSERVABLES
from quadkick.readout import SETTLE_FACTOR, ReadoutConfig

EXTREMES = (
    0.0, -0.0, 5e-324, 1e-320, 1e-300, 1e-160, 1e160, 1e300, 1e308, 1.7976931348623157e308,
)
VALUE = (
    st.sampled_from(EXTREMES)
    | st.floats(min_value=0.0, allow_infinity=False)
    | st.floats(allow_nan=False, allow_infinity=False)
)
# words and characters of the schedule, axis and config grammars
ALPHABET = (
    ("kick", "free", "diss", ":", ";", "=", ",", ".", "-", "+", "e", "nan", "inf", " ")
    + tuple("0123456789")
    + tuple(sorted(KEY_TO_FIELD))
    + ("delta_tau",)
)
TEXT = st.lists(st.sampled_from(ALPHABET), max_size=12).map("".join)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(("var_p", "var_x", "cross")) | st.text(max_size=4), inner),
    max_leaves=8,
)
FILE_BYTES = (
    st.binary(max_size=64)
    | st.text(max_size=64).map(str.encode)
    | JSON.map(lambda v: json.dumps(v).encode())
)
TOKEN = st.tuples(st.sampled_from(("kick", "free", "diss")), st.none() | VALUE).map(
    lambda t: t[0] if t[1] is None else f"{t[0]}:{t[1]!r}"
)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(argv):
    code, out, err = run(argv)
    assert code in (0, 2, 4), (argv, code, err)
    if code:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "Traceback" not in err
    else:
        json.loads(out, parse_constant=_reject_constant)
    return code, err


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    # up to three fields are drawn and the rest keep their defaults, so many configs are valid
    fields=st.dictionaries(st.sampled_from(sorted(KEY_TO_FIELD)), VALUE, max_size=3),
    tokens=st.lists(TOKEN, max_size=4),
    dissipation=st.sampled_from(("on", "off")),
    axis=st.sampled_from(sorted(KEY_TO_FIELD) + ["delta_tau"]),
    axis_values=st.lists(VALUE, min_size=1, max_size=3),
    observable=st.sampled_from(OBSERVABLES),
)
def test_cli_contract(tmp_path_factory, fields, tokens, dissipation, axis, axis_values, observable):
    config = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    config.write_text("".join(f"{k} = {v!r}\n" for k, v in fields.items()))
    common = ["--config", str(config), "--format", "json"]
    check_contract(["constants"] + common)
    schedule = ";".join(tokens) or "kick;free;kick"
    check_contract(["simulate", "--schedule", schedule, "--dissipation", dissipation] + common)
    check_contract(
        ["sweep", "--axis", f"{axis}={','.join(map(repr, axis_values))}",
         "--observable", observable, "--dissipation", dissipation] + common
    )


@settings(derandomize=True, deadline=None, max_examples=200)
@given(schedule=TEXT, axis=TEXT, config_lines=st.lists(TEXT, max_size=4))
def test_argv_text_contract(tmp_path_factory, schedule, axis, config_lines):
    # the --opt=TEXT form keeps argparse from reading a leading "-" as an option
    config = tmp_path_factory.getbasetemp() / "text.cfg"
    config.write_text("".join(line + "\n" for line in config_lines))
    check_contract(["simulate", f"--schedule={schedule}", "--format", "json"])
    check_contract(["sweep", f"--axis={axis}", "--format", "json"])
    check_contract(["constants", "--config", str(config), "--format", "json"])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=FILE_BYTES, row=st.none() | st.text(max_size=8))
# ROW text that int() rejects: a superscript digit, two minus signs, and more
# digits than int() converts
@example(data=b"var_p,var_x,cross\n1,1,0\n", row="\u00b2")
@example(data=b"var_p,var_x,cross\n1,1,0\n", row="--5")
@example(data=b"var_p,var_x,cross\n1,1,0\n", row="9" * 5000)
def test_input_file_bytes_contract(tmp_path_factory, data, row):
    path = tmp_path_factory.getbasetemp() / "input.dat"
    path.write_bytes(data)
    ref = str(path) if row is None else f"{path}:{row}"
    for argv in (
        ["constants", "--config", str(path), "--format", "json"],
        ["readout", "--from-simulation", ref, "--format", "json"],
    ):
        code, err = check_contract(argv)
        assert code in (0, 2), (data, argv)
        # a config error names a line of the file as open() reads it
        line = re.match(r"error: line (\d+):", err)
        if line:
            with open(path, encoding="utf-8") as fh:
                assert int(line[1]) <= len(fh.readlines()), (data, err)


# a readout run on a grid of more than this many steps is skipped
READOUT_STEPS = 50_000


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    rates=st.fixed_dictionaries({k: st.none() | VALUE for k in ("kappa", "omega_m", "g")}),
    state=st.sampled_from((("1", "1"), ("3", "0.2"))),
    free_evolution=st.sampled_from(("on", "off")),
)
# (drive/kappa)² overflows at kappa = 1e-160, on a grid of about 2,800 steps
@example(rates={"kappa": 1e-160, "omega_m": 5e-161, "g": 1e-161}, state=("1", "1"),
         free_evolution="off")
def test_readout_contract(tmp_path_factory, rates, state, free_evolution):
    rates = {k: v for k, v in rates.items() if v is not None}
    p = vars(PhysicalParams()) | rates
    try:
        steps = ReadoutConfig(p["kappa"], p["g"], p["omega_m"]).n_steps
    except ParameterError:
        steps = 0  # rejected before anything is integrated
    assume(steps <= READOUT_STEPS)
    config = tmp_path_factory.getbasetemp() / "readout.cfg"
    config.write_text("".join(f"{k} = {v!r}\n" for k, v in rates.items()))
    check_contract(
        ["readout", "--config", str(config), "--var-p", state[0], "--var-x", state[1],
         "--free-evolution", free_evolution, "--format", "json"]
    )


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    log_kappa=st.floats(3.0, 24.0),
    log_omega=st.floats(-1.7, 1.5),
    # above -13.9 the shift 2g·x²/kappa clears the gate 1e3·e^(-40) at each dc
    # of 0.2, 1 and 1.6, so nearly every run reads back a shift
    log_g=st.floats(-13.9, -3.0),
    state=st.sampled_from(((1.0, 1.0), (3.0, 0.2))),
    free_evolution=st.sampled_from(("on", "off")),
)
# a window found with an absolute tolerance of 1e-15 s took in the empty
# cavity's transient here and read 5.33e5
@example(log_kappa=17.0, log_omega=math.log10(0.5), log_g=-8.0, state=(1.0, 1.0),
         free_evolution="off")
# a shift of 1e-14, within a decade above the gate, where e^(-40)/eps rules the bound
@example(log_kappa=7.0, log_omega=-1.0, log_g=math.log10(5e-15), state=(1.0, 1.0),
         free_evolution="off")
def test_readout_reads_its_closed_form(tmp_path_factory, log_kappa, log_omega, log_g, state,
                                       free_evolution):
    # dc_shift is (var_p + var_x)/2 under free evolution and var_x for a snapshot,
    # to the steady-state expansion's relative error, about 1.5·g·x²/kappa (2.07
    # times eps = g·x²/kappa at the worst state), plus the residual transient
    # exp(-SETTLE_FACTOR) that analyze_trace admits, relative to the shift eps
    kappa = 10.0**log_kappa
    p = {"kappa": kappa, "omega_m": kappa * 10.0**log_omega, "g": kappa * 10.0**log_g}
    assume(ReadoutConfig(p["kappa"], p["g"], p["omega_m"]).n_steps <= READOUT_STEPS)
    config = tmp_path_factory.getbasetemp() / "closed_form.cfg"
    config.write_text("".join(f"{k} = {v!r}\n" for k, v in p.items()))
    var_p, var_x = state
    code, out, err = run(["readout", "--config", str(config), "--var-p", repr(var_p),
                          "--var-x", repr(var_x), "--free-evolution", free_evolution])
    assert code in (0, 2), err
    if code == 0:
        expected = (var_p + var_x) / 2 if free_evolution == "on" else var_x
        eps = p["g"] * expected / kappa
        dc_shift = float(out.partition("\n")[0].removeprefix("# dc_shift = "))
        assert abs(dc_shift - expected) <= 3.0 * (eps + math.exp(-SETTLE_FACTOR) / eps) * expected
        # the ripple is the first-order response (2g/kappa)·hypot(a, b)/|1 + 2i·omega_m/kappa|
        # of the harmonic a·cos + b·sin, hypot(a, b) = |var_p - var_x|/2 here, and 0 for a
        # snapshot; to the same relative error of the intensity shift dc = 2g·x²/kappa, plus
        # 1e-7·dc for the grid's 2·omega_m response (measured up to 1.1e-8·dc)
        amplitude = abs(var_p - var_x) / 2 if free_evolution == "on" else 0.0
        calibration = 2.0 * p["g"] / kappa
        ripple_closed = calibration * amplitude / abs(1.0 + 2j * p["omega_m"] / kappa)
        ripple = float(out.split("\n")[1].removeprefix("# ripple_amplitude = "))
        bound = 3.0 * (eps + math.exp(-SETTLE_FACTOR) / eps) + 1e-7
        assert abs(ripple - ripple_closed) <= bound * calibration * expected
