"""Property test of the CLI contract over finite, extreme and negative inputs.

``constants``, ``simulate`` and a one-axis ``sweep`` run in-process with
``--format json`` on drawn config files, schedules and axes.  Every run must
exit 0, 2 or 4; a failing run writes exactly one ``error:`` line and no
traceback; a successful run writes strict JSON (no NaN or Infinity).
A second test feeds text drawn from the grammars' own alphabet through the
``--schedule=``, ``--axis=`` and config-file channels under the same contract.
A third writes drawn bytes (raw, UTF-8 text or JSON) as a config file and as
the ``readout --from-simulation`` input: each run exits 0 or 2.
``readout`` is otherwise covered by explicit cases in ``test_cli.py``: a
drawn omega_m near 1e3 gives a legal 10**7-step grid, about 10 s a run.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from quadkick.cli import main
from quadkick.config import KEY_TO_FIELD
from quadkick.planner import OBSERVABLES

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
    return code


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
@given(data=FILE_BYTES)
def test_input_file_bytes_contract(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "input.dat"
    path.write_bytes(data)
    for argv in (
        ["constants", "--config", str(path), "--format", "json"],
        ["readout", "--from-simulation", str(path), "--format", "json"],
    ):
        assert check_contract(argv) in (0, 2), (data, argv)
