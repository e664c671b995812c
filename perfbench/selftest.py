"""Tests of the benchmark itself: input generation, output checks, span math.

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import io
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import hostspeed  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from quadkick import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def quiet_main(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(argv)


def generate(name, seed, workdir, blocks=2):
    workdir.mkdir()
    w = WORKLOADS[name](seed, str(workdir))
    w.setup(quiet_main)
    ops = w.warmup() + [op for _ in range(blocks) for op in w.next_block()]
    argvs = [[a.replace(str(workdir), "<dir>") for a in op.argv] for op in ops]
    files = {f: open(os.path.join(workdir, f), "rb").read() for f in sorted(os.listdir(workdir))}
    return argvs, files


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    a = generate(name, 11, tmp_path / "a")
    b = generate(name, 11, tmp_path / "b")
    c = generate(name, 12, tmp_path / "c")
    assert a == b
    assert a[0] != c[0]


def first_op(name, cls, tmp_path):
    (tmp_path / "w").mkdir(exist_ok=True)
    w = WORKLOADS[name](5, str(tmp_path / "w"))
    w.setup(quiet_main)
    for _ in range(3):
        for op in w.next_block():
            if op.cls == cls:
                return w, op
    raise AssertionError(f"no {cls} op")


def corrupting(edit):
    """A CLI main that runs the real one, then rewrites its output file."""
    def main(argv):
        rc = quiet_main(argv)
        path = argv[argv.index("--out") + 1]
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(edit(text))
        return rc
    return main


def bump_digit(text, lineno, field):
    """Change the third significant digit of one CSV field."""
    lines = text.split("\n")
    cells = lines[lineno].split(",")
    m = re.match(r"(-?\d\.\d)(\d)(.*)", cells[field])
    cells[field] = m.group(1) + str((int(m.group(2)) + 1) % 10) + m.group(3)
    lines[lineno] = ",".join(cells)
    return "\n".join(lines)


def set_cell(text, lineno, value):
    """Give one row of a 2-axis sweep CSV the value `value` and status ok."""
    lines = text.split("\n")
    lines[lineno] = ",".join(lines[lineno].split(",")[:2] + [value, "ok"])
    return "\n".join(lines)


def run_once(w, op, main):
    r = run.Runner(w, main)
    r.execute(op)
    return r.failures


@pytest.mark.parametrize("cls", ["var_x", "pulses_needed"])
def test_sweep_checks(cls, tmp_path):
    w, op = first_op("sweep", cls, tmp_path)
    assert run_once(w, op, cli.main) == []
    row = next(i for i, ln in enumerate(open(op.out).read().split("\n")) if ln.endswith(",ok"))
    # a pulse count is an integer near the 64-pulse budget, so set it to 1
    edit = (lambda t: set_cell(t, row, "1.0000000000000000e+00")) if cls == "pulses_needed" \
        else (lambda t: bump_digit(t, row, 2))
    failures = run_once(w, op, corrupting(edit))
    assert len(failures) == 1 and "cell" in failures[0]


def test_sweep_error_rows_must_match_invalid_cells(tmp_path):
    w, op = first_op("sweep", "var_p", tmp_path)
    def drop_error(text):
        row = next(i for i, ln in enumerate(text.split("\n")) if ",ERROR," in ln)
        return set_cell(text, row, "1.0000000000000000e+00")
    failures = run_once(w, op, corrupting(drop_error))
    assert len(failures) == 1 and "expected error=True" in failures[0]


def test_simulate_checks(tmp_path):
    w, op = first_op("simulate", "short", tmp_path)
    assert run_once(w, op, cli.main) == []
    low_det = lambda t: t.replace(t.split("\n")[2].split(",")[6], "2.0000000000000000e-01", 1)
    failures = run_once(w, op, corrupting(low_det))
    assert len(failures) == 1 and "< 1/4" in failures[0]
    last = lambda t: bump_digit(t, len(t.rstrip("\n").split("\n")) - 1, 4)
    failures = run_once(w, op, corrupting(last))
    assert len(failures) == 1 and "final row" in failures[0]
    drop_row = lambda t: "\n".join(t.split("\n")[:-2]) + "\n"
    assert "rows, expected" in run_once(w, op, corrupting(drop_row))[0]


def test_simulate_rejects_and_repeats(tmp_path):
    w, op = first_op("simulate", "malformed", tmp_path)
    assert run_once(w, op, cli.main) == []
    accepts = lambda argv: 0
    assert "exit code 0" in run_once(w, op, accepts)[0]

    w, op = first_op("simulate", "short", tmp_path)
    r = run.Runner(w, cli.main)
    r.execute(op)
    r.main = corrupting(lambda t: t.replace("\n", "\r\n"))
    r.execute(op)
    assert len(r.failures) == 1 and "differs" in r.failures[0]


def test_traceback_is_a_failure(tmp_path):
    w, op = first_op("simulate", "malformed", tmp_path)
    def crash(argv):
        raise RuntimeError("boom")
    assert "traceback" in run_once(w, op, crash)[0]


@pytest.mark.parametrize("fmt_cls", ["snapshot", "json"])
def test_readout_checks(fmt_cls, tmp_path):
    w, op = first_op("readout", fmt_cls, tmp_path)
    assert run_once(w, op, cli.main) == []
    def scale_dc(text):
        if op.fmt == "json":
            return re.sub(r'"dc_shift": ([^,]+),',
                          lambda m: f'"dc_shift": {float(m.group(1)) * 1.5!r},', text, count=1)
        return re.sub(r"# dc_shift = (\S+)",
                      lambda m: f"# dc_shift = {float(m.group(1)) * 1.5:.16e}", text, count=1)
    failures = run_once(w, op, corrupting(scale_dc))
    assert len(failures) == 1 and "dc_shift" in failures[0]


def test_readout_expectation_closed_form():
    # free evolution of a squeezed state: dc is the mean of the variances,
    # the ripple the half-difference filtered by the cavity
    exp = ref.readout_expectation(3.0, 1.0, 0.0, True, 1e-4, 1e7, 1e6)
    assert exp["dc_shift"] == 2.0
    assert exp["ripple_amplitude"] == pytest.approx(2e-11 / (1 + 0.04) ** 0.5)
    assert ref.readout_rows(1e7, 1e6) == 10854 + 1    # steps + 1


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] and c [5, 9]; b holds two folded leaves of 1 s
    span_list = [(1, "b", 1.0, 4.0, 0), (2, "c", 5.0, 9.0, 0), (0, "a", 0.0, 10.0, None)]
    leaves = {(1, "leaf"): [2, 1.0]}
    t = spans.layer_totals(span_list, leaves)
    assert t["a"]["self_s"] == pytest.approx(3.0)
    assert t["b"]["self_s"] == pytest.approx(2.0)
    assert t["c"]["self_s"] == pytest.approx(4.0)
    assert t["leaf"] == {"calls": 2, "total_s": 1.0, "self_s": 1.0}
    assert t["a"]["total_s"] == pytest.approx(10.0)


def test_tracer_folds_leaves_under_their_parent():
    tracer = spans.Tracer()
    leaf = tracer.wrap("x.leaf", lambda: None)
    inner = tracer.wrap("x.inner", lambda: [leaf() for _ in range(3)])
    outer = tracer.wrap("x.outer", lambda: (inner(), leaf()))
    outer()
    names = {s[1]: s for s in tracer.spans}
    assert set(names) == {"x.outer", "x.inner"}
    assert names["x.inner"][4] == names["x.outer"][0]
    assert tracer.leaves[(names["x.inner"][0], "x.leaf")][0] == 3
    assert tracer.leaves[(names["x.outer"][0], "x.leaf")][0] == 1


def test_missing_wrap_target_is_reported_absent(monkeypatch):
    monkeypatch.setitem(spans.WRAP, "quadkick.cli", ("no_such_function", "load_config"))
    monkeypatch.setitem(spans.WRAP, "quadkick.no_such_module", ("f",))
    original = cli.load_config
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.load_config.__wrapped__ is original
        assert "quadkick.cli.no_such_function" in tracer.absent
        assert "quadkick.no_such_module.f" in tracer.absent
    finally:
        tracer.uninstall()
    assert cli.load_config is original
    metrics = spans.per_layer_metrics(tracer, 0, 0.0)
    assert metrics["readout.integrate_langevin.calls"] == (0, "count")


def test_tail_percentile_leaves_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)


def test_host_speed_scaling_removes_a_slow_phase():
    # the host runs at half speed for the middle ops: kernel and op alike take twice as long
    slow = [1.0] * 6 + [2.0] * 8 + [1.0] * 6
    speed = hostspeed.HostSpeed(sample=iter(hostspeed.REF_S * f for f in slow).__next__)
    times = []
    for factor in slow[:-hostspeed.WINDOW]:
        speed.sample()
        times.append((0.1 * factor, speed.mark()))
    speed.finish()
    scaled = [speed.scaled(s, mark) for s, mark in times]
    # only ops whose window straddles a phase boundary keep part of it
    steady = [x for x, (_, mark) in zip(scaled, times)
              if len(set(slow[max(0, mark - hostspeed.WINDOW):mark + hostspeed.WINDOW])) == 1]
    assert len(steady) >= 6 and {s for s, _ in times} == {0.1, 0.2}
    assert steady == pytest.approx([0.1] * len(steady))
    assert len(speed.samples) == len(slow)


def test_host_speed_kernel_runs():
    assert 0.0 < hostspeed.kernel() < 10.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
