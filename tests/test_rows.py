"""The block row writer ``quadkick._rows`` against ``_fmt``, byte for byte:
the digit kernel, its fallback, the fixed-width copy and the blocks that the
readout trace and the sweep hand it."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cli import assert_same_text, fresh_python, run

from quadkick import _rows, cli


def all_slow(monkeypatch):
    """Send every value through the writer's fallback, ``"%.16e"`` one by one."""
    kernel = _rows._sci_digits

    def slow_kernel(x):
        *rest, slow = kernel(x)
        return (*rest, np.ones_like(slow))

    monkeypatch.setattr(_rows, "_sci_digits", slow_kernel)


class TestFmtRows:
    """The vectorised trace formatter writes exactly the bytes of ``_fmt``."""

    PARTS = ("", ",", ",", "\n")

    @staticmethod
    def columns():
        rng = np.random.default_rng(11)
        n = 20000
        edge = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308,
                0.1, 1 / 3, 0.5, 1e-11, -9.999999999999999e-12, 1e16, 1e17, 2.0**53]
        near_pow = [s * 10.0**k * f for k in range(-14, 20) for s in (1, -1)
                    for f in (1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0))]
        # 17-digit decimals plus half a unit in the last digit: near-ties of the rounding
        ties = (rng.integers(10**16, 10**17, n) * 10 + 5) * 10.0 ** rng.integers(-28, -1, n)
        values = np.concatenate([
            edge, near_pow, ties,
            rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
            rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-13, 18, n),
        ])
        values = values[: len(values) // 3 * 3]
        return values[0::3], values[1::3], values[2::3]

    @staticmethod
    def expected(columns):
        return "".join(
            ",".join(cli._fmt(v) for v in row) + "\n" for row in zip(*columns)
        )

    def test_matches_fmt(self):
        columns = self.columns()
        got = "".join(_rows._float_rows(self.PARTS, *columns))
        assert_same_text(got, self.expected(columns))

    def test_fallback_path_matches_fmt(self, monkeypatch):
        all_slow(monkeypatch)
        columns = tuple(c[:2000] for c in self.columns())
        got = "".join(_rows._float_rows(self.PARTS, *columns))
        assert_same_text(got, self.expected(columns))


class TestExactDigits:
    """The integer digit kernel, against ``_fmt`` one by one."""

    WRITERS = {"fmt": cli._fmt}

    @staticmethod
    def random_bits(seed):
        rng = np.random.default_rng(seed)
        n = 20000
        # every binade of [1e-11, 1e17), with dense significands and with
        # sparse ones (exact decimals, among them exact ties), then any bits
        biased = rng.integers(1023 - 37, 1023 + 57, 2 * n).astype(np.uint64)
        dense = rng.integers(0, 2**52, n, dtype=np.uint64)
        shifts = rng.integers(0, 41, n).astype(np.uint64)
        sparse = rng.integers(0, 2**12, n, dtype=np.uint64) << shifts
        signs = rng.integers(0, 2, 2 * n).astype(np.uint64) << np.uint64(63)
        bits = signs | (biased << np.uint64(52)) | np.concatenate([dense, sparse])
        return np.concatenate([bits, rng.integers(0, 2**64, n, dtype=np.uint64)]).view(np.float64)

    @staticmethod
    def written(values):
        return "".join(_rows._float_rows(("", "\n"), np.asarray(values))).split("\n")[:-1]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_bit_patterns(self, writer, seed):
        text_of = self.WRITERS[writer]
        values = self.random_bits(seed)
        got = self.written(values)
        want = [text_of(v) for v in values.tolist()]
        wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
        assert not wrong and len(got) == len(want), f"{len(wrong)} differ, e.g. {wrong[:3]}"

    def test_ties_round_half_even(self):
        # 10·x ends in .5 exactly: "%.16e" rounds the 17th digit to even
        values = [1125899906842624.25, 1125899906842624.75, -1125899906842625.25]
        assert self.written(values) == [
            "1.1258999068426242e+15", "1.1258999068426248e+15", "-1.1258999068426252e+15",
        ]

    @pytest.mark.parametrize("kappa", ["default", "1e8"])
    def test_trace_takes_no_fallback(self, kappa, tmp_path, monkeypatch):
        # the readout_free_evolution golden's state: in each format only the
        # first row's zeros (t = 0 and the empty cavity's intensity) go
        # through _fmt
        spliced = []
        splice = _rows._splice

        def spy(slots, x, slow):
            spliced.append((np.flatnonzero(slow).tolist(), x[slow].tolist()))
            splice(slots, x, slow)

        monkeypatch.setattr(_rows, "_splice", spy)
        argv = ["--var-p", "3", "--var-x", "0.2", "--cross", "0.1", "--free-evolution", "on"]
        if kappa != "default":
            cfg = tmp_path / "c.cfg"
            cfg.write_text(f"kappa = {kappa}\n")
            argv += ["--config", str(cfg)]
        for fmt in ("csv", "json"):
            out = tmp_path / f"trace.{fmt}"
            assert run(["readout", *argv, "--format", fmt, "--out", str(out)]) == 0
        first = [(rows, values) for rows, values in spliced if rows]
        assert first == [([0, 1], [0.0, 0.0])] * 2


# 22-byte texts that _fmt writes (zero, |x| < 1e-11, ≥ 1e17), and texts of other widths
SPLICED_22 = (0.0, 1e-50, 1e20)
OTHER_WIDTHS = (5e-324, 1e-150, 1e150, math.inf, math.nan)
THREE_BLOCKS = 2 * _rows._FMT_BLOCK_ROWS + 3
non_negative = st.floats(0.0, allow_nan=False, allow_infinity=False) | st.sampled_from(
    SPLICED_22 + OTHER_WIDTHS
)


@st.composite
def fixed_width_tables(draw):
    """A table of non-negative values, up to three blocks long, tiled from a
    few drawn values, with at most one negative value; and the row parts."""
    n_cols = draw(st.integers(1, 3))
    values = draw(st.lists(non_negative, min_size=1, max_size=12))
    block = _rows._FMT_BLOCK_ROWS
    n_rows = draw(st.sampled_from((1, 5, block - 1, block, THREE_BLOCKS)))
    table = np.resize(np.array(values), (n_rows, n_cols))
    if draw(st.booleans()):
        row, col = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_cols - 1))
        table[row, col] = -draw(non_negative)
    parts = (
        draw(st.sampled_from(("", "["))),
        *draw(st.lists(st.sampled_from((",", ", ", ",ok")), min_size=n_cols - 1, max_size=n_cols - 1)),
        draw(st.sampled_from(("\n", ",ok\n", "]\n"))),
    )
    return table, parts


def spy_fixed_width(monkeypatch):
    """The answers of ``_fixed_width``, one per block, in order."""
    answers = []
    fixed_width = _rows._fixed_width
    monkeypatch.setattr(_rows, "_fixed_width", lambda slots: answers.append(fixed_width(slots)) or answers[-1])
    return answers


class TestFixedWidthRows:
    """Blocks of 22-byte texts are copied window by window; others drop their NULs."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(drawn=fixed_width_tables())
    # three blocks of 22-byte texts, spliced ones among them
    @example(drawn=(np.resize(np.array(SPLICED_22 + (1.5,)), (THREE_BLOCKS, 3)), ("", ",", ",", "\n")))
    # three blocks, and a negative value in the middle one only
    @example(drawn=(np.where(np.arange(3 * THREE_BLOCKS) == 3 * (_rows._FMT_BLOCK_ROWS + 7), -2.5, 0.25)
                    .reshape(-1, 3), ("[", ", ", ",ok", "]\n")))
    @example(drawn=(np.resize(np.array(OTHER_WIDTHS), (5, 3)), ("", ",", ",", "\n")))
    # texts shorter than 22 bytes only
    @example(drawn=(np.array([[1.5, math.nan], [math.inf, 0.0]]), ("", ",", "\n")))
    def test_matches_fmt(self, drawn):
        table, parts = drawn
        with pytest.MonkeyPatch.context() as mp:
            answers = spy_fixed_width(mp)
            got = "".join(_rows._float_rows(parts, *table.T))
        rows = [[cli._fmt(v) for v in row] for row in table.tolist()]
        want = "".join(parts[0] + "".join(t + p for t, p in zip(row, parts[1:])) for row in rows)
        assert_same_text(got, want)
        # the fixed path exactly where every text of the block is 22 bytes
        blocks = [rows[i : i + _rows._FMT_BLOCK_ROWS] for i in range(0, len(rows), _rows._FMT_BLOCK_ROWS)]
        assert answers == [all(len(t) == 22 for row in b for t in row) for b in blocks]

    @pytest.mark.parametrize("kappa, n_blocks", [("1e7", 3), ("1e8", 25)])
    @pytest.mark.parametrize("free", ["on", "off"])
    def test_trace_blocks_take_the_fixed_path(self, kappa, n_blocks, free, tmp_path, monkeypatch):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"kappa = {kappa}\n")
        answers = spy_fixed_width(monkeypatch)
        argv = ["readout", "--var-p", "3", "--var-x", "0.2", "--cross", "0.1", "--config", str(cfg),
                "--free-evolution", free, "--out", str(tmp_path / "trace.csv")]
        assert run(argv) == 0
        assert answers == [True] * n_blocks

    def test_sweep_block_is_one_value_column(self, monkeypatch, capsys):
        # coordinates go to _fmt: the block writer gets the values alone, so a
        # negative coordinate takes the fixed path and an ERROR cell's nan does not
        answers, columns = spy_fixed_width(monkeypatch), []
        float_rows = _rows._float_rows
        monkeypatch.setattr(_rows, "_float_rows", lambda parts, *cols: (
            columns.append([len(c) for c in cols]) or float_rows(parts, *cols)))
        code, captured = run(["sweep", "--axis", "delta_tau=-1e-8,0,1e-8"], capsys)
        assert (code, columns, answers) == (0, [[3]], [True])
        assert captured.out.splitlines()[1].startswith("-1.0000000000000000e-08,")
        code, captured = run(["sweep", "--axis", "delta_tau=-1e-8,0,1e-8", "--axis", "g=1e-4,-1"], capsys)
        assert (code, columns, answers) == (0, [[3], [6]], [True, False])
        assert captured.out.splitlines()[2].startswith("-1.0000000000000000e-08,-1.0000000000000000e+00,ERROR,")


def test_import_loads_no_cli():
    # the writer is a leaf: importing it loads neither the CLI, its config nor argparse
    names = "{'quadkick.cli', 'quadkick.config', 'argparse'}"
    code = f"import sys, quadkick._rows; print(sorted({names} & set(sys.modules)))"
    assert fresh_python("-c", code).stdout == b"[]\n"
