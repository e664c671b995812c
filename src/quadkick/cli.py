"""Command-line interface: constants, simulate, readout, and sweep commands.

All output is deterministic: identical inputs produce byte-identical files.
Exit codes: 0 success, 2 config/spec parse or validation error, 3 output
I/O error, 4 runtime invariant violation.
"""

import argparse
import contextlib
import functools
import itertools
import json
import sys
from collections.abc import Iterator

from .config import FIELD_TO_KEY, KEY_TO_FIELD, load_config, read_text
from .errors import InvariantViolation, ParameterError
from .kicks import (
    PhysicalParams,
    _fold_rows,
    coupling_from_physical,
    effective_stiffness,
    optimal_kick_duration,
    parse_schedule,
    quarter_period,
)
from .planner import OBSERVABLES, SweepAxis, SweepSpec, _sweep_columns
from .readout import ReadoutConfig, analyze_trace, baseline_intensity, integrate_langevin
from .state import VACUUM_VARIANCE, GaussianState, free_x2_harmonics, thermal_state

DEFAULT_SCHEDULE = "kick;free;kick"


def _fmt(x: float) -> str:
    # 17 significant digits: round-trip exact for doubles
    return format(float(x), ".16e")


def _cmd_constants(args, params: PhysicalParams) -> list[str]:
    g_tilde = effective_stiffness(params.g, params.n_p, params.omega_m)
    rows = [(key, getattr(params, field)) for key, field in KEY_TO_FIELD.items()]
    rows += [
        ("g_from_physical", coupling_from_physical(params)),
        ("g_tilde", g_tilde),
        ("t_star", optimal_kick_duration(g_tilde, params.omega_m)),
        ("n_bar", params.occupancy()),
        ("reduction_factor", params.omega_m / g_tilde),
        ("quarter_period", quarter_period(params.omega_m)),
    ]
    texts = [(k, _fmt(v)) for k, v in rows]
    if args.format == "json":
        # the layout of json.dumps({…}, indent=2)
        return ["{\n", ",\n".join(f'  "{k}": {t}' for k, t in texts), "\n}\n"]
    return ["key,value\n", "".join(f"{k},{t}\n" for k, t in texts)]


_SIMULATE_HEADER = "index,kind,duration,var_p,var_x,cross,det_cov,x_squeezed\n"
# "%.16e" writes the bytes of _fmt
_CSV_SIMULATE_ROW = "%d,%s,%.16e,%.16e,%.16e,%.16e,%.16e,%s\n"
# a row in the layout of json.dumps([{"index": …, "kind": …, …}, …], indent=2)
_JSON_SIMULATE_ROW = (
    '  {\n    "index": %d,\n    "kind": "%s",\n    "duration": %.16e,\n    "var_p": %.16e,\n'
    '    "var_x": %.16e,\n    "cross": %.16e,\n    "det_cov": %.16e,\n    "x_squeezed": %s\n  }'
)


def _cmd_simulate(args, params: PhysicalParams) -> list[str]:
    schedule = parse_schedule(args.schedule, params, args.dissipation == "on")
    rows = _fold_rows(thermal_state(params.occupancy()), schedule, params)

    segments = [("initial", 0.0), *((seg.kind, seg.duration) for seg in schedule.segments)]
    # every row's cells in one tuple, for one template over all rows
    cells = []
    for i, ((kind, duration), (_, _, var_p, var_x, cross, det)) in enumerate(zip(segments, rows)):
        squeezed = "true" if var_x < VACUUM_VARIANCE else "false"
        cells += (i, kind, duration, var_p, var_x, cross, det, squeezed)
    if args.format == "json":
        # segment durations and state moments are checked finite, so _fmt's
        # text is a JSON number
        return ["[\n", ",\n".join([_JSON_SIMULATE_ROW] * len(segments)) % tuple(cells), "\n]\n"]
    return [_SIMULATE_HEADER, _CSV_SIMULATE_ROW * len(segments) % tuple(cells)]


def _state_from_args(args) -> GaussianState:
    if args.from_simulation is not None:
        if (args.var_p, args.var_x, args.cross) != (None, None, None):
            raise ParameterError("give either --from-simulation or explicit variances, not both")
        return _state_from_simulation(args.from_simulation)
    if args.var_p is None or args.var_x is None:
        raise ParameterError("readout needs --var-p and --var-x, or --from-simulation")
    cross = 0.0 if args.cross is None else args.cross
    try:
        return GaussianState(var_p=args.var_p, var_x=args.var_x, cross=cross)
    except ParameterError as exc:
        raise ParameterError(f"invalid state: {exc}")


def _state_from_simulation(ref: str) -> GaussianState:
    path, row = ref, -1
    head, sep, tail = ref.rpartition(":")
    digits = tail.removeprefix("-")
    # ASCII only: str.isdigit also takes "²", which int() rejects
    if sep and digits.isascii() and digits.isdigit():
        path = head
        try:
            row = int(tail)
        except ValueError:  # more digits than int() converts
            raise ParameterError(f"cannot extract row from {path!r}: row has {len(digits)} digits")
    text = read_text(path, "simulation output")
    try:
        if text.lstrip().startswith(("[", "{")):
            rows = json.loads(text)
            record = rows[row]
            moments = {k: record[k] for k in ("var_p", "var_x", "cross")}
            for k, v in moments.items():
                # float() rejects the other non-numbers, but takes "3_0" and true
                if isinstance(v, (str, bool)):
                    raise TypeError(f"{k} is not a number: {json.dumps(v)}")
                moments[k] = float(v)
        else:
            lines = [ln for ln in text.split("\n") if ln and not ln.startswith("#")]
            header = lines[0].split(",")
            cells = lines[1:][row].split(",")
            moments = {k: float(cells[header.index(k)]) for k in ("var_p", "var_x", "cross")}
    # a row that is not an object, a null or huge moment, or JSON nested too deep
    except (IndexError, KeyError, ValueError, TypeError, OverflowError, RecursionError) as exc:
        raise ParameterError(f"cannot extract row {row} from {path!r}: {exc}")
    try:
        return GaussianState(**moments)
    except ParameterError as exc:
        raise ParameterError(f"row {row} of {path!r} is not a valid state: {exc}")


_CSV_TRACE_ROW = ("", ",", ",", "\n")
# a trace row in the layout of json.dumps(…, indent=2); ",\n" joins it to the next
_JSON_TRACE_ROW = (
    '    {\n      "t": ', ',\n      "intensity": ', ',\n      "inferred_x2": ', "\n    }"
)


def _cmd_readout(args, params: PhysicalParams) -> Iterator[str]:
    from ._rows import _float_rows  # lazy: the other commands start without it

    state = _state_from_args(args)
    cfg = ReadoutConfig(kappa=params.kappa, coupling=params.g, omega_m=params.omega_m)
    if args.free_evolution == "on":
        signal = free_x2_harmonics(state)
    else:
        # snapshot probe: x² held at the state's position variance
        signal = (state.var_x, 0.0, 0.0)
    trace = integrate_langevin(cfg, signal)
    report = analyze_trace(trace)
    columns = (trace.times, trace.intensity, trace.inferred_x2)
    summary = [
        ("dc_shift", _fmt(report.dc_shift)),
        ("ripple_amplitude", _fmt(report.ripple_amplitude)),
        ("kappa_over_2omega", _fmt(cfg.kappa / (2.0 * cfg.omega_m))),
        ("baseline", _fmt(baseline_intensity(cfg))),
    ]
    if args.format == "json":
        # the layout of json.dumps({"summary": …, "trace": […]}, indent=2);
        # integrate_langevin rejects non-finite values, so every text is a JSON number
        head = ",\n".join(f'    "{k}": {t}' for k, t in summary)
        first = ['{\n  "summary": {\n', head, '\n  },\n  "trace": [\n']
        rows, last = _float_rows(_JSON_TRACE_ROW, *columns, sep=",\n"), ["\n  ]\n}\n"]
    else:
        first = ["".join(f"# {k} = {t}\n" for k, t in summary), "t,intensity,inferred_x2\n"]
        rows, last = _float_rows(_CSV_TRACE_ROW, *columns), []
    # every check has run: each block of rows is formatted as main writes it
    return itertools.chain(first, rows, last)


def _parse_axis(text: str) -> SweepAxis:
    name, sep, rest = text.partition("=")
    if not sep or not rest:
        raise ParameterError(f"axis {text!r}: expected NAME=V1,V2,...")
    name = name.strip()
    try:
        values = tuple(float(v) for v in rest.split(","))
    except ValueError as exc:
        raise ParameterError(f"axis {name}: {exc}")
    # the config keys, so "lambda" and not the field name "wavelength"
    if name not in KEY_TO_FIELD and name != "delta_tau":
        raise ParameterError(f"unknown sweep parameter {name!r}")
    return SweepAxis(KEY_TO_FIELD.get(name, name), values)


# a cell in the layout of json.dumps([{"coords": …, "value": …, "error": …}, …], indent=2)
_JSON_SWEEP_CELL = '  {\n    "coords": {\n%s\n    },\n    "value": %s,\n    "error": %s\n  }'


def _cmd_sweep(args, params: PhysicalParams) -> list[str]:
    axes = tuple(_parse_axis(a) for a in args.axis)
    spec = SweepSpec(axes, params, args.observable, args.dissipation == "on")
    values, errors = _sweep_columns(spec)

    names = [FIELD_TO_KEY.get(a.name, a.name) for a in axes]
    # one _fmt text per coordinate and per value, which each format only lays
    # out: coordinates are formatted once per axis value and joined per cell in
    # the grid's product order; an error cell's value is nan: its row is
    # written, then replaced. Every other text is finite, so it is a JSON number.
    texts = [[_fmt(v) for v in a.values] for a in axes]
    if isinstance(values, list):  # the columns came without numpy: so does this path
        values = ["%.16e" % v for v in values]  # the bytes of _fmt
    else:
        from ._rows import _float_rows  # lazy: the other commands start without it
        values = "".join(_float_rows(("", "\n"), values))[:-1].split("\n")
    if args.format == "json":
        lines = [[f'      "{k}": {t}' for t in a] for k, a in zip(names, texts)]
        coords = [",\n".join(c) for c in itertools.product(*lines)]
        rows = [_JSON_SWEEP_CELL % (c, v, "null") for c, v in zip(coords, values)]
        for k, error in errors.items():
            rows[k] = _JSON_SWEEP_CELL % (coords[k], "null", json.dumps(error))
        return ["[\n", ",\n".join(rows), "\n]\n"]
    header = ",".join(names + [args.observable, "status"]) + "\n"
    coords = list(map("".join, itertools.product(*[[t + "," for t in a] for a in texts])))
    rows = [f"{c}{v},ok" for c, v in zip(coords, values)]
    for k, error in errors.items():
        rows[k] = coords[k] + "ERROR," + error.replace(",", ";")
    return [header, "\n".join(rows), "\n"]


_COMMANDS = {
    "constants": _cmd_constants,
    "simulate": _cmd_simulate,
    "readout": _cmd_readout,
    "sweep": _cmd_sweep,
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as ``ParameterError``, so it exits 2 with one
    ``error:`` line like any other bad input; keeps the value of ``--opt=--``
    as the text "--", where argparse stores [] unchecked.
    """

    def error(self, message):
        raise ParameterError(message)

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, and
    the ``append`` action copies its default list."""
    parser = _Parser(
        prog="quadkick",
        description="Pulse-squeezing simulator for a quadratically coupled nanomechanical oscillator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="parameter file (key = value lines)")
        p.add_argument("--out", help="output file path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    common(sub.add_parser("constants", help="derived quantities for a parameter set"))

    p_sim = sub.add_parser("simulate", help="evolve a thermal state through a pulse schedule")
    common(p_sim)
    p_sim.add_argument(
        "--schedule",
        default=DEFAULT_SCHEDULE,
        help="semicolon-separated segments kick[:photons] / free[:seconds] / diss[:seconds]",
    )
    p_sim.add_argument("--dissipation", choices=("on", "off"), default="off")

    p_read = sub.add_parser("readout", help="probe a state's position variance")
    common(p_read)
    p_read.add_argument("--var-p", dest="var_p", type=float, help="momentum variance")
    p_read.add_argument("--var-x", dest="var_x", type=float, help="position variance")
    p_read.add_argument("--cross", type=float, help="symmetrized cross moment (default: 0)")
    p_read.add_argument(
        "--from-simulation",
        dest="from_simulation",
        metavar="PATH[:ROW]",
        help="take the state from a simulate output row (default: last row)",
    )
    p_read.add_argument(
        "--free-evolution",
        dest="free_evolution",
        choices=("on", "off"),
        default="off",
        help="probe the freely evolving x²(t) instead of a snapshot at var_x",
    )

    p_sweep = sub.add_parser("sweep", help="evaluate an observable over a parameter grid")
    common(p_sweep)
    p_sweep.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME=V1,V2,...",
        help="swept parameter and values; repeat for a second axis",
    )
    p_sweep.add_argument("--observable", choices=OBSERVABLES, default="var_x")
    p_sweep.add_argument("--dissipation", choices=("on", "off"), default="off")
    return parser


def _error(message: str) -> None:
    """Write one ``error:`` line to stderr, unless it is closed or broken;
    the exit code reports the failure either way."""
    if sys.stderr is not None:  # None: the process started with fd 2 closed
        with contextlib.suppress(OSError):  # a pipe whose reader has closed
            print(f"error: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one command and write its output, to ``--out`` or stdout; return
    the exit code.

    A command runs every check before it hands back its output as chunks,
    so a rejected input opens and writes nothing. A readout's chunks are
    made lazily, one per block of trace rows, each formatted as it is
    written, so memory holds one block of text; the other commands return
    lists. A write error, also one midway through a trace, exits 3.
    """
    try:
        args = _build_parser().parse_args(argv)
        chunks = _COMMANDS[args.command](args, load_config(args.config))
    except ParameterError as exc:
        _error(str(exc))
        return 2
    except InvariantViolation as exc:
        _error(str(exc))
        return 4
    try:
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(chunks)
        elif sys.stdout is None:  # the process started with fd 1 closed
            raise OSError("stdout is closed")
        else:
            sys.stdout.writelines(chunks)
    except (OSError, ValueError) as exc:  # ValueError: a path with a NUL byte
        _error(f"cannot write output: {exc}")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
