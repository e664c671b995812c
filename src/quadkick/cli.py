"""Command-line interface: constants, simulate, readout, and sweep commands.

All output is deterministic: identical inputs produce byte-identical files.
Exit codes: 0 success, 2 config/spec parse or validation error, 3 output
I/O error, 4 runtime invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .config import FIELD_TO_KEY, KEY_TO_FIELD, load_config
from .errors import InvariantViolation, ParameterError
from .kicks import (
    Dissipate,
    Free,
    Kick,
    PhysicalParams,
    PulseSchedule,
    apply_schedule,
    coupling_from_physical,
    effective_stiffness,
    optimal_kick_duration,
    quarter_period,
)
from .planner import OBSERVABLES, SweepAxis, SweepSpec, sweep
from .readout import analyze_trace, default_readout_config, integrate_langevin
from .state import GaussianState, free_x2_expectation, is_squeezed, thermal_state

DEFAULT_SCHEDULE = "kick;free;kick"


def _fmt(x: float) -> str:
    # 17 significant digits: round-trip exact for doubles
    return format(float(x), ".16e")


_SCI_WIDTH = 24   # widest _fmt of a double: "-1.0000000000000000e-308"
_FMT_BLOCK_ROWS = 8192
_MAX_POW = 27     # 10**k is exact in a 64-bit significand up to k = 27 (5**27 < 2**63)
# The vectorised path of _fmt_rows scales by 10**k in a long double with at
# least a 64-bit significand (x87 extended on x86-64); where long double is
# narrower, every value goes through "%.16e".
_FAST_SCI = np.finfo(np.longdouble).nmant >= 63 and np.longdouble(1) + np.longdouble(2.0**-63) > 1


@functools.cache
def _sci_tables() -> tuple[np.ndarray, ...]:
    """Lookup tables of ``_fmt_block``, built on first use to keep start-up short.

    Each entry is the native uint32 view of a 4-byte ASCII string; NUL
    bytes are dropped from the output.
    """

    def words(strings):
        return np.frombuffer("".join(strings).encode("ascii"), dtype=np.uint32)

    return (
        np.cumprod(np.full(_MAX_POW + 1, 10, dtype=np.longdouble)) / 10,  # 10**0 … 10**27
        words(f"{i:04d}" for i in range(10000)),
        words(f"e{e:+03d}" for e in range(16 - _MAX_POW, 17)),
        words(f"{s}\0{d}." for s in ("\0", "-") for d in range(10)),
        words((",\0\0\0", "\n\0\0\0")),
    )


def _fmt_rows(*columns: np.ndarray) -> list[str]:
    """CSV rows of float columns, one string per block of rows; joined, they
    are the same bytes as joining ``_fmt`` of each value.

    Values in [1e-11, 1e17) are rounded to 17 digits with numpy, a block at
    a time; the rest, and any value within 0.006 units of the 17th digit of
    a tie, go through ``_fmt`` one by one.
    """
    table = np.column_stack(columns)
    return [
        _fmt_block(table[i : i + _FMT_BLOCK_ROWS])
        for i in range(0, len(table), _FMT_BLOCK_ROWS)
    ]


def _fmt_block(x: np.ndarray) -> str:
    pow10, quads, exps, heads, seps = _sci_tables()
    n_rows, n_cols = x.shape
    x = x.ravel()
    # 28 bytes per value: [sign, NUL, lead digit, '.'], 16 digits, "e±XX", separator;
    # the fast path or the slow path below writes the first 24 of every slot
    words = np.empty((x.size, 7), dtype=np.uint32)
    words[:, 6] = np.tile(seps[[0] * (n_cols - 1) + [1]], n_rows)
    fast = np.zeros(x.size, dtype=bool)
    if _FAST_SCI:
        with np.errstate(all="ignore"):
            mag = np.abs(x)
            est = np.floor(np.log10(mag))
            ok = (est >= 16 - _MAX_POW) & (est <= 16)
            exp = np.where(ok, est, 0.0).astype(np.int64)
            # mag·10**(16 - exp) to 64 bits is off by at most 1e17·2**-64 < 0.0055,
            # so rint gives the correctly rounded 17 digits unless near a tie
            scaled = mag * pow10[16 - exp]
            nearest = np.rint(scaled)
            off = np.abs((scaled - nearest).astype(np.float64))
            # log10 can miss the decade next to a power of ten: such values,
            # like near-ties, take the slow path
            fast = ok & (scaled >= 1e16) & (nearest < 1e17) & (off < 0.494)
        digits = np.where(fast, nearest, 1e16).astype(np.int64)
        lead, rest = np.divmod(digits, 10**16)
        words[:, 0] = heads[lead + 10 * (x < 0)]
        for col, scale in ((1, 10**12), (2, 10**8), (3, 10**4)):
            quad, rest = np.divmod(rest, scale)
            words[:, col] = quads[quad]
        words[:, 4] = quads[rest]
        words[:, 5] = exps[exp - (16 - _MAX_POW)]
    buf = words.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = "".join([_fmt(v).ljust(_SCI_WIDTH, "\0") for v in x[slow].tolist()])
        buf[slow, :_SCI_WIDTH] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(
            -1, _SCI_WIDTH
        )
    flat = buf.ravel()
    return flat[flat != 0].tobytes().decode("ascii")


def parse_schedule(spec: str, params: PhysicalParams, with_dissipation: bool = False) -> PulseSchedule:
    """Build a schedule from the mini-grammar ``kick[:photons];free[:s];diss[:s]``.

    Omitted values fall back to the optimal kick duration and the quarter
    mechanical period.  ``with_dissipation`` inserts a thermal-contact
    segment of matching length after every free segment.
    """
    segments: list = []
    tau_default = quarter_period(params.omega_m)
    for pos, token in enumerate(t.strip() for t in spec.split(";")):
        if not token:
            continue
        kind, _, arg = token.partition(":")
        kind = kind.strip().lower()
        try:
            if kind == "kick":
                n_p = float(arg) if arg else None
                g_tilde = effective_stiffness(
                    params.g, params.n_p if n_p is None else n_p, params.omega_m
                )
                segments.append(Kick(optimal_kick_duration(g_tilde, params.omega_m), n_p))
            elif kind == "free":
                duration = float(arg) if arg else tau_default
                segments.append(Free(duration))
                if with_dissipation:
                    segments.append(Dissipate(duration))
            elif kind == "diss":
                segments.append(Dissipate(float(arg) if arg else tau_default))
            else:
                raise ParameterError(f"unknown kind {kind!r}")
        except ValueError as exc:
            raise ParameterError(f"schedule segment {pos}: {exc}")
    return PulseSchedule(tuple(segments))


def _cmd_constants(args) -> str:
    params = load_config(args.config)
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
    if args.format == "json":
        return json.dumps({k: v for k, v in rows}, indent=2) + "\n"
    return "key,value\n" + "".join(f"{k},{_fmt(v)}\n" for k, v in rows)


def _cmd_simulate(args) -> str:
    params = load_config(args.config)
    schedule = parse_schedule(args.schedule, params, args.dissipation == "on")
    initial = thermal_state(params.occupancy())
    folded = apply_schedule(initial, schedule, params)

    header = ("index", "kind", "duration", "var_p", "var_x", "cross", "det_cov", "x_squeezed")
    kinds = ["initial"] + [seg.kind for seg in schedule.segments]
    durations = [0.0] + [seg.duration for seg in schedule.segments]
    rows = [
        (index, kind, duration, s.var_p, s.var_x, s.cross, s.det_cov, is_squeezed(s)[0])
        for (index, s), kind, duration in zip(folded, kinds, durations)
    ]
    if args.format == "json":
        return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    out = [",".join(header) + "\n"]
    for *values, x_squeezed in rows:
        # "%.16e" writes the bytes of _fmt
        out.append("%d,%s,%.16e,%.16e,%.16e,%.16e,%.16e,%s\n" % (*values, str(x_squeezed).lower()))
    return "".join(out)


def _state_from_args(args) -> GaussianState:
    if args.from_simulation is not None:
        if args.var_p is not None or args.var_x is not None:
            raise ParameterError("give either --from-simulation or explicit variances, not both")
        return _state_from_simulation(args.from_simulation)
    if args.var_p is None or args.var_x is None:
        raise ParameterError("readout needs --var-p and --var-x, or --from-simulation")
    try:
        return GaussianState(var_p=args.var_p, var_x=args.var_x, cross=args.cross)
    except ParameterError as exc:
        raise ParameterError(f"invalid state: {exc}")


def _state_from_simulation(ref: str) -> GaussianState:
    path, row = ref, -1
    head, sep, tail = ref.rpartition(":")
    if sep and tail.lstrip("-").isdigit():
        path, row = head, int(tail)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read simulation output {path!r}: {exc}")
    try:
        if text.lstrip().startswith(("[", "{")):
            rows = json.loads(text)
            record = rows[row]
            moments = {k: float(record[k]) for k in ("var_p", "var_x", "cross")}
        else:
            lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
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


_JSON_TRACE_ROW = '    {\n      "t": %r,\n      "intensity": %r,\n      "inferred_x2": %r\n    }'


def _cmd_readout(args) -> str:
    params = load_config(args.config)
    state = _state_from_args(args)
    cfg = default_readout_config(
        kappa=params.kappa, coupling=params.g, omega_m=params.omega_m
    )
    if args.free_evolution == "on":
        x2_of_t = lambda t: free_x2_expectation(state, params.omega_m, t)
    else:
        # snapshot probe: x² held at the state's position variance
        x2_of_t = lambda t: state.var_x
    trace = integrate_langevin(cfg, x2_of_t)
    report = analyze_trace(trace, cfg, params.omega_m)

    summary = {
        "dc_shift": report.dc_shift,
        "ripple_amplitude": report.ripple_amplitude,
        "kappa_over_2omega": report.kappa_over_2omega,
        "baseline": trace.baseline,
    }
    if args.format == "json":
        # the bytes of json.dumps({"summary": …, "trace": […]}, indent=2): "%r" of a
        # finite float is its JSON text, and integrate_langevin rejects non-finite ones
        head = json.dumps({"summary": summary}, indent=2)[: -len("\n}")]
        rows = zip(trace.times.tolist(), trace.intensity.tolist(), trace.inferred_x2.tolist())
        body = ",\n".join([_JSON_TRACE_ROW % row for row in rows])
        return head + ',\n  "trace": [\n' + body + "\n  ]\n}\n"
    out = [f"# {k} = {_fmt(v)}\n" for k, v in summary.items()]
    out.append("t,intensity,inferred_x2\n")
    out += _fmt_rows(trace.times, trace.intensity, trace.inferred_x2)
    return "".join(out)


def _parse_axis(text: str) -> SweepAxis:
    name, sep, rest = text.partition("=")
    if not sep or not rest:
        raise ParameterError(f"axis {text!r}: expected NAME=V1,V2,...")
    name = name.strip()
    field = KEY_TO_FIELD.get(name, name)
    try:
        values = tuple(float(v) for v in rest.split(","))
    except ValueError as exc:
        raise ParameterError(f"axis {name}: {exc}")
    return SweepAxis(field, values)


def _cmd_sweep(args) -> str:
    params = load_config(args.config)
    axes = tuple(_parse_axis(a) for a in args.axis)
    spec = SweepSpec(axes, params, args.observable, args.dissipation == "on")
    cells = sweep(spec)

    names = [FIELD_TO_KEY.get(a.name, a.name) for a in axes]
    if args.format == "json":
        payload = [
            {
                "coords": {FIELD_TO_KEY.get(k, k): v for k, v in cell.coords},
                "value": cell.value,
                "error": cell.error,
            }
            for cell in cells
        ]
        return json.dumps(payload, indent=2) + "\n"
    out = [",".join(names + [args.observable, "status"])]
    for cell in cells:
        coords = [_fmt(v) for _, v in cell.coords]
        if cell.error is None:
            out.append(",".join(coords + [_fmt(cell.value), "ok"]))
        else:
            out.append(",".join(coords + ["ERROR", cell.error.replace(",", ";")]))
    return "\n".join(out) + "\n"


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


def _build_parser() -> argparse.ArgumentParser:
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
    p_read.add_argument("--cross", type=float, default=0.0, help="symmetrized cross moment")
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


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        text = _COMMANDS[args.command](args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    try:
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
