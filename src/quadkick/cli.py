"""Command-line interface: constants, simulate, readout, and sweep commands.

All output is deterministic: identical inputs produce byte-identical files.
Exit codes: 0 success, 2 config/spec parse or validation error, 3 output
I/O error, 4 runtime invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import FIELD_TO_KEY, KEY_TO_FIELD, load_config
from .errors import ConfigError, InvariantViolation, ParameterError
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


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


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
                raise ConfigError(f"schedule segment {pos}: unknown kind {kind!r}")
        except (ValueError, ParameterError) as exc:
            raise ConfigError(f"schedule segment {pos}: {exc}")
    return PulseSchedule(tuple(segments), label=spec)


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

    rows = []
    kinds = ["initial"] + [seg.kind for seg in schedule.segments]
    durations = [0.0] + [seg.duration for seg in schedule.segments]
    for (index, state), kind, duration in zip(folded, kinds, durations):
        rows.append(
            {
                "index": index,
                "kind": kind,
                "duration": duration,
                "var_p": state.var_p,
                "var_x": state.var_x,
                "cross": state.cross,
                "det_cov": state.det_cov,
                "x_squeezed": is_squeezed(state)[0],
            }
        )
    if args.format == "json":
        return json.dumps(rows, indent=2) + "\n"
    out = ["index,kind,duration,var_p,var_x,cross,det_cov,x_squeezed"]
    for r in rows:
        out.append(
            f"{r['index']},{r['kind']},{_fmt(r['duration'])},{_fmt(r['var_p'])},"
            f"{_fmt(r['var_x'])},{_fmt(r['cross'])},{_fmt(r['det_cov'])},"
            f"{_fmt_bool(r['x_squeezed'])}"
        )
    return "\n".join(out) + "\n"


def _state_from_args(args) -> GaussianState:
    if args.from_simulation is not None:
        if args.var_p is not None or args.var_x is not None:
            raise ConfigError("give either --from-simulation or explicit variances, not both")
        return _state_from_simulation(args.from_simulation)
    if args.var_p is None or args.var_x is None:
        raise ConfigError("readout needs --var-p and --var-x, or --from-simulation")
    try:
        return GaussianState(var_p=args.var_p, var_x=args.var_x, cross=args.cross)
    except ParameterError as exc:
        raise ConfigError(f"invalid state: {exc}")


def _state_from_simulation(ref: str) -> GaussianState:
    path, row = ref, -1
    head, sep, tail = ref.rpartition(":")
    if sep and tail.lstrip("-").isdigit():
        path, row = head, int(tail)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read simulation output {path!r}: {exc}")
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
    except (IndexError, KeyError, ValueError) as exc:
        raise ConfigError(f"cannot extract row {row} from {path!r}: {exc}")
    try:
        return GaussianState(**moments)
    except ParameterError as exc:
        raise ConfigError(f"row {row} of {path!r} is not a valid state: {exc}")


def _cmd_readout(args) -> str:
    params = load_config(args.config)
    state = _state_from_args(args)
    if params.g <= 0.0:
        raise ConfigError("field g: readout needs a positive coupling")
    cfg = default_readout_config(
        kappa=params.kappa, coupling=params.g, omega_m=params.omega_m
    )
    if args.free_evolution == "on":
        x2_of_t = lambda t: free_x2_expectation(state, params.omega_m, t - cfg.t_start)
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
        payload = {
            "summary": summary,
            "trace": [
                {"t": t, "intensity": i, "inferred_x2": v}
                for t, i, v in zip(trace.times, trace.intensity, trace.inferred_x2)
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    out = [f"# {k} = {_fmt(v)}" for k, v in summary.items()]
    out.append("t,intensity,inferred_x2")
    for t, i, v in zip(trace.times, trace.intensity, trace.inferred_x2):
        out.append(f"{_fmt(t)},{_fmt(i)},{_fmt(v)}")
    return "\n".join(out) + "\n"


def _parse_axis(text: str) -> SweepAxis:
    name, sep, rest = text.partition("=")
    if not sep or not rest:
        raise ConfigError(f"axis {text!r}: expected NAME=V1,V2,...")
    name = name.strip()
    field = KEY_TO_FIELD.get(name, name)
    try:
        values = tuple(float(v) for v in rest.split(","))
    except ValueError as exc:
        raise ConfigError(f"axis {name}: {exc}")
    try:
        return SweepAxis(field, values)
    except ParameterError as exc:
        raise ConfigError(str(exc))


def _cmd_sweep(args) -> str:
    params = load_config(args.config)
    axes = tuple(_parse_axis(a) for a in args.axis)
    try:
        spec = SweepSpec(
            axes=axes,
            base=params,
            observable=args.observable,
            include_dissipation=args.dissipation == "on",
        )
    except ParameterError as exc:
        raise ConfigError(str(exc))
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    args = _build_parser().parse_args(argv)
    try:
        text = _COMMANDS[args.command](args)
    except (ConfigError, ParameterError) as exc:
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
