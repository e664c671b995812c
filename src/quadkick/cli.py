"""Command-line interface: constants, simulate, readout, and sweep commands.

All output is deterministic: identical inputs produce byte-identical files.
Exit codes: 0 success, 2 config/spec parse or validation error, 3 output
I/O error, 4 runtime invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from typing import TYPE_CHECKING

from .config import FIELD_TO_KEY, KEY_TO_FIELD, load_config, read_text
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

if TYPE_CHECKING:
    import numpy as np

DEFAULT_SCHEDULE = "kick;free;kick"


def _fmt(x: float) -> str:
    # 17 significant digits: round-trip exact for doubles
    return format(float(x), ".16e")


_SCI_WIDTH = 24   # widest _fmt of a double: "-1.0000000000000000e-308"
_FIXED_WIDTH = 22  # _fmt of a value >= 0 with a two-digit exponent: "1.0000000000000000e-05"
_FMT_BLOCK_ROWS = 8192
_MAX_POW = 27     # the writers scale by 10**k for k = 0 … 27, and 5**27 < 2**63


@functools.cache
def _sci_tables() -> tuple[np.ndarray, ...]:
    """Lookup tables of ``_digit_words``, built on first use to keep start-up short.

    Each entry is the native uint32 view of a 4-byte ASCII string; NUL
    bytes pad a text on the left. The exponent words are indexed by k.
    """
    import numpy as np

    def words(strings):
        return np.frombuffer("".join(strings).encode("ascii"), dtype=np.uint32)

    return (
        words(f"{i:04d}" for i in range(10000)),
        words(f"e{16 - k:+03d}" for k in range(_MAX_POW + 1)),
        words(f"\0{s}{d}." for s in ("\0", "-") for d in range(10)),
    )


def _pow10_ceiling(d: int) -> float:
    """The smallest double that is not below 10**d."""
    v = float(f"1e{d}")  # correctly rounded
    a, b = v.as_integer_ratio()
    return v if a * 10 ** max(-d, 0) >= b * 10 ** max(d, 0) else math.nextafter(v, math.inf)


@functools.cache
def _exact_tables() -> tuple:
    """Tables of ``_sci_digits``, built on first use like ``_sci_tables``.

    Per biased exponent of [1e-11, 1e17): k and s = -(q + k) of the binade's
    lowest value, and the smallest double of the next decade if it lies in
    the binade (else inf). Per k: 5**k. Then the smallest double not below
    1e-11.
    """
    import numpy as np

    binade_k = np.zeros(2048, dtype=np.int64)
    binade_edge = np.full(2048, math.inf)
    for e2 in range(-37, 57):
        decade = len(str(2**e2)) - 1 if e2 >= 0 else -len(str(2**-e2))
        binade_k[e2 + 1023] = 16 - decade
        edge = _pow10_ceiling(decade + 1)
        if edge < 2.0 ** (e2 + 1):
            binade_edge[e2 + 1023] = edge
    binade_s = 1075 - np.arange(2048) - binade_k
    pow5 = np.array([5**k for k in range(_MAX_POW + 1)], dtype=np.uint64)
    return binade_k, binade_s, binade_edge, pow5, _pow10_ceiling(-11)


def _repr_layout(digits: str, decpt: int) -> str:
    """``repr``'s layout of the significant digits 0.ddd × 10**decpt."""
    if -4 < decpt <= 16:
        if decpt <= 0:
            return "0." + "0" * -decpt + digits
        if len(digits) <= decpt:
            return digits + "0" * (decpt - len(digits)) + ".0"
        return digits[:decpt] + "." + digits[decpt:]
    mantissa = digits[0] + ("." + digits[1:] if len(digits) > 1 else "")
    return f"{mantissa}e{decpt - 1:+03d}"


@functools.cache
def _repr_tables() -> np.ndarray:
    """Gather table of ``_repr_slots``, built on first use like ``_sci_tables``.

    Row k·17 + digits - 1 lists, for each of the _SCI_WIDTH output bytes,
    its byte in the source of the gather: the text right-aligned, NUL before it.
    """
    import numpy as np

    letters = "ABCDEFGHIJKLMNOPQ"
    # the source: NUL, sign, lead digit, '.', 16 digits, "e±XX" (repr's exponent
    # too), "0000"
    source = {"\0": 0, "-": 1, "A": 2, ".": 3, "0": 24}
    source.update((c, 3 + k) for k, c in enumerate(letters) if k)
    rows = []
    for k in range(_MAX_POW + 1):
        for n in range(1, 18):
            mantissa, e, _ = _repr_layout(letters[:n], 17 - k).partition("e")
            row = [source[c] for c in "-" + mantissa] + ([20, 21, 22, 23] if e else [])
            rows.append([0] * (_SCI_WIDTH - len(row)) + row)
    return np.array(rows, dtype=np.intp)


def _sci_digits(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The exact value of each |x| scaled to 17 digits before the point.

    Returns (n, frac, k, s, slow): |x|·10**k = n + frac/2**64 exactly, with
    n the uint64 in [1e16, 1e17), k in [0, 27] and s = -(q + k) in [-4, 62]
    as below. Where ``slow`` (0, subnormal, non-finite, or |x| outside
    [1e-11, 1e17)) the rest are fillers.

    |x| = m·2**q from the bits, and k = 16 - exp with exp the decade of |x|,
    exact from a table of binades, so |x|·10**k = m·5**k·2**-s. The product
    m·5**k < 2**116 is formed from 32-bit limbs whose products are exact in
    uint64 (as Ryu and Schubfach do for one value) and shifted right by s:
    n is above the point and frac below it. numpy's shifts by 64 bits or
    more give 0.
    """
    import numpy as np

    binade_k, binade_s, binade_edge, pow5, lowest = _exact_tables()
    mag = np.abs(x)
    slow = mag >= lowest
    slow &= mag < 1e17  # nan compares False
    np.logical_not(slow, out=slow)
    mag[slow] = 1.0
    bits = mag.view(np.int64)
    biased = bits >> 52
    upper = mag >= binade_edge[biased]  # in the binade's upper decade
    k = binade_k[biased]
    k -= upper
    s = binade_s[biased]
    s += upper
    t = np.maximum(s, 0)
    # s < 0 only for integers above 2**53: shift m left by -s instead
    left = t - s
    m = bits & (2**52 - 1)
    m |= 2**52
    m <<= left
    m, t = m.view(np.uint64), t.view(np.uint64)
    p0 = pow5[k]
    p1 = p0 >> 32
    p0 &= 0xFFFFFFFF
    m0 = m & 0xFFFFFFFF
    m1 = np.right_shift(m, 32, out=m)
    lo = m0 * p0
    mid = np.multiply(m1, p0, out=p0)
    mid += np.multiply(m0, p1, out=m0)   # < 2**53 + 2**63
    mid += lo >> 32
    hi = np.multiply(m1, p1, out=m1)
    lo &= 0xFFFFFFFF
    lo |= mid << 32
    hi += np.right_shift(mid, 32, out=mid)
    # the 128-bit hi·2**64 + lo, shifted right by t
    below = lo >> t
    t = np.subtract(64, t, out=t)
    n = np.left_shift(hi, t, out=hi)
    n |= below
    frac = np.left_shift(lo, t, out=lo)
    return n, frac, k, s, slow


def _digit_words(x: np.ndarray, digits: np.ndarray, k: np.ndarray, words: np.ndarray) -> None:
    """Write ``_fmt`` of each value of ``x``, given its 17 ``digits`` and
    ``k``, into ``words[:, :6]``: [NUL, sign, lead digit, '.'], the other
    16 digits, "e±XX". A value that is not negative leaves the sign NUL."""
    import numpy as np

    quads, exps, heads = _sci_tables()
    # a // by a constant is several times faster than % or divmod; numpy
    # gathers faster with intp indices, and every index here is below 10**4
    lead = digits // 10**16
    rest = digits - lead * 10**16
    for col, scale in ((1, 10**12), (2, 10**8), (3, 10**4)):
        quad = rest // scale
        words[:, col] = quads[quad.astype(np.intp)]
        rest -= quad * scale
    words[:, 4] = quads[rest.astype(np.intp)]
    lead += (x.view(np.uint64) >> 63) * 10
    words[:, 0] = heads[lead.astype(np.intp)]
    words[:, 5] = exps[k]


def _carry(digits: np.ndarray, k: np.ndarray) -> None:
    """Rounding up to 10**17 carries into the next decade: 10**16, one k less."""
    carry = digits == 10**17
    digits[carry] = 10**16
    k -= carry


def _splice(slots: np.ndarray, x: np.ndarray, slow: np.ndarray, text_of) -> None:
    """Write ``text_of(v)``, right-aligned, over the slot of each value of
    ``x`` that is ``slow``."""
    import numpy as np

    slow = np.flatnonzero(slow)
    if slow.size:
        text = "".join([text_of(v).rjust(_SCI_WIDTH, "\0") for v in x[slow].tolist()])
        slots[slow, :_SCI_WIDTH] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(
            -1, _SCI_WIDTH
        )


def _sci_slots(x: np.ndarray, out: np.ndarray) -> None:
    """Write ``_fmt`` of each value into ``out[:, :_SCI_WIDTH]``, right-aligned
    after NUL bytes.

    The 17 digits are those of ``_sci_digits`` rounded half to even, exactly
    as ``"%.16e"`` rounds; only its ``slow`` values go through ``_fmt``.
    """
    import numpy as np

    digits, frac, k, _, slow = _sci_digits(x)
    # frac's low bits are 0, so frac + 1 passes half only at a tie with odd digits
    digits += frac + (digits & 1) > 2**63
    _carry(digits, k)
    _digit_words(x, digits, k, out.view(np.uint32))
    _splice(out, x, slow, _fmt)


def _repr_slots(x: np.ndarray, out: np.ndarray) -> None:
    """Write ``repr`` of each value into ``out[:, :_SCI_WIDTH]``, right-aligned
    after NUL bytes.

    ``repr`` gives the shortest digits that read back as x, the nearest to x
    of those. From the exact n + frac/2**64 of ``_sci_digits``: the nearest
    15-digit decimal if it lies strictly within the half gap of x, else the
    nearest 16-digit one, else the 17 digits rounded (half a 17th digit is
    always within the half gap, which is over 0.55 of it). The half gap,
    ulp·10**k/2 = 5**k·2**(-s - 1), is split the same way into whole and
    part/2**64. Values whose answer hangs on a rule this does not follow go
    through ``repr``: an exact tie between two candidates, a candidate
    exactly on the interval's edge, and powers of two, whose lower gap is
    half the upper.
    """
    import numpy as np

    digits, frac, k, s, slow = _sci_digits(x)
    t = np.maximum(s, 0)
    pow5 = _exact_tables()[3]
    gap = pow5[k] << (t - s).view(np.uint64)
    t = t.view(np.uint64)
    gap_whole, gap_part = gap >> (t + 1), gap << (63 - t)
    chosen = digits.copy()
    settled = np.zeros(x.size, dtype=bool)
    above = frac != 0
    for step in (100, 10):
        quotient = digits // step
        rem = digits - quotient * step
        # the distance to the nearest multiple of step: whole + part/2**64
        up = (rem > step // 2) | ((rem == step // 2) & above)
        whole = np.where(up, step - rem - above, rem)
        part = np.where(up, 0 - frac, frac)
        edge = ~settled & (whole == gap_whole)
        slow |= edge & (part == gap_part)
        take = ~settled & ((whole < gap_whole) | (edge & (part < gap_part)))
        if step == 10:
            slow |= take & (rem == 5) & ~above
        chosen = np.where(take, (quotient + up) * step, chosen)
        settled |= take
    slow |= ~settled & (frac == 2**63)
    chosen += ~settled & (frac > 2**63)
    slow |= (x.view(np.int64) & (2**52 - 1)) == 0
    _carry(chosen, k)

    # the source of the gather: _fmt of the chosen digits, then "0000"
    src = np.empty((x.size, 7), dtype=np.uint32)
    _digit_words(x, chosen, k, src)
    src = src.view(np.uint8)
    src[:, _SCI_WIDTH:] = ord("0")
    # bytes 3..19 are '.' and 16 digits: the '.' ends the run of trailing '0's
    n_digits = 17 - np.argmax(src[:, 19:2:-1] != ord("0"), axis=1)
    gather = _repr_tables()[k * 17 + n_digits - 1]
    gather += np.arange(0, src.size, src.shape[1])[:, None]
    np.take(src.ravel(), gather, out=out[:, :_SCI_WIDTH])
    _splice(out, x, slow, repr)


def _fixed_width(slots: np.ndarray) -> bool:
    """Whether every text in ``slots`` is _FIXED_WIDTH bytes wide. Texts are
    right-aligned and hold no NUL, so each must start at byte ``lead``, after
    a NUL."""
    import numpy as np

    lead = _SCI_WIDTH - _FIXED_WIDTH
    before, first = np.count_nonzero(slots[:, lead - 1]), np.count_nonzero(slots[:, lead])
    return bool(before == 0 and first == len(slots))


def _float_rows(slots_of, parts: tuple[str, ...], *columns: np.ndarray) -> list[str]:
    """Rows ``parts[0] + f(a) + parts[1] + f(b) + … + parts[-1]`` of float
    columns, one string per block of rows, where ``slots_of(x, out)`` writes
    f of each value of ``x`` into ``out[:, :_SCI_WIDTH]``, right-aligned
    after NUL bytes (``_sci_slots`` for ``_fmt``, ``_repr_slots`` for ``repr``).

    A block whose texts are all _FIXED_WIDTH bytes wide is built by copying
    each slot's fixed window, the text and the part after it, into one row
    buffer. Every block of a readout CSV trace is one: its values are never
    negative. A block with a negative value or a text of another width
    (negative sweep coordinates, the JSON writer's texts) drops the NUL
    bytes of its slots instead.
    """
    import numpy as np

    # Each value's slot ends with the part after it, NUL-padded to whole
    # words; a row's first part ends the slot of the last value before it.
    after = [*parts[1:-1], parts[-1] + parts[0]]
    pad = -(-max(map(len, after)) // 4) * 4
    tails = b"".join(a.encode("ascii").ljust(pad, b"\0") for a in after)
    tails = np.frombuffer(tails, np.uint32).reshape(len(after), -1)
    width = _SCI_WIDTH + pad
    table = np.column_stack(columns)
    n_rows = min(len(table), _FMT_BLOCK_ROWS)
    # one buffer for every block, as a fresh one per block costs page faults;
    # slots_of writes only the texts, so the parts are written once
    buf = np.empty((n_rows, len(after), width), dtype=np.uint8)
    buf.view(np.uint32)[:, :, _SCI_WIDTH // 4 :] = tails
    # a fixed window: bytes lead … _SCI_WIDTH + len(a) of a slot
    lead = _SCI_WIDTH - _FIXED_WIDTH
    sizes = [_FIXED_WIDTH + len(a) for a in after]
    starts = list(itertools.accumulate(sizes, initial=0))
    rows = None  # made on first use: an unused row buffer still costs page faults
    blocks = []
    for i in range(0, len(table), _FMT_BLOCK_ROWS):
        x = table[i : i + _FMT_BLOCK_ROWS]
        slots = buf[: len(x)]
        texts = slots.reshape(-1, width)
        slots_of(x.ravel(), texts)
        if _fixed_width(texts):
            if rows is None:
                rows = np.empty((n_rows, starts[-1]), dtype=np.uint8)
            block = rows[: len(x)]
            for j, (start, size) in enumerate(zip(starts, sizes)):
                # one void item per window: numpy copies it whole, not byte by byte
                window = np.dtype((np.void, size))
                source = slots[:, j, lead : lead + size]
                block[:, start : start + size].view(window)[...] = source.view(window)
        else:
            block = slots.ravel()
            block = block[block != 0]
        blocks.append(str(block.data, "ascii"))
    if blocks:
        blocks[0] = parts[0] + blocks[0]
        blocks[-1] = blocks[-1][: len(blocks[-1]) - len(parts[0])]
    return blocks


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
    if args.format == "json":
        return [json.dumps({k: v for k, v in rows}, indent=2), "\n"]
    return ["key,value\n", "".join(f"{k},{_fmt(v)}\n" for k, v in rows)]


# a row of json.dumps([{"index": …, "kind": …, …}, …], indent=2)
_JSON_SIMULATE_ROW = (
    '  {\n    "index": %d,\n    "kind": "%s",\n    "duration": %r,\n    "var_p": %r,\n'
    '    "var_x": %r,\n    "cross": %r,\n    "det_cov": %r,\n    "x_squeezed": %s\n  }'
)


def _cmd_simulate(args, params: PhysicalParams) -> list[str]:
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
        # the bytes of json.dumps([dict(zip(header, row)), …], indent=2): segment
        # durations and state moments are checked finite, so repr is their JSON text
        cells = [
            _JSON_SIMULATE_ROW % (*values, "true" if x_squeezed else "false")
            for *values, x_squeezed in rows
        ]
        return ["[\n", ",\n".join(cells), "\n]\n"]
    out = [",".join(header) + "\n"]
    for *values, x_squeezed in rows:
        # "%.16e" writes the bytes of _fmt
        out.append("%d,%s,%.16e,%.16e,%.16e,%.16e,%.16e,%s\n" % (*values, str(x_squeezed).lower()))
    # one chunk: a write per row costs more than the join
    return ["".join(out)]


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
# a trace row of json.dumps(…, indent=2), and the ",\n" that joins it to the next
_JSON_TRACE_ROW = ('    {\n      "t": ', ',\n      "intensity": ', ',\n      "inferred_x2": ', "\n    },\n")


def _cmd_readout(args, params: PhysicalParams) -> list[str]:
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

    columns = (trace.times, trace.intensity, trace.inferred_x2)
    summary = {
        "dc_shift": report.dc_shift,
        "ripple_amplitude": report.ripple_amplitude,
        "kappa_over_2omega": report.kappa_over_2omega,
        "baseline": trace.baseline,
    }
    if args.format == "json":
        # the bytes of json.dumps({"summary": …, "trace": […]}, indent=2): _repr_slots
        # writes repr's digits, which are a finite float's JSON text, and
        # integrate_langevin rejects non-finite ones
        head = json.dumps({"summary": summary}, indent=2)[: -len("\n}")]
        body = _float_rows(_repr_slots, _JSON_TRACE_ROW, *columns)
        body[-1] = body[-1][: -len(",\n")]
        return [head, ',\n  "trace": [\n', *body, "\n  ]\n}\n"]
    head = "".join(f"# {k} = {_fmt(v)}\n" for k, v in summary.items())
    return [head, "t,intensity,inferred_x2\n", *_float_rows(_sci_slots, _CSV_TRACE_ROW, *columns)]


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


# a cell of json.dumps([{"coords": …, "value": …, "error": …}, …], indent=2)
_JSON_SWEEP_CELL = '  {\n    "coords": {\n%s\n    },\n    "value": %s,\n    "error": %s\n  }'


def _cmd_sweep(args, params: PhysicalParams) -> list[str]:
    axes = tuple(_parse_axis(a) for a in args.axis)
    spec = SweepSpec(axes, params, args.observable, args.dissipation == "on")
    cells = sweep(spec)

    names = [FIELD_TO_KEY.get(a.name, a.name) for a in axes]
    if args.format == "json":
        # the bytes of json.dumps: repr is a finite float's JSON text, and
        # every coordinate and value is finite
        errors = cells.errors
        lines = [[f"      {json.dumps(k)}: {v!r}" for v in a.values] for k, a in zip(names, axes)]
        rows = [
            _JSON_SWEEP_CELL % (
                ",\n".join(coords),
                *(("null", json.dumps(errors[k])) if k in errors else (repr(float(v)), "null")),
            )
            for k, (coords, v) in enumerate(zip(itertools.product(*lines), cells.values))
        ]
        return ["[\n", ",\n".join(rows), "\n]\n"]
    header = ",".join(names + [args.observable, "status"]) + "\n"
    # each coordinate formatted once; the cells are in the grid's product order
    texts = [[_fmt(v) for v in a.values] for a in axes]
    if args.observable == "pulses_needed":
        # no numpy on this path: "%.16e" writes the bytes of _fmt, one row at a time
        rows = ["%s,%.16e,ok" % (",".join(c), v) for c, v in zip(itertools.product(*texts), cells.values)]
    else:
        import numpy as np

        columns = [c.ravel() for c in np.meshgrid(*[a.values for a in axes], indexing="ij")]
        parts = ("",) + (",",) * len(axes) + (",ok\n",)
        blocks = _float_rows(_sci_slots, parts, *columns, cells.values)
        if not cells.errors:
            return [header, *blocks]
        # splitting and rewriting by index beats a join that swaps rows in
        rows = "".join(blocks)[:-1].split("\n")
    # an error cell's value is nan: its row is rewritten
    for k, error in cells.errors.items():
        coords = ",".join(t[i] for t, i in zip(texts, cells.grid_index(k)))
        rows[k] = coords + ",ERROR," + error.replace(",", ";")
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


def main(argv=None) -> int:
    """Run one command and write its output, to ``--out`` or stdout; return
    the exit code.

    A command hands back its output as a list of chunks (a readout trace is
    one chunk per block of rows), built in full before anything is opened,
    so a rejected input writes nothing. The chunks are written in order.
    """
    try:
        args = _build_parser().parse_args(argv)
        chunks = _COMMANDS[args.command](args, load_config(args.config))
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
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
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
