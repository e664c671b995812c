"""The block row writer: float columns as text rows with the bytes of ``"%.16e"``
(``cli._fmt``), for CSV and JSON alike. The CLI's only numpy code, a leaf that
builds its tables at import: ``cli`` imports it on first use, in ``readout`` and
a sweep whose values are an array, so the other commands start without numpy.
"""

import itertools
import math
from collections.abc import Iterator

import numpy as np

_SCI_WIDTH = 24   # widest text of a double: "-1.0000000000000000e-308"
_FIXED_WIDTH = 22  # text of a value >= 0 with a two-digit exponent: "1.0000000000000000e-05"
# a 3-column block's float64 temporaries are 96 KiB, below glibc's default
# 128 KiB mmap threshold, so malloc reuses them instead of mapping each anew
_FMT_BLOCK_ROWS = 4096
_MAX_POW = 27     # the writer scales by 10**k for k = 0 … 27, and 5**27 < 2**63


def _words(strings) -> np.ndarray:
    """The native uint32 view of 4-byte ASCII strings, one word each."""
    return np.frombuffer("".join(strings).encode("ascii"), dtype=np.uint32)


# the lookup tables of _digit_words: NUL bytes pad a text on the left, and
# the exponent words are indexed by k
_QUADS = _words(f"{i:04d}" for i in range(10000))
_EXPS = _words(f"e{16 - k:+03d}" for k in range(_MAX_POW + 1))
_HEADS = _words(f"\0{s}{d}." for s in ("\0", "-") for d in range(10))


def _pow10_ceiling(d: int) -> float:
    """The smallest double that is not below 10**d."""
    v = float(f"1e{d}")  # correctly rounded
    a, b = v.as_integer_ratio()
    return v if a * 10 ** max(-d, 0) >= b * 10 ** max(d, 0) else math.nextafter(v, math.inf)


def _exact_tables() -> tuple:
    """The tables of ``_sci_digits``.

    Per biased exponent of [1e-11, 1e17): k and s = -(q + k) of the binade's
    lowest value, and the smallest double of the next decade if it lies in
    the binade (else inf). Per k: 5**k. Then the smallest double not below
    1e-11.
    """
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


_BINADE_K, _BINADE_S, _BINADE_EDGE, _POW5, _LOWEST = _exact_tables()


def _sci_digits(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The exact value of each |x| scaled to 17 digits before the point.

    Returns (n, frac, k, slow): |x|·10**k = n + frac/2**64 exactly, with
    n the uint64 in [1e16, 1e17) and k in [0, 27]. Where ``slow`` (0, subnormal, non-finite, or |x| outside
    [1e-11, 1e17)) the rest are fillers.

    |x| = m·2**q from the bits, and k = 16 - exp with exp the decade of |x|,
    exact from a table of binades, so |x|·10**k = m·5**k·2**-s with
    s = -(q + k) in [-4, 62]. The product
    m·5**k < 2**116 is formed from 32-bit limbs whose products are exact in
    uint64 (as Ryu and Schubfach do for one value) and shifted right by s:
    n is above the point and frac below it. numpy's shifts by 64 bits or
    more give 0.
    """
    mag = np.abs(x)
    slow = mag >= _LOWEST
    slow &= mag < 1e17  # nan compares False
    np.logical_not(slow, out=slow)
    mag[slow] = 1.0
    bits = mag.view(np.int64)
    biased = bits >> 52
    upper = mag >= _BINADE_EDGE[biased]  # in the binade's upper decade
    k = _BINADE_K[biased]
    k -= upper
    s = _BINADE_S[biased]
    s += upper
    t = np.maximum(s, 0)
    # s < 0 only for integers above 2**53: shift m left by -s instead
    left = t - s
    m = bits & (2**52 - 1)
    m |= 2**52
    m <<= left
    m, t = m.view(np.uint64), t.view(np.uint64)
    p0 = _POW5[k]
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
    return n, frac, k, slow


def _digit_words(x: np.ndarray, digits: np.ndarray, k: np.ndarray, words: np.ndarray) -> None:
    """Write the text of each value of ``x``, given its 17 ``digits`` and
    ``k``, into ``words[:, :6]``: [NUL, sign, lead digit, '.'], the other
    16 digits, "e±XX". A value that is not negative leaves the sign NUL."""
    # a // by a constant is several times faster than % or divmod; numpy
    # gathers faster with intp indices, and every index here is below 10**4
    lead = digits // 10**16
    rest = digits - lead * 10**16
    for col, scale in ((1, 10**12), (2, 10**8), (3, 10**4)):
        quad = rest // scale
        words[:, col] = _QUADS[quad.astype(np.intp)]
        rest -= quad * scale
    words[:, 4] = _QUADS[rest.astype(np.intp)]
    lead += (x.view(np.uint64) >> 63) * 10
    words[:, 0] = _HEADS[lead.astype(np.intp)]
    words[:, 5] = _EXPS[k]


def _splice(slots: np.ndarray, x: np.ndarray, slow: np.ndarray) -> None:
    """Write the text, right-aligned, over the slot of each value of ``x``
    that is ``slow``."""
    slow = np.flatnonzero(slow)
    if slow.size:
        text = "".join([("%.16e" % v).rjust(_SCI_WIDTH, "\0") for v in x[slow].tolist()])
        slots[slow, :_SCI_WIDTH] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(
            -1, _SCI_WIDTH
        )


def _sci_slots(x: np.ndarray, out: np.ndarray) -> None:
    """Write the text of each value into ``out[:, :_SCI_WIDTH]``, right-aligned
    after NUL bytes.

    The 17 digits are those of ``_sci_digits`` rounded half to even, exactly
    as ``"%.16e"`` rounds; only its ``slow`` values go through ``_splice``.
    """
    digits, frac, k, slow = _sci_digits(x)
    # frac's low bits are 0, so frac + 1 passes half only at a tie with odd digits
    digits += frac + (digits & 1) > 2**63
    # rounding up to 10**17 carries into the next decade: 10**16, one k less
    carry = digits == 10**17
    digits[carry] = 10**16
    k -= carry
    _digit_words(x, digits, k, out.view(np.uint32))
    _splice(out, x, slow)


def _fixed_width(slots: np.ndarray) -> bool:
    """Whether every text in ``slots`` is _FIXED_WIDTH bytes wide. Texts are
    right-aligned and hold no NUL, so each must start at byte ``lead``, after
    a NUL."""
    lead = _SCI_WIDTH - _FIXED_WIDTH
    before, first = np.count_nonzero(slots[:, lead - 1]), np.count_nonzero(slots[:, lead])
    return bool(before == 0 and first == len(slots))


def _float_rows(parts: tuple[str, ...], *columns: np.ndarray, sep: str = "") -> Iterator[str]:
    """Rows ``parts[0] + f(a) + parts[1] + f(b) + … + parts[-1]`` of float
    columns, joined by ``sep``, with f(v) = ``"%.16e" % v``: the first row's
    ``parts[0]``, then one string per block of rows, each made when it is
    asked for, so that one block's text is held at a time. The last block
    ends with the final row's ``parts[-1]``, without ``sep``.

    A block whose texts are all _FIXED_WIDTH bytes wide is built by copying
    each slot's fixed window, the text and the part after it, into one row
    buffer. Every block of a readout trace is one, CSV or JSON: its values
    are never negative. A block with a negative value or a text of another
    width (the nan of a sweep's ERROR cell) drops the NUL bytes of its slots
    instead.
    """
    # Each value's slot ends with the part after it, NUL-padded to whole
    # words; a row's separator and first part end the slot of the last value
    # before it.
    after = [*parts[1:-1], parts[-1] + sep + parts[0]]
    pad = -(-max(map(len, after)) // 4) * 4
    tails = b"".join(a.encode("ascii").ljust(pad, b"\0") for a in after)
    tails = np.frombuffer(tails, np.uint32).reshape(len(after), -1)
    width = _SCI_WIDTH + pad
    n_total = len(columns[0])
    n_rows = min(n_total, _FMT_BLOCK_ROWS)
    # one buffer for every block, as a fresh one per block costs page faults;
    # _sci_slots writes only the texts, so the parts are written once
    buf = np.empty((n_rows, len(after), width), dtype=np.uint8)
    buf.view(np.uint32)[:, :, _SCI_WIDTH // 4 :] = tails
    # a fixed window: bytes lead … _SCI_WIDTH + len(a) of a slot
    lead = _SCI_WIDTH - _FIXED_WIDTH
    sizes = [_FIXED_WIDTH + len(a) for a in after]
    starts = list(itertools.accumulate(sizes, initial=0))
    rows = None  # made on first use: an unused row buffer still costs page faults
    if n_total:
        yield parts[0]  # a chunk of its own: prefixing it would copy the first block
    for i in range(0, n_total, _FMT_BLOCK_ROWS):
        # a block's values only: a copy of the whole table faults on every call
        x = np.column_stack([c[i : i + _FMT_BLOCK_ROWS] for c in columns])
        slots = buf[: len(x)]
        texts = slots.reshape(-1, width)
        _sci_slots(x.ravel(), texts)
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
        block = block.ravel()
        if i + _FMT_BLOCK_ROWS >= n_total:
            # the final row is followed by neither sep nor a next row's first part
            block = block[: block.size - len(sep + parts[0])]
        yield str(block.data, "ascii")
