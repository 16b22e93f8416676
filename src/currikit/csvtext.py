"""Shortest float32 text for the csv feature writer, from integer numpy blocks.

``data._csv_bytes`` imports this module when it writes a csv file, so the
commands that only read feature files never load it.
"""

from __future__ import annotations

import functools

import numpy as np


def _format_f32(value: np.float32) -> str:
    # Shortest decimal that parses back to the identical float32.
    return np.format_float_positional(value, unique=True, trim="0")


# The csv writer prints _format_f32's text with integer numpy arithmetic.
# _format_f32 runs numpy's Dragon4 (Steele & White, PLDI 1990): the fewest
# decimals k at which a multiple of 10**-k lies strictly inside the value's
# rounding interval, then the nearer of the value's floor and ceiling at that
# digit, the even one on a tie. A normal float32 is v = m / 2**s with m of 24
# bits; in units of half an ulp, 2**-(s + 1), it is 2m and its interval reaches
# one unit either side. (Dragon4 takes a quarter ulp below a power of two; for
# the 36 powers of two here that moves no digit, which the tests check.) The
# ends need s + 1 decimals and v at most s, so an end is never the candidate,
# and the nearer of floor and ceiling is inside whenever either is. At k
# decimals 10**k * v is 2m * 5**k / 2**(s + 1 - k): a shift for the floor, a
# mask for the remainder, and a margin of 5**k. Exponent fields 114..149
# (2**-13 <= |v| < 2**23) need k <= 11, so 2m * 5**k stays below 2**51 and
# every unit and remainder the search reaches below 2**54. Other cells (zeros,
# subnormals, tiny and huge values) are printed by _format_f32 itself.
_EXACT_FIELDS = (114, 149)
_POW10 = 10 ** np.arange(19, dtype=np.int64)


@functools.cache
def _interval_tables() -> tuple[np.ndarray, ...]:
    # Indexed by exponent field: -k for the fewest decimals k with 10**-k
    # below an ulp, 2**-s, where a candidate is sure to lie inside; the
    # margin 5**k; the shift s + 1 - k; the digit unit 2**shift.
    s = np.clip(150 - np.arange(256), 0, 60)
    k = np.array([len(str(2 ** int(e))) for e in s])
    shift = np.clip(s + 1 - k, 0, 62)
    return -k, 5**k, shift, np.left_shift(1, shift)


def _shortest_f32(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, p): _format_f32 prints n * 10**p for each int64 float32 bit
    pattern whose exponent field lies in _EXACT_FIELDS; the sign is ignored."""
    neg_k, pow5, shifts, units = _interval_tables()
    field = (bits >> 23) & 0xFF
    shift = np.take(shifts, field)
    margin = np.take(pow5, field)
    x = (((bits & 0x7FFFFF) | 0x800000) << 1) * margin
    # floor t and remainder r of 10**k * v in its digit unit, at the fewest
    # decimals k certain to hold a candidate.
    t = x >> shift
    r = x - (t << shift)
    unit = np.take(units, field)
    p = np.take(neg_k, field)
    # A candidate inside at one decimal is inside at every longer one, so
    # drop decimals while the floor or the ceiling stays inside.
    at, ct, cr, cu, cm = None, t, r, unit, margin
    while True:
        q = ct // 10
        cr = (ct - 10 * q) * cu + cr
        cu = cu * 10
        keep = np.flatnonzero((cr < cm) | (cr + cm > cu))
        if not keep.size:
            break
        ct, cr, cu, cm = q[keep], cr[keep], cu[keep], cm[keep]
        at = keep if at is None else at[keep]
        t[at], r[at], unit[at] = ct, cr, cu
        p[at] += 1
    r += r
    return t + ((r > unit) | ((r == unit) & (t % 2 == 1))), p


_BLANK = b"\xff"  # a byte no UTF-8 text holds: padding the writer deletes


@functools.cache
def _glyph_table() -> tuple[np.ndarray, dict[str, int]]:
    """4-byte text pieces as uint32 words, and the offset of each kind."""
    blank = _BLANK[0]

    def digits(count, width):
        places = 10 ** np.arange(width - 1, -1, -1)
        return (np.arange(count)[:, None] // places % 10 + 48).astype(np.uint8)

    def blank_leading(d):  # the last digit stays
        lead = np.cumsum(d != 48, axis=1) == 0
        lead[:, -1] = False
        return np.where(lead, blank, d)

    def blank_trailing(d):  # zero becomes all blank
        return np.where(np.cumsum((d != 48)[:, ::-1], axis=1)[:, ::-1] == 0, blank, d)

    def column(count, byte):
        return np.full((count, 1), byte, dtype=np.uint8)

    d3, d4 = digits(1000, 3), digits(10000, 4)
    short = blank_leading(d3)
    high = short.copy()
    high[0] = blank
    first = blank_trailing(d3)
    first[0, 0] = ord("0")
    last = blank_trailing(d3)
    kinds = {
        # sign and a whole part below 1000
        "whole": [np.hstack([column(1000, b), short]) for b in (blank, ord("-"))],
        # sign and whole // 10**4, then whole % 10**4 after a zero or not
        "high": [np.hstack([column(1000, b), high]) for b in (blank, ord("-"))],
        "low": [blank_leading(d4), d4],
        # the point and the first three decimals, the last ones or not
        "first": [np.hstack([column(1000, ord(".")), first]),
                  np.hstack([column(1000, ord(".")), d3])],
        "middle": [blank_trailing(d4), d4],
        # three decimals and the cell's separator
        "last": [np.hstack([last, column(1000, b)]) for b in (ord(","), ord("\n"))],
        "blank": [np.full((1, 4), blank, dtype=np.uint8)],
    }
    offsets, start = {}, 0
    for kind, parts in kinds.items():
        offsets[kind] = start
        start += sum(len(part) for part in parts)
    pieces = np.vstack([part for parts in kinds.values() for part in parts])
    return np.ascontiguousarray(pieces, dtype=np.uint8).view(np.uint32).ravel(), offsets


def _csv_block(block: np.ndarray, prefixes: list[bytes]) -> bytes:
    """The csv lines of `block`'s rows, each after its ``id,label,`` prefix.

    Each cell is laid out as whole-part words, then decimal words, the last
    of which carries the separator, all taken from _glyph_table; every word
    is 4 bytes of text padded with _BLANK, which is deleted at the end."""
    glyphs, offset = _glyph_table()
    rows, d = block.shape
    bits = block.view(np.uint32).ravel().astype(np.int64)
    field = (bits >> 23) & 0xFF
    others = np.flatnonzero((field < _EXACT_FIELDS[0]) | (field > _EXACT_FIELDS[1]))
    texts = [_format_f32(v).encode() for v in block.ravel()[others]]
    bits[others] = 0x3F800000  # 1.0; these cells are written from texts below
    field[others] = 127
    n, p = _shortest_f32(bits)
    # When a decimal is printed, the value's whole part is its floor: a
    # whole number inside the interval would have been printed instead.
    decimals = np.maximum(-p, 0)
    whole = np.where(decimals > 0, ((bits & 0x7FFFFF) | 0x800000) >> (150 - field),
                     n * _POW10[np.maximum(p, 0)])
    fraction = n - whole * _POW10[decimals]
    fraction[decimals == 0] = 0
    np.maximum(decimals, 1, out=decimals)

    whole_words = 1 if whole.max() < 1000 else 2
    middle = max(0, -(-(int(decimals.max()) - 6) // 4))
    width = max([whole_words + middle + 2] + [1 + -(-len(text) // 4) for text in texts])
    codes = np.empty((rows, d, width), dtype=np.intp)
    flat = codes.reshape(rows * d, width)
    neg = 1000 * (bits >> 31)
    if whole_words == 1:
        flat[:, 0] = offset["whole"] + neg + whole
    else:
        hi = whole // 10000
        flat[:, 0] = offset["high"] + neg + hi
        flat[:, 1] = offset["low"] + 10000 * (hi > 0) + (whole - 10000 * hi)
    # The decimals, left-aligned in 3 + 4 * middle + 3 places; a word with
    # no decimal after it blanks its trailing zeros.
    places = 6 + 4 * middle
    scaled = fraction * _POW10[places - decimals]
    rest = places - 3
    flat[:, whole_words] = offset["first"] + 1000 * (decimals > 3) + scaled // _POW10[rest]
    for j in range(1, middle + 1):
        rest -= 4
        flat[:, whole_words + j] = (offset["middle"] + 10000 * (decimals > places - rest)
                                    + scaled // _POW10[rest] % 10000)
    flat[:, whole_words + middle + 1] = offset["last"] + scaled % 1000
    codes[:, -1, whole_words + middle + 1] += 1000
    codes[..., whole_words + middle + 2:] = offset["blank"]

    pad = -(-max(map(len, prefixes)) // 4)
    out = np.empty((rows, pad + d * width), dtype=np.uint32)
    out[:, :pad] = np.frombuffer(
        b"".join(prefix.ljust(4 * pad, _BLANK) for prefix in prefixes), dtype=np.uint32
    ).reshape(rows, pad)
    np.take(glyphs, codes.reshape(rows, d * width), out=out[:, pad:])
    cells = out[:, pad:].reshape(rows, d, width)
    for i, text in zip(others.tolist(), texts):
        row, col = divmod(i, d)
        text += b"\n" if col == d - 1 else b","
        cells[row, col] = np.frombuffer(text.ljust(4 * width, _BLANK), dtype=np.uint32)
    return out.tobytes().translate(None, _BLANK)
