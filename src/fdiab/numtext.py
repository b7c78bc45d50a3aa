"""A number column's distinct values as CSV cell text, in one byte table.

number_cells(uniq, sep) gives row i of an (n, width + 1) uint8 table the
ASCII text of uniq[i], left-justified, padded with PAD, then the one-byte
sep; width is that of the widest text. Floats read as format(v, ".12g"),
ints as str(v), and NaN is an empty cell.

A column of at least CROSSOVER values has its text built in numpy, for
the values whose text the kernel can prove; every other value, and every
column below CROSSOVER, goes through one "%"-format pass (_percent_cells).
The kernel proves a float's text when it is finite, nonzero, written in fixed
notation (1e-4 <= |v| < 1e12 once rounded to 12 digits) and its scaled
fraction is at least GUARD away from .5; ties, zeros, subnormals and the
scientific range are left to "%". It proves an int column's text when every
value lies within +-10**12.
"""

import numpy as np

# Pads the byte tables of CSV cells. UTF-8 never writes it, so dropping every
# PAD byte from a row leaves exactly its cells' bytes, NUL included.
PAD = 0xFF
_SPACE_TO_PAD = bytes.maketrans(b" ", b"\xff")

# Below this many values numpy's per-call cost outweighs the per-value saving
# over "%": on sorted distinct values the float kernel broke even at 700-1,000
# and the int one at 400-500 (median of 41 calls each, 2-core shared VM, numpy
# 2.4.6). No column of a 21x21 system-sim (at most ~800 values) or a sweep
# reaches 2,048; a 101x101 drop's per-UE columns (10,201 and more) do.
CROSSOVER = 2048

# 10**k, exact in float64 for k <= 22, and the powers at which ints gain a digit.
_POW10 = np.array([float(10**k) for k in range(23)])
_NEXT_DIGIT = 10 ** np.arange(1, 13, dtype=np.int64)
# The ASCII of 00..99 as two bytes, the tens digit first in memory.
_PAIRS = np.array([ord(str(i // 10)) | ord(str(i % 10)) << 8 for i in range(100)], "<u2")
# The scaled value |v| * 10**k (< 1e12) is one rounded product, within
# 1.2e-4 (an ulp at 1e12) of the exact one: a fraction at least GUARD from .5
# rounds as the exact value's does, and no tie is taken for a decided value.
GUARD = 2.5e-4
_DOT, _MINUS, _ZERO = ord("."), ord("-"), ord("0")


def _percent_cells(uniq, sep):
    """The cell table of uniq in one "%"-format pass: floats as "%-19.12g",
    ints at the width of the lowest or highest value's text (uniq is sorted),
    the space padding turned to PAD, NaN cells emptied and float cells cut to
    the widest text."""
    if uniq.dtype.kind == "f":
        fmt = "%-19.12g"
    else:
        fmt = "%%-%dd" % max(map(len, map(str, uniq[[0, -1]].tolist() if uniq.size else [0])))
    text = ((fmt + sep.decode()) * uniq.size % tuple(uniq.tolist())).encode()
    cells = np.frombuffer(bytearray(text.translate(_SPACE_TO_PAD)), np.uint8)
    cells = cells.reshape(uniq.size, len(fmt % 0) + 1)
    if uniq.dtype.kind == "f":  # NaN cells go empty; the left-justified text ends by width
        cells[np.isnan(uniq), :-1] = PAD
        width = cells.shape[1] - 1
        while width and (cells[:, width - 1] == PAD).all():
            width -= 1
        cells[:, width] = cells[:, -1]
        cells = cells[:, : width + 1]
    return cells


def _digits(mag, n_pairs):
    """(n, 2 * n_pairs) uint8 ASCII digits of the int64 magnitudes mag < 100**n_pairs,
    zero-filled: one scalar division per pair, then the two-digit table."""
    pairs = np.empty((mag.size, n_pairs), np.intp)
    for j in range(n_pairs - 1, -1, -1):
        high = mag // 100
        np.subtract(mag, 100 * high, out=pairs[:, j])
        mag = high
    return _PAIRS.take(pairs).view(np.uint8)


def _runs(key):
    """(lo, hi) of each run of equal values in key."""
    bounds = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), key.size]
    return zip(bounds, bounds[1:]) if key.size else ()


def _put(dst, src):
    """dst[:] = src for two (n, w) byte arrays whose rows are contiguous,
    one w-byte item per row."""
    if src.shape[1]:
        dst.view(f"V{src.shape[1]}")[:, 0] = src.view(f"V{src.shape[1]}")[:, 0]


def _int_cells(uniq, sep):
    """number_cells of ints within +-10**12."""
    v = uniq.astype(np.int64)
    neg, mag = v < 0, np.abs(v)
    n_digits = np.searchsorted(_NEXT_DIGIT, mag, "right") + 1
    width = int((n_digits + neg).max(initial=1))
    digits = _digits(mag, 7)
    cells = np.full((v.size, width + 1), PAD, np.uint8)
    for lo, hi in _runs(n_digits + 16 * neg):
        s, d = int(neg[lo]), int(n_digits[lo])
        cells[lo:hi, :s] = _MINUS
        _put(cells[lo:hi, s : s + d], digits[lo:hi, 14 - d :])
    cells[:, width] = sep[0]
    return cells


def _float_cells(uniq, sep):
    """number_cells of floats: the kernel's text where it is proved, "%" elsewhere."""
    mag = np.abs(uniq)
    # Values far from the fixed range, zeros and NaN read as 1 on the way.
    near = (mag >= 1e-5) & (mag < 1e12)  # NaN compares False
    mag = np.where(near, mag, 1.0)
    # The decimal exponent e puts the scaled value m in [1e11, 1e12): log10's
    # floor, off by at most one either way, then fixed on m.
    e = np.clip(np.floor(np.log10(mag)), -5, 11).astype(np.int64)
    m = mag * _POW10[11 - e]
    e += (m >= 1e12).astype(np.int64) - (m < 1e11)
    m = mag * _POW10[11 - e]
    mant = np.rint(m)
    x = e + (mant == 1e12)  # the exponent of the value rounded to 12 digits
    proved = near & (np.abs(m - mant) <= 0.5 - GUARD) & (m >= 1e11) & (m < 1e12)
    proved &= (x >= -4) & (x <= 11)
    np.clip(x, -4, 11, out=x)
    # A mantissa that rounds up to 1e12 has carried into x and reads as 1e11;
    # so do those of the values left to "%", whose text is replaced below.
    digits = _digits(np.where(proved & (mant < 1e12), mant, 1e11).astype(np.int64), 6)
    neg = np.signbit(uniq)
    # All 12 digits, with a point after the integer digits, or "0." and -x - 1
    # zeros before them, one run of equal (sign, x) at a time.
    text = np.full((uniq.size, 20), PAD, np.uint8)
    length = np.empty(uniq.size, np.int64)
    for lo, hi in _runs(x + 16 * neg):
        s, xr, rows = int(neg[lo]), int(x[lo]), slice(lo, hi)
        text[rows, :s] = _MINUS
        if xr >= 0:
            _put(text[rows, s : s + xr + 1], digits[rows, : xr + 1])
            text[rows, s + xr + 1] = _DOT if xr < 11 else PAD
            _put(text[rows, s + xr + 2 : s + 13], digits[rows, xr + 1 :])
        else:
            text[rows, s : s + 1 - xr] = _ZERO
            text[rows, s + 1] = _DOT
            _put(text[rows, s + 1 - xr : s + 13 - xr], digits[rows])
        length[rows] = s + (12 + (xr < 11) if xr >= 0 else 13 - xr)
    # Trailing zeros go, and so does a point they leave last: the bytes of
    # each such row from its text's end to its run's length become PAD.
    short = np.flatnonzero(proved & (digits[:, -1] == _ZERO))
    kept = 12 - np.argmax(digits[short, ::-1] != _ZERO, axis=1)
    xs = x[short]
    ends = neg[short] + np.where(xs >= 0, np.maximum(kept + (kept > xs + 1), xs + 1), 1 - xs + kept)
    cut = length[short] - ends
    first = np.cumsum(cut) - cut  # where each row's cut bytes start in the flat list
    text.reshape(-1)[np.repeat(short * 20 + ends - first, cut) + np.arange(cut.sum())] = PAD
    length[short] = ends
    # Every other value goes through "%".
    rest = np.flatnonzero(~proved)
    others = _percent_cells(uniq[rest], sep)
    text[rest] = PAD
    text[rest, : others.shape[1] - 1] = others[:, :-1]
    length[rest] = 0
    width = max(int(length.max(initial=0)), others.shape[1] - 1)
    cells = text[:, : width + 1]
    cells[:, width] = sep[0]
    return cells


def number_cells(uniq, sep):
    """The cell table of the distinct int or float values uniq, as sorted by
    the CSV writer's _distinct, each row followed by sep (see the module)."""
    if uniq.size < CROSSOVER:
        return _percent_cells(uniq, sep)
    if uniq.dtype.kind == "f":
        return _float_cells(uniq, sep)
    if uniq.size and -(10**12) <= uniq.min() and uniq.max() <= 10**12:
        return _int_cells(uniq, sep)
    return _percent_cells(uniq, sep)
