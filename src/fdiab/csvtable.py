"""CSV text from numpy columns: the bytes csv.writer(lineterminator="\n")
writes, in UTF-8.

Each column's distinct values become one cell table: row i of an (n, width + 1)
uint8 array holds the text of value i, left-justified, padded with PAD, then
the one-byte separator that follows the cell in its row. Floats read as
format(v, ".12g"), NaN as an empty cell, ints as str(v), bools as true/false
and text as the csv module quotes it.

A number column of at least CROSSOVER distinct values has its text built in
numpy, for the values whose text the kernel can prove; every other value, and
every column below CROSSOVER, goes through one "%"-format pass
(_percent_cells). The kernel proves a float's text when it is finite, nonzero,
written in fixed notation (1e-4 <= |v| < 1e12 once rounded to 12 digits) and
its scaled fraction is at least GUARD away from .5; ties, zeros, subnormals and
the scientific range are left to "%". It proves an int column's text when every
value lies within +-10**12.
"""

import csv
import io

import numpy as np

# Pads the byte tables of CSV cells. UTF-8 never writes it, so dropping every
# PAD byte from a row leaves exactly its cells' bytes, NUL included.
PAD = 0xFF
_PADS = bytes([PAD])
_SPACE_TO_PAD = bytes.maketrans(b" ", _PADS)

CSV_CHUNK_ROWS = 8192

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


def format_value(value):
    """A Python value's CSV text: None empty, bools true/false, floats ".12g"."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _csv_cell(text):
    """text as the csv module writes it in a row of several fields."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _distinct(keys):
    """(sorted distinct values of keys, int32 index of each key's value);
    floats are keyed on their bit pattern.

    One argsort ranks the keys, a key's rank counting the changes in the
    sorted keys up to it; a column whose runs of equal keys at least halve it
    is ranked by the runs' heads.
    """
    n = keys.size
    bits = keys.view(np.uint64) if keys.dtype.kind == "f" else keys
    changes = np.ones(n, bool)
    changes[1:] = bits[1:] != bits[:-1]
    heads = np.flatnonzero(changes)
    if 0 < 2 * heads.size <= n:
        uniq, index = _distinct(keys[heads])
        return uniq, np.repeat(index, np.diff(np.append(heads, n)))
    order = bits.argsort()
    ranked = bits[order]
    changes[1:] = ranked[1:] != ranked[:-1]
    index = np.empty(n, np.int32)
    index[order] = np.cumsum(changes, dtype=np.int32) - 1
    return ranked[changes].view(keys.dtype), index


def _lookup(name, column, n_rows):
    """(values, rows or None) of column, an array or a (values, rows) lookup of
    n_rows rows (None: any); a TypeError or ValueError names a bad column."""
    values, rows = column if isinstance(column, tuple) and len(column) == 2 else (column, None)
    kind = values.dtype.kind if isinstance(values, np.ndarray) else None
    if kind not in ("b", "i", "u", "f", "U"):
        got = f"dtype {values.dtype}" if kind else type(values).__name__
        raise TypeError(
            f"column {name!r}: expected a numpy bool, int, float or str array, got {got}"
        )
    if values.ndim != 1 or rows is not None and not (
        isinstance(rows, np.ndarray) and rows.dtype.kind in "iu" and rows.ndim == 1
        and (not rows.size or 0 <= rows.min() and rows.max() < values.size)
    ):
        raise ValueError(f"column {name!r}: needs 1-D values and 1-D rows in [0, {values.size})")
    if n_rows not in (None, len(values if rows is None else rows)):
        raise ValueError(f"column {name!r}: expected {n_rows} rows, as the first column has")
    return values, rows


def _percent_cells(uniq, sep):
    """The cell table of the sorted numbers uniq in one "%"-format pass: floats
    as "%-19.12g", ints at the width of the lowest or highest value's text, the
    space padding turned to PAD, NaN cells emptied and float cells cut to the
    widest text."""
    if uniq.dtype.kind == "f":
        fmt = "%-19.12g"
    else:
        fmt = "%%-%dd" % max(map(len, map(str, uniq[[0, -1]].tolist() if uniq.size else [0])))
    text = ((fmt + sep.decode()) * uniq.size % tuple(uniq.tolist())).encode()
    cells = np.frombuffer(bytearray(text.translate(_SPACE_TO_PAD)), np.uint8)
    cells = cells.reshape(uniq.size, len(fmt % 0) + 1)
    if uniq.dtype.kind == "f":  # NaN cells go empty; the left-justified text ends by width
        cells[np.isnan(uniq), :-1] = PAD
        width = int((cells[:, :-1] != PAD).any(axis=0).sum())
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
    """The cell table of the sorted ints uniq, all within +-10**12."""
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
    """The cell table of the floats uniq, sorted by bit pattern: the kernel's
    text where it is proved, "%" elsewhere."""
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


def _column_cells(values, sep):
    """(cell table of a column's distinct values, each cell followed by the
    one-byte sep, int32 index of each value's cell); each is formatted once,
    floats keyed on their bit pattern, so -0.0 stays "-0"."""
    kind = values.dtype.kind
    uniq, index = _distinct(np.ascontiguousarray(values, np.float64) if kind == "f" else values)
    if kind in ("b", "U"):
        raw = [c.encode() for c in map(format_value if kind == "b" else _csv_cell, uniq.tolist())]
        width = max(map(len, raw), default=0)
        padded = b"".join(r.ljust(width, _PADS) + sep for r in raw)
        return np.frombuffer(padded, np.uint8).reshape(len(raw), width + 1), index
    # An empty int column has no min: it takes "%" even below a crossover of 0.
    if uniq.size < CROSSOVER or kind != "f" and not (
        uniq.size and -(10**12) <= uniq.min() and uniq.max() <= 10**12
    ):
        return _percent_cells(uniq, sep), index
    return (_float_cells if kind == "f" else _int_cells)(uniq, sep), index


def write_columns(path, columns):
    """CSV from a dict of equal-length columns, in the dict's order.

    A column is an array or a (values, rows) lookup that writes values[rows],
    checked before the file is opened; lookups of one values object and one
    separator share one cell table, so each value is formatted once.
    Each chunk of CSV_CHUNK_ROWS rows is gathered from the columns' byte
    tables into one padded block, every cell at a fixed offset, and written
    with the padding dropped. Chunks bound the peak: a block for the whole
    table would be several times the size of the text it holds. The writer
    owns columns and lets each go once its cell table exists: callers take what
    they need from the dict first.
    """
    header = (",".join(map(_csv_cell, columns)) + "\n").encode()
    shared, table, n_rows = {}, [], None  # keys: id(values); the dict held all values at once
    for name, sep in zip(list(columns), [b","] * (len(columns) - 1) + [b"\n"]):
        values, rows = _lookup(name, columns.pop(name), n_rows)
        n_rows = len(values if rows is None else rows)
        if (id(values), sep) not in shared:
            shared[id(values), sep] = _column_cells(values, sep)
        table.append((*shared[id(values), sep], rows))
    del values  # the values go with the last column that reads them
    if len(table) == 1:  # a lone empty field is written quoted
        cells = np.pad(table[0][0], ((0, 0), (2, 0)), constant_values=PAD)
        cells[(cells[:, 2:-1] == PAD).all(axis=1), :2] = ord('"')
        table[0] = cells, *table[0][1:]
    widths = [cells.shape[1] for cells, _, _ in table]
    buf = bytearray(min(CSV_CHUNK_ROWS, n_rows) * sum(widths))  # translate reads it uncopied
    block = np.frombuffer(buf, np.uint8).reshape(-1, sum(widths))
    # Each cell as one void item, so a gather copies whole cells.
    slots = [block[:, e - w : e].view(f"V{w}")[:, 0] for w, e in zip(widths, np.cumsum(widths))]
    table = [(cells.view(f"V{w}")[:, 0], *rest) for w, (cells, *rest) in zip(widths, table)]
    with open(path, "wb") as fh:
        fh.write(header)
        for lo in range(0, n_rows, CSV_CHUNK_ROWS):
            hi = min(lo + CSV_CHUNK_ROWS, n_rows)
            for slot, (cells, inner, rows) in zip(slots, table):
                index = inner[lo:hi] if rows is None else inner[rows[lo:hi]]
                slot[: hi - lo] = cells.take(index.astype(np.intp))
            chunk = buf if hi - lo == len(block) else buf[: (hi - lo) * block.shape[1]]
            fh.write(chunk.translate(None, _PADS))
