"""Deterministic CSV emission with a provenance comment line.

Files are byte-identical across runs of the same config: row order is the
caller's, and the provenance line carries no wall-clock data.  Formatting
rule: a float (numpy float64 included) prints as `%.17g`, any other value
as `str(value)`; lines end in LF, and the file is UTF-8.  A field is quoted
where `csv.writer(lineterminator="\n")` quotes it under QUOTE_MINIMAL: a
text holding `,`, `"` or a line feed (a lone `\r` stays bare) is wrapped in
double quotes with its inner quotes doubled, and an empty text alone on its
line is written `""`.  A text holding a NUL raises ValueError naming its
column: no caller writes one.

The caller passes columns, one sequence per schema column, written CHUNK_ROWS
rows at a time after the header, which takes the same path as one row of
one-element columns.  Each column of a chunk is formatted on its own into a
byte matrix, one NUL-padded row per value, and the chunk's bytes are written
as the side-by-side rows with the NULs dropped.  Each kind of column takes
one path:
- a float64 array by `_kernel_rows` in numpy integer arithmetic: the 17
  significant digits of each value are its 53-bit mantissa times a power of
  5, shifted and rounded half to even, and a lookup table lays them out as
  `%g`'s fixed notation.  Zero, subnormals, inf, nan and each value that
  `%.17g` writes in exponent notation (decimal exponent below -4 or above
  16) go to `fmt`, one at a time, as does a column's chunk of fewer than
  _BULK floats.  When at most half of a column's chunk is distinct (grid
  coordinates repeat), each distinct bit pattern of it is formatted once, so
  0.0 and -0.0 stay apart;
- a `range` by the same digit tables;
- any other column (text, ints, bools, a short list of floats) value by
  value through `fmt`, each distinct text quoted and UTF-8 encoded once.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

CHUNK_ROWS = 4096  # rows per formatted string: bounds the writer's memory
_WIDTH = 24  # bytes of the longest `%.17g` text of a float64, -2.2250738585072014e-308
_BULK = 256  # floats below which Python's `%` (about 0.6 us each) beats the kernel's ~60 numpy calls
_GATHER = 1024  # rows a byte gather handles at once: bounds its index and text temporaries
_FIXED = range(-4, 17)  # decimal exponents that `%.17g` writes in fixed notation
_POW5 = [5**s for s in range(23)]  # 5^s < 2^52 for every scale used
_POW5_LO = np.array([p & 0xFFFFFFFF for p in _POW5], dtype=np.uint64)
_POW5_HI = np.array([p >> 32 for p in _POW5], dtype=np.uint64)
_MARKS = int.from_bytes(b"\0-.\0", "little")  # source bytes 20..23: NUL, minus, point, NUL


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


@functools.cache
def _quads() -> tuple:
    """For each of 0..9999: its four ASCII digits as one little-endian uint32, the same with
    leading zeros as NUL bytes, and its number of trailing zero digits (4 for 0)."""
    q = np.arange(10_000, dtype=np.uint16)
    ascii = np.empty((len(q), 4), dtype=np.uint8)
    leading = np.empty_like(ascii)
    for k, scale in enumerate((1000, 100, 10, 1)):
        ascii[:, k] = q // scale % 10 + 48
        leading[:, k] = np.where(q >= scale, ascii[:, k], 0)
    zeros = sum((q % scale == 0).astype(np.int8) for scale in (10, 100, 1000, 10_000))
    return ascii.view(np.uint32)[:, 0], leading.view(np.uint32)[:, 0], zeros


@functools.cache
def _layouts() -> np.ndarray:
    """Which source byte `%.17g` writes at each of a value's _WIDTH output bytes.

    A value's source row is '000' and its 17 digits, then NUL, '-' and '.'
    (bytes 20, 21, 22).  Row ((X + 4) * 2 + negative) * 17 + kept - 1 is
    the layout of decimal exponent X with `kept` significant digits: the
    sign, the integer digits (a lone 0 when X < 0), then a point and the
    fraction up to its last significant digit, then NUL padding.
    """
    NUL, MINUS, POINT, ZERO = 20, 21, 22, 0
    table = np.full((len(_FIXED), 2, 17, _WIDTH), NUL, dtype=np.intp)
    for X in _FIXED:
        for negative in (0, 1):
            for kept in range(1, 18):
                whole = [ZERO] if X < 0 else [3 + j for j in range(X + 1)]
                fraction = [ZERO] * (-X - 1) + [3 + j for j in range(max(X + 1, 0), kept)]
                row = [MINUS] * negative + whole + ([POINT] + fraction if fraction else [])
                table[X + 4, negative, kept - 1, : len(row)] = row
    return table.reshape(-1, _WIDTH)


def _scaled(mantissa, k, s):
    """(floor, round half to even) of mantissa * 5^s / 2^k, for mantissa < 2^61, s <= 22 and 1 <= k <= 63.

    The product (< 2^113) is formed in two uint64 limbs from 32-bit halves;
    the k bits shifted out of it all lie in the low limb.
    """
    ml, mh, pl, ph = mantissa & 0xFFFFFFFF, mantissa >> 32, _POW5_LO[s], _POW5_HI[s]
    lo = ml * pl
    mid = ml * ph
    mid += mh * pl
    mid += lo >> 32
    lo &= 0xFFFFFFFF
    lo |= mid << 32
    hi = mh * ph
    hi += mid >> 32
    left = 64 - k
    floor = hi << left
    floor |= lo >> k
    lo <<= left  # the remainder at the top of a word: half is 2^63
    lo += floor & 1
    return floor, floor + (lo > 2**63)


def _printf_rows(values) -> np.ndarray:
    """`fmt` of each float as a NUL-padded (n, _WIDTH) uint8 matrix, one value at a time."""
    text = np.array(list(map(fmt, values.tolist())), dtype=f"S{_WIDTH}")
    return text.view(np.uint8).reshape(len(values), _WIDTH)


def _float_rows(values) -> np.ndarray:
    """`'%.17g' % v` of each value of a float64 array of at most CHUNK_ROWS values as a NUL-padded (n, _WIDTH) uint8 matrix."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    return _printf_rows(v) if len(v) < _BULK else _kernel_rows(v)


def _decimal(v):
    """(17 significant digits as an integer in [10^16, 10^17), decimal exponent X, whether
    `%.17g` leaves fixed notation) of each value of a float64 array; a value that leaves
    it, or is zero, subnormal, inf or nan, reads 10^16 and X = 0."""
    magnitude = np.abs(v)
    inside = (magnitude >= 9e-5) & (magnitude < 1e17)  # decimal exponent -5..16; nan is outside
    magnitude[~inside] = 1.0
    bits = magnitude.view(np.uint64)
    mantissa = ((bits & (2**52 - 1)) | 2**52) << 8  # v = mantissa * 2^(biased exponent - 1083)
    shift = 1083 - (bits >> 52)
    # s = 16 - X for the decimal exponent X, off by one at worst (the 17 digits then miss
    # [10^16, 10^17) and are rescaled); s stays in 0..22 since X is -5..16
    s = np.clip(16 - np.floor(np.log10(magnitude)), 0, 22).astype(np.uint64)
    floor, digits = _scaled(mantissa, shift - s, s)
    off = (floor < 10**16) | (floor >= 10**17)
    if off.any():
        s[off] = np.where(floor[off] < 10**16, s[off] + 1, s[off] - 1)
        digits[off] = _scaled(mantissa[off], shift[off] - s[off], s[off])[1]
    X = 16 - s.astype(np.int64)
    # digits == 10^17: rounded up to the next power of 10, which no double with X in _FIXED
    # does (the nearest below 10^-3 .. 10^17 all print below it); Python's % would take it
    fallback = ~inside | (X < _FIXED.start) | (X >= _FIXED.stop) | (digits == 10**17)
    digits[fallback], X[fallback] = 10**16, 0
    return digits, X, fallback


def _source(digits):
    """(the source rows of `_layouts`, number of trailing zero digits) of 17-digit integers."""
    upper, lower = np.divmod(digits, 10**8)
    lead, upper = np.divmod(upper.astype(np.int32), 10**8)
    quads = [*np.divmod(upper, 10**4), *np.divmod(lower.astype(np.int32), 10**4)]
    ascii, _, trailing = _quads()
    zeros = trailing[quads[3]]
    if (zeros == 4).any():
        for q, full in zip(quads[2::-1], (4, 8, 12)):
            zeros = np.where(zeros == full, full + trailing[q], zeros)
    source = np.empty((len(digits), 6), dtype=np.uint32)
    source[:, 0] = ascii[lead]
    for j, q in enumerate(quads, 1):
        source[:, j] = ascii[q]
    source[:, 5] = _MARKS
    return source, zeros


def _kernel_rows(v) -> np.ndarray:
    """`_float_rows` of a contiguous float64 array in numpy integer arithmetic, bar the values `_FIXED` leaves out."""
    digits, X, fallback = _decimal(v)
    source, zeros = _source(digits)
    layout = ((X + 4) * 2 + (v < 0)) * 17 + (16 - zeros)
    rows, flat = np.empty((len(v), _WIDTH), dtype=np.uint8), source.view(np.uint8).ravel()
    for i in range(0, len(v), _GATHER):
        at = _layouts().take(layout[i : i + _GATHER], axis=0)
        at += 24 * np.arange(i, i + len(at))[:, None]  # source rows are 24 bytes
        rows[i : i + _GATHER] = flat.take(at)
    if fallback.any():
        rows[fallback] = _printf_rows(v[fallback])
    return rows


def _float_text(values) -> np.ndarray:
    """`_float_rows` of a float64 column's chunk, each distinct bit pattern formatted once when at
    most half of them are distinct, so 0.0 and -0.0 stay apart."""
    if len(values) < _BULK:
        return _printf_rows(values)
    bits = values.view(np.int64)
    order = np.argsort(bits)
    first = np.empty(len(bits), dtype=bool)
    first[0], first[1:] = True, bits[order[1:]] != bits[order[:-1]]
    if 2 * np.count_nonzero(first) > len(bits):
        return _float_rows(values)
    index = np.empty(len(bits), dtype=np.intp)
    index[order] = np.cumsum(first) - 1  # each value's row among the distinct ones, in sorted order
    return _float_rows(values[order[first]])[index]


def _int_rows(values: range) -> np.ndarray:
    """str(i) of each i of a range within +-(10^16 - 1) as a NUL-padded uint8 matrix, one row per value."""
    v = np.arange(values.start, values.stop, values.step, dtype=np.int64)
    magnitude = np.abs(v)
    quads = -(-len(str(magnitude.max())) // 4)  # 4-digit groups of the longest value
    ascii, leading, _ = _quads()
    rows = np.empty((len(v), quads + 1), dtype=np.uint32)
    rows[:, 0] = np.where(v < 0, ord("-"), 0)
    for j in range(quads):
        scale = 10 ** (4 * (quads - 1 - j))
        q = magnitude // scale % 10**4
        # in full after a nonzero group, else with its leading zeros as NUL
        rows[:, j + 1] = np.where(magnitude >= 10**4 * scale, ascii[q], leading[q])
    rows[magnitude == 0, quads] = ord("0") << 24
    return rows.view(np.uint8)


def _text(values, name, alone: bool) -> np.ndarray:
    """The byte matrix of a column printed value by value through `fmt`, each distinct text quoted and encoded once.

    Distinct texts are keyed by the text, so 0.0 and -0.0, or 1 and True, never share a row.  A
    text holding `,`, `"` or a line feed, or empty and alone on its line, is quoted as `csv`'s
    QUOTE_MINIMAL quotes it, inner quotes doubled; one holding a NUL raises ValueError.
    """
    texts = list(map(fmt, values))
    distinct = {text: i for i, text in enumerate(dict.fromkeys(texts))}
    if any("\0" in text for text in distinct):
        raise ValueError(f"column {name!r} holds a NUL, which a NUL-padded byte matrix cannot carry")
    quote = [(alone and not t) or "," in t or '"' in t or "\n" in t for t in distinct]
    encoded = np.array([('"%s"' % t.replace('"', '""') if q else t).encode() for t, q in zip(distinct, quote)])
    index = np.fromiter(map(distinct.__getitem__, texts), dtype=np.intp, count=len(texts))
    return encoded.view(np.uint8).reshape(len(distinct), encoded.itemsize)[index]


def _column_text(values, name, alone: bool) -> np.ndarray:
    """The NUL-padded byte matrix of one column's chunk, one row per value."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return _float_text(values)
    if isinstance(values, range) and max(abs(values[0]), abs(values[-1])) < 10**16:
        return _int_rows(values)
    return _text(values, name, alone)


def _write_rows(fh, columns, schema, count: int) -> None:
    """Write count rows of columns side by side as CSV lines, _GATHER rows at a time.

    Each column is formatted into a NUL-padded byte matrix, one row per value; NUL bytes are dropped.
    """
    texts = [_column_text(values, name, len(schema) == 1) for values, name in zip(columns, schema)]
    width = sum(rows.shape[1] for rows in texts) + max(len(texts), 1)  # a comma after each column, the last a line feed
    for start in range(0, count, _GATHER):
        out = np.empty((min(_GATHER, count - start), width), dtype=np.uint8)
        at = 0
        for rows in texts:
            out[:, at : at + rows.shape[1]] = rows[start : start + _GATHER]
            out[:, at + rows.shape[1]] = ord(",")
            at += rows.shape[1] + 1
        out[:, -1] = ord("\n")
        fh.write(out.tobytes().translate(None, b"\0"))


def emit_csv(columns, schema, path, provenance: str = "") -> Path:
    """Write columns under a header; `# provenance` comes first when given.

    columns: one sequence per schema column, all of one length; each is a
    float64 ndarray, a `range` or a list, and row i holds element i of each.
    """
    if len(columns) != len(schema):
        raise ValueError(f"{len(columns)} columns for a schema of width {len(schema)}")
    lengths = sorted({len(col) for col in columns})
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal length: {lengths}")
    rows = lengths[0] if lengths else 0
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "wb")
    try:
        with fh:
            if provenance:
                fh.write(f"# {provenance}\n".encode())
            _write_rows(fh, [[name] for name in schema], schema, 1)
            for start in range(0, rows, CHUNK_ROWS):
                stop = min(start + CHUNK_ROWS, rows)
                _write_rows(fh, [col[start:stop] for col in columns], schema, stop - start)
    except BaseException:  # a refused value, say a NUL, leaves no partial file behind
        path.unlink()
        raise
    return path
