"""The bulk float formatter of `csvout` against Python's `'%.17g' % v`, and its per-column rule against `csv.writer`."""

import csv
import io
import math
import re
import struct
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatkernel import csvout


def text(rows) -> list:
    """The str of each row of a NUL-padded byte matrix."""
    return [row.tobytes().replace(b"\0", b"").decode() for row in rows]


def formatted(values) -> list:
    """The kernel's text of each value, whatever their number."""
    return text(csvout._kernel_rows(np.array(values, dtype=np.float64)))


def printf(values) -> list:
    return ["%.17g" % v for v in np.array(values, dtype=np.float64).tolist()]


def from_bits(pattern: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", pattern))[0]


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_any_bit_pattern_prints_as_printf(patterns):
    values = [from_bits(p) for p in patterns]
    assert formatted(values) == printf(values)


fixed_range = st.floats(min_value=1e-4, max_value=1e17, exclude_max=True)


@given(st.lists(st.tuples(fixed_range, st.booleans()), min_size=1, max_size=50))
def test_values_in_the_fixed_notation_range_print_as_printf(draws):
    values = [-v if negative else v for v, negative in draws]
    assert formatted(values) == printf(values)


@given(st.lists(st.tuples(st.integers(10**16, 10**17 - 1), st.integers(-21, 0)), min_size=1, max_size=50))
def test_values_read_from_17_digit_decimals_print_as_printf(decimals):
    values = [float(f"{digits}e{exponent}") for digits, exponent in decimals]
    assert formatted(values) == printf(values)


@given(st.integers(1, 20), st.integers(0, 2**60), st.booleans())
def test_half_way_ties_round_to_even(s, draw, negative):
    # j / 2^(s+1) with j an odd multiple of 5^s is exactly half way between two 17-digit decimals
    lo, hi = -(-2 * 10**16 // 5**s), min(2 * 10**17 // 5**s, 2**53)
    j = (lo + draw % (hi - lo - 1)) | 1
    value = (-1) ** negative * j / 2 ** (s + 1)
    assert Fraction(value) * 10**s % 1 == Fraction(1, 2)
    assert formatted([value]) == printf([value])


POWERS = [10.0**k for k in range(-6, 19)]
PINNED = (
    [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, from_bits(0x7FF8000000000001), from_bits(0xFFF0000000000123)]
    + [5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072009e-308, 1.7976931348623157e308]
    + [9.9999999999999995e-05, 1e-4, -1e-4, 1e-14, 99999999999999984.0, 1e17, 1e16 - 2.0, 1234567890123456.25]
    + POWERS
    + [float(np.nextafter(p, 0.0)) for p in POWERS]
    + [float(np.nextafter(p, math.inf)) for p in POWERS]
)


@pytest.mark.parametrize("value", PINNED, ids=[f"{v!r}" for v in PINNED])
def test_pinned_values_print_as_printf(value):
    assert formatted([value, -value]) == printf([value, -value])


def test_a_whole_chunk_prints_as_printf_including_a_strided_view():
    rng = np.random.default_rng(3)
    values = np.concatenate([PINNED, rng.normal(size=2000) * 10.0 ** rng.integers(-6, 19, 2000)])
    assert formatted(values) == printf(values)
    assert text(csvout._float_rows(values[::-3])) == printf(values[::-3])


@given(st.integers(2**60, 2**61 - 1), st.integers(0, 22), st.integers(1, 63), st.sampled_from([None, -1, 0, 1]))
def test_scaled_floors_and_rounds_half_to_even(mantissa, s, k, tie):
    if tie is not None:  # the bits shifted out are a half, or one off it either way
        s, k = 0, min(k, 60)
        mantissa = (mantissa >> k << k) + (1 << (k - 1)) + tie * (k > 1)
    k = max(k, (mantissa * 5**s).bit_length() - 64)  # the quotient fits a uint64
    floor, rounded = csvout._scaled(np.array([mantissa], np.uint64), np.array([k], np.uint64), np.array([s]))
    quotient, rest = divmod(mantissa * 5**s, 2**k)
    want = quotient + (2 * rest > 2**k or (2 * rest == 2**k and quotient % 2 == 1))
    assert (int(floor[0]), int(rounded[0])) == (quotient, want)


def test_scaled_rounds_up_to_the_next_power_of_ten():
    # (10^17 - 1/4) as mantissa / 2^2: the 17 digits round up to 10^17
    floor, rounded = csvout._scaled(np.array([4 * 10**17 - 1], np.uint64), np.array([2], np.uint64), np.array([0]))
    assert (int(floor[0]), int(rounded[0])) == (10**17 - 1, 10**17)


@pytest.mark.parametrize("k", range(-3, 18))
def test_no_double_in_the_fixed_range_rounds_up_to_a_power_of_ten(k):
    # only the double nearest below 10^k could: its 17 digits stay below 10^17, so the
    # kernel's round-up guard (such values would go to Python's %) never fires
    nearest = float(Fraction(10) ** k)
    below = nearest if Fraction(nearest) < Fraction(10) ** k else float(np.nextafter(nearest, 0.0))
    digits, X, fallback = csvout._decimal(np.array([below]))
    assert not fallback[0] and X[0] == k - 1 and formatted([below]) == printf([below])


def test_ranges_print_as_str():
    for r in [range(0, 10242), range(-5000, 5000, 7), range(10**16 - 5, 10**16 - 1), range(-(10**16 - 1), -(10**16 - 9)), range(1)]:
        assert text(csvout._int_rows(r)) == [str(i) for i in r]


LIST_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-5, 1e17, 0.1, 0.1, -2.5]
COLUMN_VALUES = {
    "short": LIST_FLOATS,  # below _BULK: one value at a time
    "repeated": [LIST_FLOATS[i % len(LIST_FLOATS)] for i in range(2 * csvout._BULK)],  # once per distinct value
    "distinct": LIST_FLOATS + [i / 7.0 for i in range(csvout.CHUNK_ROWS + 9)],  # the kernel, over two chunks
}


@pytest.mark.parametrize("text", [None, "plain", "needs,quotes"])
@pytest.mark.parametrize("kind", COLUMN_VALUES)
def test_a_float_list_writes_the_bytes_of_the_same_float64_array(tmp_path, kind, text):
    values = COLUMN_VALUES[kind]
    texts = [] if text is None else [[text] * len(values)]
    schema = ["v", "w"][: 1 + len(texts)]
    from_list = csvout.emit_csv([values, *texts], schema, tmp_path / "list.csv").read_bytes()
    from_array = csvout.emit_csv([np.array(values), *texts], schema, tmp_path / "array.csv").read_bytes()
    assert from_list == from_array
    lines = from_list.decode().splitlines()[1:]
    assert [line.split(",")[0] for line in lines] == printf(values)


HALF = 256
SIGNED = [0.0, -0.0, math.nan, -math.nan, from_bits(0x7FF8000000000001), 1.5]
EXPONENTS = [5e-324, -5e-324, 2.2250738585072009e-308, 1e-5, -1e-5, 1e17, -1e17, 1.2345e-7]
# HALF distinct bit patterns, 0.0, -0.0 and two NaN payloads among them
PATTERNS = [0.0, -0.0, math.nan, from_bits(0x7FF8000000000001)] + [i / 7.0 for i in range(1, HALF - 3)]
QUOTED_LATE = ["plain"] * (csvout.CHUNK_ROWS + 3) + ["needs,quotes"] + ["plain"] * (csvout.CHUNK_ROWS + 1)
# columns of one file, and the lengths `_float_rows` is called with (None: not checked)
COLUMN_CASES = {
    # a grid axis beside a column of distinct values: only the first is deduplicated
    "repeated beside distinct": ([np.repeat(np.linspace(-2.0, 2.0, 13), 40), np.arange(520) / 7.0], [13, 520]),
    "exactly half distinct": ([np.tile(np.arange(HALF) / 7.0, 2)], [HALF]),
    "one past half distinct": ([np.concatenate([np.arange(HALF + 1) / 7.0, np.zeros(HALF - 1)])], [2 * HALF]),
    "signed zeros and nan payloads": ([np.array(SIGNED * HALF)], [len(SIGNED)]),
    "half distinct with signed zeros and nan payloads": ([np.array(PATTERNS * 2)], [HALF]),
    "one past half with signed zeros and nan payloads": ([np.array(PATTERNS + PATTERNS[:-1] + [-1 / 7])], [2 * HALF]),
    # distinct values enough for the kernel, which hands these to `fmt`
    "subnormals and exponent notation": ([np.tile(EXPONENTS + [i / 7.0 for i in range(292)], 2)], [300]),
    "shorter than _BULK with repeats": ([np.array([0.1, -0.0, 0.1, math.nan] * (csvout._BULK // 8))], []),
    # quoting is decided per chunk: the first chunk is written as byte matrices
    "quotes in the second chunk only": ([np.arange(len(QUOTED_LATE)) / 7.0, QUOTED_LATE, range(len(QUOTED_LATE))], None),
}


@pytest.mark.parametrize("case", COLUMN_CASES)
def test_each_float64_column_is_formatted_on_its_own(tmp_path, monkeypatch, case):
    columns, calls = COLUMN_CASES[case]
    lengths, float_rows = [], csvout._float_rows
    monkeypatch.setattr(csvout, "_float_rows", lambda values: lengths.append(len(values)) or float_rows(values))
    schema = [f"c{j}" for j in range(len(columns))]
    written = csvout.emit_csv(columns, schema, tmp_path / "columns.csv", "M=1").read_bytes()
    assert written == reference(columns, schema, "M=1")
    assert calls is None or lengths == calls


def reference(columns, schema, provenance) -> bytes:
    """The file `csv.writer` writes over `fmt` of each value: the rule the byte matrices must match."""
    buf = io.StringIO()
    buf.write(f"# {provenance}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(schema)
    values = [col.tolist() if isinstance(col, np.ndarray) else list(col) for col in columns]
    writer.writerows(zip(*([csvout.fmt(v) for v in col] for col in values)))
    return buf.getvalue().encode()


TEXT = st.text(alphabet=[",", '"', "\n", "\r", " ", "é", "a"], max_size=4)  # the empty string included


@st.composite
def random_columns(draw):
    """1-3 columns of one length: float64 bit patterns, heavily repeated texts, or ranges."""
    n, rng = draw(st.integers(1, 700)), np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["float", "text", "range"]), min_size=1, max_size=3)):
        if kind == "float":  # a few drawn patterns repeated, or every value a random pattern
            pool = np.array(draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20)), dtype=np.uint64)
            repeated = draw(st.booleans())
            bits = pool[rng.integers(0, len(pool), n)] if repeated else rng.integers(0, 2**64, n, dtype=np.uint64)
            columns.append(bits.view(np.float64))
        elif kind == "text":
            pool = draw(st.lists(TEXT, min_size=1, max_size=5))
            columns.append([pool[i] for i in rng.integers(0, len(pool), n)])
        else:
            start, step = draw(st.integers(-(10**17), 10**17)), draw(st.integers(1, 10**13)) * draw(st.sampled_from([-1, 1]))
            columns.append(range(start, start + n * step, step))
    return columns


@settings(max_examples=150, deadline=None)
@given(random_columns(), st.sampled_from([1, 3, 64, 300]))
def test_random_columns_write_the_bytes_of_csv_writer(columns, chunk_rows):
    schema = [f"c{j}" for j in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(csvout, "CHUNK_ROWS", chunk_rows):
        written = csvout.emit_csv(columns, schema, Path(tmp) / "random.csv", "M=1").read_bytes()
    assert written == reference(columns, schema, "M=1")


@pytest.mark.parametrize(
    "columns, schema, name",
    [
        ([[1.5, 2.0], ["plain", "nul\0here"]], ["x", "w"], "w"),
        ([["nul\0"]], ["only"], "only"),
        ([[1.5]], ["x\0"], "x\0"),  # in the header
        # after a whole chunk is written
        ([["plain"] * csvout.CHUNK_ROWS + ["nul\0"]], ["w"], "w"),
    ],
)
def test_a_text_holding_a_nul_is_refused_naming_its_column(tmp_path, columns, schema, name):
    path = tmp_path / "nul.csv"
    path.write_text("an older file\n")
    with pytest.raises(ValueError, match=re.escape(f"column {name!r} holds a NUL")):
        csvout.emit_csv(columns, schema, path, "p=1")
    assert not path.exists()  # no partial file is left

