"""Deterministic CSV emission with a provenance comment line.

Files are byte-identical across runs of the same config: row order is the
caller's, and the provenance line carries no wall-clock data.  Formatting
rule: a float (numpy float64 included) prints as `%.17g`, any other value
as `str(value)`; lines end in LF.  A field is quoted only where `csv`'s
QUOTE_MINIMAL would quote it (text holding `,`, `"` or a line break).

The caller passes columns, one sequence per schema column.  Each chunk of
CHUNK_ROWS rows interleaves its column slices into one flat list and is
written with one `%` template, so the values are formatted in C.  A float
column whose chunk repeats values (at least SAMPLE rows, at most half of its
first SAMPLE values distinct, as grid coordinates are) is formatted once per
distinct value, keyed by bit pattern so that 0.0 and -0.0 stay apart, and
enters the template as text; the decision reads that chunk alone and changes
no byte.  A chunk holding text that may need quoting (or is empty) goes
through `csv.writer` and `fmt` instead, which is the reference the template
path must match byte for byte.
"""

from __future__ import annotations

import csv
import re
from pathlib import Path

import numpy as np

CHUNK_ROWS = 4096  # rows per formatted string: bounds the writer's memory
SAMPLE = 256  # leading values of a float chunk that judge whether it repeats
_QUOTABLE = re.compile(r'[,"\r\n]')


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _needs_writer(text: str) -> bool:
    return not text or _QUOTABLE.search(text) is not None


def _repeats(values) -> bool:
    """Whether a float chunk is long and its first SAMPLE values at most half distinct."""
    sample = values[:SAMPLE]
    return len(sample) == SAMPLE and 2 * len(set(sample)) <= SAMPLE


def _distinct_text(values) -> list:
    """`%.17g` of each float of a list or an ndarray, formatting each distinct bit pattern once."""
    bits = np.asarray(values, dtype=float).view(np.int64)
    distinct, index = np.unique(bits, return_inverse=True)
    text = np.array(["%.17g" % v for v in distinct.view(float).tolist()], dtype=object)
    return text[index].tolist()


def _field(values):
    """(`%` field, values, whether a value may need quoting) of one column's chunk."""
    source = values
    if hasattr(values, "tolist"):  # an ndarray: Python scalars format faster
        values = values.tolist()
    types = set(map(type, values))
    if all(issubclass(t, float) for t in types):
        if _repeats(values):
            return "%s", _distinct_text(source), False
        return "%.17g", values, False
    if any(issubclass(t, float) for t in types):  # floats among other types
        values = list(map(fmt, values))
    # ints and bools print as digits or True/False; anything else may need quotes
    return "%s", values, not all(issubclass(t, int) for t in types)


def _write_chunk(fh, writer, columns, start: int, stop: int) -> None:
    """Write rows start..stop with one `%` template, or with `csv.writer` where a text needs quoting.

    The columns' slices are interleaved row by row into one flat list
    (`flat[j::width] = values`), which becomes the tuple the template formats.
    """
    width = len(columns)
    flat, specs = [None] * ((stop - start) * width), []
    for j, col in enumerate(columns):
        spec, values, text = _field(col[start:stop])
        if text and any(map(_needs_writer, set(map(str, values)))):
            writer.writerows(zip(*([fmt(v) for v in c[start:stop]] for c in columns)))
            return
        flat[j::width] = values
        specs.append(spec)
    flat = tuple(flat)  # frees the list before the chunk is formatted
    fh.write((",".join(specs) + "\n") * (stop - start) % flat)


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
    with open(path, "w", newline="") as fh:
        if provenance:
            fh.write(f"# {provenance}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(schema)
        for start in range(0, rows, CHUNK_ROWS):
            _write_chunk(fh, writer, columns, start, min(start + CHUNK_ROWS, rows))
    return path
