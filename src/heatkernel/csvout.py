"""Deterministic CSV emission with a provenance comment line.

Files are byte-identical across runs of the same config: row order is the
caller's, and the provenance line carries no wall-clock data.  Formatting
rule: a float (numpy float64 included) prints as `%.17g`, any other value
as `str(value)`; lines end in LF.  A field is quoted only where `csv`'s
QUOTE_MINIMAL would quote it (text holding `,`, `"` or a line break).

Consecutive records whose values have the same types form a run, and each
run is written with one `%` template per CHUNK_ROWS rows, so the values are
formatted in C.  A chunk holding text that may need quoting (or is empty)
goes through `csv.writer` and `fmt` instead, which is the reference the
template path must match byte for byte.
"""

from __future__ import annotations

import csv
import re
from itertools import chain, groupby, islice
from pathlib import Path

CHUNK_ROWS = 4096  # rows per formatted string: bounds the writer's memory
_QUOTABLE = re.compile(r'[,"\r\n]')


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _needs_writer(text: str) -> bool:
    return not text or _QUOTABLE.search(text) is not None


def emit_csv(records, schema, path, provenance: str = "") -> Path:
    """Write rows under a header; `# provenance` comes first when given.

    records: iterable of sequences matching the schema column count.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        if provenance:
            fh.write(f"# {provenance}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(schema)
        for types, run in groupby(records, key=lambda rec: tuple(map(type, rec))):
            if len(types) != len(schema):
                raise ValueError(f"record width {len(types)} != schema width {len(schema)}")
            template = ",".join("%.17g" if issubclass(t, float) else "%s" for t in types) + "\n"
            # ints and bools print as digits or True/False; anything else may need quotes
            text_cols = [i for i, t in enumerate(types) if not issubclass(t, (float, int))]
            while rows := list(islice(run, CHUNK_ROWS)):
                if any(map(_needs_writer, {str(rec[i]) for rec in rows for i in text_cols})):
                    writer.writerows([fmt(v) for v in rec] for rec in rows)
                else:
                    fh.write((template * len(rows)) % tuple(chain.from_iterable(rows)))
    return path
