"""Median and spread of benchmark results, per file and metric.

    python3 perfbench/spread.py results-*.jsonl

Each file holds one run result (the JSON last line of run.py) per line.
The spread is the interquartile range over the median, with the quartiles
of statistics.quantiles(values, n=4).
"""

import json
import statistics
import sys


def main(paths) -> int:
    for path in paths:
        with open(path) as fh:
            runs = [json.loads(line) for line in fh if line.strip()]
        if not runs:
            print(f"{path}: no runs")
            continue
        failed = {(r["failed"], r["attempted"]) for r in runs}
        print(f"{path}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, failed/attempted={sorted(failed)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
            spread = (q3 - q1) / median if median else float("nan")
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:32s} median {median:10.5g} {unit:6s} spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
