"""Benchmark of the heatkernel CLI: one workload per run, in this process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout (it imports the package from ./src).
A run does a fixed number of rounds of jobs (workloads.round_count); a job
is one in-process call of `heatkernel.cli.main(argv)` on a config made from
the seed.  After each job the CSVs it wrote are checked (checks.py).  The
last line of standard output is one JSON object:

    {"correct": bool, "attempted": jobs, "failed": jobs, "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1 (README.md).
"""

import os

# One BLAS/OpenMP thread: with two, OpenBLAS turns spare CPU into noise.
# These must be set before numpy is loaded in this process or a probe.
PINNED_THREADS = {
    var: "1"
    for var in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(PINNED_THREADS)
os.environ.pop("HEATKERNEL_THREADS", None)  # the CLI's own pool stays at its default

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTPUT = ROOT / ".perfbench"  # work directories and traces
IMPORT_PROBES = 4  # fresh processes; with this process's own import, 5 samples
PROBE = """
import time
t0 = time.perf_counter()
import heatkernel.cli
seconds = time.perf_counter() - t0
import speed
print(seconds, speed.reference_seconds("interpreter"))
"""


def import_probe(speed) -> tuple[float, float]:
    """(seconds to import the CLI in a fresh, thread-pinned interpreter,
    reference seconds around it: one sample here before, one there after)."""
    path = [str(SRC), str(Path(__file__).resolve().parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    before = speed.reference_seconds("interpreter")
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    seconds, after = (float(v) for v in done.stdout.split())
    return seconds, 0.5 * (before + after)


def run_job(cli, job, config: Path, outdir: Path):
    """(exit code, seconds, captured stdout and stderr) of one CLI call."""
    argv = ["--config", str(config), "--out", str(outdir), job.command]
    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # collect the previous job's garbage outside the timed call
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argv
            rc = exc.code if isinstance(exc.code, int) else 2
    seconds = time.perf_counter() - t0
    return rc, seconds, out.getvalue() + err.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "heatkernel" / "cli.py").is_file():
        print(f"no heatkernel sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # Import before anything here loads numpy, so this sample times what a probe's does.
    t0 = time.perf_counter()
    import heatkernel.cli as cli

    import_s = time.perf_counter() - t0
    import speed

    probes = [(import_s, speed.reference_seconds("interpreter"))]
    probes += [import_probe(speed) for _ in range(IMPORT_PROBES)]
    # importing is interpreter work, whatever the workload
    setup_s = statistics.median(seconds * speed.NOMINAL_S["interpreter"] / ref for seconds, ref in probes)

    import checks
    import tracer as tracing

    kind = workloads.REFERENCE_KIND[args.workload]
    workdir = OUTPUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        rounds = workloads.make_rounds(args.workload, args.seed, args.seconds, workdir)
        if tracer:
            tracer.install()
        job_times, round_sizes = [], []
        references = [speed.reference_seconds(kind)]
        attempted = failed = 0
        correct = True
        n = 0
        for jobs in rounds:
            round_sizes.append(len(jobs))
            for job in jobs:
                config = workdir / f"job{n}.json"
                config.write_text(json.dumps(job.config))
                outdir = workdir / f"out{n}"
                if tracer:
                    tracer.start_job(job.kind, job.command)
                rc, seconds, text = run_job(cli, job, config, outdir)
                references.append(speed.reference_seconds(kind))
                if tracer:
                    tracer.end_job(seconds)
                job_times.append(seconds)
                attempted += 1
                try:
                    status = checks.check_job(job, outdir, rc, text)
                except checks.CheckError as exc:
                    correct = False
                    status = "wrong"
                    print(f"job {n} ({job.kind}): wrong output: {exc}", file=sys.stderr)
                if status in ("failed", "known_fault"):
                    failed += 1
                    if status == "failed":
                        print(f"job {n} ({job.kind}) failed with exit {rc}: {text[-400:]}", file=sys.stderr)
                shutil.rmtree(outdir, ignore_errors=True)
                n += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    wall_s = sum(job_times)
    reference = speed.weighted_reference(job_times, references)
    rounds_s = speed.normalised_rounds(job_times, references, round_sizes, speed.NOMINAL_S[kind])
    if tracer:
        # per-layer seconds are raw; machine.reference_s relates them to the run's speed
        metrics = tracer.metrics()
        metrics["setup.import_s"] = (import_s, "s")
        metrics["trace.wall_s"] = (wall_s, "s")
        metrics["trace.overhead_est_s"] = (tracer.wrapped_calls() * tracing.wrapper_cost(), "s")
        metrics["machine.reference_s"] = (reference, "s")
        OUTPUT.mkdir(exist_ok=True)
        trace_path = OUTPUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "jobs": tracer.jobs}))
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (sum(rounds_s), "s"),
            "job_s_p50": (statistics.median(r / size for r, size in zip(rounds_s, round_sizes)), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(
        f"{args.workload} seed={args.seed}: {len(rounds)} rounds, {attempted} jobs, {failed} failed, "
        f"correct={correct}; raw wall {wall_s:.3f} s, "
        f"raw import {statistics.median(s for s, _ in probes):.3f} s, {kind} reference {reference:.4f} s",
        file=sys.stderr,
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
