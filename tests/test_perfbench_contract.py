"""What the benchmark in perfbench/ needs of the package, checked from here.

perfbench's tracer wraps package functions by name and silently leaves out
every per-layer metric whose function is gone, so a renamed or deleted
function would make a traced run report fewer metrics than BENCHMARK.json
declares.  These tests read perfbench/ and never change it.
"""

import inspect
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the per-layer metrics that perfbench/run.py adds itself, beside the tracer's
RUN_METRICS = {"setup.import_s", "trace.wall_s", "trace.overhead_est_s", "machine.reference_s"}


def test_the_tracer_finds_every_per_layer_metric(monkeypatch):
    import heatkernel.cli  # noqa: F401  (loads every module that the tracer wraps)

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        found = set(tracer.metrics())
    finally:
        tracer.uninstall()
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert len(declared) == 30
    assert found | RUN_METRICS == declared


def test_the_traced_layers_see_the_work_of_chain_and_weights(monkeypatch, tmp_path, capsys):
    # a run that bypassed a traced name would still report its metric, as 0 seconds over 0 calls
    from heatkernel.cli import main

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for command in ("chain", "weights"):
            tracer.start_job(command, command)
            assert main(["--config", str(ROOT / "configs" / "default.json"), "--out", str(tmp_path), command]) == 0
            tracer.end_job(0.0)
    finally:
        tracer.uninstall()
    assert [job["kind"] for job in tracer.jobs] == ["chain", "weights"]
    for job in tracer.jobs:
        calls = {name: count for name, (count, _) in job["spans"].items()}
        if job["kind"] == "chain":  # chain_plan and chained_lower_bound, both traced as bounds.chain; no doubling fit
            assert calls.get("cli>bounds.chain") == 2 and "cli>potentials.doubling" not in calls
        else:
            assert calls.get("cli>potentials.doubling") == 1


def test_fit_constants_takes_the_family_third():
    # the tracer labels each fit's seconds by its third positional argument
    from heatkernel import bounds

    assert list(inspect.signature(bounds.fit_constants).parameters)[2] == "family"


def test_every_benchmark_config_resolves(monkeypatch, tmp_path):
    # the config refusals must not reach a benchmark job: none of its potentials is negative or singular
    from heatkernel.config import resolve

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads

    for workload in workloads.WORKLOADS:
        for jobs in workloads.make_rounds(workload, 0, 15.0, tmp_path):
            for job in jobs:
                resolve(job.config)
