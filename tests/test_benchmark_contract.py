"""The traced benchmark's contract with the package.

perfbench/tracing.py wraps public nvne functions from outside the package
and perfbench/probes.py calls each layer once on fixed inputs. Every
per-layer figure must then exist: a traced layer that the package stops
calling reads None, and `perfbench/run.py --trace 1` fails on it. The
benchmark files are imported from their paths and not modified.
"""
import importlib.util
import time
from pathlib import Path

import nvne
import nvne.cli  # noqa: F401  (the tracer wraps functions of loaded nvne modules)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_probes_give_every_layer_metric(tmp_path):
    tracing, probes = load("tracing"), load("probes")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        written, _ = probes.layer_probes(nvne, tmp_path, time.perf_counter)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, 0, len(tracer.spans), tracer.eig_calls,
                                    written)
    assert [name for name, value in metrics.items() if value is None] == []
    assert metrics["dynamics.recorded_states"] > 0
    # every node of the 2x6x6 tilted probe grid is integrated through one
    # dynamics.evolve call; a kernel that bypassed evolve would read as a
    # closed-form average and drop these counts
    assert metrics["ensemble.node_evals"] == 72
    assert metrics["dynamics.steps"] == 494
