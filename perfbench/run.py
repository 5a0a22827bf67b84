#!/usr/bin/env python3
"""Benchmark of the nvne integrator: one seeded workload per run.

    python3 perfbench/run.py --workload qubit-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; nvne is imported from its ``src``
directory, and every file the run writes goes under ``.perfbench_out``.
One process runs the scenarios one after another (a closed loop with one
client) and BLAS is held to one thread.

A run sets the workload up several times (importing nvne afresh, making
the inputs from the seed, parsing them and building ensemble specs), then
repeats one fixed round of work until ``--seconds`` have passed, checking
every round. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics instead, from a run that times half its rounds untraced
and half traced, and the spans are written to
``.perfbench_out/trace-<workload>-seed<seed>.json``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CLOCK = time.perf_counter

SETUP_REPEATS = 15
MIN_ROUNDS = 3
COUNTS = ("dynamics.steps", "dynamics.evolve_calls", "dynamics.recorded_states",
          "linalg.eig_calls", "hermitian.validate_calls", "ensemble.node_evals",
          "cli.bytes_written")
BLAS_THREADS = "1"  # two threads gave 60x slower d = 64 steps when another process shared the cores



def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_nvne():
    """Import nvne afresh from the checkout's src directory."""
    import importlib

    for name in [k for k in sys.modules if k == "nvne" or k.startswith("nvne.")]:
        del sys.modules[name]
    nvne = importlib.import_module("nvne")
    importlib.import_module("nvne.cli")
    if Path(nvne.__file__).resolve().parent != SRC / "nvne":
        raise ImportError(f"nvne imported from {nvne.__file__}, not from {SRC}")
    return nvne


def provenance(nvne, np, seed) -> dict:
    blas = getattr(np, "__config__", None)
    blas = getattr(blas, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    head = ROOT / ".git" / "HEAD"
    sha = "unavailable"
    if head.is_file():
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            sha = ref
        elif (ROOT / ".git" / ref[5:]).is_file():
            sha = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "nproc": os.cpu_count(),
        "nvne": nvne.__version__, "git_sha": sha, "seed": seed,
    }


class Run:
    """Setup, rounds and checks of one workload in one process."""

    def __init__(self, workload, seed, workdir):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.setup_s, self.parse_s, self.spec_s = [], [], []
        self.nvne = self.inputs = None
        self.checks = []
        self.fingerprints = []
        self.figures = {}

    def setup(self) -> None:
        for _ in range(SETUP_REPEATS):
            gc.collect()
            t0 = CLOCK()
            nvne = import_nvne()
            inputs, parse_s, spec_s = self.workload.setup(nvne, self.seed, self.workdir, CLOCK)
            self.setup_s.append(CLOCK() - t0)
            self.parse_s.append(parse_s)
            self.spec_s.append(spec_s)
        self.nvne, self.inputs = nvne, inputs

    def round(self, tracer=None) -> float:
        """One timed round of work, then its checks; returns the wall time.
        A tracer, if given, is installed around the work only."""
        out_root = Path(tempfile.mkdtemp(dir=self.workdir))
        gc.collect()
        if tracer:
            tracer.install()
        try:
            t0 = CLOCK()
            raw = self.workload.work(self.nvne, self.inputs, out_root)
            wall = CLOCK() - t0
        finally:
            if tracer:
                tracer.uninstall()
        checks, figures = self.workload.check(self.nvne, self.inputs, raw, out_root)
        shutil.rmtree(out_root)
        self.fingerprints.append(([(c.name, c.passed, repr(c.value)) for c in checks],
                                  figures.get("bytes_written", 0)))
        if not self.checks:
            self.checks, self.figures = checks, figures
        return wall

    def rounds(self, seconds, minimum=MIN_ROUNDS) -> list:
        walls = []
        start = CLOCK()
        while len(walls) < minimum or CLOCK() - start < seconds:
            walls.append(self.round())
        return walls

    def finish_checks(self):
        from workloads import Check

        ref_checks, ref_figures = self.workload.reference(self.nvne, self.inputs)
        same = all(f == self.fingerprints[0] for f in self.fingerprints)
        checks = self.checks + ref_checks + [
            Check("rounds_repeat_exactly", same, float(len(self.fingerprints)))]
        figures = {**self.figures}
        for key, value in ref_figures.items():
            figures[key] = max(figures.get(key, 0.0), value)
        return checks, figures


def end_to_end(run: Run, walls, checks, figures) -> dict:
    passed = sum(c.passed for c in checks)
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(run.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_share": passed / len(checks),
        "phase_error": figures["phase_error"],
    }


def traced(run: Run, seconds) -> tuple:
    """Untraced and traced rounds in turn for the given time, then probes."""
    import probes
    from tracing import Tracer, layer_metrics
    from workloads import Check

    tracer = Tracer()
    slices, overhead = [], []
    start = CLOCK()
    while len(slices) < MIN_ROUNDS or CLOCK() - start < seconds:
        untraced = run.round()
        lo, eig0 = len(tracer.spans), tracer.eig_calls
        overhead.append(run.round(tracer) - untraced)
        slices.append((lo, len(tracer.spans), tracer.eig_calls - eig0, run.fingerprints[-1][1]))
    rounds = [layer_metrics(tracer.spans, *s) for s in slices]
    probe_lo, eig0 = len(tracer.spans), tracer.eig_calls
    tracer.install()
    try:
        probe_bytes, probe_spec_s = probes.layer_probes(run.nvne, run.workdir, CLOCK)
    finally:
        tracer.uninstall()
    probe = layer_metrics(tracer.spans, probe_lo, len(tracer.spans), tracer.eig_calls - eig0,
                          probe_bytes)
    counts = [{k: r[k] for k in COUNTS} for r in rounds]
    checks, _ = run.finish_checks()
    checks.append(Check("traced_rounds_count_the_same_work", all(c == counts[0] for c in counts)))
    metrics = {}
    for name in rounds[0]:
        values = [r[name] for r in rounds]
        # a layer the workload never calls is timed on the fixed probe inputs
        metrics[name] = probe[name] if values[0] is None else statistics.median(values)
    metrics.update(probes.step_probes(run.nvne, run.seed, CLOCK))
    metrics["cli.parse_s"] = statistics.median(run.parse_s)
    spec_s = statistics.median(run.spec_s)
    metrics["ensemble.spec_setup_s"] = spec_s if spec_s else probe_spec_s
    metrics["trace.overhead_s"] = statistics.median(overhead)
    return metrics, checks, tracer.spans, slices, probe_lo


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if not (SRC / "nvne" / "__init__.py").is_file():
        print(f"error: no nvne sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # BLAS reads these when numpy is first imported, so every import of numpy,
    # and of the benchmark modules that use it, comes after this point
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ.pop("NVNE_OUT", None)

    import numpy as np
    from workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        run = Run(workload, args.seed, workdir)
        run.setup()
        prov = provenance(run.nvne, np, args.seed)
        print(json.dumps({"provenance": prov}))
        if args.trace:
            metrics, checks, spans, slices, probe_lo = traced(run, args.seconds)
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({
                "provenance": prov, "rounds": [s[:2] for s in slices], "probes_from": probe_lo,
                "spans": [[s[0], s[1], s[2], s[3]] for s in spans]}))
        else:
            walls = run.rounds(args.seconds)
            print(json.dumps({"round_walls_s": walls}))
            checks, figures = run.finish_checks()
            metrics = end_to_end(run, walls, checks, figures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [c for c in checks if not c.passed]
    for c in failed:
        print(f"FAILED {c.name} value={c.value:.6e}" + (" (known defect)" if c.known_defect else ""))
    print(json.dumps({
        "correct": all(c.known_defect for c in failed),
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
