"""Spans and counters for the traced benchmark run, recorded from outside nvne.

`Tracer.install` replaces every binding of a traced public function in the
nvne module namespaces (including names imported into other nvne modules)
with a wrapper that appends a span ``[name, start, end, parent, attrs]`` to
an in-memory list. ``attrs`` carries the work a call was asked to do: steps
and recorded states for the integrators, and matrix entries for the
divided-difference kernel. The numpy eigensolvers get a counter only, which
keeps the cost per call small. `Tracer.uninstall` restores the originals.

`layer_metrics` turns a slice of spans into the per-layer figures. A value
of None means the slice holds no call into that layer.
"""
from __future__ import annotations

import sys
import time

import numpy as np

CLOCK = time.perf_counter


def _integrator_attrs(args, kwargs, result):
    cfg = kwargs.get("cfg", args[-1])
    return {"steps": cfg.n_steps, "recorded": len(result.times)}


def _pairs_attrs(args, kwargs, result):
    # args = (self, a, b): one kernel entry per broadcast pair
    return {"pairs": int(np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size)}


# (module, attribute, attrs) of every traced function; the span name is
# "<module without the nvne. prefix>.<attribute>"
TARGETS = (
    ("nvne.cli", "main", None),
    ("nvne.cli", "emit_outputs", None),
    ("nvne.dynamics", "evolve", _integrator_attrs),
    ("nvne.dynamics", "precession_frequency", None),
    ("nvne.structure", "hamiltonian_function", None),
    ("nvne.hermitian", "validate_density", None),
    ("nvne.composite", "evolve_composite", _integrator_attrs),
    ("nvne.composite", "reduction_consistency", None),
    ("nvne.ensemble", "ensemble_average", None),
    ("nvne.ensemble", "dephasing_analytic", None),
    ("nvne.deformation", "DeformationFunction.divided_difference", _pairs_attrs),
)

EIGENSOLVERS = ("eigh", "eigvalsh")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.eig_calls = 0
        self._stack: list = []
        self._restore: list = []

    def _span_wrapper(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, CLOCK(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = CLOCK()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, fn):
        def counted(*args, **kwargs):
            self.eig_calls += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "nvne" or k.startswith("nvne.")]
        for mod_name, attr, attrs in TARGETS:
            name = f"{mod_name[len('nvne.'):]}.{attr.split('.')[-1]}"
            mod = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._replace(cls, meth, self._span_wrapper(name, cls.__dict__[meth], attrs))
                continue
            original = getattr(mod, attr)
            wrapper = self._span_wrapper(name, original, attrs)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, key, wrapper)
        for attr in EIGENSOLVERS:
            self._replace(np.linalg, attr, self._count_wrapper(getattr(np.linalg, attr)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def layer_metrics(spans: list, lo: int, hi: int, eig_calls: int, bytes_written: int) -> dict:
    """Per-layer figures of spans[lo:hi] (one traced round or the probe pass)."""
    by_name: dict = {}
    children: dict = {}
    for i in range(lo, hi):
        name, _, _, parent, _ = spans[i]
        by_name.setdefault(name, []).append(i)
        children.setdefault(parent, []).append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def total(name):
        idx = by_name.get(name)
        return sum(dur(i) for i in idx) if idx else None

    def attr_sum(names, key):
        return sum(spans[i][4][key] for n in names for i in by_name.get(n, ()) if spans[i][4])

    def evolve_children(i):
        return [c for c in children.get(i, ()) if spans[c][0] == "dynamics.evolve"]

    integrators = ("dynamics.evolve", "composite.evolve_composite")
    steps = attr_sum(integrators, "steps")
    composite_steps = attr_sum(("composite.evolve_composite",), "steps")
    averages = by_name.get("ensemble.ensemble_average", [])
    integrated = [i for i in averages if evolve_children(i)]
    closed = [i for i in averages if not evolve_children(i)]
    closures = by_name.get("composite.reduction_consistency")
    dd_s = total("deformation.divided_difference")
    output_s = total("cli.emit_outputs")
    composite_s = total("composite.evolve_composite")
    return {
        "dynamics.steps": steps,
        "dynamics.evolve_calls": len(by_name.get("dynamics.evolve", ())),
        "dynamics.recorded_states": attr_sum(integrators, "recorded"),
        "linalg.eig_calls": eig_calls,
        "linalg.eig_per_step": eig_calls / steps if steps else None,
        "structure.energy_s": total("structure.hamiltonian_function"),
        "dynamics.precession_fit_s": total("dynamics.precession_frequency"),
        "cli.output_s": output_s,
        "cli.bytes_written": bytes_written,
        "cli.output_mb_per_s": bytes_written / output_s / 1e6 if output_s and bytes_written else None,
        "composite.step_us": composite_s / composite_steps * 1e6 if composite_s else None,
        "composite.closure_s": (
            sum(dur(i) - sum(dur(c) for c in evolve_children(i)) for i in closures)
            if closures else None
        ),
        "hermitian.validate_calls": len(by_name.get("hermitian.validate_density", ())),
        "ensemble.closed_form_ms": (
            sum(dur(i) for i in closed) / len(closed) * 1e3 if closed else None
        ),
        "ensemble.integrated_ms": (
            sum(dur(i) for i in integrated) / len(integrated) * 1e3 if integrated else None
        ),
        "ensemble.node_evals": sum(len(evolve_children(i)) for i in integrated),
        "ensemble.analytic_s": total("ensemble.dephasing_analytic"),
        "deformation.dd_s": dd_s,
        "deformation.dd_ns_per_pair": (
            dd_s / attr_sum(("deformation.divided_difference",), "pairs") * 1e9 if dd_s else None
        ),
    }
