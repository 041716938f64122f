"""Layer spans for the traced run, recorded from outside the program.

``Tracer.install`` replaces a function in a dispmax module namespace with a
wrapper that records a span (name, start, end, parent span, operation id)
and the work counts that can be read off the call's arguments and return
value.  ``uninstall`` puts the originals back, so untraced passes run the
program unchanged.  Spans stay in memory until ``write_jsonl``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

from workloads import KERNEL_LEGS

# Bytes a complex128 lattice value occupies in the scan's FFT output.
COMPLEX_BYTES = 16

_KERNEL_FIELDS = (
    ("value_calls", "count"), ("value_s", "s"), ("refine_s", "s"), ("panels", "count"),
    ("nodes", "count"), ("ns_per_node", "ns"), ("sample_s", "s"), ("vdc_s", "s"),
)

# Per-layer metrics of one pass over a workload's operations, in print order.
PASS_METRICS = (
    ("maximal.scan_calls", "count"),
    ("maximal.scan_s", "s"),
    ("maximal.scan_lattice_values", "count"),
    ("maximal.scan_cells", "count"),
    ("maximal.scan_read_ratio", "ratio"),
    ("maximal.scan_ns_per_lattice_value", "ns"),
    ("maximal.scan_fft_bytes", "B"),
    ("maximal.estimate_calls", "count"),
    ("maximal.altmax_rounds", "count"),
    ("maximal.power_step_s", "s"),
    ("spectral.transform_calls", "count"),
    ("spectral.transform_s", "s"),
    ("filters.project_calls", "count"),
    ("filters.project_s", "s"),
    ("filters.bank_s", "s"),
    *((f"kernel.{leg}.{field}", unit) for leg in KERNEL_LEGS for field, unit in _KERNEL_FIELDS),
    ("directions.cover_calls", "count"),
    ("directions.cover_intervals", "count"),
    ("directions.cover_s", "s"),
    ("config.csv_bytes", "B"),
    ("config.csv_s", "s"),
)

# Reported once per run rather than per pass.
RUN_METRICS = (
    ("kernel.psi_table_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("process.cpu_s", "s"),
)

UNITS = dict(PASS_METRICS + RUN_METRICS)

# Pass metrics that repeat exactly from run to run: work counts, not times.
EXACT = tuple(name for name, unit in PASS_METRICS if unit in ("count", "B", "ratio"))


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []
        self._first_call_done = set()

    def wrap(self, name, fn, counts=None):
        """fn wrapped in a span; counts(arguments, result) adds fields to it."""
        sig = inspect.signature(fn) if counts else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "op": self.op,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(counts(bound.arguments, result))
            return result

        return wrapper

    def install(self, module, attr, name, counts=None):
        fn = getattr(module, attr, None)
        if fn is None:
            print(f"perfbench: {module.__name__}.{attr} not found; span {name} not recorded",
                  file=sys.stderr)
            return
        self._saved.append((module, attr, fn))
        setattr(module, attr, self.wrap(name, fn, counts))

    def install_first_call(self, module, attr, name):
        """Span only the first call in the process, e.g. a lazily filled table."""
        key = (module.__name__, attr)
        fn = getattr(module, attr, None)
        if fn is None or key in self._first_call_done:
            return
        wrapped = self.wrap(name, fn)

        def once(*args, **kwargs):
            setattr(module, attr, fn)
            self._first_call_done.add(key)
            return wrapped(*args, **kwargs)

        self._saved.append((module, attr, fn))
        setattr(module, attr, once)

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write_jsonl(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _file_bytes(arg):
    return lambda a, result: {"bytes": os.path.getsize(a[arg])}


def _scan_counts(a, result):
    res = result[0] if isinstance(result, tuple) else result
    t_count = len(a["t_grid"])
    n_eval = round(2.0 * a["f"].half_width / res.lattice_step)
    return {"lattice_values": t_count * n_eval,
            "cells": t_count * len(a["theta_values"]) * a["x_count"]}


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's entry points where the calling module looks them up."""
    from dispmax import cli, experiments, filters, kernel, maximal, spectral

    for attr in ("run_scaling_experiment", "run_convergence_experiment", "run_kernel_scan"):
        tracer.install(cli, attr, f"experiments.{attr}")
    tracer.install(cli, "write_csv", "config.write_csv", _file_bytes("path"))
    tracer.install(cli, "emit_plot_script", "config.emit_plot_script", _file_bytes("script_path"))
    tracer.install(cli, "van_der_corput_check", "kernel.van_der_corput_check")
    tracer.install(experiments, "estimate_operator_norm", "maximal.estimate_operator_norm",
                   lambda a, r: {"trials": a["trials"]})
    tracer.install(experiments, "convergence_scan", "maximal.convergence_scan")
    tracer.install(experiments, "cover_set", "directions.cover_set",
                   lambda a, r: {"intervals": r.count})
    tracer.install(experiments, "decay_bound_scan", "kernel.decay_bound_scan")
    # kernel.decay_bound_scan imports build_filter_bank from filters at call time.
    for module in (cli, experiments, maximal, filters):
        tracer.install(module, "build_filter_bank", "filters.build_filter_bank")
    tracer.install(maximal, "project", "filters.project")
    for module in (maximal, filters, spectral):
        for attr in ("forward_transform", "inverse_transform"):
            tracer.install(module, attr, "spectral.transform")
    tracer.install(maximal, "_scan", "maximal._scan", _scan_counts)
    tracer.install(kernel, "_sample_regions", "kernel._sample_regions")
    tracer.install(kernel, "kernel_value", "kernel.kernel_value",
                   lambda a, r: {"density": a["density"]})
    tracer.install(kernel, "_refine_panels", "kernel._refine_panels",
                   lambda a, r: {"panels": len(r[0])})
    tracer.install_first_call(kernel, "_psi_sq", "kernel.psi_table")


def gauss_order() -> int:
    from dispmax import kernel

    return len(getattr(kernel, "_GL_NODES", ()))


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    first = spans[0]["id"] if spans else 0
    for s in spans:
        if s["parent"] is not None and s["parent"] >= first:
            own[s["parent"] - first] -= s["end"] - s["start"]
    return own


def pass_metrics(spans, legs: dict, n_gauss: int) -> dict:
    """Per-layer metrics of one pass; spans are that pass's, in id order.

    legs maps an operation id to its kernel-scan leg ("" for none).
    """
    m = dict.fromkeys((name for name, _ in PASS_METRICS), 0)
    first = spans[0]["id"] if spans else 0
    own = self_times(spans)
    scans_under = {}
    for s, self_s in zip(spans, own):
        name, dur = s["name"], s["end"] - s["start"]
        parent = spans[s["parent"] - first] if s["parent"] is not None else None
        leg = legs.get(s["op"], "")
        kern = f"kernel.{leg}."
        if name == "maximal._scan":
            m["maximal.scan_calls"] += 1
            m["maximal.scan_s"] += self_s
            m["maximal.scan_lattice_values"] += s["lattice_values"]
            m["maximal.scan_cells"] += s["cells"]
            if parent is not None:
                scans_under[parent["id"]] = scans_under.get(parent["id"], 0) + 1
        elif name == "maximal.estimate_operator_norm":
            m["maximal.estimate_calls"] += 1
            m["maximal.power_step_s"] += self_s
        elif name == "spectral.transform":
            m["spectral.transform_calls"] += 1
            m["spectral.transform_s"] += self_s
        elif name == "filters.project":
            m["filters.project_calls"] += 1
            m["filters.project_s"] += self_s
        elif name == "filters.build_filter_bank":
            m["filters.bank_s"] += dur
        elif name == "directions.cover_set":
            m["directions.cover_calls"] += 1
            m["directions.cover_intervals"] += s["intervals"]
            m["directions.cover_s"] += dur
        elif name in ("config.write_csv", "config.emit_plot_script"):
            m["config.csv_bytes"] += s["bytes"]
            m["config.csv_s"] += dur
        elif not leg:  # kernel metrics are kept per kernel-scan leg only
            continue
        elif name == "kernel.kernel_value":
            m[kern + "value_calls"] += 1
            m[kern + "value_s"] += self_s
        elif name == "kernel._refine_panels" and parent and parent["name"] == "kernel.kernel_value":
            m[kern + "refine_s"] += self_s
            m[kern + "panels"] += s["panels"]
            m[kern + "nodes"] += s["panels"] * parent["density"] * n_gauss
        elif name == "kernel._sample_regions":
            m[kern + "sample_s"] += self_s
        elif name == "kernel.van_der_corput_check":
            m[kern + "vdc_s"] += dur

    for s in spans:
        if s["name"] == "maximal.estimate_operator_norm":
            m["maximal.altmax_rounds"] += scans_under.get(s["id"], 0) - s["trials"]
    lattice = m["maximal.scan_lattice_values"]
    m["maximal.scan_fft_bytes"] = COMPLEX_BYTES * lattice
    if lattice:
        m["maximal.scan_read_ratio"] = m["maximal.scan_cells"] / lattice
        m["maximal.scan_ns_per_lattice_value"] = 1e9 * m["maximal.scan_s"] / lattice
    for leg in KERNEL_LEGS:
        nodes = m[f"kernel.{leg}.nodes"]
        if nodes:
            m[f"kernel.{leg}.ns_per_node"] = 1e9 * m[f"kernel.{leg}.value_s"] / nodes
    return m


def op_self_time_gaps(spans) -> list:
    """|sum of self times - root duration| for each operation's span tree."""
    own = self_times(spans)
    totals, roots = {}, {}
    for s, self_s in zip(spans, own):
        totals[s["op"]] = totals.get(s["op"], 0.0) + self_s
        if s["parent"] is None:
            roots[s["op"]] = s["end"] - s["start"]
    return [abs(totals[op] - roots[op]) for op in roots]
