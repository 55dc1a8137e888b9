"""The traced run: spans around calls into each module, and the per-module
metrics made from them.

Rounds alternate untraced and traced; the gap between their timed totals
is the tracing overhead.  A traced round wraps the module attributes the
workload calls through.  The per-call functions (trace_noise and the
sub-step exponential, which run for every cell or sub-step, and
precise.half_trace) and the kernel-evaluation counters are wrapped only
around the in-process operations, never around a pooled sweep, whose
workers would inherit the wrappers and never report back.  After the
rounds, the functions the rounds do not reach are called directly on the
workload's own inputs: a serial sweep of each panel, and
pauli.quadratic_roots on the half traces that classify returned.
"""

import statistics
import time

import numpy as np
from tracing import Tracer

from ptfloquet import analytic, cli, floquet, oracle, pauli, precise, sweep

# module attributes the rounds call through: (owner, attribute, span name)
COARSE = (
    (cli, "sweep_grid", "sweep.sweep_grid"),
    (cli, "render_ppm", "cli.render_ppm"),
    (sweep, "threshold_scan", "sweep.threshold_scan"),
    (analytic, "mu0_sliver", "analytic.mu0_sliver"),
    (analytic, "cos_2eps_tau", "analytic.cos_2eps_tau"),
    (floquet, "classify", "floquet.classify"),
    (floquet, "monodromy", "floquet.monodromy"),
    (oracle, "stepped_propagator", "oracle.stepped_propagator"),
)
FINE = (
    (oracle, "expm_traceless", "pauli.expm_traceless"),
    (floquet, "trace_noise", "floquet.trace_noise"),
    (precise, "half_trace", "precise.half_trace"),
)
# the kernel's two bindings: classify's, and the one sweeps and scans use
KERNELS = ((floquet, "_evaluate"), (sweep, "_evaluate"))


def install_coarse(tracer):
    for owner, attr, name in COARSE:
        tracer.wrap(owner, attr, name)
    tracer.wrap(cli, "render_sweep_csv", "cli.render_sweep_csv", value=len)


def install_fine(tracer):
    for owner, attr, name in FINE:
        tracer.wrap(owner, attr, name)
    for owner, attr in KERNELS:
        tracer.count(owner, attr, "kernel")


def traced(run, seconds, start):
    """Run rounds until seconds have passed since start; return the
    per-module metrics and the tracer that holds the spans."""
    tracer = Tracer()
    plain, traced_totals = [], []
    while True:
        run.round()
        plain.append(run.round_totals[-1])
        run.tracer = tracer
        install_coarse(tracer)
        try:
            run.round()
        finally:
            tracer.restore()
            run.tracer = None
        traced_totals.append(run.round_totals[-1])
        if time.perf_counter() - start >= seconds:
            break
    rounds = len(traced_totals)
    precise_in_rounds = len(tracer.durations("precise.half_trace"))
    kernel_in_rounds = tracer.counts.get("kernel", [0])[0]

    # serial sweeps: the kernel without the pool, and the precise calls sweeps make
    tracer.wrap(precise, "half_trace", "precise.half_trace")
    try:
        for panel in run.inputs.panels:
            with tracer.span("sweep.sweep_grid_serial"):
                sweep.sweep_grid(panel.mu, 1.0, panel.gamma, panel.omega, workers=1)
    finally:
        tracer.restore()
    sweep_cells = sum(p.cells for p in run.inputs.panels)
    precise_in_sweeps = len(tracer.durations("precise.half_trace")) - precise_in_rounds
    precise_calls = precise_in_rounds / rounds + precise_in_sweeps
    kernel_evals = kernel_in_rounds / rounds + sweep_cells
    slivers = len(tracer.durations("bench.sliver"))

    roots_s = []
    for h in run.half_traces:
        t0 = time.perf_counter()
        pauli.quadratic_roots(complex(h), 1.0 + 0j)
        roots_s.append(time.perf_counter() - t0)

    def med(values, scale=1.0):
        return float(np.median(values)) * scale if len(values) else 0.0

    d = tracer.durations
    values = {
        "pauli.expm_traceless_us": (med(d("pauli.expm_traceless"), 1e6), "us"),
        "pauli.quadratic_roots_us": (med(roots_s, 1e6), "us"),
        "floquet.classify_self_us": (
            med(tracer.minus_children("floquet.classify", ["precise.half_trace"]), 1e6),
            "us",
        ),
        "floquet.classify_calls": (len(d("floquet.classify")) / rounds, "count"),
        "floquet.monodromy_us": (med(d("floquet.monodromy"), 1e6), "us"),
        "floquet.trace_noise_us": (med(d("floquet.trace_noise"), 1e6), "us"),
        "precise.half_trace_calls": (precise_calls, "count"),
        "precise.half_trace_us": (med(d("precise.half_trace"), 1e6), "us"),
        "precise.flagged_share": (precise_calls / kernel_evals, "ratio"),
        "precise.kernel_evals": (kernel_evals, "count"),
        "precise.sweep_calls": (precise_in_sweeps, "count"),
        "precise.sliver_flagged_share": (
            tracer.count_under("precise.half_trace", "bench.sliver") / slivers, "ratio"
        ),
        "precise.sliver_verdicts": (slivers / rounds, "count"),
        "analytic.mu0_sliver_us": (med(d("analytic.mu0_sliver"), 1e6), "us"),
        "analytic.cos_2eps_tau_us": (med(d("analytic.cos_2eps_tau"), 1e6), "us"),
        "oracle.stepped_propagator_ms": (med(d("oracle.stepped_propagator"), 1e3), "ms"),
        "sweep.sweep_grid_s": (med(d("sweep.sweep_grid")), "s"),
        "sweep.sweep_grid_serial_s": (med(d("sweep.sweep_grid_serial")), "s"),
        "sweep.workers": (sweep.resolve_workers(), "count"),
        "sweep.cells": (sweep_cells, "count"),
        "cli.render_sweep_csv_s": (med(d("cli.render_sweep_csv")), "s"),
        "cli.csv_mb": (med(tracer.values.get("cli.render_sweep_csv", []), 1e-6), "MB"),
        "cli.render_ppm_ms": (med(d("cli.render_ppm"), 1e3), "ms"),
        "cli.sweep_rest_s": (
            med(
                tracer.minus_children(
                    "cli.main", ["sweep.sweep_grid", "cli.render_sweep_csv", "cli.render_ppm"]
                )
            ),
            "s",
        ),
        "trace.overhead_pct": (
            100.0 * (statistics.median(traced_totals) / statistics.median(plain) - 1.0),
            "%",
        ),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}, tracer
