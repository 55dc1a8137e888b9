"""Rounds of a workload's operations: each one timed, counted and checked.

The operations call the package through its modules' attributes
(floquet.classify, cli.main, ...), so that the traced run can wrap those
attributes.  A round is whole: every round of a workload makes the same
operations, so the share of failed ones does not depend on the run's
length or its seed.
"""

import contextlib
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import numpy as np
from layers import install_fine
from workloads import CLASSIFY_TOL, ORACLE_STEPS

from ptfloquet import analytic, cli, floquet, oracle, sweep
from ptfloquet.model import DrivingSpec

SRC = Path(__file__).resolve().parents[1] / "src"
KEPT_FAILING_TIMEOUT_S = 30.0
# slices per pass; see Run.round
CHUNKS = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "sweep_cells_per_s": "cells/s",
    "sweep_peak_rss_mb": "MB",
    "threshold_scan_ms": "ms",
    "sliver_verdicts_per_s": "1/s",
    "classify_us": "us",
    "classify_p99_us": "us",
    "oracle_substeps_per_s": "1/s",
    "identity_drives_per_s": "1/s",
}


def run_child(argv, cwd, timeout):
    """Run a child on the tree's src/ in its own session; on timeout kill
    its whole group (a sweep's pool workers too) and wait for it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        argv,
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err
    return proc.returncode, out, err


class Run:
    """Rounds of one workload's operations, their timings and checks."""

    def __init__(self, inputs, work):
        self.inputs, self.work = inputs, work
        self.tracer = None  # set during traced rounds
        self.attempted = self.failed = 0
        self.problems = []
        # units per second: cells per round of sweeps; sliver verdicts,
        # oracle sub-steps and identity drives per pass
        self.rates = {kind: [] for kind in ("panel", "sliver", "oracle", "identity")}
        self.scan_s, self.classify_s = [], []
        self.classify_p99 = []  # per round: 99th percentile of its classify calls
        self.round_totals = []  # per round: seconds of timed operations
        self.half_traces = []  # from the first round's classify calls
        self._first_round = True
        self._expected = {}  # reference classes and traces, computed once per input

    def round(self):
        """Each panel's sweep, then one pass over the other kinds; a pass runs
        them in CHUNKS interleaved slices, so that every kind is timed across
        the whole pass rather than in one stretch of it."""
        self._total = 0.0
        first_call = len(self.classify_s)
        self._acc = {kind: [0, 0.0] for kind in self.rates}
        for k, panel in enumerate(self.inputs.panels):
            self._panel(k, panel)
            self._flush(("sliver", "oracle", "identity"))
            keep = self.tracer.installed() if self.tracer else 0
            try:
                if self.tracer:
                    install_fine(self.tracer)
                for c in range(CHUNKS):
                    self._scans(c)
                    self._slivers(c)
                    self._classify(c)
                    self._oracle(c)
                    self._identity(c)
            finally:
                if self.tracer:
                    self.tracer.restore(keep)
        self._flush(self.rates)
        for kept in self.inputs.kept_failing:
            self._kept_failing(kept)
        if len(self.classify_s) > first_call:
            self.classify_p99.append(np.percentile(self.classify_s[first_call:], 99))
        self.round_totals.append(self._total)
        self._first_round = False

    def _flush(self, kinds):
        """Close the rates of these kinds and start them again from zero."""
        for kind in kinds:
            units, seconds = self._acc[kind]
            if seconds:
                self.rates[kind].append(units / seconds)
            self._acc[kind] = [0, 0.0]

    def _add(self, kind, units, dt):
        acc = self._acc[kind]
        acc[0] += units
        acc[1] += dt

    def _op(self, fn, *args):
        """One attempted operation; an exception counts it as failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # an operation that fails is counted, not fatal
            self.failed += 1
            self._problem(f"{getattr(fn, '__name__', fn)}{args}: {exc!r}", failed=True)
            return None, 0.0
        dt = time.perf_counter() - start
        self._total += dt
        return result, dt

    def _problem(self, text, failed=False):
        if len(self.problems) < 20:
            print(f"bench: {'failed' if failed else 'wrong'}: {text}", file=sys.stderr)
        if not failed:
            self.problems.append(text)

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def _report(self, problems):
        for text in problems:
            self._problem(text)

    def _panel(self, k, panel):
        csv_path, ppm_path = str(self.work / f"panel{k}.csv"), str(self.work / f"panel{k}.ppm")
        argv = panel.argv(csv_path, ppm_path)
        with self._span("cli.main"):
            rc, dt = self._op(cli.main, argv)
        if rc != 0:
            if rc is not None:
                self.failed += 1
                self._problem(f"sweep {panel} exited {rc}", failed=True)
            return
        self._add("panel", panel.cells, dt)
        key = ("panel", k)
        if key not in self._expected:
            gammas = checks.grid_nodes(*panel.gamma)
            omegas = checks.grid_nodes(*panel.omega)
            self._expected[key] = {
                (i, j): checks.analytic_class(1.0, gammas[i], panel.mu, omegas[j], CLASSIFY_TOL)
                for i, j in self.inputs.samples[k]
            }
        try:
            problems, c_grid, exceptional = checks.check_sweep_csv(
                csv_path, panel, CLASSIFY_TOL, self._expected[key]
            )
            problems += checks.check_ppm(ppm_path, c_grid, exceptional)
        except (OSError, ValueError) as exc:
            problems = [f"sweep {panel} output unreadable: {exc!r}"]
        self._report(problems)

    def _scans(self, c):
        for scan in self.inputs.scans[c::CHUNKS]:
            found, dt = self._op(
                sweep.threshold_scan, scan.mu, 1.0, scan.omega, scan.bracket, scan.tol
            )
            if found is not None:
                self.scan_s.append(dt)
                self._report(checks.check_threshold(scan, found, 1.0, CLASSIFY_TOL))

    def _slivers(self, c):
        def verdict(n, gamma0):
            omega = analytic.mu0_sliver(n, gamma0)
            return omega, floquet.classify(DrivingSpec(gamma0=gamma0, mu=0.0, omega=omega))

        for n, gamma0 in self.inputs.slivers[c::CHUNKS]:
            with self._span("bench.sliver"):
                out, dt = self._op(verdict, n, gamma0)
            if out is None:
                continue
            self._add("sliver", 1, dt)
            omega, result = out
            key = ("sliver", gamma0, omega)
            if key not in self._expected:
                self._expected[key] = checks.exact_half_trace(1.0, gamma0, 0.0, omega)
            where = f"sliver n={n} gamma0={gamma0!r} omega={omega!r}"
            self._report(
                checks.check_sliver(result.phase.value, self._expected[key], CLASSIFY_TOL, where)
            )

    def _classify(self, c):
        for k in range(c, len(self.inputs.drives), CHUNKS):
            spec = self.inputs.drives[k]
            result, dt = self._op(floquet.classify, spec)
            if result is None:
                continue
            self.classify_s.append(dt)
            if self._first_round:
                self.half_traces.append(result.half_trace)
            key = ("drive", k)
            if key not in self._expected:
                self._expected[key] = checks.analytic_class(
                    spec.J, spec.gamma0, spec.mu, spec.omega, CLASSIFY_TOL
                )
            self._report(
                checks.check_class(result.phase.value, self._expected[key], f"classify {spec}")
            )

    def _oracle(self, c):
        def checked(spec):
            m = floquet.monodromy(spec)
            return checks.check_oracle(spec, m, oracle.stepped_propagator(spec, ORACLE_STEPS))

        for spec in self.inputs.oracle[c::CHUNKS]:
            problems, dt = self._op(checked, spec)
            if problems is not None:
                self._add("oracle", 2 * ORACLE_STEPS, dt)
                self._report(problems)

    def _identity(self, c):
        def checked(spec):
            value = analytic.cos_2eps_tau(spec)
            return checks.check_identity(spec, value, floquet.monodromy(spec))

        for spec in self.inputs.identity[c::CHUNKS]:
            problems, dt = self._op(checked, spec)
            if problems is not None:
                self._add("identity", 1, dt)
                self._report(problems)

    def _kept_failing(self, argv):
        self.attempted += 1
        argv = [a.replace("{work}", str(self.work)) for a in argv]
        rc, out, err = run_child(
            [sys.executable, "-m", "ptfloquet", *argv], self.work, KEPT_FAILING_TIMEOUT_S
        )
        written = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        if rc == 0 and written and written.exists():
            out += written.read_text()
        if not checks.kept_failing_succeeded(rc, out, err):
            self.failed += 1

    def end_to_end(self, setup_s):
        usage = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )  # KiB on Linux
        values = {
            "setup_s": setup_s,
            "sweep_cells_per_s": median(self.rates["panel"]),
            "sweep_peak_rss_mb": usage / 1024.0,
            "threshold_scan_ms": median(self.scan_s) * 1e3,
            "sliver_verdicts_per_s": median(self.rates["sliver"]),
            "classify_us": median(self.classify_s) * 1e6,
            "classify_p99_us": median(self.classify_p99) * 1e6,
            "oracle_substeps_per_s": median(self.rates["oracle"]),
            "identity_drives_per_s": median(self.rates["identity"]),
        }
        return {k: {"value": float(v), "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def median(values):
    return float(statistics.median(values)) if len(values) else 0.0
