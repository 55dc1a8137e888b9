"""Tests of the benchmark itself: each workload runs end to end at a small
size, and each correctness check rejects a corrupted output.

    python3 -m pytest bench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import rounds  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from ptfloquet import analytic, classify, cli, monodromy, sweep  # noqa: E402
from ptfloquet.model import DrivingSpec  # noqa: E402
from ptfloquet.oracle import stepped_propagator  # noqa: E402


DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def quick_run(capsys, workload, trace):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--quick"]
    )
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_run_checks_every_output(capsys, workload):
    result = quick_run(capsys, workload, 0)
    assert result["correct"] is True
    # one round: only the kept-failing CLI calls fail
    assert result["failed"] == len(workloads.KEPT_FAILING[workload])
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared("end_to_end") == rounds.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_quick_traced_run_reports_every_layer(capsys):
    result = quick_run(capsys, "boundary_trace", 1)
    metrics = result["metrics"]
    assert result["correct"] is True
    assert {name: m["unit"] for name, m in metrics.items()} == declared("per_layer")
    assert metrics["floquet.classify_calls"]["value"] > 0
    assert math.isfinite(metrics["trace.overhead_pct"]["value"])


def test_benchmark_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = ["--workload", "boundary_trace", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def small_sweep(tmp_path, mu=0.0):
    panel = workloads.Panel(mu, (0.0, 4.0, 30), (0.1, 6.0, 30))
    csv_path, ppm_path = str(tmp_path / "p.csv"), str(tmp_path / "p.ppm")
    assert cli.main(panel.argv(csv_path, ppm_path)) == 0
    return panel, csv_path, ppm_path


def check_panel(panel, csv_path, ppm_path):
    gammas = checks.grid_nodes(*panel.gamma)
    omegas = checks.grid_nodes(*panel.omega)
    expected = {
        (i, j): checks.analytic_class(1.0, gammas[i], panel.mu, omegas[j], 1e-9)
        for i in range(len(gammas))
        for j in range(len(omegas))
    }
    problems, c_grid, exceptional = checks.check_sweep_csv(csv_path, panel, 1e-9, expected)
    return problems + checks.check_ppm(ppm_path, c_grid, exceptional)


def test_sweep_check_rejects_one_flipped_class_cell(tmp_path):
    panel, csv_path, ppm_path = small_sweep(tmp_path)
    assert check_panel(panel, csv_path, ppm_path) == []
    lines = Path(csv_path).read_text().splitlines(keepends=True)
    row = next(k for k, line in enumerate(lines) if ",Broken," in line)
    lines[row] = lines[row].replace(",Broken,", ",Unbroken,")
    Path(csv_path).write_text("".join(lines))
    assert check_panel(panel, csv_path, ppm_path)


def test_sweep_check_rejects_a_class_the_trace_identity_contradicts(tmp_path):
    panel, csv_path, ppm_path = small_sweep(tmp_path)
    lines = Path(csv_path).read_text().splitlines(keepends=True)
    # Broken -> Exceptional keeps c > tol, so only the identity sees it
    row = next(k for k, line in enumerate(lines) if ",Broken," in line)
    lines[row] = lines[row].replace(",Broken,", ",Exceptional,")
    Path(csv_path).write_text("".join(lines))
    gammas = checks.grid_nodes(*panel.gamma)
    omegas = checks.grid_nodes(*panel.omega)
    i, j = divmod(row - 2, len(omegas))
    expected = {(i, j): checks.analytic_class(1.0, gammas[i], panel.mu, omegas[j], 1e-9)}
    problems, _, _ = checks.check_sweep_csv(csv_path, panel, 1e-9, expected)
    assert problems


def test_ppm_check_rejects_one_wrong_pixel(tmp_path):
    panel, csv_path, ppm_path = small_sweep(tmp_path)
    payload = bytearray(Path(ppm_path).read_bytes())
    payload[-1] ^= 0x01
    Path(ppm_path).write_bytes(bytes(payload))
    assert check_panel(panel, csv_path, ppm_path)


@pytest.mark.parametrize("kind", ["static", "fast", "other"])
def test_threshold_check_rejects_a_threshold_moved_out_of_its_bracket(kind):
    sizes = {"static": (1, 0, 0), "fast": (0, 1, 0), "other": (0, 0, 1)}[kind]
    scan = workloads._scans(np.random.default_rng(5), *sizes)[0]
    found = sweep.threshold_scan(scan.mu, 1.0, scan.omega, scan.bracket, scan.tol)
    assert checks.check_threshold(scan, found, 1.0, 1e-9) == []
    moved = found + (0.05 * found if kind == "fast" else 4 * scan.tol)
    assert checks.check_threshold(scan, moved, 1.0, 1e-9)


def test_oracle_check_rejects_a_perturbed_matrix():
    spec = DrivingSpec(gamma0=0.8, mu=-0.3, omega=1.7)
    m = monodromy(spec)
    stepped = stepped_propagator(spec, workloads.ORACLE_STEPS)
    assert checks.check_oracle(spec, m, stepped) == []
    stepped[1, 0] += 1e-8
    assert checks.check_oracle(spec, m, stepped)


def test_identity_check_rejects_a_wrong_trace_and_a_wrong_determinant():
    spec = DrivingSpec(gamma0=2.5, mu=0.4, omega=0.9)
    m = monodromy(spec)
    value = analytic.cos_2eps_tau(spec)
    assert checks.check_identity(spec, value, m) == []
    assert checks.check_identity(spec, value * (1 + 1e-9), m)
    bad = m.copy()
    bad[0, 1] *= 1 + 1e-6
    assert checks.check_identity(spec, value, bad)


def test_sliver_check_rejects_a_wrong_verdict():
    omega = analytic.mu0_sliver(5, 5.0)
    result = classify(DrivingSpec(gamma0=5.0, mu=0.0, omega=omega))
    exact = checks.exact_half_trace(1.0, 5.0, 0.0, omega)
    assert checks.check_sliver(result.phase.value, exact, 1e-9, "n=5") == []
    wrong = "Broken" if result.phase.value != "Broken" else "Unbroken"
    assert checks.check_sliver(wrong, exact, 1e-9, "n=5")


def test_kept_failing_verdicts():
    assert checks.kept_failing_succeeded(2, "", "pt-floquet: omega must be finite\n")
    assert not checks.kept_failing_succeeded(2, "", "Traceback (most recent call last):\n  x\n")
    assert not checks.kept_failing_succeeded(1, "", "Traceback ...")
    assert not checks.kept_failing_succeeded(0, "gamma0,omega\ninf,nan\n", "")
    assert not checks.kept_failing_succeeded(None, "", "")
    assert checks.kept_failing_succeeded(0, "gamma0,omega\n1.5,2.0\n", "")


def test_tracer_self_time_and_ancestry():
    tracer = Tracer()

    class Box:
        @staticmethod
        def inner():
            return 1

        @staticmethod
        def outer():
            return Box.inner() + Box.inner()

    tracer.wrap(Box, "inner", "m.inner")
    tracer.wrap(Box, "outer", "m.outer")
    with tracer.span("bench.op"):
        assert Box.outer() == 2
    Box.inner()
    tracer.restore()
    assert len(tracer.durations("m.inner")) == 3
    outer = tracer.durations("m.outer")[0]
    inner = tracer.durations("m.inner")[:2].sum()
    assert tracer.minus_children("m.outer", ["m.inner"])[0] == pytest.approx(outer - inner)
    assert tracer.count_under("m.inner", "bench.op") == 2
    assert tracer.count_under("m.inner", "m.outer") == 2
    # restore put the original functions back
    assert Box.outer() == 2 and len(tracer.durations("m.outer")) == 1


def test_inputs_repeat_for_a_seed():
    a = workloads.make_inputs("boundary_trace", 9, quick=True)
    b = workloads.make_inputs("boundary_trace", 9, quick=True)
    assert a == b
    assert workloads.make_inputs("boundary_trace", 10, quick=True) != a
