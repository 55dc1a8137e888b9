"""Command-line interface: JSON point output, CSV/PPM sweep artifacts,
boundary curves and exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import SRC

from ptfloquet import DrivingSpec, classify
from ptfloquet.cli import main, render_ppm, render_sweep_csv
from ptfloquet.sweep import sweep_grid


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_json_document(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--gamma0", "0.5", "--mu", "1", "--omega", "3"
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["phase"] == "Unbroken"
    assert doc["c"] <= 1e-12
    assert list(doc) == [
        "gamma0",
        "mu",
        "omega",
        "J",
        "c",
        "phase",
        "eps_f_re",
        "eps_f_im",
        "trace_half",
        "g_plus_abs",
        "g_minus_abs",
    ]


def test_classify_broken_resonance_and_passive(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--gamma0", "0.05", "--mu", "-1", "--omega", "2"
    )
    assert code == 0
    assert json.loads(out)["phase"] == "Broken"

    code, out, _ = run_cli(
        capsys,
        "classify", "--gamma0", "0.05", "--mu", "-1", "--omega", "2", "--passive",
    )
    doc = json.loads(out)
    assert code == 0
    # loss factor exp(-2 gamma0 tau) relates the active and passive radii
    expected = doc["g_plus_abs"] * math.exp(-2.0 * 0.05 * math.pi / 2.0)
    assert doc["spectral_radius"] == pytest.approx(expected, rel=1e-12)


def test_classify_hermitian_point(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--gamma0", "0", "--mu", "0", "--omega", "1"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["c"] <= 1e-12
    assert doc["g_plus_abs"] == pytest.approx(1.0, abs=1e-12)
    assert doc["g_minus_abs"] == pytest.approx(1.0, abs=1e-12)


def test_classify_invalid_parameters_exit_2(capsys):
    base = {"--gamma0": "0.5", "--mu": "0", "--omega": "1"}
    for flag, value in [
        ("--gamma0", "-1"),
        ("--gamma0", "inf"),
        ("--omega", "inf"),
        ("--J", "inf"),
    ]:
        argv = ["classify"]
        for key, default in {**base, flag: value}.items():
            argv += [key, default]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, (flag, value)
        assert out == ""
        assert err.strip() != "" and "\n" not in err.strip()
        assert "Traceback" not in err
        if value == "inf":
            assert flag.lstrip("-") in err


def test_sweep_csv_format_and_round_trip(tmp_path, capsys):
    out_file = tmp_path / "grid.csv"
    code, _, err = run_cli(
        capsys,
        "sweep", "--mu", "-1",
        "--gamma-min", "0", "--gamma-max", "2", "--gamma-steps", "8",
        "--omega-min", "0.5", "--omega-max", "3", "--omega-steps", "5",
        "--out", str(out_file),
    )
    assert code == 0, err
    lines = out_file.read_text().splitlines()
    assert lines[0] == "# pt-floquet sweep mu=-1.0 J=1.0 tol=1e-09"
    assert lines[1] == "gamma0,omega,c,phase,trace_half"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 8 * 5
    # gamma-major ordering: omega cycles fastest
    assert rows[0][0] == rows[4][0]
    assert rows[0][1] != rows[1][1]
    # re-parsing and re-classifying reproduces the stored labels exactly
    for gamma_s, omega_s, c_s, phase_s, trace_s in rows:
        spec = DrivingSpec(gamma0=float(gamma_s), mu=-1.0, omega=float(omega_s))
        r = classify(spec)
        assert r.phase.value == phase_s
        assert r.c == float(c_s)
        half_trace = (r.monodromy[0, 0] + r.monodromy[1, 1]).real / 2.0
        assert half_trace == float(trace_s)


def test_sweep_rejects_degenerate_grid_and_overwrite(tmp_path, capsys):
    out_file = tmp_path / "grid.csv"
    args = [
        "sweep", "--mu", "0",
        "--gamma-steps", "1", "--omega-steps", "1", "--out", str(out_file),
    ]
    code, _, err = run_cli(capsys, *args)
    assert code == 2 and "at least 2" in err

    good = [
        "sweep", "--mu", "0",
        "--gamma-min", "0", "--gamma-max", "1", "--gamma-steps", "3",
        "--omega-min", "1", "--omega-max", "2", "--omega-steps", "3",
        "--out", str(out_file),
    ]
    assert run_cli(capsys, *good)[0] == 0
    code, _, err = run_cli(capsys, *good)
    assert code == 2 and "overwrite" in err
    assert run_cli(capsys, *good, "--force")[0] == 0


def test_ppm_bytes_are_exactly_header_plus_payload(tmp_path, capsys):
    out_file = tmp_path / "grid.csv"
    ppm_file = tmp_path / "grid.ppm"
    code, _, err = run_cli(
        capsys,
        "sweep", "--mu", "0.5",
        "--gamma-min", "0", "--gamma-max", "2", "--gamma-steps", "400",
        "--omega-min", "0.5", "--omega-max", "3", "--omega-steps", "400",
        "--out", str(out_file), "--ppm", str(ppm_file),
    )
    assert code == 0, err
    payload = ppm_file.read_bytes()
    assert payload.startswith(b"P6\n400 400\n255\n")
    assert len(b"P6\n400 400\n255\n") == 15
    assert len(payload) == 15 + 3 * 400 * 400


def test_ppm_pixel_mapping():
    grid = sweep_grid(1.0, 1.0, (0.0, 2.0, 5), (1.0, 2.0, 4))
    blob = render_ppm(grid)
    header_len = len(b"P6\n4 5\n255\n")
    pixels = np.frombuffer(blob[header_len:], dtype=np.uint8).reshape(5, 4, 3)
    for i in range(5):
        for j in range(4):
            row = 5 - 1 - i  # top image row is gamma max
            c = grid.c_values[i, j]
            if grid.classes[i, j] == 2:
                expected = (255, 255, 255)
            else:
                expected = (round(255 * c), 0, round(255 * (1 - c)))
            assert tuple(pixels[row, j]) == expected


def test_boundary_unbroken_ellipse_rows(capsys):
    code, out, _ = run_cli(
        capsys, "boundary", "--kind", "unbroken-ellipse", "--n", "1", "--samples", "5"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gamma0,omega"
    assert lines[1] == "0.0,1.0"
    assert any(line.startswith("0.6,0.8") for line in lines)


def test_boundary_asymptotic_rows_match_formula(capsys):
    code, out, _ = run_cli(
        capsys,
        "boundary", "--kind", "asymptotic",
        "--samples", "3", "--gamma-min", "5", "--gamma-max", "15",
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [float(r[0]) for r in rows] == [5.0, 10.0, 15.0]
    for gamma_s, omega_s in rows:
        gamma = float(gamma_s)
        assert float(omega_s) == pytest.approx(
            math.pi * gamma / math.asinh(gamma), rel=1e-15
        )


def test_boundary_sliver_range_is_left_open(capsys):
    code, out, _ = run_cli(
        capsys,
        "boundary", "--kind", "mu0-sliver", "--n", "1",
        "--samples", "4", "--gamma-max", "9",
    )
    assert code == 0
    gammas = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert gammas == [3.0, 5.0, 7.0, 9.0]


def test_boundary_rejects_bad_indices(capsys):
    assert run_cli(capsys, "boundary", "--kind", "mu0-sliver", "--n", "2")[0] == 2
    assert run_cli(capsys, "boundary", "--kind", "unbroken-ellipse", "--n", "0")[0] == 2
    assert run_cli(capsys, "boundary", "--kind", "broken-ellipse", "--n", "0")[0] == 2
    assert run_cli(capsys, "boundary", "--kind", "unbroken-ellipse")[0] == 2
    for kind, extra, flag in [
        ("asymptotic", [], "--gamma-max"),
        ("mu0-sliver", ["--n", "1"], "--gamma-max"),
        ("asymptotic", [], "--gamma-min"),
    ]:
        code, out, err = run_cli(
            capsys, "boundary", "--kind", kind, *extra, flag, "inf", "--samples", "2"
        )
        assert code == 2 and out == ""
        assert flag in err and "\n" not in err.strip()
        assert "Traceback" not in err


def test_csv_floats_round_trip_shortest_repr():
    grid = sweep_grid(0.0, 1.0, (0.0, 1.0, 3), (0.7, 2.1, 3))
    text = render_sweep_csv(grid)
    for line in text.splitlines()[2:]:
        if not line:
            continue
        gamma_s, omega_s, c_s, _, trace_s = line.split(",")
        for token in (gamma_s, omega_s, c_s, trace_s):
            assert repr(float(token)) == token


def test_module_entry_point_subprocess(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "ptfloquet", "classify",
         "--gamma0", "0.3", "--mu", "0.5", "--omega", "5.0"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["phase"] == "Unbroken"
    proc = subprocess.run(
        [sys.executable, "-m", "ptfloquet", "boundary", "--kind", "mu0-sliver",
         "--n", "4"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
