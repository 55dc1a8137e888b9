"""Command-line interface: JSON point output, CSV/PPM sweep artifacts,
boundary curves and exit codes."""

import json
import math
import os
import stat
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from conftest import SRC

from ptfloquet import DrivingSpec, classify, cli, floquet, monodromy, sweep
from ptfloquet.cli import main, render_ppm, render_sweep_csv
from ptfloquet.sweep import _evaluate_row, sweep_grid


def run_cli(capsys, *argv):
    # a warning is shown on stderr, as Python shows it outside the test runner
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(list(argv))
    captured = capsys.readouterr()
    shown = "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
        for w in caught
    )
    return code, captured.out, captured.err + shown


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_classify_json_document(capsys):
    # the key list is fixed; a float beyond double range is written as null
    # (the two saturated drives have c = 1 - ulp; at the first h overflows,
    # at the second only h*h does, and g+- = 2h, 1/(2h) stay finite)
    for gamma0, mu, omega, nulls in [
        ("0.5", "1", "3", []),
        ("10", "-1", "0.05", ["eps_f_im", "trace_half", "g_plus_abs"]),
        ("4", "-1", "0.035", []),
        # Re eps_f folds by the given omega, not by pi / tau, which overflows
        ("0.1", "0", "1.7976931348623157e308", []),
    ]:
        code, out, err = run_cli(
            capsys, "classify", "--gamma0", gamma0, "--mu", mu, "--omega", omega
        )
        assert code == 0 and err == ""
        doc = json.loads(out, parse_constant=_reject_constant)
        assert [key for key, value in doc.items() if value is None] == nulls
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
        if gamma0 in ("0.5", "0.1"):
            assert doc["phase"] == "Unbroken"
            assert doc["c"] <= 1e-12
        else:
            assert doc["phase"] == "Broken" and doc["c"] == math.nextafter(1.0, 0.0)
        if gamma0 == "0.1":
            assert doc["trace_half"] == 1.0 and doc["eps_f_re"] == 0.0
        if gamma0 == "10":
            assert doc["g_minus_abs"] == 0.0
        if gamma0 == "4":
            assert doc["trace_half"] == pytest.approx(-3.003022173458965e300)
            assert doc["g_plus_abs"] == -2.0 * doc["trace_half"]
            assert doc["g_minus_abs"] == -0.5 / doc["trace_half"]


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

    # the decay factor underflows to 0 where |g_plus| is inf: the radius is
    # null, as g_plus_abs is, and nothing is written to stderr
    code, out, err = run_cli(
        capsys,
        "classify", "--gamma0", "10", "--mu", "-1", "--omega", "0.05", "--passive",
    )
    doc = json.loads(out, parse_constant=_reject_constant)
    assert code == 0 and err == ""
    assert doc["g_plus_abs"] is None and doc["spectral_radius"] is None


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
        ("--gamma0", "1e200"),  # finite, but the half trace comes out NaN
        ("--omega", "1e-310"),  # finite, but the period overflows
        ("--J", "1e155"),  # finite, but J * J overflows
    ]:
        argv = ["classify"]
        for key, default in {**base, flag: value}.items():
            argv += [key, default]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, (flag, value)
        assert out == ""
        assert err.strip() != "" and "\n" not in err.strip()
        assert "Traceback" not in err
        if value in ("inf", "1e200", "1e-310", "1e155"):
            assert flag.lstrip("-") in err
    # a half step beyond double range (math.sinh overflows) names the drive
    code, out, err = run_cli(
        capsys, "classify", "--gamma0", "3", "--mu", "0", "--omega", "0.01"
    )
    assert code == 2 and out == ""
    assert "gamma0=3.0, mu=0.0, omega=0.01" in err
    assert "\n" not in err.strip() and "Traceback" not in err


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
        m = monodromy(spec)
        half_trace = (m[0, 0] + m[1, 1]).real / 2.0
        assert half_trace == float(trace_s)


def test_sweep_rejects_degenerate_grid_and_overwrite(tmp_path, capsys):
    out_file = tmp_path / "grid.csv"
    args = [
        "sweep", "--mu", "0",
        "--gamma-steps", "1", "--omega-steps", "1", "--out", str(out_file),
    ]
    code, _, err = run_cli(capsys, *args)
    assert code == 2 and "at least 2" in err

    # finite input whose half trace comes out NaN: no nan rows, no file
    code, out, err = run_cli(
        capsys, "sweep", "--mu", "1", "--gamma-max", "1e200",
        "--gamma-steps", "2", "--omega-steps", "2", "--out", str(out_file),
    )
    assert code == 2 and out == "" and "gamma0=1e+200" in err
    assert "\n" not in err.strip() and not out_file.exists()

    # a period that overflows, an existing PPM and a missing directory are
    # each refused with one line, and none of them leaves a CSV behind
    ppm_file = tmp_path / "taken.ppm"
    ppm_file.write_bytes(b"")
    same = str(tmp_path / "." / "grid.csv")
    for extra, needle in [
        (["--omega-min", "1e-310", "--out", str(out_file)], "omega"),
        (["--J", "1e155", "--out", str(out_file)], "J * J"),
        # the gamma0 = 2 row's half step overflows at omega = 1e-300
        (["--omega-min", "1e-300", "--gamma-steps", "3", "--omega-steps", "3",
          "--out", str(out_file)], "gamma0=2.0"),
        # one path for both outputs is refused, with or without --force
        (["--out", str(out_file), "--ppm", same], "same file"),
        (["--out", str(out_file), "--ppm", same, "--force"], "same file"),
        (["--out", str(out_file), "--ppm", str(ppm_file)], "overwrite"),
        (["--out", str(tmp_path / "missing" / "grid.csv")], "missing/grid.csv'"),
        # the CSV is staged first, then the PPM fails: the staged CSV is removed
        (["--out", str(out_file), "--ppm", str(tmp_path / "missing" / "x.ppm")],
         "missing/x.ppm'"),
        # a grid far too large to hold fails at its first row, which overflows,
        # having allocated nothing for the rows to come; never swap this for
        # a grid that would run to the end (1e10 cells)
        (["--mu", "1", "--gamma-min", "2", "--gamma-max", "4",
          "--gamma-steps", "100000", "--omega-min", "1e-300", "--omega-max", "1",
          "--omega-steps", "100000", "--out", str(out_file)], "gamma0=2.0"),
    ]:
        code, out, err = run_cli(
            capsys, "sweep", "--mu", "0", "--gamma-steps", "2", "--omega-steps", "2",
            *extra,
        )
        assert code == 2 and out == "" and needle in err, extra
        assert "\n" not in err.strip() and "Traceback" not in err
        assert not out_file.exists() and not list(tmp_path.glob("*.part"))
        assert not (tmp_path / "missing").exists()

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


def test_sweep_refuses_an_empty_output_path_before_computing(
    tmp_path, capsys, monkeypatch
):
    # an empty path would resolve to the working directory: it is refused
    # up front, naming its flag, before any row is made or any file staged
    # beside the working directory
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setattr(sweep, "resolve_workers", lambda: 1)
    rows_made = []

    def counted_row(*args):
        rows_made.append(args)
        return _evaluate_row(*args)

    monkeypatch.setattr(sweep, "_evaluate_row", counted_row)
    grid = ["sweep", "--mu", "0", "--gamma-steps", "2", "--omega-steps", "2"]
    for extra, flag in [
        (["--out", ""], "--out"),
        (["--out", "", "--force"], "--out"),
        (["--out", "grid.csv", "--ppm", ""], "--ppm"),
    ]:
        code, out, err = run_cli(capsys, *grid, *extra)
        assert code == 2 and out == "", extra
        assert err == f"pt-floquet: {flag} needs a file path, got ''\n", extra
        assert rows_made == []
        assert list(cwd.iterdir()) == [] and list(tmp_path.iterdir()) == [cwd]


def test_failed_sweep_leaves_existing_outputs_untouched(tmp_path, capsys):
    # outputs are staged beside their targets and renamed into place only
    # after every write has succeeded: a PPM that cannot be written leaves
    # the CSV that --force would replace byte for byte, and no staged file;
    # the error names the path given, not the staged one
    old = tmp_path / "old.csv"
    old.write_bytes(b"old bytes\n")
    (tmp_path / "adir").mkdir()
    sweep = ["sweep", "--mu", "0", "--gamma-steps", "2", "--omega-steps", "2", "--force"]
    for ppm in [tmp_path / "missing" / "x.ppm", tmp_path / "adir"]:
        code, out, err = run_cli(capsys, *sweep, "--out", str(old), "--ppm", str(ppm))
        assert code == 2 and out == "" and f"'{ppm}'" in err and ".part" not in err
        assert "\n" not in err.strip() and "Traceback" not in err
        assert old.read_bytes() == b"old bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "old.csv"]
    (tmp_path / "adir").rmdir()

    # a successful overwrite keeps the file's mode and writes through a
    # symlink; a new file gets the mode plain open() gives
    old.chmod(0o640)
    link, ppm = tmp_path / "link.csv", tmp_path / "new.ppm"
    link.symlink_to(old)
    code, _, err = run_cli(capsys, *sweep, "--out", str(link), "--ppm", str(ppm))
    assert code == 0, err
    assert link.is_symlink() and old.read_text().startswith("# pt-floquet sweep ")
    assert stat.S_IMODE(old.stat().st_mode) == 0o640
    reference = tmp_path / "reference"
    reference.write_bytes(b"")
    assert ppm.stat().st_mode == reference.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "link.csv", "new.ppm", "old.csv", "reference"
    ]


def test_sweep_writes_a_fifo_in_place(tmp_path, capsys):
    # an existing target that is not a regular file (a FIFO here, a device
    # such as /dev/stdout in use) cannot be replaced: it is written in place
    # and stays what it was
    fifo = tmp_path / "grid.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so the writer's open returns
    try:
        code, _, err = run_cli(
            capsys, "sweep", "--mu", "0", "--gamma-steps", "2", "--omega-steps", "2",
            "--out", str(fifo), "--force",
        )
        received = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert code == 0, err
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert received.decode("ascii").startswith("# pt-floquet sweep mu=0.0 ")
    assert [p.name for p in tmp_path.iterdir()] == ["grid.fifo"]


def test_classify_and_sweep_have_no_tol_option(tmp_path):
    # the phase rule has a fixed band, so --tol is an unknown option
    for argv in [
        ["classify", "--gamma0", "0.6", "--mu", "-1", "--omega", "1.6"],
        ["sweep", "--mu", "0", "--gamma-steps", "2", "--omega-steps", "2",
         "--out", str(tmp_path / "grid.csv")],
    ]:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--tol", "1e-9"])
        assert exc.value.code == 2
    assert not (tmp_path / "grid.csv").exists()


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


def test_streamed_sweep_bytes_equal_the_library_renderers(tmp_path, capsys, monkeypatch):
    # sweep writes each row as it is made; its files must be the bytes the
    # library renderers make from the whole grid.  The grids are those of
    # test_sweep_matches_pointwise_classify: series rows, the corner that
    # precise re-evaluates and saturated cells; and one of fewer rows than
    # workers.  Rows are made and rendered in forked workers, one per CPU:
    # the files and sweep_grid's arrays are the same bytes at 1, 2 and 3.
    # PPM pixels are rendered, one call per row, only with --ppm; a forked
    # worker's calls are not counted here, so the count is checked at 1
    real_ppm_row = cli._ppm_row
    ppm_calls = []

    def counted_ppm_row(c, code):
        ppm_calls.append(c.size)
        return real_ppm_row(c, code)

    monkeypatch.setattr(cli, "_ppm_row", counted_ppm_row)
    cases = [
        (-0.4, (0.0, 2.0, 9), (0.4, 3.0, 11)),
        (1.0, (0.5, 1.5, 3), (0.05, 3.0, 11)),
        (0.5, (1.0, 3.0, 3), (0.05, 3.0, 11)),
        (0.9, (0.0, 4.0, 2), (0.1, 6.0, 2)),
        (-1.0, (3.0, 4.0, 3), (0.03, 0.06, 13)),
        (0.5, (0.0, 2.0, 2), (0.1, 6.0, 50)),
    ]
    csv_file, ppm_file = tmp_path / "grid.csv", tmp_path / "grid.ppm"
    for mu, gamma_range, omega_range in cases:
        argv = [f"--mu={mu!r}", f"--out={csv_file}", "--force"]
        for axis, (lo, hi, steps) in (("gamma", gamma_range), ("omega", omega_range)):
            argv += [f"--{axis}-min={lo!r}", f"--{axis}-max={hi!r}"]
            argv.append(f"--{axis}-steps={steps}")
        made = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(sweep, "resolve_workers", lambda: workers)
            ppm_calls.clear()
            code, _, err = run_cli(capsys, "sweep", *argv, f"--ppm={ppm_file}")
            assert code == 0 and err == "", (argv, workers)
            if workers == 1:
                assert ppm_calls == [omega_range[2]] * gamma_range[2], argv
            grid = sweep_grid(mu, 1.0, gamma_range, omega_range)
            csv_bytes, ppm_bytes = csv_file.read_bytes(), ppm_file.read_bytes()
            assert csv_bytes == render_sweep_csv(grid).encode("ascii"), (argv, workers)
            assert ppm_bytes == render_ppm(grid), (argv, workers)
            arrays = (grid.trace_half, grid.c_values, grid.classes)
            made[workers] = [csv_bytes, ppm_bytes, *(a.tobytes() for a in arrays)]
        assert made[2] == made[1] and made[3] == made[1], argv
        monkeypatch.setattr(sweep, "resolve_workers", lambda: 1)
        ppm_calls.clear()
        code, _, err = run_cli(capsys, "sweep", *argv)
        assert code == 0 and err == "" and ppm_calls == [], argv
        assert csv_file.read_bytes() == made[1][0], argv


def _row_failing_from_gamma0_2(J, gamma0, mu, omega_axis):
    """sweep._evaluate_row, but a ValueError for each gamma0 >= 2: a fault
    made here, so that a test does not rest on a drive the kernel cannot
    evaluate today."""
    if gamma0 >= 2.0:
        raise ValueError(f"no row at gamma0={gamma0!r}")
    return _evaluate_row(J, gamma0, mu, omega_axis)


def test_forked_sweep_fails_at_its_row_like_one_worker(tmp_path, capsys, monkeypatch):
    # an exception raised for a row in a worker is raised at that row, after
    # every row before it: exit 2 with the same one line, and a FIFO output
    # holds the same rows as at 1 worker
    monkeypatch.setattr(sweep, "_evaluate_row", _row_failing_from_gamma0_2)
    fifo = tmp_path / "grid.fifo"
    os.mkfifo(fifo)
    seen = {}
    for workers in (1, 2):
        monkeypatch.setattr(sweep, "resolve_workers", lambda: workers)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, out, err = run_cli(
                capsys, "sweep", "--mu", "1", "--gamma-min", "0", "--gamma-max", "4",
                "--gamma-steps", "9", "--omega-min", "0.01", "--omega-max", "0.06",
                "--omega-steps", "5", "--out", str(fifo), "--force",
            )
            received = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        seen[workers] = code, out, err, received
    assert seen[2] == seen[1]
    code, out, err, received = seen[1]
    assert code == 2 and out == "" and err == "pt-floquet: no row at gamma0=2.0\n"
    lines = received.decode("ascii").splitlines()
    assert len(lines) == 2 + 4 * 5 and lines[-1].startswith("1.5,")


def test_sweep_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    # a failed allocation, whether the parent's (the axes) or a worker's (a
    # row, forwarded to the parent like any exception), exits 2 with one
    # line and leaves no output
    def no_memory(*args):
        raise MemoryError()

    def no_memory_from_gamma0_2(J, gamma0, mu, omega_axis):
        if gamma0 >= 2.0:
            raise MemoryError()
        return _evaluate_row(J, gamma0, mu, omega_axis)

    out_file = tmp_path / "grid.csv"
    argv = [
        "sweep", "--mu", "0", "--gamma-min", "0", "--gamma-max", "4",
        "--gamma-steps", "9", "--omega-steps", "5", "--out", str(out_file),
        "--ppm", str(tmp_path / "grid.ppm"),
    ]
    cases = [("grid_axis", no_memory, 1)]
    cases += [("_evaluate_row", no_memory_from_gamma0_2, w) for w in (1, 2)]
    for name, fault, workers in cases:
        with monkeypatch.context() as patch:
            patch.setattr(sweep, name, fault)
            patch.setattr(sweep, "resolve_workers", lambda: workers)
            code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", (name, workers)
        assert err.startswith("pt-floquet: out of memory"), (name, workers)
        assert err.count("\n") == 1 and err.endswith("\n"), (name, workers)
        assert list(tmp_path.iterdir()) == [], (name, workers)


def test_no_sweep_worker_outlives_the_call(tmp_path, capsys, monkeypatch):
    # every worker is reaped before main returns: after a success, after a
    # write that fails (ENOSPC) while the workers still have rows to make,
    # and after a row that fails in a worker
    monkeypatch.setattr(sweep, "resolve_workers", lambda: 2)
    panel = ["sweep", "--mu", "0", "--force"]  # 400 x 400
    out_file = str(tmp_path / "grid.csv")

    def no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    assert run_cli(capsys, *panel, "--out", out_file)[0] == 0
    no_child_left()
    code, _, err = run_cli(capsys, *panel, "--out", "/dev/full")
    assert code == 2 and "No space left on device: '/dev/full'" in err
    no_child_left()
    monkeypatch.setattr(sweep, "_evaluate_row", _row_failing_from_gamma0_2)
    code, _, err = run_cli(capsys, *panel, "--out", out_file)
    assert code == 2 and "no row at gamma0=2.005" in err
    no_child_left()


# prints the exit code and peak RSS (kB on Linux) of the command in its
# argv; a child's ru_maxrss starts at the RSS of the process that spawned
# it, so the sweep is spawned from this small process, not the test runner
_PEAK_RSS = (
    "import os, subprocess, sys; p = subprocess.Popen(sys.argv[1:]); "
    "_, status, usage = os.wait4(p.pid, 0); "
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
)


def _sweep_peak_rss_mb(tmp_path, gamma_steps, ppm):
    """Peak RSS of one `python -m ptfloquet sweep` process, in MB."""
    argv = [
        sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "ptfloquet", "sweep",
        "--mu", "0", "--gamma-steps", str(gamma_steps), "--omega-steps", "400",
        "--out", str(tmp_path / f"{gamma_steps}.csv"), "--force",
    ]
    if ppm:
        argv.append(f"--ppm={tmp_path / f'{gamma_steps}.ppm'}")
    proc = subprocess.run(
        argv, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    code, max_rss = proc.stdout.split()
    assert proc.returncode == 0 and code == "0", (argv, proc.stderr)
    return int(max_rss) / 1024.0


def test_sweep_memory_does_not_grow_with_gamma_rows(tmp_path):
    # rows are written as they are made, so 750 more rows (300 000 cells)
    # may cost only the PPM's 3 bytes a cell; whole-grid copies of the
    # arrays and the CSV document took about 230 bytes a cell
    for ppm in (False, True):
        growth = _sweep_peak_rss_mb(tmp_path, 800, ppm) - _sweep_peak_rss_mb(
            tmp_path, 50, ppm
        )
        assert growth < 16.0, (ppm, growth)


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
    # one sample is --gamma-min alone
    code, out, _ = run_cli(
        capsys,
        "boundary", "--kind", "asymptotic",
        "--samples", "1", "--gamma-min", "5", "--gamma-max", "15",
    )
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 1 and rows[0].startswith("5.0,")


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
    assert run_cli(capsys, "boundary", "--kind", "broken-ellipse", "--n", "-1")[0] == 2
    # n = 0 is the broken family's primary resonance, the curve from (0, 2J)
    code, out, _ = run_cli(capsys, "boundary", "--kind", "broken-ellipse", "--n", "0")
    assert code == 0 and out.splitlines()[1] == "0.0,2.0"
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
    for kind, extra, value in [
        ("asymptotic", [], "0"),
        ("mu0-sliver", ["--n", "1"], "-1"),
        ("mu0-sliver", ["--n", "1"], "nan"),
    ]:
        code, out, err = run_cli(
            capsys, "boundary", "--kind", kind, *extra, "--J", value, "--samples", "2"
        )
        assert code == 2 and out == ""
        assert "--J" in err and "\n" not in err.strip()
        assert "Traceback" not in err
    # a curve point beyond double range is refused, naming its gamma0
    for argv, needle in [
        (["--kind", "unbroken-ellipse", "--n", "3", "--samples", "2", "--J", "1e300"],
         "gamma0=0.0"),
        (["--kind", "asymptotic", "--samples", "2",
          "--gamma-max", "1.7976931348623157e308", "--J", "2e-5"], "gamma0="),
    ]:
        code, out, err = run_cli(capsys, "boundary", *argv)
        assert code == 2 and out == "" and needle in err, argv
        assert "\n" not in err.strip() and "Traceback" not in err
    # the curve families live on gamma0 > J: --gamma-min lies in (J, --gamma-max]
    for kind, extra in [
        ("asymptotic", ["--gamma-min", "0", "--gamma-max", "2", "--samples", "3"]),
        ("asymptotic", ["--gamma-min", "-3", "--samples", "2"]),
        ("mu0-sliver", ["--n", "1", "--gamma-min", "3", "--gamma-max", "2"]),
    ]:
        code, out, err = run_cli(capsys, "boundary", "--kind", kind, *extra)
        assert code == 2 and out == "", extra
        assert "--gamma-min" in err and "\n" not in err.strip()
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


# extreme, non-finite and near-overflow values for the seeded CLI fuzz
_FUZZ_VALUES = (
    0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e-310, 1e300, -1e300,
    sys.float_info.max, -sys.float_info.max, math.inf, -math.inf, math.nan,
    0.03, 1e9, 1.0, -1.0, 0.5, 2.0**27, 1.34e154,
)


_BARE_LIBM_MESSAGES = ("pt-floquet: math domain error", "pt-floquet: math range error")


def _fuzz_value(rng, lo=1e-3, hi=1e3):
    if rng.random() < 0.4:
        return repr(_FUZZ_VALUES[rng.integers(len(_FUZZ_VALUES))])
    return repr(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _fuzz_argv(rng, out_file):
    """One CLI call; every value goes as --flag=value, so that argparse
    takes a negative number for a value, not for an option."""
    command = ("classify", "sweep", "boundary")[rng.integers(3)]
    argv = [command]

    def flag(name, value, p=1.0):
        if rng.random() < p:
            argv.append(f"--{name}={value}")

    mu = _fuzz_value(rng) if rng.random() < 0.2 else repr(rng.uniform(-1.0, 1.0))
    flag("J", _fuzz_value(rng, 0.1, 10.0), 0.3)
    if command == "classify":
        flag("gamma0", _fuzz_value(rng))
        flag("mu", mu)
        flag("omega", _fuzz_value(rng))
        if rng.random() < 0.2:
            argv.append("--passive")
    elif command == "sweep":
        flag("mu", mu)
        for name in ("gamma-min", "gamma-max", "omega-min", "omega-max"):
            flag(name, _fuzz_value(rng), 0.6)
        for name in ("gamma-steps", "omega-steps"):
            flag(name, int(rng.integers(-1, 5)) if rng.random() < 0.2 else 4)
        argv += [f"--out={out_file}", "--force"]
        if rng.random() < 0.2:
            argv.append(f"--ppm={out_file}{'.ppm' if rng.random() < 0.5 else ''}")
    else:
        kinds = ("unbroken-ellipse", "broken-ellipse", "asymptotic", "mu0-sliver")
        flag("kind", kinds[rng.integers(len(kinds))])
        flag("n", int(rng.integers(-1, 8)), 0.8)
        flag("samples", int(rng.integers(-1, 5)) if rng.random() < 0.2 else 4)
        for name in ("gamma-min", "gamma-max"):
            flag(name, _fuzz_value(rng), 0.5)
    return argv


def test_cli_contract_fuzz(tmp_path, capsys):
    # every accepted input ends with exit 0, 2 or 3 and never a traceback;
    # exit 0 comes only with valid JSON, c in [0, 1) and finite curves
    rng = np.random.default_rng(20260)
    out_file = tmp_path / "fuzz.csv"
    # the seed draws no call that warned; this --passive drive printed a
    # numpy RuntimeWarning while exiting 0
    warned = ["classify", "--gamma0=10", "--mu=-1", "--omega=0.05", "--passive"]
    for argv in [warned] + [_fuzz_argv(rng, out_file) for _ in range(800)]:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 5.0, argv
        assert code in (0, 2, 3), argv
        if code != 0:
            assert out == "" and "\n" not in err.strip() and "Traceback" not in err
            # a message names what went wrong, not just the libm function's fault
            assert err.strip() not in _BARE_LIBM_MESSAGES, argv
            continue
        assert err == "", argv  # no warning either
        if argv[0] == "classify":
            doc = json.loads(out, parse_constant=_reject_constant)
            assert doc["trace_half"] is None or doc["g_plus_abs"] is not None, argv
            assert doc["trace_half"] is None or doc["eps_f_re"] is not None, argv
        elif argv[0] == "sweep":
            text = out_file.read_bytes().decode("ascii", "replace")
            assert text.startswith("# pt-floquet sweep "), argv
            rows = text.splitlines()[2:]
            assert all(0.0 <= float(row.split(",")[2]) < 1.0 for row in rows), argv
        else:
            for row in out.splitlines()[1:]:
                assert all(math.isfinite(float(v)) for v in row.split(",")), argv
