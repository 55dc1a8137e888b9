"""Grid sweep engine: determinism, grid-node exactness, structure checks
and the threshold scan."""

import math
import os
import signal
import sys

import numpy as np
import pytest

from ptfloquet import (
    BracketError,
    DrivingSpec,
    classify,
    grid_axis,
    sweep_grid,
    threshold_scan,
)
from ptfloquet import floquet, precise, sweep
from ptfloquet.errors import ConsistencyError
from ptfloquet.floquet import BROKEN_CODE, DEFAULT_TOL, UNBROKEN_CODE, trace_noise
from ptfloquet.sweep import _trace_noise_row, iter_rows


def test_grid_axis_exact_endpoints_and_refinement():
    axis = grid_axis(0.0, 4.0, 401)
    assert axis[0] == 0.0 and axis[-1] == 4.0
    coarse = grid_axis(0.1, 6.0, 21)
    fine = grid_axis(0.1, 6.0, 41)
    np.testing.assert_array_equal(coarse, fine[::2])


def test_grid_axis_integer_bounds_match_float_bounds():
    # k * (hi - lo) in int64 would wrap around beyond 9.2e18
    for hi in (4, 10**17):
        axis = grid_axis(0, hi, 401)
        np.testing.assert_array_equal(axis, grid_axis(0.0, float(hi), 401))
        assert axis.dtype == np.float64 and axis[-1] == hi


def test_grid_axis_stays_in_range_where_k_times_the_span_overflows():
    # k * (hi - lo) overflows at the last nodes of these finite ranges; the
    # nodes stay those of the unscaled form wherever it is finite
    top = sys.float_info.max
    cases = [(2.0, top, 3), (0.0, top, 3), (0.0, top, 400), (1e300, top, 7)]
    for lo, hi, count in cases:
        with np.errstate(over="ignore"):
            unscaled = lo + np.arange(count, dtype=float) * (hi - lo) / (count - 1)
        axis = grid_axis(lo, hi, count)
        assert np.isfinite(axis).all() and axis[0] == lo and axis[-1] <= hi
        finite = np.isfinite(unscaled)
        assert not finite.all()
        np.testing.assert_array_equal(axis[finite], unscaled[finite])
    with pytest.raises(ValueError, match="leaves double range"):
        grid_axis(-top, top, 3)


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep_grid(0.0, 1.0, (0.0, 1.0, 1), (0.1, 2.0, 10))
    with pytest.raises(ValueError):
        sweep_grid(0.0, 1.0, (1.0, 0.0, 10), (0.1, 2.0, 10))
    with pytest.raises(ValueError):
        sweep_grid(0.0, 1.0, (0.0, 1.0, 10), (0.0, 2.0, 10))  # omega must be > 0
    with pytest.raises(ValueError):
        sweep_grid(1.5, 1.0, (0.0, 1.0, 10), (0.1, 2.0, 10))  # mu out of range
    with pytest.raises(ValueError):
        sweep_grid(0.0, -1.0, (0.0, 1.0, 10), (0.1, 2.0, 10))  # bad coupling


def test_iter_rows_checks_first_and_makes_rows_on_demand(monkeypatch):
    # every grid check runs at the call; a row is made only when asked for,
    # and sweep_grid holds exactly the rows iter_rows yields, at 1 and at 2
    # workers.  Rows made in forked workers are not counted here, so the
    # counts are checked at 1 worker
    with pytest.raises(ValueError):
        iter_rows(0.0, 1.0, (0.0, 1.0, 1), (0.1, 2.0, 10))
    with pytest.raises(ValueError):
        iter_rows(1.5, 1.0, (0.0, 1.0, 10), (0.1, 2.0, 10))
    made = []
    real_row = sweep._evaluate_row

    def counted_row(J, gamma0, mu, omega_axis):
        made.append(gamma0)
        return real_row(J, gamma0, mu, omega_axis)

    monkeypatch.setattr(sweep, "_evaluate_row", counted_row)
    for workers in (1, 2):
        monkeypatch.setattr(sweep, "resolve_workers", lambda: workers)
        made.clear()
        gamma_axis, omega_axis, rows = iter_rows(0.5, 1.0, (0.0, 2.0, 5), (0.2, 3.0, 7))
        assert made == []
        first = next(rows)
        if workers == 1:
            assert made == [0.0]
        collected = [first, *rows]
        if workers == 1:
            assert made == gamma_axis.tolist()
        grid = sweep_grid(0.5, 1.0, (0.0, 2.0, 5), (0.2, 3.0, 7))
        np.testing.assert_array_equal(grid.gamma_axis, gamma_axis)
        np.testing.assert_array_equal(grid.omega_axis, omega_axis)
        for i, (h, c, code) in enumerate(collected):
            assert grid.trace_half[i].tobytes() == h.tobytes()
            assert grid.c_values[i].tobytes() == c.tobytes()
            np.testing.assert_array_equal(grid.classes[i], code)


def _maker_pid(gamma0, half_trace, c, code):
    """A per_row: the id of the process that made the row."""
    return os.getpid()


def _maker_cpus(gamma0, half_trace, c, code):
    """A per_row: the CPUs the process that made the row may run on."""
    return sorted(os.sched_getaffinity(0))


def _dies_at_gamma0_1(gamma0, half_trace, c, code):
    """A per_row whose process ends, sending nothing, at gamma0 = 1."""
    if gamma0 == 1.0:
        os._exit(1)
    return gamma0


def _dies_writing_gamma0_1(gamma0, half_trace, c, code):
    """A per_row: the id of the process that made the row, but at gamma0 = 1
    a 1 MB row, more than a pipe buffer holds, and a timer whose signal
    ends the process while it is blocked writing that row."""
    if gamma0 == 1.0:
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        return bytes(2**20)
    return os.getpid()


def test_rows_are_made_in_forked_workers_in_turn(monkeypatch):
    # one worker per CPU this process may use; with W workers, worker k
    # makes rows k, k + W, ...; with one, the rows are made here
    assert sweep.resolve_workers() == len(os.sched_getaffinity(0))
    ranges = (0.0, 2.0, 5), (0.2, 3.0, 7)
    # without os.fork the rows are made here; without the CPU affinity
    # there is one worker per CPU
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        assert sweep.resolve_workers() == 1
        pids = list(iter_rows(0.5, 1.0, *ranges, per_row=_maker_pid)[2])
        assert pids == [os.getpid()] * 5
    with monkeypatch.context() as m:
        m.delattr(os, "sched_getaffinity")
        assert sweep.resolve_workers() == os.cpu_count()
    for workers in (1, 2, 3):
        monkeypatch.setattr(sweep, "resolve_workers", lambda: workers)
        pids = list(iter_rows(0.5, 1.0, *ranges, per_row=_maker_pid)[2])
        if workers == 1:
            assert pids == [os.getpid()] * 5
        else:
            assert pids == [pids[i % workers] for i in range(5)]
            assert len(set(pids[:workers])) == workers and os.getpid() not in pids
    # a worker that ends without its row fails that row, after the rows before it
    monkeypatch.setattr(sweep, "resolve_workers", lambda: 2)
    rows = iter_rows(0.5, 1.0, *ranges, per_row=_dies_at_gamma0_1)[2]
    assert [next(rows), next(rows)] == [0.0, 0.5]
    with pytest.raises(ConsistencyError, match="row gamma0=1.0 ended before sending it"):
        next(rows)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # so does one that dies partway through sending its row.  The row is
    # asked for only once that worker (the one that made row 0) has ended,
    # waited for without reaping it, so the outcome does not rest on timing
    rows = iter_rows(0.5, 1.0, *ranges, per_row=_dies_writing_gamma0_1)[2]
    first_pid, _ = next(rows), next(rows)
    os.waitid(os.P_PID, first_pid, os.WEXITED | os.WNOWAIT)
    with pytest.raises(ConsistencyError, match="row gamma0=1.0 ended before sending it"):
        next(rows)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_each_worker_runs_on_its_own_cpu(monkeypatch):
    # worker k is pinned to the k-th CPU this process may use, cycling when
    # there are more workers than CPUs; this process itself stays unpinned
    cpus = sorted(os.sched_getaffinity(0))
    ranges = (0.0, 2.0, 7), (0.2, 3.0, 5)
    for workers in (2, 3):
        monkeypatch.setattr(sweep, "resolve_workers", lambda: workers)
        rows = list(iter_rows(0.5, 1.0, *ranges, per_row=_maker_cpus)[2])
        assert rows == [[cpus[i % workers % len(cpus)]] for i in range(7)]
        assert sorted(os.sched_getaffinity(0)) == cpus
    # where a worker cannot be pinned it makes its rows unpinned
    monkeypatch.setattr(sweep, "resolve_workers", lambda: 2)
    with monkeypatch.context() as m:
        m.delattr(os, "sched_setaffinity")
        assert list(iter_rows(0.5, 1.0, *ranges, per_row=_maker_cpus)[2]) == [cpus] * 7

    def refused(pid, mask):
        raise OSError("CPU not allowed")

    monkeypatch.setattr(os, "sched_setaffinity", refused)
    assert list(iter_rows(0.5, 1.0, *ranges, per_row=_maker_cpus)[2]) == [cpus] * 7


def test_closing_rows_ends_workers_another_sweep_has_inherited(monkeypatch):
    # the workers of a second sweep inherit the first sweep's read ends, so
    # closing the first sweep early cannot end its workers, blocked on full
    # pipes, through a broken pipe alone; it must still end and reap them
    monkeypatch.setattr(sweep, "resolve_workers", lambda: 2)
    ranges = (0.0, 4.0, 400), (0.1, 6.0, 400)

    def hung(signum, frame):
        raise TimeoutError("closing a sweep's rows did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        first = iter_rows(-1.0, 1.0, *ranges)[2]
        second = iter_rows(0.5, 1.0, *ranges)[2]
        next(first), next(second)
        first.close()
        second.close()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _classify_outcome(gamma0, mu, omega):
    """classify's result for the drive, or the message of its ValueError."""
    try:
        return classify(DrivingSpec(gamma0, mu, omega))
    except ValueError as exc:
        return str(exc)


def test_sweep_matches_pointwise_classify(monkeypatch):
    # grids use the row kernel, classify the scalar one; they must agree bit
    # for bit on every branch: the series half step (rows gamma0 = J and
    # mu gamma0 = J), the corner cell (gamma0 = 0, omega = 0.1) that precise
    # re-evaluates, saturated cells with h = +-inf and c = 1 - ulp, and rows
    # whose half step overflows; at 1 and at 2 workers.  Where classify
    # fails on a cell, the grid must fail with the message of the first such
    # cell, row by row.  A forked worker's precise calls are not counted
    # here, so the count is checked at 1 worker
    real_half_trace = precise.half_trace
    precise_calls = []

    def counted_half_trace(J, gamma0, mu, omega, amplification):
        precise_calls.append((gamma0, omega))
        return real_half_trace(J, gamma0, mu, omega, amplification)

    monkeypatch.setattr(precise, "half_trace", counted_half_trace)
    cases = [
        (-0.4, (0.0, 2.0, 9), (0.4, 3.0, 11)),
        (1.0, (0.5, 1.5, 3), (0.05, 3.0, 11)),
        (0.5, (1.0, 3.0, 3), (0.05, 3.0, 11)),
        (0.9, (0.0, 4.0, 2), (0.1, 6.0, 2)),
        (-1.0, (3.0, 4.0, 3), (0.03, 0.06, 13)),
        (1.0, (3.0, 4.0, 3), (0.01, 0.06, 5)),
    ]
    for workers in (1, 2):
        monkeypatch.setattr(sweep, "resolve_workers", lambda: workers)
        precise_calls.clear()
        saturated = series_rows = 0
        for mu, gamma_range, omega_range in cases:
            gammas = grid_axis(*gamma_range).tolist()
            omegas = grid_axis(*omega_range).tolist()
            outcomes = [[_classify_outcome(g, mu, o) for o in omegas] for g in gammas]
            failures = [r for row in outcomes for r in row if isinstance(r, str)]
            if failures:
                with pytest.raises(ValueError) as raised:
                    sweep_grid(mu, 1.0, gamma_range, omega_range)
                assert str(raised.value) == failures[0]
                continue
            grid = sweep_grid(mu, 1.0, gamma_range, omega_range)
            assert grid.gamma_axis.tolist() == gammas
            assert grid.omega_axis.tolist() == omegas
            saturated += int(np.isinf(grid.trace_half).sum())
            for i, gamma0 in enumerate(gammas):
                series_rows += 1.0 in (gamma0, mu * gamma0)
                for j, r in enumerate(outcomes[i]):
                    h = np.float64(r.half_trace)
                    assert grid.trace_half[i, j].tobytes() == h.tobytes()
                    assert grid.c_values[i, j] == r.c
                    assert grid.phase_at(i, j) is r.phase
        assert series_rows > 0 and saturated > 0
        if workers == 1:
            assert precise_calls.count((0.0, 0.1)) == 2  # once per kernel


def test_row_hands_every_hard_cell_to_the_scalar_kernel(monkeypatch):
    # the row form settles a cell itself only where ||h| - 1| exceeds its
    # own noise bound, so that bound may round up but must never fall below
    # trace_noise wherever trace_noise is finite
    cases = [
        (-1.0, (0.0, 4.0, 400), (0.1, 6.0, 400)),  # a figure panel
        (-1.0, (3.0, 10.0, 30), (0.01, 0.1, 30)),  # growth exponents past 700
        (0.5, (0.0, 4.0, 9), (0.05, 6.0, 30)),  # rows gamma0 = J, mu gamma0 = J
    ]
    finite = infinite = 0
    for mu, gamma_range, omega_range in cases:
        omega_axis = grid_axis(*omega_range)
        for gamma0 in grid_axis(*gamma_range).tolist():
            with np.errstate(over="ignore"):
                row = _trace_noise_row(1.0, gamma0, mu, math.pi / omega_axis)
            for omega, bound in zip(omega_axis.tolist(), row.tolist()):
                noise = trace_noise(1.0, gamma0, mu, omega)
                if noise < math.inf:
                    finite += 1
                    assert bound >= noise, (gamma0, mu, omega)
                else:
                    infinite += 1
    assert finite > 0 and infinite > 0

    real_evaluate = floquet._evaluate
    handed = []

    def counted_evaluate(J, gamma0, mu, omega):
        handed.append((gamma0, omega))
        return real_evaluate(J, gamma0, mu, omega)

    monkeypatch.setattr(floquet, "_evaluate", counted_evaluate)
    # the sweeps run at 1 and at 2 workers; cells a forked worker hands over
    # are not counted here, so the counts are checked at 1 worker
    for workers in (1, 2):
        monkeypatch.setattr(sweep, "resolve_workers", lambda: workers)
        # on a figure panel only the corner, whose h is 1.0, is handed over
        handed.clear()
        sweep_grid(-1.0, 1.0, (0.0, 4.0, 400), (0.1, 6.0, 400))
        if workers == 1:
            assert handed == [(0.0, 0.1)]
        # the series half step is the row's own: the series rows gamma0 = 1
        # and 2 hand over no cell, and only the corner, whose h is 1.0, is
        handed.clear()
        sweep_grid(0.5, 1.0, (0.0, 4.0, 9), (0.05, 6.0, 30))
        if workers == 1:
            assert handed == [(0.0, 0.05)]


def test_static_drive_classes_are_frequency_independent():
    # grid row gamma0 = 1.0 sits exactly on the exceptional point, where the
    # label is Unbroken or Exceptional depending on the rounding sign of
    # tr^2 - 1; everywhere else the full label is omega-independent, and the
    # broken/non-broken distinction is omega-independent on every row
    grid = sweep_grid(1.0, 1.0, (0.0, 2.0, 21), (0.3, 8.0, 13))
    broken = grid.classes == BROKEN_CODE
    for j in range(grid.classes.shape[1]):
        np.testing.assert_array_equal(broken[:, j], broken[:, 0])
    away_from_ep = np.abs(grid.gamma_axis - 1.0) > 1e-9
    for j in range(grid.classes.shape[1]):
        np.testing.assert_array_equal(
            grid.classes[away_from_ep, j], grid.classes[away_from_ep, 0]
        )
    for i, gamma0 in enumerate(grid.gamma_axis):
        if gamma0 < 1.0:
            assert grid.classes[i, 0] == UNBROKEN_CODE
        elif gamma0 > 1.0:
            assert grid.classes[i, 0] == BROKEN_CODE
    below = grid.gamma_axis < 1.0
    assert np.all(grid.c_values[below, :] <= 1e-9)


def test_reversal_drive_resonance_column_is_broken():
    grid = sweep_grid(-1.0, 1.0, (0.01, 0.99, 25), (2.0, 2.5, 6))
    assert grid.omega_axis[0] == 2.0
    assert np.all(grid.classes[:, 0] == BROKEN_CODE)


def test_reversal_drive_unbroken_region_stays_below_threshold():
    # no PT-symmetric cell with gamma0 > J anywhere at omega <= 2J
    grid = sweep_grid(-1.0, 1.0, (1.0, 4.0, 600), (0.05, 2.0, 600))
    assert not np.any(grid.classes[1:, :] == UNBROKEN_CODE)


def test_refined_grid_keeps_coarse_node_results():
    coarse = sweep_grid(0.5, 1.0, (0.0, 2.0, 11), (0.4, 3.0, 9))
    fine = sweep_grid(0.5, 1.0, (0.0, 2.0, 21), (0.4, 3.0, 17))
    np.testing.assert_array_equal(coarse.c_values, fine.c_values[::2, ::2])
    np.testing.assert_array_equal(coarse.classes, fine.classes[::2, ::2])


def test_phase_grid_cell_invariants():
    grid = sweep_grid(-0.7, 1.0, (0.0, 3.0, 30), (0.2, 4.0, 30))
    assert grid.c_values.shape == (30, 30) == grid.classes.shape
    assert np.all(grid.c_values >= 0.0) and np.all(grid.c_values < 1.0)
    unbroken = grid.classes == UNBROKEN_CODE
    np.testing.assert_array_equal(unbroken, grid.c_values <= DEFAULT_TOL)
    # c comes from the half trace alone: exactly 0 wherever |h| <= 1, with
    # no rounding noise from an eigenvalue pair on the unit circle
    inside = np.abs(grid.trace_half) <= 1.0
    assert inside.any()
    assert np.all(grid.c_values[inside] == 0.0)
    np.testing.assert_array_equal(grid.c_values[unbroken], 0.0)


def test_threshold_scan_static_case():
    for omega in (0.5, 2.0, 10.0):
        gamma_c = threshold_scan(1.0, 1.0, omega, (0.5, 1.5), tol=1e-8)
        assert abs(gamma_c - 1.0) <= 1e-6
    # a tol below the float spacing of the bracket ends at adjacent floats
    gamma_c = threshold_scan(1.0, 1.0, 2.0, (0.5, 1.5), tol=1e-17)
    assert 0.5 < gamma_c < 1.5 and abs(gamma_c - 1.0) <= 1e-6
    # so does every smaller tol, down to one whose ratio to the width overflows
    for tol in (1e-17, 1e-300, 1e-310, 5e-324):
        gamma_c = threshold_scan(1.0, 1.0, 2.0, (0.5, 1.5), tol=tol)
        assert 0.5 < gamma_c < 1.5 and abs(gamma_c - 1.0) <= 1e-6, tol


def test_threshold_scan_high_frequency_cases():
    gamma_c = threshold_scan(0.0, 1.0, 100.0, (1.5, 2.5), tol=1e-5)
    assert abs(gamma_c - 2.0) <= 0.02 * 2.0
    gamma_c = threshold_scan(0.5, 1.0, 100.0, (1.0, 2.0), tol=1e-5)
    assert abs(gamma_c - 4.0 / 3.0) <= 0.02 * 4.0 / 3.0


def test_threshold_scan_rejects_bad_brackets():
    with pytest.raises(BracketError):
        threshold_scan(1.0, 1.0, 2.0, (1.2, 1.5))  # lower end already broken
    with pytest.raises(BracketError):
        threshold_scan(1.0, 1.0, 2.0, (0.2, 0.8))  # upper end not broken
    with pytest.raises(ValueError):
        threshold_scan(1.0, 1.0, 2.0, (1.5, 0.5))
    for tol in (0.0, -1e-9, math.nan):
        with pytest.raises(ValueError, match="scan tolerance must be positive"):
            threshold_scan(1.0, 1.0, 2.0, (0.5, 1.5), tol=tol)
    # the drive itself is validated, naming the bad parameter
    for mu, J, omega, bracket, name in [
        (0.5, 1.0, 0.0, (0.5, 1.5), "omega"),
        (0.5, 1.0, -3.0, (0.5, 1.5), "omega"),
        (0.5, 1.0, math.nan, (0.5, 1.5), "omega"),
        (0.5, -1.0, 2.0, (0.5, 1.5), "J"),
        (0.5, 1.0, 2.0, (0.5, math.inf), "gamma0"),
        (0.5, 1e155, 2.0, (0.5, 1.5), "J"),  # finite, but J * J overflows
    ]:
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            threshold_scan(mu, J, omega, bracket)
    # a half step whose phase r tau is infinite names the drive
    with pytest.raises(ValueError, match=r"gamma0=0\.0, mu=0\.0, omega=1e-300"):
        threshold_scan(0.0, 1e10, 1e-300, (0.0, 1.0))


def _bisect_threshold(mu, omega, lo, hi, tol):
    """Plain bisection on the phase code, the reference for threshold_scan."""
    calls = 2
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        calls += 1
        if floquet._evaluate(1.0, mid, mu, omega)[2] == BROKEN_CODE:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), calls


def _scan_brackets():
    """Static (0.5, 1.5) brackets, fast-drive (0.85, 1.25) x 2J/(1 + mu) ones and
    the first 0.02-wide step across which the class turns Broken."""
    rng = np.random.default_rng(2022)
    brackets = [("static", 1.0, omega, (0.5, 1.5)) for omega in (0.3, 0.5, 2.0, 10.0)]
    for _ in range(8):
        mu, omega = rng.uniform(-0.5, 0.95), 10 ** rng.uniform(np.log10(200), np.log10(400))
        target = 2.0 / (1.0 + mu)
        brackets.append(("fast", mu, omega, (0.85 * target, 1.25 * target)))
    while len(brackets) < 28:
        mu, omega = rng.uniform(-0.95, 0.95), 10 ** rng.uniform(np.log10(0.3), np.log10(6))
        for k in range(300):
            lo, hi = 0.02 * k, 0.02 * (k + 1)
            if floquet._evaluate(1.0, hi, mu, omega)[2] == BROKEN_CODE:
                brackets.append(("coarse", mu, omega, (lo, hi)))
                break
    return brackets


def test_threshold_scan_needs_few_evaluations(monkeypatch):
    """ITP steps take at most two evaluations more than bisection, and at most
    10 on a smooth bracket, where bisection takes 17-23 at this tol; they end
    where bisection does, next to calls classified on each side."""
    tol = 1e-6
    calls = []

    def counted(J, gamma0, mu, omega):
        result = floquet._evaluate(J, gamma0, mu, omega)
        calls.append((gamma0, result[2]))
        return result

    monkeypatch.setattr(sweep, "_evaluate", counted)
    for kind, mu, omega, (lo, hi) in _scan_brackets():
        calls.clear()
        found = threshold_scan(mu, 1.0, omega, (lo, hi), tol=tol)
        reference, bisections = _bisect_threshold(mu, omega, lo, hi, tol)
        where = (kind, mu, omega, lo, hi)
        assert bisections == 2 + math.ceil(math.log2((hi - lo) / tol)), where
        assert len(calls) <= bisections + 2, (where, len(calls))
        if kind != "static":
            assert len(calls) <= 10, (where, len(calls))
        assert abs(found - reference) <= tol, where
        assert any(
            found - tol / 2 <= g <= found and code != BROKEN_CODE for g, code in calls
        ), where
        assert any(
            found <= g <= found + tol / 2 and code == BROKEN_CODE for g, code in calls
        ), where
