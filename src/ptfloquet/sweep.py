"""Dense phase-diagram sweeps over (gamma0, omega) and 1-D threshold scans.

A grid is evaluated one gamma0 row at a time by the row kernel _evaluate_row,
in forked workers (iter_rows); threshold scans, like classify, evaluate one
drive at a time with the scalar kernel floquet._evaluate.  The row kernel
does the common cells with the same arithmetic (numpy for the correctly
rounded operations, math for every transcendental, element by element) and
hands every other to the scalar one, so a grid cell and a classify call on
the same drive agree bit for bit (test_sweep_matches_pointwise_classify).
"""

import math
import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from . import floquet
from .errors import BracketError, ConsistencyError
from .floquet import (
    BROKEN_CODE, DEFAULT_TOL, EXCEPTIONAL_CODE, PHASE_BY_CODE, UNBROKEN_CODE,
    _ONE_MINUS_ULP, _UNIT_ROUNDOFF, _evaluate,
)
from .model import PhaseClass, check_drive
from .pauli import SERIES_CUTOFF


def _math_map(fn, x):
    """fn from math, element by element: numpy's own transcendentals round
    differently from math's on some arguments."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _half_step_row(J, gamma, tau):
    """floquet._half_step over an array of tau, direct form only: NaN where
    x = k tau lies below SERIES_CUTOFF, as the series form is _evaluate's."""
    rr = J * J - gamma * gamma
    k = math.sqrt(abs(rr))
    x = k * tau
    if rr >= 0.0:
        cos, sin = math.cos, math.sin
    else:
        cos, sin = math.cosh, math.sinh
    s = _math_map(sin, x) / k
    s[x < SERIES_CUTOFF] = math.nan
    c = _math_map(cos, x)
    return c + gamma * s, J * s, c - gamma * s


def _trace_noise_row(J, gamma0, mu, tau):
    """floquet.trace_noise over an array of tau, rounded up by 1 + 2^-40 past the
    few-ulp difference of numpy's exp from math.exp; it only picks the cells
    to hand to _evaluate, so it may lie above trace_noise but never below."""
    growth, poly, amp = np.zeros_like(tau), 1.0, 1.0
    for gamma in (gamma0, abs(mu) * gamma0):
        rr = abs(J * J - gamma * gamma)
        if gamma > J:
            growth += math.sqrt(rr) * tau
        poly *= 1.0 + (gamma + J) * tau
        inv_rr = 1.0 / rr if rr else 0.0  # never chosen at rr == 0
        amp += (J * J + gamma * gamma) * np.where(
            rr * tau * tau > 1.0, inv_rr, tau * tau
        )
    return 16.0 * _UNIT_ROUNDOFF * (1.0 + 2.0**-40) * np.exp(growth) * poly * amp


def _evaluate_row(J, gamma0, mu, omega_axis):
    """_evaluate for one gamma0 over a float64 array of omega, as arrays
    (half_trace, c, code).  The row settles the common cells and overwrites
    every other with _evaluate's result, so each cell is bit-identical to
    _evaluate's: a series half step, a half trace NaN or within the row's
    noise bound of +-1, and each cell of a row whose half step overflows."""
    tau = math.pi / omega_axis
    with np.errstate(all="ignore"):  # overflow to inf is expected, as in floats
        try:
            a00, a01, a11 = _half_step_row(J, gamma0, tau)
            b00, b01, b11 = _half_step_row(J, mu * gamma0, tau)
            half_trace = 0.5 * ((b00 * a00 - b01 * a01) + (b11 * a11 - b01 * a01))
        except OverflowError:  # from math.sinh or math.cosh
            half_trace = np.full_like(tau, math.nan)
        noise = _trace_noise_row(J, gamma0, mu, tau)
        hard = ~(np.abs(np.abs(half_trace) - 1.0) > noise)  # NaN is hard too
        h = np.abs(half_trace)
        big = h + np.sqrt(h * h - 1.0)
        # fmin drops the NaN of inf/inf where big overflows
        c = np.where(
            h <= 1.0, 0.0, np.fmin((big - 1.0 / big) / (big + 1.0 / big), _ONE_MINUS_ULP)
        )
    code = np.where(h - 1.0 <= DEFAULT_TOL, EXCEPTIONAL_CODE, BROKEN_CODE)
    code[h <= 1.0] = UNBROKEN_CODE
    for j in np.flatnonzero(hard).tolist():
        omega = float(omega_axis[j])  # handed over through classify's binding
        half_trace[j], c[j], code[j] = floquet._evaluate(J, gamma0, mu, omega)
    return half_trace, c, code


@dataclass(frozen=True)
class PhaseGrid:
    """Rectangular sweep result, gamma-major.

    classes holds compact int8 codes; PHASE_BY_CODE (or phase_at) maps them
    back to PhaseClass.  A cell is Unbroken exactly when c == 0, that is
    |h| <= 1, and Exceptional in the fixed band 1 < |h| <= 1 + DEFAULT_TOL.
    """

    gamma_axis: np.ndarray
    omega_axis: np.ndarray
    mu: float
    J: float
    c_values: np.ndarray
    classes: np.ndarray
    trace_half: np.ndarray

    def phase_at(self, gamma_index: int, omega_index: int) -> PhaseClass:
        return PHASE_BY_CODE[self.classes[gamma_index, omega_index]]


def grid_axis(lo, hi, count) -> np.ndarray:
    """Exact interpolation nodes lo + k*(hi - lo)/(count - 1).

    Written index-by-index (no running sums) so refined grids share bit
    patterns with coarse ones on the common nodes.
    """
    return np.array([lo + k * (hi - lo) / (count - 1) for k in range(count)])


def resolve_workers() -> int:
    """How many forked workers make a grid's rows: one per CPU this process
    may run on, or 1 (rows made in this process) where os.fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _row_arrays(gamma0, half_trace, c, code):
    """iter_rows' default per_row: the row kernel's three arrays."""
    return half_trace, c, code


def iter_rows(mu, J, gamma_range, omega_range, per_row=_row_arrays):
    """Check a (gamma0, omega) grid, then return (gamma_axis, omega_axis,
    rows), where rows lazily yields per_row(gamma0, half_trace, c, code)
    for each gamma0, ascending, from _evaluate_row's (half_trace, c, code)
    arrays.  gamma_range and omega_range are (lo, hi, count) with count >= 2;
    the omega range must be strictly positive.

    The first row asked for forks resolve_workers() workers, which make the
    rows and run per_row on them (see _forked_rows); the workers inherit
    per_row, so only what it returns or raises must pickle.  An exception
    raised for a row is raised when that row is asked for, after every row
    before it.  Close rows to end its workers before it is used up.
    """
    g_lo, g_hi, g_count = gamma_range
    o_lo, o_hi, o_count = omega_range
    if g_count < 2 or o_count < 2:
        raise ValueError("grid needs at least 2 nodes per axis")
    if not (g_lo < g_hi and o_lo < o_hi):
        raise ValueError("range lo must be strictly below hi")
    # the corner drives fail DrivingSpec's checks wherever any cell's would
    check_drive(g_lo, mu, o_lo, J)
    check_drive(g_hi, mu, o_hi, J)

    gamma_axis = grid_axis(g_lo, g_hi, g_count)
    omega_axis = grid_axis(o_lo, o_hi, o_count)

    def make(gamma0):
        return per_row(gamma0, *_evaluate_row(J, gamma0, mu, omega_axis))

    return gamma_axis, omega_axis, _forked_rows(make, gamma_axis.tolist())


def _forked_rows(make, gammas):
    """Yield make(gamma0) for each of gammas, in order.  With W workers,
    worker k makes rows k, k + W, k + 2W, ... and sends each down its own
    pipe; the pipes are read in turn, so a worker runs at most a pipe
    buffer ahead of the rows taken.  With one worker the rows are made
    here."""
    workers = min(resolve_workers(), len(gammas))
    if workers == 1:
        yield from map(make, gammas)
        return
    readers, pids = [], []
    try:
        for k in range(workers):
            read_fd, write_fd = os.pipe()
            readers.append(os.fdopen(read_fd, "rb"))
            with os.fdopen(write_fd, "wb") as out:  # the parent's copy closes here
                pid = os.fork()
                if pid == 0:
                    _work(out, readers, make, gammas[k::workers])
            pids.append(pid)
        for i, gamma0 in enumerate(gammas):
            try:
                row = pickle.load(readers[i % workers])
            except (EOFError, pickle.UnpicklingError):
                raise ConsistencyError(
                    f"the sweep worker making row gamma0={gamma0!r} ended "
                    "before sending it"
                ) from None
            if isinstance(row, Exception):  # the one that stopped the worker
                raise row
            yield row
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            # a worker may still be making rows, or be blocked on a pipe whose
            # read end another sweep's workers inherited, where no broken pipe
            # would ever end it; one whose rows were all read is in os._exit
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _work(out, readers, make, gammas):
    """A forked worker: send make(gamma0) for each of gammas down out, or the
    exception that stops it, each pickled whole before it is written, so that
    only this process's death can cut a message short.  It ends only through
    os._exit, so that none of the parent's code runs here: no buffered file
    is flushed, no atexit handler runs and no caller's finally clause runs."""
    try:
        for reader in readers:  # the parent's read ends, this worker's among them
            reader.close()
        for gamma0 in gammas:
            try:
                message = make(gamma0)
            except Exception as exc:  # raised in the parent, at this row
                message = exc
            out.write(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
            out.flush()
            if isinstance(message, Exception):
                break
    finally:
        os._exit(0)


def sweep_grid(mu, J, gamma_range, omega_range, workers=None) -> PhaseGrid:
    """Classify every node of a (gamma0, omega) grid from iter_rows, which
    takes the same ranges.  workers is ignored: iter_rows takes the worker
    count from resolve_workers()."""
    gamma_axis, omega_axis, rows = iter_rows(mu, J, gamma_range, omega_range)
    shape = (gamma_axis.size, omega_axis.size)
    c_values, trace_half = np.empty(shape), np.empty(shape)
    classes = np.empty(shape, dtype=np.int8)
    for i, row in enumerate(rows):
        trace_half[i], c_values[i], classes[i] = row
    return PhaseGrid(gamma_axis, omega_axis, mu, J, c_values, classes, trace_half)


def threshold_scan(mu, J, omega, gamma_hint, tol=1e-6) -> float:
    """Bisect the breaking threshold in gamma0 at fixed mu and omega.

    gamma_hint = (lo, hi) must straddle the transition monotonically:
    lo classifies away from Broken and hi classifies Broken, as classify
    decides.  Returns the bracket midpoint once its width is <= tol, or
    once lo and hi are adjacent floats, so a tol below their spacing still
    ends the search.
    """
    lo, hi = gamma_hint
    if not (0.0 <= lo < hi):
        raise ValueError(f"need 0 <= lo < hi, got ({lo}, {hi})")
    # the upper drive fails DrivingSpec's checks wherever any drive of the bracket
    # would; check_drive builds no spec, which is slow in a scan that runs cold
    check_drive(hi, mu, omega, J)
    if not tol > 0:
        raise ValueError(f"scan tolerance must be positive, got {tol}")
    if _is_broken(J, lo, mu, omega):
        raise BracketError(f"lower bracket gamma0={lo} already classifies Broken")
    if not _is_broken(J, hi, mu, omega):
        raise BracketError(f"upper bracket gamma0={hi} does not classify Broken")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _is_broken(J, mid, mu, omega):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _is_broken(J, gamma0, mu, omega):
    _, _, code = _evaluate(J, gamma0, mu, omega)
    return code == BROKEN_CODE
