"""Dense phase-diagram sweeps over (gamma0, omega) and 1-D threshold scans.

A grid is evaluated one gamma0 row at a time by the row kernel _evaluate_row,
in forked workers (iter_rows); threshold scans, like classify, evaluate one
drive at a time with the scalar kernel floquet._evaluate, and find the
threshold by ITP steps on its half trace, which take at most two evaluations
more than bisection.  The row kernel evaluates the scalar one's half-trace
formula in the same operation order (numpy for the correctly rounded
operations, math for every transcendental, element by element) and hands it
only the cells whose half trace is NaN or within its noise bound of +-1, so
a grid cell and a classify call on the same drive agree bit for bit
(test_sweep_matches_pointwise_classify).
"""

import contextlib
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
    """floquet._half_step over an array of tau, its series branch included:
    numpy's + - * / round correctly, so each cell has _half_step's bits."""
    rr = J * J - gamma * gamma
    k = math.sqrt(abs(rr))
    x = k * tau
    if rr >= 0.0:
        cos, sin, x2 = math.cos, math.sin, -x * x
    else:
        cos, sin, x2 = math.cosh, math.sinh, x * x
    s, series = _math_map(sin, x) / k, x < SERIES_CUTOFF
    if series.any():
        s = np.where(series, tau * (1.0 + x2 / 6.0 + x2 * x2 / 120.0), s)
    return _math_map(cos, x), s


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
    """_evaluate for one gamma0 over a float64 array of omega, by its formula
    in its operation order, with the amplification rate and the phase code
    that classify derives from each half trace, as arrays (half_trace, c,
    code).  Two kinds of cell take _evaluate's half trace, so each cell is
    bit-identical to classify's: a NaN half trace, as in every cell of a row
    whose half step overflows, and one within the row's noise bound of +-1."""
    tau = math.pi / omega_axis
    with np.errstate(all="ignore"):  # overflow to inf is expected, as in floats
        try:
            c1, s1 = _half_step_row(J, gamma0, tau)
            c2, s2 = _half_step_row(J, mu * gamma0, tau)
            half_trace = c1 * c2 - (J * J - mu * gamma0 * gamma0) * (s1 * s2)
        except (OverflowError, ValueError):  # as in _evaluate
            half_trace = np.full_like(tau, math.nan)
        noise = _trace_noise_row(J, gamma0, mu, tau)
        hard = ~(np.abs(np.abs(half_trace) - 1.0) > noise)  # NaN is hard too
        for j in np.flatnonzero(hard).tolist():
            omega = float(omega_axis[j])  # handed over through classify's binding
            half_trace[j] = floquet._evaluate(J, gamma0, mu, omega)
        h = np.abs(half_trace)
        big = h + np.sqrt(h * h - 1.0)
        # fmin drops the NaN of inf/inf where big overflows
        c = np.where(
            h <= 1.0, 0.0, np.fmin((big - 1.0 / big) / (big + 1.0 / big), _ONE_MINUS_ULP)
        )
    code = np.where(h - 1.0 <= DEFAULT_TOL, EXCEPTIONAL_CODE, BROKEN_CODE)
    code[h <= 1.0] = UNBROKEN_CODE
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

    Each node comes from its own float index (no running sums, no integer
    wraparound), so refined grids share bit patterns with coarse ones on the
    common nodes.  Where k*(hi - lo) overflows, hi - lo and count - 1 are
    both scaled by 2^-e, with 2^e > count - 1, which is exact in the normal
    range and so rounds to the node the unbounded form would.  One
    allocation: a count that cannot be held fails at once.  A node beyond
    double range raises ValueError.
    """
    nodes = np.arange(count, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        nodes *= hi - lo
        nodes /= count - 1
        over = np.flatnonzero(np.isinf(nodes))
        e = math.frexp(count - 1)[1]
        nodes[over] = over * math.ldexp(hi - lo, -e) / math.ldexp(count - 1, -e)
        nodes += lo
    if not np.isfinite(nodes).all():
        raise ValueError(f"a grid node between {lo!r} and {hi!r} leaves double range")
    return nodes


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
                    _work(out, readers, make, gammas[k::workers], k)
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


def _work(out, readers, make, gammas, k):
    """Forked worker k, on the k-th CPU it may use: send make(gamma0) for each
    of gammas down out, or the exception that stops it, each pickled whole
    before it is written, so that only this process's death can cut a message
    short.  It ends only through os._exit, so that none of the parent's code
    runs here: no buffered file is flushed, no atexit handler runs and no
    caller's finally clause runs."""
    try:
        for reader in readers:  # the parent's read ends, this worker's among them
            reader.close()
        # pinned, as the scheduler at times stacked all workers on one CPU
        with contextlib.suppress(AttributeError, OSError):  # else unpinned
            cpus = sorted(os.sched_getaffinity(0))
            os.sched_setaffinity(0, (cpus[k % len(cpus)],))
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
    """Find the breaking threshold in gamma0 at fixed mu and omega by ITP
    steps (Oliveira and Takahashi, ACM TOMS 47(1), 2020).

    gamma_hint = (lo, hi) must straddle the transition monotonically:
    lo classifies away from Broken and hi classifies Broken, as classify
    decides.  Returns the bracket midpoint once its width is <= tol, or
    once lo and hi are adjacent floats, so a tol below their spacing still
    ends the search.

    Each step interpolates y = |h| - 1 - DEFAULT_TOL between the bracket
    ends (regula falsi), truncates toward the midpoint and projects into
    bisection's minmax radius, with k1 = 0.2 / (hi - lo), k2 = 2 and n0 = 1;
    the sign of y alone decides which end moves.  y > 0 is classify's Broken
    for any h that is not NaN, as a rounded difference of two doubles is
    positive exactly where the first is larger.  So a scan takes at most two
    evaluations more than bisection, and fewer where the half trace is
    smooth across the bracket.
    """
    lo, hi = gamma_hint
    if not (0.0 <= lo < hi):
        raise ValueError(f"need 0 <= lo < hi, got ({lo}, {hi})")
    # the upper drive fails DrivingSpec's checks wherever any drive of the bracket
    # would; check_drive builds no spec, which is slow in a scan that runs cold
    check_drive(hi, mu, omega, J)
    if not tol > 0:
        raise ValueError(f"scan tolerance must be positive, got {tol}")
    y_lo = abs(_evaluate(J, lo, mu, omega)) - 1.0 - DEFAULT_TOL
    if y_lo > 0.0:
        raise BracketError(f"lower bracket gamma0={lo} already classifies Broken")
    y_hi = abs(_evaluate(J, hi, mu, omega)) - 1.0 - DEFAULT_TOL
    if not y_hi > 0.0:
        raise BracketError(f"upper bracket gamma0={hi} does not classify Broken")
    k1 = 0.2 / (hi - lo)
    # eps 2^(n_max - j) with eps = tol / 2, the width bisection's worst case
    # allows after step j; from logarithms, as (hi - lo) / tol overflows for a
    # subnormal tol.  It starts below 2 (hi - lo), which is finite: _evaluate
    # raises at any hi whose square overflows
    radius = math.ldexp(tol, math.ceil(max(0.0, math.log2(hi - lo) - math.log2(tol))))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        gamma0 = mid
        if math.isfinite(y_hi - y_lo):
            # y_lo <= 0 < y_hi, so falsi lies in [lo, hi]
            falsi = lo + (hi - lo) * (y_lo / (y_lo - y_hi))
            toward = math.copysign(1.0, mid - falsi)
            delta = k1 * (hi - lo) ** 2
            if delta <= abs(mid - falsi):
                gamma0 = falsi + toward * delta
            r = max(0.0, radius - 0.5 * (hi - lo))
            if abs(gamma0 - mid) > r:
                gamma0 = mid - toward * r
            if not lo < gamma0 < hi:
                gamma0 = mid
        y = abs(_evaluate(J, gamma0, mu, omega)) - 1.0 - DEFAULT_TOL
        if y > 0.0:
            hi, y_hi = gamma0, y
        else:
            lo, y_lo = gamma0, y
        radius *= 0.5
    return 0.5 * (lo + hi)
