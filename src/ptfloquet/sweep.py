"""Dense phase-diagram sweeps over (gamma0, omega) and 1-D threshold scans.

A grid is evaluated one gamma0 row at a time by the row kernel
floquet._evaluate_row; threshold scans, like classify, evaluate one drive
at a time with the scalar kernel floquet._evaluate.  The row kernel does
the common cells with the same arithmetic and hands every other to the
scalar one, so a grid cell and a classify call on the same drive agree bit
for bit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BracketError
from .floquet import BROKEN_CODE, PHASE_BY_CODE, _evaluate, _evaluate_row
from .model import PhaseClass, check_drive


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


def resolve_workers(workers=None) -> int:
    """Always 1: sweeps run in this process.  Kept, with sweep_grid's
    ignored workers keyword, only because the benchmark's per-layer report
    (bench/layers.py) still calls both."""
    return 1


def iter_rows(mu, J, gamma_range, omega_range):
    """Check a (gamma0, omega) grid, then return (gamma_axis, omega_axis,
    rows), where rows lazily yields _evaluate_row's (half_trace, c, code)
    for each gamma0, ascending.  gamma_range and omega_range are (lo, hi,
    count) with count >= 2; the omega range must be strictly positive.
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
    rows = (_evaluate_row(J, gamma0, mu, omega_axis) for gamma0 in gamma_axis.tolist())
    return gamma_axis, omega_axis, rows


def sweep_grid(mu, J, gamma_range, omega_range, workers=None) -> PhaseGrid:
    """Classify every node of a (gamma0, omega) grid from iter_rows, which
    takes the same ranges.  workers is ignored (see resolve_workers)."""
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
