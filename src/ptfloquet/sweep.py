"""Dense phase-diagram sweeps over (gamma0, omega) and 1-D threshold scans.

Every cell comes from the same scalar kernel that classify uses, so a
grid cell and a classify call on the same drive agree bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BracketError
from .floquet import BROKEN_CODE, DEFAULT_TOL, PHASE_BY_CODE, _evaluate
from .model import DrivingSpec, PhaseClass


@dataclass(frozen=True)
class PhaseGrid:
    """Rectangular sweep result, gamma-major.

    classes holds compact int8 codes; PHASE_BY_CODE (or phase_at) maps them
    back to PhaseClass.  A cell is Unbroken exactly when its c <= tol.
    """

    gamma_axis: np.ndarray
    omega_axis: np.ndarray
    mu: float
    J: float
    tol: float
    c_values: np.ndarray
    classes: np.ndarray
    trace_half: np.ndarray

    def phase_at(self, gamma_index: int, omega_index: int) -> PhaseClass:
        return PHASE_BY_CODE[self.classes[gamma_index, omega_index]]

    @property
    def shape(self):
        return self.c_values.shape


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


def sweep_grid(
    mu,
    J,
    gamma_range,
    omega_range,
    tol=DEFAULT_TOL,
    workers=None,
) -> PhaseGrid:
    """Classify every node of a (gamma0, omega) grid.

    gamma_range and omega_range are (lo, hi, count) with count >= 2; the
    omega range must be strictly positive.  workers is ignored (see
    resolve_workers).
    """
    g_lo, g_hi, g_count = gamma_range
    o_lo, o_hi, o_count = omega_range
    if g_count < 2 or o_count < 2:
        raise ValueError("grid needs at least 2 nodes per axis")
    if not (g_lo < g_hi and o_lo < o_hi):
        raise ValueError("range lo must be strictly below hi")
    if not tol > 0:
        raise ValueError(f"classification tolerance must be positive, got {tol}")
    # corner specs raise the same validation errors a per-cell construction would
    DrivingSpec(gamma0=g_lo, mu=mu, omega=o_lo, J=J)
    DrivingSpec(gamma0=g_hi, mu=mu, omega=o_hi, J=J)

    gamma_axis = grid_axis(g_lo, g_hi, g_count)
    omega_axis = grid_axis(o_lo, o_hi, o_count)
    omega_values = omega_axis.tolist()

    c_values = np.empty((g_count, o_count))
    classes = np.empty((g_count, o_count), dtype=np.int8)
    trace_half = np.empty((g_count, o_count))
    for i, gamma0 in enumerate(gamma_axis.tolist()):
        cells = [_evaluate(J, gamma0, mu, omega, tol)[1:] for omega in omega_values]
        trace_half[i], c_values[i], classes[i] = zip(*cells)

    return PhaseGrid(
        gamma_axis=gamma_axis,
        omega_axis=omega_axis,
        mu=mu,
        J=J,
        tol=tol,
        c_values=c_values,
        classes=classes,
        trace_half=trace_half,
    )


def threshold_scan(
    mu,
    J,
    omega,
    gamma_hint,
    tol=1e-6,
    classify_tol=DEFAULT_TOL,
) -> float:
    """Bisect the breaking threshold in gamma0 at fixed mu and omega.

    gamma_hint = (lo, hi) must straddle the transition monotonically:
    lo classifies away from Broken and hi classifies Broken.  Returns the
    bracket midpoint once its width is <= tol, or once lo and hi are
    adjacent floats, so a tol below their spacing still ends the search.
    """
    lo, hi = gamma_hint
    if not (0.0 <= lo < hi):
        raise ValueError(f"need 0 <= lo < hi, got ({lo}, {hi})")
    if not tol > 0:
        raise ValueError(f"scan tolerance must be positive, got {tol}")
    if _is_broken(J, lo, mu, omega, classify_tol):
        raise BracketError(f"lower bracket gamma0={lo} already classifies Broken")
    if not _is_broken(J, hi, mu, omega, classify_tol):
        raise BracketError(f"upper bracket gamma0={hi} does not classify Broken")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _is_broken(J, mid, mu, omega, classify_tol):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _is_broken(J, gamma0, mu, omega, tol):
    *_, code = _evaluate(J, gamma0, mu, omega, tol)
    return code == BROKEN_CODE
