"""Correctness checks of the program's outputs.

Each check compares an output with a computation made apart from the code
path that produced it, or with a property the method must have: the
closed-form trace identity (analytic.cos_2eps_tau), an 80-digit mpmath
half trace, the stated scan tolerance, the fast-drive limit 2J/|1+mu|, the
CSV and PPM formats.  Nothing is compared with a stored copy of earlier
output.  Every check returns a list of problems, empty when the output is
right.  The package functions are bound here at import time, so spans
recorded around the modules' attributes never see the checks' own calls.
"""

import math
import re

import mpmath
import numpy as np

from ptfloquet.analytic import cos_2eps_tau
from ptfloquet.floquet import trace_noise
from ptfloquet.model import DrivingSpec

UNBROKEN, BROKEN, EXCEPTIONAL = "Unbroken", "Broken", "Exceptional"
CSV_HEADER = "gamma0,omega,c,phase,trace_half"
NEAR_EP = 1e-4


def class_of(h, tol):
    """Phase class the method assigns to a resolved half trace h."""
    if abs(h) <= 1.0:
        return UNBROKEN
    return EXCEPTIONAL if abs(h) - 1.0 <= tol else BROKEN


def analytic_class(J, gamma0, mu, omega, tol):
    """Class from the trace identity, or None where |h| lies within
    floquet.trace_noise of a class boundary (1 or 1 + tol)."""
    noise = trace_noise(J, gamma0, mu, omega)
    if not math.isfinite(noise):
        return None
    h = cos_2eps_tau(DrivingSpec(gamma0=gamma0, mu=mu, omega=omega, J=J))
    if min(abs(abs(h) - 1.0), abs(abs(h) - 1.0 - tol)) <= noise:
        return None
    return class_of(h, tol)


def check_class(phase, expected, where):
    if expected is not None and phase != expected:
        return [f"{where}: phase {phase}, trace identity says {expected}"]
    return []


def exact_half_trace(J, gamma0, mu, omega):
    """Half trace of the monodromy for the given float inputs, evaluated
    with mpmath at 80 digits plus the digits its growth cancels."""
    growth = sum(
        math.sqrt(max(g * g - J * J, 0.0)) for g in (gamma0, abs(mu) * gamma0)
    ) * math.pi / omega
    with mpmath.workdps(80 + int(growth / math.log(10.0))):
        J, gamma0, mu, omega = (mpmath.mpf(v) for v in (J, gamma0, mu, omega))
        tau = mpmath.pi / omega

        def half_step(gamma):
            rr = J * J - gamma * gamma
            if rr > 0:
                r = mpmath.sqrt(rr)
                return mpmath.cos(r * tau), mpmath.sin(r * tau) / r
            if rr < 0:
                q = mpmath.sqrt(-rr)
                return mpmath.cosh(q * tau), mpmath.sinh(q * tau) / q
            return mpmath.mpf(1), tau

        c1, s1 = half_step(gamma0)
        c2, s2 = half_step(mu * gamma0)
        return float(c2 * c1 - (J * J - mu * gamma0 * gamma0) * s2 * s1)


def check_sliver(phase, exact_h, tol, where):
    expected = class_of(exact_h, tol)
    if phase != expected:
        return [f"{where}: phase {phase}, 80-digit half trace {exact_h!r} says {expected}"]
    return []


def check_threshold(scan, found, J, classify_tol):
    """Static thresholds equal J within the scan tolerance; fast-drive ones
    lie within 2% of 2J/|1+mu|; every other one has the trace identity's
    Broken verdict change across [found - tol, found + tol], which holds
    the final bisection bracket."""
    where = f"threshold mu={scan.mu!r} omega={scan.omega!r}"
    if not scan.bracket[0] <= found <= scan.bracket[1]:
        return [f"{where}: {found!r} outside its start bracket {scan.bracket}"]
    if scan.kind == "static":
        if abs(found - J) > scan.tol:
            return [f"{where}: {found!r} is not J within {scan.tol}"]
        return []
    if scan.kind == "fast":
        target = 2.0 * J / abs(1.0 + scan.mu)
        if abs(found - target) > 0.02 * target:
            return [f"{where}: {found!r} not within 2% of {target!r}"]
        return []
    problems = []
    for gamma0, broken in ((found - scan.tol, False), (found + scan.tol, True)):
        noise = trace_noise(J, gamma0, scan.mu, scan.omega)
        h = cos_2eps_tau(DrivingSpec(gamma0=gamma0, mu=scan.mu, omega=scan.omega, J=J))
        excess = abs(h) - 1.0 - classify_tol
        if (excess < -noise and broken) or (excess > noise and not broken):
            problems.append(
                f"{where}: trace identity at gamma0={gamma0!r} gives |h| - 1 = "
                f"{abs(h) - 1.0!r}, expected {'above' if broken else 'below'} the boundary"
            )
    return problems


def matrix_scale(m):
    return max(1.0, float(np.max(np.abs(m))))


def near_exceptional_point(spec):
    return (
        abs(spec.gamma0 - spec.J) < NEAR_EP
        or abs(abs(spec.mu) * spec.gamma0 - spec.J) < NEAR_EP
    )


def check_identity(spec, analytic_value, m):
    """Trace identity within 1e-12 (1e-9 within 1e-4 of an exceptional
    point), relative to the larger trace; det m = 1 within 1e-12 of the
    squared matrix scale s, checked as det(m/s) = 1/s^2 within 1e-12."""
    numeric = (m[0, 0] + m[1, 1]).real / 2.0
    scale = max(1.0, abs(analytic_value), abs(numeric))
    bound = 1e-9 if near_exceptional_point(spec) else 1e-12
    problems = []
    if not abs(analytic_value - numeric) <= bound * scale:
        problems.append(f"identity {spec}: {analytic_value!r} against {numeric!r}")
    # det(m)/s^2 from the scaled matrix, so that s^2 cannot overflow
    s = matrix_scale(m)
    unit = m / s
    det = unit[0, 0] * unit[1, 1] - unit[0, 1] * unit[1, 0]
    if not abs(det - 1.0 / s / s) <= 1e-12:
        problems.append(f"det {spec}: det/scale^2 = {det!r}, scale {s!r}")
    return problems


def check_oracle(spec, m, stepped):
    err = float(np.max(np.abs(stepped - m))) / matrix_scale(m)
    if not err <= 1e-10:
        return [f"oracle {spec}: stepped product off by {err:.3e} of the matrix scale"]
    return []


def grid_nodes(lo, hi, count):
    return [lo + k * (hi - lo) / (count - 1) for k in range(count)]


def check_sweep_csv(path, panel, tol, expected):
    """Every row of a sweep CSV: the nodes in gamma-major order, c in
    [0, 1), Unbroken exactly when c <= tol, and the expected class at the
    sampled cells (expected maps (i, j) to a class or None).  Returns the
    problems and the (c, phase) grids the PPM check needs."""
    gammas = grid_nodes(*panel.gamma)
    omegas = grid_nodes(*panel.omega)
    shape = (len(gammas), len(omegas))
    c_grid = np.empty(shape)
    exceptional = np.zeros(shape, dtype=bool)
    problems = []
    with open(path) as fh:
        tag = fh.readline()
        if not tag.startswith("# pt-floquet sweep mu="):
            problems.append(f"{path}: bad tag line {tag!r}")
        if fh.readline().rstrip("\n") != CSV_HEADER:
            problems.append(f"{path}: bad column line")
        rows = 0
        for line in fh:
            i, j = divmod(rows, shape[1])
            rows += 1
            if i >= shape[0]:
                continue
            fields = line.rstrip("\n").split(",")
            if len(fields) != 5:
                problems.append(f"{path}: row {rows} has {len(fields)} fields")
                continue
            gamma0, omega, c, phase, h = fields
            c = float(c)
            c_grid[i, j] = c
            exceptional[i, j] = phase == EXCEPTIONAL
            if float(gamma0) != gammas[i] or float(omega) != omegas[j]:
                problems.append(f"{path}: row {rows} is not node ({i}, {j})")
            if not 0.0 <= c < 1.0 or not math.isfinite(float(h)):
                problems.append(f"{path}: row {rows} has c={c!r}, h={h}")
            if (phase == UNBROKEN) != (c <= tol) or phase not in (UNBROKEN, BROKEN, EXCEPTIONAL):
                problems.append(f"{path}: row {rows} is {phase} with c={c!r}")
            if (i, j) in expected:
                problems += check_class(phase, expected[i, j], f"{path}: cell ({i}, {j})")
    if rows != shape[0] * shape[1]:
        problems.append(f"{path}: {rows} rows for a {shape} grid")
    return problems, c_grid, exceptional


def check_ppm(path, c_grid, exceptional):
    """P6 of the grid's size, top row gamma max, white exactly on
    Exceptional cells, elsewhere R = round(255c), G = 0, B = round(255(1-c))."""
    n_gamma, n_omega = c_grid.shape
    with open(path, "rb") as fh:
        payload = fh.read()
    header = f"P6\n{n_omega} {n_gamma}\n255\n".encode("ascii")
    if not payload.startswith(header) or len(payload) != len(header) + 3 * c_grid.size:
        return [f"{path}: not a {n_omega}x{n_gamma} P6 image"]
    pixels = np.frombuffer(payload, dtype=np.uint8, offset=len(header))
    pixels = pixels.reshape(n_gamma, n_omega, 3)[::-1]
    white = (pixels == 255).all(axis=2)
    expected = np.stack(
        [np.rint(255.0 * c_grid), np.zeros_like(c_grid), np.rint(255.0 * (1.0 - c_grid))],
        axis=2,
    )
    wrong = (white != exceptional) | (~white & (pixels != expected).any(axis=2))
    if wrong.any():
        i, j = np.argwhere(wrong)[0]
        return [f"{path}: {int(wrong.sum())} wrong pixels, first at cell ({i}, {j})"]
    return []


_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def kept_failing_succeeded(returncode, out, err):
    """An input the CLI must handle: exit 2 with one message line and no
    traceback, or exit 0 with entirely finite output."""
    if returncode == 2:
        lines = err.strip().splitlines()
        return len(lines) == 1 and "Traceback" not in err
    return returncode == 0 and not _NON_FINITE.search(out)
