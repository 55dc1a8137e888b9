"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -s` to see them).

The six figure panels are pinned two ways in golden/.  Their phase-class
grids (figure_classes.npz) are compared cell by cell on every platform; a
class may differ only where the cell's half trace lies within the kernel's
rounding-noise bound of a class boundary.  Their CSV bytes are pinned by
SHA-256 per platform in manifest.json: each pin records a fingerprint of
the libm results the bytes depend on, and the byte check is asserted
wherever the fingerprint matches.  The test only reads golden/, and a
missing golden file fails it.  Running this file as a script only adds a
pin for a new platform, after the same review and class-grid comparison.
"""

import cmath
import hashlib
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

from conftest import matrix_scale, random_specs

from ptfloquet import (
    DrivingSpec,
    PhaseClass,
    amplification_rate,
    asymptotic_boundary,
    classify,
    cos_2eps_tau,
    monodromy,
    mu0_sliver,
    mu_minus1_unbroken,
    passive_monodromy,
    sin_over_r,
    stepped_propagator,
    sweep_grid,
    threshold_scan,
    unbroken_ellipse,
)
from ptfloquet.cli import render_sweep_csv
from ptfloquet.floquet import (
    BROKEN_CODE, DEFAULT_TOL, PHASE_BY_CODE, UNBROKEN_CODE, trace_noise
)
from ptfloquet.pauli import SIGMA_Z

GOLDEN_DIR = Path(__file__).parent / "golden"
MANIFEST_PATH = GOLDEN_DIR / "manifest.json"
CLASSES_PATH = GOLDEN_DIR / "figure_classes.npz"
MINI_GOLDEN_PATH = GOLDEN_DIR / "mini_mu_minus1.csv"

FIGURE_MUS = (0.9, 0.7, 0.5, 0.0, -0.7, -1.0)
FIGURE_GAMMA_RANGE = (0.0, 4.0, 400)
FIGURE_OMEGA_RANGE = (0.1, 6.0, 400)


def _report(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_static_threshold():
    start = time.perf_counter()
    worst = 0.0
    for omega in (0.5, 1.0, 2.0, 10.0, 100.0):
        gamma_c = threshold_scan(1.0, 1.0, omega, (0.5, 1.5), tol=1e-8)
        worst = max(worst, abs(gamma_c - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 1.0
    _report(1, ok, f"static gamma_c within {worst:.2e} of J ({elapsed:.2f} s)")


def test_criterion_2_high_frequency_thresholds():
    start = time.perf_counter()
    worst_rel = 0.0
    for mu in (0.9, 0.7, 0.5, 0.0):
        target = 2.0 / (1.0 + mu)
        gamma_c = threshold_scan(
            mu, 1.0, 200.0, (0.85 * target, 1.25 * target), tol=1e-4
        )
        worst_rel = max(worst_rel, abs(gamma_c - target) / target)
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 0.02 and elapsed < 5.0
    _report(2, ok, f"fast-drive thresholds within {100 * worst_rel:.2f}% ({elapsed:.2f} s)")


def test_criterion_3_analytic_numeric_equivalence():
    rng = np.random.default_rng(20260808)
    start = time.perf_counter()
    specs = random_specs(rng, 9_800, max_growth=690.0, near_ep=200)
    worst_plain = worst_near = 0.0
    for spec in specs:
        analytic_value = cos_2eps_tau(spec)
        m = monodromy(spec)
        numeric_value = (m[0, 0] + m[1, 1]).real / 2.0
        diff = abs(analytic_value - numeric_value)
        scale = max(1.0, abs(analytic_value), abs(numeric_value))
        near_ep = (
            abs(spec.gamma0 - 1.0) < 1e-4
            or abs(abs(spec.mu) * spec.gamma0 - 1.0) < 1e-4
        )
        if near_ep:
            worst_near = max(worst_near, diff / scale)
        else:
            worst_plain = max(worst_plain, diff / scale)
    elapsed = time.perf_counter() - start
    ok = worst_plain <= 1e-12 and worst_near <= 1e-9 and elapsed < 2.0
    _report(
        3,
        ok,
        f"trace identity: {worst_plain:.2e} away from EPs, "
        f"{worst_near:.2e} within 1e-4 of them, {len(specs)} drives ({elapsed:.2f} s)",
    )


def test_criterion_4_reversal_resonance_structure():
    # broken at the odd resonances even for tiny gain/loss
    resonances_broken = all(
        classify(DrivingSpec(1e-3, -1.0, 2.0 / n)).phase is PhaseClass.BROKEN
        for n in (1, 3, 5)
    )

    # PT-symmetric along the integer ellipses
    ellipses_unbroken = True
    for n in range(1, 7):
        for gamma0, omega in unbroken_ellipse(n, samples=50).points:
            spec = DrivingSpec(gamma0=gamma0, mu=-1.0, omega=omega)
            if classify(spec).phase is not PhaseClass.UNBROKEN:
                ellipses_unbroken = False

    # closed-form criterion against the numerical pipeline on a dense grid
    grid = sweep_grid(-1.0, 1.0, (0.0, 4.0, 300), (0.1, 6.0, 300))
    disagreements = 0
    compared = 0
    for i, gamma0 in enumerate(grid.gamma_axis):
        r1 = cmath.sqrt(complex(1.0 - float(gamma0) ** 2))
        for j, omega in enumerate(grid.omega_axis):
            tau = math.pi / float(omega)
            stretch = abs(sin_over_r(r1, tau))
            if abs(stretch - 1.0) <= 1e-9 * max(1.0, stretch):
                continue  # tolerance band of the transition itself
            compared += 1
            spec = DrivingSpec(gamma0=float(gamma0), mu=-1.0, omega=float(omega))
            analytic_symmetric = mu_minus1_unbroken(spec)
            numeric_symmetric = grid.classes[i, j] != BROKEN_CODE
            if analytic_symmetric != numeric_symmetric:
                disagreements += 1

    ok = resonances_broken and ellipses_unbroken and disagreements == 0
    _report(
        4,
        ok,
        f"odd resonances broken: {resonances_broken}; ellipses unbroken: "
        f"{ellipses_unbroken}; criterion vs grid: {disagreements} disagreements "
        f"on {compared} cells",
    )


def test_criterion_5_half_hermitian_slivers():
    failures = []
    for n in (1, 3, 5):
        for gamma0 in (1.5, 2.0, 5.0, 10.0):
            omega = mu0_sliver(n, gamma0)
            tau = math.pi / omega
            q = math.sqrt(gamma0**2 - 1.0)
            spec = DrivingSpec(gamma0=gamma0, mu=0.0, omega=omega)
            value = cos_2eps_tau(spec)
            identity_scale = max(1.0, math.cosh(q * tau))
            identity_ok = (
                abs(value - math.cos(tau) * math.exp(-q * tau))
                <= 1e-10 * identity_scale
            )
            classified = classify(spec).phase
            if not identity_ok or classified is not PhaseClass.UNBROKEN:
                failures.append(
                    f"(n={n}, gamma0={gamma0}: identity_ok={identity_ok}, "
                    f"phase={classified.value}, q*tau={q * tau:.1f})"
                )
    converged = all(
        abs(mu0_sliver(n, 1e3) - 2.0 / n) <= 1e-3 * (2.0 / n) for n in (1, 3, 5)
    )
    ok = not failures and converged
    detail = f"limit 2/n converged: {converged}"
    if failures:
        detail += "; failed combos: " + ", ".join(failures)
    _report(5, ok, detail)


def test_criterion_6_asymptotic_boundary():
    worst_rel = 0.0
    for gamma0 in (10.0, 15.0, 20.0):
        predicted = asymptotic_boundary(gamma0)
        lo, hi = 0.6 * predicted, 1.5 * predicted
        assert classify(DrivingSpec(gamma0, -1.0, lo)).phase is PhaseClass.BROKEN
        assert classify(DrivingSpec(gamma0, -1.0, hi)).phase is not PhaseClass.BROKEN
        while (hi - lo) > 1e-6 * hi:
            mid = 0.5 * (lo + hi)
            if classify(DrivingSpec(gamma0, -1.0, mid)).phase is PhaseClass.BROKEN:
                lo = mid
            else:
                hi = mid
        numeric = 0.5 * (lo + hi)
        worst_rel = max(worst_rel, abs(numeric - predicted) / predicted)
    ok = worst_rel <= 0.05
    _report(6, ok, f"bisected boundary within {100 * worst_rel:.2f}% of the closed form")


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(7_0808)
    specs = random_specs(rng, 1_000, max_growth=600.0)
    start = time.perf_counter()
    worst = 0.0
    for spec in specs:
        m = monodromy(spec)
        oracle = stepped_propagator(spec, 10_000)
        worst = max(
            worst, float(np.max(np.abs(oracle - m))) / matrix_scale(m)
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(
        7, ok, f"stepped oracle within {worst:.2e} of the closed product ({elapsed:.1f} s)"
    )


def test_criterion_8_invariant_suite():
    rng = np.random.default_rng(8_0808)
    failures = []

    for spec in random_specs(rng, 1_000, max_growth=600.0):
        m = monodromy(spec)
        # det(m/s) = 1/s^2 within 1e-12, so that s^2 cannot overflow
        s = matrix_scale(m)
        unit = m / s
        det = unit[0, 0] * unit[1, 1] - unit[0, 1] * unit[1, 0]
        if not abs(det - 1.0 / s / s) <= 1e-12:
            failures.append(f"det: {spec}")
        trace = m[0, 0] + m[1, 1]
        if abs(trace.imag) > 1e-12 * max(1.0, abs(trace.real)):
            failures.append(f"trace: {spec}")

    for spec in random_specs(rng, 300, gamma_hi=4.0, omega_lo=0.2, max_growth=30.0):
        m = monodromy(spec)
        c = amplification_rate(m)
        scalar = complex(rng.normal(), rng.normal()) * 10.0 ** rng.integers(-3, 4)
        if scalar != 0 and abs(amplification_rate(scalar * m) - c) > 1e-12:
            failures.append(f"scalar invariance: {spec}")
        if abs(amplification_rate(passive_monodromy(spec)) - c) > 1e-12:
            failures.append(f"passive c: {spec}")

    absolute_checked = 0
    for _ in range(300):
        gamma0 = float(rng.uniform(0.0, 4.0))
        omega = float(rng.uniform(0.1, 6.0))
        spec = DrivingSpec(gamma0=gamma0, mu=-1.0, omega=omega)
        m = monodromy(spec)
        product = SIGMA_Z @ m @ SIGMA_Z @ m
        scale2 = matrix_scale(m) ** 2
        if float(np.max(np.abs(product - np.eye(2)))) > 1e-11 * scale2:
            failures.append(f"reversal symmetry: {spec}")
        if scale2 <= 10.0:
            absolute_checked += 1
            if float(np.max(np.abs(product - np.eye(2)))) > 1e-11:
                failures.append(f"reversal symmetry (absolute): {spec}")

    ok = not failures and absolute_checked > 30
    detail = f"zero failures on randomized inputs ({absolute_checked} absolute symmetry checks)"
    if failures:
        detail = f"{len(failures)} failures, first: {failures[0]}"
    _report(8, ok, detail)


def _nearest_cell(grid, gamma0, omega):
    i = int(np.argmin(np.abs(grid.gamma_axis - gamma0)))
    j = int(np.argmin(np.abs(grid.omega_axis - omega)))
    return grid.classes[i, j]


def _tongue_floor(grid, omega_lo, omega_hi):
    """Smallest gamma0 with a broken cell in an omega window (inf if none)."""
    cols = np.where((grid.omega_axis >= omega_lo) & (grid.omega_axis <= omega_hi))[0]
    rows = np.where((grid.classes[:, cols] == BROKEN_CODE).any(axis=1))[0]
    return float(grid.gamma_axis[rows[0]]) if len(rows) else math.inf


def _unbroken_above_threshold(grid):
    rows = grid.gamma_axis > 1.05
    cols = grid.omega_axis <= 2.0
    return int((grid.classes[np.ix_(rows, cols)] == UNBROKEN_CODE).sum())


def _review_panel_structure(grids):
    """Automated review of the phase-diagram structure panel by panel:
    resonance-tongue families, above-threshold symmetric regions, and the
    fast-drive thresholds, as each panel's narrative describes them."""
    problems = []

    def check(condition, label):
        if not condition:
            problems.append(label)

    for mu, grid in grids.items():
        check(_nearest_cell(grid, 0.25, 5.9) == UNBROKEN_CODE, f"{mu}: weak drive fast limit")

    # fast-drive thresholds 2J/|1+mu| bracketed on the omega = 5.9 column
    check(_nearest_cell(grids[0.9], 0.95, 5.9) == UNBROKEN_CODE, "0.9: below threshold")
    check(_nearest_cell(grids[0.9], 1.2, 5.9) == BROKEN_CODE, "0.9: above threshold")
    check(_nearest_cell(grids[0.7], 1.05, 5.9) == UNBROKEN_CODE, "0.7: below threshold")
    check(_nearest_cell(grids[0.7], 1.3, 5.9) == BROKEN_CODE, "0.7: above threshold")
    check(_nearest_cell(grids[0.5], 1.2, 5.9) == UNBROKEN_CODE, "0.5: below threshold")
    check(_nearest_cell(grids[0.5], 1.5, 5.9) == BROKEN_CODE, "0.5: above threshold")
    check(_nearest_cell(grids[0.0], 1.8, 5.9) == UNBROKEN_CODE, "0.0: below threshold")
    check(_nearest_cell(grids[0.0], 2.3, 5.9) == BROKEN_CODE, "0.0: above threshold")
    check(_nearest_cell(grids[-0.7], 3.0, 5.9) == UNBROKEN_CODE, "-0.7: large threshold")
    check(_nearest_cell(grids[-1.0], 3.0, 5.9) == UNBROKEN_CODE, "-1.0: divergent threshold")

    # primary resonance tongue at omega ~ 2 deepens as mu decreases
    floors = {mu: _tongue_floor(grids[mu], 1.7, 2.3) for mu in FIGURE_MUS}
    check(floors[0.9] <= 0.9, "0.9: tongue dips below the static threshold")
    check(floors[0.7] <= 0.1, "0.7: tongue reaches toward gamma0 = 0")
    check(floors[0.5] <= 0.05, "0.5: tongue reaches toward gamma0 = 0")
    check(floors[0.0] <= 0.03, "0.0: tongue reaches toward gamma0 = 0")
    check(floors[-0.7] <= 0.02, "-0.7: tongue reaches toward gamma0 = 0")
    check(floors[-1.0] <= 0.02, "-1.0: tongue reaches toward gamma0 = 0")

    # half-Hermitian drive: tongues at 2/n for every n
    check(_tongue_floor(grids[0.0], 0.9, 1.1) <= 0.25, "0.0: tongue near omega = 1")
    check(_tongue_floor(grids[0.0], 0.6, 0.73) <= 0.08, "0.0: tongue near omega = 2/3")

    # reversal drive: even-n tongues gone, odd-n tongues stay
    check(_tongue_floor(grids[-1.0], 0.6, 0.73) <= 0.05, "-1.0: odd tongue at 2/3")
    check(_tongue_floor(grids[-1.0], 0.9, 1.1) >= 0.3, "-1.0: no even tongue at 1")
    check(_tongue_floor(grids[-1.0], 0.45, 0.55) >= 0.3, "-1.0: no even tongue at 1/2")

    # symmetric regions above the static threshold: grow toward mu ~ 0.5,
    # then recede and vanish at reversal
    above = {mu: _unbroken_above_threshold(grids[mu]) for mu in FIGURE_MUS}
    check(above[0.5] > 500, "0.5: symmetric region above threshold")
    check(above[0.0] > 50, "0.0: symmetric slivers above threshold")
    check(0 <= above[-0.7] < 100, "-0.7: receded above threshold")
    check(above[-1.0] == 0, "-1.0: nothing symmetric above threshold")

    # half-Hermitian symmetric slivers sit where the resonance solver puts them
    check(
        _nearest_cell(grids[0.0], 2.0, mu0_sliver(1, 2.0)) == UNBROKEN_CODE,
        "0.0: sliver cell at gamma0 = 2",
    )
    check(
        _nearest_cell(grids[0.0], 1.5, mu0_sliver(1, 1.5)) == UNBROKEN_CODE,
        "0.0: sliver cell at gamma0 = 1.5",
    )
    return problems


def _mini_golden_grid():
    return sweep_grid(-1.0, 1.0, (0.0, 4.0, 20), (0.1, 6.0, 20))


def _figure_grids():
    return {
        mu: sweep_grid(mu, 1.0, FIGURE_GAMMA_RANGE, FIGURE_OMEGA_RANGE)
        for mu in FIGURE_MUS
    }


def _platform_record():
    """What decides the figure CSV bytes beyond the program itself.

    fingerprint digests the libm results the kernel uses: its math.sin,
    cos, sinh and cosh, which cmath.sin and cmath.cos reach at real
    arguments up to 32 and imaginary ones up to 128 (the panels reach
    |r tau| = 31.4 oscillating and 122 growing).  The kernel takes no
    complex moduli; hypot stays in the digest only so that the recorded
    pins keep matching.  python is the minor version, whose own float
    formatting and complex arithmetic also shape the bytes.  numpy, libc
    and machine are recorded for people to read; pins are matched on
    fingerprint and python alone.
    """
    digest = hashlib.sha256()
    for k in range(1, 2048):
        x, y = 32.0 * k / 2039.0, 128.0 * k / 2039.0
        for z in (complex(x, 0.0), complex(0.0, y)):
            digest.update(repr((cmath.sin(z), cmath.cos(z))).encode("ascii"))
        digest.update(repr(abs(complex(x, y))).encode("ascii"))
    return {
        "fingerprint": digest.hexdigest()[:16],
        "python": "%d.%d" % sys.version_info[:2],
        "numpy": np.__version__,
        "libc": " ".join(platform.libc_ver()).strip(),
        "machine": platform.machine(),
    }


def _matching_pin(pins, record):
    key = (record["fingerprint"], record["python"])
    for pin in pins:
        if (pin["platform"]["fingerprint"], pin["platform"]["python"]) == key:
            return pin
    return None


def _csv_digests(grids):
    return {
        repr(mu): hashlib.sha256(render_sweep_csv(grid).encode("ascii")).hexdigest()
        for mu, grid in grids.items()
    }


def _class_changes(grids):
    """Cells whose class differs from the stored class grids.

    Returns (tolerated, failures): cells whose half trace lies within
    trace_noise of a class boundary (|h| = 1, where c crosses tol, or
    |h| = 1 + tol, the edge of the exceptional band) may change on another
    libm; every other change is a failure, named by its indices, gamma0,
    omega and old and new class.
    """
    tolerated, failures = 0, []
    with np.load(CLASSES_PATH) as stored_classes:
        for mu, grid in grids.items():
            stored = stored_classes[repr(mu)]
            for i, j in np.argwhere(grid.classes != stored):
                gamma0 = float(grid.gamma_axis[i])
                omega = float(grid.omega_axis[j])
                margin = abs(float(grid.trace_half[i, j])) - 1.0
                noise = trace_noise(grid.J, gamma0, mu, omega)
                if min(abs(margin), abs(margin - DEFAULT_TOL)) <= noise:
                    tolerated += 1
                    continue
                failures.append(
                    f"mu={mu} [{i},{j}] gamma0={gamma0!r} omega={omega!r}: "
                    f"{PHASE_BY_CODE[stored[i, j]].value} -> "
                    f"{PHASE_BY_CODE[grid.classes[i, j]].value}"
                )
    return tolerated, failures


def _first_line_difference(expected, actual):
    """The first line (1-based) where two texts differ, with both versions;
    a text that ends before the other reads <end of file> there."""
    old, new = expected.splitlines(), actual.splitlines()
    for number in range(1, max(len(old), len(new)) + 1):
        want = old[number - 1] if number <= len(old) else "<end of file>"
        got = new[number - 1] if number <= len(new) else "<end of file>"
        if want != got:
            return f"line {number}: expected {want!r}, got {got!r}"
    return "line endings differ"


def test_criterion_9_figure_regression():
    start = time.perf_counter()
    grids = _figure_grids()
    elapsed = time.perf_counter() - start

    problems = _review_panel_structure(grids)
    record = _platform_record()
    digests = _csv_digests(grids)
    mini_blob = render_sweep_csv(_mini_golden_grid()).encode("ascii")

    tolerated, class_failures = _class_changes(grids)
    pin = _matching_pin(json.loads(MANIFEST_PATH.read_text())["pins"], record)
    if pin is None:
        byte_detail = "no pin for this platform, not asserted"
        bytes_ok = True
    else:
        bytes_ok = pin["sha256"] == digests
        byte_detail = f"match: {bytes_ok}"
    mini_golden = MINI_GOLDEN_PATH.read_bytes()
    mini_matches = mini_golden == mini_blob
    mini_detail = str(mini_matches)
    if not mini_matches:
        first = _first_line_difference(
            mini_golden.decode("ascii", "replace"), mini_blob.decode("ascii")
        )
        mini_detail += f" (first difference at {first})"
    ok = (
        not class_failures
        and bytes_ok
        and mini_matches
        and not problems
        and elapsed < 30.0
    )
    class_detail = f"{len(class_failures)} changed cells outside the noise bound"
    if class_failures:
        class_detail += f" (first: {'; '.join(class_failures[:10])})"
    _report(
        9,
        ok,
        f"six 400x400 sweeps in {elapsed:.1f} s; class grids: {class_detail}, "
        f"{tolerated} inside it; byte pin for platform {record['fingerprint']} "
        f"(Python {record['python']}): {byte_detail}; mini golden match: "
        f"{mini_detail}; review problems: {problems or 'none'}",
    )


def pin_this_platform():
    """Add a CSV byte pin for this platform to the manifest, after the same
    structure review and class-grid comparison the test runs.  Existing pins
    are kept; a platform that already has one is left alone."""
    grids = _figure_grids()
    problems = _review_panel_structure(grids)
    if problems:
        sys.exit(f"structure review failed: {problems}")
    _, failures = _class_changes(grids)
    if failures:
        sys.exit(f"class grids changed: {failures[:10]}")
    manifest = json.loads(MANIFEST_PATH.read_text())
    record = _platform_record()
    if _matching_pin(manifest["pins"], record) is not None:
        sys.exit(f"platform {record['fingerprint']} is already pinned")
    manifest["pins"].append({"platform": record, "sha256": _csv_digests(grids)})
    MANIFEST_PATH.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"pinned platform {record}")


if __name__ == "__main__":
    # python tests/test_acceptance.py: pin the figure CSV bytes on this platform
    pin_this_platform()
