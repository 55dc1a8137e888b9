"""Grid sweep engine: determinism, grid-node exactness, structure checks
and the threshold bisection."""

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
from ptfloquet.floquet import BROKEN_CODE, UNBROKEN_CODE


def test_grid_axis_exact_endpoints_and_refinement():
    axis = grid_axis(0.0, 4.0, 401)
    assert axis[0] == 0.0 and axis[-1] == 4.0
    coarse = grid_axis(0.1, 6.0, 21)
    fine = grid_axis(0.1, 6.0, 41)
    np.testing.assert_array_equal(coarse, fine[::2])


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


def test_sweep_matches_pointwise_classify():
    grid = sweep_grid(-0.4, 1.0, (0.0, 2.0, 9), (0.4, 3.0, 11))
    for i, gamma0 in enumerate(grid.gamma_axis):
        for j, omega in enumerate(grid.omega_axis):
            r = classify(DrivingSpec(float(gamma0), -0.4, float(omega)))
            assert grid.c_values[i, j] == r.c
            assert grid.phase_at(i, j) is r.phase


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
    np.testing.assert_array_equal(unbroken, grid.c_values <= grid.tol)
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
