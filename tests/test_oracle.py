"""Brute-force stepped propagator against the two-factor product."""

import numpy as np
import pytest

from conftest import matrix_scale, random_specs

from ptfloquet import DrivingSpec, monodromy, oracle, stepped_propagator
from ptfloquet.errors import ConsistencyError


def test_single_step_per_half_is_the_monodromy():
    rng = np.random.default_rng(51)
    for spec in random_specs(rng, 100, gamma_hi=5.0, omega_lo=0.1, max_growth=80.0):
        np.testing.assert_allclose(
            stepped_propagator(spec, 1),
            monodromy(spec),
            atol=1e-15 * matrix_scale(monodromy(spec)),
        )


def test_many_steps_match_to_accumulated_rounding():
    rng = np.random.default_rng(52)
    for spec in random_specs(rng, 20, gamma_hi=5.0, omega_lo=0.1, max_growth=60.0):
        m = monodromy(spec)
        oracle = stepped_propagator(spec, 10_000)
        np.testing.assert_allclose(oracle, m, atol=1e-10 * matrix_scale(m))


def test_hermitian_drive_stays_unitary():
    spec = DrivingSpec(gamma0=0.0, mu=-0.5, omega=1.3)
    for steps in (1, 7, 500):
        g = stepped_propagator(spec, steps)
        np.testing.assert_allclose(g @ g.conj().T, np.eye(2), atol=1e-12)


def test_result_independent_of_step_count():
    spec = DrivingSpec(gamma0=0.7, mu=-0.3, omega=2.1)
    reference = stepped_propagator(spec, 1)
    for steps in (2, 3, 10, 101, 4096):
        drift = np.max(np.abs(stepped_propagator(spec, steps) - reference))
        assert drift <= 2 * steps * 1e-15 * matrix_scale(reference)


def test_half_step_order_matters_but_trace_does_not():
    # the two half-step generators do not commute, so swapping them changes
    # the operator; cyclicity keeps the trace (and the classification) fixed
    spec = DrivingSpec(gamma0=0.5, mu=0.0, omega=2.0)
    forward = monodromy(spec)
    tau = spec.tau

    from ptfloquet import expm_traceless

    g_plus_half = expm_traceless((-1.0, 0.0, 1j * spec.gamma0), tau)
    g_minus_half = expm_traceless((-1.0, 0.0, 0.0j), tau)
    swapped = g_plus_half @ g_minus_half
    assert np.max(np.abs(swapped - forward)) > 1e-3
    assert abs(np.trace(swapped) - np.trace(forward)) <= 1e-14


def test_rejects_bad_step_count():
    with pytest.raises(ValueError):
        stepped_propagator(DrivingSpec(0.5, 0.0, 2.0), 0)


def test_sub_step_structure_is_checked(monkeypatch):
    # a sub-step with a real off-diagonal part breaks the [[real, imag],
    # [imag, real]] structure the loop relies on; the second half's is skewed,
    # so the error must name its gamma, mu gamma0 = 0.25
    exact = oracle.expm_traceless

    def skewed(r, t):
        step = exact(r, t)
        if r[2] == 0.25j:
            step[0, 1] += 1e-3
        return step

    monkeypatch.setattr(oracle, "expm_traceless", skewed)
    with pytest.raises(ConsistencyError, match=r"sub-step of gamma=0\.25 is not"):
        stepped_propagator(DrivingSpec(gamma0=0.5, mu=0.5, omega=2.0), 10)
