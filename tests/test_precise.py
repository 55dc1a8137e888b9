"""Extended-precision half trace: exact boundary points, agreement with the
closed-form trace identity, a digit budget that more guard digits do not
change, results that do not depend on the scale of J and, where mpmath is
installed, exact rounding."""

import numpy as np
import pytest

from conftest import exact_half_trace, random_specs

from ptfloquet import DrivingSpec, classify, cos_2eps_tau, mu0_sliver
from ptfloquet.floquet import trace_noise
from ptfloquet.precise import _GUARD_DIGITS, half_trace

U = 2.0**-53


def precise(spec):
    noise = trace_noise(spec.J, spec.gamma0, spec.mu, spec.omega)
    return half_trace(spec.J, spec.gamma0, spec.mu, spec.omega, noise / U)


def test_exact_boundary_points():
    # gamma0 = 0 leaves cos(2 pi J/omega): exactly 1 at omega = J and at
    # omega = J/2, and 1 - 6e-30 at the float nearest omega = 0.1
    assert precise(DrivingSpec(0.0, 0.5, 1.0)) == 1.0
    assert precise(DrivingSpec(0.0, 0.3, 0.5)) == 1.0
    assert precise(DrivingSpec(0.0, -1.0, 0.1)) == 1.0


def test_matches_trace_identity_on_random_drives():
    rng = np.random.default_rng(61)
    for spec in random_specs(rng, 300, gamma_hi=4.0, omega_lo=0.2, max_growth=20.0):
        reference = cos_2eps_tau(spec)
        assert abs(precise(spec) - reference) <= 1e-12 * max(1.0, abs(reference))


def sliver_drives(rng, count):
    """mu = 0 drives at the closed-form sliver centres: n in 1, 3, 5, 7 and
    gamma0 log-uniform in [1.05, 10], so q tau reaches about 100 and the
    working precision 40 to 90 digits."""
    return [
        DrivingSpec(gamma0, 0.0, mu0_sliver(int(n), gamma0))
        for n, gamma0 in zip(
            rng.choice((1, 3, 5, 7), count), np.exp(rng.uniform(0.05, 2.3, count))
        )
    ]


def test_correctly_rounded_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(62)
    for spec in random_specs(rng, 60, omega_lo=1e-2, max_growth=120.0, near_ep=40):
        assert precise(spec) == float(exact_half_trace(mpmath, spec, 120)), spec


def test_halved_series_correctly_rounded_at_slivers_and_on_every_branch():
    mpmath = pytest.importorskip("mpmath")
    centres = [
        DrivingSpec(gamma0, 0.0, mu0_sliver(n, gamma0))
        for n in (1, 3, 5)
        for gamma0 in (1.5, 2.0, 5.0, 10.0)
    ]
    branches = [
        DrivingSpec(1.0, 0.5, 0.7),  # rr == 0: gamma0 = J exactly
        DrivingSpec(0.3, 0.0, 0.05),  # trig, r tau reduced mod 2 pi
        DrivingSpec(1.0 + 1e-6, 0.5, 0.9),  # hyperbolic, q tau < 1
        DrivingSpec(3.0, -0.2, 0.4),  # hyperbolic, q tau >= 1
    ]
    for spec in centres + sliver_drives(np.random.default_rng(63), 40) + branches:
        assert precise(spec) == float(exact_half_trace(mpmath, spec)), spec


def test_more_guard_digits_change_no_result(monkeypatch):
    rng = np.random.default_rng(64)
    specs = sliver_drives(rng, 60) + random_specs(
        rng, 0, omega_lo=1e-3, max_growth=120.0, near_ep=60
    )
    values = [precise(spec) for spec in specs]
    monkeypatch.setattr("ptfloquet.precise._GUARD_DIGITS", _GUARD_DIGITS + 30)
    assert [precise(spec) for spec in specs] == values


def test_half_trace_is_scale_free():
    # scaling J, gamma0 and omega by a power of two leaves every ratio, and
    # so the exact half trace, unchanged; arithmetic in absolute units would
    # lose the rates at s = 2^-600 and run out of bits at s = 2^600
    specs = [
        DrivingSpec(gamma0, 0.0, mu0_sliver(n, gamma0))
        for n in (1, 5)
        for gamma0 in (1.5, 10.0)
    ] + [
        DrivingSpec(1.0 + 2.0**-40, -0.5, 0.8),  # near the exceptional point
        DrivingSpec(0.5, 0.3, 1e-3),  # both half steps trig, omega low
    ]
    for spec in specs:
        amp = trace_noise(spec.J, spec.gamma0, spec.mu, spec.omega) / U
        want = half_trace(spec.J, spec.gamma0, spec.mu, spec.omega, amp)
        for s in (2.0**-600, 2.0**600):
            got = half_trace(spec.J * s, spec.gamma0 * s, spec.mu, spec.omega * s, amp)
            assert got.hex() == want.hex(), (spec, s)


def test_static_drive_at_the_exceptional_point_has_half_trace_one(monkeypatch):
    # at gamma0 = J, mu = 1 the generator is nilpotent and h = 1 for every
    # omega; the double-precision h is noise here, so precise must settle it
    calls = []
    monkeypatch.setattr(
        "ptfloquet.precise.half_trace",
        lambda *args: calls.append(args) or half_trace(*args),
    )
    for omega in (1e-3, 1e-50, 1e-100, 1e-200):
        assert classify(DrivingSpec(1.0, 1.0, omega)).half_trace == 1.0
    assert len(calls) == 2  # the bound is infinite at 1e-100 and 1e-200
