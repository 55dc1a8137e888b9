"""Closed-form trace identity, field components and boundary families,
cross-validated against the monodromy pipeline."""

import cmath
import math

import numpy as np
import pytest

from conftest import log_uniform, random_specs

from ptfloquet import (
    DrivingSpec,
    PhaseClass,
    asymptotic_boundary,
    asymptotic_boundary_log,
    broken_ellipse,
    classify,
    compose,
    cos_2eps_tau,
    cos_2eps_tau_mu0,
    field_components,
    high_freq_threshold,
    monodromy,
    mu0_sliver,
    mu_minus1_unbroken,
    sin_over_r,
    unbroken_ellipse,
)


def half_trace_of(spec):
    m = monodromy(spec)
    return (m[0, 0] + m[1, 1]).real / 2.0


def test_cos_2eps_tau_static_and_hermitian_limits():
    spec = DrivingSpec(gamma0=0.6, mu=1.0, omega=2.7)
    r1 = math.sqrt(1.0 - 0.36)
    assert cos_2eps_tau(spec) == pytest.approx(math.cos(2.0 * r1 * spec.tau), abs=1e-14)
    spec = DrivingSpec(gamma0=0.0, mu=-0.4, omega=1.3)
    assert cos_2eps_tau(spec) == pytest.approx(math.cos(2.0 * spec.tau), abs=1e-14)


def test_cos_2eps_tau_half_integer_ellipse_value():
    # r1 tau = pi/2 turns the formula into -(J^2 + gamma0^2)/(J^2 - gamma0^2)
    spec = DrivingSpec(gamma0=0.6, mu=-1.0, omega=1.6)
    value = cos_2eps_tau(spec)
    assert value == pytest.approx(-2.125, abs=1e-12)
    assert value == pytest.approx(half_trace_of(spec), abs=1e-12)


def test_equivalence_theorem_random_drives():
    # central cross-check: analytic trace equals the monodromy trace
    rng = np.random.default_rng(41)
    specs = random_specs(rng, 3000, max_growth=690.0, near_ep=150)
    for spec in specs:
        analytic_value = cos_2eps_tau(spec)
        numeric_value = half_trace_of(spec)
        near_ep = (
            abs(spec.gamma0 - 1.0) < 1e-4
            or abs(abs(spec.mu) * spec.gamma0 - 1.0) < 1e-4
        )
        tol = 1e-9 if near_ep else 1e-12
        scale = max(1.0, abs(analytic_value), abs(numeric_value))
        assert abs(analytic_value - numeric_value) <= tol * scale, spec


def test_field_components_mu_symmetries():
    spec = DrivingSpec(gamma0=0.8, mu=1.0, omega=2.0)
    assert field_components(spec).ay == 0.0
    spec = DrivingSpec(gamma0=0.8, mu=-1.0, omega=2.0)
    assert field_components(spec).az == pytest.approx(0.0, abs=1e-15)


def test_field_components_reconstruct_monodromy():
    rng = np.random.default_rng(42)
    for spec in random_specs(rng, 400, gamma_hi=6.0, omega_lo=0.1, max_growth=60.0):
        f = field_components(spec)
        rebuilt = compose(f.cos2eps, 1j * f.ax, -f.ay, f.az)
        m = monodromy(spec)
        scale = max(1.0, float(np.max(np.abs(m))))
        np.testing.assert_allclose(rebuilt, m, atol=1e-11 * scale)


def test_field_components_unit_determinant_identity():
    rng = np.random.default_rng(43)
    for spec in random_specs(rng, 400, gamma_hi=6.0, omega_lo=0.1, max_growth=40.0):
        f = field_components(spec)
        value = f.cos2eps**2 + f.ax**2 - f.ay**2 - f.az**2
        scale = max(1.0, f.cos2eps**2, f.ax**2, f.ay**2, f.az**2)
        assert abs(value - 1.0) <= 1e-10 * scale


def test_beyond_double_range_gives_inf_or_names_the_drive():
    # h overflows although each half step is finite: the trace identity
    # gives the kernel's -inf, not the NaN of inf - inf
    spec = DrivingSpec(gamma0=10.0, mu=-1.0, omega=0.05)
    h = classify(spec).half_trace
    assert h == -math.inf
    assert cos_2eps_tau(spec) == h
    f = field_components(spec)
    assert (f.ax, f.ay, f.az, f.cos2eps) == (math.inf, -math.inf, 0.0, h)
    assert mu_minus1_unbroken(spec) is False
    # a half step's cosh overflows: each function refuses as the kernel does,
    # naming the drive
    for mu in (0.0, -1.0):
        spec = DrivingSpec(gamma0=10.0, mu=mu, omega=0.04)
        with pytest.raises(ValueError) as refusal:
            classify(spec)
        message = str(refusal.value)
        assert message.startswith("a half step leaves double range at gamma0=10.0")
        calls = [cos_2eps_tau, field_components]
        if mu == 0.0:
            calls.append(lambda spec: cos_2eps_tau_mu0(spec.gamma0, spec.omega))
        else:
            calls.append(mu_minus1_unbroken)
        for call in calls:
            with pytest.raises(ValueError) as refusal:
                call(spec)
            assert str(refusal.value) == message


def test_high_freq_threshold_values():
    assert high_freq_threshold(1.0, 1.0) == 1.0
    assert high_freq_threshold(0.0, 1.0) == 2.0
    assert high_freq_threshold(0.5, 2.0) == pytest.approx(8.0 / 3.0)
    assert high_freq_threshold(-1.0, 1.0) == math.inf
    with pytest.raises(ValueError):
        high_freq_threshold(0.5, 0.0)


def test_unbroken_ellipse_geometry():
    curve = unbroken_ellipse(1, samples=5)
    assert curve.points[0] == (0.0, 1.0)
    assert curve.points[3][0] == pytest.approx(0.6)
    assert curve.points[3][1] == pytest.approx(0.8)
    curve = unbroken_ellipse(2, samples=4)
    assert curve.points[0] == (0.0, 0.5)  # omega/J = 2/4, even denominator
    for n in range(1, 7):
        for gamma0, omega in unbroken_ellipse(n, samples=50).points:
            assert gamma0**2 + (n * omega) ** 2 == pytest.approx(1.0, abs=1e-12)
            r1_tau = math.sqrt(1.0 - gamma0**2) * math.pi / omega
            assert abs(r1_tau - n * math.pi) <= 1e-12
    with pytest.raises(ValueError):
        unbroken_ellipse(0)


def test_broken_ellipse_geometry():
    curve = broken_ellipse(0, samples=5)
    assert curve.points[0] == (0.0, 2.0)  # primary resonance
    assert broken_ellipse(1, samples=5).points[0][1] == pytest.approx(2.0 / 3.0)
    point = broken_ellipse(0, samples=5).points[3]
    assert point == (pytest.approx(0.6), pytest.approx(1.6))
    with pytest.raises(ValueError):
        broken_ellipse(-1)


def test_ellipse_points_classify_as_named():
    for n in range(1, 7):
        for gamma0, omega in unbroken_ellipse(n, samples=20).points:
            if gamma0 == 0.0:
                continue
            spec = DrivingSpec(gamma0=gamma0, mu=-1.0, omega=omega)
            assert classify(spec).phase is PhaseClass.UNBROKEN
    for n in range(0, 6):
        for gamma0, omega in broken_ellipse(n, samples=20).points:
            if gamma0 == 0.0:
                continue
            spec = DrivingSpec(gamma0=gamma0, mu=-1.0, omega=omega)
            assert classify(spec).phase is PhaseClass.BROKEN


def test_mu_minus1_criterion_basics():
    # Hermitian limit: |sin(J tau)| <= 1 always holds
    for omega in (0.2, 1.0, 5.0):
        assert mu_minus1_unbroken(DrivingSpec(0.0, -1.0, omega))
    # integer-ellipse points satisfy the criterion by construction
    for gamma0, omega in unbroken_ellipse(3, samples=10).points:
        assert mu_minus1_unbroken(DrivingSpec(gamma0, -1.0, omega))
    with pytest.raises(ValueError):
        mu_minus1_unbroken(DrivingSpec(0.5, -0.5, 1.0))


def test_mu_minus1_criterion_matches_classification():
    rng = np.random.default_rng(44)
    checked = 0
    for _ in range(10_000):
        gamma0 = float(rng.uniform(0.0, 4.0))
        omega = float(rng.uniform(0.1, 6.0))
        spec = DrivingSpec(gamma0=gamma0, mu=-1.0, omega=omega)
        r1 = cmath.sqrt(complex(1.0 - gamma0 * gamma0))
        margin = abs(sin_over_r(r1, spec.tau)) - 1.0
        if abs(margin) <= 1e-9 * max(1.0, abs(r1)):
            continue  # inside the tolerance band of the transition
        assert mu_minus1_unbroken(spec) == (classify(spec).phase is not PhaseClass.BROKEN)
        checked += 1
    assert checked > 9900


def test_asymptotic_boundary_values():
    assert asymptotic_boundary(10.0) == pytest.approx(10.478182262188257, abs=1e-12)
    # log form approaches the asinh form from above as gamma grows
    for gamma in (1e3, 1e5, 1e7):
        ratio = asymptotic_boundary(gamma) / asymptotic_boundary_log(gamma)
        assert abs(ratio - 1.0) < 0.2
    assert abs(
        asymptotic_boundary(1e7) / asymptotic_boundary_log(1e7) - 1.0
    ) < abs(asymptotic_boundary(1e3) / asymptotic_boundary_log(1e3) - 1.0)


def bisect_omega_boundary(gamma0, lo, hi, rel_tol=1e-6):
    """Oracle: bisect the mu = -1 transition in omega on classify."""
    spec_lo = DrivingSpec(gamma0=gamma0, mu=-1.0, omega=lo)
    spec_hi = DrivingSpec(gamma0=gamma0, mu=-1.0, omega=hi)
    assert classify(spec_lo).phase is PhaseClass.BROKEN
    assert classify(spec_hi).phase is not PhaseClass.BROKEN
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if classify(DrivingSpec(gamma0=gamma0, mu=-1.0, omega=mid)).phase is PhaseClass.BROKEN:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_asymptotic_boundary_matches_numeric_scan():
    for gamma0 in (10.0, 20.0):
        predicted = asymptotic_boundary(gamma0)
        numeric = bisect_omega_boundary(gamma0, 0.6 * predicted, 1.5 * predicted)
        assert abs(numeric - predicted) <= 0.05 * predicted


def test_mu0_specialization_matches_general_formula():
    rng = np.random.default_rng(45)
    for _ in range(500):
        gamma0 = float(log_uniform(rng, 1e-3, 10.0))
        omega = float(log_uniform(rng, 0.2, 100.0))
        if gamma0 > 1.0 and math.sqrt(gamma0**2 - 1.0) * math.pi / omega > 300.0:
            continue
        general = cos_2eps_tau(DrivingSpec(gamma0=gamma0, mu=0.0, omega=omega))
        special = cos_2eps_tau_mu0(gamma0, omega)
        assert abs(general - special) <= 1e-12 * max(1.0, abs(general))


def test_mu0_sliver_exact_point():
    # gamma0 = 2J: cot(J tau) = 1/sqrt(3) selects J tau = pi/3 (omega = 3J) on
    # the n = 1 branch and J tau = 4 pi/3 (omega = 3J/4) on the n = 3 branch
    assert mu0_sliver(1, 2.0) == 3.0
    assert mu0_sliver(3, 2.0) == 0.75


def test_mu0_sliver_bracket_convention_and_limits():
    for n in (1, 3, 5):
        omega = mu0_sliver(n, 1e3)
        assert abs(omega - 2.0 / n) <= 1e-3 * (2.0 / n)
        # each root satisfies the resonance condition to rounding accuracy
        for gamma0 in (1.2, 2.5, 10.0):
            q = math.sqrt(gamma0**2 - 1.0)
            tau = math.pi / mu0_sliver(n, gamma0)
            residual = abs(q * math.cos(tau) - math.sin(tau)) / math.hypot(q, 1.0)
            assert residual <= 1e-10
    # returned root sits in the advertised bracket
    for n, gamma0 in ((1, 2.5), (3, 2.5), (5, 2.5), (5, 5.0), (20001, 2.0)):
        tau = math.pi / mu0_sliver(n, gamma0)
        assert (n - 1) * math.pi / 2 < tau < (n + 1) * math.pi / 2


def test_mu0_sliver_within_three_ulps_of_exact_centre():
    # Rounding budget of the closed form at n = 1, in ulps of the result:
    # q at most 1, atan2, pi*J and the quotient 1/2 each, and math.pi's own
    # rounding 0.35, so below 3.  Measured worst on 20 000 drives: 2.55.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(12)
    drives = [
        (1, 1.0073817760910733, 1.0),  # 13 ulps off with the former bisection
        (1, 3.7000666436533356, 3.7),  # 2.04 ulps off
    ]
    for J in (0.5, 1.0, 3.7):
        for n in (1, 3, 21, 20001):
            for offset in log_uniform(rng, 1e-12, 1e3, 20).tolist():
                drives.append((n, (1.0 + offset) * J, J))
    with mpmath.workdps(60):
        for n, gamma0, J in drives:
            g, j = mpmath.mpf(gamma0), mpmath.mpf(J)
            q = mpmath.sqrt((g - j) * (g + j))
            exact = mpmath.pi * j / (mpmath.atan(q / j) + (n - 1) // 2 * mpmath.pi)
            error = abs(mpmath.mpf(mu0_sliver(n, gamma0, J)) - exact)
            assert error <= 3 * math.ulp(float(exact)), (n, gamma0, J)


def test_mu0_sliver_identity_and_classification():
    # along the sliver: cos(2 eps tau) = cos(J tau) exp(-q tau), inside (-1, 1);
    # the residual is measured against the cosh(q tau) term scale, and the
    # classification check stops where the sliver narrows below double
    # resolution (trace noise ~ exp(q tau) * eps crossing 1 near q tau ~ 35)
    for n in (1, 3, 5):
        for gamma0 in (1.5, 2.0, 5.0, 10.0):
            omega = mu0_sliver(n, gamma0)
            tau = math.pi / omega
            q = math.sqrt(gamma0**2 - 1.0)
            if q * tau > 300.0:
                continue
            value = cos_2eps_tau(DrivingSpec(gamma0=gamma0, mu=0.0, omega=omega))
            scale = max(1.0, math.cosh(q * tau))
            assert abs(value - math.cos(tau) * math.exp(-q * tau)) <= 1e-10 * scale
            if q * tau < 30.0:
                assert abs(value) < 1.0
                spec = DrivingSpec(gamma0=gamma0, mu=0.0, omega=omega)
                assert classify(spec).phase is PhaseClass.UNBROKEN


def test_mu0_sliver_rejects_bad_inputs():
    with pytest.raises(ValueError):
        mu0_sliver(2, 2.0)
    with pytest.raises(ValueError):
        mu0_sliver(-1, 2.0)
    with pytest.raises(ValueError):
        mu0_sliver(1, 0.5)


def test_formula_is_even_in_both_rates():
    # randomized sign flips of r1, r2 leave the trace identity unchanged
    rng = np.random.default_rng(46)
    for _ in range(200):
        gamma0 = float(rng.uniform(0.0, 3.0))
        mu = float(rng.uniform(-1.0, 1.0))
        omega = float(rng.uniform(0.3, 5.0))
        tau = math.pi / omega
        r1 = cmath.sqrt(complex(1.0 - gamma0**2))
        r2 = cmath.sqrt(complex(1.0 - (mu * gamma0) ** 2))
        coeff = 1.0 - mu * gamma0**2
        reference = None
        for s1 in (1.0, -1.0):
            for s2 in (1.0, -1.0):
                a, b = s1 * r1, s2 * r2
                value = cmath.cos(b * tau) * cmath.cos(a * tau) - coeff * sin_over_r(
                    b, tau
                ) * sin_over_r(a, tau)
                if reference is None:
                    reference = value
                else:
                    assert abs(value - reference) <= 1e-15 * max(1.0, abs(reference))
