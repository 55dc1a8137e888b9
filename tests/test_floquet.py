"""Monodromy operator, quasienergy folding, amplification rate and phase
classification."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from conftest import (
    exact_half_trace, growth_exponent, log_uniform, matrix_scale, random_specs,
)

from ptfloquet import (
    DrivingSpec,
    PhaseClass,
    amplification_rate,
    classify,
    compose,
    decompose,
    eigenvalues2,
    expm_traceless,
    floquet,
    h_pt,
    monodromy,
    mu0_sliver,
    passive_monodromy,
    passive_shift,
    quasienergy,
    sweep_grid,
)
from ptfloquet.floquet import (
    BROKEN_CODE,
    DEFAULT_TOL,
    EXCEPTIONAL_CODE,
    UNBROKEN_CODE,
    FloquetResult,
    _phase_code,
    _quasienergy_from_half_trace,
    trace_noise,
)
from ptfloquet.pauli import SIGMA_Z
from ptfloquet.precise import half_trace as precise_half_trace


def test_monodromy_hermitian_limit():
    spec = DrivingSpec(gamma0=0.0, mu=0.3, omega=1.7)
    two_tau = 2.0 * spec.tau
    expected = compose(math.cos(two_tau), 1j * math.sin(two_tau), 0, 0)
    np.testing.assert_allclose(monodromy(spec), expected, atol=1e-14)
    # unitary: G G^dag = 1
    m = monodromy(spec)
    np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-13)


def test_monodromy_static_reduction():
    spec = DrivingSpec(gamma0=0.8, mu=1.0, omega=2.2)
    direct = expm_traceless((-1.0, 0.0, 1j * 0.8), 2.0 * spec.tau)
    np.testing.assert_allclose(monodromy(spec), direct, atol=1e-13)


def test_monodromy_half_integer_ellipse_point():
    # on the half-integer ellipse the trace drops below -1: broken phase
    spec = DrivingSpec(gamma0=0.6, mu=-1.0, omega=1.6)
    m = monodromy(spec)
    half_trace = (m[0, 0] + m[1, 1]).real / 2.0
    assert half_trace == pytest.approx(-2.125, abs=1e-12)
    assert half_trace < -1.0


def test_monodromy_order_gain_half_first():
    # G(T) = G_minus G_plus, not the reverse; the two differ when mu != 1
    spec = DrivingSpec(gamma0=0.5, mu=0.0, omega=2.0)
    g_plus_half = expm_traceless((-1.0, 0.0, 0.5j), spec.tau)
    g_minus_half = expm_traceless((-1.0, 0.0, 0.0j), spec.tau)
    np.testing.assert_allclose(monodromy(spec), g_minus_half @ g_plus_half, atol=1e-14)
    reversed_product = g_plus_half @ g_minus_half
    assert not np.allclose(monodromy(spec), reversed_product, atol=1e-8)


def test_quasienergy_identity_and_static():
    assert quasienergy(np.eye(2), 0.7) == 0
    # static drive below threshold: eps_f is the static eigenvalue folded
    spec = DrivingSpec(gamma0=0.6, mu=1.0, omega=3.0)
    eps = quasienergy(monodromy(spec), spec.tau)
    assert eps.imag == 0.0
    assert eps.real == pytest.approx(0.8, abs=1e-12)
    # omega = 1: acos already returns 0.2, the image of 0.8 in the half zone
    spec = DrivingSpec(gamma0=0.6, mu=1.0, omega=1.0)
    eps = quasienergy(monodromy(spec), spec.tau)
    assert eps.real == pytest.approx(0.2, abs=1e-12)
    assert 0.0 <= eps.real <= spec.omega / 2.0
    # at h = -1 and tau = pi / omega, as classify passes them, acos(-1) / (2 tau)
    # rounds above omega / 2 for some omega (1.8798370568250282 is one): it
    # is reflected back into the half zone
    rng = np.random.default_rng(20261019)
    omegas = np.exp(rng.uniform(-5.0, 5.0, 200)).tolist()
    assert any(math.pi / (2.0 * (math.pi / omega)) > omega / 2.0 for omega in omegas)
    for omega in omegas:
        eps = _quasienergy_from_half_trace(-1.0 + 0.0j, math.pi / omega, omega)
        assert eps.imag == 0.0 and 0.0 <= eps.real <= omega / 2.0, omega


def test_quasienergy_broken_point_has_growth():
    spec = DrivingSpec(gamma0=0.6, mu=-1.0, omega=1.6)
    eps = quasienergy(monodromy(spec), spec.tau)
    assert eps.imag > 0.0


def test_quasienergy_reconstructs_half_trace():
    rng = np.random.default_rng(31)
    for spec in random_specs(rng, 300, gamma_hi=4.0, omega_lo=0.2, max_growth=40.0):
        m = monodromy(spec)
        half_trace = (m[0, 0] + m[1, 1]) / 2.0
        eps = quasienergy(m, spec.tau)
        back = cmath.cos(2.0 * eps * spec.tau)
        assert abs(back - half_trace) <= 1e-12 * max(1.0, abs(half_trace))


def test_amplification_rate_values():
    assert amplification_rate(np.eye(2)) == 0.0
    theta = 0.9
    unitary = compose(math.cos(theta), 0, 1j * math.sin(theta), 0)
    assert amplification_rate(unitary) <= 1e-15
    assert amplification_rate(np.diag([2.0, 0.5])) == pytest.approx(0.6, abs=1e-15)


def test_amplification_rate_static_broken_growth():
    # derived oracle: broken static drive has |g_pm| = exp(-+ 2 q tau) with
    # q = sqrt(gamma0^2 - J^2), hence c = tanh(2 q tau)
    gamma0 = 1.25
    q = math.sqrt(gamma0**2 - 1.0)
    for omega in (1.0, 2.0, 5.0):
        spec = DrivingSpec(gamma0=gamma0, mu=1.0, omega=omega)
        m = monodromy(spec)
        g_plus, g_minus = eigenvalues2(m)
        assert abs(g_plus) == pytest.approx(math.exp(2.0 * q * spec.tau), rel=1e-12)
        assert abs(g_minus) == pytest.approx(math.exp(-2.0 * q * spec.tau), rel=1e-12)
        assert amplification_rate(m) == pytest.approx(
            math.tanh(2.0 * q * spec.tau), rel=1e-12
        )


def test_amplification_rate_scalar_invariance():
    rng = np.random.default_rng(32)
    for spec in random_specs(rng, 200, gamma_hi=4.0, omega_lo=0.2, max_growth=30.0):
        m = monodromy(spec)
        c = amplification_rate(m)
        for _ in range(3):
            s = complex(rng.normal(), rng.normal()) * 10.0 ** rng.integers(-3, 4)
            if s == 0:
                continue
            assert abs(amplification_rate(s * m) - c) <= 1e-12


def test_classify_examples():
    assert classify(DrivingSpec(0.5, 1.0, 3.0)).phase is PhaseClass.UNBROKEN
    assert classify(DrivingSpec(1.5, 1.0, 3.0)).phase is PhaseClass.BROKEN
    assert classify(DrivingSpec(0.05, -1.0, 2.0)).phase is PhaseClass.BROKEN
    # |h| < 1: c is exactly 0, not the rounding noise (5.6e-17) of an
    # eigenvalue pair on the unit circle
    r = classify(DrivingSpec(0.0, -1.0, 4.136842105263158))
    assert r.phase is PhaseClass.UNBROKEN and abs(r.half_trace) < 1.0
    assert r.c == 0.0
    # h beyond double range: the roots are h and 1/h, and cos(2 eps tau) = -inf
    # puts Re eps_f at omega/2 (acos(-inf) and the quadratic formula give NaN)
    r = classify(DrivingSpec(10.0, -1.0, 0.05))
    assert r.half_trace == -math.inf and r.phase is PhaseClass.BROKEN
    assert r.c == math.nextafter(1.0, 0.0)
    assert r.g_plus == -math.inf and r.g_minus == 0.0
    assert r.eps_f == complex(0.025, math.inf)
    # h finite but h*h beyond double range: g+- are 2h and 1/(2h), finite
    r = classify(DrivingSpec(4.0, -1.0, 0.035))
    assert r.half_trace == pytest.approx(-3.003022173458965e300)
    assert r.g_plus == 2.0 * r.half_trace and r.g_minus == 0.5 / r.half_trace
    assert math.isfinite(abs(r.g_plus)) and r.g_minus != 0.0
    # a noise bound whose amplification (bound / u) overflows leaves the
    # double-precision trace standing, as an overflowing bound does
    r = classify(DrivingSpec(0.0, 0.0, 1.0, J=1e153))
    assert r.phase is PhaseClass.UNBROKEN and abs(r.half_trace) <= 1.0
    # the largest J of the CLI fuzz test still has a finite square
    assert abs(classify(DrivingSpec(0.0, 0.0, 1.0, J=1.34e154)).half_trace) <= 1.0
    # a J whose square overflows is refused up front, naming J
    with pytest.raises(ValueError, match=r"\bJ\b"):
        DrivingSpec(0.0, 0.0, 1.0, J=1e155)
    # eps_f folds by the drive's own omega: at the largest double, pi / tau
    # would overflow and make Re eps_f NaN
    r = classify(DrivingSpec(0.1, 0.0, 1.7976931348623157e308))
    assert r.half_trace == 1.0 and r.eps_f == 0.0
    # a half step beyond double range names the drive, as a NaN trace does
    with pytest.raises(ValueError, match="gamma0=3.0, mu=0.0, omega=0.01"):
        classify(DrivingSpec(3.0, 0.0, 0.01))
    # a NaN half trace from finite input names the drive
    with pytest.raises(ValueError, match="gamma0=1e\\+200"):
        classify(DrivingSpec(1e200, 1.0, 1.0))
    with pytest.raises(ValueError, match="gamma0=1e\\+200"):
        sweep_grid(1.0, 1.0, (0.0, 1e200, 2), (0.5, 1.0, 2))


def test_phase_code_band_edges():
    # Unbroken for |h| <= 1, Exceptional for 1 < |h| <= 1 + DEFAULT_TOL,
    # Broken beyond.  |h| - 1 is exact, so the band's last double lies just
    # below 1.0 + DEFAULT_TOL, which rounds up past the real edge.
    last = math.nextafter(1.0 + DEFAULT_TOL, 1.0)
    assert last - 1.0 <= DEFAULT_TOL < (1.0 + DEFAULT_TOL) - 1.0
    for sign in (1.0, -1.0):
        assert _phase_code(sign * 1.0) == UNBROKEN_CODE
        assert _phase_code(sign * math.nextafter(1.0, 0.0)) == UNBROKEN_CODE
        for h in (math.nextafter(1.0, 2.0), last):
            assert _phase_code(sign * h) == EXCEPTIONAL_CODE, sign * h
        for h in (1.0 + DEFAULT_TOL, math.nextafter(1.0 + DEFAULT_TOL, 2.0), math.inf):
            assert _phase_code(sign * h) == BROKEN_CODE, sign * h


def test_classify_result_invariants():
    rng = np.random.default_rng(33)
    for spec in random_specs(rng, 200, gamma_hi=4.0, omega_lo=0.2, max_growth=40.0):
        r = classify(spec)
        m = monodromy(spec)
        scale2 = matrix_scale(m) ** 2
        assert abs(r.g_plus * r.g_minus - 1.0) <= 1e-12 * scale2
        assert abs(r.g_plus) >= abs(r.g_minus) * (1.0 - 1e-14)
        assert 0.0 <= r.c < 1.0
        half_trace = (m[0, 0] + m[1, 1]) / 2.0
        back = cmath.cos(2.0 * r.eps_f * spec.tau)
        assert abs(back - half_trace) <= 1e-12 * max(1.0, abs(half_trace))
        if r.phase is PhaseClass.UNBROKEN:
            assert r.c <= 1e-9
            assert abs(abs(r.g_plus) - 1.0) <= 1e-9


def test_classify_computes_no_spectrum(monkeypatch):
    # classify stores what the kernel decides; the eigenvalues and the
    # quasienergy are computed only when read
    def no_spectrum(*args):
        raise AssertionError("spectrum computed")

    assert [f.name for f in dataclasses.fields(FloquetResult)] == [
        "spec", "half_trace", "c", "phase",
    ]
    monkeypatch.setattr(floquet, "quadratic_roots", no_spectrum)
    monkeypatch.setattr(floquet, "_quasienergy_from_half_trace", no_spectrum)
    for spec in (DrivingSpec(0.5, 1.0, 3.0), DrivingSpec(0.6, -1.0, 1.6)):
        r = classify(spec)
        assert r.spec is spec and isinstance(r.phase, PhaseClass)
        assert 0.0 <= r.c < 1.0 and math.isfinite(r.half_trace)
        for name in ("g_plus", "g_minus", "eps_f"):
            with pytest.raises(AssertionError, match="spectrum computed"):
                getattr(r, name)


def test_rate_saturates_where_the_half_trace_squared_overflows():
    # |h| ~ 7.8e209, so h*h overflows; c must stay 1 - ulp, not NaN
    one_minus_ulp = math.nextafter(1.0, 0.0)
    spec = DrivingSpec(gamma0=4.0, mu=-1.0, omega=0.05)
    r = classify(spec)
    assert 1e209 < abs(r.half_trace) < 1e210
    assert r.c == one_minus_ulp
    assert r.phase is PhaseClass.BROKEN
    grid = sweep_grid(-1.0, 1.0, (4.0, 5.0, 2), (0.05, 0.06, 2))
    assert grid.trace_half[0, 0] == r.half_trace
    assert grid.c_values[0, 0] == one_minus_ulp
    assert grid.phase_at(0, 0) is PhaseClass.BROKEN


def test_classify_exceptional_band():
    # just past the static threshold the trace sits within tol of -1/+1
    # while c is already above tol: the boundary skin classifies Exceptional
    spec = DrivingSpec(gamma0=1.0 + 1e-14, mu=1.0, omega=2.0)
    r = classify(spec)
    assert r.phase is PhaseClass.EXCEPTIONAL


def test_unbroken_wins_inside_band():
    # on the integer ellipse the monodromy is the identity: a degenerate but
    # symmetric point, classified Unbroken rather than Exceptional
    spec = DrivingSpec(gamma0=0.6, mu=-1.0, omega=0.8)
    r = classify(spec)
    assert np.allclose(monodromy(spec), np.eye(2), atol=1e-12)
    assert r.phase is PhaseClass.UNBROKEN


def test_trace_is_real_for_every_drive():
    rng = np.random.default_rng(34)
    for spec in random_specs(rng, 500, max_growth=600.0):
        m = monodromy(spec)
        trace = m[0, 0] + m[1, 1]
        assert abs(trace.imag) <= 1e-12 * max(1.0, abs(trace.real))


def test_mu_minus1_symmetry_inverse_under_sz_conjugation():
    # gain/loss reversal makes sz G sz = G^{-1}
    rng = np.random.default_rng(35)
    checked_absolute = 0
    for _ in range(300):
        gamma0 = float(rng.uniform(0.0, 4.0))
        omega = float(rng.uniform(0.1, 6.0))
        spec = DrivingSpec(gamma0=gamma0, mu=-1.0, omega=omega)
        m = monodromy(spec)
        product = SIGMA_Z @ m @ SIGMA_Z @ m
        scale2 = matrix_scale(m) ** 2
        np.testing.assert_allclose(product, np.eye(2), atol=1e-11 * scale2)
        if scale2 <= 1e4:
            np.testing.assert_allclose(product, np.eye(2), atol=1e-11)
            checked_absolute += 1
    assert checked_absolute > 50


def test_high_frequency_effective_hamiltonian():
    # at omega >> J, gamma0 the drive averages: H_F -> h_pt(J, (1+mu)gamma0/2)
    omega = 1e3
    for gamma0, mu in [(0.3, 0.5), (0.8, -1.0), (2.0, 0.0), (1.5, -0.5), (0.5, 1.0)]:
        spec = DrivingSpec(gamma0=gamma0, mu=mu, omega=omega)
        m = monodromy(spec)
        eps = quasienergy(m, spec.tau)
        _, p1, p2, p3 = decompose(m)
        s2 = cmath.sin(2.0 * eps * spec.tau)
        h_f = compose(0.0, 1j * eps * p1 / s2, 1j * eps * p2 / s2, 1j * eps * p3 / s2)
        target = h_pt(1.0, (1.0 + mu) * gamma0 / 2.0).matrix()
        tol = 10.0 * (gamma0**2 + 1.0) / omega
        np.testing.assert_allclose(h_f, target, atol=tol)


def test_passive_monodromy_properties():
    spec = DrivingSpec(gamma0=0.0, mu=0.4, omega=2.0)
    np.testing.assert_allclose(passive_monodromy(spec), monodromy(spec), atol=0)

    rng = np.random.default_rng(36)
    for spec in random_specs(rng, 200, gamma_hi=4.0, omega_lo=0.2, max_growth=30.0):
        active_c = amplification_rate(monodromy(spec))
        passive_c = amplification_rate(passive_monodromy(spec))
        assert abs(active_c - passive_c) <= 1e-12

    # pure loss: spectral radius stays below 1
    spec = DrivingSpec(gamma0=0.5, mu=0.0, omega=2.0)
    g_plus, g_minus = eigenvalues2(passive_monodromy(spec))
    assert abs(g_plus) <= 1.0 and abs(g_minus) <= 1.0


def test_passive_monodromy_equals_shifted_hamiltonian_route():
    # identity-shifting both half Hamiltonians reproduces the scalar factor
    for gamma0, mu, omega in [(0.7, 0.3, 1.9), (1.2, -0.6, 0.9), (0.4, -1.0, 3.3)]:
        spec = DrivingSpec(gamma0=gamma0, mu=mu, omega=omega)
        h_first = passive_shift(h_pt(1.0, gamma0), gamma0)
        h_second = passive_shift(h_pt(1.0, mu * gamma0), abs(mu) * gamma0)
        # exp(-i tau (H - i s 1)) = exp(-s tau) exp(-i tau H)
        step_first = math.exp(-gamma0 * spec.tau) * expm_traceless(
            (h_first.a1, h_first.a2, h_first.a3), spec.tau
        )
        step_second = math.exp(-abs(mu) * gamma0 * spec.tau) * expm_traceless(
            (h_second.a1, h_second.a2, h_second.a3), spec.tau
        )
        np.testing.assert_allclose(
            passive_monodromy(spec), step_second @ step_first, atol=1e-13
        )


def test_classification_agrees_between_active_and_passive():
    rng = np.random.default_rng(37)
    for spec in random_specs(rng, 200, gamma_hi=4.0, omega_lo=0.2, max_growth=30.0):
        active = classify(spec)
        m_passive = passive_monodromy(spec)
        c_passive = amplification_rate(m_passive)
        # normalize the trace by sqrt(det) to undo the loss factor
        half_trace = (m_passive[0, 0] + m_passive[1, 1]) / 2.0
        det = m_passive[0, 0] * m_passive[1, 1] - m_passive[0, 1] * m_passive[1, 0]
        normalized = abs(half_trace) / abs(cmath.sqrt(det))
        if c_passive <= 1e-9:
            phase = PhaseClass.UNBROKEN
        elif abs(normalized - 1.0) <= 1e-9:
            phase = PhaseClass.EXCEPTIONAL
        else:
            phase = PhaseClass.BROKEN
        assert phase is active.phase


def test_sliver_verdict_rests_on_the_exact_trace():
    # (n=5, gamma0=5): the double-precision half trace carries cancellation
    # noise of about exp(q tau) u ~ 4 and reads +3.75 (Broken), while the
    # exact value at this float omega is -0.8453... (80-digit reference)
    omega = mu0_sliver(5, 5.0)
    result = classify(DrivingSpec(5.0, 0.0, omega))
    assert result.phase is PhaseClass.UNBROKEN
    assert result.half_trace == pytest.approx(-0.8453354768051626, rel=1e-15)
    # the sweep kernel gives the same verdict for the same cell
    grid = sweep_grid(0.0, 1.0, (5.0, 6.0, 2), (omega, omega + 1.0, 2))
    assert grid.gamma_axis[0] == 5.0 and grid.omega_axis[0] == omega
    assert grid.phase_at(0, 0) is PhaseClass.UNBROKEN
    assert grid.trace_half[0, 0] == result.half_trace


def test_trace_noise_bounds_the_double_precision_error(monkeypatch):
    # near exceptional points and at small omega the error of the double
    # half trace grows far beyond exp(G) u; trace_noise must still bound it,
    # both for the kernel's own h, taken with no hand-over to precise, and
    # for the monodromy entries' half trace
    monkeypatch.setattr(floquet, "trace_noise", lambda *drive: math.inf)
    rng = np.random.default_rng(38)
    u = 2.0**-53
    checked = 0
    while checked < 600:
        mu = float(rng.uniform(-1.0, 1.0))
        omega = float(np.exp(rng.uniform(math.log(1e-3), math.log(50.0))))
        offset = float(np.exp(rng.uniform(math.log(1e-16), math.log(1e-1))))
        offset *= 1.0 if rng.uniform() < 0.5 else -1.0
        gamma0 = float(
            rng.choice(
                [1.0 + offset, (1.0 + offset) / max(abs(mu), 1e-3), rng.uniform(0, 10)]
            )
        )
        noise = trace_noise(1.0, gamma0, mu, omega)
        if noise > 1e200:
            continue
        m = monodromy(DrivingSpec(gamma0, mu, omega))
        entries = (m[0, 0] + m[1, 1]).real / 2.0
        kernel = floquet._evaluate(1.0, gamma0, mu, omega)
        exact = precise_half_trace(1.0, gamma0, mu, omega, noise / u)
        assert abs(kernel - exact) <= noise, (gamma0, mu, omega)
        assert abs(entries - exact) <= noise, (gamma0, mu, omega)
        checked += 1


def test_kernel_half_trace_matches_the_monodromy_entries():
    # the kernel reads h from the half steps' (c, s) pairs; the entries
    # route, which monodromy() takes, must agree within the noise bound,
    # so it stays a check on the kernel
    rng = np.random.default_rng(39)
    for spec in random_specs(rng, 400, omega_lo=1e-2, max_growth=600.0, near_ep=200):
        J, gamma0, mu, omega = spec.J, spec.gamma0, spec.mu, spec.omega
        m00, _, _, m11 = floquet._monodromy_entries(J, gamma0, mu, omega)
        noise = trace_noise(J, gamma0, mu, omega)
        assert abs(classify(spec).half_trace - 0.5 * (m00 + m11)) <= noise, spec


# s1 s2 overflows at these drives while the exact half trace is finite, near
# the top of double range; a kernel that keeps that overflow gives +-inf,
# three times here with the wrong sign
FINITE_PAST_S1_S2 = [
    (0.3924229484206359, 0.0, 0.0017366561848215986, 0.018191797512172748),
    (0.08258394349416484, 0.0, 0.00036649424036954125, 0.0011519697273297057),
    (0.003785809367856753, -1.0, 2.8676129855453685e-05, 0.001989187020721683),
    (0.009473005241672276, 0.0, 4.072080692070238e-05, 0.0026206377105733843),
    (0.014434226584213904, 1.0, 0.0001259165800488632, 0.0024583452660099144),
    (0.08019006102238194, 0.30951609828519966, 0.00046293518460160493, 0.0035417775990038264),
]


def _exact(mpmath, gamma0, mu, omega, J):
    """The exact half trace at 40 digits more than the growth exp(G) of its
    two terms cancels."""
    digits = 40 + int(growth_exponent(J, gamma0, mu, omega) / math.log(10.0))
    return exact_half_trace(mpmath, DrivingSpec(gamma0, mu, omega, J=J), digits)


def test_classify_matches_the_exact_half_trace_across_decades_of_J():
    # J log-uniform over six decades and G up to twice double range: a small
    # J makes s = sinh(q tau)/q large while each q tau stays below cosh's
    # overflow, so s1 s2 may overflow where h does not.  The reference is
    # precise.half_trace where trace_noise / u is finite, else mpmath, and an
    # infinite h must be the exact value rounded past 2^1024
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(31)
    u = 2.0**-53
    drives = list(FINITE_PAST_S1_S2)
    while len(drives) < 2000:
        J = float(log_uniform(rng, 1e-3, 1e3))
        gamma0 = J * float(log_uniform(rng, 1e-2, 1e2))
        omega = J * float(log_uniform(rng, 1e-2, 1e2))
        mu = float(rng.choice([0.0, 1.0, -1.0, rng.uniform(-1.0, 1.0)]))
        # a half step whose cosh overflows is refused by name, tested apart
        if max(growth_exponent(J, g, 0.0, omega) for g in (gamma0, mu * gamma0)) <= 700.0:
            drives.append((gamma0, mu, omega, J))
    for drive in drives:
        gamma0, mu, omega, J = drive
        h = classify(DrivingSpec(gamma0, mu, omega, J=J)).half_trace
        noise = trace_noise(J, gamma0, mu, omega)
        if math.isinf(h):
            exact = _exact(mpmath, gamma0, mu, omega, J)
            assert abs(exact) >= mpmath.mpf(2) ** 1024 and (exact > 0) == (h > 0), drive
        elif noise / u < math.inf:
            exact = precise_half_trace(J, gamma0, mu, omega, noise / u)
            assert abs(h - exact) <= noise, drive
            if abs(abs(exact) - 1.0 - DEFAULT_TOL) > noise:
                assert _phase_code(h) == _phase_code(exact), drive
        elif abs(h) > 2.0:  # G > 700; a finite h next to +-1 stays unresolved
            exact = _exact(mpmath, gamma0, mu, omega, J)
            assert abs(h - exact) <= 1e-9 * abs(exact), drive
    # around the first drive every grid cell takes the scalar kernel's value
    gamma0, mu, omega, J = FINITE_PAST_S1_S2[0]
    grid = sweep_grid(mu, J, (0.9999 * gamma0, gamma0, 5), (omega, 1.002 * omega, 41))
    for i, g in enumerate(grid.gamma_axis.tolist()):
        for j, w in enumerate(grid.omega_axis.tolist()):
            h = grid.trace_half[i, j]
            exact = _exact(mpmath, g, mu, w, J)
            assert h == classify(DrivingSpec(g, mu, w, J=J)).half_trace, (g, w)
            assert abs(h - exact) <= 1e-9 * abs(exact), (g, w)
