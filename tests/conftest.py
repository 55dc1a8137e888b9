"""Shared helpers: import path bootstrap and random drive samplers."""

import math
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from ptfloquet import DrivingSpec  # noqa: E402


def log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def growth_exponent(J, gamma0, mu, omega):
    """Upper bound on log of the monodromy entry magnitudes: (q1 + q2) tau
    with q_k the imaginary part of each half-step rate."""
    tau = math.pi / omega
    q1 = math.sqrt(max(gamma0 * gamma0 - J * J, 0.0))
    g2 = abs(mu) * gamma0
    q2 = math.sqrt(max(g2 * g2 - J * J, 0.0))
    return (q1 + q2) * tau


def random_specs(
    rng,
    count,
    gamma_lo=1e-4,
    gamma_hi=10.0,
    omega_lo=0.05,
    omega_hi=1e3,
    max_growth=600.0,
    near_ep=0,
):
    """Random drives: log-uniform gamma0 and omega, uniform mu in [-1, 1].

    Drives whose entries would overflow double precision (growth exponent
    above max_growth) are rejected and redrawn.  near_ep extra samples are
    placed within 1e-4 of an exceptional point of either half step.
    """
    specs = []
    while len(specs) < count:
        gamma0 = float(log_uniform(rng, gamma_lo, gamma_hi))
        mu = float(rng.uniform(-1.0, 1.0))
        omega = float(log_uniform(rng, omega_lo, omega_hi))
        if growth_exponent(1.0, gamma0, mu, omega) > max_growth:
            continue
        specs.append(DrivingSpec(gamma0=gamma0, mu=mu, omega=omega))
    while near_ep > 0:
        offset = float(log_uniform(rng, 1e-9, 1e-4))
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        mu = float(rng.uniform(-1.0, 1.0))
        if rng.uniform() < 0.5 or abs(mu) < 1e-3:
            gamma0 = 1.0 + sign * offset  # first half step near its EP
        else:
            gamma0 = (1.0 + sign * offset) / abs(mu)  # second half step
        omega = float(log_uniform(rng, omega_lo, omega_hi))
        if growth_exponent(1.0, gamma0, mu, omega) > max_growth:
            continue
        specs.append(DrivingSpec(gamma0=gamma0, mu=mu, omega=omega))
        near_ep -= 1
    return specs


def exact_half_trace(mpmath, spec, digits=150):
    """The half trace of spec's float inputs in mpmath, an mpf at the given
    digits."""
    with mpmath.workdps(digits):
        J, g0, mu, omega = (
            mpmath.mpf(v) for v in (spec.J, spec.gamma0, spec.mu, spec.omega)
        )
        tau = mpmath.pi / omega

        def half_step(gamma):
            r = mpmath.sqrt(mpmath.mpc(J * J - gamma * gamma))
            if r == 0:
                return mpmath.mpf(1), tau
            return mpmath.cos(r * tau), mpmath.sin(r * tau) / r

        c1, s1 = half_step(g0)
        c2, s2 = half_step(mu * g0)
        return +mpmath.re(c2 * c1 - (J * J - mu * g0 * g0) * s2 * s1)


def matrix_scale(m):
    return max(1.0, float(np.max(np.abs(m))))
