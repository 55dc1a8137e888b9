"""Extended-precision half trace of the two-step drive.

Where the double-precision half trace h of the monodromy sits closer to
+-1 than its own rounding noise, its sign relative to the unit circle (and
so the phase) is decided by that noise.  This module re-evaluates h with
the standard-library decimal module, treating the float inputs as exact
and computing tau = pi/omega at the working precision, so the returned
double is the rounding of the exact h of those inputs.

The working precision holds the 17 digits a double needs, the decimal
digits of the error amplification and _GUARD_DIGITS more.  The cos and sin
(or cosh and sinh) of each half step come from a short Taylor series at
x / 2^m, doubled back m times; a doubling at most doubles the error it
inherits, so the doublings run with ceil(m log10 2) + 1 more digits.
"""

import decimal
import functools
import math
from decimal import Decimal

# digits beyond what the float64 result and the error amplification need
_GUARD_DIGITS = 20


@functools.lru_cache(maxsize=16)
def _pi(digits):
    """pi to the given number of significant digits (the series from the
    decimal module documentation)."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 2
        three = Decimal(3)
        lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        return +s


def _taylor_cos_sin(t, hyperbolic):
    """(cos t, sin t), or (cosh t, sinh t), by their Taylor series for
    |t| <= 1, summed until an even term's exponent lies below the precision
    (cos t, cosh t > 1/2; the odd terms fall faster relative to their sum)."""
    t2 = t * t if hyperbolic else -t * t
    even = term_even = Decimal(1)
    odd = term_odd = t
    limit = -decimal.getcontext().prec - 1
    k = 1
    while term_even and term_even.adjusted() >= limit:  # a zero's exponent is no size
        term_even = term_even * t2 / ((2 * k - 1) * (2 * k))
        term_odd = term_odd * t2 / ((2 * k) * (2 * k + 1))
        even += term_even
        odd += term_odd
        k += 1
    return even, odd


def _cos_sin(x, hyperbolic):
    """(cos x, sin x) for |x| <= pi, or (cosh x, sinh x) for x >= 0, from
    the series at t = x / 2^m, |t| < 2^-k, k = isqrt(digits), and m steps of
    sin 2t = 2 sin t cos t, cos 2t = 1 - 2 sin^2 t, or, at x >= 1, the power
    e^x = (cosh t + sinh t)^(2^m), whose squarings cost less (k tripled)."""
    if not x:
        return Decimal(1), x
    k = math.isqrt(decimal.getcontext().prec) * (3 if hyperbolic else 1)
    m = max(0, math.frexp(float(x))[1] + k)
    if m == 0 or hyperbolic and x < 1:  # no halving due, or e - 1/e would cancel
        return _taylor_cos_sin(x, hyperbolic)
    with decimal.localcontext() as ctx:
        ctx.prec += math.ceil(m * math.log10(2)) + 1
        c, s = _taylor_cos_sin(x / (1 << m), hyperbolic)
        if hyperbolic:
            e = (c + s) ** (1 << m)
            return (e + 1 / e) / 2, (e - 1 / e) / 2
        for _ in range(m):
            s2 = s + s
            c, s = 1 - s2 * s, s2 * c
    return c, s


def _half_step(J, gamma, tau, pi):
    """(cos(r tau), sin(r tau)/r) with r = sqrt(J^2 - gamma^2); both are
    real and even in r, so an imaginary r gives (cosh(q tau), sinh(q tau)/q)."""
    rr = J * J - gamma * gamma
    if rr == 0:
        return Decimal(1), tau
    if rr > 0:
        r = rr.sqrt() if gamma else J  # the exact root, where rr is J^2
        x = r * tau
        two_pi = 2 * pi
        x -= two_pi * (x / two_pi).to_integral_value()
        c, s = _cos_sin(x, hyperbolic=False)
        return c, s / r
    q = (-rr).sqrt()
    c, s = _cos_sin(q * tau, hyperbolic=True)
    return c, s / q


def half_trace(J, gamma0, mu, omega, amplification) -> float:
    """Half trace cos(r2 tau) cos(r1 tau) - (J^2 - mu gamma0^2) s2 s1 of the
    monodromy (s_k = sin(r_k tau)/r_k), rounded once from the exact value
    for the given float inputs.

    amplification bounds the factor by which the evaluation magnifies the
    relative rounding of its arithmetic (floquet.trace_noise / u); the
    working precision adds its decimal digits to the 17 a double needs.
    """
    digits = 17 + _GUARD_DIGITS + math.ceil(math.log10(amplification))
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        pi = _pi(50 * (digits // 50 + 1))  # few distinct precisions to cache
        J, gamma0, mu, omega = (Decimal(v) for v in (J, gamma0, mu, omega))
        tau = pi / omega
        gamma1, gamma2 = gamma0, mu * gamma0
        c1, s1 = _half_step(J, gamma1, tau, pi)
        c2, s2 = _half_step(J, gamma2, tau, pi)
        h = c2 * c1 - (J * J - gamma1 * gamma2) * s2 * s1
    return float(h)
