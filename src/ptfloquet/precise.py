"""Extended-precision half trace of the two-step drive.

Where the double-precision half trace h of the monodromy sits closer to
+-1 than its own rounding noise, its sign relative to the unit circle (and
so the phase) is decided by that noise.  This module re-evaluates h in
binary fixed point on Python ints: the float inputs are exact dyadic
rationals, the arithmetic runs in units of J, so its ratios are exact at
any scale, and one correctly rounded int division returns the double
nearest the exact h of those inputs.  Each half step's cos and sin (or
cosh and sinh) come from a short Taylor series at x / 2^m, doubled back.
"""

import functools
import math

# digits beyond what the float64 result and the error amplification need
_GUARD_DIGITS = 20


@functools.lru_cache(maxsize=64)
def _pi_blocks(blocks):
    """pi 2^(64 blocks) to a unit, by Machin's pi = 16 atan(1/5) - 4 atan(1/239)."""
    bits = 64 * blocks + 16

    def atan_inv(n):  # atan(1/n) 2^bits
        total = term = (1 << bits) // n
        k, sign = 1, 1
        while term:
            term //= n * n
            k, sign = k + 2, -sign
            total += sign * (term // k)
        return total

    return (16 * atan_inv(5) - 4 * atan_inv(239)) >> 16


def _pi(bits):
    """pi 2^bits to a unit, from the cached 64-bit block above it."""
    blocks = -(-bits // 64)
    return _pi_blocks(blocks) >> 64 * blocks - bits


def _cos_sin(x, bits, hyperbolic):
    """(cos x, sin x) for |x| <= pi/2, or (cosh x, sinh x) for x >= 0, times
    2^bits, from x 2^bits.  The Taylor series at t = x / 2^m, |t| < 2^-k,
    k = isqrt(bits), gives p = cos t - 1 (cosh t - 1) and sin t (sinh t).
    For cos, m steps of p <- 2 p (p + 2) double t without raising p's
    relative error, and sin^2 = -p (p + 2); cosh squares e^t m times, each
    squaring at most doubling the relative error.  The 2k more bits cover
    the relative error of p (and of e - 1/e) at t."""
    k = math.isqrt(bits)
    m = max(0, x.bit_length() - bits + k)
    w = bits + m + 2 * k + 8
    one = 1 << w
    t = x << w - bits - m
    a = t2 = (t * t >> w) * (1 if hyperbolic else -1)
    p, s, n = 0, one, 2
    while a:  # t^2j/(2j)! into p, t^2j/(2j+1)! into s
        a //= n
        p += a
        a //= n + 1
        s += a
        a = a * t2 >> w
        n += 2
    s = s * t >> w
    if m and hyperbolic:
        e = one + p + s
        for _ in range(m):
            e = e * e >> w
        inv = (1 << 2 * w) // e
        return e + inv >> w - bits + 1, e - inv >> w - bits + 1
    if m:
        for _ in range(m):
            p = (p << 2) + (p * p >> w - 1)
        s = math.isqrt(-p * (p + 2 * one)) * (1 if x > 0 else -1)
    return one + p >> w - bits, s >> w - bits


def _half_step(n, d, A, B, bits):
    """(c, s) 2^bits for the rate rr = n/d in units of J^2, J tau = pi A/B
    and x = sqrt(|rr|) J tau: (cos x, sin x) for rr > 0, (cosh x, sinh x)
    for rr < 0, and (1, J tau) for rr = 0, where sin(r tau)/r -> tau."""
    num, den = (abs(n) or 1) * A * A, (d if n else 1) * B * B
    extra = max(0, (num.bit_length() - den.bit_length()) // 2 + 4)  # x < 2^(extra-2)
    w = bits + extra
    pi = _pi(w)
    x = math.isqrt((num << 2 * w) // den) * pi >> w
    if n <= 0:
        return _cos_sin(x >> extra, bits, True) if n else (1 << bits, x >> extra)
    j = (x + (pi >> 1)) // pi  # x - j pi in [-pi/2, pi/2); cos, sin change sign with j
    c, s = _cos_sin(x - j * pi >> extra, bits, False)
    return (-c, -s) if j & 1 else (c, s)


def half_trace(J, gamma0, mu, omega, amplification) -> float:
    """Half trace cos(r2 tau) cos(r1 tau) - (J^2 - mu gamma0^2) s2 s1 of the
    monodromy (s_k = sin(r_k tau)/r_k), rounded once from the exact value
    for the given float inputs.

    amplification bounds the factor by which the evaluation magnifies the
    relative rounding of its arithmetic (floquet.trace_noise / u); the
    working precision, in bits, holds the 17 digits a double needs, its
    decimal digits and _GUARD_DIGITS more.  In units of J, g = gamma0/J,
    h = c2 c1 - F sin x2 sin x1, F = K / sqrt(|rr1 rr2|), K = 1 - mu g^2,
    rr1 = 1 - g^2 and rr2 = 1 - mu^2 g^2.
    """
    digits = 17 + _GUARD_DIGITS + math.ceil(math.log10(amplification))
    bits = math.ceil(digits * math.log2(10))
    (a, b), (c, d), (e, f), (o, q) = (
        v.as_integer_ratio() for v in (J, gamma0, mu, omega)
    )
    u, v = c * b, d * a  # g = u/v
    n1, d1 = v * v - u * u, v * v
    n2, d2 = (f * v) ** 2 - (e * u) ** 2, (f * v) ** 2
    k_num, k_den = f * v * v - e * u * u, f * v * v
    # F^2 as a ratio, a rate of 0 counting as 1 (its s is J tau)
    f_num = k_num * k_num * (d1 if n1 else 1) * (d2 if n2 else 1)
    f_den = k_den * k_den * (abs(n1) or 1) * (abs(n2) or 1)
    w = bits + max(0, (f_num.bit_length() - f_den.bit_length()) // 2 + 1)
    c1, s1 = _half_step(n1, d1, a * q, b * o, w)
    c2, s2 = _half_step(n2, d2, a * q, b * o, w)
    F = math.isqrt((f_num << 2 * w) // f_den) * (1 if k_num > 0 else -1)
    return (c2 * c1 - (F * s2 >> w) * s1) / (1 << 2 * w)
