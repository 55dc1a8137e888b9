"""One-period propagator, quasienergies and PT-phase classification.

The drive is piecewise constant, so the one-period propagator is a product
of two closed-form exponentials, each with a real diagonal and an imaginary
off-diagonal set by one real pair (c, s), and the half trace is real.
Everything here is a pure function of the drive parameters.
classify returns a FloquetResult that holds the drive, its half trace, c
and phase; its eigenvalues and quasienergy are computed when read.

_evaluate is the scalar kernel of classify and threshold scans, in math
alone: h = c1 c2 - (J^2 - mu gamma0^2) s1 s2.  Its row form, for one gamma0
row of a grid, is sweep._evaluate_row, which hands a NaN half trace, or one
within the rounding-noise bound of +-1, back to _evaluate.  _evaluate
replaces a half trace within that bound by the extended-precision value from
the precise module, so every verdict rests on a resolved trace.  A half
trace beyond double range is +-inf; a half step beyond it raises
ValueError.  numpy is imported only by the functions that return or take a
matrix (monodromy, quasienergy, ...), so classify runs without it.
"""

import cmath
import math
from dataclasses import dataclass

from . import precise
from .model import DrivingSpec, PhaseClass
from .pauli import SERIES_CUTOFF, eigenvalues2, quadratic_roots

# fixed width of the Exceptional band 1 < |h| <= 1 + DEFAULT_TOL
DEFAULT_TOL = 1e-9

# phase codes used by the sweep engine's compact grids
UNBROKEN_CODE, BROKEN_CODE, EXCEPTIONAL_CODE = 0, 1, 2
PHASE_BY_CODE = (PhaseClass.UNBROKEN, PhaseClass.BROKEN, PhaseClass.EXCEPTIONAL)

_ONE_MINUS_ULP = math.nextafter(1.0, 0.0)
_UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class FloquetResult:
    """Classification of one drive: the amplification rate c, the phase and
    the half trace they rest on, tr(monodromy(spec))/2 or, within its
    rounding noise of +-1, the extended-precision value.  The eigenvalues
    and the quasienergy are computed from it on each read."""

    spec: DrivingSpec
    half_trace: float
    c: float
    phase: PhaseClass

    @property
    def g_plus(self) -> complex:
        """(g_plus, g_minus), |g_plus| >= |g_minus|, are the roots of
        l^2 - 2 h l + 1; for |h| >= 2^27 they are 2h and 0.5/h, exactly as
        quadratic_roots gives them wherever h*h stays finite."""
        h = self.half_trace
        if abs(h) >= 2.0**27:
            return complex(2.0 * h)
        return quadratic_roots(complex(h), 1.0 + 0j)[0]

    @property
    def g_minus(self) -> complex:
        """The smaller eigenvalue; see g_plus."""
        h = self.half_trace
        if abs(h) >= 2.0**27:
            return 0.5 / complex(h)
        return quadratic_roots(complex(h), 1.0 + 0j)[1]

    @property
    def eps_f(self) -> complex:
        """Quasienergy with Re in [0, omega/2], folded by the drive's own
        omega, and Im >= 0; h = +-inf has Im eps_f = inf."""
        tau, omega = self.spec.tau, self.spec.omega
        return _quasienergy_from_half_trace(complex(self.half_trace), tau, omega)


def _half_step(J, gamma, tau):
    """The pair (c, s) of the half-period propagator
    exp(-i tau (-J sx + i gamma sz)) = [[c + gamma s, i J s], [i J s, c - gamma s]].

    c = cos(r tau) and s = sin(r tau)/r, with r = sqrt(J^2 - gamma^2), are
    real and even in r, so above the exceptional point, where r = i q,
    they are cosh(q tau) and sinh(q tau)/q.
    """
    rr = J * J - gamma * gamma
    k = math.sqrt(abs(rr))
    x = k * tau
    if rr >= 0.0:
        cos, sin, x2 = math.cos, math.sin, -x * x
    else:
        cos, sin, x2 = math.cosh, math.sinh, x * x
    if x < SERIES_CUTOFF:
        s = tau * (1.0 + x2 / 6.0 + x2 * x2 / 120.0)
    else:
        s = sin(x) / k
    return cos(x), s


def _monodromy_entries(J, gamma0, mu, omega):
    """Real numbers (m00, m01, m10, m11) of G(T) = [[m00, i m01], [i m10, m11]]
    = G_minus(tau) G_plus(tau), the gamma0 half first; for monodromy()."""
    tau = math.pi / omega
    (c1, s1), (c2, s2) = _half_step(J, gamma0, tau), _half_step(J, mu * gamma0, tau)
    a00, a01, a11 = c1 + gamma0 * s1, J * s1, c1 - gamma0 * s1
    b00, b01, b11 = c2 + mu * gamma0 * s2, J * s2, c2 - mu * gamma0 * s2
    return (
        b00 * a00 - b01 * a01,
        b00 * a01 + b01 * a11,
        b01 * a00 + b11 * a01,
        b11 * a11 - b01 * a01,
    )


def _amp_rate_from_half_trace(half_trace):
    """(|g+| - |g-|)/(|g+| + |g-|) for the eigenvalue pair of a unit-determinant
    matrix with the given real half trace h: exactly 0 for |h| <= 1, where both
    are unimodular; otherwise |g+| = B = |h| + sqrt(h^2 - 1) and |g-| = 1/B."""
    h = abs(half_trace)
    if h <= 1.0:
        return 0.0
    big = h + math.sqrt(h * h - 1.0)
    return _amp_rate(big, 1.0 / big)


def _amp_rate(mod_plus, mod_minus):
    """(|g+| - |g-|)/(|g+| + |g-|), kept inside [0, 1) against rounding
    and against underflow of the contracting eigenvalue."""
    if math.isinf(mod_plus):
        return _ONE_MINUS_ULP
    if mod_plus == 0.0:
        return 0.0  # doubly degenerate zero spectrum
    c = (mod_plus - mod_minus) / (mod_plus + mod_minus)
    if c < 0.0:
        return 0.0
    if c >= 1.0:
        return _ONE_MINUS_ULP
    return c


def _phase_code(half_trace):
    """Unbroken for |h| <= 1, where both eigenvalues are unimodular (band
    touchings included); Exceptional for 1 < |h| <= 1 + DEFAULT_TOL, with
    |h| - 1 exact there; Broken beyond."""
    h = abs(half_trace)
    if h <= 1.0:
        return UNBROKEN_CODE
    if h - 1.0 <= DEFAULT_TOL:
        return EXCEPTIONAL_CODE
    return BROKEN_CODE


def trace_noise(J, gamma0, mu, omega) -> float:
    """Bound on the rounding error of the double-precision half trace,
    16 u exp(G) P (1 + D), with u = 2^-53 and, over both half steps
    (gamma_k = gamma0, mu gamma0; rr_k = J^2 - gamma_k^2):

    - G = (q1 + q2) tau, q_k = sqrt(max(-rr_k, 0)), the growth exponent
      that sets the entry scale;
    - P = prod (1 + (|gamma_k| + J) tau), the polynomial part of the entry
      scale, which also bounds the phase rounding of cos(r_k tau);
    - D = sum (J^2 + gamma_k^2) min(tau^2, 1/|rr_k|), the amplification
      of the rounding of rr_k, largest next to an exceptional point.

    Measured against the exact half trace on 3 x 32 000 drives (two fifths
    within 1e-1 of an exceptional point, omega from 1e-3 to 50) the error
    stays below 0.17 of this bound (0.19 for the monodromy entries' half
    trace).  Infinite where exp(G) would overflow.
    """
    tau = math.pi / omega
    growth, poly, amp = 0.0, 1.0, 1.0
    for gamma in (gamma0, abs(mu) * gamma0):
        rr = abs(J * J - gamma * gamma)
        if gamma > J:
            growth += math.sqrt(rr) * tau
        poly *= 1.0 + (gamma + J) * tau
        amp += (J * J + gamma * gamma) * (
            1.0 / rr if rr * tau * tau > 1.0 else tau * tau
        )
    if growth > 700.0:
        return math.inf
    return 16.0 * _UNIT_ROUNDOFF * math.exp(growth) * poly * amp


def _evaluate(J, gamma0, mu, omega):
    """Scalar kernel of classify, threshold_scan and every grid cell that
    sweep._evaluate_row hands over: that row kernel's (h, c, code) per cell,
    by its arithmetic; the half trace, the amplification rate and the phase code
    (Unbroken for |h| <= 1, Exceptional up to 1 + DEFAULT_TOL, Broken beyond).

    h = c1 c2 - (J^2 - mu gamma0^2) s1 s2 from the half steps' (c, s): the
    trace identity, free of the entries' cancelling (1 +- J tau)^2.  A NaN h
    (inf - inf or 0 inf) is evaluated once more at c1 and s1 times 2^-e,
    exact, and scaled back.  c follows from h alone, as the determinant is
    structurally 1.  An h within trace_noise of +-1 is re-evaluated in
    extended precision, unless that bound overflows even in units of u.  A
    half step whose cosh or sinh overflows or whose phase r tau is infinite,
    or an h still NaN, raises ValueError.
    """
    tau = math.pi / omega
    try:
        (c1, s1), (c2, s2) = _half_step(J, gamma0, tau), _half_step(J, mu * gamma0, tau)
    except (OverflowError, ValueError):  # cosh or sinh overflows, or r tau is inf
        c1 = s1 = c2 = s2 = math.nan
    k = J * J - mu * gamma0 * gamma0
    half_trace = c1 * c2 - k * (s1 * s2)
    if math.isnan(half_trace):
        e = math.frexp(max(abs(c1), abs(s1)))[1]
        c1, s1 = math.ldexp(c1, -e), math.ldexp(s1, -e)
        # 2^e in two exact factors: ldexp raises where the result overflows
        half_trace = (c1 * c2 - k * (s1 * s2)) * 2.0 ** (e // 2) * 2.0 ** (e - e // 2)
    if math.isnan(half_trace):
        raise ValueError(
            f"a half step leaves double range at gamma0={gamma0!r}, "
            f"mu={mu!r}, omega={omega!r}, J={J!r}"
        )
    noise = trace_noise(J, gamma0, mu, omega)
    amplification = noise / _UNIT_ROUNDOFF
    if abs(abs(half_trace) - 1.0) <= noise and amplification < math.inf:
        half_trace = precise.half_trace(J, gamma0, mu, omega, amplification)
    c = _amp_rate_from_half_trace(half_trace)
    return half_trace, c, _phase_code(half_trace)


def monodromy(spec: DrivingSpec) -> "np.ndarray":
    """One-period propagator of the two-step drive (unit determinant)."""
    import numpy as np
    m00, m01, m10, m11 = _monodromy_entries(spec.J, spec.gamma0, spec.mu, spec.omega)
    return np.array([[m00, complex(0.0, m01)], [complex(0.0, m10), m11]])


def passive_monodromy(spec: DrivingSpec) -> "np.ndarray":
    """One-period propagator of the loss-only twin of the drive.

    Identity-shifting both half-step Hamiltonians by their loss offsets
    multiplies the active propagator by the overall decay factor
    exp(-(|mu| + 1) gamma0 T / 2); eigenvalue ratios, and hence the
    amplification rate, are unchanged.
    """
    return _passive_decay(spec) * monodromy(spec)


def _passive_decay(spec: DrivingSpec) -> float:
    """The decay factor exp(-(|mu| + 1) gamma0 T / 2) of passive_monodromy."""
    return math.exp(-(abs(spec.mu) + 1.0) * spec.gamma0 * spec.period / 2.0)


def quasienergy(m, tau) -> complex:
    """Floquet quasienergy eps_f with cos(2 eps_f tau) = tr(m)/2.

    m must have unit determinant (the two quasienergies are then +-eps_f
    modulo omega = pi/tau).  The returned representative has Im >= 0 (the
    amplified mode); for the real traces produced by this drive its real
    part lies in the half zone [0, omega/2].
    """
    import numpy as np
    m = np.asarray(m, dtype=complex)
    half_trace = complex(m[0, 0] + m[1, 1]) / 2.0
    return _quasienergy_from_half_trace(half_trace, tau, math.pi / tau)


def _quasienergy_from_half_trace(half_trace, tau, omega):
    if math.isinf(half_trace.real) and half_trace.imag == 0.0:
        # beyond double range: cos(2 eps tau) = +-inf has Re(2 eps tau) = 0 or pi
        return complex(0.0 if half_trace.real > 0.0 else omega / 2.0, math.inf)
    eps = cmath.acos(half_trace) / (2.0 * tau)
    if eps.imag < 0.0:
        eps = -eps
    re = eps.real - omega * math.floor(eps.real / omega)
    if re > omega / 2.0 and eps.imag == 0.0:
        # reflecting a strictly complex eps would flip its imaginary part,
        # so only purely real representatives are folded back
        re = omega - re
    return complex(re + 0.0, eps.imag + 0.0)  # + 0.0 normalizes -0.0


def amplification_rate(m) -> float:
    """Normalized eigenvalue-modulus asymmetry of an invertible matrix.

    Zero when both eigenvalues share one modulus (bounded dynamics) and
    invariant under rescaling m by any nonzero complex number.
    """
    return _amp_rate(*(abs(g) for g in eigenvalues2(m)))


def classify(spec: DrivingSpec) -> FloquetResult:
    """Half trace, amplification rate and phase of one drive; the
    result's g_plus, g_minus and eps_f are computed when read.

    The phase follows from the half trace h = tr/2 alone: Unbroken when
    |h| <= 1 (c == 0), Exceptional in the fixed band 1 < |h| <= 1 +
    DEFAULT_TOL next to the boundary, Broken beyond.
    """
    half_trace, c, code = _evaluate(spec.J, spec.gamma0, spec.mu, spec.omega)
    return FloquetResult(spec, half_trace, c, PHASE_BY_CODE[code])
