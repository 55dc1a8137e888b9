"""One-period propagator, quasienergies and PT-phase classification.

The drive is piecewise constant, so the one-period propagator is a product
of two closed-form exponentials, each with a real diagonal and an imaginary
off-diagonal; the kernel carries their real numbers, and the half trace is
real.  Everything here is a pure function of the drive parameters.

The kernel comes in two forms: _evaluate for one drive (classify, threshold
scans) and _evaluate_row for one gamma0 row of a grid (the sweep engine).
The row form does the common case with the same arithmetic (numpy for the
correctly rounded operations, math for every transcendental, element by
element) and hands every cell it cannot settle to _evaluate, so the two
agree bit for bit (test_sweep_matches_pointwise_classify pins this).
_evaluate replaces a half trace within its rounding-noise bound of +-1 by
the extended-precision value from the precise module, so every verdict
rests on a resolved trace.  A half trace beyond double range is +-inf;
monodromy entries beyond it raise ValueError.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

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
    """Classification of one drive: the eigenvalue pair of its monodromy
    (|g_plus| >= |g_minus|, product 1), the quasienergy representative with
    Re in [0, omega/2] and Im >= 0, the amplification rate c and the phase.

    half_trace is the trace half the verdict rests on.  It equals
    tr(monodromy(spec))/2 unless that value lay within its rounding noise of
    +-1, where it is the extended-precision value instead.
    """

    g_plus: complex
    g_minus: complex
    eps_f: complex
    c: float
    phase: PhaseClass
    half_trace: float


def _half_step(J, gamma, tau):
    """Real numbers (m00, m01, m11) of the half-period propagator
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
    c = cos(x)
    return c + gamma * s, J * s, c - gamma * s


def _monodromy_entries(J, gamma0, mu, omega):
    """Real numbers (m00, m01, m10, m11) of G(T) = [[m00, i m01], [i m10, m11]]
    = G_minus(tau) G_plus(tau); the gamma0 half acts first."""
    tau = math.pi / omega
    a00, a01, a11 = _half_step(J, gamma0, tau)
    b00, b01, b11 = _half_step(J, mu * gamma0, tau)
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

    Measured against the exact half trace on 32 000 drives (two fifths of
    them within 1e-1 of an exceptional point, omega from 1e-3 to 50) the
    error stays below 0.14 of this bound.  Infinite where exp(G) would
    overflow.
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
    _evaluate_row hands over: _evaluate_row's (h, c, code) per cell, by its
    arithmetic; the half trace, the amplification rate and the phase code
    (Unbroken for |h| <= 1, Exceptional up to 1 + DEFAULT_TOL, Broken beyond).

    c follows from h alone, because the determinant is structurally 1
    (exact for this product of unit-determinant factors); the entries'
    own cancellation noise, which grows like the squared entry scale and
    would scramble strongly amplifying cells, never enters.  A half trace
    within trace_noise of +-1 is re-evaluated in extended precision first;
    where that bound overflows, even in units of u, the double-precision
    value stands.  Entries beyond double range raise ValueError.
    """
    try:
        m00, _, _, m11 = _monodromy_entries(J, gamma0, mu, omega)
        half_trace = 0.5 * (m00 + m11)
    except OverflowError:  # from math.sinh or math.cosh
        half_trace = math.nan
    if math.isnan(half_trace):
        raise ValueError(
            f"monodromy entries exceed double range at gamma0={gamma0!r}, "
            f"mu={mu!r}, omega={omega!r}, J={J!r}"
        )
    noise = trace_noise(J, gamma0, mu, omega)
    amplification = noise / _UNIT_ROUNDOFF
    if abs(abs(half_trace) - 1.0) <= noise and amplification < math.inf:
        half_trace = precise.half_trace(J, gamma0, mu, omega, amplification)
    c = _amp_rate_from_half_trace(half_trace)
    return half_trace, c, _phase_code(half_trace)


def _math_map(fn, x):
    """fn from math, element by element: numpy's own transcendentals round
    differently from math's on some arguments."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _half_step_row(J, gamma, tau):
    """_half_step over an array of tau, direct form only: NaN where x = k tau
    lies below SERIES_CUTOFF, as the series form is _evaluate's."""
    rr = J * J - gamma * gamma
    k = math.sqrt(abs(rr))
    x = k * tau
    if rr >= 0.0:
        cos, sin = math.cos, math.sin
    else:
        cos, sin = math.cosh, math.sinh
    s = _math_map(sin, x) / k
    s[x < SERIES_CUTOFF] = math.nan
    c = _math_map(cos, x)
    return c + gamma * s, J * s, c - gamma * s


def _trace_noise_row(J, gamma0, mu, tau):
    """trace_noise over an array of tau, rounded up by 1 + 2^-40 past the
    few-ulp difference of numpy's exp from math.exp; it only picks the cells
    to hand to _evaluate, so it may lie above trace_noise but never below."""
    growth, poly, amp = np.zeros_like(tau), 1.0, 1.0
    for gamma in (gamma0, abs(mu) * gamma0):
        rr = abs(J * J - gamma * gamma)
        if gamma > J:
            growth += math.sqrt(rr) * tau
        poly *= 1.0 + (gamma + J) * tau
        inv_rr = 1.0 / rr if rr else 0.0  # never chosen at rr == 0
        amp += (J * J + gamma * gamma) * np.where(
            rr * tau * tau > 1.0, inv_rr, tau * tau
        )
    return 16.0 * _UNIT_ROUNDOFF * (1.0 + 2.0**-40) * np.exp(growth) * poly * amp


def _evaluate_row(J, gamma0, mu, omega_axis):
    """_evaluate for one gamma0 over a float64 array of omega, as arrays
    (half_trace, c, code).  The row settles the common cells and overwrites
    every other with _evaluate's result, so each cell is bit-identical to
    _evaluate's: a series half step, a half trace NaN or within the row's
    noise bound of +-1, and each cell of a row whose half step overflows."""
    tau = math.pi / omega_axis
    with np.errstate(all="ignore"):  # overflow to inf is expected, as in floats
        try:
            a00, a01, a11 = _half_step_row(J, gamma0, tau)
            b00, b01, b11 = _half_step_row(J, mu * gamma0, tau)
            half_trace = 0.5 * ((b00 * a00 - b01 * a01) + (b11 * a11 - b01 * a01))
        except OverflowError:  # from math.sinh or math.cosh
            half_trace = np.full_like(tau, math.nan)
        noise = _trace_noise_row(J, gamma0, mu, tau)
        hard = ~(np.abs(np.abs(half_trace) - 1.0) > noise)  # NaN is hard too
        h = np.abs(half_trace)
        big = h + np.sqrt(h * h - 1.0)
        # fmin drops the NaN of inf/inf where big overflows
        c = np.where(
            h <= 1.0, 0.0, np.fmin((big - 1.0 / big) / (big + 1.0 / big), _ONE_MINUS_ULP)
        )
    code = np.where(h - 1.0 <= DEFAULT_TOL, EXCEPTIONAL_CODE, BROKEN_CODE)
    code[h <= 1.0] = UNBROKEN_CODE
    for j in np.flatnonzero(hard).tolist():
        half_trace[j], c[j], code[j] = _evaluate(J, gamma0, mu, float(omega_axis[j]))
    return half_trace, c, code


def monodromy(spec: DrivingSpec) -> np.ndarray:
    """One-period propagator of the two-step drive (unit determinant)."""
    m00, m01, m10, m11 = _monodromy_entries(spec.J, spec.gamma0, spec.mu, spec.omega)
    return np.array([[m00, complex(0.0, m01)], [complex(0.0, m10), m11]])


def passive_monodromy(spec: DrivingSpec) -> np.ndarray:
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
    """Eigenvalues, quasienergy, amplification rate and phase of one drive.

    The phase follows from the half trace h = tr/2 alone: Unbroken when
    |h| <= 1 (c == 0), Exceptional in the fixed band 1 < |h| <= 1 +
    DEFAULT_TOL next to the boundary, Broken beyond.  For |h| >= 2^27 the
    roots are g_plus = 2h and g_minus = 0.5/h, exactly as quadratic_roots
    gives them wherever h*h stays finite; h = +-inf has Im eps_f = inf.
    """
    half_trace, c, code = _evaluate(spec.J, spec.gamma0, spec.mu, spec.omega)
    if abs(half_trace) >= 2.0**27:
        g_plus, g_minus = complex(2.0 * half_trace), 0.5 / complex(half_trace)
    else:
        g_plus, g_minus = quadratic_roots(complex(half_trace), 1.0 + 0j)
    return FloquetResult(
        g_plus=g_plus,
        g_minus=g_minus,
        eps_f=_quasienergy_from_half_trace(complex(half_trace), spec.tau, spec.omega),
        c=c,
        phase=PHASE_BY_CODE[code],
        half_trace=half_trace,
    )
