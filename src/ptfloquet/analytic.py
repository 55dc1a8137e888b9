"""Closed-form trace identity, effective-field components and the analytic
phase-boundary families of the two-step drive.

Everything is expressed through the two half-step rates
r1 = sqrt(J^2 - gamma0^2) and r2 = sqrt(J^2 - (mu*gamma0)^2).  All formulas
are even in r1 and r2, so the square-root branch never matters; products
sin(r tau)/r are evaluated in paired form to stay finite when either rate
vanishes (gamma0 = J or |mu| gamma0 = J).  A value beyond double range is
+-inf; a half step beyond it raises a ValueError that names the drive.
"""

import cmath
import math
from dataclasses import dataclass

from .errors import ConsistencyError
from .model import DrivingSpec
from .pauli import sin_over_r

_IMAG_RESIDUE_BOUND = 1e-10
_RANGE_ERROR = "a half step leaves double range at gamma0={!r}, mu={!r}, omega={!r}, J={!r}"


@dataclass(frozen=True)
class FieldComponents:
    """Real components (ax, ay, az) of the effective-field part of the
    one-period propagator, plus the trace half cos(2 eps_f tau).

    The propagator reconstructs as cos2eps*1 + i*ax*sx - ay*sy + az*sz
    (signs verified against the direct two-factor product), and unit
    determinant forces cos2eps^2 + ax^2 - ay^2 - az^2 = 1.
    """

    ax: float
    ay: float
    az: float
    cos2eps: float


@dataclass(frozen=True)
class BoundaryCurve:
    """Sampled analytic boundary family in the (gamma0, omega) plane."""

    family: str
    n: int | None
    J: float
    points: tuple


def _values(values_of, gamma0, mu, omega, J, hermitian=False):
    """values_of(c1, s1, c2, s2, J, gamma0, mu), real values each linear in
    (c1, s1), from the half steps' complex pairs (cos(r tau), sin(r tau)/r)
    at tau = pi/omega and the principal r = sqrt(J^2 - gamma^2), for gamma =
    gamma0 and then mu gamma0; hermitian takes the second as the real pair
    (cos(J tau), sin(J tau)) of mu = 0.  Each NaN value, as from inf - inf
    beyond double range, is taken once more at c1 and s1 times 2^-e, exact,
    and scaled back, so that it comes out +-inf.  A half step that leaves
    double range, or a value still NaN, raises a ValueError naming the drive.
    """
    tau = math.pi / omega
    try:  # each half step inline: a call per half step costs cos_2eps_tau 1.1x
        r = cmath.sqrt(complex(J * J - gamma0 * gamma0))
        c1, s1 = cmath.cos(r * tau), sin_over_r(r, tau)
        if hermitian:
            c2, s2 = math.cos(J * tau), math.sin(J * tau)
        else:
            gamma = mu * gamma0
            r = cmath.sqrt(complex(J * J - gamma * gamma))
            c2, s2 = cmath.cos(r * tau), sin_over_r(r, tau)
    except (OverflowError, ValueError):  # cosh or sinh overflows, or r tau is inf
        raise ValueError(_RANGE_ERROR.format(gamma0, mu, omega, J)) from None
    values = values_of(c1, s1, c2, s2, J, gamma0, mu)
    if any(map(math.isnan, values)):
        e = math.frexp(max(abs(c1.real), abs(c1.imag), abs(s1.real), abs(s1.imag)))[1]
        c1, s1 = (complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)) for z in (c1, s1))
        values = [
            # 2^e in two exact factors, so that an overflow gives +-inf
            w * 2.0 ** (e // 2) * 2.0 ** (e - e // 2) if math.isnan(v) else v
            for v, w in zip(values, values_of(c1, s1, c2, s2, J, gamma0, mu))
        ]
        if any(map(math.isnan, values)):
            raise ValueError(_RANGE_ERROR.format(gamma0, mu, omega, J))
    return values


def _real_part(value, where):
    re = value.real
    if abs(value.imag) > _IMAG_RESIDUE_BOUND * max(1.0, abs(re)):
        raise ConsistencyError(
            f"{where}: imaginary residue {value.imag:.3e} on a real quantity"
        )
    return re


def cos_2eps_tau(spec: DrivingSpec) -> float:
    """Trace half of the one-period propagator,
    cos(r2 tau) cos(r1 tau) - (J^2 - mu gamma0^2) [sin(r2 tau)/r2][sin(r1 tau)/r1].

    Real for every drive; values outside [-1, 1] mean broken PT symmetry.
    """
    return _values(_trace_identity, spec.gamma0, spec.mu, spec.omega, spec.J)[0]


def _trace_identity(c1, s1, c2, s2, J, g0, mu):
    return (_real_part(c2 * c1 - (J * J - mu * g0 * g0) * s2 * s1, "cos_2eps_tau"),)


def cos_2eps_tau_mu0(gamma0, omega, J=1.0) -> float:
    """Half-Hermitian specialization (mu = 0, so r2 = J):
    cos(r1 tau) cos(J tau) - (J/r1) sin(r1 tau) sin(J tau)."""
    return _values(_mu0_identity, gamma0, 0.0, omega, J, hermitian=True)[0]


def _mu0_identity(c1, s1, c2, s2, J, g0, mu):
    return (_real_part(c1 * c2 - J * s1 * s2, "cos_2eps_tau_mu0"),)


def field_components(spec: DrivingSpec) -> FieldComponents:
    """Effective-field components of the one-period propagator.

    ay vanishes for the static drive (mu = 1) and az vanishes for exact
    gain/loss reversal (mu = -1).
    """
    ax, ay, az = _values(_field, spec.gamma0, spec.mu, spec.omega, spec.J)
    return FieldComponents(ax=ax, ay=ay, az=az, cos2eps=cos_2eps_tau(spec))


def _field(c1, s1, c2, s2, J, g0, mu):
    return (
        _real_part(J * (c2 * s1 + s2 * c1), "field ax"),
        _real_part((mu - 1.0) * J * g0 * s1 * s2, "field ay"),
        _real_part(g0 * (c2 * s1 + mu * s2 * c1), "field az"),
    )


def high_freq_threshold(mu, J) -> float:
    """Fast-drive breaking threshold 2 J / |1 + mu|.

    The drive averages to a static dimer with rate (1 + mu) gamma0 / 2, so
    the threshold diverges for exact gain/loss reversal (mu = -1).
    """
    if not J > 0:
        raise ValueError(f"coupling J must be positive, got {J}")
    if mu == -1.0:
        return math.inf
    return 2.0 * J / abs(1.0 + mu)


def unbroken_ellipse(n, J=1.0, samples=64) -> BoundaryCurve:
    """Quarter ellipse gamma0^2 + n^2 omega^2 = J^2 (gamma0 in [0, J)).

    Along it r1 tau = n pi, both half-step propagators reduce to +-1 and
    the drive is PT-symmetric for mu = -1.
    """
    if n < 1:
        raise ValueError(f"ellipse index n must be >= 1, got {n}")
    return _ellipse_curve("unbroken-ellipse", n, float(n), J, samples)


def broken_ellipse(n, J=1.0, samples=64) -> BoundaryCurve:
    """Half-integer ellipse gamma0^2 + (n + 1/2)^2 omega^2 = J^2.

    Along it r1 tau = (n + 1/2) pi and the mu = -1 drive is PT-broken for
    every gamma0 in (0, J); n = 0 ends at the primary resonance omega = 2J.
    """
    if n < 0:
        raise ValueError(f"ellipse index n must be >= 0, got {n}")
    return _ellipse_curve("broken-ellipse", n, n + 0.5, J, samples)


def _ellipse_curve(family, n, scale, J, samples):
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    # in units of J, whose square under- or overflows far inside double range
    points = []
    for k in range(samples):
        t = k / samples
        points.append((J * t, J * math.sqrt(1.0 - t * t) / scale))
    return BoundaryCurve(family=family, n=n, J=J, points=tuple(points))


def mu_minus1_unbroken(spec: DrivingSpec) -> bool:
    """PT-symmetry criterion |sin(r1 tau)| <= |r1|/J for gain/loss reversal.

    Evaluated as |sin(r1 tau)/r1| <= 1/J so the gamma0 = J limit (r1 = 0)
    is handled; above the static threshold the left side is sinh(q tau)/q.
    """
    if spec.mu != -1.0:
        raise ValueError(f"criterion applies only to mu = -1, got mu = {spec.mu}")
    # at mu = -1 the second half step equals the first
    return _values(_unbroken, spec.gamma0, spec.mu, spec.omega, spec.J)[0]


def _unbroken(c1, s1, c2, s2, J, g0, mu):
    return (abs(s1) <= 1.0 / J,)


def asymptotic_boundary(gamma, J=1.0) -> float:
    """Large-(gamma, omega) phase boundary omega = pi gamma / asinh(gamma/J)
    of the gain/loss-reversing drive; valid for gamma > J.  Where gamma / J
    overflows, asinh(gamma / J) = log(2 gamma / J) to double precision;
    where pi gamma overflows, gamma is divided first."""
    ratio = gamma / J
    if ratio < math.inf:
        asinh = math.asinh(ratio)
    else:
        asinh = math.log(2.0) + math.log(gamma) - math.log(J)
    scaled = math.pi * gamma
    if scaled < math.inf:
        return scaled / asinh
    return math.pi * (gamma / asinh)


def asymptotic_boundary_log(gamma, J=1.0) -> float:
    """Logarithmic approximation pi gamma / log(2 gamma / J) of the same
    boundary, provided as a documented cross-check only."""
    return math.pi * gamma / math.log(2.0 * gamma / J)


def mu0_sliver(n, gamma0, J=1.0) -> float:
    """Center frequency of the PT-symmetric sliver of the half-Hermitian
    drive above the static threshold, in closed form.

    The centre solves tan(J tau) = q/J > 0 on the branch
    J tau in ((n-1) pi/2, (n+1) pi/2), odd n, so
    J tau = atan2(q, J) + (n-1)/2 pi and omega = pi/tau; for gamma0 >> J
    the frequency approaches 2J/n.  q = sqrt((gamma0 - J)(gamma0 + J))
    avoids the cancellation of gamma0^2 - J^2 next to gamma0 = J.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"sliver index must be an odd positive integer, got {n}")
    if not gamma0 > J:
        raise ValueError(f"slivers need gamma0 > J, got gamma0 = {gamma0}")
    q = math.sqrt((gamma0 - J) * (gamma0 + J))
    return math.pi * J / (math.atan2(q, J) + (n - 1) // 2 * math.pi)
