"""Static PT-dimer Hamiltonians and the two-step drive parameterization.

The dimer couples two sites with strength J; one site gains at rate gamma,
the other loses at the same rate.  The drive alternates that rate between
gamma0 and mu*gamma0 every half period pi/omega.
"""

import cmath
import enum
import math
from dataclasses import dataclass

from .pauli import PauliVector


class PhaseClass(enum.Enum):
    """Long-term dynamical phase of the driven dimer."""

    UNBROKEN = "Unbroken"
    BROKEN = "Broken"
    EXCEPTIONAL = "Exceptional"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class DrivingSpec:
    """Two-step drive: gain/loss rate gamma0 for the first half period,
    mu*gamma0 for the second, switching at angular frequency omega.

    mu in [-1, 1] spans the static case (mu = 1), half-Hermitian driving
    (mu = 0) and gain/loss reversal (mu = -1).
    """

    gamma0: float
    mu: float
    omega: float
    J: float = 1.0

    def __post_init__(self):
        for name in ("gamma0", "omega", "J"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.J > 0:
            raise ValueError(f"coupling J must be positive, got {self.J}")
        if not self.gamma0 >= 0:
            raise ValueError(f"gamma0 must be non-negative, got {self.gamma0}")
        if not -1.0 <= self.mu <= 1.0:
            raise ValueError(f"mu must lie in [-1, 1], got {self.mu}")
        if not self.omega > 0:
            raise ValueError(f"omega must be positive, got {self.omega}")

    @property
    def tau(self) -> float:
        """Half period."""
        return math.pi / self.omega

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega

    @property
    def gamma_plus(self) -> float:
        return self.gamma0

    @property
    def gamma_minus(self) -> float:
        return self.mu * self.gamma0

    @property
    def delta(self) -> float:
        """Fractional gain/loss deviation (1 - mu)/(1 + mu); infinite at mu = -1."""
        if self.mu == -1.0:
            return math.inf
        return (1.0 - self.mu) / (1.0 + self.mu)


def h_pt(J, gamma) -> PauliVector:
    """Balanced gain/loss Hamiltonian i*gamma*sz - J*sx as a PauliVector."""
    if not J > 0:
        raise ValueError(f"coupling J must be positive, got {J}")
    return PauliVector(0j, complex(-J), 0j, 1j * gamma)


def static_eigs(J, gamma):
    """Eigenvalue pair (E_plus, E_minus) = (+sqrt(J^2 - gamma^2), -same).

    Principal square root: E_plus is real non-negative below the exceptional
    point gamma = J and +i*sqrt(gamma^2 - J^2) above it.
    """
    e = cmath.sqrt(complex(J * J - gamma * gamma))
    return (e, -e)


def eigenstate_overlap(J, gamma) -> float:
    """Dirac overlap |<+|->| = min(gamma/J, J/gamma) of the two eigenstates.

    Grows from 0 toward 1 at the exceptional point gamma = J, then falls
    again; gamma = 0 is rejected to keep the formula's domain explicit.
    """
    if not J > 0:
        raise ValueError(f"coupling J must be positive, got {J}")
    if not gamma > 0:
        raise ValueError(f"overlap formula needs gamma > 0, got {gamma}")
    return min(gamma / J, J / gamma)


def driving_from_delta(gamma_bar, delta):
    """Map (mean rate, fractional deviation) to (gamma_plus, gamma_minus, mu).

    gamma_pm = gamma_bar*(1 +- delta) and mu = (1 - delta)/(1 + delta), the
    inverse of the mu parameterization for gamma_bar > 0, delta >= 0.
    """
    gamma_plus = gamma_bar * (1.0 + delta)
    gamma_minus = gamma_bar * (1.0 - delta)
    mu = (1.0 - delta) / (1.0 + delta)
    return (gamma_plus, gamma_minus, mu)


def passive_shift(h: PauliVector, gamma_shift) -> PauliVector:
    """Loss-only version of h: subtract i*gamma_shift from the identity part.

    Shifts every eigenvalue by exactly -i*gamma_shift and leaves the
    eigenvectors untouched.
    """
    return PauliVector(h.a0 - 1j * gamma_shift, h.a1, h.a2, h.a3)
