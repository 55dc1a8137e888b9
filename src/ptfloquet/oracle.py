"""Brute-force time-ordered propagators.

These compose many short closed-form sub-steps instead of the two-factor
product, giving an independent reference for the production path.  They are
validation tools only and never feed the sweep engine.
"""

from itertools import repeat

import numpy as np

from .errors import ConsistencyError
from .model import DrivingSpec
from .pauli import expm_traceless


def stepped_propagator(spec: DrivingSpec, steps_per_half: int) -> np.ndarray:
    """Ordered product of 2*steps_per_half sub-interval propagators.

    Sub-intervals never straddle the switch at half period, so the drive is
    constant within each one and the product equals the monodromy up to
    accumulated rounding for any steps_per_half.

    Each sub-step exp(-i dt (-J sx + i gamma sz)) has a real diagonal and an
    imaginary off-diagonal, and so has every product of them; the loop
    carries the four real numbers of the product [[A, iB], [iC, D]].  Each
    sub-step multiplies from the left, so the columns (A, C) and (B, D)
    never mix and each is stepped as its own pair.  The sub-step's
    structure is checked exactly, not assumed.
    """
    if steps_per_half < 1:
        raise ValueError(f"steps_per_half must be >= 1, got {steps_per_half}")
    dt = spec.tau / steps_per_half
    A, B, C, D = 1.0, 0.0, 0.0, 1.0
    for gamma in (spec.gamma0, spec.mu * spec.gamma0):
        step = expm_traceless((-spec.J, 0.0, 1j * gamma), dt)
        m00, m01 = complex(step[0, 0]), complex(step[0, 1])
        m10, m11 = complex(step[1, 0]), complex(step[1, 1])
        if m00.imag or m11.imag or m01.real or m10.real:
            raise ConsistencyError(
                f"sub-step of gamma={gamma} is not [[real, imag], [imag, real]]: {step}"
            )
        a, b, c, d = m00.real, m01.imag, m10.imag, m11.real
        for _ in repeat(None, steps_per_half):
            A, C = a * A - b * C, c * A + d * C
            B, D = a * B + b * D, d * D - c * B
    return np.array([[A + 0j, complex(0.0, B)], [complex(0.0, C), D + 0j]])


def stepped_constant(r, t, steps: int) -> np.ndarray:
    """Ordered product of `steps` equal sub-step exponentials of one
    constant generator r . sigma over total time t."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    step = expm_traceless(r, t / steps)
    out = np.eye(2, dtype=complex)
    for _ in range(steps):
        out = step @ out
    return out
