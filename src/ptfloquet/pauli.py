"""Closed-form algebra for 2x2 complex matrices in the Pauli basis.

Every matrix is a combination a0*1 + a1*sx + a2*sy + a3*sz with complex
coefficients; traceless generators exponentiate in closed form, which is
what makes the whole two-step drive solvable without any ODE integrator.
numpy is imported only by the functions that make or read a dense matrix.
"""

import cmath
from dataclasses import dataclass


def __getattr__(name):
    """SIGMA_X, SIGMA_Y, SIGMA_Z and IDENTITY, made on first use."""
    if name not in ("SIGMA_X", "SIGMA_Y", "SIGMA_Z", "IDENTITY"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy as np
    globals().update(
        SIGMA_X=np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        SIGMA_Y=np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
        SIGMA_Z=np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
        IDENTITY=np.eye(2, dtype=complex),
    )
    return globals()[name]


# below this |r*t| the direct sin(r*t)/r loses digits to cancellation
SERIES_CUTOFF = 1e-4


@dataclass(frozen=True)
class PauliVector:
    """Coefficients (a0, a1, a2, a3) of a 2x2 matrix on {1, sx, sy, sz}."""

    a0: complex
    a1: complex
    a2: complex
    a3: complex

    @classmethod
    def from_field(cls, r) -> "PauliVector":
        """Traceless vector r . sigma from a 3-component field; a0 is 0 exactly."""
        return cls(0j, complex(r[0]), complex(r[1]), complex(r[2]))

    @classmethod
    def from_matrix(cls, m) -> "PauliVector":
        return cls(*decompose(m))

    def matrix(self) -> "np.ndarray":
        return compose(self.a0, self.a1, self.a2, self.a3)

    def coefficients(self):
        return (self.a0, self.a1, self.a2, self.a3)


def compose(a0, a1, a2, a3) -> "np.ndarray":
    """Dense matrix a0*1 + a1*sx + a2*sy + a3*sz."""
    import numpy as np
    return np.array(
        [[a0 + a3, a1 - 1j * a2], [a1 + 1j * a2, a0 - a3]], dtype=complex
    )


def decompose(m):
    """Inverse of compose: coefficients (a0, a1, a2, a3) of a dense matrix."""
    import numpy as np
    m = np.asarray(m, dtype=complex)
    a0 = (m[0, 0] + m[1, 1]) / 2.0
    a1 = (m[0, 1] + m[1, 0]) / 2.0
    a2 = 1j * (m[0, 1] - m[1, 0]) / 2.0
    a3 = (m[0, 0] - m[1, 1]) / 2.0
    return (complex(a0), complex(a1), complex(a2), complex(a3))


def sin_over_r(r, t):
    """sin(r*t)/r, with the r -> 0 limit t*(1 - (rt)^2/6 + (rt)^4/120).

    Even in r, so the result does not depend on which square root of r^2
    was taken.
    """
    x = r * t
    if abs(x) < SERIES_CUTOFF:
        x2 = x * x
        return t * (1.0 - x2 / 6.0 + x2 * x2 / 120.0)
    return cmath.sin(x) / r


def expm_traceless(r, t) -> "np.ndarray":
    """exp(-i t (r . sigma)) for a complex 3-vector r.

    Uses cos(|r| t) 1 - i (sin(|r| t)/|r|) (r . sigma) with |r| the principal
    square root of r . r (unconjugated).  cos is even and sin(|r|t)/|r| is
    even in |r|, so the branch of the square root is irrelevant; the result
    has unit determinant.
    """
    r1, r2, r3 = complex(r[0]), complex(r[1]), complex(r[2])
    rn = cmath.sqrt(r1 * r1 + r2 * r2 + r3 * r3)
    c = cmath.cos(rn * t)
    s = sin_over_r(rn, t)
    return compose(c, -1j * s * r1, -1j * s * r2, -1j * s * r3)


def eigenvalues2(m):
    """Eigenvalues of a 2x2 matrix as roots of l^2 - tr(m) l + det(m).

    Ordered so |g_plus| >= |g_minus|; exact modulus ties broken by larger
    real part, then larger imaginary part.
    """
    import numpy as np
    m = np.asarray(m, dtype=complex)
    half_trace = (m[0, 0] + m[1, 1]) / 2.0
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return quadratic_roots(complex(half_trace), complex(det))


def quadratic_roots(half_trace, det):
    """Roots of l^2 - 2*half_trace*l + det, largest modulus first.

    The dominant root uses the cancellation-free sign of the discriminant;
    the other comes from det/dominant, which stays accurate when the two
    moduli differ by many orders of magnitude.
    """
    s = cmath.sqrt(half_trace * half_trace - det)
    if abs(half_trace + s) >= abs(half_trace - s):
        big = half_trace + s
    else:
        big = half_trace - s
    if big == 0:
        return (0j, 0j)
    return _order_pair(big, det / big)


def _order_pair(x, y):
    ax, ay = abs(x), abs(y)
    # moduli equal up to a few ulps count as tied, so that e.g. a pure
    # +-i e pair orders by sign instead of by rounding noise
    if abs(ax - ay) > 8e-16 * max(ax, ay):
        return (x, y) if ax > ay else (y, x)
    if x.real != y.real:
        return (x, y) if x.real > y.real else (y, x)
    return (x, y) if x.imag >= y.imag else (y, x)
