"""Exception types shared across the package."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed, e.g. a quantity that must be real
    came out with a large imaginary residue."""


class BracketError(ValueError):
    """A bisection bracket does not straddle the transition it brackets."""
