"""PT-symmetry phase diagrams of a two-site dimer under two-step periodic
gain/loss modulation.

The package cross-validates the closed-form trace identity of the drive
against direct monodromy numerics and reproduces the phase-diagram
structure (resonance tongues, symmetric slivers, high-frequency thresholds)
at desk scale.
"""

from .analytic import (
    BoundaryCurve,
    FieldComponents,
    asymptotic_boundary,
    asymptotic_boundary_log,
    broken_ellipse,
    cos_2eps_tau,
    cos_2eps_tau_mu0,
    field_components,
    high_freq_threshold,
    mu0_sliver,
    mu_minus1_unbroken,
    unbroken_ellipse,
)
from .errors import BracketError, ConsistencyError
from .floquet import (
    DEFAULT_TOL,
    FloquetResult,
    amplification_rate,
    classify,
    monodromy,
    passive_monodromy,
    quasienergy,
)
from .model import (
    DrivingSpec,
    PhaseClass,
    driving_from_delta,
    eigenstate_overlap,
    h_pt,
    passive_shift,
    static_eigs,
)
from .oracle import stepped_constant, stepped_propagator
from .pauli import (
    PauliVector,
    compose,
    decompose,
    eigenvalues2,
    expm_traceless,
    sin_over_r,
)
from .sweep import PhaseGrid, grid_axis, sweep_grid, threshold_scan

__version__ = "0.1.0"

__all__ = [
    "BoundaryCurve",
    "BracketError",
    "ConsistencyError",
    "DEFAULT_TOL",
    "DrivingSpec",
    "FieldComponents",
    "FloquetResult",
    "PauliVector",
    "PhaseClass",
    "PhaseGrid",
    "amplification_rate",
    "asymptotic_boundary",
    "asymptotic_boundary_log",
    "broken_ellipse",
    "classify",
    "compose",
    "cos_2eps_tau",
    "cos_2eps_tau_mu0",
    "decompose",
    "driving_from_delta",
    "eigenstate_overlap",
    "eigenvalues2",
    "expm_traceless",
    "field_components",
    "grid_axis",
    "h_pt",
    "high_freq_threshold",
    "monodromy",
    "mu0_sliver",
    "mu_minus1_unbroken",
    "passive_monodromy",
    "passive_shift",
    "quasienergy",
    "sin_over_r",
    "static_eigs",
    "stepped_constant",
    "stepped_propagator",
    "sweep_grid",
    "threshold_scan",
    "unbroken_ellipse",
]
