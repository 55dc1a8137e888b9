"""PT-symmetry phase diagrams of a two-site dimer under two-step periodic
gain/loss modulation.

The package cross-validates the closed-form trace identity of the drive
against direct monodromy numerics and reproduces the phase-diagram
structure (resonance tongues, symmetric slivers, high-frequency thresholds)
at desk scale.

Importing the package loads no numpy: the sweep engine's and the oracle's
names, which need it, are imported on first use through __getattr__.
"""

import importlib

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
from .pauli import (
    PauliVector,
    compose,
    decompose,
    eigenvalues2,
    expm_traceless,
    sin_over_r,
)

__version__ = "0.1.0"

# the numpy-backed names, by the module that defines them
_LAZY = {
    **dict.fromkeys(("PhaseGrid", "grid_axis", "sweep_grid", "threshold_scan"), "sweep"),
    **dict.fromkeys(("stepped_constant", "stepped_propagator"), "oracle"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


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
