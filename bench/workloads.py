"""Seeded inputs of the three workloads.

Every workload runs the same six kinds of operation, so that each run
yields every metric; a workload differs in which kind carries its load:

- figure_panels: the paper's six 400x400 panels through `pt-floquet sweep`;
- boundary_trace: threshold bisections, sliver verdicts and single
  `classify` calls;
- oracle_crosscheck: drives checked by the stepped oracle and by the trace
  identity.

The other kinds run at a small size on the workload's own region of
parameters.  The three CLI calls kept as failing operations fail today
because of faults in the program; they use fixed inputs, so the share of
failed operations is the same for every seed and every run length.
"""

import math
from dataclasses import dataclass

import numpy as np

from ptfloquet.analytic import cos_2eps_tau
from ptfloquet.floquet import trace_noise
from ptfloquet.model import DrivingSpec

J = 1.0
CLASSIFY_TOL = 1e-9
SCAN_TOL = 1e-6
ORACLE_STEPS = 10_000
FIGURE_MUS = (0.9, 0.7, 0.5, 0.0, -0.7, -1.0)
FIGURE_GAMMA = (0.0, 4.0)
FIGURE_OMEGA = (0.1, 6.0)
MAX_GROWTH = 600.0
# an analytic |h| this far from 1 at a bracket end leaves its class beyond doubt
BRACKET_MARGIN = 1e-6


@dataclass(frozen=True)
class Panel:
    mu: float
    gamma: tuple  # (lo, hi, count)
    omega: tuple

    @property
    def cells(self):
        return self.gamma[2] * self.omega[2]

    def argv(self, csv_path, ppm_path):
        return [
            "sweep", "--mu", repr(self.mu),
            "--gamma-min", repr(self.gamma[0]), "--gamma-max", repr(self.gamma[1]),
            "--gamma-steps", str(self.gamma[2]),
            "--omega-min", repr(self.omega[0]), "--omega-max", repr(self.omega[1]),
            "--omega-steps", str(self.omega[2]),
            "--out", csv_path, "--ppm", ppm_path, "--force",
        ]


@dataclass(frozen=True)
class Scan:
    kind: str  # "static" (mu = 1), "fast" (omega >= 200) or "other"
    mu: float
    omega: float
    bracket: tuple
    tol: float


@dataclass
class Inputs:
    panels: list
    samples: list  # per panel, the (i, j) cells checked against the trace identity
    scans: list
    slivers: list  # (n, gamma0)
    drives: list  # library classify calls
    identity: list  # trace identity against the monodromy
    oracle: list  # stepped oracle against the monodromy
    kept_failing: list  # argv tuples of KEPT_FAILING


# CLI calls that fail today because of faults in the program (see the
# README); "{work}" stands for the run's scratch directory
KEPT_FAILING = {
    "figure_panels": [
        ("sweep", "--mu", "0", "--omega-min", "1e-300", "--gamma-steps", "3",
         "--omega-steps", "3", "--out", "{work}/kept.csv", "--force"),
    ],
    "boundary_trace": [
        ("classify", "--gamma0", "0.5", "--mu", "1", "--omega", "inf"),
        ("boundary", "--kind", "asymptotic", "--gamma-max", "inf", "--samples", "2"),
    ],
    "oracle_crosscheck": [],
}

# A round sweeps each panel, and after each sweep makes one pass over the
# other kinds of operation; the amounts below are per pass, and the scans
# are (static, fast, other).
SIZES = {
    "figure_panels": dict(
        panel=400, panel_mus=FIGURE_MUS, samples=2000, scans=(0, 0, 4),
        slivers=1000, drives=500, identity=500, oracle=4, near_ep=0,
    ),
    "boundary_trace": dict(
        panel=200, panel_mus=(0.0,), samples=2000, scans=(8, 8, 32),
        slivers=1000, drives=10_000, identity=2000, oracle=10, near_ep=0,
    ),
    "oracle_crosscheck": dict(
        panel=200, panel_mus=(-1.0,), samples=2000, scans=(0, 0, 12),
        slivers=300, drives=2000, identity=10_000, oracle=60, near_ep=0.02,
    ),
}
QUICK = dict(panel=24, samples=100, scans=(2, 2, 4), slivers=6, drives=200, identity=200, oracle=2)

WORKLOADS = tuple(SIZES)


def log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))


def growth_exponent(gamma0, mu, omega):
    tau = math.pi / omega
    return tau * sum(math.sqrt(max(g * g - J * J, 0.0)) for g in (gamma0, abs(mu) * gamma0))


def strata(rng, count):
    """count values in [0, 1), one in each interval [k/count, (k+1)/count),
    in random order: a sample whose make-up varies little between seeds."""
    return (rng.permutation(count) + rng.uniform(size=count)) / count


def random_drives(rng, count, near_ep_share=0.0):
    """Drives sampled like the test suite's random_specs, stratified: gamma0
    log-uniform in [1e-4, 10], mu uniform in [-1, 1], omega log-uniform in
    [0.05, 1e3], growth exponent at most 600 (a drive above it is drawn
    again); a near_ep_share of them lie within 1e-4 of an exceptional point
    of one half step."""
    near = round(count * near_ep_share)
    drives = []
    for u in np.stack([strata(rng, count - near) for _ in range(3)], axis=1).tolist():
        while True:
            gamma0 = math.exp(math.log(1e-4) + u[0] * math.log(1e5))
            mu = -1.0 + 2.0 * u[1]
            omega = math.exp(math.log(0.05) + u[2] * math.log(2e4))
            if growth_exponent(gamma0, mu, omega) <= MAX_GROWTH:
                break
            u = rng.uniform(size=3).tolist()
        drives.append(DrivingSpec(gamma0=gamma0, mu=mu, omega=omega))
    while len(drives) < count:
        offset = log_uniform(rng, 1e-9, 1e-4) * (1.0 if rng.uniform() < 0.5 else -1.0)
        mu = float(rng.uniform(-1.0, 1.0))
        if rng.uniform() < 0.5 or abs(mu) < 1e-3:
            gamma0 = 1.0 + offset
        else:
            gamma0 = (1.0 + offset) / abs(mu)
        omega = log_uniform(rng, 0.05, 1e3)
        if growth_exponent(gamma0, mu, omega) <= MAX_GROWTH:
            drives.append(DrivingSpec(gamma0=gamma0, mu=mu, omega=omega))
    return drives


def _clear(gamma0, mu, omega):
    """Analytic |h| - 1 at a bracket end, or None if the rounding noise
    could decide its class."""
    if trace_noise(J, gamma0, mu, omega) > 1e-9:
        return None
    value = abs(cos_2eps_tau(DrivingSpec(gamma0=gamma0, mu=mu, omega=omega))) - 1.0
    return value if abs(value) > BRACKET_MARGIN else None


def _valid_bracket(mu, omega, lo, hi):
    below, above = _clear(lo, mu, omega), _clear(hi, mu, omega)
    return below is not None and above is not None and below < 0.0 < above


def _scans(rng, static, fast, other):
    """Threshold bisections whose brackets the trace identity classifies
    clearly: lo not Broken, hi Broken."""
    scans = []
    while len(scans) < static:
        omega = log_uniform(rng, 0.5, 10.0)
        if _valid_bracket(1.0, omega, 0.5, 1.5):
            scans.append(Scan("static", 1.0, omega, (0.5, 1.5), SCAN_TOL))
    while len(scans) < static + fast:
        mu = float(rng.uniform(-0.5, 0.95))
        omega = log_uniform(rng, 200.0, 400.0)
        target = 2.0 * J / (1.0 + mu)
        bracket = (0.85 * target, 1.25 * target)
        if _valid_bracket(mu, omega, *bracket):
            scans.append(Scan("fast", mu, omega, bracket, SCAN_TOL))
    while len(scans) < static + fast + other:
        mu = float(rng.uniform(-0.95, 0.95))
        omega = log_uniform(rng, 0.3, 6.0)
        # first coarse step, from gamma0 = 0 up, across which the class turns Broken
        coarse = [0.02 * k for k in range(301)]
        for lo, hi in zip(coarse, coarse[1:]):
            above = _clear(hi, mu, omega)
            if above is None or above > 0.0:
                if above is not None and _valid_bracket(mu, omega, lo, hi):
                    scans.append(Scan("other", mu, omega, (lo, hi), SCAN_TOL))
                break
    return scans


def _slivers(rng, count, gamma_hi):
    """(n, gamma0): n cycles through 1, 3, 5, 7; gamma0 log-uniform in
    [1.05, gamma_hi], stratified."""
    span = math.log(gamma_hi / 1.05)
    return [
        ((1, 3, 5, 7)[k % 4], 1.05 * math.exp(u * span))
        for k, u in enumerate(strata(rng, count).tolist())
    ]


def make_inputs(workload, seed, quick=False):
    sizes = dict(SIZES[workload], **(QUICK if quick else {}))
    rng = np.random.default_rng(seed)
    n = sizes["panel"]
    panels = [
        Panel(mu, FIGURE_GAMMA + (n,), FIGURE_OMEGA + (n,)) for mu in sizes["panel_mus"]
    ]
    samples = [
        {(int(i), int(j)) for i, j in rng.integers(0, n, size=(sizes["samples"], 2))}
        for _ in panels
    ]
    scans = _scans(rng, *sizes["scans"])
    if workload == "figure_panels":
        # single drives are cells of the six panels
        drives = []
        cells = (strata(rng, sizes["drives"]) * n).astype(int)
        for k, (i, j) in enumerate(zip(cells, rng.permutation(cells))):
            panel = panels[k % len(panels)]
            gamma0 = panel.gamma[0] + i * (panel.gamma[1] - panel.gamma[0]) / (n - 1)
            omega = panel.omega[0] + j * (panel.omega[1] - panel.omega[0]) / (n - 1)
            drives.append(DrivingSpec(gamma0=float(gamma0), mu=panel.mu, omega=float(omega)))
        slivers = _slivers(rng, sizes["slivers"], FIGURE_GAMMA[1])
    else:
        drives = random_drives(rng, sizes["drives"])
        slivers = _slivers(rng, sizes["slivers"], 10.0)
    if workload == "oracle_crosscheck":
        identity = random_drives(rng, sizes["identity"], sizes["near_ep"])
        # each oracle drive is also an identity drive, near-EP ones included
        near = round(sizes["oracle"] * sizes["near_ep"])
        oracle = identity[: sizes["oracle"] - near] + identity[len(identity) - near :]
    else:
        identity = drives[: sizes["identity"]]
        oracle = drives[: sizes["oracle"]]
    return Inputs(
        panels=panels,
        samples=samples,
        scans=scans,
        slivers=slivers,
        drives=drives,
        identity=identity,
        oracle=oracle,
        kept_failing=KEPT_FAILING[workload],
    )
