"""Command-line front end: classify single drives, sweep phase diagrams to
CSV (optionally a PPM heatmap), and emit analytic boundary curves.

All quantities are expressed in units of the coupling J (J defaults to 1;
rescaling is the caller's responsibility).  Exit codes: 0 success, 2 bad
usage or parameters, 3 internal consistency failure.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import analytic
from .errors import ConsistencyError
from .floquet import DEFAULT_TOL, EXCEPTIONAL_CODE, classify, passive_monodromy
from .model import DrivingSpec
from .pauli import eigenvalues2
from .sweep import PHASE_BY_CODE, PhaseGrid, sweep_grid

CSV_COLUMNS = "gamma0,omega,c,phase,trace_half"


def _fmt(x) -> str:
    """Shortest decimal that round-trips to the same double."""
    return repr(float(x))


def render_sweep_csv(grid: PhaseGrid) -> str:
    """CSV document for a sweep: tagged header line, column header, then one
    row per cell in gamma-major order."""
    lines = [
        f"# pt-floquet sweep mu={_fmt(grid.mu)} J={_fmt(grid.J)} tol={_fmt(grid.tol)}",
        CSV_COLUMNS,
    ]
    phase_names = [p.value for p in PHASE_BY_CODE]
    omega_strs = [_fmt(omega) for omega in grid.omega_axis]
    for i, gamma0 in enumerate(grid.gamma_axis):
        g_str = _fmt(gamma0)
        row = zip(
            omega_strs,
            grid.c_values[i].tolist(),
            grid.classes[i].tolist(),
            grid.trace_half[i].tolist(),
        )
        lines.extend(
            f"{g_str},{o_str},{c!r},{phase_names[code]},{h!r}"
            for o_str, c, code, h in row
        )
    lines.append("")
    return "\n".join(lines)


def render_ppm(grid: PhaseGrid) -> bytes:
    """Binary P6 heatmap: width = omega steps, height = gamma steps, top row
    = gamma max; R = round(255 c), G = 0, B = round(255 (1 - c)), with
    Exceptional cells white."""
    n_gamma, n_omega = grid.shape
    red = np.rint(255.0 * grid.c_values).astype(np.uint8)
    blue = np.rint(255.0 * (1.0 - grid.c_values)).astype(np.uint8)
    pixels = np.zeros((n_gamma, n_omega, 3), dtype=np.uint8)
    pixels[:, :, 0] = red
    pixels[:, :, 2] = blue
    exceptional = grid.classes == EXCEPTIONAL_CODE
    pixels[exceptional] = (255, 255, 255)
    header = f"P6\n{n_omega} {n_gamma}\n255\n".encode("ascii")
    return header + pixels[::-1].tobytes()


def _write_text(path, text, force):
    _refuse_overwrite(path, force)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_bytes(path, payload, force):
    _refuse_overwrite(path, force)
    with open(path, "wb") as fh:
        fh.write(payload)


def _refuse_overwrite(path, force):
    if os.path.exists(path) and not force:
        raise ValueError(f"refusing to overwrite {path} (use --force)")


def cmd_classify(args) -> int:
    spec = DrivingSpec(gamma0=args.gamma0, mu=args.mu, omega=args.omega, J=args.J)
    result = classify(spec, tol=args.tol)
    doc = {
        "gamma0": args.gamma0,
        "mu": args.mu,
        "omega": args.omega,
        "J": args.J,
        "c": result.c,
        "phase": result.phase.value,
        "eps_f_re": result.eps_f.real,
        "eps_f_im": result.eps_f.imag,
        "trace_half": result.half_trace,
        "g_plus_abs": abs(result.g_plus),
        "g_minus_abs": abs(result.g_minus),
    }
    if args.passive:
        g_passive, _ = eigenvalues2(passive_monodromy(spec))
        doc["spectral_radius"] = abs(g_passive)
    print(json.dumps(doc))
    return 0


def cmd_sweep(args) -> int:
    grid = sweep_grid(
        mu=args.mu,
        J=args.J,
        gamma_range=(args.gamma_min, args.gamma_max, args.gamma_steps),
        omega_range=(args.omega_min, args.omega_max, args.omega_steps),
        tol=args.tol,
    )
    _write_text(args.out, render_sweep_csv(grid), args.force)
    if args.ppm is not None:
        _write_bytes(args.ppm, render_ppm(grid), args.force)
    return 0


def cmd_boundary(args) -> int:
    if args.samples < 1:
        raise ValueError("need at least one sample")
    if args.kind in ("unbroken-ellipse", "broken-ellipse"):
        if args.n is None or args.n < 1:
            raise ValueError("ellipse curves need --n >= 1")
        if args.kind == "unbroken-ellipse":
            curve = analytic.unbroken_ellipse(args.n, J=args.J, samples=args.samples)
        else:
            curve = analytic.broken_ellipse(args.n, J=args.J, samples=args.samples)
        points = curve.points
    elif args.kind == "asymptotic":
        points = [
            (g, analytic.asymptotic_boundary(g, J=args.J))
            for g in _gamma_samples(args)
        ]
    else:  # mu0-sliver
        if args.n is None or args.n < 1 or args.n % 2 == 0:
            raise ValueError("sliver curves need an odd --n >= 1")
        points = [
            (g, analytic.mu0_sliver(args.n, g, J=args.J))
            for g in _gamma_samples(args)
        ]
    print("gamma0,omega")
    for gamma0, omega in points:
        print(f"{_fmt(gamma0)},{_fmt(omega)}")
    return 0


def _gamma_samples(args):
    """gamma0 values for the large-gamma curve kinds: an inclusive range when
    --gamma-min is given, else (J, gamma-max] left-open."""
    for flag, value in (
        ("--gamma-max", args.gamma_max),
        ("--gamma-min", args.gamma_min),
    ):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if args.gamma_max <= args.J:
        raise ValueError("--gamma-max must exceed J")
    if args.gamma_min is not None:
        if args.samples == 1:
            return [args.gamma_min]
        step = (args.gamma_max - args.gamma_min) / (args.samples - 1)
        return [args.gamma_min + k * step for k in range(args.samples)]
    step = (args.gamma_max - args.J) / args.samples
    return [args.J + k * step for k in range(1, args.samples + 1)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pt-floquet",
        description="PT phase diagrams of a two-site dimer under two-step "
        "periodic gain/loss modulation (quantities in units of J).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cls = sub.add_parser("classify", help="classify one drive, JSON on stdout")
    p_cls.add_argument("--J", type=float, default=1.0)
    p_cls.add_argument("--gamma0", type=float, required=True)
    p_cls.add_argument("--mu", type=float, required=True)
    p_cls.add_argument("--omega", type=float, required=True)
    p_cls.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_cls.add_argument(
        "--passive",
        action="store_true",
        help="also report the spectral radius of the loss-only monodromy",
    )
    p_cls.set_defaults(handler=cmd_classify)

    p_sw = sub.add_parser("sweep", help="grid sweep to CSV (optional PPM heatmap)")
    p_sw.add_argument("--mu", type=float, required=True)
    p_sw.add_argument("--gamma-min", type=float, default=0.0)
    p_sw.add_argument("--gamma-max", type=float, default=4.0)
    p_sw.add_argument("--gamma-steps", type=int, default=400)
    p_sw.add_argument("--omega-min", type=float, default=0.1)
    p_sw.add_argument("--omega-max", type=float, default=6.0)
    p_sw.add_argument("--omega-steps", type=int, default=400)
    p_sw.add_argument("--out", required=True, help="CSV output path")
    p_sw.add_argument("--ppm", default=None, help="optional PPM heatmap path")
    p_sw.add_argument("--J", type=float, default=1.0)
    p_sw.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_sw.add_argument("--force", action="store_true", help="overwrite outputs")
    p_sw.set_defaults(handler=cmd_sweep)

    p_bd = sub.add_parser("boundary", help="analytic boundary curve to stdout CSV")
    p_bd.add_argument(
        "--kind",
        required=True,
        choices=["unbroken-ellipse", "broken-ellipse", "asymptotic", "mu0-sliver"],
    )
    p_bd.add_argument("--n", type=int, default=None)
    p_bd.add_argument("--samples", type=int, default=64)
    p_bd.add_argument("--gamma-max", type=float, default=10.0)
    p_bd.add_argument("--gamma-min", type=float, default=None)
    p_bd.add_argument("--J", type=float, default=1.0)
    p_bd.set_defaults(handler=cmd_boundary)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConsistencyError as exc:
        print(f"pt-floquet: internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"pt-floquet: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
