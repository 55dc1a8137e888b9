"""Command-line front end: classify single drives, sweep phase diagrams to
CSV (optionally a PPM heatmap), and emit analytic boundary curves.

All quantities are expressed in units of the coupling J (J defaults to 1;
rescaling is the caller's responsibility).  Exit codes: 0 success, 2 bad
usage, parameters, output paths or memory, 3 internal consistency failure.
"""

import argparse
import contextlib
import json
import math
import os
import shutil
import sys

from . import analytic
from .errors import ConsistencyError
from .floquet import (
    DEFAULT_TOL, EXCEPTIONAL_CODE, PHASE_BY_CODE, _passive_decay, classify
)
from .model import DrivingSpec

CSV_COLUMNS = "gamma0,omega,c,phase,trace_half"
_PHASE_NAMES = [p.value for p in PHASE_BY_CODE]


def __getattr__(name):
    """cli.sweep_grid, imported on first use so that classify loads no numpy;
    nothing here calls it, but the benchmark still wraps it by name."""
    if name != "sweep_grid":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .sweep import sweep_grid
    return sweep_grid


def _fmt(x) -> str:
    """Shortest decimal that round-trips to the same double."""
    return repr(float(x))


def _csv_header(mu, J) -> bytes:
    """The sweep CSV's tagged header line and column header."""
    header = f"# pt-floquet sweep mu={_fmt(mu)} J={_fmt(J)} tol={_fmt(DEFAULT_TOL)}"
    return f"{header}\n{CSV_COLUMNS}\n".encode("ascii")


def _csv_row(omega_strs, gamma0, half_trace, c, code) -> bytes:
    """One gamma0 row of the sweep CSV from its (half_trace, c, code)
    arrays, one line per cell; omega_strs are the omega axis, _fmt'ed."""
    g_str = _fmt(gamma0)
    cells = zip(omega_strs, c.tolist(), code.tolist(), half_trace.tolist())
    return "".join([
        f"{g_str},{o_str},{c!r},{_PHASE_NAMES[code]},{h!r}\n"
        for o_str, c, code, h in cells
    ]).encode("ascii")


def _ppm_row(c, code) -> bytes:
    """One gamma0 row of heatmap pixels: R = round(255 c), G = 0,
    B = round(255 (1 - c)), with Exceptional cells white."""
    import numpy as np
    pixels = np.zeros((c.size, 3), dtype=np.uint8)
    pixels[:, 0] = np.rint(255.0 * c).astype(np.uint8)
    pixels[:, 2] = np.rint(255.0 * (1.0 - c)).astype(np.uint8)
    pixels[code == EXCEPTIONAL_CODE] = 255
    return pixels.tobytes()


def _ppm_header(n_gamma, n_omega) -> bytes:
    """Header of the binary P6 heatmap: width = omega steps, height = gamma
    steps.  Its _ppm_row rows follow top row first, that is gamma max."""
    return f"P6\n{n_omega} {n_gamma}\n255\n".encode("ascii")


def render_sweep_csv(grid: "PhaseGrid") -> str:
    """CSV document for a sweep: _csv_header, then the grid's rows."""
    omega_strs = [_fmt(omega) for omega in grid.omega_axis.tolist()]
    rows = zip(grid.gamma_axis.tolist(), grid.trace_half, grid.c_values, grid.classes)
    csv_rows = (_csv_row(omega_strs, *row) for row in rows)
    return b"".join([_csv_header(grid.mu, grid.J), *csv_rows]).decode("ascii")


def render_ppm(grid: "PhaseGrid") -> bytes:
    """PPM heatmap of a sweep: _ppm_header, then the grid's rows reversed."""
    pixel_rows = [_ppm_row(c, code) for c, code in zip(grid.c_values, grid.classes)]
    return b"".join([_ppm_header(*grid.c_values.shape), *reversed(pixel_rows)])


def cmd_classify(args) -> int:
    spec = DrivingSpec(gamma0=args.gamma0, mu=args.mu, omega=args.omega, J=args.J)
    result = classify(spec)
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
    if args.passive:  # the loss-only twin's eigenvalues are the active ones, decayed
        doc["spectral_radius"] = _passive_decay(spec) * abs(result.g_plus)
    # JSON has no infinity: a value beyond double range is written as null
    doc = {
        key: None if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in doc.items()
    }
    print(json.dumps(doc))
    return 0


def cmd_sweep(args) -> int:
    from .sweep import iter_rows  # and numpy, which classify never loads
    # refuse before computing, so a refusal leaves no output behind
    for flag, path in (("--out", args.out), ("--ppm", args.ppm)):
        if path == "":  # realpath("") would be the working directory
            raise ValueError(f"{flag} needs a file path, got ''")
    if args.ppm is not None and os.path.realpath(args.out) == os.path.realpath(args.ppm):
        raise ValueError(f"--out and --ppm name the same file {args.out}")
    for path in (args.out, args.ppm):
        if path is not None and os.path.exists(path) and not args.force:
            raise ValueError(f"refusing to overwrite {path} (use --force)")
    gamma_range = (args.gamma_min, args.gamma_max, args.gamma_steps)
    omega_range = (args.omega_min, args.omega_max, args.omega_steps)
    def render_row(gamma0, half_trace, c, code):  # the row's CSV, and pixels or None
        csv_row = _csv_row(omega_strs, gamma0, half_trace, c, code)
        return csv_row, _ppm_row(c, code) if args.ppm is not None else None
    gamma_axis, omega_axis, rows = iter_rows(
        args.mu, args.J, gamma_range, omega_range, render_row
    )
    # formatted once, here, before the first row is asked for: the sweep's
    # workers fork then and inherit it
    omega_strs = [_fmt(omega) for omega in omega_axis.tolist()]
    # one pass: the workers make and render each gamma0 row as the CSV is
    # written, and only its PPM pixels are kept, for the PPM, opened once the
    # CSV is closed (opening a FIFO waits for a reader); staged outputs are
    # renamed into place last, so a failure leaves existing files as they were
    pixel_rows, staged = [], {}
    path = args.out
    # closing rows ends its workers on every path, before this returns
    with contextlib.closing(rows):
        try:
            with _open_output(path, staged) as fh:
                fh.write(_csv_header(args.mu, args.J))
                for csv_row, pixels in rows:
                    fh.write(csv_row)
                    if pixels is not None:  # with --ppm
                        pixel_rows.append(pixels)
            if args.ppm is not None:
                path = args.ppm
                with _open_output(path, staged) as fh:
                    fh.write(_ppm_header(gamma_axis.size, omega_axis.size))
                    fh.writelines(reversed(pixel_rows))
            for part, (path, target) in staged.items():
                if os.path.exists(target):  # an overwritten file keeps its mode
                    shutil.copymode(target, part)
            for part, (path, target) in staged.items():
                os.replace(part, target)
        except OSError as exc:  # name the user's path, not the staged one
            raise OSError(exc.errno, exc.strerror, path) from None
        finally:
            for part in filter(os.path.exists, staged):  # renamed ones are gone
                os.remove(part)
    return 0


def _open_output(path, staged):
    """Open a sweep output for writing.  A new or regular-file output is
    staged beside its target (through a symlink, as open() writes) and
    recorded in staged as part: (path, target), for the caller to rename
    into place.  Any other existing target (a FIFO, a device such as
    /dev/stdout) cannot be replaced and is opened in place, as plain
    open() would."""
    if os.path.exists(path) and not os.path.isfile(path):
        return open(path, "wb")
    target = os.path.realpath(path)
    part = f"{target}.{os.getpid()}.part"
    fh = open(part, "xb")  # mode as open()'s
    staged[part] = path, target
    return fh


def cmd_boundary(args) -> int:
    if not 0.0 < args.J < math.inf:
        raise ValueError(f"--J must be finite and positive, got {args.J}")
    if args.samples < 1:
        raise ValueError("need at least one sample")
    # analytic owns the index ranges; only a missing --n is refused here
    if args.n is None and args.kind != "asymptotic":
        raise ValueError(f"{args.kind} curves need --n")
    if args.kind in ("unbroken-ellipse", "broken-ellipse"):
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
        points = [
            (g, analytic.mu0_sliver(args.n, g, J=args.J))
            for g in _gamma_samples(args)
        ]
    for gamma0, omega in points:
        if not (math.isfinite(gamma0) and math.isfinite(omega)):
            raise ValueError(f"the curve leaves double range at gamma0={_fmt(gamma0)}")
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
        if not args.J < args.gamma_min <= args.gamma_max:
            raise ValueError(
                f"--gamma-min must lie in (J, --gamma-max], got {args.gamma_min}"
            )
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
    except (ValueError, OSError) as exc:
        print(f"pt-floquet: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("pt-floquet: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
