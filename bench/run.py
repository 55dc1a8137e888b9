"""Benchmark of pt-floquet, run from the root of a source tree:

    python3 bench/run.py --workload figure_panels --seed 1 --seconds 30 --trace 0

It imports the package from the tree's src/ (nothing is installed), sets
up the workload's seeded inputs, then runs whole rounds of its operations
until --seconds have passed, checking every output.  The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics, end to end with --trace 0 and per module with --trace 1.  The
traced run records spans around calls into the package's modules and
writes them to bench/out/ when it ends.  --quick runs a small version of
each workload (for the benchmark's own tests).  See bench/README.md.
"""

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5


def setup(workload, seed, quick, repeats):
    """Import the package in a fresh interpreter, then make the inputs;
    repeated, with the median time reported."""
    from rounds import run_child
    from workloads import make_inputs

    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        rc, _, err = run_child([sys.executable, "-c", "import ptfloquet"], ROOT, 60.0)
        if rc != 0:
            raise RuntimeError(f"importing ptfloquet failed: {err.strip()}")
        inputs = make_inputs(workload, seed, quick)
        times.append(time.perf_counter() - start)
    return inputs, statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small inputs, one setup")
    args = parser.parse_args(argv)

    if not (SRC / "ptfloquet" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'ptfloquet'}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import layers
    from rounds import Run
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        repeats = 1 if args.quick or args.trace else SETUP_REPEATS
        inputs, setup_s = setup(args.workload, args.seed, args.quick, repeats)
        run = Run(inputs, work)
        start = time.perf_counter()
        if args.trace:
            metrics, tracer = layers.traced(run, args.seconds, start)
            spans = OUT / f"spans-{args.workload}-{args.seed}.npz"
            tracer.write(spans)
            print(f"bench: spans written to {spans}", file=sys.stderr)
        else:
            while True:
                run.round()
                if time.perf_counter() - start >= args.seconds:
                    break
            metrics = run.end_to_end(setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": not run.problems,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
