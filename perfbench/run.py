"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload derive-run --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports the library from ``src/``
of that checkout (never an installed copy) and reads the goldens under
``tests/goldens``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  The process exits non-zero, printing no result, when the
checkout lacks the library.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("derive-run", "verify-exact", "verify-bounded")
#: Fresh processes timed from start to first op ready; setup_s is their median.
SETUP_PROBES = 11
#: Hash randomization would change set iteration order, hence witness
#: searches and their work counts, from one process to the next.
HASH_SEED = "0"


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_checkout():
    """Put this checkout's ``src`` first on the path and import from it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file() or not (
        ROOT / "tests" / "goldens" / "manifest.json"
    ).is_file():
        sys.exit(f"run.py: {ROOT} is not a checkout of the repository "
                 "(src/repro or tests/goldens is missing)")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        sys.exit(f"run.py: imported repro from {repro.__file__}, not from {src}")


def _setup_seconds(args) -> float:
    """Median time from spawning a fresh process to its first op being
    ready: interpreter start, imports and building the inputs.

    The probe prints the monotonic clock (system-wide on Linux) once its
    inputs are built, so interpreter teardown is not counted.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        began = time.monotonic()
        probe = subprocess.run(command, cwd=ROOT, check=True, timeout=120,
                               capture_output=True, text=True)
        samples.append(float(probe.stdout.split()[-1]) - began)
    return statistics.median(samples)


def main(argv=None) -> int:
    args = _arguments(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                  *sys.argv[1:]])
    _import_checkout()
    from perfbench import cases, harness

    if args.setup_probe:
        cases.build_ops(args.workload, args.seed, ROOT)
        print(time.monotonic())
        return 0
    setup_s = None if args.trace else _setup_seconds(args)
    result = harness.run_workload(
        args.workload, args.seed, ROOT, args.seconds, trace=bool(args.trace)
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for problem in result.problems:
        print(f"problem: {problem}", file=sys.stderr)
    exact_share = (
        f"{result.exact_ops / result.verify_ops:.3f}" if result.verify_ops else "n/a"
    )
    print(
        f"{args.workload} seed={args.seed}: {result.attempted} ops, "
        f"{result.passes} passes recorded after an unrecorded one, "
        f"error_share={result.failed / result.attempted:.3f}, "
        f"exact_share={exact_share}"
    )
    if args.trace:
        metrics = result.layers
    else:
        metrics = {"setup_s": (setup_s, "s"), **result.end_to_end(),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
