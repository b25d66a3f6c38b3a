"""Repo benchmark: run one workload at one seed and print its metrics.

    python3 perfbench/run.py --workload hot_edges --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``
of the same checkout.  Informational lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
run.  The exit code is 0 only when every op answered correctly.
"""

from __future__ import annotations

import os

# One thread per numeric library, set before numpy loads, so the only
# threads besides the client are the engine's own workers.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space for database files, inside the checkout.
WORKDIR = ROOT / ".perfbench_work"


def _import_program() -> str | None:
    """Import ``repro`` from this checkout's ``src``; an error or None."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        return f"cannot import the program from {SRC}: {exc}"
    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        return f"imported repro from {location}, not from {SRC}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="program CPU seconds the timed window runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Pin the process, and so the engine's pool threads, to one CPU.
    # Spread over two CPUs, the client and the two pool threads hand the
    # interpreter lock between cores.  On a 2-vCPU virtual machine that
    # added 40-70% to process CPU time, by an amount that changed from
    # run to run.  On one CPU, CPU time counts the work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    error = _import_program()
    if error is not None:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    import scenarios

    if args.workload not in scenarios.WORKLOADS:
        parser.error(f"--workload must be one of {list(scenarios.WORKLOADS)}")

    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORKDIR))
    try:
        metrics, attempted, failed, notes = scenarios.run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run still uses it
    for line in notes:
        print(line)
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
