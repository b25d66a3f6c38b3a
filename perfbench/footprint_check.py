"""Check that the reference scale does not follow the program's cache use.

    python3 perfbench/footprint_check.py

Before each reference sample, a synthetic "program call" writes over a
buffer of 0, 4, 32 or 256 MiB and builds and drops a dict, which
evicts what the caches held.  For each size the script prints the
median time of a benchmark sample (:meth:`scenarios.Clock.sample`: an
untimed warming pass, then a timed pass) and of a single cold pass of
the same kernel, as multiples of their time after a call that touched
nothing.  The sizes are interleaved, so a change in the host's speed
during the check moves them all alike.  Takes about a minute and
256 MiB of memory.
"""

from __future__ import annotations

import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import scenarios  # noqa: E402

SIZES_MIB = (0, 4, 32, 256)
ROUNDS = 300


def main() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    clock = scenarios.Clock()
    buffer = np.ones((max(SIZES_MIB) << 20) // 8)

    def program_call(mib: int) -> None:
        if mib:
            buffer[:(mib << 20) // 8] += 1.0
            table = {i: i for i in range(mib * 2000)}
            del table

    times: dict[tuple[str, int], list[float]] = {}
    for _ in range(ROUNDS):
        for mib in SIZES_MIB:
            program_call(mib)
            clock.sample()
            times.setdefault(("warmed (used)", mib), []).append(
                clock.reference[-1])
            program_call(mib)
            start = scenarios.cpu()
            clock.kernel()
            times.setdefault(("one cold pass", mib), []).append(
                scenarios.cpu() - start)
    print("sample time after a call of each footprint, "
          "as a multiple of the time after an empty call")
    print(f"{'kernel':<16}" + "".join(f"{m:>9} MiB" for m in SIZES_MIB))
    for kind in ("one cold pass", "warmed (used)"):
        base = statistics.median(times[(kind, 0)])
        print(f"{kind:<16}" + "".join(
            f"{statistics.median(times[(kind, m)]) / base:>13.2f}"
            for m in SIZES_MIB)
            + f"   ({base * 1e3:.3f} ms after an empty call)")


if __name__ == "__main__":
    main()
