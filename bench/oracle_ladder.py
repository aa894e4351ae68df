"""Time a cold build of the collocation oracle's operator on the benchmark rings.

    PYTHONPATH=src python bench/oracle_ladder.py --label change
    PYTHONPATH=<other checkout>/src python bench/oracle_ladder.py --label parent

Each ring's operator (``dtnnet.oracle._operator``: the factor of the
collocation system for every mode, the residual table and the DtN matrix)
is built once as the first call of the process for that ring, then three
more times with the cache cleared; the median and minimum of those three
are recorded. The rings have equal gaps t R between neighbours and to the
outer circle (L = 1): the seven ``oracle_batch`` rings of ``perfbench`` at
their smallest gap, criterion 4's three 16-disk rings and criterion 5's
4-disk ring. The result is merged into ``--out`` under ``--label``, with
the provenance fields of ``sweep_ladder.py``.
"""

from __future__ import annotations

import argparse
import math
import statistics
import time

from sweep_ladder import merge_run, provenance

from dtnnet import generators, oracle

# (disks, gap/R, truncation M)
RINGS = {
    "oracle_batch": ((16, 0.02, 48), (8, 0.08, 24), (12, 0.05, 32), (8, 0.02, 48),
                     (16, 0.08, 24), (12, 0.08, 24), (8, 0.05, 32)),
    "criterion 4": ((16, 0.1, 48), (16, 0.05, 64), (16, 0.02, 96)),
    "criterion 5": ((4, 0.05, 258),),
}
REPEATS = 3


def equal_gap_ring(n: int, t: float):
    s = math.sin(math.pi / n)
    R = s / (1.0 + s + t * (s + 0.5))
    return generators.ring_packing(n, 1.0 - R - t * R, R, 1.0)


def time_ring(group: str, n: int, t: float, M: int) -> dict:
    packing = equal_gap_ring(n, t)
    times = []
    for _ in range(REPEATS + 1):
        oracle._operator.cache_clear()
        t0 = time.perf_counter()
        op = oracle._operator(packing, M)
        times.append(time.perf_counter() - t0)
    is_ring = getattr(oracle, "_is_ring", None)  # absent before the block factor
    return {
        "group": group, "n": n, "gap_over_radius": t, "M": M,
        "path": "ring" if is_ring and is_ring(packing, M) else "dense",
        "condition": op.condition,
        "first_call_s": times[0],
        "median_s": statistics.median(times[1:]),
        "min_s": min(times[1:]),
        "repeats": REPEATS,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="key of this run in the output file")
    ap.add_argument("--out", default="BENCH_oracle.json")
    args = ap.parse_args()

    rings = [time_ring(group, *spec) for group, specs in RINGS.items() for spec in specs]
    merge_run(args.out, "dtnnet.oracle._operator, cold (cache cleared), in process",
              args.label, {**provenance(), "rings": rings})
    for r in rings:
        print(f"{args.label}: n = {r['n']:2d}  gap/R = {r['gap_over_radius']:<4}  "
              f"M = {r['M']:3d}  {r['path']:5s}  first {r['first_call_s']:.3f} s  "
              f"median {r['median_s']:.3f} s  min {r['min_s']:.3f} s")


if __name__ == "__main__":
    main()
