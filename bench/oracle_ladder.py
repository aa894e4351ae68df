"""Time a cold build of the collocation oracle's operator on a ladder of packings.

    PYTHONPATH=src python bench/oracle_ladder.py --label change
    PYTHONPATH=<other checkout>/src python bench/oracle_ladder.py --label parent

Each packing's operator (``dtnnet.oracle._operator``: the factor of the
collocation system for every mode, the residual table and the DtN matrix)
is built once as the first call of the process for that packing, then three
more times with the cache cleared; the median and minimum of those three
are recorded, and one more build under ``tracemalloc`` gives its traced
peak. One more cold build times its stages (the factor, the residual table
and the flux projection, each a function of ``dtnnet.oracle`` that is wrapped
with a timer for that build; a stage the imported dtnnet has no function for
is left in ``rest``), and the record gives the bytes of the arrays the
operator keeps, and of its residual table alone. The rungs are rings with equal gaps t R between neighbours and to the
outer circle (L = 1): the seven ``oracle_batch`` rings of ``perfbench`` at
their smallest gap, criterion 4's three 16-disk rings and criterion 5's
4-disk ring; then a 20-disk random packing and the 61-disk grid, which have
no rotation symmetry, and a two-ring packing of rotation order 4. Each
record gives the order g of the blocks the factor uses (g = 1: one dense
solve). The result is merged into ``--out`` under ``--label``, with the
provenance fields of ``sweep_ladder.py``.
"""

from __future__ import annotations

import argparse
import gc
import math
import statistics
import time
import tracemalloc

import numpy as np
from sweep_ladder import merge_run, provenance

from dtnnet import generators, oracle
from dtnnet.geometry import Packing

# (disks, gap/R, truncation M)
RINGS = {
    "oracle_batch": ((16, 0.02, 48), (8, 0.08, 24), (12, 0.05, 32), (8, 0.02, 48),
                     (16, 0.08, 24), (12, 0.08, 24), (8, 0.05, 32)),
    "criterion 4": ((16, 0.1, 48), (16, 0.05, 64), (16, 0.02, 96)),
    "criterion 5": ((4, 0.05, 258),),
}
REPEATS = 3
# Build stage: the dtnnet.oracle function that does it (looked up when called).
STAGES = {"factor": "_orbit_factor", "residual_table": "_residual_table",
          "flux_projection": "_flux_projection"}


def equal_gap_ring(n: int, t: float) -> Packing:
    s = math.sin(math.pi / n)
    R = s / (1.0 + s + t * (s + 0.5))
    return generators.ring_packing(n, 1.0 - R - t * R, R, 1.0)


def two_rings() -> Packing:
    """12 disks at radius 0.8 and 4 at 0.35 (R = 0.1), listed [o0, o1, o2, i0, o3, ...]."""
    outer = generators.ring_packing(12, 0.8, 0.1, 1.0).inclusions
    inner = generators.ring_packing(4, 0.35, 0.1, 1.0).inclusions
    return Packing(1.0, sum((outer[3 * k : 3 * k + 3] + inner[k : k + 1] for k in range(4)), ()))


OTHERS = {  # name: (packing, M)
    "random_packing(20, 0.08, 0.01, seed=1)":
        (lambda: generators.random_packing(20, 0.08, 0.01, seed=1), 32),
    "grid_packing(0.1, 0.02)": (lambda: generators.grid_packing(0.1, 0.02), 16),
    "two rings: 12 at 0.8, 4 at 0.35, R = 0.1": (two_rings, 24),
}


def stage_split(packing: Packing, M: int) -> dict:
    """Seconds of each stage of one cold build, and the rest of the build."""
    spent, saved = {}, []

    def timed(stage, fn):
        def wrapper(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[stage] = spent.get(stage, 0.0) + time.perf_counter() - t0
        return wrapper

    for stage, name in STAGES.items():
        if hasattr(oracle, name):
            saved.append((name, getattr(oracle, name)))
            setattr(oracle, name, timed(stage, saved[-1][1]))
    try:
        oracle._operator.cache_clear()
        t0 = time.perf_counter()
        oracle._operator(packing, M)
        total = time.perf_counter() - t0
    finally:
        for name, fn in saved:
            setattr(oracle, name, fn)
        oracle._operator.cache_clear()
    return {**spent, "rest": total - sum(spent.values()), "total": total}


def time_rung(group: str, name: str, packing: Packing, M: int, **fields) -> dict:
    times = []
    for _ in range(REPEATS + 1):
        oracle._operator.cache_clear()
        t0 = time.perf_counter()
        op = oracle._operator(packing, M)
        times.append(time.perf_counter() - t0)
    oracle._operator.cache_clear()
    gc.collect()
    tracemalloc.start()
    oracle._operator(packing, M)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    oracle._operator.cache_clear()
    stages = stage_split(packing, M)
    return {
        "group": group, "packing": name, "n": packing.n, **fields, "M": M,
        "order": oracle._rotation_order(packing, M),
        "condition": op.condition,
        "first_call_s": times[0],
        "median_s": statistics.median(times[1:]),
        "min_s": min(times[1:]),
        "repeats": REPEATS,
        "tracemalloc_peak_mb": peak / 1e6,
        "stages_s": stages,
        "kept_bytes": sum(a.nbytes for a in op if isinstance(a, np.ndarray)),
        "residual_table_bytes": op.residual.nbytes,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="key of this run in the output file")
    ap.add_argument("--out", default="BENCH_oracle.json")
    args = ap.parse_args()

    rungs = [time_rung(group, f"equal-gap ring ({n}, {t})", equal_gap_ring(n, t), M,
                       gap_over_radius=t)
             for group, specs in RINGS.items() for n, t, M in specs]
    rungs += [time_rung("other packings", name, make(), M) for name, (make, M) in OTHERS.items()]
    merge_run(args.out, "dtnnet.oracle._operator, cold (cache cleared), in process",
              args.label, {**provenance(), "rungs": rungs})
    for r in rungs:
        print(f"{args.label}: {r['packing']:42s} M = {r['M']:3d}  g = {r['order']:2d}  "
              f"first {r['first_call_s']:.3f} s  median {r['median_s']:.3f} s  "
              f"min {r['min_s']:.3f} s  peak {r['tracemalloc_peak_mb']:.1f} MB  "
              f"kept {r['kept_bytes'] / 1e6:.2f} MB  stages "
              + " ".join(f"{k} {v:.3f}" for k, v in r["stages_s"].items()))


if __name__ == "__main__":
    main()
