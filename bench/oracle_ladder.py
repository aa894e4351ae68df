"""Time a cold build of the collocation oracle's operator on a ladder of packings.

    PYTHONPATH=src python bench/oracle_ladder.py --label change
    PYTHONPATH=<other checkout>/src python bench/oracle_ladder.py --label parent \
        --skip "grid_packing(0.1, 0.02) M=48"

Each packing's operator (``dtnnet.oracle._operator``: the factor of the
system for every mode, the residual's tail tables and the DtN matrix) is built once
as the first call of the process for that packing, then three more times
with the cache cleared (none more for the grid at M = 32 and 48); the median
and minimum of those are recorded. On the last, cached operator,
``warm_solve_s`` is the median of 50 ``solve_dirichlet`` calls of each of
cos theta, cos 2 theta and cos 4 theta (150 calls; the median of each psi's 50
is kept too): the solution, the energy and the boundary residual of one psi on
an operator already factored. For the same three psi, ``bound`` is the
boundary residual and ``sampled_max`` the largest error at 4096 equally spaced
points of every circle, summed from the operator's coefficients. One more build
under ``tracemalloc`` gives its traced peak. One more cold build times its
stages: the factor, the tail table and the flux projection, each a function of
``dtnnet.oracle`` wrapped with a timer for that build, and the rest. Inside the factor it also
times the assembly of the blocks (``_block``), the LAPACK ``gesv`` and ``gecon`` calls
and the back-transform of their solutions (``_unblock``); ``factor_rest`` is the rest of
the factor (the blocks' 1-norms, and assembly and back-transform where the factor does
them in its own body). Wherever the build makes it, it times the closed-form coefficient
table (``_binomial_table``). A part the imported dtnnet does not call or define reads 0
(an operator without ``_tail_table`` spends its residual table's time in the rest). The
record gives
the bytes of the arrays the operator keeps, and of its tail tables alone (None
without them). The rungs are rings with equal gaps t R between neighbours and
to the outer circle (L = 1): the seven ``oracle_batch`` rings of ``perfbench``
at their smallest gap, criterion 4's three 16-disk rings and criterion 5's
4-disk ring; then a 20-disk random packing and the 61-disk grid at M = 16, 32
and 48, which have no rotation symmetry, and a two-ring packing of rotation
order 4. Each record gives the order g of the blocks the factor uses (g = 1:
one dense solve). Last, criterion 5's one-psi solve, ``solve_dirichlet`` of
cos 250 theta at M = 258 as the first call for its packing, which builds the
solution of all 2M + 1 = 517 outer-trace modes. ``--skip`` leaves out a rung
by name (``packing M=M``) and records it as skipped. The result is merged
into ``--out`` under ``--label``, with the provenance fields of
``sweep_ladder.py``.
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
from dtnnet.asymptotics import FourierPotential, _mode_vector, _modes
from dtnnet.geometry import Packing

# (disks, gap/R, truncation M)
RINGS = {
    "oracle_batch": ((16, 0.02, 48), (8, 0.08, 24), (12, 0.05, 32), (8, 0.02, 48),
                     (16, 0.08, 24), (12, 0.08, 24), (8, 0.05, 32)),
    "criterion 4": ((16, 0.1, 48), (16, 0.05, 64), (16, 0.02, 96)),
    "criterion 5": ((4, 0.05, 258),),
}
REPEATS = 3
WARM_SOLVES = 50  # solve_dirichlet calls of each warm psi on the cached operator
WARM_KS = (1, 2, 4)  # the cosines of perfbench's oracle_batch
# Build stage: the dtnnet.oracle function that does it (looked up when called).
STAGES = {"factor": "_orbit_factor", "tail_table": "_tail_table",
          "flux_projection": "_flux_projection"}
# Parts of the build: (module, function) pairs timed while it runs.
FACTOR_PARTS = {"binomial_table": ((oracle, "_binomial_table"),), "assembly": ((oracle, "_block"),),
                "back_transform": ((oracle, "_unblock"),)}


def equal_gap_ring(n: int, t: float) -> Packing:
    s = math.sin(math.pi / n)
    R = s / (1.0 + s + t * (s + 0.5))
    return generators.ring_packing(n, 1.0 - R - t * R, R, 1.0)


def two_rings() -> Packing:
    """12 disks at radius 0.8 and 4 at 0.35 (R = 0.1), listed [o0, o1, o2, i0, o3, ...]."""
    outer = generators.ring_packing(12, 0.8, 0.1, 1.0).inclusions
    inner = generators.ring_packing(4, 0.35, 0.1, 1.0).inclusions
    return Packing(1.0, sum((outer[3 * k : 3 * k + 3] + inner[k : k + 1] for k in range(4)), ()))


OTHERS = (  # (name, packing, M, repeats)
    ("random_packing(20, 0.08, 0.01, seed=1)",
     lambda: generators.random_packing(20, 0.08, 0.01, seed=1), 32, REPEATS),
    ("grid_packing(0.1, 0.02)", lambda: generators.grid_packing(0.1, 0.02), 16, REPEATS),
    ("grid_packing(0.1, 0.02)", lambda: generators.grid_packing(0.1, 0.02), 32, 0),
    ("grid_packing(0.1, 0.02)", lambda: generators.grid_packing(0.1, 0.02), 48, 0),
    ("two rings: 12 at 0.8, 4 at 0.35, R = 0.1", two_rings, 24, REPEATS),
)


def sampled_max(packing: Packing, op, C: np.ndarray, N: int = 4096) -> np.ndarray:
    """The largest error of the solutions of the mode vectors C (columns) at N points of
    every circle: the potential a_0 + Re sum_l (a_l - i b_l) (z/L)^l + Re sum_{k,m}
    (c_km + i d_km) (R_k/(z - c_k))^m against psi on |z| = L and U_k on disk k."""
    n, M = packing.n, (C.shape[0] - 1) // 2
    n_basis = (2 * M + 1) + 2 * M * n
    coeffs = op.coeffs @ C
    domain = coeffs[1 : M + 1] - 1j * coeffs[M + 1 : 2 * M + 1]
    inc = coeffs[2 * M + 1 : n_basis].reshape(n, 2, M, -1)
    inc = (inc[:, 0] + 1j * inc[:, 1]).reshape(n * M, -1)
    c, radii = packing.centers() @ np.array([1.0, 1j]), packing.radii()
    t = np.linspace(0.0, 2.0 * math.pi, N, endpoint=False)
    circles = [(0.0, packing.L, _modes(t, M) @ C)]
    circles += [(c[k], radii[k], coeffs[n_basis + k]) for k in range(n)]
    worst = np.zeros(C.shape[1])
    for centre, radius, target in circles:
        for a in range(0, N, 512):  # 512 points at a time: the 61-disk powers take 24 MB
            z = centre + radius * np.exp(1j * t[a : a + 512])
            powers = [np.cumprod(np.repeat(w[..., None], M, -1), -1)
                      for w in (z / packing.L, radii / (z[:, None] - c))]
            u = powers[0] @ domain + powers[1].reshape(z.size, n * M) @ inc
            y = target[a : a + 512] if target.ndim == 2 else target
            worst = np.maximum(worst, np.abs(coeffs[0] + u.real - y).max(0))
    return worst


def stage_split(packing: Packing, M: int) -> tuple[dict, dict]:
    """Seconds of each stage of one cold build and of the rest of the build,
    and of the parts of the factor."""
    spent, parts, saved = {}, dict.fromkeys([*FACTOR_PARTS, "gesv_gecon"], 0.0), []

    def timed(out, stage, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                out[stage] = out.get(stage, 0.0) + time.perf_counter() - t0
        return wrapper

    def lapack(names, arrays):  # the LAPACK functions of one block, timed
        return tuple(timed(parts, "gesv_gecon", fn) for fn in saved_lapack(names, arrays))

    targets = [(oracle, name, timed(spent, stage, getattr(oracle, name)))
               for stage, name in STAGES.items() if hasattr(oracle, name)]
    targets += [(module, name, timed(parts, part, getattr(module, name)))
                for part, fns in FACTOR_PARTS.items() for module, name in fns
                if hasattr(module, name)]
    if hasattr(oracle, "get_lapack_funcs"):
        saved_lapack = oracle.get_lapack_funcs
        targets.append((oracle, "get_lapack_funcs", lapack))
    for module, name, wrapper in targets:
        saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)
    try:
        oracle._operator.cache_clear()
        t0 = time.perf_counter()
        oracle._operator(packing, M)
        total = time.perf_counter() - t0
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)
        oracle._operator.cache_clear()
    parts["factor_rest"] = spent.get("factor", 0.0) - sum(
        parts[p] for p in ("assembly", "gesv_gecon", "back_transform"))
    return {**spent, "rest": total - sum(spent.values()), "total": total}, parts


def time_rung(group: str, name: str, packing: Packing, M: int, repeats: int = REPEATS,
              **fields) -> dict:
    times = []
    for _ in range(repeats + 1):
        oracle._operator.cache_clear()
        t0 = time.perf_counter()
        op = oracle._operator(packing, M)
        times.append(time.perf_counter() - t0)
    warm = {}
    for k in WARM_KS:
        psi, warm[f"cos {k} theta"] = FourierPotential.single_cos(k), []
        for _ in range(WARM_SOLVES):
            t0 = time.perf_counter()
            oracle.solve_dirichlet(packing, psi, M)
            warm[f"cos {k} theta"].append(time.perf_counter() - t0)
    C = np.stack([_mode_vector(FourierPotential.single_cos(k), M) for k in WARM_KS], 1)
    bound = {f"cos {k} theta": oracle.solve_dirichlet(packing, FourierPotential.single_cos(k),
                                                        M).boundary_residual for k in WARM_KS}
    sampled = dict(zip(bound, sampled_max(packing, op, C).tolist()))
    oracle._operator.cache_clear()
    gc.collect()
    tracemalloc.start()
    oracle._operator(packing, M)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    oracle._operator.cache_clear()
    stages, parts = stage_split(packing, M)
    return {
        "group": group, "packing": name, "n": packing.n, **fields, "M": M,
        "order": op.order,
        "condition": op.condition,
        "first_call_s": times[0],
        "median_s": statistics.median(times[1:]) if repeats else None,
        "min_s": min(times[1:]) if repeats else None,
        "repeats": repeats,
        "warm_solve_s": statistics.median(t for ts in warm.values() for t in ts),
        "warm_solve_by_psi_s": {psi: statistics.median(ts) for psi, ts in warm.items()},
        "tracemalloc_peak_mb": peak / 1e6,
        "stages_s": stages,
        "factor_parts_s": parts,
        "kept_bytes": sum(a.nbytes for a in op if isinstance(a, np.ndarray)),
        "tail_table_bytes": (op.outer_tail.nbytes + op.disk_tail.nbytes
                             if hasattr(op, "outer_tail") else None),
        "bound": bound,
        "sampled_max": sampled,
    }


def one_psi_solve() -> dict:
    """Criterion 5's solve_dirichlet of one psi, the first call for its packing."""
    n, t, M = RINGS["criterion 5"][0]
    packing, psi = equal_gap_ring(n, t), FourierPotential.single_cos(M - 8)
    oracle._operator.cache_clear()
    t0 = time.perf_counter()
    sol = oracle.solve_dirichlet(packing, psi, M)
    return {"packing": f"equal-gap ring ({n}, {t})", "M": M, "psi": f"cos {M - 8} theta",
            "right_hand_sides": 2 * M + 1, "first_call_s": time.perf_counter() - t0,
            "energy_ratio": 2.0 * sol.energy / ((M - 8) * math.pi)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="key of this run in the output file")
    ap.add_argument("--out", default="BENCH_oracle.json")
    ap.add_argument("--skip", action="append", default=[], help="rung to leave out: 'packing M=M'")
    args = ap.parse_args()

    specs = [(group, f"equal-gap ring ({n}, {t})", lambda n=n, t=t: equal_gap_ring(n, t), M,
              REPEATS, {"gap_over_radius": t})
             for group, rings in RINGS.items() for n, t, M in rings]
    specs += [("other packings", name, make, M, repeats, {})
              for name, make, M, repeats in OTHERS]
    rungs, skipped = [], []
    for group, name, make, M, repeats, fields in specs:
        if f"{name} M={M}" in args.skip:
            skipped.append(f"{name} M={M}")
        else:
            rungs.append(time_rung(group, name, make(), M, repeats, **fields))
    one_psi = one_psi_solve()
    merge_run(args.out, "dtnnet.oracle._operator, cold (cache cleared), in process",
              args.label, {**provenance(), "rungs": rungs, "skipped": skipped,
                           "criterion_5_one_psi": one_psi})
    for r in rungs:
        print(f"{args.label}: {r['packing']:42s} M = {r['M']:3d}  g = {r['order']:2d}  "
              f"first {r['first_call_s']:.3f} s  median {r['median_s'] or 0.0:.3f} s  "
              f"warm psi {r['warm_solve_s'] * 1e6:.0f} us  "
              f"peak {r['tracemalloc_peak_mb']:.1f} MB  "
              f"kept {r['kept_bytes'] / 1e6:.2f} MB  bound/sampled "
              + " ".join(f"{r['bound'][k] / r['sampled_max'][k]:.4f}" for k in r["bound"])
              + "  stages "
              + " ".join(f"{k} {v:.3f}" for k, v in {**r["stages_s"],
                                                      **r["factor_parts_s"]}.items()))
    print(f"{args.label}: skipped {skipped}; criterion 5, one psi: "
          f"{one_psi['first_call_s']:.3f} s for {one_psi['right_hand_sides']} right-hand sides")


if __name__ == "__main__":
    main()
