"""Peak RSS of perfbench workloads against their op count, each run in a fresh process.

    python bench/rss_probe.py --src parent=<other checkout>/src --src change=src

For each workload (``oracle_batch``, and ``mode_sweep`` as a control that never
calls the oracle) and each op count N (1 400 and 5 600), one fresh process per
``--src`` imports as ``perfbench/run.py`` does (run.py's own imports, the thread
variables it sets, then that ``src`` first on the path and ``workloads``), runs
``setup()`` with seed 1 and then ops 0..N-1 through run.py's ``_closed_loop``,
which keeps every op's record as a timed run does. It reads ``ru_maxrss`` after
the setup, as the second input cycle starts (a wrapper around the workload's
``prepare``) and at the end; the slope is the growth from the second to the last
reading per op, in KB. ``ops_per_s`` is the op count over the summed op latencies,
as perfbench reports it. The sides alternate, the first side swapping at every
(workload, N), over ``--rounds`` rounds. perfbench itself is imported, not edited.
Each side's runs are merged into ``--out`` under its label, with the provenance
fields of ``sweep_ladder.py`` for its sources.
"""

import argparse
import json
import os
import resource
import runpy
import shutil
import statistics
import subprocess
import sys
import time

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
WORKLOADS = ("oracle_batch", "mode_sweep")
N_OPS = (1400, 5600)
SEED = 1


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child(workload: str, src: str, n_ops: int) -> dict:
    """ru_maxrss of one replay of ops 0..n_ops-1 in this process."""
    sys.path.insert(0, PERFBENCH)  # where run.py finds tracer and workloads
    run = runpy.run_path(os.path.join(PERFBENCH, "run.py"), run_name="perfbench_run")
    threads = str(min(run["MAX_BLAS_THREADS"], run["_nproc"]()))
    for var in run["THREAD_VARS"]:
        os.environ[var] = threads
    sys.path.insert(0, src)
    import workloads

    run["OUT_DIR"].mkdir(exist_ok=True)
    workdir = run["OUT_DIR"] / f"rss-{workload}-{os.getpid()}"
    w = workloads.WORKLOADS[workload](SEED, str(workdir))
    try:
        w.setup()
        rss = [_rss_mb()]
        prepare = w.prepare

        def prepared(i):
            if i == w.cycle_ops:
                rss.append(_rss_mb())
            return prepare(i)

        w.prepare = prepared
        t0 = time.perf_counter()
        ops = run["_closed_loop"](w, 0.0, n_ops=n_ops)
        wall = time.perf_counter() - t0
        rss.append(_rss_mb())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": workload,
        "n_ops": n_ops,
        "cycle_ops": w.cycle_ops,
        "rss_after_setup_mb": rss[0],
        "rss_after_first_cycle_mb": rss[1],
        "rss_end_mb": rss[2],
        "slope_kb_per_op": (rss[2] - rss[1]) * 1024.0 / (n_ops - w.cycle_ops),
        "ops_per_s": n_ops / sum(o["latency"] for o in ops),
        "wall_s": wall,
        "ops_failed": sum(bool(o["failures"]) for o in ops),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", action="append", metavar="LABEL=PATH",
                    help="a label and the src directory of the dtnnet it measures")
    ap.add_argument("--out", default="BENCH_rss.json")
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--child", nargs=3, metavar=("WORKLOAD", "SRC", "N"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        workload, src, n_ops = args.child
        print(json.dumps(child(workload, src, int(n_ops))))
        return
    if not args.src:
        ap.error("give at least one --src LABEL=PATH")
    sides = [(label, os.path.abspath(path)) for label, path in (s.split("=", 1) for s in args.src)]

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from sweep_ladder import _source, merge_run, provenance

    runs = {label: [] for label, _ in sides}
    turn = 0
    for round_ in range(args.rounds):
        for workload in WORKLOADS:
            for n_ops in N_OPS:
                order = sides[turn % 2 :] + sides[: turn % 2]
                turn += 1
                for position, (label, src) in enumerate(order):
                    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--child",
                                          workload, src, str(n_ops)],
                                         capture_output=True, text=True, check=True)
                    r = json.loads(out.stdout.strip().splitlines()[-1])
                    runs[label].append({**r, "round": round_, "position": position})
                    print(f"{label:8s} {workload:12s} N = {n_ops:5d}  setup "
                          f"{r['rss_after_setup_mb']:.1f} MB  first cycle "
                          f"{r['rss_after_first_cycle_mb']:.1f} MB  end {r['rss_end_mb']:.1f} MB"
                          f"  {r['slope_kb_per_op']:.2f} KB/op  {r['ops_per_s']:.1f} ops/s  "
                          f"failed {r['ops_failed']}", flush=True)
    for label, src in sides:
        slopes = {w: statistics.median(r["slope_kb_per_op"] for r in runs[label]
                                       if r["workload"] == w) for w in WORKLOADS}
        merge_run(args.out, "perfbench/run.py _closed_loop replay of N ops, one fresh process "
                  "each, ru_maxrss", label,
                  {**provenance(), "source": _source(os.path.join(src, "dtnnet")), "seed": SEED,
                   "median_slope_kb_per_op": slopes, "processes": runs[label]})


if __name__ == "__main__":
    main()
