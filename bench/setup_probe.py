"""Time cold perfbench workload setups, each in a fresh process, and see where the
full (generation-2) garbage collections fall.

    PYTHONPATH=src python bench/setup_probe.py --label change
    PYTHONPATH=<other checkout>/src python bench/setup_probe.py --label parent

Each of ``--processes`` fresh processes (16 by default, one after the other)
for each ``--workload`` (``fresh_packings`` and ``oracle_batch`` by default)
imports as ``perfbench/run.py --setup-only`` does: run.py's own imports, then
the thread variables, then numpy, scipy, the dtnnet imported here (its ``src``
first on the path) and ``workloads``. It then times one ``setup()`` of the
workload, seed 1. A ``gc.callbacks`` probe, installed before any of those
imports, notes the start and stop of every generation-2 collection, so the
record says whether one fell inside the import or inside the setup, and how
long it took. It also keeps ``gc.get_count()`` when the setup starts (the
third count is the generation-1 collections since the last full one, which
runs when it passes the third threshold) and the collections of each
generation inside the setup. The sorted setup seconds are split at their
largest gap into fast and slow processes. The result is merged into ``--out``
under ``--label``, with the provenance fields of ``sweep_ladder.py``.
"""

import gc
import time

# Installed first, so that the collections of every later import are seen.
_START = time.perf_counter()
_GEN2: list = []  # (phase, perf_counter) of each generation-2 start and stop
gc.callbacks.append(
    lambda phase, info: info["generation"] == 2 and _GEN2.append((phase, time.perf_counter())))

import argparse  # noqa: E402  (after the probe)
import json  # noqa: E402
import os  # noqa: E402
import runpy  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
WORKLOADS = ("fresh_packings", "oracle_batch")
SEED = 1


def child(workload: str, src: str) -> dict:
    """One cold setup in this process, imported as ``perfbench/run.py`` imports."""
    sys.path.insert(0, PERFBENCH)  # where run.py finds tracer and workloads
    run = runpy.run_path(os.path.join(PERFBENCH, "run.py"), run_name="perfbench_run")
    threads = str(min(run["MAX_BLAS_THREADS"], run["_nproc"]()))
    for var in run["THREAD_VARS"]:
        os.environ[var] = threads
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import dtnnet  # noqa: F401
    import workloads

    with open(run["ROOT"] / "BENCHMARK.json", encoding="utf-8") as fh:
        json.load(fh)
    run["OUT_DIR"].mkdir(exist_ok=True)
    workdir = run["OUT_DIR"] / f"probe-{workload}-{os.getpid()}"
    w = workloads.WORKLOADS[workload](SEED, str(workdir))
    before = [s["collections"] for s in gc.get_stats()]
    count = gc.get_count()
    t0 = time.perf_counter()
    try:
        w.setup()
        t1 = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    after = [s["collections"] for s in gc.get_stats()]
    full = [(a, b) for (pa, a), (pb, b) in zip(_GEN2[::2], _GEN2[1::2])
            if (pa, pb) == ("start", "stop")]
    return {
        "import_s": t0 - _START,
        "setup_s": t1 - t0,
        "warmup_s": w.warmup_s,
        "gen2_in_import_s": [b - a for a, b in full if b <= t0],
        "gen2_in_setup_s": [b - a for a, b in full if t0 <= a <= t1],
        "count_at_setup": list(count),
        "threshold": list(gc.get_threshold()),
        "collections_in_setup": [a - b for a, b in zip(after, before)],
    }


def split(seconds: list) -> dict:
    """The sorted seconds cut at their largest gap: the fast and the slow processes."""
    s = sorted(seconds)
    cut = max(range(1, len(s)), key=lambda i: s[i] - s[i - 1]) if len(s) > 1 else len(s)
    return {"fast": cut, "slow": len(s) - cut, "fast_max_s": s[cut - 1] if cut else None,
            "slow_min_s": s[cut] if cut < len(s) else None}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", help="key of this run in the output file")
    ap.add_argument("--out", default="BENCH_setup.json")
    ap.add_argument("--processes", type=int, default=16)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--child", nargs=2, metavar=("WORKLOAD", "SRC"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(child(*args.child)))
        return
    if not args.label:
        ap.error("--label is required")

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from sweep_ladder import merge_run, provenance

    import dtnnet
    src = os.path.dirname(os.path.dirname(os.path.abspath(dtnnet.__file__)))
    run = {**provenance(), "processes": args.processes, "seed": SEED, "workloads": {}}
    for workload in args.workload or WORKLOADS:
        procs = []
        for _ in range(args.processes):
            out = subprocess.run([sys.executable, os.path.abspath(__file__), "--child",
                                  workload, src], capture_output=True, text=True, check=True)
            procs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        seconds = [p["setup_s"] for p in procs]
        run["workloads"][workload] = {
            "setup_s_median": statistics.median(seconds),
            "setup_s_sorted": sorted(seconds),
            "split": split(seconds),
            "processes_with_gen2_in_import": sum(bool(p["gen2_in_import_s"]) for p in procs),
            "processes_with_gen2_in_setup": sum(bool(p["gen2_in_setup_s"]) for p in procs),
            "runs": procs,
        }
        r = run["workloads"][workload]
        print(f"{args.label}: {workload:15s} setup median {r['setup_s_median'] * 1e3:.1f} ms  "
              f"range {min(seconds) * 1e3:.1f}-{max(seconds) * 1e3:.1f} ms  "
              f"split {r['split']['fast']} fast / {r['split']['slow']} slow  gen-2 in "
              f"import {r['processes_with_gen2_in_import']}, in setup "
              f"{r['processes_with_gen2_in_setup']} of {len(procs)}")
    merge_run(args.out, "perfbench workload setup(), cold, one per fresh process", args.label,
              run)


if __name__ == "__main__":
    main()
