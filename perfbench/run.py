"""dtnnet benchmark: closed-loop workloads with result checks and traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``.
``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
the ops untraced, replays them with spans around every call into dtnnet's
public functions, and reports per-layer metrics. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics`` (the metrics and units listed in BENCHMARK.json);
the line before it, ``report {...}``, holds every measured figure and the run
manifest, which also goes to ``.perfbench_out/``. ``--workload all`` runs
each workload in its own process and prints one table. ``--setup-only``
prints the seconds of one cold setup; the untraced run starts it in child
processes for its extra setup_s samples.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracer as tracing  # stdlib only: safe to import before numpy

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("fresh_packings", "mode_sweep", "oracle_batch")
# setup_s is the median of this many cold setups, each the first setup in a
# fresh process (the run's own, then the others in child processes), so every
# sample pays the first-call costs and none can reuse an in-process cache.
SETUP_PROCESSES = 3
MAX_BLAS_THREADS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
P90_MIN_SAMPLES = 100  # fewer ops than this: op_p90_s is reported but flagged
# A run ends at the first input-cycle boundary after --seconds, so every run
# holds whole cycles; it stops mid-cycle only past this multiple of --seconds.
HARD_STOP_FACTOR = 3.0


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _closed_loop(w, seconds: float, n_ops: int | None = None, tracer=None) -> list[dict]:
    """Run ops one after another; see HARD_STOP_FACTOR for when it ends.

    With ``n_ops`` it runs exactly ops 0..n_ops-1 instead (a replay).
    """
    ops = []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if n_ops is not None:
            if i >= n_ops:
                break
        elif elapsed >= seconds and (i % w.cycle_ops == 0 or elapsed >= HARD_STOP_FACTOR * seconds):
            break
        inp = w.prepare(i)
        if tracer is not None:
            tracer.start()
        t0 = time.perf_counter()
        try:
            res, err = w.op(inp), None
        except Exception as exc:  # a failed op is counted, not fatal
            res, err = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        spans = summary = None
        if tracer is not None:
            # Keep only the first op's raw spans; later ops keep their summary,
            # so the replay does not hold millions of span lists.
            spans = tracer.stop()
            summary = tracing.summarize(spans)
            if i > 0:
                spans = None
        if err is None:
            try:
                energies, bad, stats = w.check(inp, res)
            except Exception as exc:
                energies, bad, stats = (), [f"check raised {type(exc).__name__}: {exc}"], {}
        else:
            energies, bad, stats = (), [err], {}
        ops.append({"i": i, "latency": latency, "energies": energies, "failures": bad,
                    "stats": stats, "spans": spans, "summary": summary})
        i += 1
    return ops


def _max_stats(ops) -> dict:
    out: dict = {}
    for o in ops:
        for key, value in o["stats"].items():
            out[key] = max(out.get(key, value), value)
    return out


def _failure_report(ops) -> dict:
    failed = [o for o in ops if o["failures"]]
    return {
        "ops_attempted": len(ops),
        "ops_failed": len(failed),
        "ops_failed_ratio": len(failed) / len(ops),
        "failures_sample": [f"op {o['i']}: {'; '.join(o['failures'])}" for o in failed[:5]],
    }


def _latency_report(ops) -> dict:
    lat = [o["latency"] for o in ops]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    return {
        "op_p50_s": statistics.median(lat),
        "op_p90_s": p90,
        "ops_per_s": len(lat) / sum(lat),
        "op_samples": len(lat),
        "op_p90_counts": len(lat) >= P90_MIN_SAMPLES,
        "first_op_s": lat[0],
    }


def _timed_setup(w) -> float:
    t0 = time.perf_counter()
    w.setup()
    return time.perf_counter() - t0


def _end_to_end(w, args) -> tuple[dict, list]:
    first = _timed_setup(w)
    ops = _closed_loop(w, args.seconds)
    report = {"setup_first_s": first, "setup_warmup_s": w.warmup_s}
    report.update(_latency_report(ops))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["cycles"] = len(ops) / w.cycle_ops
    report.update(_max_stats(ops))
    setups = [first]
    for _ in range(SETUP_PROCESSES - 1):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
        setups.append(float(proc.stdout.split()[-1]))
    report["setup_s"] = statistics.median(setups)
    report["setup_runs_s"] = setups
    return report, ops


def _per_layer(w, seconds: float) -> tuple[dict, list]:
    t = tracing.Tracer()
    with t.installed():
        t.start()
        w.setup()
        setup_spans = t.stop()
    plain = _closed_loop(w, seconds)
    with t.installed():
        traced = _closed_loop(w, seconds, n_ops=len(plain), tracer=t)

    report: dict = {}
    total, _, setup_self, _ = tracing.summarize(setup_spans)
    for layer in tracing.LAYERS:
        report[f"setup.{layer}_s"] = setup_self.get(layer, 0.0)
    for fname in tracing.TRACED["generators"]:
        # Generators run only in setup: these are seconds per setup pass.
        report[f"generators.{fname}_s"] = total.get(f"generators.{fname}", 0.0)

    n = len(traced)
    op_time = sum(o["latency"] for o in traced)
    tail_cut = _latency_report(traced)["op_p90_s"]
    tail_time = sum(o["latency"] for o in traced if o["latency"] >= tail_cut)
    sums, tail, layer_self, cycle_calls = Counter(), Counter(), Counter(), Counter()
    covered = 0.0
    for o in traced:
        tot, cnt, slf, cov = o["summary"]
        covered += cov
        sums.update(tot)
        layer_self.update(slf)
        if o["latency"] >= tail_cut:
            tail.update(tot)
        if o["i"] < w.cycle_ops:
            cycle_calls.update(cnt)
    # Where the slowest tenth of the ops (those at or above op_p90_s) spend
    # their time, per traced function, in percent of their op time.
    report["tail_pct"] = {k: 100.0 * v / tail_time for k, v in sorted(tail.items())}
    for layer, fnames in tracing.TRACED.items():
        if layer == "generators":
            continue
        for fname in fnames:
            report[f"{layer}.{fname}_s"] = sums.get(f"{layer}.{fname}", 0.0) / n
    for layer in tracing.LAYERS:
        report[f"{layer}.self_s"] = layer_self.get(layer, 0.0) / n
        report[f"{layer}.self_pct"] = 100.0 * layer_self.get(layer, 0.0) / op_time
    # The benchmark's own code inside the op, outside every span.
    report["bench.self_pct"] = 100.0 * (op_time - covered) / op_time

    # Counts over the first input cycle, per op; they repeat exactly per seed.
    cyc = min(n, w.cycle_ops)
    report["counts_cover_first_cycle"] = n >= w.cycle_ops
    report["network.solves"] = cycle_calls.get("network.solve_kirchhoff", 0) / cyc
    report["specfun.polylog_half_calls"] = cycle_calls.get("specfun.polylog_half", 0) / cyc
    report["oracle.solves"] = cycle_calls.get("oracle.solve_dirichlet", 0) / cyc
    report["asymptotics.modes"] = cycle_calls.get("asymptotics.regime_classify", 0) / cyc
    report["psi_per_packing"] = w.psi_per_packing
    for key in ("geometry.n", "geometry.n_b", "geometry.edges", "network.laplacian_nnz",
                "oracle.rows", "oracle.unknowns", "oracle.matrix_bytes"):
        report[key] = t.sizes.get(key, 0)  # largest instance in the workload
    stats = _max_stats(traced)
    report["oracle.condition_max"] = stats.get("oracle.condition_max", 0.0)
    report["oracle.residual_max"] = stats.get("oracle.residual_max", 0.0)

    plain_time = sum(o["latency"] for o in plain)
    report["trace.untraced_op_s"] = plain_time / n
    report["trace.traced_op_s"] = op_time / n
    report["trace.overhead_s"] = (op_time - plain_time) / n
    report["trace.overhead_pct"] = 100.0 * (op_time - plain_time) / plain_time
    report["trace.energies_identical"] = all(
        a["energies"] == b["energies"] and a["failures"] == b["failures"]
        for a, b in zip(plain, traced))
    report["first_op_s"] = plain[0]["latency"]
    spans = traced[0]["spans"]
    base = spans[0][1] if spans else 0.0
    report["spans_first_op"] = [[name, t0 - base, t1 - base, parent]
                                for name, t0, t1, parent in spans]
    return report, plain + traced


def _run_one(args) -> int:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy
    import scipy

    import dtnnet
    if not Path(dtnnet.__file__).resolve().is_relative_to(src.resolve()):
        print(f"dtnnet was imported from {dtnnet.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    w = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    try:
        if args.setup_only:
            print(repr(_timed_setup(w)))
            return 0
        if args.trace:
            report, ops = _per_layer(w, args.seconds)
        else:
            report, ops = _end_to_end(w, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.update(_failure_report(ops))
    report["setup_failures"] = list(w.setup_failures)

    manifest = {
        "workload": args.workload,
        "why": next(x["why"] for x in spec["workloads"] if x["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "nproc": _nproc(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "deferred_ladder_rungs": list(workloads.DEFERRED_LADDER_RUNGS),
        "oracle.matrix_bytes": "computed from the collocation matrix shape (float64), not measured",
        "check_bounds": {name: getattr(workloads, name) for name in (
            "E_NET_REL_TOL", "LAMBDA_SYM_TOL", "LAMBDA_ROWSUM_TOL", "CROSS_REL_TOL",
            "ORACLE_RESIDUAL_MAX", "QUAD_FORM_REL_ERR_MAX", "SUM_REL_TOL")},
    }
    correct = not w.setup_failures and report["ops_failed"] == 0
    if args.trace:
        correct = correct and report["trace.energies_identical"]
    result = {
        "correct": correct,
        "attempted": report["ops_attempted"],
        "failed": report["ops_failed"],
        "metrics": {m["name"]: {"value": report[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    full = {"manifest": manifest, "report": report}
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(full, indent=1) + "\n")
    report_line = {k: v for k, v in report.items() if k != "spans_first_op"}
    print("report " + json.dumps({"manifest": manifest, "report": report_line}))
    print(json.dumps(result))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, then one table of the end-to-end figures."""
    rows = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        rows[name] = (json.loads(lines[-2][len("report "):])["report"], json.loads(lines[-1]))
    for name, (report, result) in rows.items():
        print(f"{name}: correct={result['correct']} ops_attempted={report['ops_attempted']} "
              f"ops_failed_ratio={report['ops_failed_ratio']} op_samples={report.get('op_samples')}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:32s} {m['value']:.6g} {m['unit']}")
        for extra in ("quad_form_rel_err_max", "first_op_s", "setup_first_s", "setup_warmup_s",
                      "trace.overhead_pct"):
            if extra in report:
                print(f"  {extra:32s} {report[extra]:.6g}")
    print(json.dumps({name: result for name, (_, result) in rows.items()}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print the seconds of one setup in this process and exit")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dtnnet" / "__init__.py").is_file():
        print(f"no dtnnet sources under {ROOT / 'src'}: run from a full checkout",
              file=sys.stderr)
        return 2
    # Thread counts must be set before numpy loads BLAS.
    threads = str(min(MAX_BLAS_THREADS, _nproc()))
    for var in THREAD_VARS:
        os.environ[var] = threads
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
