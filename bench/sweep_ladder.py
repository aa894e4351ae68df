"""Time `dtnnet sweep --k-from 1 --k-to 100` in process on the grid ladder.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python bench/sweep_ladder.py --label change
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<other checkout>/src \
        python bench/sweep_ladder.py --label parent

On a shared 2-core machine, two BLAS threads spread the 1789-disk rung's
``dtnnet sweep`` calls over 48-148 ms in one process, and one thread over
38-62 ms, so compare two checkouts with the same, recorded, thread count.

Each run times ``dtnnet.cli.main`` on the hexagonal grids of 61, 265, 1789
and 7291 disks (L = 1, gap/R = 0.2): the first call, then five more, and
records their median and minimum. Every call loads the packing,
runs the geometry, builds the network and writes the CSV, as the command
line does. Then, in process (median of five): ``geometry.analyze``, each time
on a fresh ``Packing`` of the same disks, so that no array a packing keeps
carries over from an earlier call; on the analysed grid ``build_network``,
and on each new network the first ``total_energy`` (cos theta), which builds
what the network keeps for every later energy, then ``cosine_sweep`` of
k = 1..100 and of k = 0..20000 (``warm_wide_sweep_s``, 157 blocks of 128
modes),
``total_energy`` of each cos k theta, k = 1..128, one call each,
and of 128 psi of K <= 4 with normal coefficients from ``LOW_K_SEED`` (the two
halves of the op mix of perfbench's ``mode_sweep``), ``dtn_matrix``,
``interior_gap_energy`` of cos theta on the boundary inclusions and
``total_energy_decomposed(5)`` on that warm network. After these, ``kept_bytes``
records what the warm packing keeps: the network's boundary map (``network``:
the Cholesky factor T of its grounded Lambda_net, the grounding indices, and
Lambda_net itself where the imported dtnnet keeps it), the analysis's Li_{1/2}
resonance table (``resonance_table``) and the resonance matrix the network keeps
(``resonance_matrix``, 0 where the imported dtnnet keeps none).
Before the first rung the process runs the sweep of every rung in turn,
unrecorded, for at least ``WARM_UP_S`` seconds, so that each first call reads
the code rather than a machine waking from an idle pause: on a 2-core machine,
with only the smallest rung warmed, the 1789-disk rung's first call still took
1.1 s, where later calls took 0.04-0.1 s.
The result is merged into ``--out`` under ``--label``, so two checkouts
measured one after the other share one file. It records the thread variables,
the Python, numpy and scipy versions, and the git commit of the dtnnet that
was imported (with a hash of its sources, since a working tree can differ
from its commit).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import tempfile
import time

import numpy as np

import dtnnet
from dtnnet import asymptotics, cli, generators, geometry, network
from dtnnet.asymptotics import FourierPotential

LADDER = {61: (0.1, 0.02), 265: (0.05, 0.01), 1789: (0.02, 0.004), 7291: (0.01, 0.002)}
REPEATS = 5
LOW_K_SEED = 5
WIDE_SWEEP_K = 20000  # warm_wide_sweep_s sweeps k = 0..WIDE_SWEEP_K
WARM_UP_S = 2.0  # unrecorded sweeps of all rungs before the first is timed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _git(src: str, *args: str) -> str:
    try:
        out = subprocess.run(["git", "-C", src, *args], capture_output=True, text=True,
                             check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _source(pkg_dir: str) -> dict:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            with open(os.path.join(pkg_dir, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "commit": _git(pkg_dir, "rev-parse", "HEAD"),
        "dirty": _git(pkg_dir, "status", "--porcelain", "--", ".") not in ("", "unknown"),
        "sources_sha256": digest.hexdigest(),
    }


def rung(n: int, workdir: str) -> tuple[geometry.Packing, list[str]]:
    """The n-disk grid, saved in workdir, and the ``dtnnet sweep`` arguments on it."""
    packing = generators.grid_packing(*LADDER[n])
    assert packing.n == n, (packing.n, n)
    path = os.path.join(workdir, f"grid{n}.json")
    geometry.save_packing(packing, path)
    return packing, ["sweep", "--packing", path, "--k-from", "1", "--k-to", "100",
                     "--out", os.path.join(workdir, f"grid{n}.csv")]


def sweep(argv: list[str]) -> float:
    """Seconds of one ``dtnnet sweep`` through ``cli.main``."""
    t0 = time.perf_counter()
    if cli.main(argv) != 0:
        raise RuntimeError(f"sweep failed: {argv}")
    return time.perf_counter() - t0


def time_grid(n: int, workdir: str) -> dict:
    packing, argv = rung(n, workdir)
    times = [sweep(argv) for _ in range(REPEATS + 1)]
    return {
        "n": n,
        "n_b": geometry.analyze(packing).boundary_count,
        "first_call_s": times[0],
        "median_s": statistics.median(times[1:]),
        "min_s": min(times[1:]),
        "repeats": REPEATS,
        "analyze_s": time_analyze(packing),
        **time_network(geometry.analyze(packing)),
    }


def time_analyze(packing) -> float:
    """Median seconds of ``geometry.analyze`` on a fresh copy of the packing."""
    times = []
    for _ in range(REPEATS):
        fresh = geometry.Packing(packing.L, packing.inclusions)
        t0 = time.perf_counter()
        geometry.analyze(fresh)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def time_network(analysis) -> dict:
    """Median seconds of a network build, of the first energy on the new
    network, then of a warm 100-mode and a warm k = 0..WIDE_SWEEP_K cosine sweep,
    128 single-cosine energies, 128 energies of K <= 4, dtn_matrix, interior gap
    energy and k = 5 energy decomposition on it."""
    stages = {"first_energy_s": [], "warm_sweep_s": [], "warm_wide_sweep_s": [],
              "warm_energies_s": [],
              "warm_low_k_energies_s": [], "warm_dtn_matrix_s": [],
              "interior_gap_energy_s": [], "decomposed_s": []}
    builds = []
    u_gamma = np.cos(analysis.boundary_angles)
    cosines = [FourierPotential.single_cos(k) for k in range(1, 129)]
    rng = np.random.default_rng(LOW_K_SEED)
    low_k = []
    for K in rng.integers(1, 5, size=128).tolist():
        cos, sin = rng.standard_normal((2, K + 1))
        sin[0] = 0.0
        low_k.append(FourierPotential(cos, sin))
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        net = network.build_network(analysis)
        builds.append(time.perf_counter() - t0)
        for times, call in zip(stages.values(), (
                lambda: asymptotics.total_energy(FourierPotential.single_cos(1), analysis, net),
                lambda: list(asymptotics.cosine_sweep(np.arange(1, 101), analysis, net)),
                lambda: list(asymptotics.cosine_sweep(np.arange(WIDE_SWEEP_K + 1), analysis,
                                                      net)),
                lambda: [asymptotics.total_energy(psi, analysis, net) for psi in cosines],
                lambda: [asymptotics.total_energy(psi, analysis, net) for psi in low_k],
                lambda: network.dtn_matrix(net),
                lambda: network.interior_gap_energy(net, u_gamma),
                lambda: asymptotics.total_energy_decomposed(5, analysis, net))):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
    kept = {"network": net._boundary_map,
            "resonance_table": [analysis._resonance_factor],
            "resonance_matrix": getattr(net, "_resonance_matrix", (None,))[1:]}
    return {**{k: statistics.median(v) for k, v in {"build_network_s": builds, **stages}.items()},
            "kept_bytes": {k: sum(a.nbytes for a in v) for k, v in kept.items()}}


def provenance() -> dict:
    """The imported dtnnet's commit and source hash, the versions and the thread variables."""
    return {
        "source": _source(os.path.dirname(dtnnet.__file__)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def merge_run(path: str, command: str, label: str, run: dict) -> None:
    """Store run under runs[label] in the JSON file at path, keeping the other labels."""
    doc = {"command": command, "runs": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["runs"][label] = run
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="key of this run in the output file")
    ap.add_argument("--out", default="BENCH_sweep.json")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as workdir:
        argvs, start = [rung(n, workdir)[1] for n in LADDER], time.perf_counter()
        while time.perf_counter() - start < WARM_UP_S:
            for argv in argvs:
                sweep(argv)
        grids = [time_grid(n, workdir) for n in LADDER]
    merge_run(args.out, "dtnnet sweep --k-from 1 --k-to 100 (in process)", args.label,
              {**provenance(), "grids": grids})
    for g in grids:
        print(f"{args.label}: n = {g['n']:5d}  first {g['first_call_s']:.3f} s  "
              f"median {g['median_s']:.3f} s  min {g['min_s']:.3f} s  "
              f"analyze {g['analyze_s']:.4f} s  "
              f"build_network {g['build_network_s']:.4f} s  "
              f"first energy {g['first_energy_s']:.4f} s  warm sweep {g['warm_sweep_s']:.4f} s  "
              f"warm wide sweep {g['warm_wide_sweep_s']:.4f} s  "
              f"warm energies {g['warm_energies_s']:.4f} s  "
              f"warm low-k energies {g['warm_low_k_energies_s']:.4f} s  "
              f"warm dtn_matrix {g['warm_dtn_matrix_s']:.4f} s  "
              f"interior gap energy {g['interior_gap_energy_s']:.4f} s  "
              f"decomposed {g['decomposed_s']:.4f} s  kept bytes {g['kept_bytes']}")


if __name__ == "__main__":
    main()
