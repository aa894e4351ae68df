"""Self-test of the benchmark (about two minutes).

    python3 -m pytest -q perfbench/selftest.py

It runs every workload briefly through the benchmark's command, checks that
each metric BENCHMARK.json names is printed with its unit, that another seed
changes the inputs but not the metric set, and that a perturbed result is
counted as a failed op.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from dtnnet import generators, oracle  # noqa: E402
from dtnnet.asymptotics import FourierPotential  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str) -> list[str]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def _assert_result(result: dict, trace: int) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_emits_every_metric_with_its_unit(trace):
    lines = _bench("--workload", "all", "--seed", "1", "--seconds", "1", "--trace", str(trace))
    results = json.loads(lines[-1])
    assert list(results) == [w["name"] for w in SPEC["workloads"]]
    for result in results.values():
        _assert_result(result, trace)
    if not trace:
        for metric in [m["name"] for m in SPEC["end_to_end"]] + ["quad_form_rel_err_max"]:
            assert any(line.split()[:1] == [metric] for line in lines), metric


def test_single_workload_prints_report_then_result():
    lines = _bench("--workload", "fresh_packings", "--seed", "2", "--seconds", "1", "--trace", "0")
    report = json.loads(lines[-2][len("report "):])
    assert report["manifest"]["seed"] == 2
    assert report["report"]["ops_failed_ratio"] == 0.0
    setups = report["report"]["setup_runs_s"]
    assert len(setups) == run.SETUP_PROCESSES
    assert report["report"]["setup_first_s"] == setups[0]
    _assert_result(json.loads(lines[-1]), 0)


def _inputs(cls, seed: int, tmp_path) -> list:
    w = cls(seed, str(tmp_path / f"{cls.name}-{seed}"))
    if cls is workloads.FreshPackings:
        w.setup()
        return [Path(w.prepare(i)["argv"][2]).read_text() + " ".join(w.prepare(i)["argv"][3:])
                for i in range(cls.cycle_ops)]
    if cls is workloads.ModeSweep:
        return [(tuple(p.cos_coeffs), tuple(p.sin_coeffs))
                for p in map(w.prepare, range(cls.cycle_ops))]
    w._rings = {}
    return [repr(w.prepare(i)["ring"]["packing"]) for i in range(cls.cycle_ops)]


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_another_seed_changes_the_inputs(cls, tmp_path):
    a, b, a2 = (_inputs(cls, s, tmp_path) for s in (1, 2, 1))
    assert a == a2
    assert a != b


def test_perturbed_energy_counts_as_failed_op(monkeypatch):
    w = workloads.ModeSweep(1, "")
    w.setup()
    assert run._closed_loop(w, 0.0, n_ops=4)[0]["failures"] == []
    real = workloads.asymptotics.net_energy
    monkeypatch.setattr(workloads.asymptotics, "net_energy",
                        lambda net, psi: real(net, psi) * (1.0 + 1e-6))
    ops = run._closed_loop(w, 0.0, n_ops=4)
    assert all(o["failures"] for o in ops)
    assert run._failure_report(ops)["ops_failed_ratio"] == 1.0


def test_perturbed_cli_output_counts_as_failed_op(tmp_path):
    w = workloads.FreshPackings(1, str(tmp_path / "fresh"))
    w.setup()
    inp = w.prepare(1)  # the 31-disk rung
    code = w.op(inp)
    assert w.check(inp, code)[1] == []
    out = json.loads(Path(inp["out"]).read_text())
    out["E_ref"] *= 1.0 + 1e-9
    Path(inp["out"]).write_text(json.dumps(out))
    assert w.check(inp, code)[1] != []


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mode_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_oracle_size_formula_matches_the_collocation_matrix(monkeypatch):
    shapes = []
    real = np.linalg.lstsq

    def spy(A, b, **kwargs):
        shapes.append((A.shape, A.nbytes))
        return real(A, b, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    packing = generators.ring_packing(5, 0.6, 0.2, 1.0)
    psi = FourierPotential.single_cos(2)
    sizes = Counter()
    tracer.SIZE_HOOKS["oracle.solve_dirichlet"](sizes, (packing, psi, 12), {}, None)
    oracle.solve_dirichlet(packing, psi, 12)
    assert shapes == [((sizes["oracle.rows"], sizes["oracle.unknowns"]),
                       sizes["oracle.matrix_bytes"])]
