"""The benchmark's tracer wraps dtnnet functions by name: every name it lists
must stay bound in its module, and its size hooks must read real results."""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from dtnnet import asymptotics, geometry, network, oracle
from dtnnet.generators import ring_packing

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)  # no cache files beside the benchmark
        spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound_in_its_module(tracer):
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"dtnnet.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"dtnnet.{layer}.{name}"


def test_size_hooks_read_real_results(tracer):
    packing = ring_packing(8, 0.85, 0.1, 1.0)
    analysis = geometry.analyze(packing)
    net = network.build_network(analysis)
    psi = asymptotics.FourierPotential.single_cos(1)
    calls = {
        "geometry.classify_boundary": ((packing,), analysis),
        "network.build_network": ((analysis,), net),
        "oracle.solve_dirichlet": ((packing, psi, 8), oracle.solve_dirichlet(packing, psi, 8)),
    }
    assert set(calls) == set(tracer.SIZE_HOOKS)
    counts = Counter()
    for name, (args, out) in calls.items():
        tracer.SIZE_HOOKS[name](counts, args, {}, out)
    assert counts["geometry.n"] == counts["geometry.n_b"] == 8
    assert counts["geometry.edges"] == len(analysis.gap_widths)
    assert counts["network.laplacian_nnz"] == net.n + 2 * len(net.gap_edges)
    assert counts["oracle.rows"] == 4 * 8 * 9
    assert counts["oracle.unknowns"] == 17 + 16 * 8 + 8
