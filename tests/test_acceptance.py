"""End-to-end acceptance suite.

Each test checks one release criterion and reports a single pass/fail
line in the terminal summary. Tolerances are part of the contract; do
not loosen them to make a failing build green.
"""

import math

import numpy as np
import pytest
import conftest
from conftest import equal_gap_ring

from dtnnet.asymptotics import (
    FourierPotential,
    regime_classify,
    resonance_general,
    resonance_mode,
    total_energy,
    total_energy_decomposed,
)
from dtnnet.generators import random_packing, ring_packing
from dtnnet.geometry import Disk, Packing, analyze
from dtnnet.network import build_network, dtn_matrix, net_energy, solve_kirchhoff
from dtnnet.oracle import (
    gap_energy_quadrature,
    max_principle_check,
    solve_dirichlet,
)
from dtnnet.specfun import _zeta_table, polylog_half


def record(num: int, title: str, passed: bool) -> None:
    status = "PASS" if passed else "FAIL"
    conftest.acceptance_lines.append(f"{status} criterion {num}: {title}")


def test_criterion_1_gap_conductivity_offset():
    title = "gap quadrature tracks the square-root conductivity law"
    diffs = [
        gap_energy_quadrature(1.0, 1.0, d) - 0.5 * math.pi * math.sqrt(1.0 / d)
        for d in (1e-1, 1e-2, 1e-3)
    ]
    ok = all(abs(x) <= 2.0 for x in diffs)
    record(1, title, ok)
    assert ok, f"offsets {diffs} leave the O(1) band"


def test_criterion_2_polylog_accuracy():
    title = "polylog evaluation matches the direct series and expansion order"
    ok = True
    for x in np.logspace(-4, 1, 50):
        n = np.arange(1, int(math.ceil(40.0 / x)) + 1, dtype=float)
        direct = float(np.sum(np.exp(-n * x) / np.sqrt(n)))
        if abs(polylog_half(float(x)) - direct) > 1e-9:
            ok = False
            break
    if ok:
        zeta = _zeta_table()
        xs = np.logspace(-4, -1, 40)
        errs = []
        for x in xs:
            n = np.arange(1, int(math.ceil(40.0 / x)) + 1, dtype=float)
            direct = float(np.sum(np.exp(-n * x) / np.sqrt(n)))
            lead = math.sqrt(math.pi / x) + zeta[0] - x * zeta[1]
            errs.append(abs(direct - lead))
        slope = float(np.polyfit(np.log(xs), np.log(errs), 1)[0])
        ok = slope >= 1.4
    record(2, title, ok)
    assert ok


def test_criterion_3_network_algebra():
    title = "network DtN matrix algebra on random geometries"
    ok = True
    rng = np.random.default_rng(2024)
    for trial in range(20):
        n = int(rng.integers(2, 13))
        p = random_packing(n=n, disk_radius=0.08, delta_min=0.02, L=1.0, seed=trial)
        net = build_network(analyze(p), mode="identical")
        lam = dtn_matrix(net)
        scale = float(np.linalg.norm(lam))
        ones = np.ones(net.boundary_count)
        if not np.allclose(lam, lam.T, atol=1e-12 * scale):
            ok = False
        if np.linalg.eigvalsh(0.5 * (lam + lam.T)).min() < -1e-10 * scale:
            ok = False
        if np.linalg.norm(lam @ ones) > 1e-10 * scale:
            ok = False
        for _ in range(100):
            psi = rng.standard_normal(net.boundary_count)
            q = 0.5 * float(psi @ lam @ psi)
            e = net_energy(net, psi)
            if abs(q - e) > 1e-9 * max(abs(e), 1e-12):
                ok = False
                break
        psi = rng.standard_normal(net.boundary_count)
        U = solve_kirchhoff(net, psi).U
        if U.min() < psi.min() - 1e-12 or U.max() > psi.max() + 1e-12:
            ok = False
        if not ok:
            break
    record(3, title, ok)
    assert ok


def test_criterion_4_oracle_trend():
    title = "asymptotic error shrinks with the gaps on the 16-disk ring"
    truncations = {0.1: 48, 0.05: 64, 0.02: 96}
    errors = {k: [] for k in (1, 2, 4)}
    for t in (0.1, 0.05, 0.02):
        p = equal_gap_ring(16, t)
        a = analyze(p)
        net = build_network(a, mode="identical")
        for k in errors:
            psi = FourierPotential.single_cos(k)
            q_asym = total_energy(psi, a, net).quad_form
            q_orac = 2.0 * solve_dirichlet(p, psi, truncations[t]).energy
            errors[k].append(abs(q_asym - q_orac) / abs(q_orac))
    ok = True
    for k, errs in errors.items():
        if not (errs[0] > errs[1] > errs[2]):
            ok = False
        if errs[1] > 0.30:
            ok = False
    record(4, title, ok)
    assert ok, f"relative errors by mode: {errors}"


def test_criterion_5_high_frequency_limit():
    title = "high-frequency energy approaches the homogeneous medium"
    p = equal_gap_ring(4, 0.05)
    a = analyze(p)
    net = build_network(a, mode="identical")
    k = 250
    assert regime_classify(k, a).epsilon >= 5.0
    psi = FourierPotential.single_cos(k)
    ratio_asym = total_energy(psi, a, net).quad_form / (k * math.pi)
    sol = solve_dirichlet(p, psi, M=k + 8)
    ratio_orac = 2.0 * sol.energy / (k * math.pi)
    ok = 0.999 <= ratio_asym <= 1.05 and abs(ratio_orac - 1.0) <= 0.05
    record(5, title, ok)
    assert ok, f"asymptotic ratio {ratio_asym}, oracle ratio {ratio_orac}"


def test_criterion_6_resonance_consistency():
    title = "resonance sum rules and quadratic-form bilinearity"
    p = ring_packing(8, 0.85, 0.1, 1.0)
    a = analyze(p)
    net = build_network(a, mode="identical")
    ok = True
    for k in (1, 3, 7):
        single = resonance_general(FourierPotential.single_cos(k), a, net)
        ref = resonance_mode(k, a, net)
        if abs(single - ref) > 1e-13 * max(abs(ref), 1e-300):
            ok = False
    # Cross terms cancel on the symmetric ring unless 8 divides k - m.
    c = np.zeros(6)
    c[5] = c[2] = 1.0
    mixed = resonance_general(FourierPotential(c, np.zeros(6)), a, net)
    split = resonance_mode(5, a, net) + resonance_mode(2, a, net)
    if abs(mixed - split) > 1e-12 * max(abs(split), 1e-300):
        ok = False
    rng = np.random.default_rng(99)
    for _ in range(5):
        c1, s1 = rng.standard_normal(5), rng.standard_normal(5)
        c2, s2 = rng.standard_normal(5), rng.standard_normal(5)
        s1[0] = s2[0] = 0.0

        def q(cc, ss):
            return total_energy(FourierPotential(cc, ss), a, net).quad_form

        lhs = q(c1 + c2, s1 + s2) + q(c1 - c2, s1 - s2)
        rhs = 2.0 * q(c1, s1) + 2.0 * q(c2, s2)
        if abs(lhs - rhs) > 1e-9 * max(abs(rhs), 1e-12):
            ok = False
    record(6, title, ok)
    assert ok


def test_criterion_7_decomposition_diagnostic():
    title = "energy decomposition discrepancy equals the damping mismatch"
    p = ring_packing(8, 0.85, 0.1, 1.0)
    a = analyze(p)
    net = build_network(a, mode="identical")
    mu = math.sqrt(2.0 * 0.1 * float(a.boundary_gaps[0])) / a.packing.L
    ok = True
    for k in (1, 5, 20, 100):
        res = total_energy_decomposed(k, a, net)
        kappa = k * mu
        expected = float(
            np.sum(0.25 * net.boundary_sigmas * (math.exp(-kappa) - math.exp(-2 * kappa)))
        )
        if abs(res.discrepancy - expected) > 1e-9 * max(abs(expected), 1e-12):
            ok = False
    record(7, title, ok)
    assert ok


def test_criterion_8_oracle_self_checks():
    title = "oracle reproduces closed forms and the maximum principle"
    ok = True
    empty = Packing(1.0, ())
    for k in range(1, 11):
        sol = solve_dirichlet(empty, FourierPotential.single_cos(k), M=k + 2)
        if abs(sol.energy - 0.5 * k * math.pi) > 1e-12:
            ok = False
    for k in (1, 3, 6):
        rho0 = 0.5
        p = Packing(1.0, (Disk(0.0, 0.0, rho0),))
        psi = FourierPotential.single_cos(k)
        sol = solve_dirichlet(p, psi, M=k + 4)
        q = rho0 ** (2 * k)
        exact = 0.5 * k * math.pi * (1.0 + q) / (1.0 - q)
        if abs(sol.energy - exact) > 1e-10 * exact:
            ok = False
        if not max_principle_check(sol, psi).passed:
            ok = False
    p = ring_packing(6, 0.7, 0.12, 1.0)
    psi = FourierPotential.single_cos(2)
    sol = solve_dirichlet(p, psi, M=24)
    if not max_principle_check(sol, psi).passed:
        ok = False
    record(8, title, ok)
    assert ok
