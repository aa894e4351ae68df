"""Invariances of the DtN matrices, on packings drawn by hypothesis."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import equal_gap_ring, reference_operator, reference_residual, two_ring_packing
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dtnnet import oracle
from dtnnet.asymptotics import FourierPotential, boundary_excitation, dtn_asymptotic
from dtnnet.generators import grid_packing, random_packing, ring_packing
from dtnnet.geometry import Disk, Packing, analyze
from dtnnet.network import build_network, net_energy

SCALES = st.floats(-3.0, 3.0).map(math.exp)


@st.composite
def rings(draw):
    """3-8 equal disks on one circle, every gap at least 0.05 R."""
    n = draw(st.integers(3, 8))
    ring_radius = draw(st.floats(0.3, 0.9))
    room = min(1.0 - ring_radius, ring_radius * math.sin(math.pi / n))
    disk_radius = draw(st.floats(0.3, 0.95)) * room
    phase = draw(st.floats(0.0, 2.0 * math.pi / n))
    return ring_packing(n, ring_radius, disk_radius, 1.0, phase)


# Packings in general position: rings at a drawn phase and random packings.
PACKINGS = st.one_of(
    rings(), st.integers(1, 10**6).map(lambda seed: random_packing(12, 0.06, 0.02, 1.0, seed=seed)))


def scaled(packing: Packing, s: float) -> Packing:
    return Packing(s * packing.L, tuple(Disk(s * d.x, s * d.y, s * d.r) for d in packing.inclusions))


def asymptotic(packing: Packing) -> np.ndarray:
    a = analyze(packing)
    return dtn_asymptotic(6, a, build_network(a))


def assert_close(a: np.ndarray, b: np.ndarray, rel: float):
    assert np.max(np.abs(a - b)) <= rel * np.max(np.abs(a))


@given(rings(), st.integers(1, 12), SCALES)
def test_oracle_dtn_is_scale_invariant(packing, M, s):
    lam = oracle._operator(packing, M).dtn
    assert_close(lam, oracle._operator(scaled(packing, s), M).dtn, 1e-12)


@given(rings(), st.integers(1, 12))
def test_oracle_constant_mode_carries_no_flux(packing, M):
    assert oracle._operator(packing, M).dtn[0, 0] == 0.0


@settings(max_examples=30)
@given(PACKINGS, st.integers(1, 6))
def test_asymptotic_dtn_is_symmetric_psd_with_the_constant_in_its_kernel(packing, K):
    a = analyze(packing)
    lam = dtn_asymptotic(K, a, build_network(a))
    scale = np.max(np.abs(lam))
    assert np.max(np.abs(lam - lam.T)) <= 1e-14 * scale
    assert np.max(np.abs(lam[0])) <= 1e-14 * scale
    eig = np.linalg.eigvalsh(lam)
    assert eig[0] >= -1e-12 * eig[-1]


@given(rings(), SCALES)
def test_asymptotic_dtn_is_scale_invariant_on_rings(packing, s):
    assert_close(asymptotic(packing), asymptotic(scaled(packing, s)), 1e-10)


@pytest.mark.parametrize("packing", [
    ring_packing(8, 0.85, 0.1, 1.0), grid_packing(0.1, 0.02),
    *(random_packing(12, 0.06, 0.02, 1.0, seed=seed) for seed in (1, 2, 3))])
@given(s=SCALES)
def test_asymptotic_dtn_is_scale_invariant(packing, s):
    assert_close(asymptotic(packing), asymptotic(scaled(packing, s)), 1e-10)


@given(st.data())
def test_relabelling_the_disks_changes_no_dtn_matrix(data):
    ring = data.draw(rings())
    n = ring.n
    step = n // math.gcd(n, 8)  # n | 8M: the oracle factors the ring as C_n blocks
    M = step * data.draw(st.integers(1, 12 // step))
    order = data.draw(st.permutations(range(n)))
    relabelled = Packing(ring.L, tuple(ring.inclusions[i] for i in order))
    # A rotation of the labels is still a ring of the same order.
    assume(oracle._rotation_order(relabelled, M) != oracle._rotation_order(ring, M))
    assert oracle._rotation_order(ring, M) == n
    lam = oracle._operator(ring, M).dtn
    assert_close(lam, oracle._operator(relabelled, M).dtn, 1e-10)
    assert_close(asymptotic(ring), asymptotic(relabelled), 1e-12)


@settings(max_examples=40)
@given(st.integers(2, 12), st.floats(0.05, 0.5), st.floats(0.0, 1.0), st.integers(1, 16))
def test_orbit_factor_matches_the_dense_reference(n, t, phase, M):
    # gcd(n, 8M) < n for many draws, so the factor runs at every order g | n.
    ring = equal_gap_ring(n, t, phase=2.0 * math.pi * phase / n)
    assert_close(reference_operator(ring, M).dtn, oracle._operator(ring, M).dtn, 1e-10)


def rotated(packing: Packing, alpha: float) -> Packing:
    c, s = math.cos(alpha), math.sin(alpha)
    return Packing(packing.L, tuple(Disk(c * d.x - s * d.y, s * d.x + c * d.y, d.r)
                                    for d in packing.inclusions))


def phase_shift(K: int, alpha: float) -> np.ndarray:
    """Q on the modes cos 0..K, sin 1..K: psi(theta - alpha) has coefficients Q c."""
    Q = np.eye(2 * K + 1)
    k = np.arange(1, K + 1)
    cos, sin = np.cos(k * alpha), np.sin(k * alpha)
    Q[k, k], Q[k, K + k], Q[K + k, k], Q[K + k, K + k] = cos, -sin, sin, cos
    return Q


@given(PACKINGS, st.floats(0.0, 2.0 * math.pi))
def test_asymptotic_dtn_is_rotation_covariant(packing, alpha):
    Q = phase_shift(6, alpha)
    assert_close(asymptotic(packing), Q.T @ asymptotic(rotated(packing, alpha)) @ Q, 1e-10)


@given(st.data())
def test_raising_a_conductivity_never_lowers_the_network_energy(data):
    """Rayleigh monotonicity: E_net is a minimum of sums increasing in every sigma."""
    a = analyze(data.draw(PACKINGS))
    net = build_network(a)
    c = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=13, max_size=13))
    psi = FourierPotential(np.array(c[:7]), np.array([0.0, *c[7:]]))
    excitation = boundary_excitation(psi, a)
    field = data.draw(st.sampled_from(["gap_sigmas", "boundary_sigmas"]))
    sigmas = getattr(net, field).copy()
    sigmas[data.draw(st.integers(0, sigmas.size - 1))] *= data.draw(st.floats(1.0, 11.0))
    before = net_energy(net, excitation)
    after = net_energy(dataclasses.replace(net, **{field: sigmas}), excitation)
    assert after >= before - 1e-12 * abs(before)


@st.composite
def grown_disks(draw):
    """(packing, grown): a random packing, and the same packing with one disk
    grown by up to half its smallest gap, to another disk or to |x| = L."""
    packing = random_packing(20, 0.08, 0.01, 1.0, seed=draw(st.integers(1, 10**6)))
    k = draw(st.integers(0, packing.n - 1))
    centers, radii = packing.centers(), packing.radii()
    gaps = np.hypot(*(centers - centers[k]).T) - radii - radii[k]
    gaps[k] = packing.L - np.hypot(*centers[k]) - radii[k]
    disks = list(packing.inclusions)
    disks[k] = dataclasses.replace(disks[k], r=disks[k].r + draw(st.floats(0.0, 0.5)) * gaps.min())
    return packing, Packing(packing.L, tuple(disks))


@settings(max_examples=30)
@given(grown_disks(), st.data())
def test_growing_a_disk_never_lowers_the_network_energy(case, data):
    """Rayleigh monotonicity through the geometry: the centers fix the Voronoi
    graph and the boundary, and every conductance at the grown disk rises."""
    a, b = map(analyze, case)
    assert np.array_equal(b.gap_edges, a.gap_edges)
    assert b.boundary_count == a.boundary_count
    assert np.array_equal(b.boundary_angles, a.boundary_angles)
    n_b = a.boundary_count
    psi = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n_b, max_size=n_b)))
    before = net_energy(build_network(a, "generalized"), psi)
    after = net_energy(build_network(b, "generalized"), psi)
    assert after >= before - 1e-12 * abs(before)


@st.composite
def symmetric_packings(draw):
    """(packing, M) of rotation order g > 1: a ring, a ring with its labels
    reversed, or the two-ring packing turned by a drawn angle."""
    M = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(("ring", "reversed", "two rings")))
    if kind == "two rings":
        packing = rotated(two_ring_packing(), draw(st.floats(0.0, 0.5 * math.pi)))
    else:
        packing = draw(rings())
        if kind == "reversed":
            packing = Packing(packing.L, packing.inclusions[::-1])
    assume(oracle._rotation_order(packing, M) > 1)
    return packing, M


def full_residual(op: oracle._Operator, n: int, M: int) -> np.ndarray:
    """The residual at every check point, from the operator's orbit rows: the
    data rotated by 2 pi p/g at an orbit point is the data at the point rotated,
    the outer point j + 8Mp/g or point j + 8Mp/g of inclusion r + np/g."""
    g, n_chk = op.order, 8 * M
    s = n_chk // g
    full = np.empty((n_chk * (n + 1), 2 * M + 1))
    # Q[:, e, p]: the unit mode vector e rotated by 2 pi p/g.
    Q = np.stack([oracle._rotations(e, M, g) for e in np.eye(2 * M + 1)], axis=1)
    for p in range(g):
        rows = op.residual @ Q[..., p]
        full[p * s : (p + 1) * s] = rows[:s]
        for r in range(n // g):
            k = r + p * (n // g)
            full[n_chk * (k + 1) : n_chk * (k + 2)] = np.roll(
                rows[s + r * n_chk : s + (r + 1) * n_chk], p * s, axis=0)
    return full


@settings(max_examples=30)
@given(symmetric_packings())
def test_orbit_residual_is_the_residual_at_every_check_point(case):
    packing, M = case
    op = oracle._operator(packing, M)
    expected = reference_residual(packing, M, op.coeffs)
    got = full_residual(op, packing.n, M)
    assert np.max(np.abs(got - expected)) <= max(1e-10 * np.max(np.abs(expected)), 1e-13)


@st.composite
def small_packings(draw):
    """(packing, M): 1-5 equal disks placed at random, gaps at least 0.1 R, of
    rotation order 1 at truncation M <= 12."""
    n, M = draw(st.integers(1, 5)), draw(st.integers(2, 12))
    r = draw(st.floats(0.08, 0.2))
    packing = random_packing(n, r, 0.1 * r, 1.0, seed=draw(st.integers(1, 10**6)))
    assume(oracle._rotation_order(packing, M) == 1)
    return packing, M


@settings(max_examples=25)
@given(small_packings(), SCALES, st.floats(0.0, 2.0 * math.pi))
def test_oracle_dtn_is_scale_invariant_and_rotation_covariant(case, s, alpha):
    # Scaling changes no Galerkin row, and turning the packing turns the phase of
    # each circle's modes, so the turned packing's Galerkin system is the packing's.
    packing, M = case
    op, turned = oracle._operator(packing, M), oracle._operator(rotated(packing, alpha), M)
    assert_close(op.dtn, oracle._operator(scaled(packing, s), M).dtn, 1e-12)
    Q = phase_shift(M, alpha)
    assert_close(op.dtn, Q.T @ turned.dtn @ Q, 1e-12)
