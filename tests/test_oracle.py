import functools
import gc
import math
import tracemalloc

import numpy as np
import pytest
from conftest import (bidisperse_ring, equal_gap_ring, reference_basis_columns,
                      reference_boundary_residual, reference_galerkin, reference_lstsq_factor,
                      reference_operator, reference_residual, sampled_errors, two_ring_packing)

from dtnnet.asymptotics import FourierPotential, _modes, total_energy
from dtnnet.cli import main
from dtnnet.errors import DomainError, IllConditionedError, ParseError
from dtnnet.generators import random_packing, ring_packing
from dtnnet.geometry import Disk, Packing, analyze, load_packing
from dtnnet.network import build_network
from dtnnet import geometry, oracle
from dtnnet.oracle import (
    cross_form_oracle,
    gap_energy_quadrature,
    max_principle_check,
    quad_form_oracle,
    solve_dirichlet,
)

EMPTY = Packing(1.0, ())


def annulus_energy(k: int, rho0: float) -> float:
    """Closed form for a concentric perfectly conducting core of radius rho0 L."""
    q = rho0 ** (2 * k)
    return 0.5 * k * math.pi * (1.0 + q) / (1.0 - q)


class TestHomogeneousDisk:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_single_modes(self, k):
        sol = solve_dirichlet(EMPTY, FourierPotential.single_cos(k), M=k + 2)
        assert sol.energy == pytest.approx(0.5 * k * math.pi, abs=1e-12)
        assert sol.boundary_residual <= 1e-12

    def test_sin_mode(self):
        sol = solve_dirichlet(EMPTY, FourierPotential.single_sin(4), M=8)
        assert sol.energy == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_constant(self):
        psi = FourierPotential(np.array([5.0]), np.array([0.0]))
        assert quad_form_oracle(EMPTY, psi, M=4) == pytest.approx(0.0, abs=1e-12)


class TestAnnulus:
    @pytest.mark.parametrize("k", range(1, 11))
    @pytest.mark.parametrize("rho0", [0.3, 0.5, 0.7])
    def test_closed_form(self, k, rho0):
        p = Packing(1.0, (Disk(0.0, 0.0, rho0),))
        sol = solve_dirichlet(p, FourierPotential.single_cos(k), M=k + 4)
        assert sol.energy == pytest.approx(annulus_energy(k, rho0), rel=1e-10)

    def test_constant_shields_nothing(self):
        p = Packing(1.0, (Disk(0.0, 0.0, 0.5),))
        psi = FourierPotential(np.array([2.0]), np.array([0.0]))
        sol = solve_dirichlet(p, psi, M=6)
        assert sol.energy == pytest.approx(0.0, abs=1e-10)
        assert sol.U[0] == pytest.approx(2.0, abs=1e-10)


class TestCrossForm:
    def test_mode_orthogonality_in_disk(self):
        a = FourierPotential.single_cos(2)
        b = FourierPotential.single_cos(5)
        assert cross_form_oracle(EMPTY, a, b, M=8) == pytest.approx(0.0, abs=1e-10)
        c = FourierPotential.single_sin(2)
        assert cross_form_oracle(EMPTY, a, c, M=8) == pytest.approx(0.0, abs=1e-10)

    def test_constant_in_kernel(self):
        p = ring_packing(6, 0.7, 0.12, 1.0)
        const = FourierPotential(np.array([1.0]), np.array([0.0]))
        a = FourierPotential.single_cos(2)
        assert cross_form_oracle(p, a, const, M=16) == pytest.approx(0.0, abs=1e-7)

    def test_diagonal_recovers_quadratic_form(self):
        p = ring_packing(6, 0.7, 0.12, 1.0)
        a = FourierPotential.single_cos(3)
        q = quad_form_oracle(p, a, M=16)
        assert cross_form_oracle(p, a, a, M=16) == pytest.approx(q, rel=1e-8)


def reference_flux_table(packing, coeffs, M, n_q):
    """Radial derivative on the outer circle at n_q nodes of each mode's solution."""
    L = packing.L
    theta = np.linspace(0.0, 2.0 * math.pi, n_q, endpoint=False)
    nhat = np.exp(1j * theta)
    m = np.arange(1, M + 1)
    arg = np.multiply.outer(theta, m)
    D = np.zeros((n_q, (2 * M + 1) + 2 * M * packing.n))
    # Domain harmonics: d/dn Re/Im (z/L)^m = (m/L) cos/sin(m theta).
    D[:, 1 : M + 1] = np.cos(arg) * (m / L)
    D[:, M + 1 : 2 * M + 1] = np.sin(arg) * (m / L)
    # Inclusion harmonics: d/dz (R/(z - x))^m = -m (R/(z - x))^m / (z - x).
    d = L * nhat[:, None] - packing.centers() @ np.array([1.0, 1j])
    inc = D[:, 2 * M + 1 :].reshape(n_q, packing.n, 2, M)
    n_over_d, w = nhat[:, None] / d, packing.radii() / d
    p = w
    for k in range(M):
        fn = -(k + 1) * p * n_over_d
        inc[:, :, 0, k] = fn.real
        inc[:, :, 1, k] = -fn.imag
        p = p * w
    return D @ coeffs[: D.shape[1]]


def reference_dtn(packing, M, n_q):
    """Lambda from the n_q-node trapezoid rule on the oracle's own coefficients."""
    theta = np.linspace(0.0, 2.0 * math.pi, n_q, endpoint=False)
    flux = reference_flux_table(packing, oracle._operator(packing, M).coeffs, M, n_q)
    form = (packing.L * 2.0 * math.pi / n_q) * (_modes(theta, M).T @ flux)
    return 0.5 * (form + form.T)


def moved(packing, i, dx=0.0, dr=0.0):
    """The packing with disk i shifted by dx along x and its radius grown by dr."""
    d = list(packing.inclusions)
    d[i] = Disk(d[i].x + dx, d[i].y, d[i].r + dr)
    return Packing(packing.L, tuple(d))


def rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


RING8 = ring_packing(8, 0.85, 0.1, 1.0)
# The oracle_batch rings of perfbench at their smallest gap: (disks, gap/R, M).
ORACLE_BATCH = ((16, 0.02, 48), (8, 0.08, 24), (12, 0.05, 32), (8, 0.02, 48),
                (16, 0.08, 24), (12, 0.08, 24), (8, 0.05, 32))


def lapack_spy(monkeypatch, edit=None):
    """Record every block that the oracle passes to LAPACK gesv (a copy, taken
    after ``edit`` changed it in place) and whether it was Fortran-ordered, gesv's info
    and gecon's rcond."""
    calls = []
    real = oracle.get_lapack_funcs

    def funcs(names, arrays):
        gesv, gecon, *others = real(names, arrays)

        def spy_gesv(a, b, **kwargs):
            if edit is not None:
                edit(a)
            calls.append({"block": a.copy(), "fortran": a.flags.f_contiguous})
            out = gesv(a, b, **kwargs)
            calls[-1]["info"] = out[3]
            return out

        def spy_gecon(lu, anorm, **kwargs):
            out = gecon(lu, anorm, **kwargs)
            calls[-1]["rcond"] = out[0]
            return out

        return spy_gesv, spy_gecon, *others

    monkeypatch.setattr(oracle, "get_lapack_funcs", funcs)
    return calls


def block_sizes(n, M, g):
    """Rows (= unknowns) of the C_g blocks 0..g/2: the outer modes f = j (mod g),
    |f| <= M, and the 2M+1 modes of each of the n/g representative disks."""
    f = np.arange(-M, M + 1)
    return [(np.count_nonzero((f - j) % g == 0) + (n // g) * (2 * M + 1),) * 2
            for j in range(g // 2 + 1)]


class TestOperatorReuse:
    RING = ring_packing(8, 0.85, 0.1, 1.0)
    MIXED = FourierPotential(np.array([0.3, 1.0, -0.5, 0.0, 0.25]),
                             np.array([0.0, 0.7, 0.0, -0.4, 0.1]))

    def test_one_gesv_per_packing_and_truncation(self, monkeypatch):
        calls = lapack_spy(monkeypatch)
        oracle._operator.cache_clear()
        p, M = moved(self.RING, 5, dr=-0.01), 15
        n = p.n
        assert oracle._rotation_order(p) == 1  # one block: the full system
        for k in (1, 2, 4):
            solve_dirichlet(p, FourierPotential.single_cos(k), M)
        quad_form_oracle(p, self.MIXED, M)
        cross_form_oracle(p, self.MIXED, FourierPotential.single_sin(3), M)
        assert [c["block"].shape for c in calls] == [((2 * M + 1) * (n + 1),) * 2]
        solve_dirichlet(p, FourierPotential.single_cos(1), M + 4)
        assert len(calls) == 2

    def test_one_block_factor_per_packing_and_truncation(self, monkeypatch):
        calls = lapack_spy(monkeypatch)
        for p, M, g in [(self.RING, 16, 8), (self.RING, 15, 8), (two_ring_packing(), 24, 4),
                        (moved(self.RING, 5, dr=-0.01), 16, 1)]:
            oracle._operator.cache_clear()
            calls.clear()
            assert oracle._rotation_order(p) == g
            for k in (1, 2, 4):
                solve_dirichlet(p, FourierPotential.single_cos(k), M)
            quad_form_oracle(p, self.MIXED, M)
            cross_form_oracle(p, self.MIXED, FourierPotential.single_sin(3), M)
            # One gesv for each of the square blocks 0..g/2; the blocks g/2+1..g-1
            # are their conjugates, and all g hold the (2M+1)(n+1) unknowns.
            assert [c["block"].shape for c in calls] == block_sizes(p.n, M, g)
            assert sum(rows * (1 + (2 * j % g != 0)) for j, (rows, _) in
                       enumerate(block_sizes(p.n, M, g))) == (2 * M + 1) * (p.n + 1)
            solve_dirichlet(p, FourierPotential.single_cos(1), M + 4)
            assert len(calls) == 2 * (g // 2 + 1)

    def test_solutions_do_not_share_state(self):
        psi = FourierPotential.single_cos(2)
        sol = solve_dirichlet(self.RING, psi, 16)
        U, dc = sol.U.copy(), sol.domain_cos.copy()
        for arr in (sol.U, sol.domain_cos):
            try:
                arr[:] = 123.0
            except ValueError:
                pass
        again = solve_dirichlet(self.RING, psi, 16)
        assert np.array_equal(again.U, U)
        assert np.array_equal(again.domain_cos, dc)

    def test_superposition(self):
        a, b = self.MIXED, FourierPotential.single_cos(3)
        c = np.zeros(5)
        c[: b.K + 1] = b.cos_coeffs
        both = FourierPotential(a.cos_coeffs + c, a.sin_coeffs)
        q_sum = quad_form_oracle(self.RING, both, 16)
        q_split = (quad_form_oracle(self.RING, a, 16) + quad_form_oracle(self.RING, b, 16)
                   + 2.0 * cross_form_oracle(self.RING, a, b, 16))
        assert q_split == pytest.approx(q_sum, rel=1e-10)

    def test_top_frequency_uses_its_own_rule(self):
        # K = M reads its row of Lambda from the domain coefficients as lower frequencies do.
        psi = FourierPotential.single_cos(12)
        q = quad_form_oracle(self.RING, psi, 12)
        assert cross_form_oracle(self.RING, psi, psi, 12) == pytest.approx(q, rel=1e-12)

    def test_flux_rule_does_not_alias_on_symmetric_ring(self):
        # 8M nodes put this energy 7e-5 relative off the converged value.
        p, M = equal_gap_ring(16, 0.02), 48
        psi = FourierPotential.single_cos(1)
        c = oracle._mode_vector(psi, M)
        reference = 0.5 * float(c @ reference_dtn(p, M, 32 * M) @ c)
        assert solve_dirichlet(p, psi, M).energy == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("M", [4, 7])
    def test_flux_rule_sized_from_the_geometry(self, M):
        # |c|/L = 0.85: the 64-node rule left cos 4 theta 6.2e-4 off at M = 4.
        p = self.RING
        lam = reference_dtn(p, M, 128 * M)
        for psi in (FourierPotential.single_cos(4), self.MIXED):
            c = oracle._mode_vector(psi, M)
            reference = 0.5 * float(c @ lam @ c)
            assert solve_dirichlet(p, psi, M).energy == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("p, M", [(equal_gap_ring(16, 0.08), 24), (RING, 12),
                                      (random_packing(20, 0.08, 0.01, seed=1), 16),
                                      (two_ring_packing(), 16)],
                             ids=["ring16-gap0.08", "ring8", "random-20-M16", "two-rings-M16"])
    def test_dtn_matches_a_fine_flux_rule(self, p, M):
        # A 16M-node trapezoid rule is 1.0e-13, 1.9e-10, 1.8e-10 and 1.4e-15 of max|Lambda|
        # off here; g = 16, 8, 1 and 4.
        reference = reference_dtn(p, M, 128 * M)
        lam = oracle._operator(p, M).dtn
        assert np.max(np.abs(lam - reference)) <= 1e-13 * np.max(np.abs(reference))

    def test_dtn_block_is_diagonal_on_the_empty_packing(self):
        lam = oracle.dtn_oracle(EMPTY, 3, 8)
        expected = np.diag(math.pi * np.array([0, 1, 2, 3, 1, 2, 3.0]))
        assert np.allclose(lam, expected, rtol=0.0, atol=1e-12)

    def test_evaluate_is_the_reference_columns_times_the_coefficients(self):
        M = 12
        sol = solve_dirichlet(self.RING, self.MIXED, M)
        t = np.linspace(0.0, 2.0 * math.pi, 4 * M, endpoint=False)
        zc = np.stack([np.exp(1j * t), 0.5 * np.exp(1j * (t + 0.1))])  # shape (2, 4M)
        coeffs = np.concatenate([sol.domain_cos, sol.domain_sin,
                                 np.stack([sol.inclusion_cos, sol.inclusion_sin], 1).ravel()])
        expected = reference_basis_columns(zc.ravel(), self.RING, M) @ coeffs
        u = sol.evaluate(np.stack([zc.real, zc.imag], -1))
        assert u.shape == zc.shape
        assert np.max(np.abs(u.ravel() - expected)) <= 1e-14 * np.max(np.abs(expected))


class TestRingFactor:
    """Packings that a rotation by 2 pi/g maps onto themselves, disk k to disk
    k + n/g, are factored as C_g orbit blocks; g = 1 is the dense solve."""

    PSIS = (FourierPotential.single_cos(1), FourierPotential.single_sin(2),
            TestOperatorReuse.MIXED,
            FourierPotential(np.array([0.0, -0.2, 0.6, 0.1]), np.array([0.0, 0.5, 0.3, -0.7])))
    RINGS = {  # g = n
        "n2": (ring_packing(2, 0.5, 0.2, 1.0, phase=0.3), 8, 2),
        "n3": (equal_gap_ring(3, 0.1), 9, 3),
        "n4": (equal_gap_ring(4, 0.05), 12, 4),
        "n8": (ring_packing(8, 0.85, 0.1, 1.0, phase=0.2), 16, 8),
        "n16-one-point-per-orbit": (equal_gap_ring(16, 0.1), 4, 16),
        "n16-gap0.02": (equal_gap_ring(16, 0.02), 24, 16),
        "ring8-M15": (RING8, 15, 8),
        "n12-M32": (equal_gap_ring(12, 0.05), 32, 12),  # 12 does not divide 8M = 256
    }
    ORBITS = {  # 1 < g < n
        "two-rings": (two_ring_packing(), 24, 4),
        "reversed": (Packing(1.0, RING8.inclusions[::-1]), 16, 2),  # clockwise labels
    }
    DENSE = {  # g = 1
        "centre-moved-1e-9": (moved(RING8, 3, dx=1e-9), 16, 1),
        "permuted": (Packing(1.0, tuple(RING8.inclusions[i] for i in (0, 2, 1, 3, 4, 5, 7, 6))),
                     16, 1),
        "ring-and-centre-disk": (Packing(1.0, RING8.inclusions + (Disk(0.0, 0.0, 0.3),)), 16, 1),
        "unequal-radii": (moved(RING8, 5, dr=-0.01), 16, 1),
        "one-disk": (Packing(1.0, (Disk(0.3, 0.1, 0.2),)), 16, 1),
    }
    ALL = {**RINGS, **ORBITS, **DENSE}

    @pytest.mark.parametrize("p, M, g", ALL.values(), ids=ALL.keys())
    def test_rotation_order(self, p, M, g):
        assert oracle._rotation_order(p) == g

    def test_rotation_order_of_the_empty_packing_and_of_one_step_orders(self):
        assert oracle._rotation_order(EMPTY) == 1
        # The order asks only g | n: a 6-disk ring is C_6 at M = 1, where 6 does not divide 8M.
        ring6 = equal_gap_ring(6, 0.1)
        assert oracle._rotation_order(ring6) == 6
        assert oracle._operator(ring6, 1).order == 6

    @pytest.mark.parametrize("p, M", [(p, M) for p, M, _ in ALL.values()], ids=ALL.keys())
    def test_matches_the_dense_factor(self, p, M):
        blocks, dense = oracle._operator(p, M), reference_operator(p, M)
        for a, b in ((blocks.coeffs, dense.coeffs), (blocks.dtn, dense.dtn)):
            assert rel(a, b) <= 1e-13  # 3.2e-14 at worst, on the n16-gap0.02 ring
        # The tails, from the dense solution's coefficients of the same harmonics.
        for a, b in ((blocks.outer_tail, dense.outer_tail), (blocks.disk_tail, dense.disk_tail)):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b), initial=0.0) <= max(1e-10 * np.max(np.abs(b), initial=0.0),
                                                             1e-13)
        if blocks.order == 1:
            # The one block is the dense system up to a signed column order, so
            # LAPACK's estimate bounds its exact 1-norm condition from below, and
            # lies within a factor 3 of it here (g > 1: see the singular values).
            assert dense.condition / 3.0 <= blocks.condition <= dense.condition * (1.0 + 1e-12)
        c = [oracle._mode_vector(psi, M) for psi in self.PSIS]
        for psi, ca in zip(self.PSIS, c):
            sol = solve_dirichlet(p, psi, M)
            assert sol.energy == pytest.approx(0.5 * ca @ dense.dtn @ ca, rel=1e-10)
            expected = reference_boundary_residual(dense, ca, M)
            assert abs(sol.boundary_residual - expected) <= max(1e-9 * expected, 1e-13)
        for (a, ca), (b, cb) in zip(zip(self.PSIS, c), zip(self.PSIS[1:], c[1:])):
            assert cross_form_oracle(p, a, b, M) == pytest.approx(ca @ dense.dtn @ cb, rel=1e-10)

    @pytest.mark.parametrize("p, M", [(equal_gap_ring(4, 0.05), 8), (equal_gap_ring(4, 0.2), 16),
                                      (RING8, 4), (RING8, 16), (two_ring_packing(), 12)])
    def test_block_singular_values_are_those_of_the_matrix(self, monkeypatch, p, M):
        calls = lapack_spy(monkeypatch)
        oracle._operator.cache_clear()
        op = oracle._operator(p, M)
        g = op.order
        expected = np.linalg.svd(reference_galerkin(p, M)[0], compute_uv=False)
        # The split is unitary: blocks 0 and g/2 once, the others and their conjugates.
        sv = [np.linalg.svd(c["block"], compute_uv=False) for c in calls]
        blocks = np.sort(np.concatenate([np.tile(s, 1 + (2 * j % g != 0))
                                         for j, s in enumerate(sv)]))[::-1]
        assert blocks.shape == expected.shape
        assert np.max(np.abs(blocks - expected)) <= 1e-12 * expected[0]
        # The condition is the largest block estimate, each a lower bound of the
        # block's 1-norm condition and within a factor 3 of it here.
        estimates = [1.0 / c["rcond"] for c in calls]
        assert op.condition == max(estimates)
        for c, estimate in zip(calls, estimates):
            exact = np.linalg.cond(c["block"], 1)
            assert exact / 3.0 <= estimate <= exact * (1.0 + 1e-12)

    @pytest.mark.parametrize("p, M", [(p, M) for p, M, _ in ALL.values()], ids=ALL.keys())
    def test_boundary_residual_is_the_rotation_loop(self, p, M):
        # All g rotated residuals come from one product; the loop takes one per rotation.
        op, rng = oracle._operator(p, M), np.random.default_rng(M)
        sin = rng.standard_normal(M + 1)
        sin[0] = 0.0
        for psi in (*self.PSIS, FourierPotential(rng.standard_normal(M + 1), sin)):
            c = oracle._mode_vector(psi, M)
            expected = reference_boundary_residual(op, c, M)
            assert solve_dirichlet(p, psi, M).boundary_residual == pytest.approx(expected,
                                                                                 rel=1e-13)

    @staticmethod
    def bound_psis(M):
        """PSIS, one random psi with K = M, then cos theta, cos 2 theta and cos 4 theta."""
        rng = np.random.default_rng(M)
        sin = rng.standard_normal(M + 1)
        sin[0] = 0.0
        return (*TestRingFactor.PSIS, FourierPotential(rng.standard_normal(M + 1), sin),
                *(FourierPotential.single_cos(k) for k in (1, 2, 4)))

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def sampled(p, M):
        """The error of each of ``bound_psis(M)`` (columns) at 4096 points of every circle."""
        C = np.stack([oracle._mode_vector(psi, M) for psi in TestRingFactor.bound_psis(M)], 1)
        return sampled_errors(p, M, oracle._operator(p, M).coeffs, C)

    @pytest.mark.parametrize("p, M", [(p, M) for p, M, _ in ALL.values()], ids=ALL.keys())
    def test_the_error_has_no_coefficient_in_band(self, p, M):
        # The premise of the tails: the Galerkin conditions leave no mode |m| <= M of
        # the error on any circle, beyond rounding (1e-12 of its largest value on all of
        # them, or 1e-15 where that is itself near rounding), so its coefficients are all
        # past M.
        errors = self.sampled(p, M)
        in_band = np.max([np.abs(np.fft.rfft(e, axis=0, norm="forward")[: M + 1]).max(0)
                          for e in errors], 0)
        largest = np.max([np.abs(e).max(0) for e in errors], 0)
        assert np.all(in_band <= np.maximum(1e-12 * largest, 1e-15))

    # (packing, M, the bound's largest ratio to the sampled error for cos theta, cos 2 theta
    # and cos 4 theta): 5 % on the oracle_batch rings that perfbench checks it on.
    BOUND = {**{key: (p, M, 2.0) for key, (p, M, _) in ALL.items()},
             **{f"oracle_batch-{n}-{t}-M{M}": (equal_gap_ring(n, t), M, 1.05)
                for n, t, M in ORACLE_BATCH},
             "random-20-M32": (random_packing(20, 0.08, 0.01, seed=1), 32, 2.0)}

    @pytest.mark.parametrize("p, M, ratio", BOUND.values(), ids=BOUND.keys())
    def test_boundary_residual_bounds_the_sampled_error(self, p, M, ratio):
        # The residual is the l1 of the error's coefficients past M on the worst circle,
        # those of the FFT of 4096 samples, so it bounds the largest sampled error from
        # above (up to the error's rounding in band, 1e-12 of it, above). PSIS and the
        # cosines read at most twice that, and the cosines within 5 % on the oracle_batch
        # rings. A broadband psi can have an l1 more than twice its maximum: the random
        # psi reads 2.49 times it on the (16, 0.02, 48) ring.
        errors = self.sampled(p, M)
        largest = np.max([np.abs(e).max(0) for e in errors], 0)
        l1 = np.max([np.abs(np.fft.fft(e, axis=0, norm="forward")[M + 1 : -M]).sum(0)
                     for e in errors], 0)
        most = (2.0,) * len(self.PSIS) + (math.inf,) + (ratio,) * 3
        for psi, a, b, c in zip(self.bound_psis(M), l1, largest, most):
            bound = solve_dirichlet(p, psi, M).boundary_residual
            assert bound == pytest.approx(a, rel=1e-8, abs=1e-12)
            assert b * (1.0 - 1e-10) <= bound <= c * b

    def test_solve_path_samples_nothing(self, monkeypatch):
        # Every table of the operator, the residual included, is in closed form.
        def refuse(*args):
            raise AssertionError("the field was sampled")

        monkeypatch.setattr(oracle.SpectralSolution, "evaluate", refuse)
        for p, M in [(equal_gap_ring(12, 0.05), 32), (moved(RING8, 5, dr=-0.01), 16)]:
            oracle._operator.cache_clear()
            assert oracle._operator(p, M).dtn.shape == (2 * M + 1,) * 2
            sol = solve_dirichlet(p, TestOperatorReuse.MIXED, M)
            assert sol.boundary_residual > 0.0
            # MIXED has a cos theta part, so its cross form with cos theta is not zero; with
            # sin 2 theta it is zero on the 12-disk ring, which y -> -y maps onto itself.
            assert cross_form_oracle(p, TestOperatorReuse.MIXED, self.PSIS[0], M) != 0.0
            assert oracle.dtn_oracle(p, 4, M).shape == (9, 9)

    def test_twelve_disk_ring_is_factored_as_c12(self, monkeypatch):
        # 12 does not divide 8M = 256: the rotation order asks only g | n.
        calls = lapack_spy(monkeypatch)
        oracle._operator.cache_clear()
        p, M = equal_gap_ring(12, 0.05), 32
        op = oracle._operator(p, M)
        assert op.order == 12
        assert len(calls) == 12 // 2 + 1
        dense = reference_operator(p, M)
        for a, b in ((op.coeffs, dense.coeffs), (op.dtn, dense.dtn)):
            assert rel(a, b) <= 1e-10

    @pytest.mark.parametrize("p, M", [(p, M) for p, M, _ in DENSE.values()], ids=DENSE.keys())
    def test_other_packings_take_the_dense_factor(self, monkeypatch, p, M):
        calls = lapack_spy(monkeypatch)
        oracle._operator.cache_clear()
        oracle._operator(p, M)
        assert [c["block"].shape for c in calls] == [((2 * M + 1) * (p.n + 1),) * 2]

    LSTSQ = {**ALL, **{f"oracle_batch-{n}-{t}-M{M}": (equal_gap_ring(n, t), M, None)
                       for n, t, M in ORACLE_BATCH}}

    @pytest.mark.parametrize("p, M", [(p, M) for p, M, _ in LSTSQ.values()], ids=LSTSQ.keys())
    def test_dtn_matches_the_collocation_lstsq_within_the_residual(self, p, M):
        # The oversampled least-squares collocation that the Galerkin system replaced.
        galerkin, lstsq = oracle._operator(p, M), reference_operator(p, M, reference_lstsq_factor)
        residual = max(np.max(np.abs(reference_residual(p, M, factor)))
                       for factor in (None, reference_lstsq_factor))
        assert np.max(np.abs(galerkin.dtn - lstsq.dtn)) <= residual * np.max(np.abs(lstsq.dtn))

    @pytest.mark.parametrize("n, M", [(8, 16), (12, 24), (16, 4)])
    def test_generated_ring_file_takes_the_ring_path(self, tmp_path, n, M):
        path = str(tmp_path / "ring.json")
        assert main(["gen", "ring", "--n", str(n), "--ring-radius", "0.8",
                     "--disk-radius", "0.1", "--out", path]) == 0
        assert oracle._rotation_order(load_packing(path)) == n


class TestColdBuild:
    """The operator built from cold: orbit sums from one FFT per representative, the C_g
    blocks assembled, solved and freed one at a time, and tails only where they are kept."""

    # Beyond the TestRingFactor cases, which test_matches_the_dense_factor checks alike.
    AGREE = {**{f"oracle_batch-{n}-{t}-M{M}": (equal_gap_ring(n, t), M)
                for n, t, M in ORACLE_BATCH},
             "random-20-M32": (random_packing(20, 0.08, 0.01, seed=1), 32)}

    @pytest.mark.parametrize("p, M", AGREE.values(), ids=AGREE.keys())
    def test_agrees_with_the_dense_reference(self, p, M):
        # The dense Galerkin solve with sampled projections agrees to 3.0e-14 at worst here.
        op, dense = oracle._operator(p, M), reference_operator(p, M)
        for a, b in ((op.coeffs, dense.coeffs), (op.dtn, dense.dtn)):
            assert rel(a, b) <= 1e-13

    # The condition estimate and the boundary residuals of cos theta, cos 2 theta and
    # cos 4 theta as the per-block einsum factor built them, before the orbit FFT: the
    # oracle_batch rings, the 20-disk random packing (g = 1) at M = 32, and criterion 5's
    # 4-disk ring at M = 258, whose residual is the eps term at convergence.
    PINNED = {
        "16-0.02-48": (equal_gap_ring(16, 0.02), 48, 213.01955435938305,
                       (0.023532769629208198, 0.06419402210157865, 0.12344233838005875)),
        "8-0.08-24": (equal_gap_ring(8, 0.08), 24, 50.1542351673434,
                      (0.011031766958188633, 0.020301188306498893, 0.025419725513687756)),
        "12-0.05-32": (equal_gap_ring(12, 0.05), 32, 91.88405338622567,
                       (0.015230444809498799, 0.03766454467458239, 0.043942059448839464)),
        "8-0.02-48": (equal_gap_ring(8, 0.02), 48, 140.20501690091268,
                      (0.012271980226942177, 0.02451633096529151, 0.03172835691479411)),
        "16-0.08-24": (equal_gap_ring(16, 0.08), 24, 76.3569354106347,
                       (0.015854750520808102, 0.0425786382940577, 0.08178589914265666)),
        "12-0.08-24": (equal_gap_ring(12, 0.08), 24, 62.899778768054865,
                       (0.019637894174108644, 0.043613555547194593, 0.06716374689325202)),
        "8-0.05-32": (equal_gap_ring(8, 0.05), 32, 71.7250318193089,
                      (0.009268812264650733, 0.017695519616673865, 0.022496895514375063)),
        "random-20-M32": (random_packing(20, 0.08, 0.01, seed=1), 32, 441.00000000000057,
                          (0.0027349293665544744, 0.006029245330577133, 0.010568263516057922)),
        "criterion-5-M258": (equal_gap_ring(4, 0.05), 258, 57.925675660959975,
                             (2.968033688845497e-15, 4.304173249621244e-15, 1.499986672579302e-15)),
    }

    @pytest.mark.parametrize("p, M, condition, residuals", PINNED.values(), ids=PINNED.keys())
    def test_condition_and_residual_as_before(self, p, M, condition, residuals):
        op = oracle._operator(p, M)
        assert op.condition == pytest.approx(condition, rel=1e-10)
        for k, residual in zip((1, 2, 4), residuals):
            bound = solve_dirichlet(p, FourierPotential.single_cos(k), M).boundary_residual
            assert bound == pytest.approx(residual, rel=1e-12)

    def test_criterion_5_ring_keeps_its_dtn_matrix(self):
        # Its dense reference takes 5 s and 0.4 GB, so its Lambda is pinned instead: the
        # diagonal at cos theta, cos 2 theta, cos 4 theta and sin 8 theta.
        M = 258
        dtn = oracle._operator(equal_gap_ring(4, 0.05), M).dtn
        expected = (25.385009275162083, 51.689681607659395, 29.932305062571224,
                    49.578320077670135)
        assert np.diagonal(dtn)[[1, 2, 4, 8]] == pytest.approx(expected, rel=1e-13)

    def test_build_memory(self):
        # With the blocks made and freed one at a time, and each mode's outer tail kept only
        # at its own residues, the (16, 0.02, 48) build stays under these (6.55 MB and
        # 2.47 MiB with every block held and a dense outer tail).
        p, M = equal_gap_ring(16, 0.02), 48
        oracle._operator.cache_clear()
        oracle._operator(p, M)
        oracle._operator.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            op = oracle._operator(p, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.3e6
        assert sum(a.nbytes for a in op if isinstance(a, np.ndarray)) <= 1.6 * 2**20

    def test_one_binomial_table_and_gesv_per_block(self, monkeypatch):
        tables, real = [], oracle._binomial_table
        monkeypatch.setattr(oracle, "_binomial_table", lambda *a: tables.append(a) or real(*a))
        calls = lapack_spy(monkeypatch)
        for p, M, g in [(equal_gap_ring(16, 0.02), 48, 16), (two_ring_packing(), 24, 4),
                        (random_packing(20, 0.08, 0.01, seed=1), 32, 1)]:
            oracle._operator.cache_clear()
            tables.clear()
            calls.clear()
            assert oracle._operator(p, M).order == g
            assert len(tables) == 1
            assert [c["block"].shape for c in calls] == block_sizes(p.n, M, g)
            assert all(c["fortran"] for c in calls)  # gesv factors it in place

    def test_one_pair_search_per_cold_build(self, monkeypatch):
        # validate_packing's KD-tree is the only one: the gap guard reads the pair
        # distances that the cuts use.
        trees, real = [], geometry.cKDTree
        monkeypatch.setattr(geometry, "cKDTree", lambda *a: trees.append(a) or real(*a))
        oracle._operator.cache_clear()
        oracle._operator(RING8, 16)
        assert len(trees) == 1


class TestGapQuadrature:
    def test_matches_sqrt_law_up_to_constant(self):
        # R/delta = 100: the square-root law gives 5 pi, the integral is
        # within an O(1) constant of it.
        val = gap_energy_quadrature(1.0, 1.0, 0.01)
        assert abs(val - 5.0 * math.pi) <= 2.0

    def test_wide_gap_limit(self):
        val = gap_energy_quadrature(1.0, 1.0, 100.0)
        assert val == pytest.approx(1.0 / 100.0, rel=0.05)

    def test_constant_offset_stabilizes(self):
        # The gap between integral and sqrt law settles to an O(1) constant.
        offs = [
            gap_energy_quadrature(1.0, 1.0, d) - 0.5 * math.pi * math.sqrt(1.0 / d)
            for d in (1e-1, 1e-2, 1e-3, 1e-4)
        ]
        assert max(offs) - min(offs) <= 0.5
        assert all(-2.0 <= o <= 0.0 for o in offs)

    def test_rejects_bad_inputs(self):
        for args in [(1.0, 1.0, 0.0), (math.inf, 1.0, 0.1), (1.0, math.nan, 0.1),
                     (1.0, 1.0, math.inf), (1.0, 1.0, math.nan)]:
            with pytest.raises(DomainError, match="positive and finite"):
                gap_energy_quadrature(*args)


class TestMaxPrinciple:
    def test_constant_field(self):
        p = ring_packing(4, 0.6, 0.1, 1.0)
        psi = FourierPotential(np.array([3.0]), np.array([0.0]))
        sol = solve_dirichlet(p, psi, M=8)
        rep = max_principle_check(sol, psi)
        assert rep.passed
        assert rep.inclusion_min == pytest.approx(3.0, abs=1e-8)

    def test_cosine_field(self):
        p = ring_packing(4, 0.6, 0.1, 1.0)
        psi = FourierPotential.single_cos(1)
        sol = solve_dirichlet(p, psi, M=16)
        rep = max_principle_check(sol, psi)
        assert rep.passed
        assert rep.psi_min == pytest.approx(-1.0, abs=1e-6)
        assert rep.u_max <= 1.0 + rep.tol

    def test_memory(self, ring8):
        # The field by Horner's rule holds O(points x n), not the 9.0 MB collocation block.
        psi = FourierPotential.single_cos(2)
        sol = solve_dirichlet(ring8, psi, M=16)
        gc.collect()
        tracemalloc.start()
        try:
            rep = max_principle_check(sol, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed
        assert peak <= 4e6

    def test_underresolved_solution_reports_fields(self):
        p = ring_packing(4, 0.6, 0.1, 1.0)
        psi = FourierPotential.single_cos(1)
        sol = solve_dirichlet(p, psi, M=1)
        rep = max_principle_check(sol, psi)
        assert rep.tol >= 10.0 * sol.boundary_residual
        assert rep.u_min <= rep.u_max


class TestConvergence:
    def test_residual_and_energy_with_truncation(self):
        p = ring_packing(8, 0.88, 0.1, 1.0)  # boundary gap 0.02, delta/R = 0.2
        psi = FourierPotential.single_cos(2)
        residuals = []
        energies = []
        for M in (8, 16, 32, 64, 96):
            sol = solve_dirichlet(p, psi, M)
            residuals.append(sol.boundary_residual)
            energies.append(sol.energy)
        for a, b in zip(residuals, residuals[1:]):
            assert b <= 1.1 * a
        assert residuals[-1] < 1e-3 * residuals[0]
        # Richer trial spaces cannot lose energy beyond roundoff.
        assert energies[-1] >= energies[0] - 1e-6
        rel_shift = abs(energies[-1] - energies[-2]) / energies[-1]
        assert rel_shift <= 1e-4

    def test_adding_a_disk_never_lowers_the_energy(self):
        """A perfectly conducting disk added to the matrix cannot lower the energy of the
        same boundary data (Rayleigh), checked on ring8 against the same ring less disk 3,
        which has no rotation symmetry. Within the residual: from M = 16 to 32 each of
        these six energies moved by less than its M = 16 residual (at most 0.83 of it),
        so the two residuals at M = 32 (at most 4.4e-3) bound both energies' errors, and
        the gain E_8 - E_7 (0.037, 0.113, 0.272) must exceed their sum."""
        p8 = ring_packing(8, 0.85, 0.1)
        p7 = Packing(p8.L, p8.inclusions[:3] + p8.inclusions[4:])
        for k in (1, 2, 4):
            psi = FourierPotential.single_cos(k)
            s8, s7 = solve_dirichlet(p8, psi, 32), solve_dirichlet(p7, psi, 32)
            assert s8.energy >= s7.energy, k
            assert s8.energy - s7.energy > s8.boundary_residual + s7.boundary_residual, k


class TestBidisperseRing:
    """The ``generalized`` network against the oracle at unequal radii."""

    def test_the_ring_has_its_gaps_and_symmetry(self):
        p = bidisperse_ring(0.1)
        a = analyze(p)
        R2 = p.radii()[1]
        assert np.allclose(p.radii(), np.tile([R2 / 0.6, R2], 8), rtol=1e-15)
        assert a.boundary_count == 16
        assert np.allclose(a.boundary_gaps, 0.1 * R2, rtol=1e-12)
        # The 16 angular neighbours, plus 8 long edges between big disks.
        assert np.allclose(np.sort(a.gap_widths)[:16], 0.1 * R2, rtol=1e-12)
        assert oracle._rotation_order(p) == 8

    def test_relative_error_record_at_gap_over_r2_0_1(self):
        """Asymptotic quad_form over the oracle's, minus 1, at M = 96 (where doubling M
        moves each oracle energy by at most 1.4e-6 relative). A record of today's
        behaviour, not a tolerance on the asymptotics: a change beyond 1e-3 is a
        change in the unequal-radius law or in the oracle."""
        p = bidisperse_ring(0.1)
        a = analyze(p)
        net = build_network(a, "generalized")
        for k, expected in {1: 0.2610, 2: 0.2984, 4: 0.1593, 8: 0.0431, 16: 0.0052}.items():
            psi = FourierPotential.single_cos(k)
            sol = solve_dirichlet(p, psi, 96)
            assert sol.boundary_residual <= 1e-3
            error = total_energy(psi, a, net).quad_form / (2.0 * sol.energy) - 1.0
            assert error == pytest.approx(expected, abs=1e-3), k


class TestGuards:
    def test_tight_gap_refused(self):
        p = Packing(10.0, (Disk(-1.00005, 0.0, 1.0), Disk(1.00005, 0.0, 1.0)))
        for _ in range(2):  # a refusal is not cached
            with pytest.raises(IllConditionedError):
                solve_dirichlet(p, FourierPotential.single_cos(1), M=8)

    def test_tight_pair_other_than_first_refused(self):
        # Only disks 1 and 2 are closer than GAP_GUARD * R_min.
        p = Packing(10.0, (
            Disk(-4.0, 0.0, 1.0), Disk(-1.00005, 0.0, 1.0), Disk(1.00005, 0.0, 1.0),
            Disk(4.0, 0.0, 1.0),
        ))
        with pytest.raises(IllConditionedError):
            solve_dirichlet(p, FourierPotential.single_cos(1), M=8)

    def test_tight_boundary_gap_refused(self):
        p = Packing(1.0, (Disk(0.89995, 0.0, 0.1),))
        with pytest.raises(IllConditionedError):
            solve_dirichlet(p, FourierPotential.single_cos(1), M=8)

    @pytest.mark.parametrize("disk", [Disk(0.0, 0.0, math.nan), Disk(0.0, 0.0, 0.0),
                                      Disk(0.0, 0.0, -0.1), Disk(math.nan, 0.0, 0.1)],
                             ids=["r-nan", "r-zero", "r-negative", "x-nan"])
    def test_invalid_disk_values_refused_silently(self, ring8, disk, capfd):
        p = Packing(1.0, ring8.inclusions + (disk,))
        for _ in range(2):
            with pytest.raises(ParseError, match="inclusion 8"):
                solve_dirichlet(p, FourierPotential.single_cos(1), M=16)
        assert capfd.readouterr() == ("", "")

    def test_rank_deficient_factor_refused(self, monkeypatch):
        # A zero column makes a block exactly singular: gesv stops at its pivot.
        def zero_column(a):
            a[:, -1] = 0.0

        calls = lapack_spy(monkeypatch, zero_column)
        for p, M, g in [(Packing(1.0, (Disk(0.3, 0.1, 0.2),)), 16, 1), (RING8, 16, 8)]:
            oracle._operator.cache_clear()
            calls.clear()
            assert oracle._rotation_order(p) == g
            for _ in range(2):  # a refusal is not cached
                with pytest.raises(IllConditionedError):
                    solve_dirichlet(p, FourierPotential.single_cos(1), M)
            # The first block is refused; no condition is estimated.
            assert [c["info"] > 0 for c in calls] == [True, True]
            assert not any("rcond" in c for c in calls)

    def test_full_rank_but_ill_conditioned_factor_refused(self, monkeypatch):
        # A column scaled by 1e-17 leaves the block nonsingular, with an rcond
        # below 1/CONDITION_LIMIT; in the ring only the complex blocks are scaled.
        def scale_column(a):
            if np.iscomplexobj(a) or not ring:
                a[:, -1] *= 1e-17

        calls = lapack_spy(monkeypatch, scale_column)
        for p, M, ring in [(EMPTY, 4, False), (RING8, 16, True)]:
            oracle._operator.cache_clear()
            calls.clear()
            for _ in range(2):
                with pytest.raises(IllConditionedError):
                    solve_dirichlet(p, FourierPotential.single_cos(1), M)
            assert all(c["info"] == 0 for c in calls)
            scaled = [c["rcond"] for c in calls if np.iscomplexobj(c["block"]) or not ring]
            assert scaled and all(0.0 < r < 1.0 / oracle.CONDITION_LIMIT for r in scaled)
        assert [c["block"].shape for c in calls] == block_sizes(RING8.n, 16, 8) * 2

    def test_truncation_below_max_frequency(self):
        with pytest.raises(ValueError):
            solve_dirichlet(EMPTY, FourierPotential.single_cos(5), M=3)

    def test_truncation_zero_rejected(self):
        const = FourierPotential(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            solve_dirichlet(EMPTY, const, M=0)
        with pytest.raises(ValueError):
            cross_form_oracle(EMPTY, const, const, M=0)

    def test_condition_reported(self):
        p = ring_packing(4, 0.6, 0.1, 1.0)
        sol = solve_dirichlet(p, FourierPotential.single_cos(1), M=8)
        assert sol.condition >= 1.0
