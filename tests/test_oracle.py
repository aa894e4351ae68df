import math

import numpy as np
import pytest

from dtnnet.asymptotics import FourierPotential
from dtnnet.errors import DomainError, IllConditionedError
from dtnnet.generators import ring_packing
from dtnnet.geometry import Disk, Packing
from dtnnet.oracle import (
    cross_form_oracle,
    gap_energy_quadrature,
    gap_energy_quadrature_wall,
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


class TestGapQuadrature:
    def test_matches_sqrt_law_up_to_constant(self):
        # R/delta = 100: the square-root law gives 5 pi, the integral is
        # within an O(1) constant of it.
        val = gap_energy_quadrature(1.0, 1.0, 0.01)
        assert abs(val - 5.0 * math.pi) <= 2.0

    def test_wide_gap_limit(self):
        val = gap_energy_quadrature(1.0, 1.0, 100.0)
        assert val == pytest.approx(1.0 / 100.0, rel=0.05)

    def test_wall_variant(self):
        val = gap_energy_quadrature_wall(1.0, 0.02)
        assert abs(val - 5.0 * math.pi) <= 3.0

    def test_constant_offset_stabilizes(self):
        # The gap between integral and sqrt law settles to an O(1) constant.
        offs = [
            gap_energy_quadrature(1.0, 1.0, d) - 0.5 * math.pi * math.sqrt(1.0 / d)
            for d in (1e-1, 1e-2, 1e-3, 1e-4)
        ]
        assert max(offs) - min(offs) <= 0.5
        assert all(-2.0 <= o <= 0.0 for o in offs)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            gap_energy_quadrature(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            gap_energy_quadrature_wall(-1.0, 0.1)


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


class TestGuards:
    def test_tight_gap_refused(self):
        p = Packing(10.0, (Disk(-1.00005, 0.0, 1.0), Disk(1.00005, 0.0, 1.0)))
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

    def test_truncation_below_max_frequency(self):
        with pytest.raises(ValueError):
            solve_dirichlet(EMPTY, FourierPotential.single_cos(5), M=3)

    def test_condition_reported(self):
        p = ring_packing(4, 0.6, 0.1, 1.0)
        sol = solve_dirichlet(p, FourierPotential.single_cos(1), M=8)
        assert sol.condition >= 1.0
