"""Direct numerical reference for the composite: partial-wave collocation.

The continuum potential is expanded in regular harmonics of the domain
disk plus decaying harmonics centered at each inclusion. Decaying
harmonics carry zero net flux through any circle enclosing their center,
so the conservation condition on each inclusion holds identically and no
logarithmic terms are needed. The boundary conditions (given trace on the
outer circle, unknown constants on the inclusion circles) are enforced by
oversampled least-squares collocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate

from .asymptotics import FourierPotential
from .errors import DomainError, IllConditionedError
from .geometry import Packing, _pair_gaps

CONDITION_LIMIT = 1e14
GAP_GUARD = 1e-3  # refuse solves below delta_min / R_min = 1e-3


@dataclass(frozen=True)
class SpectralSolution:
    packing: Packing
    M: int
    domain_cos: np.ndarray  # a_m, m = 0..M, basis (r/L)^m cos(m theta)
    domain_sin: np.ndarray  # b_m, m = 1..M
    inclusion_cos: np.ndarray  # (N, M): c_im, basis (R_i/rho_i)^m cos(m phi_i)
    inclusion_sin: np.ndarray  # (N, M): d_im
    U: np.ndarray  # inclusion potentials
    energy: float
    boundary_residual: float
    condition: float

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Potential at points of shape (..., 2) in the matrix region."""
        z = np.asarray(points, dtype=float)
        zc = z[..., 0] + 1j * z[..., 1]
        return _evaluate_field(self, zc)


def _basis_columns(
    zc: np.ndarray, packing: Packing, M: int
) -> np.ndarray:
    """Collocation matrix block for the harmonic basis (no U columns)."""
    npts = zc.shape[0]
    L = packing.L
    n = packing.n
    cols = np.empty((npts, (2 * M + 1) + 2 * M * n))
    q = zc / L
    powers = np.empty((npts, M + 1), dtype=complex)
    powers[:, 0] = 1.0
    for m in range(1, M + 1):
        powers[:, m] = powers[:, m - 1] * q
    cols[:, : M + 1] = powers.real
    cols[:, M + 1 : 2 * M + 1] = powers[:, 1:].imag
    off = 2 * M + 1
    for i, disk in enumerate(packing.inclusions):
        w = disk.r / (zc - (disk.x + 1j * disk.y))
        p = w.copy()
        for m in range(M):
            cols[:, off + 2 * i * M + m] = p.real
            cols[:, off + (2 * i + 1) * M + m] = -p.imag
            p = p * w
    return cols


def _evaluate_field(sol: SpectralSolution, zc: np.ndarray) -> np.ndarray:
    shape = zc.shape
    flat = zc.reshape(-1)
    cols = _basis_columns(flat, sol.packing, sol.M)
    coeffs = _pack_coeffs(sol)
    return (cols @ coeffs).reshape(shape)


def _pack_coeffs(sol: SpectralSolution) -> np.ndarray:
    parts = [sol.domain_cos, sol.domain_sin]
    for i in range(sol.packing.n):
        parts.append(sol.inclusion_cos[i])
        parts.append(sol.inclusion_sin[i])
    return np.concatenate(parts)


def _normal_derivative_on_gamma(
    sol: SpectralSolution, theta: np.ndarray
) -> np.ndarray:
    """Radial derivative of the potential on the outer circle."""
    L = sol.packing.L
    zc = L * np.exp(1j * theta)
    nhat = np.exp(1j * theta)
    m = np.arange(1, sol.M + 1)
    # Domain harmonics: d/dn Re/Im (z/L)^m = (m/L) cos/sin(m theta).
    arg = np.multiply.outer(theta, m)
    out = (np.cos(arg) * (m / L)) @ sol.domain_cos[1:]
    out += (np.sin(arg) * (m / L)) @ sol.domain_sin
    # Inclusion harmonics via the holomorphic derivative.
    for i, disk in enumerate(sol.packing.inclusions):
        w = zc - (disk.x + 1j * disk.y)
        for mm in range(1, sol.M + 1):
            fprime = -mm * disk.r**mm * w ** (-mm - 1)
            fn = fprime * nhat
            out += sol.inclusion_cos[i, mm - 1] * fn.real
            out += sol.inclusion_sin[i, mm - 1] * (-fn.imag)
    return out


def _min_gap_ratio(packing: Packing) -> float:
    """delta_min / R_min over the boundary gaps and the pairs near the guard.

    Pairs beyond the reach of the KD-tree query have gaps above
    GAP_GUARD * R_min, so the comparison with GAP_GUARD is exact.
    """
    centers = packing.centers()
    radii = packing.radii()
    r_min = radii.min()
    boundary = packing.L - np.hypot(centers[:, 0], centers[:, 1]) - radii
    _, pair_gaps = _pair_gaps(packing, GAP_GUARD * r_min)
    return min(boundary.min(), pair_gaps.min(initial=np.inf)) / r_min


def solve_dirichlet(
    packing: Packing, psi: FourierPotential, M: int
) -> SpectralSolution:
    """Least-squares collocation solve of the composite Dirichlet problem."""
    if M < psi.K:
        raise ValueError(f"truncation M = {M} is below the max frequency K = {psi.K}")
    n = packing.n
    if n > 0 and _min_gap_ratio(packing) < GAP_GUARD:
        raise IllConditionedError(
            f"delta_min/R_min below {GAP_GUARD}: the dense basis cannot resolve "
            "this regime; use the asymptotic formula instead"
        )
    L = packing.L
    n_per = 4 * M
    n_basis = (2 * M + 1) + 2 * M * n
    n_unknown = n_basis + n
    rows = n_per * (n + 1)
    A = np.zeros((rows, n_unknown))
    b = np.zeros(rows)

    theta_g = np.linspace(0.0, 2.0 * math.pi, n_per, endpoint=False)
    zg = L * np.exp(1j * theta_g)
    A[:n_per, :n_basis] = _basis_columns(zg, packing, M)
    b[:n_per] = psi.evaluate(theta_g)

    for i, disk in enumerate(packing.inclusions):
        # Offset avoids symmetric aliasing against the outer-circle points.
        phi = np.linspace(0.0, 2.0 * math.pi, n_per, endpoint=False) + math.pi / n_per
        zi = (disk.x + 1j * disk.y) + disk.r * np.exp(1j * phi)
        r0 = n_per * (i + 1)
        A[r0 : r0 + n_per, :n_basis] = _basis_columns(zi, packing, M)
        A[r0 : r0 + n_per, n_basis + i] = -1.0

    coeffs, _, rank, sv = np.linalg.lstsq(A, b, rcond=None)
    if sv[0] > 0 and (rank < n_unknown or sv[0] / sv[-1] > CONDITION_LIMIT):
        raise IllConditionedError(
            f"collocation system condition estimate {sv[0] / sv[-1]:.3g} exceeds "
            f"{CONDITION_LIMIT:.0e}"
        )
    cond = float(sv[0] / sv[-1])

    dc = coeffs[: M + 1]
    ds = coeffs[M + 1 : 2 * M + 1]
    inc_c = np.empty((n, M))
    inc_s = np.empty((n, M))
    off = 2 * M + 1
    for i in range(n):
        inc_c[i] = coeffs[off + 2 * i * M : off + (2 * i + 1) * M]
        inc_s[i] = coeffs[off + (2 * i + 1) * M : off + (2 * i + 2) * M]
    U = coeffs[n_basis:]

    sol = SpectralSolution(
        packing=packing,
        M=M,
        domain_cos=dc,
        domain_sin=ds,
        inclusion_cos=inc_c,
        inclusion_sin=inc_s,
        U=U,
        energy=0.0,
        boundary_residual=0.0,
        condition=cond,
    )

    # Residual on denser, shifted check points.
    n_chk = 8 * M
    theta_c = np.linspace(0.0, 2.0 * math.pi, n_chk, endpoint=False) + 0.5 * math.pi / n_chk
    resid = float(
        np.max(np.abs(_evaluate_field(sol, L * np.exp(1j * theta_c)) - psi.evaluate(theta_c)))
    )
    for i, disk in enumerate(packing.inclusions):
        phi = np.linspace(0.0, 2.0 * math.pi, n_chk, endpoint=False)
        zi = (disk.x + 1j * disk.y) + disk.r * np.exp(1j * phi)
        resid = max(resid, float(np.max(np.abs(_evaluate_field(sol, zi) - U[i]))))

    # Energy from the boundary flux integral, periodic trapezoid rule.
    n_q = max(8 * M, 8 * (psi.K + 1), 64)
    theta_q = np.linspace(0.0, 2.0 * math.pi, n_q, endpoint=False)
    dn = _normal_derivative_on_gamma(sol, theta_q)
    energy = 0.5 * L * (2.0 * math.pi / n_q) * float(np.sum(psi.evaluate(theta_q) * dn))

    return SpectralSolution(
        packing=packing,
        M=M,
        domain_cos=dc,
        domain_sin=ds,
        inclusion_cos=inc_c,
        inclusion_sin=inc_s,
        U=U,
        energy=energy,
        boundary_residual=resid,
        condition=cond,
    )


def quad_form_oracle(packing: Packing, psi: FourierPotential, M: int) -> float:
    """Twice the continuum energy: the DtN quadratic form."""
    return 2.0 * solve_dirichlet(packing, psi, M).energy


def cross_form_oracle(
    packing: Packing, psi_a: FourierPotential, psi_b: FourierPotential, M: int
) -> float:
    """Off-diagonal DtN form by polarization of the quadratic forms."""
    K = max(psi_a.K, psi_b.K)

    def pad(p: FourierPotential) -> tuple[np.ndarray, np.ndarray]:
        c = np.zeros(K + 1)
        s = np.zeros(K + 1)
        c[: p.K + 1] = p.cos_coeffs
        s[: p.K + 1] = p.sin_coeffs
        return c, s

    ca, sa = pad(psi_a)
    cb, sb = pad(psi_b)
    combined = FourierPotential(ca + cb, sa + sb)
    q_ab = quad_form_oracle(packing, combined, M)
    q_a = quad_form_oracle(packing, psi_a, M)
    q_b = quad_form_oracle(packing, psi_b, M)
    return 0.5 * (q_ab - q_a - q_b)


def gap_energy_quadrature(R_i: float, R_j: float, delta: float) -> float:
    """(1/2) integral of dx / h(x) across the gap between two disks."""
    if not (R_i > 0 and R_j > 0 and delta > 0):
        raise DomainError("radii and gap width must be positive")
    X = min(R_i, R_j)

    def h(x):
        return (
            delta
            + R_i * (1.0 - np.sqrt(np.maximum(0.0, 1.0 - (x / R_i) ** 2)))
            + R_j * (1.0 - np.sqrt(np.maximum(0.0, 1.0 - (x / R_j) ** 2)))
        )

    val, _ = scipy.integrate.quad(
        lambda x: 1.0 / h(x), -X, X, epsabs=0.0, epsrel=1e-10, limit=200
    )
    return 0.5 * val


def gap_energy_quadrature_wall(R: float, delta: float) -> float:
    """Flat-wall variant: disk of radius R at distance delta from a wall."""
    if not (R > 0 and delta > 0):
        raise DomainError("radius and gap width must be positive")

    def h(x):
        return delta + R * (1.0 - np.sqrt(np.maximum(0.0, 1.0 - (x / R) ** 2)))

    val, _ = scipy.integrate.quad(
        lambda x: 1.0 / h(x), -R, R, epsabs=0.0, epsrel=1e-10, limit=200
    )
    return 0.5 * val


@dataclass(frozen=True)
class MaxPrincipleReport:
    passed: bool
    tol: float
    psi_min: float
    psi_max: float
    u_min: float
    u_max: float
    inclusion_min: float
    inclusion_max: float


def max_principle_check(
    sol: SpectralSolution, psi: FourierPotential, grid: int = 64
) -> MaxPrincipleReport:
    """Inclusion potentials and sampled field bounded by the boundary data."""
    theta = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    vals = psi.evaluate(theta)
    psi_min, psi_max = float(vals.min()), float(vals.max())
    tol = max(10.0 * sol.boundary_residual, 1e-12)

    L = sol.packing.L
    xs = np.linspace(-L, L, grid)
    xx, yy = np.meshgrid(xs, xs)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    keep = np.hypot(pts[:, 0], pts[:, 1]) < L * (1.0 - 1e-9)
    for disk in sol.packing.inclusions:
        keep &= np.hypot(pts[:, 0] - disk.x, pts[:, 1] - disk.y) > disk.r * (1.0 + 1e-9)
    field = sol.evaluate(pts[keep])
    u_min = float(field.min()) if field.size else psi_min
    u_max = float(field.max()) if field.size else psi_max
    inc_min = float(sol.U.min()) if sol.U.size else psi_min
    inc_max = float(sol.U.max()) if sol.U.size else psi_max
    passed = (
        inc_min >= psi_min - tol
        and inc_max <= psi_max + tol
        and u_min >= psi_min - tol
        and u_max <= psi_max + tol
    )
    return MaxPrincipleReport(
        passed=passed,
        tol=tol,
        psi_min=psi_min,
        psi_max=psi_max,
        u_min=u_min,
        u_max=u_max,
        inclusion_min=inc_min,
        inclusion_max=inc_max,
    )
