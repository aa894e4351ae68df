"""Direct numerical reference for the composite: partial-wave collocation.

The continuum potential is expanded in regular harmonics of the domain
disk plus decaying harmonics centered at each inclusion. Decaying
harmonics carry zero net flux through any circle enclosing their center,
so the conservation condition on each inclusion holds identically and no
logarithmic terms are needed. The boundary conditions (given trace on the
outer circle, unknown constants on the inclusion circles) are enforced by
oversampled least-squares collocation, solved once per (packing, M) for
every outer-trace mode; boundary data up to frequency M combine them.
The DtN matrix needs no quadrature: on the outer circle every harmonic has
an exact Fourier series (the multipole re-expansion of Rayleigh's method),
so the flux of each basis column onto each mode is known in closed form.

On an equally spaced ring of equal disks (centre k = e^{2 pi i k/n} centre 0)
with n | 4M, the rotation by 2 pi/n permutes the collocation points and maps
each harmonic to a multiple of another, so a discrete Fourier transform over
the disk index splits the system into n blocks of about 1/n of its rows and
columns, those above n/2 the conjugates of those below. The change of columns is
unitary and a block's rows are one orbit of points weighted by sqrt(n), so
the blocks' singular values are exactly the full matrix's: the rank cut and
the condition limit decide as for the dense solve every other packing takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.integrate

from .asymptotics import FourierPotential, _mode_vector, _modes, _slots
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
        coeffs = np.concatenate([self.domain_cos, self.domain_sin,
                                 np.stack([self.inclusion_cos, self.inclusion_sin], 1).ravel()])
        return (_basis_columns(zc.reshape(-1), self.packing, self.M) @ coeffs).reshape(zc.shape)


def _powers(w: np.ndarray, M: int):
    """Yield w^1..w^M, each the previous power times w, as a per-point loop would.

    np.cumprod runs complex products through a kernel that can differ in the
    last bit, and holding all M powers at once would need M times the memory.
    """
    p = w
    for _ in range(M):
        yield p
        p = p * w


def _basis_columns(zc: np.ndarray, packing: Packing, M: int) -> np.ndarray:
    """Collocation matrix block for the harmonic basis (no U columns)."""
    npts = zc.shape[0]
    cols = np.empty((npts, (2 * M + 1) + 2 * M * packing.n))
    cols[:, 0] = 1.0
    inc = cols[:, 2 * M + 1 :].reshape(npts, packing.n, 2, M)  # a view: (cos, sin) per disk
    w = packing.radii() / (zc[:, None] - packing.centers() @ np.array([1.0, 1j]))
    for m, (q, p) in enumerate(zip(_powers(zc / packing.L, M), _powers(w, M))):
        cols[:, 1 + m] = q.real
        cols[:, M + 1 + m] = q.imag
        inc[:, :, 0, m] = p.real
        inc[:, :, 1, m] = -p.imag
    return cols


def _flux_projection(packing: Packing, M: int) -> np.ndarray:
    """G[a, j] = L * integral of mode a times d/dr of basis column j on |x| = L.

    Domain harmonics (r/L)^f cos/sin(f theta) give pi f on their own mode.
    On |z| = L the binomial series (R/(z - c))^m = sum_f t_mf (L/z)^f, f >= m,
    has t_mf = (R/L)^m binom(f-1, m-1) (c/L)^(f-m) and |t_mf| <= (R/(L-|c|))^m,
    so only f <= M meets the modes and the row of cos 0 is zero.
    """
    n, L = packing.n, packing.L
    f = np.arange(1, M + 1)
    G = np.zeros((2 * M + 1, (2 * M + 1) + 2 * M * n))
    G[f, f] = G[M + f, M + f] = math.pi * f
    c, r = packing.centers() @ np.array([1.0, 1j]) / L, packing.radii() / L
    t = np.zeros((n, M + 1, M + 1), dtype=complex)  # t[i, m, f]
    for k in f:  # t_mk = t_m(k-1) (k-1)/(k-m) c/L, from t_mm = (R/L)^m
        t[:, 1:k, k] = t[:, 1:k, k - 1] * ((k - 1) / (k - f[: k - 1])) * c[:, None]
        t[:, k, k] = r**k
    flux = t[:, 1:, 1:].transpose(2, 0, 1) * (-math.pi * f)[:, None, None]  # (f, i, m)
    inc = G[:, 2 * M + 1 :].reshape(2 * M + 1, n, 2, M)  # a view: (cos, sin) per disk
    inc[1 : M + 1, :, 0], inc[1 : M + 1, :, 1] = flux.real, -flux.imag
    inc[M + 1 :, :, 0], inc[M + 1 :, :, 1] = flux.imag, flux.real
    return G


def _circle_points(packing: Packing, t_outer: np.ndarray, t_inner: np.ndarray):
    """Points at angles t_outer on the outer circle, then t_inner on each inclusion."""
    yield packing.L * np.exp(1j * t_outer)
    for disk in packing.inclusions:
        yield (disk.x + 1j * disk.y) + disk.r * np.exp(1j * t_inner)


class _Operator(NamedTuple):
    coeffs: np.ndarray  # (unknowns, 2M+1): the solution of each mode
    residual: np.ndarray  # (check points, 2M+1): collocation error of each mode
    dtn: np.ndarray  # (2M+1, 2M+1): Lambda, c_a^T Lambda c_b is the DtN form
    condition: float


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


def _dense_factor(packing: Packing, M: int, X: np.ndarray) -> np.ndarray:
    """Solve the full collocation system A X = B into X; return A's singular values."""
    n = packing.n
    n_per = 4 * M
    n_basis = (2 * M + 1) + 2 * M * n
    A = np.zeros((n_per * (n + 1), n_basis + n))
    B = np.zeros((n_per * (n + 1), 2 * M + 1))
    t = np.linspace(0.0, 2.0 * math.pi, n_per, endpoint=False)
    # Offset avoids symmetric aliasing against the outer-circle points.
    for i, z in enumerate(_circle_points(packing, t, t + math.pi / n_per)):
        A[i * n_per : (i + 1) * n_per, :n_basis] = _basis_columns(z, packing, M)
    A[n_per:, n_basis:] = -np.repeat(np.eye(n), n_per, axis=0)
    B[:n_per] = _modes(t, M)
    X[...], _, _, sv = np.linalg.lstsq(A, B, rcond=None)
    return sv


def _is_ring(packing: Packing, M: int) -> bool:
    """Equal disks with centre k = e^{2 pi i k/n} centre 0, and n | 4M."""
    n, radii = packing.n, packing.radii()
    if n < 2 or (4 * M) % n or np.any(radii != radii[0]):
        return False
    c = packing.centers() @ np.array([1.0, 1j])
    ideal = c[0] * np.exp(2j * math.pi * np.arange(n) / n)
    return bool(np.max(np.abs(c - ideal)) <= 64 * np.finfo(float).eps * packing.L)


def _factor_block(A: np.ndarray, b: np.ndarray):
    """Least-squares solution of one symmetry block, with its singular values."""
    y, _, _, sv = np.linalg.lstsq(A, b, rcond=None)
    return y, sv


def _ring_factor(packing: Packing, M: int, X: np.ndarray) -> np.ndarray:
    """``_dense_factor``'s solution and singular values on a C_n ring, from blocks 0..n/2.

    Block j holds the columns that the rotation multiplies by w^j, w = e^{2 pi i/n}:
    q^l (l = j mod n) and conj(q)^l (l = -j), q = z/L; sum_k w^{(j+m)k} p_k^m and
    sum_k w^{(j-m)k} conj(p_k)^m, p_k = R/(z - c_k); sum_k w^{jk} U_k; the constant
    in block 0. Block n - j is the conjugate: its modes e^{imt} are solved here as e^{-imt}.
    """
    n, L, R = packing.n, packing.L, packing.inclusions[0].r
    n_per, n_basis, s = 4 * M, (2 * M + 1) + 2 * M * n, 4 * M // n
    t = np.linspace(0.0, 2.0 * math.pi, n_per, endpoint=False)
    outer, disk0, *_ = _circle_points(packing, t, t + math.pi / n_per)
    z = np.concatenate([outer[:s], disk0])
    q = math.sqrt(n / 2) * np.stack(list(_powers(z / L, M)), axis=-1)
    # sum_k w^{gk} p_k^m for every g: one FFT over the disk index.
    w = R / (z[:, None] - packing.centers() @ np.array([1.0, 1j]))
    p = np.fft.ifft(np.stack(list(_powers(w, M)), axis=-1), axis=1, norm="forward")
    m, k, freq, rt2 = np.arange(1, M + 1), np.arange(n)[:, None], np.arange(M + 1), math.sqrt(2)
    sv = []
    for j in range(n // 2 + 1):
        lp, lm = m[m % n == j] - 1, m[-m % n == j] - 1
        H = np.hstack([q[:, lp], p[:, (j + m) % n, m - 1] / rt2])
        Hbar = np.hstack([q[:, lm].conj(), p[:, (m - j) % n, m - 1].conj() / rt2])
        S = np.zeros((z.size, 1 + (j == 0)))
        S[s:, 0] = -1.0  # sum_k w^{jk} U_k / sqrt(n), zero on the outer points
        S[:, 1:] = math.sqrt(n)  # the constant
        f = np.concatenate([freq[freq % n == j], -freq[(-freq % n == j) & (freq % n != j)]])
        b = np.zeros((z.size, f.size), dtype=complex)
        b[:s] = math.sqrt(n) * np.exp(1j * np.multiply.outer(t[:s], f))
        h = H.shape[1]
        if 2 * j % n == 0:  # Hbar = conj(H): [Re H, Im H] sqrt(2) is a real unitary image
            yr, sv_j = _factor_block(np.hstack([rt2 * H.real, rt2 * H.imag, S]),
                                     np.hstack([b.real, b.imag]))
            y = yr[:, : f.size] + 1j * yr[:, f.size :]
            y = np.concatenate([(y[:h] - 1j * y[h : 2 * h]) / rt2,
                                (y[:h] + 1j * y[h : 2 * h]) / rt2, y[2 * h :]])
            sv.append(sv_j)
        else:
            y, sv_j = _factor_block(np.hstack([H, Hbar, S]), b)
            sv += [sv_j, sv_j]
        # Back to A's columns, x = T y: q^l = Re + i Im, p^m = c - i d, U and 1 as they are.
        yq, yp, yqbar, ypbar = np.split(y[: h + lm.size + M], [lp.size, h, h + lm.size])
        x = np.zeros((n_basis + n, f.size), dtype=complex)
        x[1 + lp] += yq / rt2
        x[1 + M + lp] += 1j * yq / rt2
        x[1 + lm] += yqbar / rt2
        x[1 + M + lm] -= 1j * yqbar / rt2
        mu = np.exp(2j * math.pi * k * (j + m) / n)[..., None] * yp / math.sqrt(2 * n)
        nu = np.exp(2j * math.pi * k * (j - m) / n)[..., None] * ypbar / math.sqrt(2 * n)
        inc = x[2 * M + 1 : n_basis].reshape(n, 2, M, f.size)
        inc[:, 0], inc[:, 1] = mu + nu, 1j * (nu - mu)
        x[n_basis:] = np.exp(2j * math.pi * k * j / n) * y[-S.shape[1]] / math.sqrt(n)
        if j == 0:
            x[0] = y[-1]
        X[:, np.abs(f)] = x.real
        X[:, M - f[f < 0]] = -x[:, f < 0].imag
        X[:, M + f[f > 0]] = x[:, f > 0].imag
    return np.concatenate(sv)


@lru_cache(maxsize=1)
def _operator(packing: Packing, M: int) -> _Operator:
    """Collocation solve of every outer-trace mode, factored once per (packing, M)."""
    return _solve(packing, M, _ring_factor if _is_ring(packing, M) else _dense_factor)


def _solve(packing: Packing, M: int, factor) -> _Operator:
    """The operator of ``factor``'s solution, refused when A is ill-conditioned.

    The matrix is freed before returning; only O(2M+1) columns per unknown
    and per check point, and the (2M+1)^2 DtN matrix, are kept, read-only.
    A refusal raises, so it is not cached and a refused packing is refused
    on every call.
    """
    n = packing.n
    if n > 0 and _min_gap_ratio(packing) < GAP_GUARD:
        raise IllConditionedError(
            f"delta_min/R_min below {GAP_GUARD}: the dense basis cannot resolve "
            "this regime; use the asymptotic formula instead"
        )
    n_basis = (2 * M + 1) + 2 * M * n
    n_unknown = n_basis + n
    n_chk = 8 * M
    # The kept tables come before the matrix, so that the matrix and the
    # solver's workspace lie above them on the heap and can be released.
    X = np.empty((n_unknown, 2 * M + 1))
    residual = np.empty((n_chk * (n + 1), 2 * M + 1))
    dtn = np.empty((2 * M + 1, 2 * M + 1))
    sv = factor(packing, M, X)
    # lstsq's rank cut, with the full matrix's dimensions.
    cut = np.finfo(float).eps * max(4 * M * (n + 1), n_unknown) * sv.max()
    rank = np.count_nonzero(sv > cut)
    condition = sv.max() / sv.min()
    if sv.max() > 0 and (rank < n_unknown or condition > CONDITION_LIMIT):
        raise IllConditionedError(
            f"collocation system condition estimate {condition:.3g} exceeds "
            f"{CONDITION_LIMIT:.0e}"
        )

    # Residual on denser, shifted check points: the trace error on the outer
    # circle, then the deviation from the constant U_i on each inclusion.
    t = np.linspace(0.0, 2.0 * math.pi, n_chk, endpoint=False)
    t_outer = t + 0.5 * math.pi / n_chk
    targets = [_modes(t_outer, M), *X[n_basis:]]
    for i, (z, y) in enumerate(zip(_circle_points(packing, t_outer, t), targets)):
        residual[i * n_chk : (i + 1) * n_chk] = _basis_columns(z, packing, M) @ X[:n_basis] - y
    # Lambda = sym(G X), with the flux projection G in closed form.
    form = _flux_projection(packing, M) @ X[:n_basis]
    dtn[...] = 0.5 * (form + form.T)
    for a in (X, residual, dtn):
        a.flags.writeable = False
    return _Operator(X, residual, dtn, float(condition))


def _checked_operator(packing: Packing, M: int, K: int) -> _Operator:
    if M < max(K, 1):
        raise ValueError(f"truncation M = {M} is below 1 or the max frequency K = {K}")
    return _operator(packing, M)


def solve_dirichlet(packing: Packing, psi: FourierPotential, M: int) -> SpectralSolution:
    """Least-squares collocation solve of the composite Dirichlet problem."""
    op = _checked_operator(packing, M, psi.K)
    c = _mode_vector(psi, M)
    n_basis = (2 * M + 1) + 2 * M * packing.n
    coeffs = op.coeffs @ c
    inc = coeffs[2 * M + 1 : n_basis].reshape(packing.n, 2, M)
    return SpectralSolution(
        packing=packing, M=M, domain_cos=coeffs[: M + 1], domain_sin=coeffs[M + 1 : 2 * M + 1],
        inclusion_cos=inc[:, 0], inclusion_sin=inc[:, 1], U=coeffs[n_basis:],
        energy=0.5 * float(c @ op.dtn @ c),
        boundary_residual=float(np.max(np.abs(op.residual @ c))), condition=op.condition,
    )


def quad_form_oracle(packing: Packing, psi: FourierPotential, M: int) -> float:
    """Twice the continuum energy: the DtN quadratic form."""
    return cross_form_oracle(packing, psi, psi, M)


def cross_form_oracle(
    packing: Packing, psi_a: FourierPotential, psi_b: FourierPotential, M: int
) -> float:
    """Off-diagonal DtN form c_a^T Lambda c_b."""
    op = _checked_operator(packing, M, max(psi_a.K, psi_b.K))
    return float(_mode_vector(psi_a, M) @ op.dtn @ _mode_vector(psi_b, M))


def dtn_oracle(packing: Packing, K: int, M: int) -> np.ndarray:
    """Lambda on the modes cos 0..K, sin 1..K, as ``asymptotics.dtn_asymptotic``."""
    idx = _slots(K, M)
    return _checked_operator(packing, M, K).dtn[np.ix_(idx, idx)]


def _gap_energy(delta: float, radii: tuple[float, ...]) -> float:
    """(1/2) integral of dx / h(x) over |x| <= min(radii), where the gap height
    h is delta plus the sag R (1 - sqrt(1 - (x/R)^2)) of each curved side R."""

    def inv_h(x):
        h = delta
        for R in radii:
            h = h + R * (1.0 - np.sqrt(np.maximum(0.0, 1.0 - (x / R) ** 2)))
        return 1.0 / h

    X = min(radii)
    val, _ = scipy.integrate.quad(inv_h, -X, X, epsabs=0.0, epsrel=1e-10, limit=200)
    return 0.5 * val


def gap_energy_quadrature(R_i: float, R_j: float, delta: float) -> float:
    """(1/2) integral of dx / h(x) across the gap between two disks."""
    if not (R_i > 0 and R_j > 0 and delta > 0):
        raise DomainError("radii and gap width must be positive")
    return _gap_energy(delta, (R_i, R_j))


def gap_energy_quadrature_wall(R: float, delta: float) -> float:
    """Flat-wall variant: disk of radius R at distance delta from a wall."""
    if not (R > 0 and delta > 0):
        raise DomainError("radius and gap width must be positive")
    return _gap_energy(delta, (R,))


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
