"""Direct numerical reference for the composite: partial-wave Fourier-Galerkin.

The continuum potential is expanded in regular harmonics of the domain disk
plus decaying harmonics centered at each inclusion, which carry zero net flux
through any circle enclosing their center, so the conservation condition on
each inclusion holds identically and no logarithmic terms are needed. The
boundary conditions (given trace on the outer circle, unknown constants on the
inclusions) are projected onto each circle's Fourier modes |m| <= M (Rayleigh's
multipole method) in closed form: on every circle each harmonic has a binomial
re-expansion (Greengard and Moura's translation operators), as has its flux onto
the outer modes, the DtN matrix; nothing is sampled. The square system is solved
by LU once per (packing, M) for every outer-trace mode; data up to M combine them.

When a rotation by 2 pi/g maps disk k onto disk k + n/g (mod n) for every k, it
maps each harmonic to a multiple of another, so a discrete Fourier transform over
each orbit of disks splits the system into g blocks of about 1/g of its rows and
columns, those above g/2 the conjugates of those below. Both changes of basis are
unitary, so the blocks' singular values are exactly the full system's; without
such a rotation g = 1. The condition limit applies to LAPACK's 1-norm estimate of
each block. With g | 8M the rotation also carries one orbit of the residual's
check points onto all of them: the error of psi at a rotated point is that of
psi(theta + 2 pi p/g) at an orbit point, so the residual table holds 1/g of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.integrate
from scipy.linalg.lapack import get_lapack_funcs

from .asymptotics import FourierPotential, _mode_vector, _modes, _slots
from .errors import DomainError, IllConditionedError
from .geometry import Packing, _pair_gaps, validate_packing

CONDITION_LIMIT = 1e14
GAP_GUARD = 1e-3  # refuse solves below delta_min / R_min = 1e-3
_GRID = 64  # points per side of the square that max_principle_check samples
_CHUNK = 128  # check points per _basis_columns call in _residual_table


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


def _binomial_table(c: np.ndarray, r: np.ndarray, M: int) -> np.ndarray:
    """T[i, a, b] = binom(b, a) c_i^(b-a) r_i^a, 0 <= a <= b <= M, the coefficient of
    e^{ia tau} in (c_i + r_i e^{i tau})^b: from T[a, a] = r^a, each entry is the one
    before it in b times c b/(b - a), so none exceeds (|c| + r)^b."""
    a = np.arange(M + 1)
    T = np.zeros((c.size, M + 1, M + 1), dtype=complex)
    for b in a:
        T[:, :b, b] = T[:, :b, b - 1] * (b / (b - a[:b])) * c[:, None]
        T[:, b, b] = r**b
    return T


def _flux_projection(packing: Packing, M: int) -> np.ndarray:
    """G[a, j] = L * integral of mode a times d/dr of basis column j on |x| = L.

    Domain harmonics (r/L)^f cos/sin(f theta) give pi f on their own mode.
    On |z| = L the binomial series (R/(z - c))^m = sum_f t_mf (L/z)^f, f >= m,
    has t_mf = (R/L)^m binom(f-1, m-1) (c/L)^(f-m) = (R/L) T[m-1, f-1], T the
    ``_binomial_table`` of c/L and R/L, so only f <= M meets the modes and the row of
    cos 0 is zero.
    """
    n, c, r = packing.n, packing.centers() @ np.array([1.0, 1j]), packing.radii()
    f = np.arange(1, M + 1)
    G = np.zeros((2 * M + 1, (2 * M + 1) + 2 * M * n))
    G[f, f] = G[M + f, M + f] = math.pi * f
    t = (r / packing.L)[:, None, None] * _binomial_table(c / packing.L, r / packing.L, M - 1)
    flux = t.transpose(2, 0, 1) * (-math.pi * f)[:, None, None]  # (f, i, m)
    inc = G[:, 2 * M + 1 :].reshape(2 * M + 1, n, 2, M)  # a view: (cos, sin) per disk
    inc[1 : M + 1, :, 0], inc[1 : M + 1, :, 1] = flux.real, -flux.imag
    inc[M + 1 :, :, 0], inc[M + 1 :, :, 1] = flux.imag, flux.real
    return G


class _Operator(NamedTuple):
    coeffs: np.ndarray  # (unknowns, 2M+1): the solution of each mode
    residual: np.ndarray  # (check points / g, 2M+1): collocation error of each mode
    dtn: np.ndarray  # (2M+1, 2M+1): Lambda, c_a^T Lambda c_b is the DtN form
    condition: float
    order: int  # g: a rotation by 2 pi/g maps the packing and the check points onto themselves


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


def _rotation_order(packing: Packing, M: int) -> int:
    """The largest g | gcd(n, 8M) with disk k + n/g disk k rotated by 2 pi/g, else 1 (the
    factor needs g | n alone; the residual table's orbit of 8M/g check points, g | 8M)."""
    n, d = packing.n, math.gcd(packing.n, 8 * M)
    c, radii = packing.centers() @ np.array([1.0, 1j]), packing.radii()
    for g in range(d if n else 1, 1, -1):
        if (d % g == 0 and np.array_equal(np.roll(radii, n // g), radii)
                and np.max(np.abs(np.roll(c, -(n // g)) - c * np.exp(2j * math.pi / g)))
                <= 64 * np.finfo(float).eps * packing.L):
            return g
    return 1


def _orbit_factor(packing: Packing, M: int, g: int, X: np.ndarray) -> float:
    """Solve the Galerkin system for every outer-trace mode into X from its C_g blocks
    0..g/2; return the largest LAPACK 1-norm condition estimate of a block (inf: singular).

    Disk r + k n/g is disk r rotated by 2 pi k/g; w = e^{2 pi i/g}. Block j holds the
    columns that the rotation multiplies by w^j: q^l (l = j mod g) and conj(q)^l
    (l = -j), q = z/L; for each representative r, sum_k w^{(j+m)k} p_rk^m and
    sum_k w^{(j-m)k} conj(p_rk)^m, p_rk = R_r/(z - c_rk), and sum_k w^{jk} U_rk; the
    constant in block 0. Block g - j is the conjugate: its modes e^{imt} are solved
    here as e^{-imt}. In blocks 0 and g/2 the conjugate columns are conj(H), so they
    are solved in real arithmetic as [Re H, Im H] sqrt(2); at g = 1 block 0 is the
    whole system. Its rows are each circle's Fourier coefficients: the outer modes e^{ift},
    f = j mod g, then each representative's e^{im tau}, |m| <= M, times sqrt(g) (real
    blocks: c_0, sqrt(2) Re c_m, sqrt(2) Im c_m). On disk r, q^l is sum_a T[r, a, l] e^{ia tau}
    (``_binomial_table``), p_r^m is e^{-im tau}, and p_k^m, k != r, is (R_k/d)^m sum_a (-1)^a
    binom(m+a-1, a) (R_r/d)^a e^{ia tau}, d = c_r - c_k; on |z| = L, p_k^m is sum_f t_mf
    e^{-ift} (``_flux_projection``). g is ``_rotation_order(packing, M)``.
    """
    n, L = packing.n, packing.L
    nr, rg, rt2 = n // g, math.sqrt(g), math.sqrt(2)
    n_basis = (2 * M + 1) + 2 * M * n
    m, freq, k = np.arange(1, M + 1), np.arange(M + 1), np.arange(g)[:, None]
    modes = np.r_[0 : M + 1, -M:0]  # |m| <= M in FFT order: mode m is at m % (2M + 1)
    c, radii = packing.centers() @ np.array([1.0, 1j]), packing.radii()
    T = _binomial_table(c[:nr] / L, radii[:nr] / L, M)

    def rows(S, Sc, f, real):  # spectra of v and conj(vbar) -> f's block rows of their columns
        if real:  # vbar = v: Re v, Im v, of rows c_0, sqrt(2) Re c_m, sqrt(2) Im c_m (m > 0)
            S, Sc = S[:, : M + 1], Sc[:, : M + 1]
            S = np.concatenate([S + Sc, (Sc - S) * 1j], -1) / rt2  # sqrt(2) c_m, m >= 0
            S = [np.concatenate([a[:, :z].real / rt2, a[:, z:].real, a[:, z:].imag], 1)
                 for a, z in ((S[:1, f], np.count_nonzero(f == 0)), (S[1:], 1))]
        else:  # v/sqrt(2), conj(vbar)/sqrt(2)
            S = np.concatenate([S, Sc], -1) / rt2
            S = [S[:1, f], S[1:]]
        return np.concatenate([a.reshape(a.shape[0] * a.shape[1], a.shape[2]) for a in S])

    # Spectra S[circle, mode, l] of sqrt(g) q^l, the outer circle's over sqrt(g).
    Sq = np.zeros((nr + 1, 2 * M + 1, M), dtype=complex)
    Sq[0, m, m - 1] = 1.0
    Sq[1:, : M + 1] = rg * T[:nr, :, 1:]
    blocks = []
    for j in range(g // 2 + 1):
        lp, lm = m[m % g == j] - 1, m[-m % g == j] - 1
        f = np.concatenate([freq[freq % g == j], -freq[(-freq % g == j) & (freq % g != j)]])
        # Column offsets: q^l, the p sums (r-major), conj(q)^l, theirs, U, 1.
        o = np.cumsum([0, lp.size, M * nr, lm.size, M * nr, nr])
        real = 2 * j % g == 0
        A = np.zeros((o[-1] + (j == 0),) * 2, dtype=float if real else complex, order="F")
        A[:, o[0] : o[1]], A[:, o[2] : o[3]] = np.hsplit(
            rows(Sq[..., lp], Sq[:, -modes][..., lm].conj(), f, real), [lp.size])
        # Mode 0 of each representative: sum_k w^{jk} U_rk/sqrt(g), and the constant.
        d0 = lp.size + lm.size + (j == 0) + (2 * M + 1) * np.arange(nr)
        A[d0, o[4] + np.arange(nr)] = -1.0
        if j == 0:
            A[[0, *d0], -1] = [1.0] + [rg] * nr
        blocks.append((j, lp, lm, f, o, A))
    # Spectra S of sum_k w^{hk} p_rk^m, a representative r at a time. On the outer circle,
    # at the modes -f that ``rows`` reads, they are sqrt(g) t_mf, as the rotation takes
    # p_r^m's t_mf to p_rk^m's w^{k(f-m)} t_mf; on disk r' they sum the coefficients
    # D[r', k, m, a] of p_rk^m, of e^{ia tau}, with each block's phases w^{hk}.
    phase = np.exp(2j * math.pi * np.arange(g) / g)
    ratio = (m[:, None] + m - 1) / m  # [m, a]: (m + a - 1)/a, a = 1..M
    for r in range(nr):
        d = c[:nr, None] - c[r::nr]  # c_r' - c_rk, 0 for disk r itself
        x, y = (np.divide(R, d, out=np.zeros_like(d), where=d != 0)
                for R in (radii[r], radii[:nr, None]))
        # From x^m, each coefficient is the one before it in a times -y (m + a - 1)/a.
        D = np.empty((nr, g, M, M + 1), dtype=complex)
        D[..., 0] = np.cumprod(np.repeat(x[..., None], M, -1), -1)
        np.multiply(-y[..., None, None], ratio, out=D[..., 1:])
        np.cumprod(D, -1, out=D)
        S = np.zeros((2, nr + 1, 2 * M + 1, M), dtype=complex)
        S[:, 0, -m] = T[r, :M, :M].T * (radii[r] / L * rg)
        S[:, 1 + r, -m, m - 1] = 1.0  # disk r's own p_r^m is e^{-im tau}
        for j, _, _, f, o, A in blocks:  # block j's columns: h = j + m and, conjugated, m - j
            np.einsum("hkm,rkma->hram", phase[k * np.stack([j + m, m - j])[:, None] % g], D,
                      out=S[:, 1:, : M + 1])
            R = rows(S[0], S[1][:, -modes].conj(), f, not np.iscomplexobj(A))
            A[:, np.r_[o[1] : o[1] + M, o[3] : o[3] + M] + r * M] = R

    condition = 1.0
    while blocks:  # each block is freed once solved
        j, lp, lm, f, o, A = blocks.pop(0)
        # The outer trace e^{ift} (real blocks: cos ft, sin ft); a block with no
        # outer mode gets one zero column, as gesv factors nothing without.
        real = not np.iscomplexobj(A)
        Se = np.zeros((nr + 1, 2 * M + 1, max(f.size, 1)), dtype=complex)
        Se[0, f, np.arange(f.size)] = 1.0 if real else rt2
        rhs = rows(Se, Se[:, -modes].conj(), f, real)[:, : (1 + real) * Se.shape[2]]
        gesv, gecon = get_lapack_funcs(("gesv", "gecon"), (A,))
        anorm = max(np.abs(A[:, i : i + 256]).sum(axis=0).max() for i in range(0, A.shape[1], 256))
        lu, _, y, info = gesv(A, rhs, overwrite_a=True, overwrite_b=True)
        if info > 0 or not (rcond := gecon(lu, anorm)[0]) > 0.0:
            return math.inf
        condition = max(condition, 1.0 / rcond)
        del A, lu, rhs
        y = y[:, : (1 + real) * f.size]
        if real:  # back from [Re H, Im H] sqrt(2) to (H, conj H)
            y, h = y[:, : f.size] + 1j * y[:, f.size :], o[2]
            y = np.concatenate([(y[:h] - 1j * y[h : 2 * h]) / rt2,
                                (y[:h] + 1j * y[h : 2 * h]) / rt2, y[2 * h :]])
        # Back to the basis columns, x = T y: q^l = Re + i Im, p^m = c - i d, U and 1 as they are.
        yq, yp, yqbar, ypbar, yU, yc = np.split(y, o[1:])
        x = np.zeros((n_basis + n, f.size), dtype=complex)
        x[1 + lp], x[1 + M + lp] = yq / rt2, 1j * yq / rt2
        x[1 + lm] += yqbar / rt2
        x[1 + M + lm] -= 1j * yqbar / rt2
        yp, ypbar = (a.reshape(nr, M, f.size) / math.sqrt(2 * g) for a in (yp, ypbar))
        mu = phase[k * (j + m) % g][:, None, :, None] * yp
        nu = phase[k * (j - m) % g][:, None, :, None] * ypbar
        inc = x[2 * M + 1 : n_basis].reshape(g, nr, 2, M, f.size)
        inc[:, :, 0], inc[:, :, 1] = mu + nu, 1j * (nu - mu)
        U = phase[k * j % g][..., None] * yU / math.sqrt(g)
        x[n_basis:] = U.reshape(n, f.size)
        if j == 0:
            x[0] = yc[0]
        X[:, np.abs(f)] = x.real
        X[:, M - f[f < 0]] = -x[:, f < 0].imag
        X[:, M + f[f > 0]] = x[:, f > 0].imag
    return condition


@lru_cache(maxsize=1)
def _operator(packing: Packing, M: int) -> _Operator:
    """Galerkin solve of every outer-trace mode, factored once per (packing, M)."""
    return _solve(packing, M, _orbit_factor)


def _solve(packing: Packing, M: int, factor) -> _Operator:
    """The operator of ``factor``'s solution, refused when the Galerkin system is
    singular or ill-conditioned.

    The matrix is freed before returning; only O(2M+1) columns per unknown
    and per check point of one orbit, and the (2M+1)^2 DtN matrix, are kept,
    read-only. An invalid packing raises the error of ``validate_packing``.
    A refusal raises, so it is not cached and a refused packing is refused on
    every call.
    """
    n = packing.n
    if n > 0 and _min_gap_ratio(validate_packing(packing)) < GAP_GUARD:
        raise IllConditionedError(
            f"delta_min/R_min below {GAP_GUARD}: the dense basis cannot resolve "
            "this regime; use the asymptotic formula instead"
        )
    g = _rotation_order(packing, M)
    n_basis = (2 * M + 1) + 2 * M * n
    n_unknown, n_chk = n_basis + n, 8 * M
    # The kept tables come before the matrix, so that the matrix and the
    # solver's workspace lie above them on the heap and can be released.
    X = np.empty((n_unknown, 2 * M + 1))
    residual = np.empty((n_chk // g + n_chk * (n // g), 2 * M + 1))
    dtn = np.empty((2 * M + 1, 2 * M + 1))
    if not (condition := factor(packing, M, g, X)) <= CONDITION_LIMIT:
        raise IllConditionedError(f"Galerkin system condition estimate {condition:.3g} "
                                  f"exceeds {CONDITION_LIMIT:.0e}")
    _residual_table(packing, M, g, X, residual)
    # Lambda = sym(G X), with the flux projection G in closed form.
    form = _flux_projection(packing, M) @ X[:n_basis]
    dtn[...] = 0.5 * (form + form.T)
    for a in (X, residual, dtn):
        a.flags.writeable = False
    return _Operator(X, residual, dtn, float(condition), g)


def _residual_table(packing: Packing, M: int, g: int, X: np.ndarray, out: np.ndarray):
    """Collocation error of each mode's solution X on denser, shifted check
    points of one orbit, into out: the trace error on the first 8M/g of 8M
    outer points, then the deviation from the constant U_i on the 8M points of
    each of the first n/g inclusions. The rotations by 2 pi p/g carry them onto
    all the others (see ``_boundary_residual``).
    """
    n_chk, nr = 8 * M, packing.n // g
    n_basis = (2 * M + 1) + 2 * M * packing.n
    t = np.linspace(0.0, 2.0 * math.pi, n_chk, endpoint=False)
    t_outer = t[: n_chk // g] + 0.5 * math.pi / n_chk
    c = packing.centers()[:nr] @ np.array([1.0, 1j])
    inner = c[:, None] + packing.radii()[:nr, None] * np.exp(1j * t)  # on the first n/g disks
    z = np.concatenate([packing.L * np.exp(1j * t_outer), inner.ravel()])
    out[...] = -np.concatenate([_modes(t_outer, M), np.repeat(X[n_basis:][:nr], n_chk, 0)])
    for a in range(0, z.size, _CHUNK):
        out[a : a + _CHUNK] += _basis_columns(z[a : a + _CHUNK], packing, M) @ X[:n_basis]


def _rotations(c: np.ndarray, M: int, g: int) -> np.ndarray:
    """(2M+1, g): column p the mode vector of psi(theta + alpha_p), alpha_p = 2 pi p/g, for
    the mode vector c of psi: the pair (a_m, b_m) goes to (a_m cos m alpha_p + b_m sin m
    alpha_p, b_m cos m alpha_p - a_m sin m alpha_p), from one table of m alpha_p."""
    arg = np.multiply.outer(np.arange(1, M + 1), 2.0 * math.pi * np.arange(g) / g)
    cos, sin = np.cos(arg), np.sin(arg)
    a, b = c[1 : M + 1, None], c[M + 1 :, None]
    return np.concatenate([np.full((1, g), c[0]), cos * a + sin * b, cos * b - sin * a])


def _checked_operator(packing: Packing, M: int, K: int) -> _Operator:
    if M < max(K, 1):
        raise ValueError(f"truncation M = {M} is below 1 or the max frequency K = {K}")
    return _operator(packing, M)


def solve_dirichlet(packing: Packing, psi: FourierPotential, M: int) -> SpectralSolution:
    """Fourier-Galerkin solve of the composite Dirichlet problem."""
    op = _checked_operator(packing, M, psi.K)
    c = _mode_vector(psi, M)
    n_basis = (2 * M + 1) + 2 * M * packing.n
    coeffs = op.coeffs @ c
    inc = coeffs[2 * M + 1 : n_basis].reshape(packing.n, 2, M)
    return SpectralSolution(
        packing=packing, M=M, domain_cos=coeffs[: M + 1], domain_sin=coeffs[M + 1 : 2 * M + 1],
        inclusion_cos=inc[:, 0], inclusion_sin=inc[:, 1], U=coeffs[n_basis:],
        energy=0.5 * float(c @ op.dtn @ c), boundary_residual=_boundary_residual(op, c, M),
        condition=op.condition,
    )


def _boundary_residual(op: _Operator, c: np.ndarray, M: int) -> float:
    """Max collocation error of mode vector c over every check point.

    The rotation by 2 pi p/g maps the packing onto itself, so the collocation
    solution of psi(theta + 2 pi p/g) is that of psi rotated, and its error at
    a check point of the orbit is the error of psi at the rotated point: max|T C|,
    T the residual table and C the g ``_rotations`` of c, from one product.
    """
    return float(np.max(np.abs(op.residual @ _rotations(c, M, op.order))))


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


def max_principle_check(sol: SpectralSolution, psi: FourierPotential) -> MaxPrincipleReport:
    """Inclusion potentials and sampled field bounded by the boundary data."""
    theta = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    vals = psi.evaluate(theta)
    psi_min, psi_max = float(vals.min()), float(vals.max())
    tol = max(10.0 * sol.boundary_residual, 1e-12)

    L = sol.packing.L
    xs = np.linspace(-L, L, _GRID)
    xx, yy = np.meshgrid(xs, xs)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    d = pts[:, None] - sol.packing.centers()
    keep = np.hypot(pts[:, 0], pts[:, 1]) < L * (1.0 - 1e-9)
    keep &= (np.hypot(d[..., 0], d[..., 1]) > sol.packing.radii() * (1.0 + 1e-9)).all(axis=1)
    field = sol.evaluate(pts[keep])
    u_min = float(field.min()) if field.size else psi_min
    u_max = float(field.max()) if field.size else psi_max
    inc_min = float(sol.U.min()) if sol.U.size else psi_min
    inc_max = float(sol.U.max()) if sol.U.size else psi_max
    passed = min(inc_min, u_min) >= psi_min - tol and max(inc_max, u_max) <= psi_max + tol
    return MaxPrincipleReport(passed, tol, psi_min, psi_max, u_min, u_max, inc_min, inc_max)
