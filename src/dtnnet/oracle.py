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
each block.

The error of the solution on each circle (the trace error outside, the deviation
from U_i on each disk) has no Fourier coefficient at |m| <= M, so it is the part of
the same re-expansions past M, and the l1 norm of those coefficients bounds its
largest value. They are kept up to a cut past which each column's terms sum to at
most eps of its closed-form total, itself below 1; eps times the l1 of the
solution's coefficients bounds the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.integrate
from scipy.linalg.lapack import get_lapack_funcs

from .asymptotics import FourierPotential, _mode_vector, _slots
from .errors import DomainError, IllConditionedError
from .geometry import Packing, _pair_gaps, validate_packing

CONDITION_LIMIT = 1e14
GAP_GUARD = 1e-3  # refuse solves below delta_min / R_min = 1e-3
_GRID = 64  # points per side of the square that max_principle_check samples
_EPS = np.finfo(float).eps


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


def _translation_table(x, y, M: int, A: int) -> np.ndarray:
    """D[..., m - 1, a] = x^m (-y)^a binom(m + a - 1, a), m = 1..M, a = 0..A: from x^m, each
    entry is the one before it in a times -y (m + a - 1)/a. With x = R_k/d, y = R_r/d and
    d = c_r - c_k, the coefficient of e^{ia tau} in p_k^m on disk r; with x = R_k/L and
    y = -c_k/L, t_{m, m+a} of p_k^m on |z| = L (``_flux_projection``)."""
    m, a = np.arange(1, M + 1), np.arange(1, A + 1)
    x, y = np.asarray(x), np.asarray(y)
    D = np.empty((*x.shape, M, A + 1), dtype=complex)
    D[..., 0] = np.cumprod(np.repeat(x[..., None], M, -1), -1)
    np.multiply(-y[..., None, None], (m[:, None] + a - 1) / a, out=D[..., 1:])
    np.cumprod(D, -1, out=D)
    return D


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
    outer_tail: np.ndarray  # (2M+1, F-M): each mode's error on |z| = L, Re sum T_f e^{ift}, f > M
    disk_tail: np.ndarray  # (2M+1, n/g, A-M): on each representative disk, Re sum T_a e^{ia tau}
    dtn: np.ndarray  # (2M+1, 2M+1): Lambda, c_a^T Lambda c_b is the DtN form
    condition: float
    order: int  # g: a rotation by 2 pi/g maps the packing onto itself


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


def _rotation_order(packing: Packing) -> int:
    """The largest g | n with disk k + n/g disk k rotated by 2 pi/g, else 1."""
    n = packing.n
    c, radii = packing.centers() @ np.array([1.0, 1j]), packing.radii()
    for g in range(n, 1, -1):
        if (n % g == 0 and np.array_equal(np.roll(radii, n // g), radii)
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
    binom(m+a-1, a) (R_r/d)^a e^{ia tau}, d = c_r - c_k (``_translation_table``); on |z| = L,
    p_k^m is sum_f t_mf e^{-ift} (``_flux_projection``). g is ``_rotation_order(packing)``.
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
    for r in range(nr):
        d = c[:nr, None] - c[r::nr]  # c_r' - c_rk, 0 for disk r itself
        x, y = (np.divide(R, d, out=np.zeros_like(d), where=d != 0)
                for R in (radii[r], radii[:nr, None]))
        D = _translation_table(x, y, M, M)
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

    The matrix is freed before returning; only O(2M+1) columns per unknown and
    per kept tail coefficient, and the (2M+1)^2 DtN matrix, are kept, read-only.
    An invalid packing raises the error of ``validate_packing``. A refusal
    raises, so it is not cached and a refused packing is refused on every call.
    """
    n = packing.n
    if n > 0 and _min_gap_ratio(validate_packing(packing)) < GAP_GUARD:
        raise IllConditionedError(
            f"delta_min/R_min below {GAP_GUARD}: the dense basis cannot resolve "
            "this regime; use the asymptotic formula instead"
        )
    g = _rotation_order(packing)
    nr, n_basis = n // g, (2 * M + 1) + 2 * M * n
    # The cuts: the worst column's ratio on |z| = L is max |c|/L, on the disks max R_r/|d|.
    c, radii = packing.centers() @ np.array([1.0, 1j]), packing.radii()
    d = np.abs(c[:nr, None] - c)
    near = np.divide(radii[:nr, None], d, out=np.zeros_like(d), where=d > 0)
    F = M + -(-_cut(np.abs(c).max(initial=0.0) / packing.L, M) // g) * g  # Qg columns
    A = max(M, _cut(near.max(initial=0.0), M))
    # The kept tables come before the matrix, so that the matrix and the
    # solver's workspace lie above them on the heap and can be released.
    X = np.empty((n_basis + n, 2 * M + 1))
    outer_tail = np.empty((2 * M + 1, F - M), dtype=complex)
    disk_tail = np.empty((2 * M + 1, nr, A - M), dtype=complex)
    dtn = np.empty((2 * M + 1, 2 * M + 1))
    if not (condition := factor(packing, M, g, X)) <= CONDITION_LIMIT:
        raise IllConditionedError(f"Galerkin system condition estimate {condition:.3g} "
                                  f"exceeds {CONDITION_LIMIT:.0e}")
    _tail_table(packing, M, g, X, outer_tail, disk_tail)
    # Lambda = sym(G X), with the flux projection G in closed form.
    form = _flux_projection(packing, M) @ X[:n_basis]
    dtn[...] = 0.5 * (form + form.T)
    for a in (X, outer_tail, disk_tail, dtn):
        a.flags.writeable = False
    return _Operator(X, outer_tail, disk_tail, dtn, float(condition), g)


def _cut(rho: float, M: int) -> int:
    """The last index a kept of the terms binom(m + a - 1, a) rho_k^a (1 - rho_k)^m, a >= 0,
    of every column m <= M at a ratio rho_k <= rho: they sum to 1, and past it to at most
    eps, as the largest column's (m = M, rho_k = rho) is stochastically the largest. Past
    its largest term the ratios r_a = rho (M + a - 1)/a fall, so its terms from a on
    sum to at most the a-th over 1 - r_a."""
    size = 0 if rho == 0.0 else int(2 * (M + 32) / (1.0 - rho))
    while size:
        r = rho * (M + np.arange(size)) / np.arange(1, size + 1)  # r_a, a = 1..size
        log_term = M * math.log1p(-rho) + np.cumsum(np.log(r))
        done = (r < 1.0) & (log_term - np.log1p(-np.where(r < 1.0, r, 0.0)) <= math.log(_EPS))
        if done.any():
            return int(np.argmax(done))
        size *= 2
    return 0


def _tail_table(packing: Packing, M: int, g: int, X: np.ndarray, outer_tail: np.ndarray,
                disk_tail: np.ndarray):
    """The error of each mode's solution X past M, on |z| = L and on the first n/g disks,
    into the tails T, up to the cuts their shapes give.

    In the solution of e^{ift}, alpha_km and beta_km multiply p_k^m and conj(p_k^m)
    (the columns Re p_k^m and -Im p_k^m have alpha + beta and i(beta - alpha)). The
    rotation by 2 pi/g maps it to e^{2 pi i f/g} times itself, so alpha of disk r + kn/g
    is w^{k(f+m)} that of disk r, and beta w^{k(f-m)} it, w = e^{2 pi i/g}. On disk r'
    the error is then sum_a P_a e^{ia tau} + N_a e^{-ia tau}, a > M, with P_a = sum_{r,m}
    alpha_rm Dh[(f+m) % g] and N_a = sum beta_rm conj(Dh[(m-f) % g]), Dh[h] = sum_k w^{hk}
    D[r + kn/g, m, a] (``_translation_table``). On |z| = L, with t_mf' of disk r + kn/g
    w^{k(f'-m)} that of disk r, P_f' (of e^{if't}) = g sum beta_rm conj(t_mf') if f' = f
    and N_f' = g sum alpha_rm t_mf' if f' = -f (mod g); its f' > M are kept as F - M = Qg
    columns (f' - M - 1) % g * Q + (f' - M - 1) // g. The error of cos ft, the real part, is
    Re sum T e^{ia tau} with T = P + conj(N); that of sin ft, the imaginary part, has
    T = -i(P - conj(N)).
    """
    n, L, nr = packing.n, packing.L, packing.n // g
    Q, A, q = outer_tail.shape[1] // g, M + disk_tail.shape[2], -(-(M + 1) // g)
    F, m, j = M + Q * g, np.arange(1, M + 1), np.arange(g)
    c, radii = packing.centers() @ np.array([1.0, 1j]), packing.radii()
    # alpha, beta[j, r * M + m - 1, i] of the representatives in the solution of e^{ift},
    # f = j + ig.
    Xr = X[2 * M + 1 : (2 * M + 1) + 2 * M * nr].reshape(nr, 2, M, 2 * M + 1)
    Xf = np.zeros((nr, 2, M, q * g), dtype=complex)
    Xf[..., : M + 1] = Xr[..., : M + 1]
    Xf[..., 1 : M + 1] += 1j * Xr[..., M + 1 :]
    Xf = Xf.reshape(nr, 2, M, q, g).transpose(1, 4, 0, 2, 3).reshape(2, g, nr * M, q)
    alpha, beta = (Xf[0] + 1j * Xf[1]) / 2, (Xf[0] - 1j * Xf[1]) / 2
    # Disk r: D[k, r', m - 1, a] of p^m of disk r' + kn/g. Times w^{km}, its DFT over k
    # at h = j gives Dh[(j + m) % g], and at h = -j, the DFT's row -j, Dh[(m - j) % g].
    P, N = np.empty((2, q, g, nr, A - M), dtype=complex)
    phase, neg = np.exp(2j * math.pi * (np.outer(j, j) % g) / g), -j % g
    for r in range(nr):
        d = c[r] - c  # 0 for disk r itself
        x, y = (np.divide(R, d, out=np.zeros_like(d), where=d != 0) for R in (radii, radii[r]))
        D = _translation_table(x, y, M, A)[..., M + 1 :].reshape(g, nr, M, A - M)
        D = (D * phase[:, None, m % g, None]).reshape(g, -1)
        D = (phase @ D).reshape(g, nr * M, A - M)
        P[:, :, r] = np.swapaxes(alpha.transpose(0, 2, 1) @ D, 0, 1)
        N[:, :, r] = np.swapaxes((beta[neg].conj().transpose(0, 2, 1) @ D)[neg], 0, 1)  # conj(N)
    P, N = P.reshape(q * g, -1), N.reshape(q * g, -1)  # the modes f = j + ig
    disk = disk_tail.reshape(2 * M + 1, -1)
    disk[: M + 1], disk[M + 1 :] = (P + N)[: M + 1], -1j * (P - N)[1 : M + 1]
    # |z| = L: t_mf' of the representatives at f' = M+1..F; of the modes f = j + ig, P at
    # f' = j and conj(N) at f' = -j (mod g), (f' - M - 1) % g = rp[j] and rn[j].
    t = _translation_table(radii[:nr] / L, -c[:nr] / L, M, F - 1)  # t[r, m - 1, f - m]
    t = np.take_along_axis(t, (M + 1 - m[:, None] + np.arange(Q * g))[None], -1)
    t = t.conj().reshape(nr * M, Q, g).transpose(2, 0, 1)
    rp, rn = (j - M - 1) % g, (-j - M - 1) % g
    Po, No = (g * (ab.transpose(0, 2, 1) @ t[rho]) for rho, ab in ((rp, beta), (rn, alpha.conj())))
    f = j[:, None] + g * np.arange(q)
    outer = outer_tail.reshape(2 * M + 1, g, Q)
    outer[...] = 0.0
    for rows, k, s in ((f, f <= M, 1.0), (M + f, (f <= M) & (f > 0), -1j)):  # cos ft, sin ft
        for rho, value in ((rp, s * Po), (rn, np.conj(s) * No)):
            outer[rows[k], np.broadcast_to(rho[:, None], f.shape)[k]] += value[k]


@lru_cache(maxsize=None)
def _turns(M: int, g: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of m alpha_p, m = 1..M, alpha_p = 2 pi p/g, read-only."""
    arg = np.multiply.outer(np.arange(1, M + 1), 2.0 * math.pi * np.arange(g) / g)
    turns = np.cos(arg), np.sin(arg)
    for a in turns:
        a.flags.writeable = False
    return turns


def _rotations(c: np.ndarray, M: int, g: int) -> np.ndarray:
    """(2M+1, g): column p the mode vector of psi(theta + alpha_p), alpha_p = 2 pi p/g, for
    the mode vector c of psi: the pair (a_m, b_m) goes to (a_m cos m alpha_p + b_m sin m
    alpha_p, b_m cos m alpha_p - a_m sin m alpha_p), from one table of m alpha_p."""
    cos, sin = _turns(M, g)
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
        energy=0.5 * float(c @ op.dtn @ c),
        boundary_residual=_boundary_residual(op, c, psi.K, inc),
        condition=op.condition,
    )


def _boundary_residual(op: _Operator, c: np.ndarray, K: int, w: np.ndarray) -> float:
    """An upper bound of the error of mode vector c's solution on every circle, from
    c's 2K+1 modes and its coefficients w of Re p_k^m and -Im p_k^m.

    The error on a circle is Re sum T_a e^{ia tau}, a > M, so at most sum |T_a|: the
    tails' l1 up to the cut, plus the terms past it. A column's terms on disk r sum
    in modulus to (R_k/(|d| - R_r))^m and on |z| = L to (R_k/(L - |c_k|))^m, both below 1
    (sum_j binom(m+j-1, j) rho^j = (1 - rho)^-m), and past the cut to at most eps of that
    (``_cut``): eps times the l1 of w bounds them all. The rotation by 2 pi p/g maps the
    packing onto itself, so the solution of psi(theta + 2 pi p/g) is that of psi
    rotated, and its error on representative disk r is that of psi on disk r + pn/g:
    the tails of all g rotations come from one product with the g ``_rotations`` of c.
    """
    idx, (_, nr, cut) = _slots(K, (op.dtn.shape[0] - 1) // 2), op.disk_tail.shape
    outer = np.abs(c[idx] @ op.outer_tail[idx]).sum()
    disks = _rotations(c[idx], K, op.order).T @ op.disk_tail[idx].reshape(idx.size, nr * cut)
    disks = np.abs(disks).reshape(op.order, nr, cut).sum(-1)
    return float(max(outer, disks.max(initial=0.0)) + _EPS * np.abs(w).sum())


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
    """Inclusion potentials and sampled field bounded by the boundary data, within 10
    times the boundary residual, an upper bound of the boundary error."""
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
