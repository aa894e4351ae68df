"""Direct numerical reference for the composite: partial-wave Fourier-Galerkin.

The continuum potential is expanded in regular harmonics of the domain disk
plus decaying harmonics centered at each inclusion, which carry zero net flux
through any circle enclosing their center, so the conservation condition on
each inclusion holds identically and no logarithmic terms are needed. The
boundary conditions (given trace on the outer circle, unknown constants on the
inclusions) are projected onto each circle's Fourier modes |m| <= M (Rayleigh's
multipole method) in closed form: on every circle each harmonic has a binomial
re-expansion (Greengard and Moura's translation operators); nothing is sampled.
The square system is solved by LU once per (packing, M) for every outer-trace
mode; data up to M combine them.

The DtN matrix needs only the domain rows X_dom of the solutions: on |z| = L the
domain part sum a_f (r/L)^f e^{ift} has flux pi f a_f, and the inclusion part, regular
outside it, -pi f times its own coefficient, which the outer rows fix at psi_f - a_f
for f <= M; so Lambda = sym(pi F (2 X_dom - I)), F the modes' frequencies. It rests on
the outer rows holding to the solve's precision, which an iterative solve must bound.

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
from numpy.polynomial.polynomial import polyval
from scipy.linalg.lapack import get_lapack_funcs

from .asymptotics import FourierPotential, _frequencies, _mode_vector, _slots
from .errors import DomainError, IllConditionedError
from .geometry import Packing, validate_packing

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
        """Potential at points of shape (..., 2) in the matrix region: a_0 + Re sum_l (a_l -
        i b_l) (z/L)^l + Re sum_{k,m} (c_km + i d_km) (R_k/(z - c_k))^m, by Horner's rule."""
        z = np.asarray(points, dtype=float) @ np.array([1.0, 1j])
        p = self.packing
        domain = np.concatenate([self.domain_cos[:1], self.domain_cos[1:] - 1j * self.domain_sin])
        inc = np.zeros((self.M + 1, p.n), dtype=complex)
        inc[1:] = (self.inclusion_cos + 1j * self.inclusion_sin).T
        w = p.radii() / (z[..., None] - p.centers() @ np.array([1.0, 1j]))
        return polyval(z / p.L, domain).real + polyval(w, inc, tensor=False).real.sum(-1)


def _binomial_table(c: np.ndarray, r: np.ndarray, M: int) -> np.ndarray:
    """T[i, a, b] = binom(b, a) c_i^(b-a) r_i^a, 0 <= a <= b <= M, the coefficient of
    e^{ia tau} in (c_i + r_i e^{i tau})^b: from T[a, a] = r^a, each entry on a diagonal
    b = a + e is the one before it times c (a + e)/e, so none exceeds (|c| + r)^b."""
    a = np.arange(M + 1)
    D = np.empty((c.size, M + 1, M + 1), dtype=complex)  # D[i, a, e] = T[i, a, a + e]
    D[..., 0] = r[:, None] ** a
    np.multiply(c[:, None, None], (a[:, None] + a[1:]) / a[1:], out=D[..., 1:])
    np.cumprod(D, -1, out=D)
    T = np.zeros_like(D)
    a, e = np.nonzero(a[:, None] + a <= M)
    T[:, a, a + e] = D[:, a, e]
    return T


def _translation_table(x, y, M: int, A: int, a0: int = 0) -> np.ndarray:
    """D[..., m - 1, a - a0] = x^m (-y)^a binom(m + a - 1, a), m = 1..M, a = a0..A: from
    x (-y)^a0, each entry is the one before it in m times x (m + a0 - 1)/(m - 1), and the
    one before it in a times -y (m + a - 1)/a. With x = R_k/d, y = R_r/d and d = c_r - c_k,
    the coefficient of e^{ia tau} in p_k^m on disk r, none above the column's total
    (R_k/(|d| - R_r))^m < 1."""
    m, a = np.arange(1, M + 1), np.arange(a0 + 1, A + 1)
    x, y = np.asarray(x), np.asarray(y)
    D = np.empty((*x.shape, M, A + 1 - a0), dtype=complex)
    D[..., 0, 0] = x * (-y) ** a0
    np.multiply(x[..., None], (m[1:] + a0 - 1) / (m[1:] - 1), out=D[..., 1:, 0])
    np.cumprod(D[..., 0], -1, out=D[..., 0])
    np.multiply(-y[..., None, None], (m[:, None] + a - 1) / a, out=D[..., 1:])
    np.cumprod(D, -1, out=D)
    return D


class _Operator(NamedTuple):
    coeffs: np.ndarray  # (unknowns, 2M+1): the solution of each mode
    outer_tail: np.ndarray  # (2M+1, S, Q): each mode's error on |z| = L (``_tail_table``)
    outer_residue: np.ndarray  # (2M+1, S): the residue of f' - M - 1 mod g of each slot
    disk_tail: np.ndarray  # (2M+1, n/g, A-M): on each representative disk, Re sum T_a e^{ia tau}
    dtn: np.ndarray  # (2M+1, 2M+1): Lambda, c_a^T Lambda c_b is the DtN form
    condition: float
    order: int  # g: a rotation by 2 pi/g maps the packing onto itself


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


def _orbit_factor(packing: Packing, M: int, g: int, T: np.ndarray, X: np.ndarray) -> float:
    """Solve the Galerkin system for every outer-trace mode into X from its C_g blocks
    0..g/2, one block at a time; return the largest LAPACK 1-norm condition estimate of a
    block (inf: singular). T is the ``_binomial_table`` of the first n/g disks and g is
    ``_rotation_order(packing)``; ``_block`` gives the blocks and ``_unblock`` reads back
    their solutions."""
    nr, rg = packing.n // g, math.sqrt(g)
    c, radii = packing.centers() @ np.array([1.0, 1j]), packing.radii()
    # The spectra of sqrt(g) q^l on the disks and of the orbit sums of p_r^m on |z| = L,
    # sqrt(g) t_mf, t_mf = (R_r/L) T[m-1, f-1], each representative's orbit sums on the
    # disks (made for block 0), and the complex centres and radii they come from.
    tables = (rg * T, rg * radii[:nr, None, None] / packing.L * T[:, :M, :M], [None] * nr,
              c, radii)
    condition = 1.0
    for j in range(g // 2 + 1):
        A, rhs = _block(packing, M, g, j, tables)
        gesv, gecon = get_lapack_funcs(("gesv", "gecon"), (A,))
        anorm = max(np.abs(A[:, i : i + 256]).sum(axis=0).max() for i in range(0, A.shape[1], 256))
        lu, _, y, info = gesv(A, rhs, overwrite_a=True, overwrite_b=True)
        if info > 0 or not (rcond := gecon(lu, anorm)[0]) > 0.0:
            return math.inf
        condition = max(condition, 1.0 / rcond)
        del A, lu, rhs
        _unblock(M, g, j, y, X)
    return condition


def _layout(M: int, g: int, j: int, nr: int) -> tuple:
    """C_g block j's layout (``_block``): its l = j and l = -j (mod g), 1 <= l <= M, as
    slices lp and lm, whether it is real (2j = 0 mod g), their counts a and am, z = 1 in
    block 0 (the constant), its fs outer modes, the column offsets p0, cq, cp and u0 of
    the p sums, conj(q)^l, their p sums and U (q^l at 0, the constant last), and its order."""
    lp, lm, real = slice(j or g, M + 1, g), slice(-j % g or g, M + 1, g), 2 * j % g == 0
    a, am, z = len(range(M + 1)[lp]), len(range(M + 1)[lm]), int(j == 0)
    p0, cq, cp, u0 = a, a + M * nr, a + M * nr + am, a + 2 * M * nr + am  # p sums r-major
    return lp, lm, real, a, am, z, z + a + (0 if real else am), p0, cq, cp, u0, u0 + nr + z


def _block(packing: Packing, M: int, g: int, j: int, tables: tuple):
    """C_g block j of the Galerkin system, Fortran-ordered, and its right-hand sides.

    Disk r + k n/g is disk r rotated by 2 pi k/g; w = e^{2 pi i/g}. Block j holds the
    columns that the rotation multiplies by w^j: q^l (l = j mod g) and conj(q)^l
    (l = -j), q = z/L; for each representative r, sum_k w^{(j+m)k} p_rk^m and
    sum_k w^{(j-m)k} conj(p_rk)^m, p_rk = R_r/(z - c_rk), and sum_k w^{jk} U_rk; the
    constant in block 0. Block g - j is the conjugate: its modes e^{imt} are solved
    here as e^{-imt}. In blocks 0 and g/2 the conjugate columns are conj(H), so they
    are solved in real arithmetic as [Re H, Im H] sqrt(2); at g = 1 block 0 is the
    whole system. Its rows are each circle's Fourier coefficients: the outer modes e^{ift},
    f = j mod g, f >= 0 first, then each representative's e^{im tau}, |m| <= M, times
    sqrt(g) (real blocks: c_0, sqrt(2) Re c_m, sqrt(2) Im c_m). On disk r, q^l is sum_a
    T[r, a, l] e^{ia tau} (``_binomial_table``), p_r^m is e^{-im tau}, and p_k^m, k != r, is
    (R_k/d)^m sum_a (-1)^a binom(m+a-1, a) (R_r/d)^a e^{ia tau}, d = c_r - c_k
    (``_translation_table``); its orbit sums over k at every w^{hk} come from one FFT
    over k of that table, and block j reads h = j + m and m - j. On |z| = L, p_k^m is
    sum_f t_mf e^{-ift}, and its orbit sum at the block's modes is sqrt(g) t_mf, as the
    rotation takes p_r^m's t_mf to p_rk^m's w^{k(f-m)} t_mf.
    ``tables`` holds these spectra (the columns are them over sqrt(2)), then the complex
    centres and the radii.
    """
    nr, h = packing.n // g, math.sqrt(0.5)
    (Tq, t, orbits, c, radii), m = tables, np.arange(1, M + 1)
    lp, lm, real, a, am, z, fs, p0, cq, cp, u0, size = _layout(M, g, j, nr)
    A = np.zeros((size, size), dtype=float if real else complex, order="F")
    n0 = size - nr * (2 * M + 1)  # the outer rows, then each representative's 2M + 1
    disks = A[n0:].reshape(nr, 2 * M + 1, size)

    # The outer circle: q^l at f = l, conj(q)^l at f = -l; sqrt(g) t_ml of the p sums at
    # f = -l, and its conjugate of theirs at f = l (real blocks: Re and Im rows of f = l).
    np.fill_diagonal(A[z : z + a, :a], h)
    np.fill_diagonal(A[z + a : n0, cq:cp], -h if real else h)
    tp, tm = (t[:, :, l.start - 1 :: g].transpose(2, 0, 1).reshape(k, nr * M)
              for l, k in ((lp, a), (lm, am)))
    if real:
        A[z : z + a, p0:cq], A[z + a : n0, p0:cq] = h * tp.real, -h * tp.imag
        A[z : z + a, cp:u0], A[z + a : n0, cp:u0] = h * tp.imag, h * tp.real
    else:
        A[a:n0, p0:cq], A[:a, cp:u0] = h * tm, h * tp.conj()

    def put(v, cv, Z, Zc):
        """Rows on the disks of the columns v and cv, from the spectra at modes 0..M of
        the columns v, Z, and of the conjugates' partners, Zc: (n/g, M+1, columns). Real
        blocks: v and cv are sqrt(2) Re and sqrt(2) Im of the same H, and Zc = Z."""
        if real:  # rows c_0, sqrt(2) Re c_m, sqrt(2) Im c_m
            disks[:, 0, v], disks[:, 0, cv] = Z[:, 0].real, Z[:, 0].imag
            for rows, part, cpart in ((slice(1, M + 1), Z[:, 1:].real, Z[:, 1:].imag),
                                      (slice(M + 1, None), Z[:, 1:].imag, -Z[:, 1:].real)):
                np.multiply(part, h, out=disks[:, rows, v])
                np.multiply(cpart, h, out=disks[:, rows, cv])
        else:  # modes 0..M, then -M..-1
            np.multiply(Z, h, out=disks[:, : M + 1, v])
            for rows, part in ((0, Zc[:, 0]), (slice(M + 1, None), Zc[:, M:0:-1])):
                np.conjugate(np.multiply(part, h, out=disks[:, rows, cv]), out=disks[:, rows, cv])

    # The disks: q^l, then the p sums of each representative r, from its orbit sums D[r', h,
    # m - 1, a] = sum_k w^{hk} D of p_{r + kn/g}^m on disk r', made for block 0 and dropped
    # after block g/2: the p sums at w^{(j+m)k}, and for the conjugates those at w^{(m-j)k}.
    put(slice(0, a), slice(cq, cp), Tq[:, :, lp], Tq[:, :, lm])
    for r in range(nr):
        if orbits[r] is None:
            d = c[:nr, None] - c[r::nr]  # c_r' - c_rk, 0 for disk r itself
            x, y = (np.divide(R, d, out=np.zeros_like(d), where=d != 0)
                    for R in (radii[r], radii[:nr, None]))
            D = _translation_table(x, y, M, M)
            orbits[r] = np.fft.ifft(D, axis=1, norm="forward", out=D)
        D = orbits[r]
        if j == g // 2:
            orbits[r] = None
        Z = D[:, (j + m) % g, m - 1].transpose(0, 2, 1)
        put(slice(p0 + r * M, p0 + r * M + M), slice(cp + r * M, cp + r * M + M),
            Z, Z if real else D[:, (m - j) % g, m - 1].transpose(0, 2, 1))
    # Disk r's own p_r^m at mode -m (real blocks: Re c_m), and conj(p_r^m) at m (Im c_m); U;
    # the constant.
    r, rm = np.arange(nr)[:, None], np.arange(nr * M).reshape(nr, M)
    disks[r, m if real else 2 * M + 1 - m, p0 + rm] += h
    disks[r, M + m if real else m, cp + rm] += h
    np.fill_diagonal(disks[:, 0, u0 : u0 + nr], -1.0)
    if z:
        A[0, -1], disks[:, 0, -1] = 1.0, math.sqrt(g)
    # The outer trace e^{ift} (real blocks: cos ft, then sin ft); a block with no outer
    # mode gets one zero column, as gesv factors nothing without.
    rhs = np.zeros((size, (1 + real) * max(fs, 1)), dtype=A.dtype, order="F")
    np.fill_diagonal(rhs[:fs], h if real else 1.0)
    if real:
        np.fill_diagonal(rhs[z + a :, max(fs, 1) + z :], -h)
        rhs[:z, :z] = 1.0
    return A, rhs


def _unblock(M: int, g: int, j: int, y: np.ndarray, X: np.ndarray):
    """Block j's solution y of its outer modes f into X's columns of cos |f| t and sin |f| t.
    Back to the basis columns: q^l = Re + i Im, p^m = c - i d, U and 1 as they are; the
    orbit sums give disk r + kn/g's coefficients w^{k(j+m)} and w^{k(j-m)} those of disk r."""
    n = X.shape[0] // (2 * M + 1) - 1
    nr, h = n // g, math.sqrt(0.5)
    lp, lm, real, a, am, z, fs, p0, cq, cp, u0, _ = _layout(M, g, j, nr)
    y = y[:, : (1 + real) * fs]
    if real:  # back from [Re H, Im H] sqrt(2) to (H, conj H); the conjugates from cq
        y = y[:, :fs] + 1j * y[:, fs:]
        y = np.concatenate([(y[:cq] - 1j * y[cq : 2 * cq]) * h, (y[:cq] + 1j * y[cq : 2 * cq]) * h,
                            y[2 * cq :]])
    x = np.zeros((X.shape[0], fs), dtype=complex)
    x[lp], x[M + lp.start : 2 * M + 1 : g] = h * y[:a], 1j * h * y[:a]
    x[lm] += h * y[cq:cp]
    x[M + lm.start : 2 * M + 1 : g] -= 1j * h * y[cq:cp]
    # w^{k(j+m)}/sqrt(g), m = -M..M, of disk r + kn/g.
    w = np.exp(2j * math.pi / g * (np.arange(g)[:, None] * (j + np.arange(-M, M + 1)) % g))
    w /= math.sqrt(g)
    mu = w[:, None, M + 1 :, None] * y[p0:cq].reshape(nr, M, fs)
    nu = w[:, None, M - 1 :: -1, None] * y[cp:u0].reshape(nr, M, fs)
    inc = x[2 * M + 1 : 2 * M + 1 + 2 * M * n].reshape(g, nr, 2, M, fs)
    np.multiply(mu + nu, h, out=inc[:, :, 0])
    np.multiply(nu - mu, 1j * h, out=inc[:, :, 1])
    np.multiply(w[:, M, None, None], y[u0 : u0 + nr],
                out=x[X.shape[0] - n :].reshape(g, nr, fs))
    if z:
        x[0] = y[-1]
    # X: f = l >= 0 (cos and sin), then f = -l, e^{-ilt} = cos lt - i sin lt.
    X[:, lp], X[:, M + lp.start : 2 * M + 1 : g] = x[:, z : z + a].real, x[:, z : z + a].imag
    if not real:
        X[:, lm] = x[:, a:].real
        np.negative(x[:, a:].imag, out=X[:, M + lm.start : 2 * M + 1 : g])
    if z:
        X[:, 0] = x[:, 0].real


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
    n, L = packing.n, packing.L
    if n > 0:
        validate_packing(packing)
    g = _rotation_order(packing)
    nr, n_basis = n // g, (2 * M + 1) + 2 * M * n
    c, radii = packing.centers() @ np.array([1.0, 1j]), packing.radii()
    d = np.abs(c[:nr, None] - c)
    # The guard's delta_min / R_min. The rotation takes every pair to a pair of a representative,
    # within the 64 eps L that _rotation_order allows, so d holds every pair distance; d = 0
    # is a representative with itself.
    if n > 0 and min(np.where(d > 0, d - radii[:nr, None] - radii, np.inf).min(),
                     (L - np.abs(c) - radii).min()) / radii.min() < GAP_GUARD:
        raise IllConditionedError(
            f"delta_min/R_min below {GAP_GUARD}: the dense basis cannot resolve "
            "this regime; use the asymptotic formula instead"
        )
    # The cuts: the worst column's ratio on |z| = L is max |c|/L; on disk r, source k's is R_r/|d|.
    cuts = np.array([_cut(row, M) for row in np.divide(radii[:nr, None], d, out=np.zeros_like(d),
                                                        where=d > 0)], dtype=int).reshape(nr, n)
    Q = -(-int(_cut(np.abs(c).max(initial=0.0) / L, M)) // g)
    T = _binomial_table(c[:nr] / L, radii[:nr] / L, M)
    # The kept tables come before the matrix, so that the matrix and the
    # solver's workspace lie above them on the heap and can be released.
    X = np.empty((n_basis + n, 2 * M + 1), order="F")
    outer_tail = np.empty((2 * M + 1, 1 + (g > 2), Q), dtype=complex)
    disk_tail = np.empty((2 * M + 1, nr, cuts.max(initial=M) - M), dtype=complex)
    dtn = np.empty((2 * M + 1, 2 * M + 1))
    if not (condition := factor(packing, M, g, T, X)) <= CONDITION_LIMIT:
        raise IllConditionedError(f"Galerkin system condition estimate {condition:.3g} "
                                  f"exceeds {CONDITION_LIMIT:.0e}")
    _tail_table(packing, M, g, T, X, cuts, outer_tail, disk_tail)
    form = math.pi * _frequencies(M)[:, None] * (2.0 * X[: 2 * M + 1] - np.eye(2 * M + 1))
    dtn[...] = 0.5 * (form + form.T)
    residue = _residues(np.arange(2 * M + 1), M, g)
    for a in (X, outer_tail, residue, disk_tail, dtn):
        a.flags.writeable = False
    return _Operator(X, outer_tail, residue, disk_tail, dtn, float(condition), g)


def _cut(rho, M: int) -> np.ndarray:
    """For each ratio of rho, the last index a kept of the terms binom(m + a - 1, a)
    rho_k^a (1 - rho_k)^m, a >= 0, of every column m <= M at a ratio rho_k <= rho: they
    sum to 1, and past it to at most eps, as the largest column's (m = M, rho_k = rho) is
    stochastically the largest. Past its largest term the ratios r_a = rho (M + a - 1)/a
    fall, so its terms from a on sum to at most the a-th over 1 - r_a."""
    rho = np.asarray(rho, dtype=float)[..., None]
    size = int(2 * (M + 32) / (1.0 - rho.max(initial=0.0)))
    while True:
        r = rho * (M + np.arange(size)) / np.arange(1, size + 1)  # r_a, a = 1..size
        with np.errstate(divide="ignore"):  # rho = 0 keeps a = 0 alone
            log_term = M * np.log1p(-rho) + np.cumsum(np.log(r), -1)
        done = (r < 1.0) & (log_term - np.log1p(-np.where(r < 1.0, r, 0.0)) <= math.log(_EPS))
        if done.any(-1).all():
            return np.argmax(done, -1)
        size *= 2


def _amplitudes(X: np.ndarray, M: int, g: int):
    """alpha, beta[j, r * M + m - 1, i]: in the solution of e^{ift}, f = j + ig (zero past
    M), the coefficients of p_r^m and conj(p_r^m) of each representative r. The columns
    Re p^m and -Im p^m have alpha + beta and i(beta - alpha)."""
    nr, q = (X.shape[0] // (2 * M + 1) - 1) // g, -(-(M + 1) // g)
    Xr = X[2 * M + 1 : (2 * M + 1) + 2 * M * nr].reshape(nr, 2, M, 2 * M + 1)
    Xf = np.zeros((nr, 2, M, q * g), dtype=complex)
    Xf[..., : M + 1] = Xr[..., : M + 1]
    Xf[..., 1 : M + 1] += 1j * Xr[..., M + 1 :]
    Xf = Xf.reshape(nr, 2, M, q, g).transpose(1, 4, 0, 2, 3).reshape(2, g, nr * M, q)
    return (Xf[0] + 1j * Xf[1]) / 2, (Xf[0] - 1j * Xf[1]) / 2


def _residues(mode: np.ndarray, M: int, g: int) -> np.ndarray:
    """(f - M - 1) % g and, at g > 2, (-f - M - 1) % g for each mode (cos ft: f, sin ft:
    M + f): the residues of f' - M - 1 at which a mode meets |z| = L past M."""
    f = np.where(mode > M, mode - M, mode)
    return (np.stack([f, -f], -1)[..., : 1 + (g > 2)] - M - 1) % g


def _outer_coefficients(alpha: np.ndarray, beta: np.ndarray, M: int, tc: np.ndarray) -> np.ndarray:
    """C[mode, s, i]: each mode's error on |z| = L is Re sum C e^{if't} over f' = M + 1 +
    rho_s + g i, rho the mode's ``_residues``; tc[r * M + m - 1, i, rho] is conj(t_mf') of
    representative r at f' = M + 1 + rho + g i. In the solution of e^{ift}, with disk r +
    kn/g's t_mf' w^{k(f'-m)} that of disk r, P_f' (of e^{if't}) = g sum beta_rm conj(t_mf')
    if f' = f and N_f' (of e^{-if't}) = g sum alpha_rm t_mf' if f' = -f (mod g)
    (``_amplitudes``); cos ft has C = P + conj(N), sin ft C = -i(P - conj(N)). Residue rho
    meets the modes f = M + 1 + rho and f = -M - 1 - rho (mod g)."""
    g, q, rho = alpha.shape[0], alpha.shape[2], np.arange(alpha.shape[0])
    tc = tc.transpose(2, 0, 1)
    PN = np.empty((q, g, 2, tc.shape[2]), dtype=complex)
    for s, a, j in ((0, beta, (M + 1 + rho) % g), (1, alpha.conj(), (-M - 1 - rho) % g)):
        PN[:, j, s] = (a[j].transpose(0, 2, 1) @ tc).transpose(1, 0, 2)
    PN = g * PN.reshape(q * g, 2, -1)[: M + 1]  # modes f = 0..M
    C = np.zeros((2 * M + 1, 1 + (g > 2), tc.shape[2]), dtype=complex)
    C[: M + 1, 0], C[M + 1 :, 0] = PN[:, 0], -1j * PN[1:, 0]
    C[: M + 1, -1] += PN[:, 1]
    C[M + 1 :, -1] += 1j * PN[1:, 1]
    return C


def _tail_table(packing: Packing, M: int, g: int, T: np.ndarray, X: np.ndarray,
                cuts: np.ndarray, outer_tail: np.ndarray, disk_tail: np.ndarray):
    """The error of each mode's solution X past M, on |z| = L and on the first n/g disks,
    into the tails, up to the cuts. Lambda = sym(pi F (2 X_dom - I)) needs none of it: the
    outer rows fix the inclusion part's coefficients at f' <= M, the only ones it meets.

    On |z| = L a mode of frequency f has terms only at f' = f and f' = -f (mod g), so the
    outer tail keeps for each mode T[s, i] at f' = M + 1 + (+-f - M - 1) % g + g i, s = 0
    for +f and 1 for -f (one at g <= 2), i < Q = outer_tail.shape[2]. On disk r' it keeps
    the terms a > M of the disks k whose own cut ``cuts[r', k]`` passes M: one table takes
    them all to the second largest of those cuts, one takes those at the largest on to it.

    The error on disk r' is sum_a P_a e^{ia tau} + N_a e^{-ia tau}, a > M: in the solution
    of e^{ift}, alpha_km and beta_km multiply p_k^m and conj(p_k^m), and the rotation by
    2 pi/g maps it to e^{2 pi i f/g} times itself, so alpha of disk r + kn/g is w^{k(f+m)}
    that of disk r and beta w^{k(f-m)} it, w = e^{2 pi i/g}. So P_a = sum_{k,m} alpha_km
    D_k[m, a] and conj(N_a) = sum conj(beta_km) D_k[m, a], D_k the ``_translation_table``
    of disk k on disk r'. The error of cos ft, the real part, is Re sum T e^{ia tau} with
    T = P + conj(N); that of sin ft, the imaginary part, has T = -i(P - conj(N)).
    """
    nr, L, Q = packing.n // g, packing.L, outer_tail.shape[2]
    m, f, w = np.arange(1, M + 1), np.arange(M + 1), np.exp(2j * math.pi * np.arange(g) / g)
    c, radii = packing.centers() @ np.array([1.0, 1j]), packing.radii()
    # |z| = L: t_mf', f' = M..M + Qg, is (R/L) T[m-1, M-1] at M, and past it the one
    # before times (c/L)(f' - 1)/(f' - m). Conjugated whole: numpy copies the slice past M.
    fp = np.arange(M + 1, M + Q * g + 1)
    t = np.empty((nr, M, Q * g + 1), dtype=complex)
    t[..., 0] = radii[:nr, None] / L * T[:, :M, M - 1]
    np.multiply(c[:nr, None, None] / L, (fp - 1) / (fp - m[:, None]), out=t[..., 1:])
    np.cumprod(t, -1, out=t)
    alpha, beta = _amplitudes(X, M, g)
    tc = np.conjugate(t, out=t)[..., 1:].reshape(nr * M, Q, g)
    outer_tail[...] = _outer_coefficients(alpha, beta, M, tc)
    del t, tc
    # Disk r': P and conj(N), a band of a at a time; disk k = r + jn/g's w^{jm} is in its
    # x = w^j R_k/d.
    alpha, beta = (a.transpose(2, 0, 1).reshape(a.shape[2] * g, nr, M)[: M + 1]
                   for a in (alpha, beta.conj()))
    disk_tail[...] = 0.0
    for r2 in range(nr):
        k = np.flatnonzero(cuts[r2] > M)
        top = cuts[r2, k].max(initial=M)
        mid = cuts[r2, k][cuts[r2, k] < top].max(initial=M)
        for k, a0, a1 in ((k, M + 1, mid), (k[cuts[r2, k] == top], mid + 1, top)):
            if a1 < a0:
                continue
            d, j = c[r2] - c[k], k // nr
            D = _translation_table(w[j] * radii[k] / d, radii[r2] / d, M, a1, a0)
            P, N = np.empty((2, M + 1, a1 - a0 + 1), dtype=complex)
            for out, sign, a in ((P, 1, alpha), (N, -1, beta)):
                a = a[:, k % nr]
                a *= w[sign * f[:, None] * j % g, None]
                np.matmul(a.reshape(M + 1, -1), D.reshape(k.size * M, -1), out=out)
            cols = slice(a0 - M - 1, a1 - M)
            disk_tail[: M + 1, r2, cols], disk_tail[M + 1 :, r2, cols] = P + N, -1j * (P - N)[1:]


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
    """An upper bound of the truncation error of mode vector c's solution on every circle,
    from c's 2K+1 modes and its coefficients w of Re p_k^m and -Im p_k^m.

    The error on a circle is Re sum T_a e^{ia tau}, a > M, so at most sum |T_a|: the
    tails' l1 up to the cut, plus the terms past it. On |z| = L each mode's tail sits at
    its own residues of f' mod g, so the modes of c are summed at their f' first. A
    column's terms on disk r sum in modulus to (R_k/(|d| - R_r))^m and on |z| = L to
    (R_k/(L - |c_k|))^m, both below 1 (sum_j binom(m+j-1, j) rho^j = (1 - rho)^-m), and
    past the cut to at most eps of that (``_cut``): eps times the l1 of w bounds them all.
    The rotation by 2 pi p/g maps the packing onto itself, so the solution of
    psi(theta + 2 pi p/g) is that of psi rotated, and its error on representative disk r
    is that of psi on disk r + pn/g: the tails of all g rotations come from one product
    with the g ``_rotations`` of c. The bound covers the truncation of the series, not the
    rounding of the solve or of summing them: at convergence it can read below a
    sampled error.
    """
    M, g = (op.dtn.shape[0] - 1) // 2, op.order
    idx, (_, S, Q), (_, nr, cut) = _slots(K, M), op.outer_tail.shape, op.disk_tail.shape
    at = np.arange(g)[:, None] == op.outer_residue[idx].ravel()
    outer = np.abs(at @ (c[idx, None, None] * op.outer_tail[idx]).reshape(idx.size * S, Q)).sum()
    disks = _rotations(c[idx], K, g).T @ op.disk_tail[idx].reshape(idx.size, nr * cut)
    disks = np.abs(disks).reshape(g, nr, cut).sum(-1)
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


def gap_energy_quadrature(R_i: float, R_j: float, delta: float) -> float:
    """(1/2) integral of dx / h(x) across the gap between two disks, over |x| <=
    min(R_i, R_j), where the gap height h is delta plus the sag R (1 - sqrt(1 -
    (x/R)^2)) of each curved side R."""
    if not all(0 < v < math.inf for v in (R_i, R_j, delta)):
        raise DomainError("radii and gap width must be positive and finite")

    def inv_h(x):
        h = delta
        for R in (R_i, R_j):
            h = h + R * (1.0 - np.sqrt(np.maximum(0.0, 1.0 - (x / R) ** 2)))
        return 1.0 / h

    X = min(R_i, R_j)
    val, _ = scipy.integrate.quad(inv_h, -X, X, epsabs=0.0, epsrel=1e-10, limit=200)
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
