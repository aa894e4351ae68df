import math
import tempfile

import numpy as np
import pytest
import scipy.optimize
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from dtnnet import oracle
from dtnnet.asymptotics import _modes
from dtnnet.generators import ring_packing
from dtnnet.geometry import Disk, Packing

# Property tests draw the same examples on every run and keep no example database.
settings.register_profile("dtnnet", derandomize=True, deadline=None, database=None)
settings.load_profile("dtnnet")


def pytest_configure(config):
    # hypothesis also caches the constants it parses from the sources in its
    # home directory: keep that out of the checkout, and remove it at the end.
    home = tempfile.TemporaryDirectory(prefix="dtnnet-hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def equal_gap_ring(n: int, gap_over_radius: float, L: float = 1.0, phase: float = 0.0):
    """Ring where the boundary gap equals the neighbor gap, both = t * R.

    With n, L and the gap ratio fixed, the disk radius is determined:
        R = s / (1 + s + t (s + 1/2)),  s = sin(pi/n).
    """
    s = math.sin(math.pi / n)
    t = gap_over_radius
    R = s / (1.0 + s + t * (s + 0.5))
    delta = t * R
    return ring_packing(n, L - R - delta, R, L, phase)


def bidisperse_ring(t: float, n: int = 16, ratio: float = 0.6, L: float = 1.0) -> Packing:
    """n disks in angular order, radius R1 at even k and R2 = ratio * R1 at odd k, each
    at the distance from the origin that leaves a boundary gap t * R2, big and small
    disks on two circles. R1 is solved so that the gap between angular neighbours is
    t * R2 too. Disk k + 2 is disk k rotated by 4 pi/n."""

    def placed(R1):  # (centre distance, radius) of the big and the small disks
        return [(L - R - t * ratio * R1, R) for R in (R1, ratio * R1)]

    def excess(R1):  # neighbour gap minus t * R2
        (c1, _), (c2, R2) = placed(R1)
        distance = math.sqrt(c1**2 + c2**2 - 2.0 * c1 * c2 * math.cos(2.0 * math.pi / n))
        return distance - R1 - R2 - t * R2

    rings = placed(scipy.optimize.brentq(excess, 1e-6 * L, L / (2.0 * (1.0 + ratio)), xtol=1e-15))
    disks = []
    for k in range(n):
        c, R = rings[k % 2]
        a = 2.0 * math.pi * k / n
        disks.append(Disk(c * math.cos(a), c * math.sin(a), R))
    return Packing(L, tuple(disks))


def two_ring_packing() -> Packing:
    """12 disks at radius 0.8 and 4 at 0.35, all of radius 0.1, listed
    [o0, o1, o2, i0, o3, ...]: disk k + 4 is disk k rotated by pi/2."""
    outer = ring_packing(12, 0.8, 0.1, 1.0).inclusions
    inner = ring_packing(4, 0.35, 0.1, 1.0).inclusions
    return Packing(1.0, sum((outer[3 * k : 3 * k + 3] + inner[k : k + 1] for k in range(4)), ()))


def circle_points(packing, t_outer, t_inner):
    """Points at angles t_outer on the outer circle, then t_inner on each inclusion,
    one disk at a time."""
    yield packing.L * np.exp(1j * t_outer)
    for disk in packing.inclusions:
        yield (disk.x + 1j * disk.y) + disk.r * np.exp(1j * t_inner)


def reference_collocation(packing, M):
    """The full collocation system A X = B, whatever the rotation order: rows at
    4M points on the outer circle, then 4M on each inclusion."""
    n = packing.n
    n_per = 4 * M
    n_basis = (2 * M + 1) + 2 * M * n
    A = np.zeros((n_per * (n + 1), n_basis + n))
    B = np.zeros((n_per * (n + 1), 2 * M + 1))
    t = np.linspace(0.0, 2.0 * math.pi, n_per, endpoint=False)
    # Offset avoids symmetric aliasing against the outer-circle points.
    for i, z in enumerate(circle_points(packing, t, t + math.pi / n_per)):
        A[i * n_per : (i + 1) * n_per, :n_basis] = oracle._basis_columns(z, packing, M)
    A[n_per:, n_basis:] = -np.repeat(np.eye(n), n_per, axis=0)
    B[:n_per] = _modes(t, M)
    return A, B


def reference_galerkin(packing, M):
    """The Galerkin system A X = B: the boundary values on each circle projected
    onto its Fourier modes |m| <= M, rows c_0, sqrt(2) Re c_m, sqrt(2) Im c_m, with c
    the forward-normalized DFT of N = max(1024, 16M) equally spaced values. Doubling
    N moves Lambda by at most 3.5e-15 max|Lambda| on the packings of the oracle
    tests. Square, (2M+1)(n+1) rows and unknowns."""
    n, N = packing.n, max(1024, 16 * M)

    def project(V):
        c = np.fft.rfft(V, axis=0, norm="forward")[: M + 1]
        return np.concatenate([c[:1].real, math.sqrt(2) * c[1:].real, math.sqrt(2) * c[1:].imag])

    t = np.linspace(0.0, 2.0 * math.pi, N, endpoint=False)
    # Circle i's rows: the basis columns, then -U_i on inclusion i.
    A = np.concatenate([project(np.hstack([oracle._basis_columns(z, packing, M),
                                           np.tile(-1.0 * (np.arange(1, n + 1) == i), (N, 1))]))
                        for i, z in enumerate(circle_points(packing, t, t))])
    B = np.zeros((A.shape[0], 2 * M + 1))
    B[: 2 * M + 1] = project(_modes(t, M))
    return A, B


def reference_dense_factor(packing, M, g, T, X):
    """The full Galerkin system in one dense solve, whatever the rotation order g:
    the reference for the oracle's orbit factor. Returns its exact 1-norm condition."""
    G, B = reference_galerkin(packing, M)
    X[...] = np.linalg.solve(G, B)
    return float(np.linalg.cond(G, 1))


def reference_lstsq_factor(packing, M, g, T, X):
    """The oversampled collocation system in one least-squares solve: a second
    reference, the factor before the Galerkin projection. Returns its 2-norm condition."""
    A, B = reference_collocation(packing, M)
    X[...], _, _, sv = np.linalg.lstsq(A, B, rcond=None)
    return float(sv.max() / sv.min())


def reference_operator(packing, M, factor=reference_dense_factor):
    """The oracle's operator with a reference factor."""
    return oracle._solve(packing, M, factor)


def reference_residual(packing, M, X):
    """Collocation error of each mode (columns) of the solution X at 8M shifted points
    on the outer circle, then at 8M points on each inclusion."""
    n_chk, n_basis = 8 * M, (2 * M + 1) + 2 * M * packing.n
    t = np.linspace(0.0, 2.0 * math.pi, n_chk, endpoint=False)
    t_outer = t + 0.5 * math.pi / n_chk
    targets = [_modes(t_outer, M), *X[n_basis:]]
    return np.concatenate([oracle._basis_columns(z, packing, M) @ X[:n_basis] - y for z, y in
                           zip(circle_points(packing, t_outer, t), targets)])


def dense_outer_tail(op):
    """The operator's outer tail of each mode at every f' = M+1..M+Qg, in the order of
    (f' - M - 1) % g, then (f' - M - 1) // g: a mode of frequency f keeps its columns at
    f' = f and f' = -f (mod g), one column block of Q each."""
    M, g = (op.dtn.shape[0] - 1) // 2, op.order
    dense = np.zeros((2 * M + 1, g, op.outer_tail.shape[2]), dtype=complex)
    for mode in range(2 * M + 1):
        f = mode if mode <= M else mode - M
        for s, sign in enumerate((1, -1)[: op.outer_tail.shape[1]]):
            assert op.outer_residue[mode, s] == (sign * f - M - 1) % g
            dense[mode, (sign * f - M - 1) % g] += op.outer_tail[mode, s]
    return dense.reshape(2 * M + 1, -1)


def reference_boundary_residual(op, c, M):
    """The oracle's boundary residual of mode vector c as one product per rotation and
    circle: the largest l1 of the tail of psi(theta + 2 pi p/g), p = 0..g-1, on |z| = L
    and on each representative disk, plus eps times the l1 of psi's coefficients of the
    inclusion harmonics, which bounds every column's terms past the cut."""
    n = op.disk_tail.shape[1] * op.order
    outer_tail = dense_outer_tail(op)
    inc = (op.coeffs[2 * M + 1 : (2 * M + 1) + 2 * M * n] @ c).reshape(n, 2, M)
    m = np.arange(1, M + 1)
    worst = 0.0
    for p in range(op.order):
        alpha = 2.0 * math.pi * p / op.order
        cos, sin = np.cos(m * alpha), np.sin(m * alpha)
        a, b = c[1 : M + 1], c[M + 1 :]
        rotated = np.concatenate([c[:1], cos * a + sin * b, cos * b - sin * a])
        worst = max(worst, float(np.sum(np.abs(rotated @ outer_tail))))
        for r in range(op.disk_tail.shape[1]):
            worst = max(worst, float(np.sum(np.abs(rotated @ op.disk_tail[:, r]))))
    return worst + np.finfo(float).eps * float(np.sum(np.abs(inc)))


def sampled_errors(packing, M, X, C, N=4096):
    """The error of the solutions X C of the mode vectors C (columns) at N equally spaced
    points of each circle: the trace error on |z| = L, then the deviation from U_i on
    each disk, one (N, columns) array per circle. The potential is a_0 + Re sum_l
    (a_l - i b_l) (z/L)^l + Re sum_{k,m} (c_km + i d_km) (R_k/(z - c_k))^m."""
    n, n_basis = packing.n, (2 * M + 1) + 2 * M * packing.n
    t = np.linspace(0.0, 2.0 * math.pi, N, endpoint=False)
    coeffs = X @ C
    domain = coeffs[1 : M + 1] - 1j * coeffs[M + 1 : 2 * M + 1]
    inc = coeffs[2 * M + 1 : n_basis].reshape(n, 2, M, -1)
    inc = (inc[:, 0] + 1j * inc[:, 1]).reshape(n * M, -1)
    targets = [_modes(t, M) @ C, *coeffs[n_basis:, None]]
    errors = []
    for z, y in zip(circle_points(packing, t, t), targets):
        q = z / packing.L
        p = packing.radii() / (z[:, None] - packing.centers() @ np.array([1.0, 1j]))
        powers = [np.cumprod(np.repeat(w[..., None], M, -1), -1) for w in (q, p)]
        u = powers[0] @ domain + powers[1].reshape(N, n * M) @ inc
        errors.append(coeffs[0] + u.real - y)
    return errors


@pytest.fixture
def ring8():
    """Standard ring fixture: 8 disks of radius 0.1 on radius 0.85, L = 1."""
    return ring_packing(8, 0.85, 0.1, 1.0)
