"""Asymptotic energy and DtN quadratic form of the composite.

The quadratic form of the continuum DtN map is approximated by twice the
sum of three energies: the resistor-network energy driven by damped
boundary excitations, the reference-medium energy, and a resonance term
built from Li_{1/2} that accounts for oscillatory flow trapped in the
boundary gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import GeometryAnalysis
from .network import (
    Network, _checked_psi, dtn_matrix, energy_factor, interior_gap_energy, net_energy,
)
from .specfun import polylog_half


@dataclass(frozen=True)
class FourierPotential:
    """Boundary potential as cos/sin coefficients for k = 0..K."""

    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.cos_coeffs, dtype=float))
        s = np.atleast_1d(np.asarray(self.sin_coeffs, dtype=float))
        if c.shape != s.shape or c.ndim != 1 or c.size == 0:
            raise ValueError("cos and sin coefficient arrays must share one length >= 1")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(s))):
            raise ValueError("coefficients must be finite")
        if s[0] != 0.0:
            raise ValueError("the k = 0 sine coefficient must be zero")
        object.__setattr__(self, "cos_coeffs", c)
        object.__setattr__(self, "sin_coeffs", s)

    @property
    def K(self) -> int:
        return self.cos_coeffs.shape[0] - 1

    def evaluate(self, theta: np.ndarray) -> np.ndarray:
        return _modes(np.asarray(theta, dtype=float), self.K) @ _mode_vector(self, self.K)

    @staticmethod
    def single_cos(k: int, amplitude: float = 1.0) -> "FourierPotential":
        c = np.zeros(k + 1)
        c[k] = amplitude
        return FourierPotential(c, np.zeros(k + 1))

    @staticmethod
    def single_sin(k: int, amplitude: float = 1.0) -> "FourierPotential":
        if k == 0:
            raise ValueError("sin mode needs k >= 1")
        s = np.zeros(k + 1)
        s[k] = amplitude
        return FourierPotential(np.zeros(k + 1), s)


def _modes(theta: np.ndarray, K: int) -> np.ndarray:
    """The modes cos 0..K, sin 1..K sampled at theta (last axis): the order of
    every (2K+1)-vector and (2K+1)^2 matrix of the package."""
    arg = np.multiply.outer(theta, np.arange(K + 1))
    return np.concatenate([np.cos(arg), np.sin(arg[..., 1:])], axis=-1)


def _slots(K: int, M: int) -> np.ndarray:
    """Positions of the modes of ``_modes(theta, K)`` among those of ``_modes(theta, M)``."""
    return np.concatenate([np.arange(K + 1), np.arange(M + 1, M + 1 + K)])


def _mode_vector(psi: FourierPotential, K: int) -> np.ndarray:
    """Coefficients of psi on the modes of ``_modes(theta, K)``, K >= psi.K."""
    c = np.zeros(2 * K + 1)
    c[_slots(psi.K, K)] = np.concatenate([psi.cos_coeffs, psi.sin_coeffs[1:]])
    return c


def _frequencies(K: int) -> np.ndarray:
    """The frequency k of each mode of ``_modes(theta, K)``."""
    return np.concatenate([np.arange(K + 1.0), np.arange(1.0, K + 1.0)])


@dataclass(frozen=True)
class ModeRegime:
    k: int
    epsilon: float
    eta: float
    regime: int


@dataclass(frozen=True)
class EnergyBreakdown:
    E_net: float
    E_ref: float
    R_res: float
    total: float
    quad_form: float
    per_mode: tuple[ModeRegime, ...]

    def to_dict(self) -> dict:
        return {
            "E_net": self.E_net,
            "E_ref": self.E_ref,
            "R_res": self.R_res,
            "total": self.total,
            "quad_form": self.quad_form,
            "per_mode": [
                {"k": m.k, "epsilon": m.epsilon, "eta": m.eta, "regime": m.regime}
                for m in self.per_mode
            ],
        }


def _damping(analysis: GeometryAnalysis, ks: np.ndarray) -> np.ndarray:
    """e^{-k mu_i} (N_b, len(ks)): the damping of frequency k at boundary inclusion i."""
    return np.exp(-np.multiply.outer(analysis._damping_rates, ks))


def _excitation_matrix(analysis: GeometryAnalysis, K: int) -> np.ndarray:
    """B (N_b, 2K+1): the damped boundary-node potentials of each mode."""
    return _modes(analysis.boundary_angles, K) * _damping(analysis, _frequencies(K))


def boundary_excitation(psi: FourierPotential, analysis: GeometryAnalysis) -> np.ndarray:
    """Damped boundary-node potentials Psi = B c driving the network."""
    return _excitation_matrix(analysis, psi.K) @ _mode_vector(psi, psi.K)


def reference_energy(psi: FourierPotential) -> float:
    """Energy of psi in the homogeneous unit-conductivity disk."""
    k = np.arange(psi.K + 1)
    return float(
        np.sum(0.5 * math.pi * k * (psi.cos_coeffs**2 + psi.sin_coeffs**2))
    )


def _poly(x: np.ndarray) -> np.ndarray:
    """sqrt(x / pi) Li_{1/2}(e^{-x}) elementwise, with its limit 1 at x = 0."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    nonzero = x != 0.0  # negative x reaches polylog_half, which rejects it
    out[nonzero] = np.sqrt(x[nonzero] / math.pi) * polylog_half(x[nonzero])
    return out


def _resonance_table(analysis: GeometryAnalysis, sigmas, ks) -> np.ndarray:
    """R[i, m]: anomalous energy of mode ks[m] in the gap behind boundary
    inclusion i, with gap conductivity sigmas[i]; zero at k = 0."""
    k = np.asarray(ks, dtype=float)
    x = 2.0 * k * analysis.boundary_gaps[:, None] / analysis.packing.L
    damp = np.exp(-2.0 * k * analysis._damping_rates[:, None])
    return 0.25 * np.reshape(sigmas, (-1, 1)) * (_poly(x) - damp)


def resonance_single(
    i: int, k: int, analysis: GeometryAnalysis, sigma_i: float
) -> float:
    """Anomalous energy of mode k in the gap behind boundary inclusion i."""
    if k < 0:
        raise DomainError(f"frequency must be nonnegative, got {k}")
    return float(_resonance_table(analysis, sigma_i, [k])[i, 0])


def resonance_mode(k: int, analysis: GeometryAnalysis, network: Network) -> float:
    return float(np.sum(_resonance_table(analysis, network.boundary_sigmas, [k])))


def _resonance_matrix(analysis: GeometryAnalysis, network: Network, K: int) -> np.ndarray:
    """R (2K+1, 2K+1): the resonance of psi is c^T R c.

    Mode k of psi is Re((a_k - i b_k) e^{ik theta}), so boundary inclusion i
    adds W_i e^{i(k-m) theta_i}, W_i(k, m) = e^{-|k-m| mu_i} r_i(min(k, m)),
    whose real part C fills the cos-cos and sin-sin blocks and whose
    imaginary part S the cross blocks.
    """
    k = np.arange(K + 1)
    r = _resonance_table(analysis, network.boundary_sigmas, k)
    km_min, km_diff = np.minimum.outer(k, k), np.subtract.outer(k, k).astype(float)
    R, S = np.zeros((2 * K + 1, 2 * K + 1)), np.zeros((K + 1, K + 1))
    C = R[: K + 1, : K + 1]  # a view: the cos-cos block
    for i, (mu, theta) in enumerate(zip(analysis._damping_rates, analysis.boundary_angles)):
        W = np.exp(-np.abs(km_diff) * mu) * r[i, km_min]
        C += W * np.cos(km_diff * theta)
        S += W * np.sin(km_diff * theta)
    R[: K + 1, K + 1 :], R[K + 1 :, : K + 1], R[K + 1 :, K + 1 :] = -S[:, 1:], S[1:], C[1:, 1:]
    return R


def resonance_general(
    psi: FourierPotential, analysis: GeometryAnalysis, network: Network
) -> float:
    """Resonance of a general potential: damped double sum over mode pairs."""
    c = _mode_vector(psi, psi.K)
    return float(c @ _resonance_matrix(analysis, network, psi.K) @ c)


def dtn_asymptotic(
    K: int, analysis: GeometryAnalysis | None, network: Network | None
) -> np.ndarray:
    """Lambda_asym on the modes cos 0..K, sin 1..K: c^T Lambda_asym c is the
    asymptotic quad_form 2 (E_net + E_ref + R_res) of psi = c."""
    lam = np.diag(math.pi * _frequencies(K))
    if analysis is not None and network is not None:
        G = energy_factor(network, _excitation_matrix(analysis, K))
        lam += G.T @ G + 2.0 * _resonance_matrix(analysis, network, K)
    return lam


_SWEEP_BLOCK = 128  # frequencies per block, so memory stays O(n_b * 128)


def cosine_sweep(
    ks: np.ndarray, analysis: GeometryAnalysis | None, network: Network | None
) -> list[tuple]:
    """Rows (k, epsilon, eta, regime, E_net, E_ref, R_res, total, quad_form) of
    the single modes cos(k theta), k in ks: the diagonal of Lambda_asym, from
    the network's energy factor on each block of the cosine columns of B and
    the column sums of the resonance table."""
    ks = np.asarray(ks)
    e_ref = 0.5 * math.pi * ks
    e_net, r_res = np.zeros((2, len(ks)))
    if analysis is None or network is None:
        modes = [ModeRegime(int(k), 0.0, 0.0, 2) for k in ks]
    else:
        for lo in range(0, len(ks), _SWEEP_BLOCK):
            kb = ks[lo : lo + _SWEEP_BLOCK]
            B = np.cos(np.multiply.outer(analysis.boundary_angles, kb)) * _damping(analysis, kb)
            G = energy_factor(network, B)
            e_net[lo : lo + len(kb)] = 0.5 * np.einsum("ij,ij->j", G, G)
            r_res[lo : lo + len(kb)] = _resonance_table(
                analysis, network.boundary_sigmas, kb).sum(axis=0)
        scales = characteristic_scales(analysis)
        modes = [_classify(int(k), scales, analysis.packing.L) for k in ks]
    total = e_net + e_ref + r_res
    return [(m.k, m.epsilon, m.eta, m.regime, *map(float, row))
            for m, *row in zip(modes, e_net, e_ref, r_res, total, 2.0 * total)]


def characteristic_scales(analysis: GeometryAnalysis) -> tuple[float, float]:
    """(delta_char, R_char): geometric-mean gap and arithmetic-mean radius, computed once
    per analysis."""
    return analysis._scales


def _classify(k: int, scales: tuple[float, float], L: float) -> ModeRegime:
    delta_char, r_char = scales
    eps = k * delta_char / L
    eta = k * r_char / L
    if eps >= 1.0:
        regime = 2
    elif eta <= 1.0:
        regime = 1
    else:
        regime = 3
    return ModeRegime(k=k, epsilon=eps, eta=eta, regime=regime)


def regime_classify(k: int, analysis: GeometryAnalysis) -> ModeRegime:
    return _classify(k, characteristic_scales(analysis), analysis.packing.L)


def total_energy(
    psi: FourierPotential,
    analysis: GeometryAnalysis | None,
    network: Network | None,
) -> EnergyBreakdown:
    """Full three-term energy and the DtN quadratic form.

    Passing ``analysis=None`` (no inclusions) keeps only the reference term.
    """
    e_ref = reference_energy(psi)
    if analysis is None or network is None:
        e_net, r_res = 0.0, 0.0
        per_mode: tuple[ModeRegime, ...] = ()
    else:
        e_net = net_energy(network, boundary_excitation(psi, analysis))
        r_res = resonance_general(psi, analysis, network)
        scales = characteristic_scales(analysis)
        per_mode = tuple(
            _classify(k, scales, analysis.packing.L) for k in range(psi.K + 1)
        )
    total = e_net + e_ref + r_res
    return EnergyBreakdown(
        E_net=e_net,
        E_ref=e_ref,
        R_res=r_res,
        total=total,
        quad_form=2.0 * total,
        per_mode=per_mode,
    )


@dataclass(frozen=True)
class RegimeEstimate:
    regime: ModeRegime
    approx_total: float
    description: str


def regime_estimate(
    k: int, analysis: GeometryAnalysis, network: Network
) -> RegimeEstimate:
    """Leading-order single-mode energy with the negligible terms dropped:
    the terms of the ``cosine_sweep`` row of cos(k theta) that its regime keeps."""
    _, eps, eta, regime, e_net, e_ref, _, total, _ = cosine_sweep([k], analysis, network)[0]
    approx = (e_net + e_ref, e_ref, total)[regime - 1]
    desc = (
        "network-dominated: resonance dropped, "
        f"|R_k| = sigma_i O(sqrt(eps)) with eps = {eps:.3g}",
        "boundary-layer dominated: network and resonance exponentially "
        f"suppressed at eps = {eps:.3g}",
        "resonant: all three terms kept, R_k ~ k/sqrt(eps*eta) with "
        f"eps = {eps:.3g}, eta = {eta:.3g}",
    )[regime - 1]
    return RegimeEstimate(ModeRegime(k, eps, eta, regime), approx, desc)


def boundary_layer_energy(
    U_gamma: np.ndarray, k: int, analysis: GeometryAnalysis, network: Network
) -> float:
    """Leading-order boundary-layer energy for single-mode cos(k theta) data."""
    U_gamma = _checked_psi(network, U_gamma)
    damp = _damping(analysis, k)  # e^{-kappa_i}, kappa_i = k mu_i
    target = np.cos(k * analysis.boundary_angles) * damp
    sig = network.boundary_sigmas
    quad = 0.5 * float(np.sum(sig * (U_gamma - target) ** 2))
    x = 2.0 * k * analysis.boundary_gaps / analysis.packing.L
    lin = 0.25 * float(sig @ (_poly(x) - damp))
    return 0.5 * k * math.pi + quad + lin


@dataclass(frozen=True)
class DecompositionResult:
    value: float
    discrepancy: float


def total_energy_decomposed(
    k: int, analysis: GeometryAnalysis, network: Network
) -> DecompositionResult:
    """Minimize boundary-layer plus interior gap energy over the boundary
    inclusion potentials, and report the gap to the three-term total.

    The discrepancy is the documented exponential mismatch
    sum_i (sigma_i/4)(e^{-kappa_i} - e^{-2 kappa_i}). The minimizer and the
    interior gap energy both come from the network's cached Lambda_net, so
    nothing is factored.
    """
    psi = FourierPotential.single_cos(k)
    # The joint quadratic in all inclusion potentials is the network energy with the
    # damped excitation Psi of psi, shifted by constants; its minimizer's U_gamma
    # follows from Ohm's law on the boundary edges: Lambda_net Psi = sigma_b (Psi - U_gamma).
    Psi = boundary_excitation(psi, analysis)
    u_gamma = Psi - dtn_matrix(network) @ Psi / network.boundary_sigmas
    value = boundary_layer_energy(u_gamma, k, analysis, network) + interior_gap_energy(
        network, u_gamma
    )
    total = total_energy(psi, analysis, network).total
    return DecompositionResult(value=value, discrepancy=total - value)
