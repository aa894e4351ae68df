"""Resistor network of a packing: build, Kirchhoff solve, DtN matrix.

Nodes are the inclusion centers plus one boundary node per boundary
inclusion. Each boundary node has degree one. The edge conductivities
follow the square-root gap law; the discrete energy is

    E(psi) = min_U  sum_i (sigma_i/2)(U_i - Psi_i)^2
                  + sum_{gap edges} (sigma_ij/2)(U_i - U_j)^2 .
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg

from .errors import ModeError, SingularSystemError
from .geometry import GeometryAnalysis


@dataclass(frozen=True)
class Network:
    interior_nodes: np.ndarray  # (N, 2) inclusion centers
    boundary_count: int
    gap_edges: np.ndarray  # (E, 2) index pairs, i < j, in lexicographic order
    gap_sigmas: np.ndarray  # conductivity per gap edge
    boundary_sigmas: np.ndarray  # conductivity of edge (boundary node i, inclusion i)
    boundary_angles: np.ndarray

    @property
    def n(self) -> int:
        return self.interior_nodes.shape[0]

    @cached_property
    def _boundary_map(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The upper Cholesky factor T of Lambda_net on the boundary nodes that are
        not grounds, those nodes and their grounds: read-only.

        One factorization of A and one n_b-column solve give Lambda_net, which is
        factored and dropped, as are A and its LU factor. Grounding each component
        at one node leaves Lambda_net positive definite on the other nodes, and with
        zero row sums Psi^T Lambda_net Psi = |T (Psi[nodes] - Psi[grounds])|^2.
        """
        sig = self.boundary_sigmas
        _, ground, X = _kirchhoff_solve(self, np.eye(self.n, self.boundary_count) * sig)
        lam = np.diag(sig) - sig[:, None] * X[: self.boundary_count]
        nodes = np.flatnonzero(ground != np.arange(self.boundary_count))
        out = np.linalg.cholesky(lam[nodes[:, None], nodes]).T, nodes, ground[nodes]
        for a in out:
            a.flags.writeable = False
        return out


@dataclass(frozen=True)
class KirchhoffSolution:
    U: np.ndarray  # inclusion potentials
    energy: float
    residual_norm: float


def build_network(analysis: GeometryAnalysis, mode: str = "identical") -> Network:
    """Edge conductivities from the gap widths.

    sigma_ij = pi sqrt(2 R_i R_j / (delta_ij (R_i + R_j))),  sigma_i = pi sqrt(2 R_i / delta_i)

    ``identical`` is this law at equal radii (sigma_ij = pi sqrt(R/delta_ij))
    and only adds the check that the radii are equal; ``generalized`` allows
    any radii.
    """
    if mode not in ("identical", "generalized"):
        raise ModeError(f"unknown mode {mode!r}")
    radii = analysis.packing.radii()
    if mode == "identical":
        spread = radii.max() - radii.min()
        if spread > 1e-12 * radii.max():
            raise ModeError("identical mode requires equal radii")
    r_i, r_j = radii[analysis.gap_edges].T
    delta = analysis.gap_widths
    n_b = analysis.boundary_count
    return Network(
        interior_nodes=analysis.packing.centers(),
        boundary_count=n_b,
        gap_edges=analysis.gap_edges,
        gap_sigmas=math.pi * np.sqrt(2.0 * r_i * r_j / (delta * (r_i + r_j))),
        boundary_sigmas=math.pi * np.sqrt(2.0 * radii[:n_b] / analysis.boundary_gaps),
        boundary_angles=analysis.boundary_angles,
    )


def _kirchhoff(network: Network) -> tuple[scipy.sparse.csc_matrix, np.ndarray]:
    """Reduced Kirchhoff matrix A, the gap Laplacian over the inclusion potentials
    plus diag(sigma_b) on the boundary inclusions (CSC conversion sums the
    duplicate diagonal entries), and for each boundary node the first boundary
    node of its connected component (its ground). Built and checked on every
    call, so every solve on a disconnected network raises.
    """
    i, j = network.gap_edges.T
    s = network.gap_sigmas
    b = np.arange(network.boundary_count)
    rows = np.concatenate([i, j, i, j, b])
    cols = np.concatenate([i, j, j, i, b])
    vals = np.concatenate([s, s, -s, -s, network.boundary_sigmas])
    A = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(network.n, network.n)).tocsc()
    count, labels = scipy.sparse.csgraph.connected_components(A, directed=False)
    # The labels on the boundary inclusions, and where each first occurs.
    ids, first = np.unique(labels[: network.boundary_count], return_index=True)
    # Every connected component of A's graph must hold a boundary inclusion,
    # and then ids is 0..count-1.
    if ids.size < count:
        raise SingularSystemError(
            "network has inclusion components with no path to a boundary node"
        )
    return A, first[labels[: network.boundary_count]]


def _kirchhoff_solve(network: Network, rhs: np.ndarray) -> tuple:
    """A and the grounds (``_kirchhoff``), and X = A^{-1} rhs from one fresh
    sparse LU of A, which is not kept."""
    A, ground = _kirchhoff(network)
    return A, ground, scipy.sparse.linalg.splu(A).solve(rhs)


def _checked_psi(network: Network, psi: np.ndarray) -> np.ndarray:
    """psi as a float array, checked to hold one value per boundary node."""
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (network.boundary_count,):
        raise ValueError(
            f"boundary vector must have length {network.boundary_count}, got shape {psi.shape}"
        )
    return psi


def solve_kirchhoff(network: Network, psi: np.ndarray) -> KirchhoffSolution:
    """Inclusion potentials for boundary data psi from a fresh build and LU of the
    Kirchhoff matrix, their energy (1/2)|d|^2 of the sqrt(sigma)-weighted drops d
    over the boundary and gap edges, and the Kirchhoff residual. No energy calls
    it: it is the independent reference for what Lambda_net gives."""
    psi = _checked_psi(network, psi)
    n_b, sig = network.boundary_count, network.boundary_sigmas
    rhs = np.zeros(network.n)
    rhs[:n_b] = sig * psi
    A, _, U = _kirchhoff_solve(network, rhs)
    i, j = network.gap_edges.T
    d = np.concatenate([(U[:n_b] - psi) * np.sqrt(sig),
                        (U[i] - U[j]) * np.sqrt(network.gap_sigmas)])
    return KirchhoffSolution(U=U, energy=0.5 * float(d @ d),
                             residual_norm=float(np.linalg.norm(A @ U - rhs)))


def energy_factor(network: Network, Psi: np.ndarray) -> np.ndarray:
    """G = T (Psi[nodes] - Psi[grounds]) for boundary data Psi (n_b, ...), with
    G^T G = Psi^T Lambda_net Psi: symmetric and PSD by construction, and exactly
    zero on constants. Column a alone has |G_a|^2 = 2 E(Psi_a)."""
    T, nodes, grounds = network._boundary_map
    return T @ (Psi[nodes] - Psi[grounds])


def net_energy(network: Network, psi: np.ndarray) -> float:
    g = energy_factor(network, _checked_psi(network, psi))
    return 0.5 * float(g @ g)


def dtn_matrix(network: Network) -> np.ndarray:
    """Lambda_net, the Schur complement of the full network Laplacian onto the
    boundary nodes, as G^T G with G the energy factor of the unit columns: formed
    from the network's factor T on each call, exactly symmetric and PSD."""
    G = energy_factor(network, np.eye(network.boundary_count))
    return G.T @ G


def interior_gap_energy(network: Network, U_gamma: np.ndarray) -> float:
    """Minimum gap-edge energy (1/2) U^T S U with the boundary-inclusion potentials
    U = U_gamma fixed, S the Kron reduction of the gap Laplacian onto them.

    With D = diag(sigma_b), Lambda_net = D - D (S + D)^{-1} D, so S + D =
    D (D - Lambda_net)^{-1} D and the energy is (1/2)[(DU)^T (D - Lambda_net)^{-1}
    (DU) - U^T D U]: one dense positive-definite n_b x n_b solve on ``dtn_matrix``,
    no sparse factorization. The difference loses ~sigma_b/|S| ulps."""
    U_gamma = _checked_psi(network, U_gamma)
    sig = network.boundary_sigmas
    f = sig * U_gamma
    return 0.5 * float(f @ scipy.linalg.solve(np.diag(sig) - dtn_matrix(network), f,
                                              assume_a="pos") - f @ U_gamma)


def network_to_dict(network: Network) -> dict:
    return {
        "nodes": [[float(x), float(y)] for x, y in network.interior_nodes],
        "edges": [
            {"i": int(i), "j": int(j), "sigma": float(s)}
            for (i, j), s in zip(network.gap_edges.tolist(), network.gap_sigmas)
        ],
        "boundary_edges": [
            {"i": int(i), "sigma": float(s), "theta": float(t)}
            for i, (s, t) in enumerate(
                zip(network.boundary_sigmas, network.boundary_angles)
            )
        ],
    }
