"""Disk packings and their derived network geometry.

A packing is the raw input: a disk domain of radius L holding N
non-touching disks. From it we derive the Voronoi neighbor sets, the gap
widths between neighboring disks, and the classification of disks whose
Voronoi cell reaches the outer boundary. All indices are 0-based; after
:func:`classify_boundary` the boundary disks occupy indices
``0..boundary_count-1``, ordered counterclockwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.spatial import Voronoi, cKDTree

from .errors import (
    DegenerateAngleError,
    EmptyPackingError,
    OutsideDomainError,
    OverlapError,
    ParseError,
)

@dataclass(frozen=True)
class Disk:
    x: float
    y: float
    r: float


@dataclass(frozen=True)
class Packing:
    """Domain disk of radius L, centered at the origin, plus inclusions."""

    L: float
    inclusions: tuple[Disk, ...]

    @property
    def n(self) -> int:
        return len(self.inclusions)

    @cached_property
    def _xyr(self) -> np.ndarray:  # (N, 3) x, y, r, converted once per packing; read-only
        xyr = np.array([(d.x, d.y, d.r) for d in self.inclusions], dtype=float).reshape(-1, 3)
        xyr.flags.writeable = False
        return xyr

    def centers(self) -> np.ndarray:
        return self._xyr[:, :2]

    def radii(self) -> np.ndarray:
        return self._xyr[:, 2]


@dataclass(frozen=True)
class GeometryAnalysis:
    """Derived structure of a validated packing, renumbered boundary-first."""

    packing: Packing
    gap_edges: np.ndarray  # (E, 2) neighbor pairs, i < j, in lexicographic order
    gap_widths: np.ndarray  # (E,) gap of each pair
    boundary_count: int
    boundary_gaps: np.ndarray  # delta_i, length boundary_count
    boundary_angles: np.ndarray  # theta_i in [0, 2pi)

    @cached_property
    def _damping_rates(self) -> np.ndarray:  # mu_i = sqrt(2 R_i delta_i) / L per boundary disk
        radii = self.packing.radii()[: self.boundary_count]
        return np.sqrt(2.0 * radii * self.boundary_gaps) / self.packing.L

    @cached_property
    def _scales(self) -> tuple[float, float]:  # see asymptotics.characteristic_scales
        gaps = np.concatenate([self.gap_widths, self.boundary_gaps])
        return float(np.exp(np.mean(np.log(gaps)))), float(np.mean(self.packing.radii()))

    @property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        """Each disk's neighbors: the other ends of its gap edges."""
        return _neighbor_sets(self.packing.n, self.gap_edges.tolist())


@dataclass(frozen=True)
class ScaleReport:
    delta_max: float
    delta_min: float
    R_min: float
    R_max: float
    ratio_delta_R: float
    ratio_R_L: float
    warnings: tuple[str, ...] = field(default=())


def _pair_gaps(packing: Packing, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Disk pairs (i < j) and their gaps, covering every gap below ``reach``.

    A KD-tree lists the center pairs within 2 R_max + reach; the 0.1 % margin
    keeps pairs at exactly that distance despite rounding in the tree.
    """
    centers = packing.centers()
    radii = packing.radii()
    tree = cKDTree(centers)
    pairs = tree.query_pairs(1.001 * (2.0 * radii.max() + reach), output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    d = np.hypot(centers[i, 0] - centers[j, 0], centers[i, 1] - centers[j, 1])
    return pairs, d - radii[i] - radii[j]


def validate_packing(packing: Packing) -> Packing:
    """Check the packing invariants; return the packing unchanged."""
    if packing.n == 0:
        raise EmptyPackingError("packing holds no inclusions")
    if not (packing.L > 0 and math.isfinite(packing.L)):
        raise ParseError(f"domain radius must be positive and finite, got {packing.L}")
    centers, radii = packing.centers(), packing.radii()
    finite = np.isfinite(packing._xyr).all(axis=1)
    if not (finite.all() and radii.min() > 0.0):
        k = int(np.argmin(finite & (radii > 0.0)))
        if not finite[k]:
            raise ParseError(f"inclusion {k}: non-finite coordinate or radius")
        raise ParseError(f"inclusion {k}: radius must be positive, got {float(radii[k])}")
    norms = np.hypot(centers[:, 0], centers[:, 1])
    outside = np.nonzero(norms + radii >= packing.L)[0]
    if outside.size:
        raise OutsideDomainError(int(outside[0]))
    pairs, gaps = _pair_gaps(packing, 0.0)
    touching = pairs[gaps <= 0.0].tolist()
    if touching:
        raise OverlapError(*min(map(tuple, touching)))
    return packing


def _clipped_voronoi(packing: Packing) -> tuple[np.ndarray, np.ndarray]:
    """Exact Voronoi structure of the centers inside the domain disk.

    Returns the neighbor pairs (i < j), whose shared Voronoi edge meets the
    open disk |x| < L, and a mask of the boundary disks, whose cell reaches
    |x| = L. Four far sites at radius 4L bound every real cell and make
    collinear input full-dimensional; their bisectors with any center lie
    beyond |x| = 1.5L, so they change nothing inside the domain. Qhull merges
    cocircular centers, so zero-length edges never appear as ridges.
    """
    n, L = packing.n, packing.L
    centers = packing.centers()
    far = 4.0 * L * np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    vor = Voronoi(np.vstack([centers, far]))
    # Qhull also merges centers closer than about 1e-8 L into one cell.
    _, first, inverse = np.unique(vor.point_region[:n], return_index=True, return_inverse=True)
    merged = np.nonzero(first[inverse] != np.arange(n))[0]
    if merged.size:
        i, j = int(first[inverse[merged[0]]]), int(merged[0])
        raise OverlapError(i, j, message=(
            f"inclusions {i} and {j} are {np.hypot(*(centers[i] - centers[j])):.3g} apart, "
            f"too close for the Voronoi diagram to separate at L = {L:.3g}"
        ))
    sites = vor.ridge_points
    ridges = np.asarray(vor.ridge_vertices)  # -1 only on far-far ridges
    a, b = vor.vertices[ridges[:, 0]], vor.vertices[ridges[:, 1]]
    outside = np.hypot(*vor.vertices.T) > L
    # A convex cell around a center inside the disk meets |x| = L iff one of
    # its vertices lies outside, and each vertex ends one of its ridges.
    beyond = (ridges < 0).any(axis=1) | outside[ridges].any(axis=1)
    boundary = np.zeros(n + len(far), dtype=bool)
    boundary[sites[beyond].ravel()] = True
    # Closest point to the origin on each ridge segment a + t (b - a).
    ab = b - a
    t = -(a * ab).sum(axis=1) / np.maximum((ab * ab).sum(axis=1), 1e-300)
    closest = a + np.clip(t, 0.0, 1.0)[:, None] * ab
    near = np.hypot(*closest.T) < L
    real = (sites < n).all(axis=1)
    return np.sort(sites[real & near], axis=1), boundary[:n]


def _neighbor_sets(n: int, pairs) -> tuple[frozenset[int], ...]:
    """Neighbor sets of n disks from an iterable of pairs (i, j)."""
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for i, j in pairs:
        neighbors[i].add(j)
        neighbors[j].add(i)
    return tuple(frozenset(s) for s in neighbors)


def compute_adjacency(packing: Packing) -> tuple[frozenset[int], ...]:
    """Voronoi neighbor sets of the inclusion centers, clipped to the domain."""
    return _neighbor_sets(packing.n, _clipped_voronoi(packing)[0].tolist())


def classify_boundary(packing: Packing) -> GeometryAnalysis:
    """Identify boundary inclusions and renumber everything boundary-first."""
    pairs, boundary = _clipped_voronoi(packing)
    b_old = np.nonzero(boundary)[0]
    # math.atan2, as np.arctan2 may differ in the last bit; a disk centered at
    # the origin gets angle 0 by convention.
    angles = np.array([math.atan2(y, x) % (2.0 * math.pi) if x or y else 0.0
                       for x, y in packing.centers()[b_old].tolist()])
    by_angle = np.argsort(angles, kind="stable")
    angles = angles[by_angle]
    tied = np.nonzero(np.diff(angles) == 0.0)[0]
    if tied.size:
        raise DegenerateAngleError(f"two boundary inclusions share the angle "
                                   f"{float(angles[tied[0]])}; ordering undefined")
    order = np.concatenate([b_old[by_angle], np.nonzero(~boundary)[0]])  # new -> old
    inv = np.empty(packing.n, dtype=np.intp)
    inv[order] = np.arange(packing.n)
    # Rings listed by angle are already in this order: they keep their packing and its arrays.
    new_packing = packing if np.array_equal(order, np.arange(packing.n)) else replace(
        packing, inclusions=tuple(packing.inclusions[o] for o in order.tolist()))
    # Every neighbor pair (i < j), renumbered, in lexicographic order (no ridge repeats).
    edges = np.sort(inv[pairs], axis=1)
    edges = edges[np.lexsort(edges.T[::-1])]
    i, j = edges.T
    centers = new_packing.centers()
    radii = new_packing.radii()
    d = np.hypot(centers[i, 0] - centers[j, 0], centers[i, 1] - centers[j, 1])

    n_b = b_old.size
    return GeometryAnalysis(
        packing=new_packing,
        gap_edges=edges,
        gap_widths=d - radii[i] - radii[j],
        boundary_count=n_b,
        boundary_gaps=packing.L - np.hypot(centers[:n_b, 0], centers[:n_b, 1]) - radii[:n_b],
        boundary_angles=angles,
    )


def analyze(packing: Packing, delta_max_edge: float | None = None) -> GeometryAnalysis:
    """Validate the packing and classify its boundary.

    ``delta_max_edge`` optionally drops gap edges wider than the given
    threshold (the conductivity of such edges is small anyway).
    """
    if delta_max_edge is not None and not 0.0 < delta_max_edge < math.inf:
        raise ParseError(f"delta_max_edge must be positive and finite, got {delta_max_edge}")
    validate_packing(packing)
    analysis = classify_boundary(packing)
    if delta_max_edge is None:
        return analysis
    kept = analysis.gap_widths <= delta_max_edge
    return replace(analysis, gap_edges=analysis.gap_edges[kept],
                   gap_widths=analysis.gap_widths[kept])


def scale_report(analysis: GeometryAnalysis) -> ScaleReport:
    """Report scale separation ratios and warn when the asymptotics is doubtful."""
    gaps = np.concatenate([analysis.gap_widths, analysis.boundary_gaps])
    radii = analysis.packing.radii()
    delta_max = float(gaps.max())
    delta_min = float(gaps.min())
    r_min = float(radii.min())
    r_max = float(radii.max())
    ratio_delta_r = delta_max / r_min
    ratio_r_l = r_max / analysis.packing.L
    warnings: list[str] = []
    if ratio_delta_r > 0.2:
        warnings.append(
            f"delta_max/R_min = {ratio_delta_r:.3g} > 0.2: gaps are not small"
        )
    if ratio_r_l > 0.3:
        warnings.append(
            f"R_max/L = {ratio_r_l:.3g} > 0.3: inclusions are not small"
        )
    if (analysis.packing.centers()[: analysis.boundary_count] == 0.0).all(axis=1).any():
        warnings.append(
            "boundary inclusion centered at the origin: angle 0 assigned by convention"
        )
    return ScaleReport(
        delta_max=delta_max,
        delta_min=delta_min,
        R_min=r_min,
        R_max=r_max,
        ratio_delta_R=ratio_delta_r,
        ratio_R_L=ratio_r_l,
        warnings=tuple(warnings),
    )


# --- packing file I/O -------------------------------------------------------

def packing_to_dict(packing: Packing) -> dict:
    return {
        "L": packing.L,
        "inclusions": [{"x": d.x, "y": d.y, "r": d.r} for d in packing.inclusions],
    }


def packing_from_dict(obj: dict) -> Packing:
    """Parse a packing object; its disks are checked by :func:`validate_packing`."""
    try:
        L = float(obj["L"])
        disks = [Disk(float(d["x"]), float(d["y"]), float(d["r"])) for d in obj["inclusions"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed packing object: {exc}") from exc
    if not math.isfinite(L) or L <= 0.0:
        raise ParseError(f"domain radius must be positive and finite, got {L}")
    return Packing(L=L, inclusions=tuple(disks))


def load_packing(path: str) -> Packing:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read packing file {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("packing file must hold a JSON object")
    return packing_from_dict(obj)


def save_packing(packing: Packing, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(packing_to_dict(packing), fh, indent=2)
        fh.write("\n")
