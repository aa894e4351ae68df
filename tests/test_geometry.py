import json
import math

import numpy as np
import pytest

from dtnnet import geometry
from dtnnet.errors import (
    DegenerateAngleError,
    EmptyPackingError,
    OutsideDomainError,
    OverlapError,
    ParseError,
)
from dtnnet.generators import grid_packing, random_packing, ring_packing
from dtnnet.geometry import (
    Disk,
    Packing,
    analyze,
    classify_boundary,
    compute_adjacency,
    load_packing,
    packing_from_dict,
    save_packing,
    scale_report,
    validate_packing,
)


def grid_adjacency(packing, grid=400):
    """Brute-force oracle: nearest-center labels on a dense grid; two labels
    are adjacent iff their regions hold grid points one step apart."""
    L = packing.L
    xs = np.linspace(-L, L, grid)
    xx, yy = np.meshgrid(xs, xs)
    inside = np.hypot(xx, yy) <= L
    centers = packing.centers()
    d = (xx[..., None] - centers[None, None, :, 0]) ** 2 + (
        yy[..., None] - centers[None, None, :, 1]
    ) ** 2
    labels = np.argmin(d, axis=-1)
    labels[~inside] = -1
    pairs = set()
    for a, b in [
        (labels[:, :-1], labels[:, 1:]),
        (labels[:-1, :], labels[1:, :]),
    ]:
        mask = (a != b) & (a >= 0) & (b >= 0)
        for i, j in zip(a[mask].ravel(), b[mask].ravel()):
            pairs.add((min(i, j), max(i, j)))
    return pairs


ORACLE_CASES = {
    **{
        str(seed): random_packing(n=12, disk_radius=0.06, delta_min=0.02, L=1.0, seed=seed)
        for seed in (1, 2, 3, 4)
    },
    # Disks 2 and 8 share a Voronoi edge only about 8e-5 long.
    "n30-seed1": random_packing(n=30, disk_radius=0.05, delta_min=0.01, L=1.0, seed=1),
    # Cocircular centers: diagonal pairs share only a Voronoi vertex.
    "square3x3": Packing(
        1.0, tuple(Disk(0.25 * i, 0.25 * j, 0.1) for i in (-1, 0, 1) for j in (-1, 0, 1))
    ),
}


class TestValidatePacking:
    def test_two_disks_small_gap_valid(self):
        p = Packing(10.0, (Disk(-1.005, 0, 1), Disk(1.005, 0, 1)))
        assert validate_packing(p) is p

    def test_tangent_disks_rejected(self):
        p = Packing(10.0, (Disk(-1.0, 0, 1), Disk(1.0, 0, 1)))
        with pytest.raises(OverlapError):
            validate_packing(p)

    def test_disk_crossing_boundary_rejected(self):
        p = Packing(1.0, (Disk(0.95, 0, 0.1),))
        with pytest.raises(OutsideDomainError):
            validate_packing(p)

    def test_empty_rejected(self):
        with pytest.raises(EmptyPackingError):
            validate_packing(Packing(1.0, ()))

    def test_merged_centers_rejected(self):
        # The disks are disjoint, but Qhull merges centers 1e-9 apart at L = 1.
        cluster = tuple(
            Disk(0.3 + 1e-9 * i, 0.3 + 1e-9 * j, 1e-10) for i in range(3) for j in range(3)
        )
        p = Packing(1.0, cluster + (Disk(-0.5, 0.0, 0.1),))
        with pytest.raises(OverlapError) as exc:
            analyze(p)
        assert (exc.value.i, exc.value.j) == (1, 2)
        assert "Voronoi" in str(exc.value)


# One invalid disk added to the 8-disk ring, and the message that names it.
INVALID_DISKS = {
    "r-nan": (Disk(0.0, 0.0, math.nan), "inclusion 8: non-finite coordinate or radius"),
    "x-nan": (Disk(math.nan, 0.0, 0.1), "inclusion 8: non-finite coordinate or radius"),
    "r-zero": (Disk(0.0, 0.0, 0.0), "inclusion 8: radius must be positive, got 0.0"),
    "r-negative": (Disk(0.0, 0.0, -0.1), "inclusion 8: radius must be positive, got -0.1"),
}


class TestDiskValues:
    @pytest.mark.parametrize("disk, message", INVALID_DISKS.values(), ids=INVALID_DISKS)
    def test_invalid_disk_rejected_by_validate_and_analyze(self, ring8, disk, message, capfd):
        p = Packing(1.0, ring8.inclusions + (disk,))
        for check in (validate_packing, analyze):
            with pytest.raises(ParseError) as exc:
                check(p)
            assert str(exc.value) == message
        assert capfd.readouterr() == ("", "")

    def test_first_invalid_disk_is_named(self, ring8):
        negative, infinite = Disk(0.0, 0.0, -0.1), Disk(0.0, 0.3, math.inf)
        with pytest.raises(ParseError, match="inclusion 8: radius must be positive"):
            validate_packing(Packing(1.0, ring8.inclusions + (negative, infinite)))
        with pytest.raises(ParseError, match="inclusion 8: non-finite"):
            validate_packing(Packing(1.0, ring8.inclusions + (infinite, negative)))
        # Non-finiteness is named before the sign of the same disk.
        with pytest.raises(ParseError, match="inclusion 0: non-finite"):
            validate_packing(Packing(1.0, (Disk(math.inf, 0.0, -0.1),)))

    def test_checked_before_the_kd_tree(self, ring8, monkeypatch):
        def no_tree(*args, **kwargs):
            raise AssertionError("KD-tree built for an invalid packing")

        monkeypatch.setattr(geometry, "cKDTree", no_tree)
        with pytest.raises(ParseError):
            validate_packing(Packing(1.0, ring8.inclusions + (Disk(math.nan, 0.0, 0.1),)))


class TestAdjacency:
    def test_two_disks_always_neighbors(self):
        p = Packing(10.0, (Disk(-1.005, 0, 1), Disk(1.005, 0, 1)))
        ns = compute_adjacency(p)
        assert ns == (frozenset({1}), frozenset({0}))

    def test_equilateral_triangle_all_pairs(self):
        side = 2.02
        r = side / math.sqrt(3.0)
        pts = [
            (r * math.cos(a), r * math.sin(a))
            for a in (math.pi / 2, math.pi / 2 + 2 * math.pi / 3, math.pi / 2 + 4 * math.pi / 3)
        ]
        p = Packing(20.0, tuple(Disk(x, y, 1.0) for x, y in pts))
        ns = compute_adjacency(p)
        assert ns[0] == frozenset({1, 2})
        assert ns[1] == frozenset({0, 2})
        assert ns[2] == frozenset({0, 1})

    def test_collinear_chain(self):
        p = Packing(
            20.0,
            tuple(Disk(x, 0.0, 1.0) for x in (-3.03, -1.01, 1.01, 3.03)),
        )
        ns = compute_adjacency(p)
        assert ns[0] == frozenset({1})
        assert ns[1] == frozenset({0, 2})
        assert ns[2] == frozenset({1, 3})
        assert ns[3] == frozenset({2})
        # Matches the brute-force grid oracle.
        expected = grid_adjacency(p)
        got = {(i, j) for i in range(4) for j in ns[i] if i < j}
        assert got == expected

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_matches_grid_oracle_random(self, case):
        p = ORACLE_CASES[case]
        ns = compute_adjacency(p)
        got = {(i, j) for i in range(p.n) for j in ns[i] if i < j}
        assert got == grid_adjacency(p, grid=500)

    def test_symmetry_and_no_self(self):
        p = random_packing(n=10, disk_radius=0.07, delta_min=0.03, L=1.0, seed=9)
        ns = compute_adjacency(p)
        for i in range(p.n):
            assert i not in ns[i]
            for j in ns[i]:
                assert i in ns[j]


class TestClassifyBoundary:
    def test_ring8(self, ring8):
        a = analyze(ring8)
        assert a.boundary_count == 8
        assert np.allclose(a.boundary_gaps, 0.05)
        diffs = np.diff(a.boundary_angles)
        assert np.allclose(diffs, math.pi / 4)

    def test_single_disk_at_origin(self):
        p = Packing(1.0, (Disk(0.0, 0.0, 0.1),))
        a = analyze(p)
        assert a.boundary_count == 1
        assert a.boundary_angles[0] == 0.0  # convention for the degenerate center
        assert a.boundary_gaps[0] == pytest.approx(0.9)

    def test_ring8_plus_center_disk_is_interior(self, ring8):
        p = Packing(1.0, ring8.inclusions + (Disk(0.0, 0.0, 0.1),))
        a = analyze(p)
        assert a.boundary_count == 8
        # The renumbered interior disk sits last and at the origin.
        last = a.packing.inclusions[-1]
        assert (last.x, last.y) == (0.0, 0.0)

    def test_degenerate_equal_angles_rejected(self):
        p = Packing(1.0, (Disk(0.5, 0.0, 0.05), Disk(0.8, 0.0, 0.05)))
        with pytest.raises(DegenerateAngleError):
            analyze(p)

    def test_a_packing_in_boundary_order_keeps_its_object(self, ring8):
        # Listed by angle, boundary disks first: the renumbering is the identity.
        assert analyze(ring8).packing is ring8
        p = Packing(1.0, ring8.inclusions + (Disk(0.0, 0.0, 0.1),))
        assert analyze(p).packing is p

    def test_a_relabelled_packing_is_renumbered(self, ring8):
        p = Packing(1.0, ring8.inclusions[::-1])  # clockwise
        a = analyze(p)
        assert a.packing is not p
        assert a.packing == ring8


class TestOnePass:
    def test_one_voronoi_per_analyze(self, monkeypatch):
        built = []
        real = geometry.Voronoi

        def spy(points, *args, **kwargs):
            built.append(len(points))
            return real(points, *args, **kwargs)

        monkeypatch.setattr(geometry, "Voronoi", spy)
        p = ORACLE_CASES["n30-seed1"]
        first = analyze(p)
        assert built == [p.n + 4]
        second = analyze(p)  # the same packing again: no hidden cache
        assert built == [p.n + 4] * 2
        assert np.array_equal(second.gap_edges, first.gap_edges)
        assert np.array_equal(second.gap_widths, first.gap_widths)

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_renumbered_neighbors_match_adjacency(self, case):
        p = ORACLE_CASES[case]
        a = analyze(p)
        old = [p.inclusions.index(disk) for disk in a.packing.inclusions]
        mapped = [frozenset()] * p.n
        for new, ns in enumerate(a.neighbor_sets):
            mapped[old[new]] = frozenset(old[j] for j in ns)
        assert tuple(mapped) == compute_adjacency(p)


SORT_CASES = {
    **ORACLE_CASES,
    "square5x5": Packing(
        1.0, tuple(Disk(0.15 * i, 0.15 * j, 0.05) for i in range(-2, 3) for j in range(-2, 3))
    ),
    "ring8": ring_packing(8, 0.85, 0.1, 1.0),
    "grid61": grid_packing(0.1, 0.02),
    "n30-seed2": random_packing(n=30, disk_radius=0.05, delta_min=0.01, L=1.0, seed=2),
}


@pytest.mark.parametrize("relabel", [False, True], ids=["as-given", "relabelled"])
@pytest.mark.parametrize("case", list(SORT_CASES))
def test_gap_edges_are_the_unique_sorted_pairs(case, relabel):
    # The renumbered Voronoi pairs, sorted within each pair and then deduplicated
    # and ordered by np.unique(axis=0), the form that no repeated ridge makes necessary.
    p = SORT_CASES[case]
    if relabel:
        order = np.random.default_rng(len(p.inclusions)).permutation(p.n)
        p = Packing(p.L, tuple(p.inclusions[i] for i in order))
    a = classify_boundary(p)
    new = {disk: k for k, disk in enumerate(a.packing.inclusions)}
    inv = np.array([new[disk] for disk in p.inclusions], dtype=np.intp)
    pairs, _ = geometry._clipped_voronoi(p)
    expected = np.unique(np.sort(inv[pairs], axis=1), axis=0)
    assert a.gap_edges.dtype == expected.dtype
    assert np.array_equal(a.gap_edges, expected)


class TestDeltaMaxEdge:
    def test_filters_gaps_and_neighbors(self):
        p = random_packing(n=30, disk_radius=0.05, delta_min=0.01, L=1.0, seed=2)
        full = analyze(p)
        cut = float(np.median(full.gap_widths))
        a = analyze(p, delta_max_edge=cut)
        kept = full.gap_widths <= cut
        assert 0 < kept.sum() < len(full.gap_widths)
        assert np.array_equal(a.gap_edges, full.gap_edges[kept])
        assert np.array_equal(a.gap_widths, full.gap_widths[kept])
        expected = set(map(tuple, full.gap_edges[kept].tolist()))
        assert {(i, j) for i in range(p.n) for j in a.neighbor_sets[i] if i < j} == expected
        assert a.packing == full.packing
        assert np.array_equal(a.boundary_angles, full.boundary_angles)

    @pytest.mark.parametrize("bad", [float("nan"), 0.0, -0.01, float("inf")])
    def test_rejects_non_positive_or_non_finite(self, ring8, bad):
        with pytest.raises(ParseError):
            analyze(ring8, delta_max_edge=bad)


class TestScaleReport:
    def test_ring8_report(self, ring8):
        a = analyze(ring8)
        rep = scale_report(a)
        assert rep.ratio_R_L == pytest.approx(0.1)
        chord_gap = 2.0 * (0.85 * math.sin(math.pi / 8) - 0.1)
        assert rep.delta_max == pytest.approx(chord_gap, rel=1e-12)
        assert rep.delta_min == pytest.approx(0.05, rel=1e-12)
        assert rep.warnings  # gaps are not small here

    def test_tight_pair_ratio(self):
        # delta_min/R tracks the inter-disk gap; the huge boundary gaps
        # dominate delta_max and trip the scale warning, by the stated rule.
        p = Packing(100.0, (Disk(-1.005, 0, 1), Disk(1.005, 0, 1)))
        rep = scale_report(analyze(p))
        assert rep.delta_min == pytest.approx(0.01, rel=1e-9)
        assert rep.ratio_delta_R > 0.2
        assert rep.warnings

    def test_large_inclusion_warned(self):
        p = Packing(1.0, (Disk(-0.4, 0.0, 0.35), Disk(0.4, 0.0, 0.35)))
        rep = scale_report(analyze(p))
        assert rep.ratio_R_L == pytest.approx(0.35)
        assert any("R_max/L = 0.35 > 0.3" in w for w in rep.warnings)

    def test_boundary_inclusion_at_origin_warned(self):
        rep = scale_report(analyze(Packing(1.0, (Disk(0.0, 0.0, 0.1),))))
        assert any("centered at the origin" in w for w in rep.warnings)
        assert not any("R_max/L" in w for w in rep.warnings)

    def test_no_size_or_origin_warning_on_the_ring(self, ring8):
        warnings = scale_report(analyze(ring8)).warnings
        assert not any("R_max/L" in w or "origin" in w for w in warnings)

    def test_single_inclusion_uses_boundary_gaps(self):
        p = Packing(1.0, (Disk(0.3, 0.0, 0.1),))
        rep = scale_report(analyze(p))
        assert rep.delta_max == rep.delta_min == pytest.approx(0.6)


class TestGeometryProperties:
    def test_rotation_equivariance(self, ring8):
        a0 = analyze(ring8)
        phi = 0.7331
        c, s = math.cos(phi), math.sin(phi)
        rotated = Packing(
            ring8.L,
            tuple(Disk(c * d.x - s * d.y, s * d.x + c * d.y, d.r) for d in ring8.inclusions),
        )
        a1 = analyze(rotated)
        assert a1.boundary_count == a0.boundary_count
        shifted = np.sort((a0.boundary_angles + phi) % (2 * math.pi))
        assert np.allclose(np.sort(a1.boundary_angles), shifted, atol=1e-9)
        assert np.allclose(
            np.sort(a1.gap_widths), np.sort(a0.gap_widths), atol=1e-12
        )
        assert np.allclose(np.sort(a1.boundary_gaps), np.sort(a0.boundary_gaps), atol=1e-12)

    def test_scaling(self):
        p = random_packing(n=8, disk_radius=0.07, delta_min=0.03, L=1.0, seed=5)
        s = 3.7
        scaled = Packing(
            p.L * s, tuple(Disk(d.x * s, d.y * s, d.r * s) for d in p.inclusions)
        )
        a0, a1 = analyze(p), analyze(scaled)
        assert a0.neighbor_sets == a1.neighbor_sets
        assert np.allclose(a1.boundary_angles, a0.boundary_angles, atol=1e-9)
        assert np.array_equal(a1.gap_edges, a0.gap_edges)
        assert a1.gap_widths == pytest.approx(a0.gap_widths * s, rel=1e-12)
        assert np.allclose(a1.boundary_gaps, a0.boundary_gaps * s, rtol=1e-12)


class TestPackingIO:
    def test_round_trip(self, ring8, tmp_path):
        path = tmp_path / "ring.json"
        save_packing(ring8, str(path))
        again = load_packing(str(path))
        assert again == ring8

    def test_rejects_nan(self):
        with pytest.raises(ParseError):
            validate_packing(packing_from_dict(
                {"L": 1.0, "inclusions": [{"x": float("nan"), "y": 0, "r": 0.1}]}))

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ParseError):
            validate_packing(packing_from_dict({"L": 1.0, "inclusions": [{"x": 0, "y": 0, "r": 0.0}]}))

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_packing(str(path))
        with pytest.raises(ParseError):
            packing_from_dict({"inclusions": []})


class TestArrayForm:
    def test_centers_and_radii_are_read_only_views_of_one_array(self):
        p = random_packing(n=12, disk_radius=0.06, delta_min=0.02, L=1.0, seed=1)
        centers, radii = p.centers(), p.radii()
        assert centers.base is not None and centers.base is radii.base
        assert p.centers().base is centers.base and p.radii().base is centers.base
        assert centers.tolist() == [[d.x, d.y] for d in p.inclusions]
        assert radii.tolist() == [d.r for d in p.inclusions]
        for view in (centers, radii):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 0.0
        assert p.inclusions[0].r == radii[0] == 0.06

    def test_the_array_leaves_equality_and_hash_alone(self, ring8):
        ring8.radii()
        fresh = Packing(ring8.L, ring8.inclusions)
        assert fresh == ring8 and hash(fresh) == hash(ring8)

    def test_empty_packing_has_empty_arrays(self):
        p = Packing(1.0, ())
        assert p.centers().shape == (0, 2) and p.radii().shape == (0,)
