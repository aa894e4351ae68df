import math
import tracemalloc

import numpy as np
import pytest
from conftest import equal_gap_ring

from dtnnet.errors import DomainError, SingularSystemError
from dtnnet.generators import grid_packing, random_packing, ring_packing
from dtnnet.geometry import Disk, GeometryAnalysis, Packing, analyze
from dtnnet.network import build_network
from dtnnet import asymptotics
from dtnnet.asymptotics import (
    FourierPotential,
    boundary_excitation,
    boundary_layer_energy,
    cosine_sweep,
    dtn_asymptotic,
    reference_energy,
    regime_classify,
    regime_estimate,
    resonance_general,
    resonance_mode,
    total_energy,
    total_energy_decomposed,
)
from dtnnet.specfun import polylog_half


def handmade_analysis(delta=1e-4, R=1e-2, L=1.0) -> GeometryAnalysis:
    """Two boundary inclusions with prescribed scales, bypassing geometry."""
    p = Packing(L, (Disk(0.5, 0.0, R), Disk(-0.5, 0.0, R)))
    return GeometryAnalysis(
        packing=p,
        gap_edges=np.array([[0, 1]]),
        gap_widths=np.array([delta]),
        boundary_count=2,
        boundary_gaps=np.array([delta, delta]),
        boundary_angles=np.array([0.0, math.pi]),
    )


class TestFourierPotential:
    def test_validation(self):
        with pytest.raises(ValueError):
            FourierPotential(np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            FourierPotential(np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            FourierPotential(np.array([np.nan]), np.array([0.0]))
        with pytest.raises(ValueError):
            FourierPotential([], [])
        for make, k in ((FourierPotential.single_sin, 0), (FourierPotential.single_sin, -1),
                        (FourierPotential.single_cos, -1)):
            with pytest.raises(ValueError, match="mode needs k >="):
                make(k)

    def test_evaluate(self):
        psi = FourierPotential(np.array([0.5, 0.0, 2.0]), np.array([0.0, 1.0, 0.0]))
        theta = np.linspace(0.0, 2 * math.pi, 7)
        expected = 0.5 + 2.0 * np.cos(2 * theta) + np.sin(theta)
        assert np.allclose(psi.evaluate(theta), expected, atol=1e-14)
        assert psi.K == 2


class TestBoundaryExcitation:
    def test_near_touching_damping(self):
        p = Packing(1.0, (Disk(0.899, 0.0, 0.1),))
        a = analyze(p)
        psi = FourierPotential.single_cos(10)
        val = boundary_excitation(psi, a)
        expected = math.exp(-10.0 * math.sqrt(2.0 * 0.1 * 0.001))
        assert val[0] == pytest.approx(expected, rel=1e-12)
        assert val[0] == pytest.approx(0.8681234, abs=1e-6)

    def test_constant_mode_undamped(self, ring8):
        a = analyze(ring8)
        psi = FourierPotential(np.array([3.0]), np.array([0.0]))
        assert np.allclose(boundary_excitation(psi, a), 3.0, atol=1e-14)

    def test_ring_symmetry(self, ring8):
        a = analyze(ring8)
        psi = FourierPotential.single_cos(8)
        val = boundary_excitation(psi, a)
        # cos(8 theta_i) = 1 on the 8-fold ring, damping identical.
        assert np.allclose(val, val[0], atol=1e-12)


class TestReferenceEnergy:
    def test_single_mode(self):
        assert reference_energy(FourierPotential.single_cos(3)) == pytest.approx(
            1.5 * math.pi, rel=1e-14
        )

    def test_combination(self):
        c = np.zeros(6)
        s = np.zeros(6)
        c[3] = 3.0
        s[5] = 2.0
        psi = FourierPotential(c, s)
        assert reference_energy(psi) == pytest.approx(23.5 * math.pi, rel=1e-14)

    def test_constant_is_free(self):
        psi = FourierPotential(np.array([7.0]), np.array([0.0]))
        assert reference_energy(psi) == 0.0


class TestResonance:
    def test_zero_mode(self, ring8):
        a = analyze(ring8)
        assert 10.0 * asymptotics._resonance_columns(a, [0])[0, 0] == 0.0

    def test_negative_mode_rejected(self, ring8):
        a = analyze(ring8)
        with pytest.raises(DomainError):  # from polylog_half
            resonance_mode(-1, a, build_network(a))

    def test_composition(self, ring8):
        a = analyze(ring8)
        net = build_network(a, mode="identical")
        k, i = 37, 2
        sig = float(net.boundary_sigmas[i])
        delta = float(a.boundary_gaps[i])
        x = 2.0 * k * delta / a.packing.L
        expected = 0.25 * sig * (
            math.sqrt(x / math.pi) * polylog_half(x)
            - math.exp(-2.0 * k * math.sqrt(2.0 * 0.1 * delta) / a.packing.L)
        )
        got = sig * asymptotics._resonance_columns(a, [k])[i, 0]
        assert got == pytest.approx(expected, rel=1e-13)

    def test_small_in_regime_one(self, ring8):
        a = analyze(ring8)
        net = build_network(a, mode="identical")
        for k in range(1, 6):
            sig = float(net.boundary_sigmas[0])
            eps = k * float(a.boundary_gaps[0]) / a.packing.L
            assert abs(sig * asymptotics._resonance_columns(a, [k])[0, 0]) <= sig * math.sqrt(eps)

    def test_single_mode_collapse(self, ring8):
        a = analyze(ring8)
        net = build_network(a, mode="identical")
        for k in (1, 4, 9):
            psi = FourierPotential.single_cos(k)
            gen = resonance_general(psi, a, net)
            assert gen == pytest.approx(resonance_mode(k, a, net), rel=1e-13)

    def test_sin_mode_matches_cos(self, ring8):
        # On the symmetric ring the resonance only sees the mode frequency.
        a = analyze(ring8)
        net = build_network(a, mode="identical")
        gen_sin = resonance_general(FourierPotential.single_sin(3), a, net)
        assert gen_sin == pytest.approx(resonance_mode(3, a, net), rel=1e-12)

    def test_equidistant_cross_terms_cancel(self, ring8):
        # cos((k - m) theta_i) sums to zero over the ring unless 8 | (k - m).
        a = analyze(ring8)
        net = build_network(a, mode="identical")
        k, m = 5, 2
        c = np.zeros(k + 1)
        c[k] = 1.0
        c[m] = 1.0
        psi = FourierPotential(c, np.zeros(k + 1))
        gen = resonance_general(psi, a, net)
        expected = resonance_mode(k, a, net) + resonance_mode(m, a, net)
        assert gen == pytest.approx(expected, rel=1e-12)

    def test_equidistant_surviving_cross_term(self, ring8):
        a = analyze(ring8)
        net = build_network(a, mode="identical")
        k, m = 9, 1
        c = np.zeros(k + 1)
        c[k] = 1.0
        c[m] = 1.0
        psi = FourierPotential(c, np.zeros(k + 1))
        mu = math.sqrt(2.0 * 0.1 * float(a.boundary_gaps[0])) / a.packing.L
        expected = (
            resonance_mode(k, a, net)
            + resonance_mode(m, a, net)
            + 2.0 * math.exp(-(k - m) * mu) * resonance_mode(m, a, net)
        )
        gen = resonance_general(psi, a, net)
        assert gen == pytest.approx(expected, rel=1e-12)


def reference_resonance_matrix(analysis, network, K):
    """The resonance matrix assembled from its four blocks by np.block, with the damping
    rates mu_i = sqrt(2 R_i delta_i) / L computed here."""
    k = np.arange(K + 1)
    r = network.boundary_sigmas[:, None] * asymptotics._resonance_columns(analysis, k)
    radii = analysis.packing.radii()[: analysis.boundary_count]
    mus = np.sqrt(2.0 * radii * analysis.boundary_gaps) / analysis.packing.L
    km_min, km_diff = np.minimum.outer(k, k), np.subtract.outer(k, k).astype(float)
    C, S = np.zeros((2, K + 1, K + 1))
    for i, (mu, theta) in enumerate(zip(mus, analysis.boundary_angles)):
        W = np.exp(-np.abs(km_diff) * mu) * r[i, km_min]
        C += W * np.cos(km_diff * theta)
        S += W * np.sin(km_diff * theta)
    return np.block([[C, -S[:, 1:]], [S[1:], C[1:, 1:]]])


THREE_PACKINGS = pytest.mark.parametrize(
    "packing", [ring_packing(8, 0.85, 0.1, 1.0), grid_packing(0.1, 0.02),
                random_packing(20, 0.08, 0.01, 1.0, seed=1)], ids=["ring8", "grid61", "random20"])


@THREE_PACKINGS
def test_resonance_matrix_is_the_block_assembly(packing):
    # N_b = 8, 24 and 10, summed b = max(1, N_b // (K+1)) inclusions at a time. K = 2
    # leaves random20 a last block of one (b = 3); K + 1 = N_b / 2 at K = 3 on ring8 and
    # K = 11 on grid61 (b = 2); every block is one inclusion from K = 4 on ring8, 23 on
    # grid61 and 6 on random20. The ascending order builds every K; the descending one
    # keeps R(11) on ring8 and random20 and R(23) on grid61, and reads the smaller K there.
    for order in ((1, 2, 3, 4, 6, 9, 11, 23, 33, 128), (128, 33, 23, 11, 9, 6, 4, 3, 2, 1)):
        a = analyze(packing)  # one analysis per order: its resonance table grows or is read
        net = build_network(a)
        for K in order:
            assert np.array_equal(asymptotics._resonance_matrix(a, net, K),
                                  reference_resonance_matrix(a, net, K))


@THREE_PACKINGS
def test_the_kept_resonance_table_does_not_depend_on_how_it_grew(packing):
    step_by_step, at_once = analyze(packing), analyze(packing)
    for K in (1, 2, 5, 9, 17, 40, 128):
        asymptotics._resonance_factor(step_by_step, K)
    asymptotics._resonance_factor(at_once, 128)
    for a in (step_by_step, at_once):
        assert 129 <= a._resonance_factor.shape[1] <= 2 * 128 + 1  # O(N_b K_max) numbers
        assert np.array_equal(a._resonance_factor[:, :129],
                              asymptotics._resonance_columns(a, np.arange(129)))
    net = build_network(at_once)
    for K in (3, 128):
        assert np.array_equal(dtn_asymptotic(K, step_by_step, net),
                              dtn_asymptotic(K, at_once, net))


def fresh_values(packing, K, analysed=None):
    """R_res and resonance_general of a K-mode psi and dtn_asymptotic(K), from a new
    network of packing and a new analysis of ``analysed`` (by default packing)."""
    a = analyze(packing if analysed is None else analysed)
    return kept_values(a, build_network(analyze(packing)), K)


def kept_values(analysis, network, K):
    rng = np.random.default_rng(K)
    psi = FourierPotential(rng.normal(size=K + 1), np.r_[0.0, rng.normal(size=K)])
    return (total_energy(psi, analysis, network).R_res,
            resonance_general(psi, analysis, network), dtn_asymptotic(K, analysis, network))


def assert_same_values(got, expected):
    assert got[:2] == expected[:2]
    assert np.array_equal(got[2], expected[2])


KEPT_KS = (0, 1, 2, 4, 7, 11, 15, 16, 23, 27, 28, 40, 128)


@THREE_PACKINGS
def test_the_kept_resonance_matrix_gives_the_fresh_values_in_any_order(packing):
    expected = {K: fresh_values(packing, K) for K in KEPT_KS}
    shuffled = np.random.default_rng(3).permutation(KEPT_KS).tolist()
    for order in (KEPT_KS, KEPT_KS[::-1], shuffled + [4, 0, 27, 4, 128, 1, 1]):
        a = analyze(packing)
        net = build_network(a)
        for K in order:
            assert_same_values(kept_values(a, net, K), expected[K])


@THREE_PACKINGS
def test_a_network_with_another_analysis_builds_its_own_resonance_matrix(packing):
    rng = np.random.default_rng(7)
    jittered = Packing(packing.L, tuple(Disk(d.x + dx, d.y + dy, d.r) for d, (dx, dy) in
                                        zip(packing.inclusions,
                                            rng.uniform(-1e-3, 1e-3, (packing.n, 2)))))
    a, b = analyze(packing), analyze(jittered)
    assert b.boundary_count == a.boundary_count
    net = build_network(a)
    for K in (4, 2, 9, 0):
        mine = fresh_values(packing, K)
        assert_same_values(kept_values(a, net, K), mine)
        other = kept_values(b, net, K)
        assert_same_values(other, fresh_values(packing, K, analysed=jittered))
        assert K == 0 or not np.array_equal(other[2], mine[2])  # the jitter moves R
        assert_same_values(kept_values(a, net, K), mine)


def test_the_kept_resonance_matrix_holds_no_more_numbers_than_the_table():
    a = analyze(grid_packing(0.1, 0.02))
    net = build_network(a)
    total_energy(FourierPotential.single_cos(128), a, net)  # N_b = 24: the table is 24 x 129
    kept_values(a, net, 28)  # 57^2 = 3249 > 3096 numbers
    assert not hasattr(net, "_resonance_matrix")
    kept_values(a, net, 27)  # 55^2 = 3025
    kept_by, kept = net._resonance_matrix
    assert kept_by is a and kept.shape == (55, 55)
    assert kept.size <= a._resonance_factor.size


def test_the_kept_resonance_matrix_cannot_be_written():
    packing = grid_packing(0.1, 0.02)
    a = analyze(packing)
    net = build_network(a)
    expected = fresh_values(packing, 4)
    assert_same_values(kept_values(a, net, 4), expected)
    kept = net._resonance_matrix[1]
    assert not kept.flags.writeable
    with pytest.raises(ValueError):
        kept[0, 0] = 1.0
    dtn_asymptotic(4, a, net)[:] = 1e3
    dtn_asymptotic(2, a, net)[:] = 1e3  # a submatrix of the kept R
    asymptotics._resonance_matrix(a, net, 3)[:] = 1e3
    assert_same_values(kept_values(a, net, 4), expected)


def test_one_polylog_evaluation_per_analysis(monkeypatch):
    packing = grid_packing(0.1, 0.02)
    a = analyze(packing)
    net = build_network(a)
    psis, expected = [], []
    for K in (4, 2, 4, 1):
        rng = np.random.default_rng(K)
        psis.append(FourierPotential(rng.normal(size=K + 1), np.r_[0.0, rng.normal(size=K)]))
        c = asymptotics._mode_vector(psis[-1], K)
        expected.append(float(c @ reference_resonance_matrix(a, net, K) @ c))
    calls = []
    monkeypatch.setattr(asymptotics, "polylog_half", lambda x: calls.append(x) or polylog_half(x))
    for n_analyses in (1, 2):
        a = analyze(packing)
        net = build_network(a)
        assert [total_energy(psi, a, net).R_res for psi in psis] == expected
        assert len(calls) == n_analyses


class TestRegimeClassify:
    def test_three_regimes(self):
        a = handmade_analysis(delta=1e-4, R=1e-2)
        assert regime_classify(10, a).regime == 1
        assert regime_classify(10_000, a).regime == 2
        assert regime_classify(300, a).regime == 3

    def test_scales(self):
        a = handmade_analysis(delta=1e-4, R=1e-2)
        info = regime_classify(300, a)
        assert info.epsilon == pytest.approx(0.03, rel=1e-12)
        assert info.eta == pytest.approx(3.0, rel=1e-12)


class TestTotalEnergy:
    def test_breakdown_consistency(self, ring8):
        a = analyze(ring8)
        net = build_network(a, mode="identical")
        psi = FourierPotential(np.array([0.0, 1.0, 0.5]), np.array([0.0, 0.0, -0.3]))
        bd = total_energy(psi, a, net)
        assert bd.total == pytest.approx(bd.E_net + bd.E_ref + bd.R_res, rel=1e-14)
        assert bd.quad_form == pytest.approx(2.0 * bd.total, rel=1e-14)
        assert len(bd.per_mode) == 3

    def test_reference_only_without_inclusions(self):
        psi = FourierPotential.single_cos(4)
        bd = total_energy(psi, None, None)
        assert bd.E_net == 0.0
        assert bd.R_res == 0.0
        assert bd.quad_form == pytest.approx(4.0 * math.pi, rel=1e-14)

    def test_parallelogram_law(self, ring8):
        a = analyze(ring8)
        net = build_network(a, mode="identical")
        rng = np.random.default_rng(21)
        c1, s1 = rng.standard_normal(5), rng.standard_normal(5)
        c2, s2 = rng.standard_normal(5), rng.standard_normal(5)
        s1[0] = s2[0] = 0.0

        def q(c, s):
            return total_energy(FourierPotential(c, s), a, net).quad_form

        lhs = q(c1 + c2, s1 + s2) + q(c1 - c2, s1 - s2)
        rhs = 2.0 * q(c1, s1) + 2.0 * q(c2, s2)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_rotation_equivariance(self):
        p = ring_packing(8, 0.85, 0.1, 1.0)
        phi = 0.4173
        rot = Packing(
            p.L,
            tuple(
                Disk(
                    math.cos(phi) * d.x - math.sin(phi) * d.y,
                    math.sin(phi) * d.x + math.cos(phi) * d.y,
                    d.r,
                )
                for d in p.inclusions
            ),
        )
        c = np.array([0.0, 1.0, 0.0, 0.7])
        s = np.array([0.0, 0.0, -0.4, 0.2])
        k = np.arange(4)
        c_rot = c * np.cos(k * phi) - s * np.sin(k * phi)
        s_rot = c * np.sin(k * phi) + s * np.cos(k * phi)
        a0 = analyze(p)
        a1 = analyze(rot)
        q0 = total_energy(
            FourierPotential(c, s), a0, build_network(a0, "identical")
        ).quad_form
        q1 = total_energy(
            FourierPotential(c_rot, s_rot), a1, build_network(a1, "identical")
        ).quad_form
        assert q1 == pytest.approx(q0, rel=1e-10)


def mode_vector(psi: FourierPotential) -> np.ndarray:
    return np.concatenate([psi.cos_coeffs, psi.sin_coeffs[1:]])


class TestDtnMatrix:
    @pytest.mark.parametrize("seed", range(5))
    def test_quadratic_form_is_the_three_term_total(self, seed):
        p = random_packing(20, 0.08, 0.01, 1.0, seed=seed)
        a = analyze(p)
        net = build_network(a)
        rng = np.random.default_rng(seed)
        for K in range(7):
            c, s = rng.standard_normal(K + 1), rng.standard_normal(K + 1)
            s[0] = 0.0
            psi = FourierPotential(c, s)
            bd = total_energy(psi, a, net)
            lam = dtn_asymptotic(K, a, net)
            cvec = mode_vector(psi)
            # E_net of a constant is rounding noise: scale by a unit drop on every edge.
            terms = (abs(bd.E_net) + abs(bd.E_ref) + abs(bd.R_res)
                     + (cvec @ cvec) * net.gap_sigmas.sum())
            assert abs(cvec @ lam @ cvec - bd.quad_form) <= 2e-12 * terms
            assert np.allclose(lam, lam.T, rtol=0.0, atol=1e-14 * np.abs(lam).max())

    def test_empty_packing_is_the_reference_medium(self):
        lam = dtn_asymptotic(3, None, None)
        assert np.array_equal(lam, np.diag(math.pi * np.array([0, 1, 2, 3, 1, 2, 3.0])))

    def test_sweep_rows_match_single_mode_totals(self, ring8):
        a = analyze(ring8)
        net = build_network(a)
        rows = list(cosine_sweep(np.arange(101), a, net))
        for k, row in enumerate(rows):
            bd = total_energy(FourierPotential.single_cos(k), a, net)
            mode = bd.per_mode[k]
            assert row[:4] == (k, mode.epsilon, mode.eta, mode.regime)
            terms = abs(bd.E_net) + abs(bd.E_ref) + abs(bd.R_res)
            want = (bd.E_net, bd.E_ref, bd.R_res, bd.total, bd.quad_form)
            for got, ref in zip(row[4:], want):
                assert abs(got - ref) <= 1e-12 * max(abs(ref), terms)

    def test_wide_sweep_matches_single_mode_totals_across_blocks(self, ring8):
        a = analyze(ring8)
        net = build_network(a)
        rows = list(cosine_sweep(np.arange(1001), a, net))
        assert [row[0] for row in rows] == list(range(1001))
        for k in (127, 128, 129, 255, 256, 600, 1000):
            bd = total_energy(FourierPotential.single_cos(k), a, net)
            terms = abs(bd.E_net) + abs(bd.E_ref) + abs(bd.R_res)
            want = (bd.E_net, bd.E_ref, bd.R_res, bd.total, bd.quad_form)
            for got, ref in zip(rows[k][4:], want):
                assert abs(got - ref) <= 1e-12 * max(abs(ref), terms)

    def test_wide_sweep_memory_is_bounded(self):
        # Solving all 4000 columns at once holds the potentials and the
        # (n_b + E) x 4000 drops (16 MB here); block by block the peak stays
        # near the size of the rows returned (2 MB).
        a = analyze(grid_packing(0.1, 0.02))
        net = build_network(a)
        ks = np.arange(1, 4001)
        tracemalloc.start()
        try:
            rows = list(cosine_sweep(ks, a, net))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == len(ks)
        assert peak < 6e6


def assert_is_sweep_row(est, k, a, net):
    """regime_estimate(k) is the cosine_sweep row of k, less the terms its regime drops."""
    _, eps, eta, regime, e_net, e_ref, _, total, _ = next(cosine_sweep([k], a, net))
    assert (est.regime.k, est.regime.epsilon, est.regime.eta, est.regime.regime) == (
        k, eps, eta, regime)
    assert est.approx_total == (e_net + e_ref, e_ref, total)[regime - 1]


class TestRegimeEstimate:
    def test_network_regime_drops_resonance(self, ring8):
        a = analyze(ring8)
        net = build_network(a, mode="identical")
        est = regime_estimate(1, a, net)
        assert est.regime.regime == 1
        bd = total_energy(FourierPotential.single_cos(1), a, net)
        assert est.approx_total == pytest.approx(bd.E_net + bd.E_ref, rel=1e-12)
        assert_is_sweep_row(est, 1, a, net)

    def test_layer_regime_keeps_reference_only(self):
        a = handmade_analysis()
        net = build_network(a, mode="identical")
        est = regime_estimate(10_000, a, net)
        assert est.regime.regime == 2
        assert est.approx_total == pytest.approx(5000.0 * math.pi, rel=1e-12)
        assert_is_sweep_row(est, 10_000, a, net)

    def test_resonant_regime_keeps_all_terms(self):
        a = handmade_analysis()
        net = build_network(a, mode="identical")
        est = regime_estimate(300, a, net)
        assert est.regime.regime == 3
        bd = total_energy(FourierPotential.single_cos(300), a, net)
        assert est.approx_total == pytest.approx(bd.total, rel=1e-9)
        assert_is_sweep_row(est, 300, a, net)

    @pytest.mark.parametrize("k, regime", [(1, 1), (100, 2), (12, 3)])
    def test_disconnected_network_raises_in_every_regime(self, k, regime):
        # No gap of the 61-disk grid is below 0.001: every interior disk floats.
        a = analyze(grid_packing(0.1, 0.02), delta_max_edge=0.001)
        net = build_network(a, mode="identical")
        assert regime_classify(k, a).regime == regime
        with pytest.raises(SingularSystemError):
            regime_estimate(k, a, net)


class TestBoundaryLayerEnergy:
    def test_zero_mode_vanishes(self, ring8):
        a = analyze(ring8)
        net = build_network(a, mode="identical")
        assert boundary_layer_energy(np.ones(8), 0, a, net) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_damped_target_kills_middle_sum(self, ring8):
        a = analyze(ring8)
        net = build_network(a, mode="identical")
        k = 3
        mu = math.sqrt(2.0 * 0.1 * float(a.boundary_gaps[0])) / a.packing.L
        target = np.cos(k * a.boundary_angles) * math.exp(-k * mu)
        val = boundary_layer_energy(target, k, a, net)
        lin = 0.25 * sum(
            float(net.boundary_sigmas[i])
            * (
                math.sqrt(2.0 * k * a.boundary_gaps[i] / (a.packing.L * math.pi))
                * polylog_half(2.0 * k * a.boundary_gaps[i] / a.packing.L)
                - math.exp(-k * mu)
            )
            for i in range(8)
        )
        assert val == pytest.approx(0.5 * k * math.pi + lin, rel=1e-12)

    def test_hessian_is_boundary_sigma(self, ring8):
        a = analyze(ring8)
        net = build_network(a, mode="identical")
        k, h = 2, 0.37
        base = np.linspace(-0.5, 0.5, 8)
        e0 = boundary_layer_energy(base, k, a, net)
        for i in range(8):
            up = base.copy()
            dn = base.copy()
            up[i] += h
            dn[i] -= h
            second = (
                boundary_layer_energy(up, k, a, net)
                + boundary_layer_energy(dn, k, a, net)
                - 2.0 * e0
            )
            assert second == pytest.approx(net.boundary_sigmas[i] * h * h, rel=1e-10)


class TestDecomposition:
    @pytest.mark.parametrize("k", [1, 5, 20, 100])
    def test_discrepancy_identity(self, k, ring8):
        a = analyze(ring8)
        net = build_network(a, mode="identical")
        res = total_energy_decomposed(k, a, net)
        mu = math.sqrt(2.0 * 0.1 * float(a.boundary_gaps[0])) / a.packing.L
        kappa = k * mu
        expected = sum(
            0.25 * float(net.boundary_sigmas[i]) * (math.exp(-kappa) - math.exp(-2.0 * kappa))
            for i in range(8)
        )
        assert res.discrepancy == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_value_plus_discrepancy_is_total(self, ring8):
        a = analyze(ring8)
        net = build_network(a, mode="identical")
        res = total_energy_decomposed(7, a, net)
        bd = total_energy(FourierPotential.single_cos(7), a, net)
        assert res.value + res.discrepancy == pytest.approx(bd.total, rel=1e-12)


class TestHighFrequencyLimit:
    def test_total_approaches_reference(self):
        p = equal_gap_ring(4, 0.05)
        a = analyze(p)
        net = build_network(a, mode="identical")
        k = 250
        bd = total_energy(FourierPotential.single_cos(k), a, net)
        ratio = bd.total / (0.5 * k * math.pi)
        assert 0.999 <= ratio <= 1.05
