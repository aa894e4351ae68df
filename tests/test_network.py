import math
import pickle

import numpy as np
import pytest
import scipy.sparse.linalg

from dtnnet.asymptotics import FourierPotential, total_energy, total_energy_decomposed
from dtnnet.errors import ModeError, SingularSystemError
from dtnnet.generators import grid_packing, random_packing, ring_packing
from dtnnet.geometry import Disk, Packing, analyze
from dtnnet.network import (
    Network,
    _kirchhoff,
    build_network,
    dtn_matrix,
    energy_factor,
    interior_gap_energy,
    net_energy,
    network_to_dict,
    solve_kirchhoff,
)


def two_disk_packing(r1=0.25, r2=0.25, delta=0.1, L=1.0):
    x = (r1 + r2 + delta) / 2.0
    return Packing(L, (Disk(-x + (r2 - r1) / 2.0, 0.0, r1), Disk(x + (r2 - r1) / 2.0, 0.0, r2)))


def series_conductance(net: Network) -> float:
    s1, s2 = net.boundary_sigmas
    s12 = net.gap_sigmas[0]
    return 1.0 / (1.0 / s1 + 1.0 / s12 + 1.0 / s2)


def brute_force_dtn(net: Network) -> np.ndarray:
    """Column j of the DtN matrix is the boundary flux for psi = e_j."""
    n_b = net.boundary_count
    lam = np.zeros((n_b, n_b))
    for j in range(n_b):
        psi = np.zeros(n_b)
        psi[j] = 1.0
        U = solve_kirchhoff(net, psi).U
        lam[:, j] = net.boundary_sigmas * (psi - U[:n_b])
    return lam


def interior_energy_reference(net: Network, U_gamma: np.ndarray) -> float:
    """Minimum gap-edge energy with the boundary-inclusion potentials fixed, from
    a fresh sparse LU of the interior block of the Kirchhoff matrix."""
    A, _ = _kirchhoff(net)
    n_b = net.boundary_count
    U = np.concatenate([U_gamma, np.zeros(net.n - n_b)])
    if net.n > n_b:
        U[n_b:] = scipy.sparse.linalg.splu(A[n_b:, n_b:]).solve(-(A[n_b:, :n_b] @ U_gamma))
    i, j = net.gap_edges.T
    return 0.5 * float(net.gap_sigmas @ (U[i] - U[j]) ** 2)


def handmade_chain(sigma=2.0, with_interior_edges=True) -> Network:
    """Two boundary inclusions bridged by one interior inclusion."""
    edges = np.array([[0, 2], [1, 2]] if with_interior_edges else [], dtype=np.intp).reshape(-1, 2)
    return Network(
        interior_nodes=np.array([[-0.5, 0.0], [0.5, 0.0], [0.0, 0.4]]),
        boundary_count=2,
        gap_edges=edges,
        gap_sigmas=np.full(len(edges), sigma),
        boundary_sigmas=np.array([3.0, 3.0]),
        boundary_angles=np.array([math.pi, 0.0]),
    )


class TestConductivities:
    def test_identical_exact_values(self):
        # R = 0.1, delta_12 = 0.001, boundary gap 0.002: both sigmas are 10 pi.
        p = two_disk_packing(r1=0.1, r2=0.1, delta=0.001, L=0.2025)
        net = build_network(analyze(p), mode="identical")
        assert net.gap_sigmas[0] == pytest.approx(10.0 * math.pi, rel=1e-12)
        assert np.allclose(net.boundary_sigmas, 10.0 * math.pi, rtol=1e-12)

    def test_generalized_matches_identical_for_equal_radii(self):
        p = two_disk_packing(r1=0.1, r2=0.1, delta=0.001, L=0.2025)
        a = analyze(p)
        n1 = build_network(a, mode="identical")
        n2 = build_network(a, mode="generalized")
        assert np.allclose(n1.gap_sigmas, n2.gap_sigmas, rtol=1e-12)
        assert np.allclose(n1.boundary_sigmas, n2.boundary_sigmas, rtol=1e-12)

    def test_generalized_unequal_radii(self):
        p = two_disk_packing(r1=0.1, r2=0.2, delta=0.001, L=1.0)
        a = analyze(p)
        net = build_network(a, mode="generalized")
        expected = math.pi * math.sqrt(2 * 0.1 * 0.2 / (0.001 * 0.3))
        assert net.gap_sigmas[0] == pytest.approx(expected, rel=1e-12)
        d1 = a.boundary_gaps[0]
        assert net.boundary_sigmas[0] == pytest.approx(
            math.pi * math.sqrt(2 * a.packing.inclusions[0].r / d1), rel=1e-12
        )

    def test_identical_mode_rejects_unequal_radii(self):
        p = two_disk_packing(r1=0.1, r2=0.2, delta=0.001, L=1.0)
        with pytest.raises(ModeError):
            build_network(analyze(p), mode="identical")

    def test_unknown_mode(self):
        p = two_disk_packing()
        with pytest.raises(ModeError):
            build_network(analyze(p), mode="resistor")


class TestSeriesCircuit:
    def test_two_node_energy_and_dtn(self):
        net = build_network(analyze(two_disk_packing()), mode="identical")
        g = series_conductance(net)
        psi = np.array([1.0, -1.0])
        assert net_energy(net, psi) == pytest.approx(2.0 * g, rel=1e-12)
        lam = dtn_matrix(net)
        assert np.allclose(lam, g * np.array([[1.0, -1.0], [-1.0, 1.0]]), rtol=1e-12)

    def test_conductance_grows_as_gap_closes(self):
        deltas = [0.2, 0.1, 0.05, 0.02, 0.01]
        gs = [
            series_conductance(
                build_network(analyze(two_disk_packing(delta=d)), mode="identical")
            )
            for d in deltas
        ]
        assert all(a < b for a, b in zip(gs, gs[1:]))

    def test_single_inclusion_dtn_is_zero(self):
        p = Packing(1.0, (Disk(0.3, 0.0, 0.1),))
        net = build_network(analyze(p), mode="identical")
        lam = dtn_matrix(net)
        assert lam.shape == (1, 1)
        assert abs(lam[0, 0]) <= 1e-12 * net.boundary_sigmas[0]


@pytest.fixture(params=range(20))
def random_net(request):
    rng = np.random.default_rng(request.param)
    n = int(rng.integers(2, 13))
    p = random_packing(n=n, disk_radius=0.08, delta_min=0.02, L=1.0, seed=request.param + 100)
    return build_network(analyze(p), mode="identical")


class TestDtnMatrixProperties:
    def test_symmetry_psd_and_nullspace(self, random_net):
        lam = dtn_matrix(random_net)
        scale = np.linalg.norm(lam)
        assert np.allclose(lam, lam.T, atol=1e-12 * scale)
        eig = np.linalg.eigvalsh(0.5 * (lam + lam.T))
        assert eig.min() >= -1e-10 * scale
        ones = np.ones(random_net.boundary_count)
        assert np.linalg.norm(lam @ ones) <= 1e-10 * scale

    def test_exactly_symmetric_with_zero_row_sums(self, random_net):
        self.check_gram_form(dtn_matrix(random_net))

    def test_exactly_symmetric_with_zero_row_sums_on_the_grid(self):
        self.check_gram_form(dtn_matrix(build_network(analyze(grid_packing(0.1, 0.02)))))

    @staticmethod
    def check_gram_form(lam):
        # G^T G is symmetric to the bit; its row sums are rounding of G's exact zero on 1.
        assert np.array_equal(lam, lam.T)
        assert np.abs(lam.sum(axis=1)).max() <= 1e-14 * np.abs(lam).max()

    def test_quadratic_form_matches_energy(self, random_net):
        lam = dtn_matrix(random_net)
        rng = np.random.default_rng(7)
        for _ in range(100):
            psi = rng.standard_normal(random_net.boundary_count)
            q = 0.5 * float(psi @ lam @ psi)
            e = net_energy(random_net, psi)
            assert q == pytest.approx(e, rel=1e-9, abs=1e-12)

    def test_discrete_max_principle(self, random_net):
        rng = np.random.default_rng(11)
        psi = rng.standard_normal(random_net.boundary_count)
        U = solve_kirchhoff(random_net, psi).U
        assert U.min() >= psi.min() - 1e-12
        assert U.max() <= psi.max() + 1e-12

    def test_constant_excitation_is_free(self, random_net):
        psi = np.full(random_net.boundary_count, 2.5)
        sol = solve_kirchhoff(random_net, psi)
        assert np.allclose(sol.U, 2.5, atol=1e-10)
        assert sol.energy == pytest.approx(0.0, abs=1e-10)
        assert sol.residual_norm <= 1e-8


class TestKirchhoffResponse:
    def test_gram_is_the_projected_dtn_matrix(self, random_net):
        rng = np.random.default_rng(5)
        Psi = rng.standard_normal((random_net.boundary_count, 3))
        G = energy_factor(random_net, Psi)
        gram = G.T @ G
        lam = dtn_matrix(random_net)
        scale = np.linalg.norm(lam) * np.linalg.norm(Psi) ** 2
        assert np.allclose(gram, Psi.T @ lam @ Psi, rtol=0.0, atol=1e-12 * scale)
        assert np.allclose(gram, gram.T, rtol=0.0, atol=1e-15 * scale)
        assert np.linalg.eigvalsh(gram).min() >= -1e-12 * scale
        for col in range(3):
            sol = solve_kirchhoff(random_net, Psi[:, col])
            assert gram[col, col] == pytest.approx(2.0 * sol.energy, rel=1e-12)
            assert gram[col, col] == pytest.approx(2.0 * net_energy(random_net, Psi[:, col]),
                                                   rel=1e-12)

    def test_energy_is_the_quadratic_form_and_nonnegative(self, random_net):
        lam = dtn_matrix(random_net)
        rng = np.random.default_rng(9)
        for _ in range(20):
            psi = rng.standard_normal(random_net.boundary_count)
            e = net_energy(random_net, psi)
            assert e >= 0.0
            assert abs(0.5 * float(psi @ lam @ psi) - e) <= 1e-12 * max(e, 1e-300)

    def test_constant_has_exactly_zero_energy(self, random_net):
        assert net_energy(random_net, np.full(random_net.boundary_count, -1.7)) == 0.0


class TestSchurAgainstBruteForce:
    @pytest.mark.parametrize("seed", [0, 3, 6, 9])
    def test_columns_match_flux(self, seed):
        p = random_packing(n=8, disk_radius=0.08, delta_min=0.02, L=1.0, seed=seed)
        net = build_network(analyze(p), mode="identical")
        lam = dtn_matrix(net)
        bf = brute_force_dtn(net)
        assert np.allclose(lam, bf, atol=1e-10 * np.linalg.norm(lam))


class TestInteriorGapEnergy:
    def test_no_interior_nodes(self):
        net = build_network(analyze(two_disk_packing()), mode="identical")
        s12 = net.gap_sigmas[0]
        val = interior_gap_energy(net, np.array([1.0, 0.0]))
        assert val == pytest.approx(0.5 * s12, rel=1e-12)

    def test_constant_is_free(self):
        net = handmade_chain()
        assert interior_gap_energy(net, np.array([4.0, 4.0])) == pytest.approx(0.0, abs=1e-12)

    def test_chain_value(self):
        s = 2.0
        net = handmade_chain(sigma=s)
        # Interior node settles halfway: energy 2 * (s/2)(1/2)^2 = s/4.
        val = interior_gap_energy(net, np.array([1.0, 0.0]))
        assert val == pytest.approx(s / 4.0, rel=1e-12)

    def test_floating_interior_rejected(self):
        net = handmade_chain(with_interior_edges=False)
        with pytest.raises(SingularSystemError):
            interior_gap_energy(net, np.array([1.0, 0.0]))

    def test_bad_length(self):
        net = handmade_chain()
        with pytest.raises(ValueError):
            interior_gap_energy(net, np.zeros(3))

    @pytest.mark.parametrize("packing", [
        grid_packing(0.1, 0.02),  # 61 disks
        ring_packing(8, 0.89999, 0.1),  # boundary gaps 1e-5: sigma_b >> S, the most cancellation
    ], ids=["grid61", "ring8-tight"])
    def test_matches_the_interior_solve(self, packing):
        self.check_against_reference(build_network(analyze(packing), mode="identical"))

    def test_matches_the_interior_solve_on_random_networks(self, random_net):
        self.check_against_reference(random_net)

    @staticmethod
    def check_against_reference(net):
        rng = np.random.default_rng(3)
        n_b = net.boundary_count
        for U_gamma in (rng.standard_normal(n_b), np.cos(net.boundary_angles), np.eye(n_b)[0]):
            ref = interior_energy_reference(net, U_gamma)
            assert abs(interior_gap_energy(net, U_gamma) - ref) <= 1e-12 * ref


class TestBoundaryPotentials:
    def test_ohms_law_on_the_boundary_edges(self, random_net):
        # Lambda_net Psi = diag(sigma_b) (Psi - U_gamma): the potentials of the
        # boundary inclusions follow from the cached map.
        rng = np.random.default_rng(13)
        lam, n_b = dtn_matrix(random_net), random_net.boundary_count
        for _ in range(5):
            psi = rng.standard_normal(n_b)
            U = solve_kirchhoff(random_net, psi).U[:n_b]
            assert np.allclose(psi - lam @ psi / random_net.boundary_sigmas, U,
                               rtol=0.0, atol=1e-12 * np.abs(psi).max())


class TestConnectivity:
    def test_unreachable_interior_component(self):
        net = handmade_chain(with_interior_edges=False)
        for _ in range(2):  # every solve raises, not only the first
            with pytest.raises(SingularSystemError):
                solve_kirchhoff(net, np.array([1.0, 0.0]))
        with pytest.raises(SingularSystemError):
            dtn_matrix(net)

    def test_bad_psi_length(self):
        net = handmade_chain()
        with pytest.raises(ValueError):
            solve_kirchhoff(net, np.zeros(3))


class TestFactorization:
    def test_one_factorization_per_network(self, ring8, monkeypatch):
        calls = []
        real = scipy.sparse.linalg.splu

        def spy(A, *args, **kwargs):
            calls.append(A.shape)
            return real(A, *args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
        a = analyze(ring8)
        net = build_network(a, mode="identical")
        for k in range(1, 21):
            total_energy(FourierPotential.single_cos(k), a, net)
        dtn_matrix(net)
        interior_gap_energy(net, np.cos(net.boundary_angles))
        for k in (1, 5, 20):
            total_energy_decomposed(k, a, net)
        assert calls == [(net.n, net.n)]

    def test_solved_network_pickles(self, ring8):
        net = build_network(analyze(ring8), mode="identical")
        lam = dtn_matrix(net)
        copy = pickle.loads(pickle.dumps(net))
        assert np.array_equal(dtn_matrix(copy), lam)

    def test_network_keeps_no_sparse_factor(self, ring8):
        a = analyze(ring8)
        net = build_network(a, mode="identical")
        total_energy(FourierPotential.single_cos(3), a, net)
        dtn_matrix(net)
        cached = [v for value in vars(net).values()
                  for v in (value if isinstance(value, tuple) else (value,))]
        assert not any(isinstance(v, scipy.sparse.linalg.SuperLU) for v in cached)
        assert not any(scipy.sparse.issparse(v) for v in cached)  # nor the Kirchhoff matrix
        # The boundary map is T, of order n_b less one ground per component, and
        # the two index arrays of the grounding: no n_b x n_b matrix.
        T, nodes, grounds = net._boundary_map
        assert T.shape == (net.boundary_count - 1,) * 2
        assert nodes.shape == grounds.shape == (net.boundary_count - 1,)
        assert nodes.dtype.kind == grounds.dtype.kind == "i"

    def test_split_network_is_grounded_per_component(self):
        # delta_max_edge drops the only gap edge: two boundary disks, no path between them.
        a = analyze(two_disk_packing(delta=0.1), delta_max_edge=0.05)
        net = build_network(a, mode="identical")
        assert net.gap_edges.shape == (0, 2)
        assert net._boundary_map[0].shape == (0, 0)  # n_b less one ground per component
        lam = dtn_matrix(net)
        assert np.allclose(lam, 0.0, atol=1e-12 * net.boundary_sigmas.max())
        assert net_energy(net, np.array([1.0, -3.0])) == 0.0


class TestSerialization:
    def test_network_to_dict_shape(self, ring8):
        net = build_network(analyze(ring8), mode="identical")
        d = network_to_dict(net)
        assert len(d["nodes"]) == 8
        assert len(d["boundary_edges"]) == 8
        assert len(d["edges"]) == len(net.gap_edges)
        for e in d["edges"]:
            assert e["sigma"] > 0.0
