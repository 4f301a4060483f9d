import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairinglab as pl
from pairinglab import verify
from pairinglab.errors import Infeasible, InvalidRank


class TestRngState:
    def test_determinism_bit_for_bit(self):
        a = pl.RngState(777).generator.random(100)
        b = pl.RngState(777).generator.random(100)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = pl.RngState(1).generator.random(10)
        b = pl.RngState(2).generator.random(10)
        assert not np.array_equal(a, b)

    def test_split_streams_are_independent_and_reproducible(self):
        kids1 = pl.RngState(5).split(3)
        kids2 = pl.RngState(5).split(3)
        draws1 = [k.generator.random(10) for k in kids1]
        draws2 = [k.generator.random(10) for k in kids2]
        for d1, d2 in zip(draws1, draws2):
            assert np.array_equal(d1, d2)
        assert not np.array_equal(draws1[0], draws1[1])

    def test_algorithm_recorded(self):
        assert pl.RngState(0).algorithm == "philox4x64"


class TestHaarRandomPure:
    def test_normalized(self, rng):
        v = pl.haar_random_pure(7, rng)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_purity_moment(self):
        # for Haar vectors on a 2x2 bipartition, E[tr(rho_A^2)] = (d_A+d_B)/(d+1) = 4/5
        rng = pl.RngState(2024)
        total = 0.0
        for _ in range(1000):
            v = pl.haar_random_pure(4, rng)
            rho_a = v.reshape(2, 2) @ v.reshape(2, 2).conj().T
            total += float(np.trace(rho_a @ rho_a).real)
        assert total / 1000 == pytest.approx(0.8, abs=0.02)


class TestGinibreDensity:
    def test_valid_density(self, rng):
        rho = pl.ginibre_density(5, 3, rng)
        assert rho.mat.trace().real == pytest.approx(1.0)

    def test_rank_counts(self, rng):
        for rank in (1, 2, 4):
            rho = pl.ginibre_density(4, rank, rng)
            eig = rho.eigenvalues()
            assert np.sum(eig > 1e-10) == rank

    def test_invalid_rank(self, rng):
        with pytest.raises(InvalidRank):
            pl.ginibre_density(3, 4, rng)
        with pytest.raises(InvalidRank):
            pl.ginibre_density(3, 0, rng)


class TestRandomBipartite:
    def test_dims(self, rng):
        bs = pl.random_bipartite_state(2, 3, rng)
        assert bs.d_A == 2 and bs.d_B == 3 and bs.mat.shape == (6, 6)


class TestRandomMonomialUnitary:
    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_unitary_and_monomial(self, seed):
        g = np.random.Generator(np.random.Philox(seed))
        d = int(g.integers(1, 9))
        u = pl.random_monomial_unitary(d, pl.RngState(seed))
        assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-12
        assert pl.is_monomial(u)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_conjugation_preserves_c_l1(self, seed):
        g = np.random.Generator(np.random.Philox(seed))
        d = int(g.integers(2, 7))
        rng = pl.RngState(seed)
        rho = pl.ginibre_density(d, d, rng)
        u = pl.random_monomial_unitary(d, rng)
        rotated = pl.DensityMatrix(u @ rho.mat @ u.conj().T, 1e-8)
        assert abs(pl.c_l1(rotated) - pl.c_l1(rho)) <= 1e-9


class TestRandomCanonicalPairing:
    @given(st.integers(0, 10**6), st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_certified_with_requested_pairs(self, seed, n_pairs):
        rng = pl.RngState(seed)
        bs = pl.random_canonical_pairing(4, 6, n_pairs, rng)
        cert = pl.detect_canonical_pairing(bs)
        assert cert is not None
        assert cert.pairing_number == n_pairs

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_saturates_negativity_and_l0(self, seed):
        rng = pl.RngState(seed)
        g = rng.generator
        d_a = int(g.integers(2, 5))
        d_b = int(g.integers(2, 7))
        try:
            n_pairs = int(g.integers(1, 4))
            bs = pl.random_canonical_pairing(d_a, d_b, n_pairs, rng)
        except Infeasible:
            return
        n, _ = pl.negativity(bs)
        assert abs(n - pl.c_l1(bs.rho)) <= 1e-8
        assert pl.c_l0_count(bs.rho) == 2 * pl.n0_count(bs)

    def test_zero_pairs_is_diagonal(self):
        bs = pl.random_canonical_pairing(2, 2, 0, pl.RngState(3))
        assert pl.c_l1(bs.rho) == 0
        cert = pl.detect_canonical_pairing(bs)
        assert cert.pairing_number == 0

    def test_infeasible_cases(self):
        rng = pl.RngState(9)
        with pytest.raises(Infeasible):
            pl.random_canonical_pairing(2, 2, 2, rng)
        with pytest.raises(Infeasible):
            pl.random_canonical_pairing(1, 5, 1, rng)
        with pytest.raises(Infeasible):
            pl.random_canonical_pairing(3, 3, 4, rng)

    def test_capacity_edge(self):
        # a 3x3 component can host up to 3 coherence edges
        bs = pl.random_canonical_pairing(3, 3, 3, pl.RngState(11))
        cert = pl.detect_canonical_pairing(bs)
        assert cert.pairing_number == 3


def per_edge_pairing_matrix(d_a, d_b, n_pairs, rng, diag_weight=None):
    """The pairing-state matrix built one edge and one diagonal entry at a
    time, each component drawing its angle and phase in turn."""
    g = rng.generator
    dim = d_a * d_b
    if n_pairs == 0:
        return np.diag(g.dirichlet(np.ones(dim)).astype(complex))
    b_pool = list(g.permutation(d_b))
    edges, support = [], []
    for m, n_edges in pl.randgen._component_plan(d_a, d_b, n_pairs):
        a_levels = g.choice(d_a, size=m, replace=False)
        levels = [int(a) * d_b + int(b_pool.pop()) for a in a_levels]
        support.extend(levels)
        all_pairs = [(r, s) for i, r in enumerate(levels) for s in levels[i + 1:]]
        edges.extend(all_pairs[i] for i in g.choice(len(all_pairs), size=n_edges, replace=False))
    weights = 0.4 / len(edges) + 0.6 * g.dirichlet(np.ones(len(edges)))
    if diag_weight is None:
        diag_weight = float(g.random() * 0.4) if g.random() < 0.5 else 0.0
    m = np.zeros((dim, dim), dtype=complex)
    for w, (r, s) in zip(weights, edges):
        theta = 0.3 + g.random() * (np.pi / 2 - 0.6)
        phase = np.exp(2j * np.pi * g.random())
        v = np.array([np.cos(theta), phase * np.sin(theta)])
        m[np.ix_([r, s], [r, s])] += (1.0 - diag_weight) * w * np.outer(v, v.conj())
    if diag_weight > 0.0:
        targets = list(support) + [a * d_b + b for a in range(d_a) for b in b_pool]
        for t, p in zip(targets, g.dirichlet(np.ones(len(targets)))):
            m[t, t] += diag_weight * p
    return m


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 7), (3, 3), (3, 8), (5, 4)])
@pytest.mark.parametrize("diag_weight", [None, 0.0, 0.3])
def test_pairing_matrix_bit_identical_to_the_per_edge_build(d_a, d_b, diag_weight):
    cap = verify._feasible_pairs(d_a, d_b)
    for seed in range(15):
        fast, slow = pl.RngState(seed), pl.RngState(seed)
        n_pairs = seed % (cap + 1)
        got = pl.randgen._canonical_pairing_matrix(d_a, d_b, n_pairs, fast, diag_weight)
        want = per_edge_pairing_matrix(d_a, d_b, n_pairs, slow, diag_weight)
        assert got.tobytes() == want.tobytes()
        # and the stream is left where the per-edge build leaves it
        assert fast.generator.random() == slow.generator.random()
