import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairinglab as pl
from pairinglab import randgen
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
        assert pl.RngState(0).algorithm == "philox4x64/stream-2"


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
        with pytest.raises(InvalidRank):
            pl.ginibre_density(3, 1.5, rng)
        with pytest.raises(InvalidRank):
            pl.random_bipartite_state(2, 2, rng, rank=2.5)


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
        with pytest.raises(Infeasible, match="integers"):
            pl.random_canonical_pairing(3, 3, 1.5, rng)

    def test_capacity_edge(self):
        # a 3x3 component can host up to 3 coherence edges
        bs = pl.random_canonical_pairing(3, 3, 3, pl.RngState(11))
        cert = pl.detect_canonical_pairing(bs)
        assert cert.pairing_number == 3


def per_edge_pairing_matrices(d_a, d_b, trials, edges, diag):
    """The pairing-state matrices of drawn parameters, built one edge and
    one diagonal entry at a time."""
    dim = d_a * d_b
    m = np.zeros((trials, dim, dim), dtype=complex)
    for t, r, s, weight, theta, phase in zip(*edges):
        v = np.array([np.cos(theta), phase * np.sin(theta)])
        m[t][np.ix_([r, s], [r, s])] += weight * np.outer(v, v.conj())
    for t, k, value in zip(*diag):
        m[t, k, k] += value
    return m


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 7), (3, 3), (3, 8), (5, 4)])
@pytest.mark.parametrize("diag_weight", [None, 0.0, 0.3])
def test_pairing_matrix_bit_identical_to_the_per_edge_build(d_a, d_b, diag_weight):
    n_pairs = np.arange(15) % (randgen._feasible_pairs(d_a, d_b) + 1)
    for seed in range(5):
        fast, slow = pl.RngState(seed), pl.RngState(seed)
        got = pl.randgen._pairing_stack(d_a, d_b, n_pairs, fast, diag_weight)
        entries = pl.randgen._pairing_entries(d_a, d_b, n_pairs, slow, diag_weight)
        want = per_edge_pairing_matrices(d_a, d_b, len(n_pairs), *entries)
        assert got.tobytes() == want.tobytes()
        # and the stack draws nothing beyond its parameters
        assert fast.generator.random() == slow.generator.random()


@pytest.mark.parametrize("seed", range(5))
def test_public_generators_are_the_one_trial_stacks(seed):
    def same(state, stack):
        assert stack.shape[0] == 1
        assert state.mat.tobytes() == stack[0].tobytes()

    same(pl.ginibre_density(5, 3, pl.RngState(seed)),
         randgen._ginibre_stack(5, [3], pl.RngState(seed)))
    same(pl.random_bipartite_state(2, 3, pl.RngState(seed)),
         randgen._bipartite_stack(2, 3, 1, pl.RngState(seed)))
    same(pl.random_bipartite_state(2, 3, pl.RngState(seed), rank=2),
         randgen._bipartite_stack(2, 3, 1, pl.RngState(seed), rank=2))
    for n_pairs, diag_weight in [(0, None), (2, None), (3, 0.0), (4, 0.3)]:
        same(pl.random_canonical_pairing(3, 5, n_pairs, pl.RngState(seed), diag_weight),
             randgen._pairing_stack(3, 5, [n_pairs], pl.RngState(seed), diag_weight))


def test_a_ginibre_stack_draws_each_trial_at_its_rank():
    ranks = [1, 4, 2, 3]
    mats = pl.randgen._ginibre_stack(4, ranks, pl.RngState(5))
    assert [np.linalg.matrix_rank(m, tol=1e-10) for m in mats] == ranks
    assert np.allclose(np.trace(mats, axis1=1, axis2=2), 1.0, atol=1e-14)
    with pytest.raises(InvalidRank):
        pl.randgen._ginibre_stack(4, [1, 5], pl.RngState(5))


@given(st.integers(1, 4), st.integers(1, 8), st.integers(0, 10**6),
       st.sampled_from([None, 0.0, 0.3]))
@settings(max_examples=60, deadline=None)
def test_every_stacked_pairing_draw_is_certified(d_a, d_b, seed, diag_weight):
    cap = randgen._feasible_pairs(d_a, d_b)
    rng = pl.RngState(seed)
    # every feasible pairing number, the capacity included, twice, shuffled
    n_pairs = rng.generator.permutation(np.arange(cap + 1).repeat(2))
    mats = pl.randgen._pairing_stack(d_a, d_b, n_pairs, rng, diag_weight)
    for m, n in zip(mats, n_pairs.tolist()):
        assert abs(np.trace(m) - 1.0) <= 1e-12
        bs = pl.BipartiteState(pl.DensityMatrix(m, pl.randgen.GENERATED_TOL), d_a, d_b)
        cert = pl.detect_canonical_pairing(bs)
        assert cert is not None and cert.pairing_number == n
    with pytest.raises(Infeasible):
        pl.randgen._pairing_stack(d_a, d_b, [cap + 1], rng, diag_weight)
