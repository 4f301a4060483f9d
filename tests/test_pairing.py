import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairinglab as pl
from pairinglab import cli, pairing, randgen, statefile
from pairinglab.errors import (
    ConditionViolated,
    InvalidPartition,
    NoTransposition,
    NotCanonicalPairing,
    NotQubit,
)


class TestDetect:
    def test_diagonal_gives_empty_certificate(self, diagonal_state):
        cert = pl.detect_canonical_pairing(diagonal_state)
        assert cert is not None
        assert cert.pairing_number == 0
        assert cert.transpositions == ()
        assert set(cert.fixed_points) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_mc_example(self, mc_state):
        cert = pl.detect_canonical_pairing(mc_state)
        assert cert.pairing_number == 1
        assert cert.transpositions == (((0, 1), (1, 0)),)
        assert set(cert.fixed_points) == {(0, 0), (1, 1)}

    def test_isotropic_mixture_rejected(self):
        iso = pl.named_counterexample("isotropic", p=0.5)
        assert pl.detect_canonical_pairing(iso.state) is None

    def test_b_local_coherence_rejected(self):
        # coherence within B only: N = 0 < C_l1, PT is monomial but the
        # permutation moves only the B index
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = m[1, 1] = 0.5
        m[0, 1] = m[1, 0] = 0.5
        bs = pl.BipartiteState(pl.DensityMatrix(m), 2, 2)
        assert pl.detect_canonical_pairing(bs) is None

    def test_soundness_on_certified_state(self, mc_state):
        cert = pl.detect_canonical_pairing(mc_state)
        assert cert is not None
        n, _ = pl.negativity(mc_state)
        assert abs(n - pl.c_l1(mc_state.rho)) <= 1e-9

    def test_appendix_f_is_canonical_pairing(self):
        ex = pl.named_counterexample("appendix-f")
        cert = pl.detect_canonical_pairing(ex.state)
        assert cert is not None
        assert cert.pairing_number == 2


class TestLocalMonomialCovariance:
    @given(seed=st.integers(0, 2**32 - 1),
           dims=st.sampled_from([(3, 3), (2, 6), (3, 4), (4, 4)]))
    @settings(max_examples=100, deadline=None)
    def test_certificate_is_relabelled_by_the_permutations(self, seed, dims):
        # (U_A (x) U_B) |j k> is |pi_A(j) pi_B(k)> up to a phase
        d_a, d_b = dims
        rng = pl.RngState(seed)
        n_pairs = int(rng.generator.integers(0, randgen._feasible_pairs(d_a, d_b) + 1))
        bs = pl.random_canonical_pairing(d_a, d_b, n_pairs, rng)
        u_a, u_b = pl.random_monomial_unitary(d_a, rng), pl.random_monomial_unitary(d_b, rng)
        u = np.kron(u_a, u_b)
        rotated = pl.BipartiteState(pl.DensityMatrix(u @ bs.mat @ u.conj().T), d_a, d_b)
        pi_a, pi_b = np.argmax(np.abs(u_a), axis=0), np.argmax(np.abs(u_b), axis=0)

        def moved(label):
            return int(pi_a[label[0]]), int(pi_b[label[1]])

        cert, got = pl.detect_canonical_pairing(bs), pl.detect_canonical_pairing(rotated)
        assert got is not None and got.pairing_number == cert.pairing_number == n_pairs
        assert {frozenset(t) for t in got.transpositions} == \
            {frozenset(map(moved, t)) for t in cert.transpositions}
        assert set(got.fixed_points) == set(map(moved, cert.fixed_points))


def per_state_detect(m, d_a, d_b, zero_tol):
    """Reference detector: ``detect_canonical_pairing`` as it ran on one
    state at a time, before detection ran on stacks (a dict of partners
    and a loop over transpositions), on a matrix ``m`` of a d_A x d_B
    system."""
    def label_of(index):
        return divmod(index, d_b)

    def index_of(j, k):
        return j * d_b + k

    pt = pl.partial_transpose(m, (d_a, d_b))
    d = pt.shape[0]
    mod = np.abs(pt)
    top = float(np.max(mod))
    present = mod > zero_tol * top
    if np.any(present.sum(axis=0) > 1) or np.any(present.sum(axis=1) > 1):
        return None
    rows, cols = np.nonzero(present)
    partner = dict(zip(rows.tolist(), cols.tolist()))
    for r, c in partner.items():
        if partner.get(c) != r:
            return None
    fixed = {r for r, c in partner.items() if r == c}
    trans = sorted({(min(r, c), max(r, c)) for r, c in partner.items() if r != c})
    transpositions = []
    for r, c in trans:
        j, k = label_of(r)
        jp, kp = label_of(c)
        if j == jp or k == kp:
            return None
        if index_of(j, kp) not in fixed or index_of(jp, k) not in fixed:
            return None
        transpositions.append(((j, k), (jp, kp)))
    cert = pl.PairingCertificate(
        transpositions=tuple(transpositions),
        fixed_points=tuple(sorted(label_of(r) for r in fixed)),
        pairing_number=len(transpositions),
    )
    slack = 10 * zero_tol * d * max(1.0, top)
    excess = float(np.sum(np.diag(mod))) - 1.0
    if abs(excess) + 2.0 * float(np.sum(mod, where=~present)) <= slack:
        return cert
    n = pl.linalg.trace_norm(pt) - 1.0
    off = np.abs(m)
    np.fill_diagonal(off, 0.0)
    if abs(n - float(off.sum()) - excess) > slack:
        return None
    return cert


def monomial_pt_matrix(d_a, d_b, g, kind):
    """rho whose partial transpose is monomial, with some rows empty and
    some fixed points of zero weight, on a random permutation: a Hermitian
    involution ("involution"), an involution whose empty rows break some
    transpositions into one-way entries ("chain"), or any permutation.
    The fixed points' weights sum to 1, so the remainder bound decides
    most states without an SVD."""
    d = d_a * d_b
    perm = g.permutation(d)
    if kind != "permutation":
        order, perm = perm, np.arange(d)
        pairs = order[:2 * int(g.integers(0, d // 2 + 1))].reshape(-1, 2)
        perm[pairs[:, 0]], perm[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
    rows = np.flatnonzero(g.random(d) < 0.85)
    pt = np.zeros((d, d), dtype=complex)
    x = g.uniform(0.05, 0.5, rows.size) * np.exp(2j * np.pi * g.random(rows.size))
    pt[rows, perm[rows]] = np.where(perm[rows] == rows, np.abs(x), x)
    fixed = rows[perm[rows] == rows]
    if fixed.size:
        pt[fixed, fixed] /= pt[fixed, fixed].real.sum()
    if kind == "involution":  # Hermitian, as the partial transpose of a state is
        pt = np.triu(pt) + np.triu(pt, 1).conj().T
    return pl.partial_transpose(pt, (d_a, d_b))


def detection_input(kind, d_a, d_b, zero_tol, g):
    """One matrix of a stack for the stacked-detector equivalence test."""
    if kind in ("involution", "chain", "permutation"):
        return monomial_pt_matrix(d_a, d_b, g, kind)
    rng = pl.RngState(int(g.integers(2**32)))
    n_pairs = int(g.integers(0, randgen._feasible_pairs(d_a, d_b) + 1))
    m = pl.random_canonical_pairing(d_a, d_b, n_pairs, rng).mat.copy()
    top = float(np.max(np.abs(m)))
    d = m.shape[0]
    if kind == "near":  # one Hermitian pair just above or just below the cutoff
        i, j = g.choice(d, size=2, replace=False)
        x = g.choice([0.98, 1.02]) * zero_tol * top * np.exp(2j * np.pi * g.random())
        m[i, j] += x
        m[j, i] += np.conj(x)
    elif kind == "remainder":  # dropped entries too many for the bound: an SVD decides
        rows, cols = np.triu_indices(d, 1)
        noise = np.zeros((d, d), dtype=complex)
        noise[rows, cols] = 0.45 * zero_tol * top * np.exp(2j * np.pi * g.random(rows.size))
        m += noise + noise.conj().T
    return m


class TestStackedDetection:
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 6), (3, 4), (4, 4)]),
        kinds=st.lists(st.sampled_from(["pairing", "near", "remainder", "involution", "chain",
                                        "permutation"]), min_size=1, max_size=6),
        zero_tol=st.sampled_from([1e-10, 1e-8]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_state_detector(self, seed, dims, kinds, zero_tol):
        g = np.random.Generator(np.random.Philox(seed))
        mats = np.array([detection_input(kind, *dims, zero_tol, g) for kind in kinds])
        want = [per_state_detect(m, *dims, zero_tol) for m in mats]
        det = pairing._certify_stack(pl.linalg._Stack.of(mats), dims, zero_tol)
        assert [det.certificate(t) for t in range(len(mats))] == want

    def test_a_stack_of_rejected_states_stops_at_the_monomial_check(self, rng, monkeypatch):
        mats = np.array([pl.random_bipartite_state(3, 3, rng).mat for _ in range(4)])
        stack = pl.linalg._Stack.of(mats)
        # the present entries are never moved to their place in rho^T_A
        monkeypatch.setattr(pl.linalg, "_pt_flat", None)
        det = pairing._certify_stack(stack, (3, 3), 1e-10)
        assert [det.certificate(t) for t in range(4)] == [None] * 4


class TestPairingNumberBound:
    def test_small_cases(self, mc_state):
        cert = pl.detect_canonical_pairing(mc_state)
        assert pl.pairing_number_bound_check(cert, 2)

    def test_rank3_pure_state_saturates(self, rng):
        lam = rng.generator.dirichlet(np.ones(3))
        v = np.zeros(9, dtype=complex)
        for j in range(3):
            v[j * 3 + j] = np.sqrt(lam[j])
        bs = pl.BipartiteState(pl.DensityMatrix(np.outer(v, v.conj()), 1e-9), 3, 3)
        cert = pl.detect_canonical_pairing(bs)
        assert cert.pairing_number == 3
        assert pl.pairing_number_bound_check(cert, 3)

    def test_exceeding_bound(self):
        cert = pl.PairingCertificate(
            transpositions=(((0, 0), (1, 1)), ((0, 2), (1, 3))),
            fixed_points=((0, 1), (1, 0), (0, 3), (1, 2)),
            pairing_number=2,
        )
        assert not pl.pairing_number_bound_check(cert, 2)


class TestPPTCost:
    def test_bell(self, bell_state):
        cert = pl.detect_canonical_pairing(bell_state)
        assert pl.ppt_cost_condition(bell_state, cert) == pytest.approx(1.0)

    def test_diagonal(self, diagonal_state):
        cert = pl.detect_canonical_pairing(diagonal_state)
        assert pl.ppt_cost_condition(diagonal_state, cert) == pytest.approx(0, abs=1e-9)

    def test_mc_example(self, mc_state):
        cert = pl.detect_canonical_pairing(mc_state)
        # frozen oracle: log2(1.6)
        assert pl.ppt_cost_condition(mc_state, cert) == pytest.approx(
            0.6780719051126377, abs=1e-9
        )

    def test_mismatched_state_raises(self, mc_state, diagonal_state):
        cert = pl.detect_canonical_pairing(mc_state)
        iso = pl.named_counterexample("isotropic", p=0.5)
        with pytest.raises(ConditionViolated):
            pl.ppt_cost_condition(iso.state, cert)

    @pytest.mark.parametrize("d_a, d_b, n_pairs, seed", [
        (2, 2, 1, 1), (2, 8, 3, 2), (3, 3, 3, 3), (3, 4, 2, 4), (4, 4, 5, 5), (2, 64, 20, 6)])
    def test_is_the_logarithmic_negativity(self, d_a, d_b, n_pairs, seed):
        bs = pl.random_canonical_pairing(d_a, d_b, n_pairs, pl.RngState(seed), diag_weight=0.2)
        assert pl.ppt_cost_condition(bs, pl.detect_canonical_pairing(bs)) == pl.negativity(bs)[1]


# each public function that takes a state's certificate, called with it
CERTIFIED = {
    "ppt_cost_condition": lambda bs, cert: pl.ppt_cost_condition(bs, cert),
    "distillable_lower_bound": lambda bs, cert: pl.distillable_lower_bound(bs, cert, [(0, 1)]),
    "distill_witness": lambda bs, cert: pl.distill_witness(bs, cert, 0),
}


class TestCertificateContract:
    @pytest.mark.parametrize("call", list(CERTIFIED))
    @pytest.mark.parametrize("given_cert", ["foreign", "none"])
    def test_only_the_states_own_certificate_is_taken(self, call, given_cert, rng):
        bs = pl.random_canonical_pairing(3, 4, 3, rng, diag_weight=0.2)
        own = pl.detect_canonical_pairing(bs)
        other = pl.random_canonical_pairing(3, 4, 2, rng, diag_weight=0.2)
        cert = pl.detect_canonical_pairing(other) if given_cert == "foreign" else None
        assert cert != own
        with pytest.raises(ConditionViolated, match="not that of this state"):
            CERTIFIED[call](bs, cert)
        # the state's own certificate is any that equals it
        CERTIFIED[call](bs, pl.PairingCertificate(own.transpositions, own.fixed_points,
                                                  own.pairing_number))


class TestQubitQuditDecompose:
    def test_two_block_round_trip(self, rng):
        bell = np.ones((2, 2), dtype=complex) / 2
        mc = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
        bs = pl.make_qubit_qudit_pairing(
            0.0, np.zeros(8), [(0.5, bell, (0, 1)), (0.5, mc, (2, 3))]
        )
        dec = pl.qubit_qudit_decompose(bs)
        assert dec.p0 == pytest.approx(0, abs=1e-12)
        assert len(dec.blocks) == 2
        assert np.max(np.abs(dec.reassemble().mat - bs.mat)) <= 1e-9

    def test_diagonal_2x3(self):
        diag = np.array([0.3, 0.2, 0.1, 0.15, 0.15, 0.1])
        bs = pl.BipartiteState(pl.DensityMatrix(np.diag(diag.astype(complex))), 2, 3)
        dec = pl.qubit_qudit_decompose(bs)
        assert dec.p0 == pytest.approx(1.0)
        assert dec.blocks == ()

    def test_matrix_is_the_block_by_block_sum(self, rng):
        for d_b, pairs in [(2, 1), (6, 3), (40, 17)]:
            dec = pl.qubit_qudit_decompose(pl.random_canonical_pairing(2, d_b, pairs, rng))
            m = np.diag(dec.diag_probs.astype(complex))
            for blk in dec.blocks:
                idx = [blk.b_columns[0], d_b + blk.b_columns[1]]
                m[np.ix_(idx, idx)] += blk.weight * blk.coeffs.mat
            assert dec.reassemble().mat.tobytes() == m.tobytes()

    def test_a_certificate_block_on_zero_entries_is_refused(self):
        bell = np.ones((2, 2), dtype=complex) / 2
        bs = pl.make_qubit_qudit_pairing(0.0, np.zeros(8), [(1.0, bell, (0, 1))])
        other = pl.make_qubit_qudit_pairing(0.0, np.zeros(8), [(1.0, bell, (2, 3))])
        # the other state's block sits where bs has no weight at all
        with pytest.raises(NotCanonicalPairing, match="holds no weight"):
            pl.qubit_qudit_decompose(bs, cert=pl.detect_canonical_pairing(other))

    def test_appendix_f_refused(self):
        ex = pl.named_counterexample("appendix-f")
        with pytest.raises(NotQubit):
            pl.qubit_qudit_decompose(ex.state)

    def test_a_transposition_listed_twice_is_refused(self):
        bs = pl.random_canonical_pairing(2, 4, 1, pl.RngState(1), diag_weight=0.3)
        cert = pl.detect_canonical_pairing(bs)
        twice = pl.PairingCertificate(cert.transpositions * 2, cert.fixed_points, 2)
        # the block counted twice would double E_D (0.980 against 0.490)
        with pytest.raises(NotCanonicalPairing, match="blocks of a certificate overlap"):
            pl.qubit_qudit_decompose(bs, cert=twice)
        assert pl.pairing_measures(pl.qubit_qudit_decompose(bs, cert=cert)).E_D \
            == pytest.approx(0.49, abs=1e-3)

    def test_transpositions_sharing_a_label_are_refused(self):
        diag = np.zeros(8)
        diag[2] = diag[5] = 0.5
        mc = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
        bs = pl.make_qubit_qudit_pairing(0.4, diag, [(0.6, mc, (3, 0))])
        cert = pl.detect_canonical_pairing(bs)
        assert cert.transpositions == (((0, 0), (1, 3)),)
        # ((0, 0), (1, 2)) shares (0, 0): its block, on |0 2> and |1 0>, has
        # weight but no coherence, and overlaps the true block on |1 0>
        shared = pl.PairingCertificate((((0, 0), (1, 2)), *cert.transpositions),
                                       cert.fixed_points, 2)
        with pytest.raises(NotCanonicalPairing, match="blocks of a certificate overlap"):
            pl.qubit_qudit_decompose(bs, cert=shared)

    def test_the_diagonal_cutoff_is_the_certificates(self):
        # a diagonal entry of 1e-12 stays at a cutoff of 0 and is dropped at ZERO_TOL
        diag = np.array([1.0 - 1e-12, 1e-12, 0.0, 0.0])
        bs = pl.BipartiteState(pl.DensityMatrix(np.diag(diag).astype(complex)), 2, 2)
        kept = pl.qubit_qudit_decompose(bs, cert=pl.detect_canonical_pairing(bs, 0.0))
        dropped = pl.qubit_qudit_decompose(bs)
        assert kept.diag_probs.tolist() == diag.tolist()
        assert dropped.diag_probs.tolist() == [1.0 - 1e-12, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("cutoff, noise", [(1e-8, 4e-9), (1e-6, 2e-8)])
    def test_a_loose_cutoff_decomposes_what_it_certifies(self, cutoff, noise):
        # a Bell pair on |00>, |11> with `noise` of weight on |01> and |10>
        # and half of it as their coherence: detection at `cutoff` drops
        # them, so the reassembly gap, `noise`, lies below that cutoff
        m = np.zeros((4, 4), dtype=complex)
        m[np.ix_([0, 3], [0, 3])] = 0.5 - noise
        m[np.ix_([1, 2], [1, 2])] = [[noise, noise / 2], [noise / 2, noise]]
        bs = pl.BipartiteState(pl.DensityMatrix(m), 2, 2)
        cert = pl.detect_canonical_pairing(bs, cutoff)
        assert cert.pairing_number == 1
        dec = pl.qubit_qudit_decompose(bs, cert=cert)
        assert dec.p0 == 0.0 and [b.b_columns for b in dec.blocks] == [(0, 1)]
        # the same structure held to the default cutoff, or to 0, is refused
        # as before: the gap exceeds 1e-9
        for zero_tol in (pairing.ZERO_TOL, 0.0):
            strict = pl.PairingCertificate(cert.transpositions, cert.fixed_points,
                                           cert.pairing_number, zero_tol)
            with pytest.raises(NotCanonicalPairing, match="reassembly gap"):
                pl.qubit_qudit_decompose(bs, cert=strict)


class TestDecompositionParity:
    """The public decomposition's blocks are the states the constructor
    gives the renormalized blocks, though the stack routines behind it
    build none, and its measures keep their values."""

    @given(st.data(), st.integers(2, 9), st.sampled_from([None, 0.0, 0.3]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_blocks_are_the_constructor_states(self, data, d_b, diag_weight, seed):
        n_pairs = data.draw(st.integers(0, d_b // 2))
        bs = pl.random_canonical_pairing(2, d_b, n_pairs, pl.RngState(seed), diag_weight)
        tol = bs.rho.validation_tol
        dec = pl.qubit_qudit_decompose(bs)
        assert len(dec.blocks) == n_pairs
        for blk in dec.blocks:
            idx = [blk.b_columns[0], d_b + blk.b_columns[1]]
            sub = bs.mat[np.ix_(idx, idx)]
            p = sub.trace().real
            want = pl.DensityMatrix(sub / p, pairing._block_tol(tol, p))
            assert blk.weight == p
            assert blk.coeffs.mat.tobytes() == want.mat.tobytes()
            assert blk.coeffs._ascending().tobytes() == want._ascending().tobytes()
            assert blk.coeffs.validation_tol == want.validation_tol
            assert type(blk.coeffs.validation_tol) is float

    @given(st.data(), st.integers(2, 9), st.sampled_from([None, 0.0, 0.3]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_stack_route_keeps_the_bits_of_the_blocks(self, tmp_path_factory, data, d_b,
                                                      diag_weight, seed):
        n_pairs = data.draw(st.integers(0, d_b // 2))
        bs = pl.random_canonical_pairing(2, d_b, n_pairs, pl.RngState(seed), diag_weight)
        dec = pl.qubit_qudit_decompose(bs)
        pm = pl.pairing_measures(dec)  # read off the stack, before any block is built
        m = dec.reassemble().mat
        # the one-state block stack rebuilt from the public blocks
        blocks = dec.blocks
        ref = pairing._Blocks(
            dec.diag_probs[None], np.array([dec.validation_tol]),
            np.zeros(len(blocks), dtype=np.intp),
            np.array([b.b_columns for b in blocks], dtype=np.intp).reshape(-1, 2),
            np.array([b.weight for b in blocks]),
            np.array([b.coeffs.mat for b in blocks]).reshape(-1, 2, 2),
            np.array([b.coeffs._ascending() for b in blocks]).reshape(-1, 2))
        e_d, e_c, e_ppt = (float(x[0]).hex() for x in pairing._closed_forms(ref))
        assert (pm.E_D.hex(), pm.C_D.hex(), pm.E_C.hex(), pm.C_C.hex(), pm.E_PPT.hex()) == \
            (e_d, e_d, e_c, e_c, e_ppt)
        want = np.diag(dec.diag_probs.astype(complex))
        for blk in blocks:
            idx = [blk.b_columns[0], d_b + blk.b_columns[1]]
            want[np.ix_(idx, idx)] += blk.weight * blk.coeffs.mat
        assert m.tobytes() == want.tobytes()
        # detect --decompose --json reads the same blocks off the stack
        path = tmp_path_factory.mktemp("qq") / "qq.json"
        statefile.save_state(path, bs)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["detect", "--decompose", "--json", str(path)]) == 0
        assert [(b["weight"], tuple(b["b_columns"]), b["negativity"])
                for b in json.loads(out.getvalue())["blocks"]] == \
            [(b.weight, b.b_columns, b.block_negativity) for b in blocks]

    # E_D, E_C, E_PPT and the [(0, 1)] lower bound of qubit-qudit pairing
    # states, and the lower bound of qutrit-qudit ones, as float.hex
    QUBIT = {
        (3, 1, None, 11): ("0x1.f79ffae772130p-2", "0x1.2a64b2394c8adp-1",
                           "0x1.5fe5d6f9db97cp-1", "0x1.f79ffae772134p-2"),
        (4, 2, 0.0, 12): ("0x1.95d87015680d0p-1", "0x1.95d87015680d2p-1",
                          "0x1.c6ea5cd6083c6p-1", "0x1.95d87015680d0p-1"),
        (5, 2, 0.3, 13): ("0x1.631b21521b364p-2", "0x1.ec014f5748409p-2",
                          "0x1.56682c87e6038p-1", "0x1.631b21521b361p-2"),
        (6, 3, None, 14): ("0x1.b608b663f4320p-1", "0x1.b608b663f431ep-1",
                           "0x1.d897a6803d99bp-1", "0x1.b608b663f431cp-1"),
        (6, 3, 0.3, 15): ("0x1.19ddeddc44730p-2", "0x1.bb6391b4c9274p-2",
                          "0x1.4b679c6539affp-1", "0x1.19ddeddc4472fp-2"),
        (8, 4, 0.0, 16): ("0x1.bdd60a4c8a5d2p-1", "0x1.bdd60a4c8a5cep-1",
                          "0x1.dc45a3ce81c88p-1", "0x1.bdd60a4c8a5cep-1"),
    }
    QUTRIT = {
        (3, 2, None, 21, (0, 1)): "0x1.eb0c7df0a7fdbp-3",
        (3, 3, 0.3, 22, (0, 2)): "0x1.d8330601a18e2p-7",
        (4, 3, 0.0, 23, (1, 2)): "0x1.32497ad5e3073p-3",
        (5, 4, 0.3, 24, (0, 1)): "0x1.b37a95cee226cp-6",
    }

    @pytest.mark.parametrize("case", list(QUBIT))
    def test_qubit_measures_and_bound_are_frozen(self, case):
        d_b, n_pairs, diag_weight, seed = case
        bs = pl.random_canonical_pairing(2, d_b, n_pairs, pl.RngState(seed), diag_weight)
        cert = pl.detect_canonical_pairing(bs)
        pm = pl.pairing_measures(pl.qubit_qudit_decompose(bs, cert=cert))
        bound = pl.distillable_lower_bound(bs, cert, [(0, 1)])
        assert (pm.E_D.hex(), pm.E_C.hex(), pm.E_PPT.hex(), bound.hex()) == self.QUBIT[case]

    @pytest.mark.parametrize("case", list(QUTRIT))
    def test_qutrit_bound_is_frozen(self, case):
        d_b, n_pairs, diag_weight, seed, pair = case
        bs = pl.random_canonical_pairing(3, d_b, n_pairs, pl.RngState(seed), diag_weight)
        cert = pl.detect_canonical_pairing(bs)
        assert pl.distillable_lower_bound(bs, cert, [pair]).hex() == self.QUTRIT[case]


class TestPairingMeasures:
    def test_bell(self, bell_state):
        pm = pl.pairing_measures(pl.qubit_qudit_decompose(bell_state))
        assert pm.E_D == pytest.approx(1.0, abs=1e-9)
        assert pm.E_C == pytest.approx(1.0, abs=1e-9)
        assert pm.E_PPT == pytest.approx(1.0, abs=1e-9)

    # frozen output of scripts/closed_form_oracle.py for the running example
    ORACLE = {"mc-example": (0.2780719051126377, 0.4689955935892811), "bell": (1.0, 1.0)}

    def test_closed_form_oracle_prints_the_frozen_values(self):
        oracle = Path(__file__).resolve().parent.parent / "scripts" / "closed_form_oracle.py"
        done = subprocess.run([sys.executable, str(oracle)], check=True, capture_output=True,
                              text=True, env={"PATH": ""})
        printed = {}
        for line in done.stdout.splitlines():
            name, rest = line.split(": ")
            e_d, e_c = (float(part.split(" = ")[1]) for part in rest.split("  "))
            printed[name] = (e_d, e_c)
        assert printed == self.ORACLE

    def test_mc_example(self, mc_state):
        pm = pl.pairing_measures(pl.qubit_qudit_decompose(mc_state))
        e_d, e_c = self.ORACLE["mc-example"]
        assert pm.E_D == pytest.approx(e_d, abs=1e-12)
        assert pm.E_C == pytest.approx(e_c, abs=1e-12)
        assert pm.E_D == pm.C_D and pm.E_C == pm.C_C
        assert pm.E_D <= pm.E_PPT + 1e-9

    def test_diagonal_all_zero(self, diagonal_state):
        pm = pl.pairing_measures(pl.qubit_qudit_decompose(diagonal_state))
        assert pm.E_D == pytest.approx(0, abs=1e-9)
        assert pm.E_C == 0
        assert pm.E_PPT == pytest.approx(0, abs=1e-9)


class TestDistillWitness:
    def test_mc_example_block_is_whole_state(self, mc_state):
        cert = pl.detect_canonical_pairing(mc_state)
        proj, block, n = pl.distill_witness(mc_state, cert, 0)
        assert np.allclose(proj, np.eye(4))
        assert np.allclose(block, mc_state.mat)
        assert n == pytest.approx(0.6)

    def test_embedded_bell_with_spectator(self):
        # Bell block on A-levels {0,1}, B-columns {0,1}, plus diagonal
        # weight on |22>
        m = np.zeros((9, 9), dtype=complex)
        idx = [0, 4]  # |00>, |11>
        m[np.ix_(idx, idx)] = 0.8 * np.ones((2, 2)) / 2
        m[8, 8] = 0.2
        bs = pl.BipartiteState(pl.DensityMatrix(m), 3, 3)
        cert = pl.detect_canonical_pairing(bs)
        assert cert.pairing_number == 1
        _, block, n = pl.distill_witness(bs, cert, 0)
        assert block.trace().real == pytest.approx(0.8)
        assert n == pytest.approx(1.0)

    def test_block_is_the_projected_state(self, rng):
        bs = pl.random_canonical_pairing(3, 4, 3, rng, diag_weight=0.2)
        cert = pl.detect_canonical_pairing(bs)
        for i in range(cert.pairing_number):
            proj, block, _ = pl.distill_witness(bs, cert, i)
            assert np.array_equal(block, proj @ bs.mat @ proj)

    def test_diagonal_raises(self, diagonal_state):
        cert = pl.detect_canonical_pairing(diagonal_state)
        with pytest.raises(NoTransposition):
            pl.distill_witness(diagonal_state, cert, 0)


class TestDistillableLowerBound:
    def test_single_pair_equals_e_d(self, mc_state):
        cert = pl.detect_canonical_pairing(mc_state)
        bound = pl.distillable_lower_bound(mc_state, cert, [(0, 1)])
        e_d = pl.pairing_measures(pl.qubit_qudit_decompose(mc_state)).E_D
        assert bound == pytest.approx(e_d, abs=1e-12)

    def test_diagonal_is_zero(self, diagonal_state):
        cert = pl.detect_canonical_pairing(diagonal_state)
        assert pl.distillable_lower_bound(diagonal_state, cert, [(0, 1)]) == pytest.approx(
            0, abs=1e-9
        )

    def test_two_block_direct_sum(self):
        # 4x4 direct sum of two Bell-like blocks on A-pairs {0,1} and {2,3}
        bell = np.ones((2, 2), dtype=complex) / 2
        m = np.zeros((16, 16), dtype=complex)
        m[np.ix_([0, 5], [0, 5])] = 0.6 * bell  # |00>, |11>
        m[np.ix_([10, 15], [10, 15])] = 0.4 * bell  # |22>, |33>
        bs = pl.BipartiteState(pl.DensityMatrix(m), 4, 4)
        cert = pl.detect_canonical_pairing(bs)
        assert cert.pairing_number == 2
        bound = pl.distillable_lower_bound(bs, cert, [(0, 1), (2, 3)])
        # each block is pure after renormalization: contribution p_j * 1
        assert bound == pytest.approx(0.6 + 0.4, abs=1e-9)
        _, n_log = pl.negativity(bs)
        assert bound <= n_log + 1e-9

    def test_overlapping_pairs_rejected(self, mc_state):
        cert = pl.detect_canonical_pairing(mc_state)
        with pytest.raises(InvalidPartition):
            pl.distillable_lower_bound(mc_state, cert, [(0, 1), (1, 0)])
