import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairinglab as pl
from pairinglab import pairing, verify
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
    trace_defect = abs(float(np.sum(np.diag(mod))) - 1.0)
    if trace_defect + 2.0 * float(np.sum(mod, where=~present)) <= slack:
        return cert
    n = pl.linalg.trace_norm(pt) - 1.0
    off = np.abs(m)
    np.fill_diagonal(off, 0.0)
    if abs(n - float(off.sum())) > slack:
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
    n_pairs = int(g.integers(0, verify._feasible_pairs(d_a, d_b) + 1))
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
        assert pairing._certify_stack(pl.linalg._Stack.of(mats), dims, zero_tol) == want

    def test_a_stack_of_rejected_states_stops_at_the_monomial_check(self, rng, monkeypatch):
        mats = np.array([pl.random_bipartite_state(3, 3, rng).mat for _ in range(4)])
        stack = pl.linalg._Stack.of(mats)
        # the present entries are never moved to their place in rho^T_A
        monkeypatch.setattr(pl.linalg, "_pt_flat", None)
        assert pairing._certify_stack(stack, (3, 3), 1e-10) == [None] * 4


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
            assert dec._matrix().tobytes() == m.tobytes()

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
