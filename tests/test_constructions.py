import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

import pairinglab as pl
from pairinglab import constructions
from pairinglab.errors import (
    DimensionCapExceeded,
    InvalidCoeffs,
    LabelCollision,
    PhaseNotRoot,
    SupportOverlap,
    UnknownName,
    ValidationError,
    WeightMismatch,
)

from conftest import MC_COEFFS, random_density


class TestMakeMCState:
    def test_bell(self, bell_state):
        expected = np.zeros((4, 4), dtype=complex)
        expected[np.ix_([0, 3], [0, 3])] = 0.5
        assert np.allclose(bell_state.mat, expected)

    def test_offset_labels(self):
        spec = pl.MCSpec(MC_COEFFS, (0, 1), (2, 0))
        bs = pl.make_mc_state(spec, 2, 3)
        assert bs.mat[2, 2] == 0.5  # |0 2>
        assert bs.mat[2, 3] == 0.3  # <0 2| rho |1 0>
        n, _ = pl.negativity(bs)
        assert n == pytest.approx(0.6)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LabelCollision):
            pl.MCSpec(MC_COEFFS, (0, 0), (0, 1))

    def test_labels_out_of_range_rejected(self):
        with pytest.raises(LabelCollision):
            pl.make_mc_state(pl.MCSpec(MC_COEFFS, (0, 1), (0, 2)), 2, 2)

    @pytest.mark.parametrize("a_labels, b_labels", [((0, 1), (0, -2)), ((0, 1), (0, -1)),
                                                    ((-1, 1), (0, 1))])
    def test_negative_labels_rejected(self, a_labels, b_labels):
        with pytest.raises(LabelCollision, match="nonnegative"):
            pl.make_mc_state(pl.MCSpec(MC_COEFFS, a_labels, b_labels), 2, 2)

    def test_non_density_coeffs_rejected(self):
        with pytest.raises(InvalidCoeffs):
            pl.MCSpec(np.array([[0.5, 0.6], [0.6, 0.5]]), (0, 1), (0, 1))


class TestMakeQubitQuditPairing:
    def test_block_plus_diagonal(self):
        mc = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
        diag = np.zeros(8)
        diag[2] = diag[7] = 0.5  # |0 2> and |1 3>, away from block columns
        bs = pl.make_qubit_qudit_pairing(0.2, diag, [(0.8, mc, (0, 1))])
        assert bs.d_A == 2 and bs.d_B == 4
        n, _ = pl.negativity(bs)
        assert n == pytest.approx(0.8 * 0.6)
        cert = pl.detect_canonical_pairing(bs)
        assert cert is not None and cert.pairing_number == 1

    def test_weight_mismatch(self):
        mc = np.eye(2, dtype=complex) / 2
        with pytest.raises(WeightMismatch):
            pl.make_qubit_qudit_pairing(0.5, np.zeros(4), [(0.8, mc, (0, 1))])

    def test_column_overlap(self):
        mc = np.ones((2, 2), dtype=complex) / 2
        with pytest.raises(SupportOverlap):
            pl.make_qubit_qudit_pairing(
                0.0, np.zeros(8), [(0.5, mc, (0, 1)), (0.5, mc, (1, 2))]
            )

    @pytest.mark.parametrize("coeffs", [np.eye(1), np.eye(3) / 3], ids=["1x1", "3x3"])
    def test_coeffs_must_be_two_by_two(self, coeffs):
        with pytest.raises(InvalidCoeffs, match="must be 2x2"):
            pl.make_qubit_qudit_pairing(0.0, np.zeros(4), [(1.0, coeffs, (0, 1))])

    @pytest.mark.parametrize("p0, diag, weight", [
        (0.0, np.zeros(4), np.nan), (np.nan, np.zeros(4), 1.0),
        (0.5, [np.nan, 0.5, 0.5, 0.0], 0.5), (0.0, np.zeros(4), np.inf)],
        ids=["nan-weight", "nan-p0", "nan-diag", "inf-weight"])
    def test_non_finite_weights_rejected(self, p0, diag, weight):
        mc = np.ones((2, 2), dtype=complex) / 2
        with pytest.raises(WeightMismatch, match="finite"):
            pl.make_qubit_qudit_pairing(p0, diag, [(weight, mc, (0, 1))])

    @pytest.mark.parametrize("columns", [(0.5, 1), (0, 1.0), ("0", 1)])
    def test_non_integer_columns_rejected(self, columns):
        mc = np.ones((2, 2), dtype=complex) / 2
        with pytest.raises(SupportOverlap, match="integers"):
            pl.make_qubit_qudit_pairing(0.0, np.zeros(4), [(1.0, mc, columns)])

    def test_diag_on_block_column_rejected(self):
        mc = np.ones((2, 2), dtype=complex) / 2
        diag = np.zeros(8)
        diag[0] = 1.0  # |0 0> collides with the block pair (0, 1)
        with pytest.raises(SupportOverlap):
            pl.make_qubit_qudit_pairing(0.3, diag, [(0.7, mc, (0, 1))])


class TestCnotEmbed:
    def test_plus_becomes_bell(self, plus_rho, bell_state):
        out = pl.cnot_embed(plus_rho)
        assert np.allclose(out.mat, bell_state.mat)

    def test_diagonal_stays_separable(self):
        rho = pl.DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        n, _ = pl.negativity(pl.cnot_embed(rho))
        assert n == pytest.approx(0, abs=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_negativity_equals_input_coherence(self, seed):
        g = np.random.Generator(np.random.Philox(seed))
        rho = random_density(seed + 1, int(g.integers(2, 6)))
        out = pl.cnot_embed(rho)
        n, _ = pl.negativity(out)
        assert abs(n - pl.c_l1(rho)) <= 1e-8


class TestAppendixAChain:
    def test_plus_state_chain(self, plus_rho):
        chain = pl.appendix_a_chain(plus_rho, L=1)
        assert chain.K == 4
        rep = chain.report
        assert rep["K_divisible_by_L"]
        assert rep["trace_M"] == pytest.approx(0.5, abs=1e-12)
        assert rep["trace_M_below_1"]
        assert rep["offdiag_count_rho2"] == 32
        assert rep["offdiag_count_rho3"] == 32
        assert rep["offdiag_multiset_match"]
        assert rep["rho4_is_entrywise_abs_of_rho3"]
        # v rotates by one root of unity per level
        assert np.allclose(chain.v_diag, chain.omega ** (-np.arange(4)))

    def test_offdiag_entries_split_by_phase(self, plus_rho):
        chain = pl.appendix_a_chain(plus_rho, L=1)
        off = chain.rho2.mat[~np.eye(chain.rho2.dim, dtype=bool)]
        off = off[np.abs(off) > 1e-13]
        # 8 entries at each of the 4 phase classes omega^a / (2 K^d)
        phases = np.round(np.angle(off) / (np.pi / 2)).astype(int) % 4
        assert sorted(np.bincount(phases, minlength=4)) == [8, 8, 8, 8]
        assert np.allclose(np.abs(off), 1.0 / (2 * 4**2))

    def test_l4_complex_phases(self):
        m = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
        chain = pl.appendix_a_chain(pl.DensityMatrix(m), L=4)
        assert chain.K == 4
        assert chain.report["offdiag_multiset_match"]
        assert chain.report["rho4_is_entrywise_abs_of_rho3"]

    def test_phase_not_root(self):
        phase = np.exp(0.3j)
        m = np.array([[0.5, 0.5 * phase], [0.5 * np.conj(phase), 0.5]])
        with pytest.raises(PhaseNotRoot):
            pl.appendix_a_chain(pl.DensityMatrix(m), L=2)

    def test_dimension_cap(self, plus_rho):
        with pytest.raises(DimensionCapExceeded):
            pl.appendix_a_chain(plus_rho, L=1, dim_cap=16)

    def test_diagonal_input(self):
        rho = pl.DensityMatrix(np.diag([0.6, 0.4]).astype(complex))
        chain = pl.appendix_a_chain(rho, L=1)
        assert chain.report["trace_M"] == pytest.approx(0, abs=1e-12)
        assert chain.report["offdiag_count_rho2"] == 0
        assert chain.report["offdiag_multiset_match"]


def dense_chain_reference(rho, L):
    """rho2, rho3, rho4 of the dilation chain assembled as dense matrices
    with Kronecker products and validated densely."""
    m, d = rho.mat, rho.dim
    K = ((2 * d + L - 1) // L) * L
    omega = np.exp(2j * np.pi / K)
    conj = []
    for powers in itertools.product(range(K), repeat=d):
        u = omega ** np.asarray(powers)
        conj.append((u[:, None] * m * u.conj()[None, :]) / K**d)
    rho2 = pl.DensityMatrix(block_diag(*conj), 1e-9)
    psi = omega ** np.arange(K) / np.sqrt(K)
    phi = np.ones(K) / np.sqrt(K)
    phi_proj = np.outer(phi, phi.conj())
    mult2 = 2 * (K ** (d - 2) - 1) // (K - 1)

    def m_op(rank1):
        parts = [np.kron(np.eye(2 * K ** (d - 2)), rank1)]
        if mult2 > 0:
            parts.append(np.kron(np.eye(mult2), phi_proj))
        parts.append(np.kron(np.eye(K), np.ones((2, 2), dtype=complex)) / K)
        core = block_diag(*parts)
        return block_diag(*[abs(m[j, k]) * core for j in range(d)
                            for k in range(j + 1, d)]) / K ** (d - 1)

    out = []
    for rank1 in (np.outer(psi, psi.conj()), phi_proj):
        mm = m_op(rank1)
        out.append(pl.DensityMatrix(block_diag(mm, np.array([[1.0 - mm.trace().real]])), 1e-9))
    return rho2, *out


def dense_report(rho, L, rho2, rho3, rho4):
    """The report of the chain, recomputed from its dense matrices: the
    off-diagonal multisets of the whole of rho2 and rho3 (their nonzero
    entries in row-major order, sorted stably by rounded real and imaginary
    part) and the entrywise gap between |rho3| and rho4."""
    d = rho.dim
    K = ((2 * d + L - 1) // L) * L

    def offdiag_multiset(m, cut=1e-13):
        vals = m[~np.eye(m.shape[0], dtype=bool)]
        vals = vals[np.abs(vals) > cut]
        return vals[np.lexsort((np.round(vals.imag, 12), np.round(vals.real, 12)))]

    off2, off3 = offdiag_multiset(rho2.mat), offdiag_multiset(rho3.mat)
    if off2.size != off3.size:
        gap = np.inf
    else:
        gap = float(np.max(np.abs(off2 - off3))) if off2.size else 0.0
    tr_m = float(rho3.mat[:-1, :-1].trace().real)
    abs_gap = float(np.max(np.abs(np.abs(rho3.mat) - rho4.mat.real)))
    return {
        "K_divisible_by_L": K % L == 0 and K >= 2 * d,
        "trace_M": tr_m,
        "trace_M_below_1": tr_m < 1.0,
        "offdiag_count_rho2": off2.size,
        "offdiag_count_rho3": off3.size,
        "offdiag_multiset_gap": gap,
        "offdiag_multiset_match": off2.size == off3.size and gap <= 1e-10,
        "rho4_abs_gap": abs_gap,
        "rho4_is_entrywise_abs_of_rho3": abs_gap <= 1e-10,
    }


def chain_input(L, vec, t):
    v = np.asarray(vec, dtype=complex)
    return pl.DensityMatrix(t * np.outer(v, v.conj()) / np.vdot(v, v).real
                            + (1 - t) * np.eye(v.size) / v.size)


class TestAppendixAChainBlockwise:
    @pytest.mark.parametrize("L, vec, t", [
        (1, [0.5, 0.6, 0.62], 0.6), (2, [0.5, -0.6, 0.62], 0.7), (1, [0.3, 0.4], 0.5),
        (4, [1, 1j, -1], 0.8), (1, [1, 0, 1], 0.4), (3, [1, np.exp(2j * np.pi / 3)], 0.9),
        (1, [1, 0, 0], 0.5),
    ])
    def test_matches_the_dense_validated_chain(self, L, vec, t):
        rho = chain_input(L, vec, t)
        chain = pl.appendix_a_chain(rho, L)
        dense = dense_chain_reference(rho, L)
        for got, want in zip((chain.rho2, chain.rho3, chain.rho4), dense):
            assert got.mat.tobytes() == want.mat.tobytes()  # signed zeros included
            assert got.validation_tol == want.validation_tol
            assert np.array_equal(got.eigenvalues(), want.eigenvalues())  # -0.0 == 0.0
        want = dense_report(rho, L, *dense)
        assert chain.report == want  # every float bit for bit
        assert list(map(type, chain.report.values())) == list(map(type, want.values()))

    @pytest.mark.parametrize("runs", [
        [(np.array([[[0.7, 0.2], [0.2, -0.05]]]), 2), (np.array([[[-0.3]]]), 1)],
        [(np.array([[[0.5, 0.1], [0.0, 0.5]]]), 1)],
        [(np.eye(2)[None] / 2, 1), (np.array([[[1e-8]]]), 1)],
    ], ids=["negative eigenvalue", "not Hermitian", "trace"])
    def test_a_failing_sum_raises_the_constructors_error(self, runs):
        dense = block_diag(*[b for blocks, copies in runs for b in np.repeat(blocks, copies, 0)])
        with pytest.raises(ValidationError) as want:
            pl.DensityMatrix(dense)
        with pytest.raises(ValidationError) as got:
            constructions._block_diagonal(runs, 1e-9)
        assert str(got.value) == str(want.value)

    def test_decomposes_only_blocks(self, decompositions):
        rho = chain_input(1, [0.5, 0.6, 0.62], 0.6)
        decompositions.clear()
        pl.appendix_a_chain(rho, 1)
        # only distinct blocks: rho2's 216 of 3x3; for each of the 3 pairs,
        # rho3's psi- and phi-block (6x6) and its 2x2 block, and rho4's
        # phi-block and 2x2 block; each 1x1 corner is read off its entry
        assert sorted(decompositions) == [(3, 2, 2), (3, 2, 2),
                                          (3, 6, 6), (6, 6, 6), (216, 3, 3)]
        assert sum(np.prod(s) * s[-1] for s in decompositions) <= 1e4


class TestCounterexamples:
    def test_tau_remark(self):
        ex = pl.named_counterexample("tau-remark")
        assert np.allclose(
            sorted(ex.details["rho_eigenvalues"]), [0, 0, 0.5, 0.5], atol=1e-10
        )
        # frozen oracle: (1 - sqrt 2) / 4
        assert ex.details["tau_min_eigenvalue"] == pytest.approx(
            -0.10355339059327379, abs=1e-12
        )

    def test_appendix_f(self):
        ex = pl.named_counterexample("appendix-f")
        assert ex.details["N"] == pytest.approx(0.5, abs=1e-9)
        assert ex.details["C_l1"] == pytest.approx(0.5, abs=1e-9)

    def test_isotropic_gap_strict_inside_interval(self):
        for p in (0.1, 0.5, 0.9):
            ex = pl.named_counterexample("isotropic", p=p)
            assert ex.details["C_l1"] - ex.details["N"] > 1e-8

    def test_isotropic_endpoints_are_pairing(self):
        for p in (0.0, 1.0):
            ex = pl.named_counterexample("isotropic", p=p)
            assert pl.detect_canonical_pairing(ex.state) is not None

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            pl.named_counterexample("nonsense")
