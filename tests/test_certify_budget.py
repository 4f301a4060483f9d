"""Decomposition budget of the certify path, and soundness of the
remainder bound that lets detection certify N = C_l1 without an SVD."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairinglab as pl
from pairinglab import cli, statefile
from pairinglab.errors import ConditionViolated
from conftest import own_part
from test_pairing import CERTIFIED


def svd_detect(bs, zero_tol):
    """Reference detector: the structural checks of
    ``detect_canonical_pairing``, then N = C_l1 checked with an SVD.

    Returns (transpositions, fixed points) or None."""
    pt = pl.partial_transpose(bs)
    d = pt.shape[0]
    top = float(np.max(np.abs(pt)))
    present = np.abs(pt) > zero_tol * top
    if np.any(present.sum(axis=0) > 1) or np.any(present.sum(axis=1) > 1):
        return None
    partner = {r: int(np.flatnonzero(present[r])[0]) for r in range(d) if present[r].any()}
    if any(partner.get(c) != r for r, c in partner.items()):
        return None
    fixed = {r for r, c in partner.items() if r == c}
    transpositions = []
    for r, c in sorted({(min(r, c), max(r, c)) for r, c in partner.items() if r != c}):
        (j, k), (jp, kp) = bs.label_of(r), bs.label_of(c)
        if j == jp or k == kp or bs.index_of(j, kp) not in fixed or bs.index_of(jp, k) not in fixed:
            return None
        transpositions.append(((j, k), (jp, kp)))
    n = float(np.linalg.svd(pt, compute_uv=False).sum()) - 1.0
    excess = float(np.abs(np.diag(pt)).sum()) - 1.0
    if abs(n - pl.c_l1(bs.rho) - excess) > 10 * zero_tol * d * max(1.0, top):
        return None
    return tuple(transpositions), tuple(sorted(bs.label_of(r) for r in fixed))


def with_noise(bs, size, positions, g):
    """``bs`` plus Hermitian noise of modulus ``size`` (one value per
    position, or one per upper off-diagonal entry when ``positions`` is
    None) on off-diagonal entries, validated loosely enough to accept it."""
    d = bs.dim
    rows, cols = np.triu_indices(d, 1)
    if positions is not None:
        pick = g.choice(rows.size, size=positions, replace=False)
        rows, cols = rows[pick], cols[pick]
    noise = np.zeros((d, d), dtype=complex)
    noise[rows, cols] = size * np.exp(2j * np.pi * g.random(rows.size))
    m = bs.mat + noise + noise.conj().T
    return pl.BipartiteState(pl.DensityMatrix(m, 1e-3), bs.d_A, bs.d_B)


def noisy_bell(d, size, g):
    """A Bell pair on |00>, |11> of a d x d system with noise of modulus
    ``size`` (an array, one per upper off-diagonal entry) on every
    coherence."""
    m = np.zeros((d * d, d * d), dtype=complex)
    m[np.ix_([0, d + 1], [0, d + 1])] = 0.5
    return with_noise(pl.BipartiteState(pl.DensityMatrix(m), d, d), size, None, g)


@pytest.fixture
def hermitian_parts(monkeypatch):
    """Shapes of the stacks whose Hermitian part (M + M^dag) / 2 is formed
    while the test runs."""
    shapes, real = [], pl.linalg._hermitian_part
    monkeypatch.setattr(pl.linalg, "_hermitian_part",
                        lambda m, dag=None: shapes.append(np.shape(m)) or real(m, dag))
    return shapes


def revalidated(bs, change):
    """``bs`` with ``change`` applied to a copy of its matrix, validated
    at its tolerance."""
    m = bs.mat.copy()
    change(m)
    return pl.BipartiteState(pl.DensityMatrix(m, bs.rho.validation_tol), bs.d_A, bs.d_B)


def signed_zero(m):  # Hermitian by value, not its own Hermitian part
    m.imag[0, 0] = -0.0


def defect(m):  # a Hermiticity defect far within the tolerance
    m[0, 1] += 1e-13


class TestHermitianPartRoute:
    """rho^T_A of a state that validation found to be its own Hermitian
    part, bit for bit, is decomposed as it is."""

    def test_measure_report_forms_none_for_a_state_that_is_its_own_part(
            self, hermitian_parts, decompositions, rng):
        ginibre = pl.random_bipartite_state(3, 4, rng)
        for bs, formed in ((ginibre, 0), (revalidated(ginibre, signed_zero), 1),
                           (revalidated(ginibre, defect), 1)):
            assert bs.rho._stack().own_part.tolist() == [formed == 0]
            hermitian_parts.clear()
            decompositions.clear()
            pl.measure_report(bs)
            assert hermitian_parts == [(1, 12, 12)] * formed
            assert decompositions == [(1, 12, 12)]

    def test_the_fallback_keeps_the_flag(self, hermitian_parts, decompositions, monkeypatch):
        # the noisy Bell pair the remainder bound cannot decide
        g = np.random.Generator(np.random.Philox(1))
        noisy = noisy_bell(6, 0.45e-8 * g.random(630), g)
        own = pl.BipartiteState(pl.DensityMatrix(own_part(noisy.mat), 1e-3), 6, 6)
        parts, real = [], pl.linalg._Stack.take
        monkeypatch.setattr(pl.linalg._Stack, "take",
                            lambda self, keep: parts.append(real(self, keep)) or parts[-1])
        for bs, formed in ((own, 0), (revalidated(own, signed_zero), 1)):
            parts.clear()
            hermitian_parts.clear()
            decompositions.clear()
            assert pl.detect_canonical_pairing(bs, 1e-8) is not None
            assert [part.own_part.tolist() for part in parts] == [[formed == 0]]
            assert hermitian_parts == [(1, 36, 36)] * formed
            assert decompositions == [(1, 36, 36)]

    def test_a_stack_no_validation_scanned_forms_the_part(self, hermitian_parts, rng):
        mat = pl.random_bipartite_state(3, 4, rng).mat
        stack = pl.linalg._Stack.of(mat[None])
        assert stack.own_part is None
        hermitian_parts.clear()
        want = pl.measures._pt_spectrum(stack, (3, 4))
        assert hermitian_parts == [(1, 12, 12)]
        pl.linalg._checked(stack, 1e-9)
        assert pl.measures._pt_spectrum(stack, (3, 4)).tobytes() == want.tobytes()
        assert hermitian_parts == [(1, 12, 12)] * 2  # validation's, and no more


@pytest.fixture
def certificates(monkeypatch):
    """The ``PairingCertificate``s built while the test runs."""
    made, real = [], pl.PairingCertificate.__post_init__
    monkeypatch.setattr(pl.PairingCertificate, "__post_init__",
                        lambda self: made.append(self) or real(self))
    return made


class TestDecompositionBudget:
    def test_measure_report_makes_one_eigvalsh(self, decompositions, rng):
        # a monomial rho^T_A gives its spectrum without a decomposition; a
        # state's is taken as a one-matrix stack
        ginibre = pl.random_bipartite_state(3, 4, rng)
        states = [(ginibre, [(1, 12, 12)]),
                  (pl.random_canonical_pairing(2, 8, 3, rng, diag_weight=0.3), []),
                  (pl.cnot_embed(pl.ginibre_density(3, 3, rng)), [])]
        for bs, want in states:
            decompositions.clear()
            pl.measure_report(bs)
            assert decompositions == want

    def test_cnot_embed_certify_path_decomposes_only_the_input_block(self, decompositions):
        rho = pl.ginibre_density(32, 32, pl.RngState(9))
        decompositions.clear()
        bs = pl.cnot_embed(rho)
        rep = pl.measure_report(bs)
        cert = pl.detect_canonical_pairing(bs)
        n, _ = pl.negativity(bs)
        assert bs.dim == 1024 and cert.pairing_number == 32 * 31 // 2
        assert rep.entries["N"] == n == pytest.approx(pl.c_l1(rho), abs=1e-12)
        # the input's cached spectrum plus zeros; the monomial rho^T_A needs none
        assert decompositions == []

    def test_detect_on_exact_pairing_states_makes_none(self, decompositions, rng, mc_state):
        states = [mc_state,
                  pl.named_counterexample("appendix-f").state,
                  pl.random_canonical_pairing(2, 16, 6, rng, diag_weight=0.3),
                  pl.random_canonical_pairing(3, 5, 4, rng),
                  pl.cnot_embed(pl.ginibre_density(5, 5, rng))]
        for bs in states:
            decompositions.clear()
            assert pl.detect_canonical_pairing(bs) is not None
            assert decompositions == []

    def test_decompose_and_closed_forms_stay_within_2x2_blocks(self, decompositions, rng):
        bs = pl.random_canonical_pairing(2, 32, 12, rng, diag_weight=0.3)
        decompositions.clear()
        pl.pairing_measures(pl.qubit_qudit_decompose(bs))
        # the blocks' validation; the closed forms reuse its spectra
        assert decompositions == [(12, 2, 2)]


    def test_decompose_detects_once_and_validates_its_blocks_as_one_stack(
        self, decompositions, rng, monkeypatch
    ):
        bs = pl.random_canonical_pairing(2, 12, 5, rng, diag_weight=0.3)
        cert = pl.detect_canonical_pairing(bs)
        detections = []
        real = pl.pairing._certify_stack
        monkeypatch.setattr(pl.pairing, "_certify_stack",
                            lambda *a, **k: detections.append(1) or real(*a, **k))
        decompositions.clear()
        with_cert = pl.qubit_qudit_decompose(bs, cert=cert)
        assert (len(detections), decompositions) == (0, [(5, 2, 2)])
        detected = pl.qubit_qudit_decompose(bs)
        assert len(detections) == 1
        assert [(b.weight, b.b_columns, b.coeffs.mat.tobytes()) for b in detected.blocks] == \
            [(b.weight, b.b_columns, b.coeffs.mat.tobytes()) for b in with_cert.blocks]

    def test_decompose_without_a_certificate_builds_none(self, rng, certificates):
        bs = pl.random_canonical_pairing(2, 12, 5, rng, diag_weight=0.3)
        dec = pl.qubit_qudit_decompose(bs)
        assert certificates == []
        cert = pl.detect_canonical_pairing(bs)
        assert certificates == [cert]
        assert [b.b_columns for b in dec.blocks] == \
            [b.b_columns for b in pl.qubit_qudit_decompose(bs, cert=cert).blocks]

    def test_lower_bound_on_a_qubit_qudit_state_makes_none(self, decompositions, rng):
        bs = pl.random_canonical_pairing(2, 6, 3, rng, diag_weight=0.0)
        cert = pl.detect_canonical_pairing(bs)
        decompositions.clear()
        bound = pl.distillable_lower_bound(bs, cert, [(0, 1)])
        assert decompositions == []
        assert bound == pytest.approx(pl.pairing_measures(pl.qubit_qudit_decompose(bs)).E_D,
                                      abs=1e-12)

    def test_constructors_decompose_only_their_blocks(self, decompositions):
        c = np.array([[0.6, 0.2j], [-0.2j, 0.4]])
        decompositions.clear()
        diag = np.zeros(12)
        diag[[4, 11]] = 0.5  # |0 4> and |1 5>
        pl.make_qubit_qudit_pairing(0.5, diag, [(0.25, c, (0, 1)), (0.25, c, (2, 3))])
        pl.make_mc_state(pl.MCSpec(c, (0, 2), (1, 0)), 3, 3)
        assert decompositions and all(np.prod(s[-2:]) <= 4 for s in decompositions)

    def test_decompose_with_a_wrong_certificate_fails_the_reassembly(self, rng):
        bs = pl.random_canonical_pairing(2, 6, 2, rng, diag_weight=0.3)
        other = pl.random_canonical_pairing(2, 6, 3, rng, diag_weight=0.3)
        with pytest.raises(pl.errors.NotCanonicalPairing, match="reassembly gap"):
            pl.qubit_qudit_decompose(bs, cert=pl.detect_canonical_pairing(other))

    def test_ppt_cost_condition_makes_no_decomposition(self, decompositions, rng):
        bs = pl.random_canonical_pairing(2, 8, 3, rng, diag_weight=0.3)
        cert = pl.detect_canonical_pairing(bs)
        decompositions.clear()
        n_log = pl.ppt_cost_condition(bs, cert)
        assert decompositions == []
        assert n_log == pl.negativity(bs)[1]


def dilation_input():
    """A 3x3 state with positive coherences (their phases are L = 1 roots)."""
    psi = np.array([0.4, 0.7, 0.9]) / np.linalg.norm([0.4, 0.7, 0.9])
    return pl.DensityMatrix(0.7 * np.outer(psi, psi) + 0.3 * np.eye(3) / 3)


class TestLoadBudget:
    """Reading a direct-sum state file decomposes no more than its largest
    component."""

    @pytest.mark.parametrize("make, largest", [
        (lambda rng: pl.appendix_a_chain(dilation_input(), 1).rho3, 6),
        (lambda rng: pl.cnot_embed(pl.ginibre_density(12, 12, rng)), 12),
        (lambda rng: pl.random_canonical_pairing(2, 24, 8, rng, diag_weight=0.3), 2),
    ])
    def test_load_state_decomposes_only_components(self, tmp_path, decompositions, rng,
                                                   make, largest):
        path = tmp_path / "state.json"
        statefile.save_state(path, make(rng))
        decompositions.clear()
        state = statefile.load_state(path)
        assert decompositions and max(shape[-1] for shape in decompositions) == largest
        assert state.dim > largest


@pytest.fixture
def built(monkeypatch):
    """Counts of the states (``DensityMatrix``, by the constructor or by
    ``_validated``) and of the ``MCBlock``s built while the test runs."""
    counts = {"state": 0, "block": 0}

    def counted(kind, real):
        def call(*args, **kwargs):
            counts[kind] += 1
            return real(*args, **kwargs)
        return call

    dm = pl.DensityMatrix
    monkeypatch.setattr(dm, "_validated", classmethod(counted("state", dm._validated.__func__)))
    monkeypatch.setattr(dm, "__post_init__", counted("state", dm.__post_init__))
    monkeypatch.setattr(pl.pairing.MCBlock, "__init__", counted("block", pl.pairing.MCBlock.__init__))
    return counts


class TestLazyBlocks:
    """A decomposition keeps its block stack: decomposing, the closed forms,
    ``reassemble`` and ``detect --decompose`` make no block a state; reading
    ``blocks`` makes each one once."""

    B = 12

    @pytest.fixture
    def bs(self, rng):
        return pl.random_canonical_pairing(2, 32, self.B, rng, diag_weight=0.3)

    def test_decompose_and_measures_build_no_block_state(self, bs, built, decompositions):
        cert = pl.detect_canonical_pairing(bs)
        built.update(state=0, block=0)
        decompositions.clear()
        for dec in (pl.qubit_qudit_decompose(bs, cert=cert), pl.qubit_qudit_decompose(bs)):
            pl.pairing_measures(dec)
        assert built == {"state": 0, "block": 0}
        assert decompositions == [(self.B, 2, 2)] * 2
        dec.reassemble()
        assert built == {"state": 1, "block": 0}  # the sum alone
        assert decompositions == [(self.B, 2, 2)] * 3

    def test_reading_blocks_builds_each_once(self, bs, built, decompositions):
        dec = pl.qubit_qudit_decompose(bs)
        pm = pl.pairing_measures(dec)
        built.update(state=0, block=0)
        decompositions.clear()
        blocks = dec.blocks
        assert built == {"state": self.B, "block": self.B}
        assert dec.blocks is blocks
        assert built == {"state": self.B, "block": self.B}
        # the blocks hold their validated spectra: no decomposition
        assert decompositions == []
        assert pl.pairing_measures(dec) == pm

    def test_reassemble_builds_the_state_alone(self, bs, built, decompositions):
        dec = pl.qubit_qudit_decompose(bs)
        built.update(state=0, block=0)
        decompositions.clear()
        rho = dec.reassemble().rho
        assert built == {"state": 1, "block": 0}
        # one eigvalsh of the weighted blocks, and no dense matrix
        assert decompositions == [(self.B, 2, 2)]
        assert "mat" not in vars(rho) and "mat" not in vars(rho._stack())

    def test_detect_decompose_builds_no_block_state(self, bs, built, tmp_path, capsys):
        path = tmp_path / "qq.json"
        statefile.save_state(path, bs)
        built.update(state=0, block=0)
        assert cli.main(["detect", "--decompose", "--json", str(path)]) == 0
        assert len(json.loads(capsys.readouterr().out)["blocks"]) == self.B
        assert built == {"state": 1, "block": 0}  # the state the file holds


@pytest.fixture
def abs_sizes(monkeypatch):
    """Sizes of the arrays passed to ``np.abs`` while the test runs."""
    sizes = []

    def counted(x, *args, _orig=np.abs, **kwargs):
        sizes.append(np.size(x))
        return _orig(x, *args, **kwargs)

    monkeypatch.setattr(np, "abs", counted)
    return sizes


class TestNonzeroBudget:
    """The certify path reads the nonzero entries validation kept: no
    modulus array is larger than the state's nonzero count."""

    @pytest.mark.parametrize("make", [
        lambda: pl.cnot_embed(pl.ginibre_density(64, 64, pl.RngState(9))),
        lambda: pl.random_canonical_pairing(2, 256, 124, pl.RngState(9), diag_weight=0.3),
    ], ids=["cnot_embed d=64", "pairing 2x256"])
    def test_certify_path_takes_moduli_of_nonzero_entries_only(self, abs_sizes, make):
        bs = make()
        nonzero = np.count_nonzero(bs.mat)
        assert nonzero < bs.dim ** 2 / 100
        abs_sizes.clear()
        assert pl.detect_canonical_pairing(bs) is not None
        pl.measure_report(bs)
        if bs.d_A == 2:
            pl.qubit_qudit_decompose(bs)
        else:
            with pytest.raises(pl.errors.NotQubit):
                pl.qubit_qudit_decompose(bs)
        assert abs_sizes and max(abs_sizes) <= nonzero


class TestCertificateCutoff:
    """A certificate is held to the cutoff it was detected at."""

    @staticmethod
    def noisy():
        # canonical at 1e-8 but not at the default 1e-10
        g = np.random.Generator(np.random.Philox(1))
        return noisy_bell(4, 0.25e-8 * g.random(120), g)

    def test_a_certificate_at_its_own_cutoff_is_taken(self):
        bs = self.noisy()
        cert = pl.detect_canonical_pairing(bs, 1e-8)
        assert cert.zero_tol == 1e-8 and pl.detect_canonical_pairing(bs) is None
        assert pl.ppt_cost_condition(bs, cert) == pl.negativity(bs)[1]
        assert pl.distillable_lower_bound(bs, cert, [(0, 1)]) == pytest.approx(1.0, abs=1e-6)
        assert pl.distill_witness(bs, cert, 0)[2] == pytest.approx(0.99999999901, abs=1e-11)

    @pytest.mark.parametrize("call", list(CERTIFIED))
    def test_a_cutoff_where_detection_fails_is_refused(self, call):
        bs = self.noisy()
        cert = dataclasses.replace(pl.detect_canonical_pairing(bs, 1e-8), zero_tol=1e-10)
        with pytest.raises(ConditionViolated, match="not that of this state"):
            CERTIFIED[call](bs, cert)

    @pytest.mark.parametrize("call", list(CERTIFIED))
    def test_another_states_certificate_at_the_cutoff_is_refused(self, call, rng):
        other = pl.random_canonical_pairing(4, 4, 2, rng, diag_weight=0.2)
        cert = pl.detect_canonical_pairing(other, 1e-8)
        assert cert.zero_tol == 1e-8 and cert.pairing_number == 2
        with pytest.raises(ConditionViolated, match="not that of this state"):
            CERTIFIED[call](self.noisy(), cert)

    def test_the_cutoff_is_no_part_of_the_structure(self, bell_state):
        at_default = pl.detect_canonical_pairing(bell_state)
        assert at_default.zero_tol == pl.pairing.ZERO_TOL
        assert pl.detect_canonical_pairing(bell_state, 1e-6) == at_default


class TestRemainderBound:
    def test_bound_decides_small_noise_without_svd(self, decompositions):
        g = np.random.Generator(np.random.Philox(1))
        bs = noisy_bell(4, 0.25e-8 * g.random(120), g)
        decompositions.clear()
        assert pl.detect_canonical_pairing(bs, 1e-8) is not None
        assert decompositions == []

    def test_svd_accepts_when_the_bound_cannot_decide(self, decompositions):
        # 2||R||_l1 is 1.6x the slack, the true gap C_l1 - N 0.7x
        g = np.random.Generator(np.random.Philox(1))
        bs = noisy_bell(6, 0.45e-8 * g.random(630), g)
        decompositions.clear()
        assert pl.detect_canonical_pairing(bs, 1e-8) is not None
        # the spectrum of rho^T_A, taken for a stack of the undecided states
        assert decompositions == [(1, 36, 36)]

    def test_a_trace_excess_alone_is_certified(self, monkeypatch, bell_state):
        # the Bell pair scaled by 1 + 8e-9, within the file tolerance: the
        # excess 8e-9 of sum |rho_ii| over 1 exceeds the slack 4e-9, so the
        # spectrum decides, and N - C_l1 is that excess
        bs = pl.BipartiteState(pl.DensityMatrix(bell_state.mat * (1 + 8e-9), 1e-8), 2, 2)
        taken, real = [], pl.linalg._Stack.take
        monkeypatch.setattr(pl.linalg._Stack, "take",
                            lambda self, keep: taken.append(keep.tolist()) or real(self, keep))
        assert pl.detect_canonical_pairing(bs) == pl.detect_canonical_pairing(bell_state)
        assert taken == [[0]]

    def test_a_trace_excess_does_not_hide_a_true_gap(self):
        # negative control: C_l1 - N of the noisy Bell pair is 1.5x the
        # slack, and scaling it by 1 + 5.4e-6 adds about as much to N - C_l1
        # through the trace; ||rho^T_A||_1 - ||rho^T_A||_l1 stays 1.5x the slack
        g = np.random.Generator(np.random.Philox(1))
        bs = noisy_bell(6, np.full(630, 0.495e-8), g)
        scaled = pl.BipartiteState(pl.DensityMatrix(bs.mat * (1 + 5.4e-6), 1e-3), 6, 6)
        slack = 10 * 1e-8 * 36
        n, _ = pl.negativity(scaled)
        assert abs(n - pl.c_l1(scaled.rho)) < 0.1 * slack
        assert pl.detect_canonical_pairing(scaled, 1e-8) is None
        assert svd_detect(scaled, 1e-8) is None

    def test_svd_rejects_a_true_gap_above_the_slack(self, decompositions):
        # every dropped entry just below the threshold: C_l1 - N is 1.5x the slack
        g = np.random.Generator(np.random.Philox(1))
        bs = noisy_bell(6, np.full(630, 0.495e-8), g)
        decompositions.clear()
        assert pl.detect_canonical_pairing(bs, 1e-8) is None
        assert svd_detect(bs, 1e-8) is None
        assert decompositions == [(1, 36, 36), (36, 36)]

    @given(
        seed=st.integers(0, 2**32 - 1),
        system=st.sampled_from([(2, 2, 1), (2, 4, 2), (3, 3, 3), (2, 8, 4), (3, 5, 4), (4, 4, 6)]),
        zero_tol=st.sampled_from([1e-10, 1e-8, 1e-6]),
        factor=st.sampled_from([0.5, 0.9, 0.99, 1.01, 1.1, 2.0]),
        positions=st.sampled_from([1, 3, None]),
    )
    @settings(max_examples=150, deadline=None)
    def test_bound_holds_and_decisions_match_the_svd_rule(
        self, seed, system, zero_tol, factor, positions
    ):
        d_a, d_b, max_pairs = system
        rng = pl.RngState(seed)
        g = rng.generator
        bs = pl.random_canonical_pairing(d_a, d_b, int(g.integers(0, max_pairs + 1)), rng)
        bs = with_noise(bs, factor * zero_tol * float(np.max(np.abs(bs.mat))), positions, g)

        cert = pl.detect_canonical_pairing(bs, zero_tol)
        want = svd_detect(bs, zero_tol)
        assert (cert is None) == (want is None)
        if cert is not None:
            assert (cert.transpositions, cert.fixed_points) == want

        pt = pl.partial_transpose(bs)
        kept = np.abs(pt) > zero_tol * float(np.max(np.abs(pt)))
        if kept.sum(axis=0).max() <= 1 and kept.sum(axis=1).max() <= 1:
            r_l1 = float(np.abs(pt[~kept]).sum())
            n = float(np.linalg.svd(pt, compute_uv=False).sum()) - 1.0
            assert -1e-12 <= pl.c_l1(bs.rho) - n <= 2 * r_l1 + 1e-12
