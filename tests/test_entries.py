"""States built from their entries: the same spectrum, pattern, error and
file bytes as the dense constructor on the same matrix, with the dense
``mat`` built only on demand."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairinglab as pl
from pairinglab import statefile
from pairinglab.constructions import MCSpec
from pairinglab.errors import InvalidCoeffs, ValidationError
from test_linalg import PARITY_KINDS, parity_input
from test_statefile import sparse_states

REPO = Path(__file__).resolve().parent.parent


def outcome(build):
    try:
        return build()
    except ValidationError as exc:
        return str(exc)


def listed(m: np.ndarray, explicit_zeros: np.ndarray):
    """(flat indices, values) of the entries of ``m`` that are not +0.0,
    plus the +0.0 entries at the flat indices ``explicit_zeros``."""
    bits = m.reshape(-1).view(np.uint64).reshape(-1, 2)
    at = np.union1d(np.flatnonzero(bits.any(axis=1)), np.asarray(explicit_zeros, dtype=np.intp))
    return at, m.reshape(-1)[at]


def assert_same_state(got, want):
    assert got.dim == want.dim and got.validation_tol == want.validation_tol
    assert got._ascending().tobytes() == want._ascending().tobytes()
    flat, want_flat = got._stack().flat, want._stack().flat
    assert (flat is None) == (want_flat is None)
    assert flat is None or np.array_equal(flat, want_flat)
    assert statefile._state_text(got, None) == statefile._state_text(want, None)
    assert got.mat.tobytes() == want.mat.tobytes()  # signed zeros included


class TestEntriesParity:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9),
           kind=st.sampled_from(PARITY_KINDS), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_state_or_error_as_the_dense_constructor(self, seed, n, kind, data):
        g = np.random.Generator(np.random.Philox(seed))
        m, tol = parity_input(kind, n, g)
        m = m.astype(complex)
        if data.draw(st.booleans()):  # drop coherence pairs, keeping m Hermitian
            drop = np.triu(g.random((n, n)) < 0.5, 1)
            m[drop | drop.T] = 0
        zeros = np.flatnonzero(m.reshape(-1) == 0)
        if zeros.size and data.draw(st.booleans()):  # signed zeros, out of the pattern
            m.reshape(-1)[g.choice(zeros, size=(zeros.size + 1) // 2, replace=False)] = -0.0
        explicit = g.choice(zeros, size=zeros.size // 2, replace=False) if zeros.size else zeros
        want = outcome(lambda: pl.DensityMatrix(m, tol))
        got = outcome(lambda: pl.DensityMatrix.from_entries(n, *listed(m, explicit), tol))
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_state(got, want)

    @given(state=sparse_states(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_unvalidated_states_write_the_same_bytes(self, state, data):
        rho = state.rho if isinstance(state, pl.BipartiteState) else state
        zeros = np.flatnonzero(rho.mat.reshape(-1) == 0)
        explicit = data.draw(st.lists(st.sampled_from(zeros.tolist()), unique=True)) \
            if zeros.size else []
        got = pl.DensityMatrix.from_entries(rho.dim, *listed(rho.mat, explicit), math.inf)
        assert_same_state(got, rho)

    def test_files_with_signed_and_explicit_zeros(self, tmp_path):
        # -0.0 and [i, j, 0.0, 0.0] entries stay out of the pattern; the
        # writer keeps the -0.0 entries and drops the +0.0 ones
        text = ('{"dims": [2, 2], "entries": [[0, 0, 0.5, 0.0], [0, 1, -0.0, 0.0],'
                ' [0, 3, 0.25, 0.0], [1, 1, 0.0, 0.0], [1, 2, 0.0, -0.0], [2, 2, 0.0, 0.0],'
                ' [3, 0, 0.25, 0.0], [3, 3, 0.5, 0.0]]}')
        path = tmp_path / "zeros.json"
        path.write_text(text)
        state = statefile.load_state(path)
        assert np.array_equal(state.rho._stack().flat, [0, 3, 12, 15])
        assert "mat" not in vars(state.rho)
        doc = statefile.state_document(state)
        assert doc["entries"] == [[0, 0, 0.5, 0.0], [0, 1, -0.0, 0.0], [0, 3, 0.25, 0.0],
                                  [1, 2, 0.0, -0.0], [3, 0, 0.25, 0.0], [3, 3, 0.5, 0.0]]
        assert [math.copysign(1, e[2]) for e in doc["entries"]][1] == -1.0
        dense = pl.DensityMatrix(state.mat, statefile.FILE_TOL)
        assert_same_state(state.rho, dense)
        assert pl.measure_report(state).entries == pl.measure_report(
            pl.BipartiteState(dense, 2, 2)).entries

    def test_entry_lists_are_checked(self):
        for flat, values in (([1, 0], [0.5, 0.5]), ([0, 4], [0.5, 0.5]), ([-1], [1.0]),
                             ([0, 0], [0.5, 0.5]), ([0], [0.5, 0.5])):
            with pytest.raises(ValidationError):
                pl.DensityMatrix.from_entries(2, flat, values)
        with pytest.raises(ValueError):
            pl.DensityMatrix.from_entries(1, [0], [np.nan])


class TestDenseOnDemand:
    def test_loading_measuring_and_saving_build_no_dense_matrix(self, tmp_path):
        bs = pl.cnot_embed(pl.ginibre_density(6, 6, pl.RngState(2)))
        chain = pl.appendix_a_chain(pl.DensityMatrix(np.ones((3, 3)) / 3), 1)
        qq = pl.make_qubit_qudit_pairing(
            0.2, [0.5, 0, 0, 0, 0.5, 0, 0, 0], [(0.8, np.array([[0.6, 0.3], [0.3, 0.4]]), (1, 2))])
        for state in (bs, chain.rho2, chain.rho3, chain.rho4, qq):
            statefile.save_state(tmp_path / "s.json", state)
            loaded = statefile.load_state(tmp_path / "s.json")
            pl.measure_report(loaded)
            repr(loaded)
            if isinstance(loaded, pl.BipartiteState):
                cert = pl.detect_canonical_pairing(loaded)
                pl.distillable_lower_bound(loaded, cert, [(0, 1)])
                if loaded.d_A == 2:
                    pl.pairing_measures(pl.qubit_qudit_decompose(loaded, cert=cert))
            for s in (state, loaded):
                rho = s.rho if isinstance(s, pl.BipartiteState) else s
                assert "mat" not in vars(rho) and "mat" not in vars(rho._stack())
        m = bs.mat  # built on first access, then kept
        assert m is bs.mat and np.shares_memory(m, bs.rho._stack().mat)

    def test_cnot_embed_at_d_128_under_a_2_gib_address_space(self):
        # the dense output would be 16384 x 16384 complex entries, 4 GiB
        resource = pytest.importorskip("resource")
        child = (
            "import pairinglab as pl\n"
            "bs = pl.cnot_embed(pl.ginibre_density(128, 128, pl.RngState(3)))\n"
            "cert = pl.detect_canonical_pairing(bs)\n"
            "rep = pl.measure_report(bs)\n"
            "assert cert.pairing_number == 128 * 127 // 2, cert.pairing_number\n"
            "assert abs(rep.entries['N'] - rep.entries['C_l1']) <= 1e-9, rep.entries\n"
            "assert 'mat' not in vars(bs.rho) and 'mat' not in vars(bs.rho._stack())\n"
        )

        def limit():  # in the child only
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(REPO / "src")}
        proc = subprocess.run([sys.executable, "-c", child], env=env, preexec_fn=limit,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr


def test_detection_of_an_entry_list_agrees_with_the_dense_state(rng, monkeypatch):
    # a trace of 1 + 5e-7 sends detection to its spectrum check, which reads
    # the undecided matrix off the entry list
    m = pl.random_canonical_pairing(2, 6, 2, rng, diag_weight=0.3).mat * (1 + 5e-7)
    flat = np.flatnonzero(m)
    sparse = pl.BipartiteState(pl.DensityMatrix.from_entries(12, flat, m.reshape(-1)[flat], 1e-6),
                               2, 6)
    dense = pl.BipartiteState(pl.DensityMatrix(m, 1e-6), 2, 6)
    taken, real = [], pl.measures._pt_spectrum
    monkeypatch.setattr(pl.measures, "_pt_spectrum",
                        lambda stack, dims: taken.append(stack) or real(stack, dims))
    cert = pl.detect_canonical_pairing(sparse)
    assert taken == [sparse.rho._stack()] and taken[0].listed is not None
    assert cert is not None and cert == pl.detect_canonical_pairing(dense)


class TestOneRoute:
    """The constructions and the state files validate what they build by
    ``linalg._checked``, through ``DensityMatrix._of_entries`` or, for a
    direct sum, ``DensityMatrix._of_blocks``."""

    QQ = (0.2, [0.5, 0, 0, 0, 0.5, 0, 0, 0], [(0.8, np.array([[0.6, 0.3], [0.3, 0.4]]), (1, 2))])

    def test_the_constructions_validate_by_checked(self, monkeypatch):
        rho = pl.DensityMatrix(np.ones((3, 3)) / 3)
        seen, real = [], pl.linalg._checked

        def spy(stack, tols, spectra=None):
            seen.append((stack.shape, spectra is not None))
            return real(stack, tols, spectra)

        monkeypatch.setattr(pl.linalg, "_checked", spy)
        qq = pl.make_qubit_qudit_pairing(*self.QQ)
        # the coefficient stack, then the state, handed its blocks' spectrum
        assert seen == [((1, 2, 2), False), ((1, 8, 8), True)]
        dec = pl.qubit_qudit_decompose(qq)
        seen.clear()
        dec.reassemble()
        assert seen == [((1, 8, 8), True)]
        seen.clear()
        chain = pl.appendix_a_chain(rho, 1)
        # each direct sum handing over the spectrum of its distinct blocks
        assert seen == [((1, r.dim, r.dim), True) for r in (chain.rho2, chain.rho3, chain.rho4)]

    def test_loading_checks_the_entries_once(self, tmp_path, monkeypatch):
        qq = pl.make_qubit_qudit_pairing(*self.QQ)
        statefile.save_state(tmp_path / "qq.json", qq)

        def twice(*args):
            raise AssertionError("the parsed entries were checked again")

        monkeypatch.setattr(pl.DensityMatrix, "from_entries", classmethod(twice))
        assert_same_state(statefile.load_state(tmp_path / "qq.json").rho,
                          pl.DensityMatrix(qq.mat, statefile.FILE_TOL))


class TestEmptyMatrix:
    @pytest.mark.parametrize("tol", [1e-9, 0.5, 1.0, 10.0, math.inf])
    def test_is_a_validation_error_at_every_tolerance(self, tol):
        message = "density matrix must be at least 1 x 1, got 0 x 0"
        for build in (lambda: pl.DensityMatrix(np.zeros((0, 0)), tol),
                      lambda: pl.DensityMatrix.from_entries(0, [], [], tol),
                      lambda: pl.linalg._validated_stack(np.zeros((2, 0, 0)), tol)):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                build()


def _array_holders():
    c = np.array([[0.5, 0.3], [0.3, 0.5]])
    qq = pl.make_qubit_qudit_pairing(0.0, np.zeros(4), [(1.0, c, (0, 1))])
    return [
        lambda: MCSpec(c, (0, 1), (0, 1)),
        lambda: pl.uvw_triple(np.eye(2)),
        lambda: pl.appendix_a_chain(pl.DensityMatrix(np.ones((2, 2)) / 2), 1),
        lambda: pl.named_counterexample("tau-remark"),
        lambda: pl.qubit_qudit_decompose(qq),
    ]


class TestIdentitySemantics:
    @pytest.mark.parametrize("make", _array_holders(),
                             ids=["MCSpec", "MajorizationTriple", "AppendixAChain",
                                  "Counterexample", "QubitQuditDecomposition"])
    def test_compare_and_hash_by_identity(self, make):
        a, b = make(), make()
        assert a == a and a != b and not (a == b)
        assert hash(a) == hash(a) and len({a, b, a}) == 2


def dense_pairing(p0, diag, blocks):
    """The qubit-qudit pairing matrix, assembled densely, block by block."""
    d_b = len(diag) // 2
    m = np.zeros((2 * d_b, 2 * d_b), dtype=complex)
    if p0 > 0:
        m += p0 * np.diag(np.asarray(diag, dtype=float).astype(complex))
    for p, c, (k0, k1) in blocks:
        idx = [k0, d_b + k1]
        m[np.ix_(idx, idx)] += p * np.asarray(c, dtype=complex)
    return m


def per_block_fault(blocks):
    """The error block-by-block checks of the coefficients raise first."""
    for _, coeffs, _ in blocks:
        try:
            c = pl.linalg.as_complex_matrix(coeffs)
        except (TypeError, ValueError) as exc:
            return type(exc), str(exc)
        if c.shape != (2, 2):
            return InvalidCoeffs, f"block coefficients must be 2x2, got shape {c.shape}"
        try:
            pl.DensityMatrix(c, pl.linalg.DEFAULT_TOL)
        except ValidationError as exc:
            return InvalidCoeffs, str(exc)
    return None


COEFF_KINDS = ["mixed", "pure", "no coherence", "one level", "complex"]


def coefficient_block(kind, g):
    a = float(g.uniform(0.05, 0.95))
    if kind == "pure":
        return np.array([[a, np.sqrt(a * (1 - a))], [np.sqrt(a * (1 - a)), 1 - a]])
    if kind == "no coherence":
        return np.diag([a, 1 - a])
    if kind == "one level":
        return np.diag([1.0, 0.0]) if g.random() < 0.5 else np.diag([0.0, 1.0])
    x = float(g.uniform(0.0, 1.0)) * np.sqrt(a * (1 - a))
    phase = np.exp(2j * np.pi * g.random()) if kind == "complex" else 1.0
    return np.array([[a, x * phase], [x * np.conj(phase), 1 - a]])


class TestQubitQuditPairing:
    @given(seed=st.integers(0, 2**32 - 1), d_b=st.integers(1, 10),
           kinds=st.lists(st.sampled_from(COEFF_KINDS), max_size=5),
           p0=st.sampled_from([0.0, 0.3, 1.0]), negative=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_same_state_or_error_as_the_dense_constructor(self, seed, d_b, kinds, p0, negative):
        g = np.random.Generator(np.random.Philox(seed))
        kinds = kinds[:d_b // 2] if p0 < 1.0 else []
        if not kinds:
            p0 = 1.0
        cols = g.permutation(d_b)
        weights = (1.0 - p0) * g.dirichlet(np.ones(len(kinds))) if kinds else []
        blocks = [(float(p), coefficient_block(kind, g), (int(cols[2 * i]), int(cols[2 * i + 1])))
                  for i, (p, kind) in enumerate(zip(weights, kinds))]
        free = [a * d_b + k for a in (0, 1) for k in cols[2 * len(kinds):]]
        diag = np.zeros(2 * d_b)
        if free:
            diag[free] = g.dirichlet(np.ones(len(free)))
            if negative and len(free) > 1:  # still normalized, but not PSD
                diag[free[0]] += 0.5
                diag[free[1]] -= 0.5
        elif p0 > 0:
            p0 = 0.0 if kinds else p0
        want = outcome(lambda: pl.DensityMatrix(dense_pairing(p0, diag, blocks)))
        try:
            got = pl.make_qubit_qudit_pairing(p0, diag, blocks).rho
        except ValidationError as exc:
            got = str(exc)
        except pl.errors.PairingLabError:
            return  # a weight or support check before any matrix is built
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_state(got, want)

    @pytest.mark.parametrize("coeffs", [
        [np.diag([0.6, 0.4]), np.array([[0.5, 0.1], [0.0, 0.5]]), np.eye(3) / 3],
        [np.diag([0.6, 0.4]), np.eye(3) / 3, np.array([[0.5, 0.1], [0.0, 0.5]])],
        [np.array([[0.5, 0.6], [0.6, 0.5]]), np.array([[np.nan, 0], [0, 1.0]])],
        [np.array([[np.nan, 0], [0, 1.0]]), np.array([[0.5, 0.6], [0.6, 0.5]])],
        [np.diag([0.6, 0.4]), np.diag([0.7, 0.3]), np.diag([1.2, -0.2])],
        [[[0.5, 0.0], [0.0, 0.5]], [0.5, 0.5], np.diag([0.5, 0.6])],
    ])
    def test_one_stacked_check_keeps_the_first_faulty_blocks_error(self, coeffs):
        blocks = [(1.0 / len(coeffs), c, (2 * i, 2 * i + 1)) for i, c in enumerate(coeffs)]
        want_type, want = per_block_fault(blocks)
        with pytest.raises(want_type) as err:
            pl.make_qubit_qudit_pairing(0.0, np.zeros(4 * len(coeffs)), blocks)
        assert str(err.value) == want

    def test_validates_the_blocks_in_one_stack(self, decompositions):
        c = np.array([[0.6, 0.2j], [-0.2j, 0.4]])
        blocks = [(1 / 6, c, (2 * i, 2 * i + 1)) for i in range(6)]
        decompositions.clear()
        pl.make_qubit_qudit_pairing(0.0, np.zeros(24), blocks)
        # the coefficients' stack, then the weighted blocks' stack
        assert decompositions == [(6, 2, 2), (6, 2, 2)]

    def test_lays_out_its_blocks_without_a_component_scan(self, decompositions, monkeypatch):
        # the sum is built block by block, so no label propagation over the
        # 24 rows finds the blocks again
        def scanned(*args):
            raise AssertionError("the sum's components were scanned")

        monkeypatch.setattr(pl.linalg, "_component_spectrum", scanned)
        c = np.array([[0.6, 0.2j], [-0.2j, 0.4]])
        diag = np.zeros(24)
        diag[[10, 23]] = 0.5  # |0 10> and |1 11>
        blocks = [(0.1, c, (2 * i, 2 * i + 1)) for i in range(5)]
        decompositions.clear()
        pl.make_qubit_qudit_pairing(0.5, diag, blocks)
        assert decompositions == [(5, 2, 2), (5, 2, 2)]
