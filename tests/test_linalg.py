import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairinglab as pl
from pairinglab import statefile
from pairinglab.errors import (
    NegativeEigenvalue,
    OutOfRange,
    ValidationError,
)
from conftest import own_part, random_density


def pt_spectrum(x, dims):
    """``measures._pt_spectrum`` of a matrix or stack, scanned for its pattern."""
    return pl.measures._pt_spectrum(pl.linalg._Stack.of(x), dims)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            pl.DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            pl.DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            pl.DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            pl.DensityMatrix(np.array([[np.nan, 0], [0, 1.0]]))

    def test_cached_spectrum_matches_fresh_eigvalsh(self):
        rho = random_density(21, 7)
        fresh = np.linalg.eigvalsh((rho.mat + rho.mat.conj().T) / 2)
        assert np.array_equal(rho.eigenvalues(), fresh[::-1])

    def test_spectrum_is_not_recomputed(self, decompositions):
        rho = random_density(22, 6)
        assert decompositions == [(1, 6, 6)]  # validation
        rho.eigenvalues()
        pl.von_neumann_entropy(rho)
        pl.c_rel_entropy(rho)
        assert decompositions == [(1, 6, 6)]

    @pytest.mark.parametrize("m", [np.array([[0.5, 1e-3], [0.0, 0.5]]), np.eye(3)],
                             ids=["not hermitian", "off trace"])
    def test_a_cheap_failure_takes_no_spectrum(self, m, decompositions):
        with pytest.raises(ValidationError, match="not Hermitian|not unit trace"):
            pl.DensityMatrix(m)
        with pytest.raises(ValidationError, match="not Hermitian|not unit trace"):
            pl.linalg._validated_stack([m, np.eye(len(m)) / len(m)], pl.linalg.DEFAULT_TOL)
        assert decompositions == []

    def test_states_compare_and_hash_by_identity(self):
        a, b = pl.DensityMatrix(np.eye(2) / 2), pl.DensityMatrix(np.eye(2) / 2)
        assert a == a and a != b and not (a == b)
        assert {a, b, a} == {a, b} and len({a, b}) == 2
        sa, sb = pl.BipartiteState(a, 1, 2), pl.BipartiteState(a, 1, 2)
        assert sa == sa and sa != sb and len({sa, sb, sa}) == 2

    def test_writes_to_eigenvalues_do_not_reach_the_cache(self):
        rho = random_density(23, 5)
        spectrum, entropy = rho.eigenvalues(), pl.von_neumann_entropy(rho)
        rho.eigenvalues()[:] = 0.2
        assert np.array_equal(rho.eigenvalues(), spectrum)
        assert pl.von_neumann_entropy(rho) == entropy


def dense_outcome(mats, tols):
    """Each matrix through the dense constructor, in order: the first
    error message, or the validated states."""
    try:
        return [pl.DensityMatrix(m, t) for m, t in zip(mats, tols)]
    except ValidationError as exc:
        return str(exc)


class TestValidatedStack:
    """``linalg._validated_stack`` checks each matrix of a stack as the
    dense constructor checks it alone."""

    @staticmethod
    def stack(seed=3, n=6, d=4):
        return np.array([random_density(seed + i, d).mat for i in range(n)])

    def test_spectra_match_dense_validation(self, decompositions):
        mats = self.stack()
        tols = np.linspace(1e-9, 1e-6, len(mats))
        decompositions.clear()
        stack, spectra = pl.linalg._validated_stack(mats, tols)
        assert decompositions == [mats.shape]
        for m, lam, want in zip(stack.mat, spectra, dense_outcome(mats, tols)):
            assert m.tobytes() == want.mat.tobytes()
            assert lam[::-1].tobytes() == want.eigenvalues().tobytes()

    @pytest.mark.parametrize("case", ["non-psd", "off-trace", "non-hermitian", "negative tol"])
    def test_first_failure_raises_the_dense_message(self, case):
        mats, tols = self.stack(), np.full(6, 1e-9)
        for t in (2, 4):  # two bad matrices: the first one is reported
            if case == "non-psd":
                mats[t] = np.diag([0.7, 0.5, 0.0, -0.2 * t / 2])
            elif case == "off-trace":
                mats[t, 0, 0] += 1e-6 * t
            elif case == "non-hermitian":
                mats[t, 0, 1] += 1e-6 * t
            else:
                tols[t] = -1.0
        with pytest.raises(ValidationError) as err:
            pl.linalg._validated_stack(mats, tols)
        assert str(err.value) == dense_outcome(mats, tols)

    def test_each_matrix_at_its_own_tolerance(self):
        mats = self.stack(n=2)
        mats[1, 0, 1] += 1e-7  # a Hermiticity defect of 1e-7
        with pytest.raises(ValidationError, match="not Hermitian"):
            pl.linalg._validated_stack(mats, [1e-6, 1e-8])
        assert len(pl.linalg._validated_stack(mats, [1e-8, 1e-6])[0]) == 2

    def test_empty_and_malformed_stacks(self):
        tol = pl.linalg.DEFAULT_TOL
        stack, spectra = pl.linalg._validated_stack(np.zeros((0, 3, 3)), tol)
        assert len(stack) == 0 and spectra.shape == (0, 3)
        with pytest.raises(ValidationError):
            pl.linalg._validated_stack(np.zeros((2, 2, 3)), tol)
        with pytest.raises(ValidationError):
            pl.linalg._validated_stack(np.eye(2) / 2, tol)
        with pytest.raises(ValueError, match="NaN or Inf"):
            pl.linalg._validated_stack(np.full((1, 2, 2), np.nan), tol)


def stack_of(kind, dims, count=24):
    """``count`` states on ``dims``: full ones ("dense"), canonical pairing
    and tridiagonal ones ("sparse", no full row), or both, interleaved."""
    rng = pl.RngState(17)
    n = dims[0] * dims[1]
    mats = []
    for t in range(count):
        if kind == "dense" or (kind == "mixed" and t % 3 == 0):
            mats.append(pl.random_bipartite_state(*dims, rng).mat)
        elif t % 2:
            mats.append(pl.random_canonical_pairing(*dims, 1 + t % 3, rng, diag_weight=0.2).mat)
        else:  # one connected component, and no full row
            x = np.diag(rng.generator.uniform(1.0, 2.0, n)).astype(complex)
            x[np.arange(n - 1), np.arange(1, n)] = rng.generator.uniform(-0.4, 0.4, n - 1)
            x = x + np.triu(x, 1).conj().T
            mats.append(x / x.trace().real)
    return np.array(mats)


@pytest.mark.parametrize("kind", ["dense", "sparse", "mixed"])
@pytest.mark.parametrize("dims", [(3, 3), (2, 6)])
def test_spectra_are_the_same_alone_or_stacked(kind, dims):
    # the validated spectrum and that of rho^T_A of each matrix of a stack,
    # bit for bit those the matrix gets on its own
    mats = stack_of(kind, dims)
    _, spectra = pl.linalg._validated_stack(mats, pl.linalg.DEFAULT_TOL)
    pt = pt_spectrum(mats, dims)
    for t, m in enumerate(mats):
        alone = pl.BipartiteState(pl.DensityMatrix(m), *dims)
        assert spectra[t].tobytes() == alone.rho._ascending().tobytes()
        assert pt[t].tobytes() == pl.measures._pt_spectrum(alone.rho._stack(), dims)[0].tobytes()
        assert pt[t].tobytes() == pt_spectrum(m[None], dims)[0].tobytes()


def dense_validation(m, tol, monkeypatch):
    """The outcome of ``DensityMatrix(m, tol)`` with the spectrum taken by
    one eigvalsh of the whole matrix: the error message, or the state."""
    with monkeypatch.context() as patch:
        patch.setattr(pl.linalg, "_spectra",
                      lambda stack, flat: pl.linalg._hermitian_spectrum(stack.mat))
        try:
            return pl.DensityMatrix(m, tol)
        except ValidationError as exc:
            return str(exc)


# rows of the scattered test states
ROWS = 32


def scattered_state(lowest=None, extra=None, rows=ROWS):
    """A direct sum up to a permutation: a 2x2 block on rows (5, 2) whose
    smallest eigenvalue is ``lowest`` (0.02 by default), a 3x3 block on
    rows (0, 3, 6), the diagonal entries of rows 1 and 4, and zero rows
    up to ``rows``; ``extra`` is added entrywise."""
    s = 0.02 if lowest is None else lowest
    m = np.zeros((rows, rows), dtype=complex)
    m[np.ix_([5, 2], [5, 2])] = [[0.1, 0.1 - s], [0.1 - s, 0.1]]  # eigenvalues s, 0.2 - s
    q, _ = np.linalg.qr(np.array([[1.0, 2.0, 0.5], [0.3, 1.0, 2.0], [2.0, 0.1, 1.0]]))
    m[np.ix_([0, 3, 6], [0, 3, 6])] = (q * [0.1, 0.2, 0.3]) @ q.T
    m[1, 1], m[4, 4] = 0.15, 0.05
    return m if extra is None else m + extra


class TestComponentValidation:
    """The dense constructor takes the spectrum block by block over the
    components of the nonzero pattern, with the dense verdicts."""

    TOL = 1e-8

    @pytest.mark.parametrize("case", ["psd", "just above -tol", "just below -tol",
                                      "non-hermitian in a block", "one-sided entry",
                                      "joined blocks", "off-trace"])
    def test_same_verdict_and_spectrum_as_dense(self, case, decompositions, monkeypatch):
        extra = np.zeros((ROWS, ROWS), dtype=complex)
        lowest = None
        if case == "just above -tol":
            lowest = -self.TOL * (1 - 1e-3)
        elif case == "just below -tol":
            lowest = -self.TOL * (1 + 1e-3)
        elif case == "non-hermitian in a block":
            extra[0, 6] = 1e-6
        elif case == "one-sided entry":
            extra[1, 4] = 1e-12  # a Hermiticity defect below the tolerance
        elif case == "joined blocks":
            extra[1, 4] = extra[4, 1] = 0.01
        elif case == "off-trace":
            extra[4, 4] = 1e-6
        m = scattered_state(lowest, extra)
        want = dense_validation(m, self.TOL, monkeypatch)
        decompositions.clear()
        try:
            got = pl.DensityMatrix(m, self.TOL)
        except ValidationError as exc:
            got = str(exc)
        rejected = case in ("just below -tol", "non-hermitian in a block", "off-trace")
        assert isinstance(want, str) == rejected
        if rejected:
            assert got == want
            return
        assert got.mat.tobytes() == want.mat.tobytes()
        assert np.allclose(got.eigenvalues(), want.eigenvalues(), rtol=0, atol=1e-15)
        assert max(shape[-1] for shape in decompositions) == 3  # no dense eigvalsh

    def test_a_one_sided_entry_joins_its_rows(self, decompositions, monkeypatch):
        # m[1, 4] alone puts 2.5e-4 on both sides of the Hermitian part
        m = scattered_state()
        m[1, 4] = 5e-4
        want = dense_validation(m, 1e-3, monkeypatch)
        decompositions.clear()
        got = pl.DensityMatrix(m, 1e-3)
        assert np.allclose(got.eigenvalues(), want.eigenvalues(), rtol=0, atol=1e-15)
        assert sorted(decompositions) == [(1, 3, 3), (2, 2, 2)]

    def test_a_chain_component(self, decompositions, monkeypatch):
        m = np.zeros((ROWS, ROWS), dtype=complex)
        m[[1, 2, 4, 7], [1, 2, 4, 7]] = 0.05
        chain = [6, 0, 3, 5]  # 6 - 0 - 3 - 5, with no entry between its ends
        m[chain, chain] = 0.2
        for a, b, x in zip(chain, chain[1:], [0.05, 0.05j, 0.05]):
            m[a, b], m[b, a] = x, np.conj(x)
        want = dense_validation(m, 1e-9, monkeypatch)
        decompositions.clear()
        got = pl.DensityMatrix(m, 1e-9)
        assert decompositions == [(1, 4, 4)]
        assert np.allclose(got.eigenvalues(), want.eigenvalues(), rtol=0, atol=1e-15)

    def test_one_batched_eigvalsh_per_component_size(self, decompositions):
        for rows in (7, ROWS):  # rows 1 and 4 are their own components
            decompositions.clear()
            pl.DensityMatrix(scattered_state(rows=rows))
            assert sorted(decompositions) == [(1, 2, 2), (1, 3, 3)]

    def test_small_connected_or_full_patterns_take_one_eigvalsh(self, decompositions):
        for rows in (12, 40):
            step = np.diag(np.full(rows - 1, 0.01), 1)
            pl.DensityMatrix(np.eye(rows) / rows + step + step.T)  # connected, no full row
            full = np.eye(rows) / rows
            full[0, 1:] = full[1:, 0] = 0.1 / rows  # row 0 full, the others not
            pl.DensityMatrix(full)
        assert decompositions == [(1, 12, 12), (1, 12, 12), (1, 40, 40), (1, 40, 40)]

    def test_a_hollow_pair_is_rejected_with_the_dense_message(self, decompositions):
        # [[0, x], [x*, 0]] on rows (5, 2) has the eigenvalue -|x|
        m = scattered_state()
        m[np.ix_([5, 2], [5, 2])] = [[0, 0.03 + 0.04j], [0.03 - 0.04j, 0]]
        m[1, 1] += 0.2
        _, want = one_eigvalsh_reference(m, 1e-9)
        assert want == "smallest eigenvalue -5.000e-02 below -1.000e-09"
        decompositions.clear()
        with pytest.raises(ValidationError) as err:
            pl.DensityMatrix(m, 1e-9)
        assert str(err.value) == want
        assert decompositions == [(1, 3, 3)]  # the pair is read off its entries

    def test_diagonal_and_zero_rows(self, decompositions):
        m = np.zeros((ROWS, ROWS), dtype=complex)
        m[:5, :5] = np.diag([0.5, 0.0, 0.25, -0.0, 0.25 - 1e-300j])
        rho = pl.DensityMatrix(m)
        assert decompositions == []  # a row of its own is its diagonal entry
        assert np.array_equal(rho.eigenvalues(), np.linalg.eigvalsh(m)[::-1])


def one_eigvalsh_reference(m, tol):
    """(dense Hermiticity defect, verdict) of ``m`` at ``tol``, with the
    spectrum taken by one eigvalsh of the whole matrix: the verdict is the
    error message or the ascending spectrum."""
    defect = np.max(np.abs(m - m.conj().T))
    if defect > tol:
        return defect, f"not Hermitian: max |M - M^dag| = {defect:.3e} > {tol:.3e}"
    gap = abs(m.trace() - 1)
    if gap > tol:
        return defect, f"not unit trace: |tr - 1| = {gap:.3e} > {tol:.3e}"
    lam = np.linalg.eigvalsh((m + m.conj().T) / 2)
    if lam[0] < -tol:
        return defect, f"smallest eigenvalue {lam[0]:.3e} below -{tol:.3e}"
    return defect, lam


def permuted_direct_sum(g, rows, lowest=None):
    """A unit-trace direct sum of Hermitian blocks of 1-4 rows on random
    disjoint rows of a ``rows``-row matrix, zero elsewhere, and the blocks'
    row lists; with ``lowest``, one block eigenvalue is ``lowest``."""
    sizes = []
    while sum(sizes) < rows:
        sizes.append(int(min(g.integers(1, 5), rows - sum(sizes))))
    sizes = sizes[:int(g.integers(1, len(sizes) + 1))]  # the rest stay zero
    ev = g.random(sum(sizes)) + 0.05
    ev /= ev.sum()
    if lowest is not None and ev.size > 1:
        ev[1:] *= (1 - lowest) / ev[1:].sum()
        ev[0] = lowest
    g.shuffle(ev)
    perm = g.permutation(rows)
    m = np.zeros((rows, rows), dtype=complex)
    supports, start = [], 0
    for s in sizes:
        q, _ = np.linalg.qr(g.standard_normal((s, s)) + 1j * g.standard_normal((s, s)))
        idx = perm[start:start + s]
        m[np.ix_(idx, idx)] = (q * ev[start:start + s]) @ q.conj().T
        supports.append(idx)
        start += s
    return m, supports


class TestOneScan:
    """The constructor's one nonzero scan gives the dense Hermiticity
    defect bit for bit, and the verdict, message and spectrum of one
    eigvalsh of the whole matrix."""

    TOL = 1e-8

    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 48),
           case=st.sampled_from(["psd", "one-sided entry", "joining entry",
                                 "non-hermitian in a block", "just above -tol",
                                 "just below -tol"]))
    @settings(max_examples=300, deadline=None)
    def test_same_defect_verdict_and_spectrum_as_one_eigvalsh(self, seed, rows, case):
        g = np.random.Generator(np.random.Philox(seed))
        lowest = {"just above -tol": -self.TOL * (1 - 1e-3),
                  "just below -tol": -self.TOL * (1 + 1e-3)}.get(case)
        m, supports = permuted_direct_sum(g, rows, lowest)
        i, j = g.choice(rows, size=2) if rows > 1 else (0, 0)
        phase = np.exp(2j * np.pi * g.random())
        if case == "one-sided entry" and m[i, j] == 0:  # below or above the tolerance
            m[i, j] = g.choice([1e-12, 1e-6]) * phase
        elif case == "joining entry" and m[i, j] == 0:
            m[i, j], m[j, i] = 0.01 * phase, 0.01 * np.conj(phase)
        elif case == "non-hermitian in a block" and len(supports[0]) > 1:
            a, b = supports[0][:2]
            m[a, b] += g.choice([1e-10, 1e-6]) * phase

        defects = []
        reject = pl.linalg._reject

        def spy(tols, herm_defects, *rest):
            defects.append(herm_defects[0])
            return reject(tols, herm_defects, *rest)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pl.linalg, "_reject", spy)
            try:
                got = pl.DensityMatrix(m, self.TOL)
            except ValidationError as exc:
                got = str(exc)
        defect, want = one_eigvalsh_reference(m, self.TOL)
        assert defects and all(d == defect for d in defects)
        if isinstance(want, str):
            assert got == want
        else:
            scale = max(1.0, float(np.max(np.abs(m))))
            assert np.max(np.abs(got._ascending() - want)) <= 1e-15 * scale


def parent_component_spectrum(m, rows, cols):
    """The component spectrum of the validation that ``_checked`` replaced,
    frozen: ``m`` is one n x n matrix whose nonzero entries are at
    (``rows``, ``cols``)."""
    n = m.shape[-1]
    stack = m.reshape(-1, n, n)
    rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    label = np.arange(stack.shape[0] * n)
    while True:
        np.minimum.at(label, rows, label[cols])
        label = label[label]
        if np.array_equal(label[rows], label[cols]):
            break
    size = np.bincount(label)[label]
    if size.min() == n:
        return np.linalg.eigvalsh((m + m.conj().swapaxes(-1, -2)) / 2)
    order = np.lexsort((label, size))
    nodes_of_size = np.bincount(size)
    parts, owners, start = [], [], 0
    for s in np.flatnonzero(nodes_of_size).tolist():
        idx = order[start:start + nodes_of_size[s]].reshape(-1, s)
        start += idx.size
        owner, r = np.divmod(idx, n)
        at = (owner[:, :1, None] * n + r[:, :, None]) * n + r[:, None, :]
        blocks = stack.reshape(-1)[at]
        lam = blocks.diagonal(axis1=1, axis2=2).real
        if s == 2:
            hollow = ~lam.any(axis=1)
            h = (blocks[hollow, 0, 1] + blocks[hollow, 1, 0].conj()) / 2
            parts.append(np.abs(h)[:, None] * [-1.0, 1.0])
            owners.append(owner[hollow])
            blocks, owner = blocks[~hollow], owner[~hollow]
        if s > 1:
            lam = (np.linalg.eigvalsh((blocks + blocks.conj().swapaxes(-1, -2)) / 2)
                   if len(blocks) else lam[:0])
        parts.append(lam)
        owners.append(owner)
    lam, owner = np.concatenate(parts, axis=None), np.concatenate(owners, axis=None)
    return lam[np.lexsort((lam, owner))].reshape(m.shape[:-1])


def parent_validation(m, tol):
    """The constructor's validation before it became one routine, frozen:
    its full-row fork, its Hermiticity defect and its checks in order.
    The error message, or (ascending spectrum, kept nonzero pattern)."""
    m = pl.linalg.as_complex_matrix(m)
    present = m != 0
    if present.all(axis=1).any():  # a full row: the pattern is one component
        nonzero = None if present.all() else np.flatnonzero(present)
        defect = np.max(np.abs(m - m.conj().T))

        def spectrum():
            return np.linalg.eigvalsh((m + m.conj().T) / 2)
    else:
        rows, cols = np.nonzero(present)
        nonzero = rows * m.shape[0] + cols
        defect = np.abs(m[rows, cols] - m[cols, rows].conj()).max(initial=0.0)

        def spectrum():
            return parent_component_spectrum(m, rows, cols)
    if tol < 0:
        return "validation_tol must be nonnegative"
    if defect > tol:
        return f"not Hermitian: max |M - M^dag| = {defect:.3e} > {tol:.3e}"
    gap = abs(m.trace() - 1)
    if gap > tol:
        return f"not unit trace: |tr - 1| = {gap:.3e} > {tol:.3e}"
    lam = spectrum()
    if lam[0] < -tol:
        return f"smallest eigenvalue {lam[0]:.3e} below -{tol:.3e}"
    return lam, nonzero


PARITY_TOL = 1e-8
PARITY_KINDS = ["dense", "full row", "sparse", "hollow pair", "connected, no full row",
                "lowest just above -tol", "lowest just below -tol", "defect near tol",
                "not hermitian", "off trace", "negative tol"]


def parity_input(kind, n, g):
    """(matrix, tolerance) of ``kind`` on n rows."""
    tol = -PARITY_TOL if kind == "negative tol" else PARITY_TOL
    phase = np.exp(2j * np.pi * g.random())
    if kind in ("dense", "not hermitian", "negative tol"):
        x = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
        m = x @ x.conj().T
    elif kind == "full row":  # row 0 full, the others not
        m = np.diag(g.random(n) + 0.5).astype(complex)
        m[0, 1:] = 0.01 * phase
        m[1:, 0] = 0.01 * np.conj(phase)
    elif kind == "connected, no full row":  # tridiagonal
        m = np.diag(g.random(n) + 1.0).astype(complex)
        m[np.arange(n - 1), np.arange(1, n)] = g.uniform(-0.4, 0.4, n - 1) * phase
        m = m + np.triu(m, 1).conj().T
    else:
        lowest = {"lowest just above -tol": -tol * (1 - 1e-3),
                  "lowest just below -tol": -tol * (1 + 1e-3)}.get(kind)
        m, _ = permuted_direct_sum(g, n, lowest)
        if lowest is not None:
            return m, tol
    m = m / m.trace().real
    i, j = g.choice(n, size=2, replace=False) if n > 1 else (0, 0)
    if kind == "hollow pair" and n > 1:  # eigenvalues -|x|, |x| on rows i, j
        m[[i, j], :] = m[:, [i, j]] = 0
        m[i, i] = m[j, j] = 0
        m[i, j] = g.choice([0.5, 0.999, 1.001, 1e6]) * tol * phase
        m[j, i] = np.conj(m[i, j])
        if n > 2:  # back to unit trace on another row
            k = min(set(range(n)) - {i, j})
            m[k, k] += 1 - m.trace().real
    elif kind == "defect near tol" and n > 1:
        m[i, j] += g.choice([0.999, 1.001]) * tol * phase
    elif kind == "not hermitian" and n > 1:
        m[i, j] += 1e-6 * phase
    elif kind == "off trace":
        m[i, i] += 1e-6
    return m, tol


def validation_outcome(build):
    try:
        return build()
    except ValidationError as exc:
        return str(exc)


class TestParentParity:
    """The constructor and ``_validated_stack`` give the message, or the
    spectrum bits and the pattern, of the constructor's validation before
    it became one routine, for each matrix alone and in stacks."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10),
           kinds=st.lists(st.sampled_from(PARITY_KINDS), min_size=1, max_size=4))
    @settings(max_examples=400, deadline=None)
    def test_same_message_or_spectrum_and_pattern(self, seed, n, kinds):
        g = np.random.Generator(np.random.Philox(seed))
        inputs = [parity_input(kind, n, g) for kind in kinds]
        want = [parent_validation(m, tol) for m, tol in inputs]
        for (m, tol), w in zip(inputs, want):
            got = validation_outcome(lambda: pl.DensityMatrix(m, tol))
            if isinstance(w, str):
                assert got == w
                continue
            lam, nonzero = w
            assert got._ascending().tobytes() == lam.tobytes()
            assert (got._kept.flat is None) == (nonzero is None)
            assert nonzero is None or np.array_equal(got._kept.flat, nonzero)
        mats, tols = np.array([m for m, _ in inputs]), [tol for _, tol in inputs]
        got = validation_outcome(lambda: pl.linalg._validated_stack(mats, tols))
        first = next((w for w in want if isinstance(w, str)), None)
        if first is not None:
            assert got == first
            return
        stack, spectra = got
        for lam, (want_lam, _) in zip(spectra, want):
            assert lam.tobytes() == want_lam.tobytes()
        flat = stack.flat
        assert np.array_equal(np.flatnonzero(mats), np.arange(mats.size) if flat is None else flat)


OWN_PART_KINDS = ["own part", "signed zeros", "defect"]


def own_part_input(kind, n, g):
    """A valid n x n state of ``kind``: its own Hermitian part bit for bit;
    Hermitian by value, but with +-0.0 real or imaginary parts (a -0.0 on
    the diagonal at least, and a zero entry pair when ``n`` > 2 and a coin
    says so); or with a nonzero Hermiticity defect far below
    ``PARITY_TOL``."""
    x = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    m = n * np.eye(n) + 0.1 * hermitian_part(x)
    m = own_part(m / m.trace().real)
    if kind == "signed zeros":
        # the sign of a zero real part below the diagonal can move the
        # bits of eigvalsh: a value test would miss it
        rows, cols = np.triu_indices(n, 1)
        part = g.integers(3, size=rows.size)  # 0: real, 1: imaginary, 2: neither
        for at in ((rows, cols), (cols, rows)):
            zeros = g.choice([0.0, -0.0], size=rows.size)
            m.real[at] = np.where(part == 0, zeros, m.real[at])
            m.imag[at] = np.where(part == 1, zeros, m.imag[at])
        m.imag[np.diag_indices(n)] = g.choice([0.0, -0.0], size=n)
        i = g.integers(n)
        m.imag[i, i] = -0.0
        j, k = g.integers(2, max(n, 3)), g.integers(n)
        if j < n and j != k and g.random() < 0.5:  # row 0 or row 1 stays full
            m[j, k] = m[k, j] = complex(*g.choice([0.0, -0.0], size=2))
    elif kind == "defect":
        m = m + 1e-12 * (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n)))
    return m


class TestOwnPartParity:
    """A stack that validation found to be its own Hermitian part takes the
    spectrum of its partial transpose as it is: every spectrum keeps the
    bits of one eigvalsh of the Hermitian part of the matrix alone."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
           kinds=st.lists(st.sampled_from(OWN_PART_KINDS), min_size=1, max_size=6),
           entries=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_spectra_keep_the_bits_of_the_hermitian_part(self, seed, n, kinds, entries):
        g = np.random.Generator(np.random.Philox(seed))
        mats = np.array([own_part_input(kind, n, g) for kind in kinds])
        stack = pl.linalg._Stack.of(mats)
        if entries:  # the same matrices as an entry list
            stack = pl.linalg._Stack.of_entries(mats.shape, *stack.entries())
        spectra = pl.linalg._checked(stack, PARITY_TOL)
        assert stack.own_part.tolist() == [kind == "own part" for kind in kinds]
        keep = np.flatnonzero(g.random(len(kinds)) < 0.5)
        part = stack.take(keep)
        assert part.own_part.tolist() == stack.own_part[keep].tolist()
        for t, m in enumerate(mats):
            want = np.linalg.eigvalsh(hermitian_part(m))
            assert spectra[t].view(np.uint64).tolist() == want.view(np.uint64).tolist()
        for d_a in (d for d in range(1, n + 1) if n % d == 0):
            dims = (d_a, n // d_a)
            want = [np.linalg.eigvalsh(hermitian_part(pl.partial_transpose(m, dims)))
                    for m in mats]
            for sub, at in ((stack, range(len(mats))), (part, keep)):
                got = pl.measures._pt_spectrum(sub, dims)
                for lam, t in zip(got, at):
                    assert lam.view(np.uint64).tolist() == want[t].view(np.uint64).tolist()


class TestFromBlocks:
    """A direct sum, on contiguous rows or on scattered index lists, is
    rejected with the message of one eigvalsh of the whole matrix."""

    BLOCKS = [np.array([[0.2, 0.1j], [-0.1j, 0.2]]), np.array([[0.3]]),
              np.array([[0.1, 0.05], [0.05, 0.2]])]
    # on a 7-dim matrix whose rows 2 and 5 no block covers
    SUPPORTS = [[4, 1], [6], [0, 3]]

    @staticmethod
    def placed(blocks, supports, rows):
        m = np.zeros((rows, rows), dtype=complex)
        for b, s in zip(blocks, supports):
            m[np.ix_(s, s)] = b
        return m

    @staticmethod
    def rejection(m, tol=1e-9):
        try:
            pl.DensityMatrix(m, tol)
        except ValidationError as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize("case", ["non-psd", "off-trace", "non-hermitian"])
    def test_rejects_with_the_dense_message(self, case):
        blocks = [b.copy() for b in self.BLOCKS]
        if case == "non-psd":
            blocks[1] = np.array([[0.5, 0], [0, -0.2]])  # same trace as before
        elif case == "off-trace":
            blocks[1] = np.array([[0.31]])
        else:
            blocks[2][0, 1] += 1e-6
        sizes = np.cumsum([0] + [len(b) for b in blocks])
        supports = [list(range(a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
        m = self.placed(blocks, supports, int(sizes[-1]))
        _, want = one_eigvalsh_reference(m, 1e-9)
        assert isinstance(want, str)
        assert self.rejection(m) == want

    @pytest.mark.parametrize("case", ["non-psd", "off-trace", "non-hermitian"])
    def test_index_lists_reject_with_the_dense_message(self, case):
        blocks = [b.copy() for b in self.BLOCKS]
        if case == "non-psd":
            blocks[0] = np.array([[0.5, 0], [0, -0.1]])  # same trace as before
        elif case == "off-trace":
            blocks[1] = np.array([[0.31]])
        else:
            blocks[2][0, 1] += 1e-6
        m = self.placed(blocks, self.SUPPORTS, 7)
        _, want = one_eigvalsh_reference(m, 1e-9)
        assert isinstance(want, str)
        assert self.rejection(m) == want


def near_threshold_input():
    """A 3x3 state whose smallest eigenvalue, -5e-10, passes at 1e-9."""
    q, _ = np.linalg.qr(np.array([[1.0, 2.0, 0.5], [0.3, 1.0, 2.0], [2.0, 0.1, 1.0]]))
    return pl.DensityMatrix((q * [0.6, 0.4 + 5e-10, -5e-10]) @ q.T, 1e-9)


def chain_state(which):
    psi = np.array([0.4, 0.7, 0.9]) / np.linalg.norm([0.4, 0.7, 0.9])
    rho = pl.DensityMatrix(0.7 * np.outer(psi, psi) + 0.3 * np.eye(3) / 3)
    return getattr(pl.appendix_a_chain(rho, 1), which)


COEFFS = np.array([[0.6, 0.2j], [-0.2j, 0.4]])
QQ_DIAG = np.eye(12)[4] / 2 + np.eye(12)[11] / 2  # |0 4> and |1 5>


class TestConstructorValidation:
    """Every constructor's matrix and verdict are those of the dense
    constructor on the same matrix."""

    @pytest.mark.parametrize("build", [
        lambda: pl.make_mc_state(pl.MCSpec(COEFFS, (0, 2), (1, 0)), 3, 3).rho,
        lambda: pl.make_qubit_qudit_pairing(
            0.5, QQ_DIAG, [(0.25, COEFFS, (0, 1)), (0.25, COEFFS, (2, 3))]).rho,
        lambda: pl.cnot_embed(pl.ginibre_density(5, 5, pl.RngState(5))).rho,
        lambda: pl.cnot_embed(near_threshold_input()).rho,
        lambda: chain_state("rho2"),
        lambda: chain_state("rho3"),
        lambda: chain_state("rho4"),
    ], ids=["mc", "qubit-qudit", "cnot-embed", "cnot-embed-near-tol",
            "appendix-a-rho2", "appendix-a-rho3", "appendix-a-rho4"])
    def test_matches_the_dense_constructor(self, build, monkeypatch):
        rho = build()
        want = dense_validation(rho.mat, rho.validation_tol, monkeypatch)
        assert isinstance(want, pl.DensityMatrix)  # the dense constructor accepts it too
        assert rho.mat.tobytes() == want.mat.tobytes()
        assert rho.validation_tol == want.validation_tol
        scale = max(1.0, float(np.max(np.abs(rho.mat))))
        assert np.max(np.abs(rho.eigenvalues() - want.eigenvalues())) <= 1e-15 * scale


def kept_pattern_states():
    """(route, state) for every way a state comes to keep its pattern."""
    rng = pl.RngState(8)
    sparse = pl.DensityMatrix(np.diag([0.5, 0.2, 0.3]) + 0.1 * np.eye(3, k=2) + 0.1 * np.eye(3, k=-2))
    one_full_row = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    one_full_row[0, 1:] = one_full_row[1:, 0] = 0.01
    qq = pl.make_qubit_qudit_pairing(0.5, QQ_DIAG, [(0.25, COEFFS, (0, 1)), (0.25, COEFFS, (2, 3))])
    return [
        ("component path", pl.random_canonical_pairing(2, 8, 3, rng, diag_weight=0.3).rho),
        ("every entry nonzero", pl.random_bipartite_state(2, 3, rng).rho),
        ("a full row and zeros", pl.DensityMatrix(one_full_row)),
        ("cnot_embed of a full input", pl.cnot_embed(pl.ginibre_density(5, 5, rng)).rho),
        ("cnot_embed of a sparse input", pl.cnot_embed(sparse).rho),
        ("make_mc_state, labels out of order", pl.make_mc_state(
            pl.MCSpec(COEFFS, (1, 0), (2, 0)), 2, 3).rho),
        ("make_mc_state on 1 x 1", pl.make_mc_state(pl.MCSpec([[1.0]], (0,), (0,)), 1, 1).rho),
        ("appendix-a rho2", chain_state("rho2")),
        ("appendix-a rho3", chain_state("rho3")),
        ("appendix-a rho4", chain_state("rho4")),
        ("make_qubit_qudit_pairing", qq.rho),
        ("reassemble", pl.qubit_qudit_decompose(qq).reassemble().rho),
    ]


class TestKeptPattern:
    """A state keeps the nonzero pattern its construction found, and it is
    exactly ``np.flatnonzero(mat)``: a superset would merge components of
    rho^T_A and change the bits of N."""

    @staticmethod
    def assert_kept(rho):
        assert rho._kept is not None and rho._stack() is rho._kept  # kept, not scanned again
        assert np.shares_memory(rho._kept.mat, rho.mat) and rho._kept.mat.shape == (1, *rho.mat.shape)
        flat = rho._kept.flat
        want = np.flatnonzero(rho.mat)
        if flat is None:  # every entry is nonzero
            assert want.size == rho.mat.size
        else:
            assert flat.dtype.kind == "i" and np.array_equal(flat, want)

    @pytest.mark.parametrize("rho", [pytest.param(rho, id=route)
                                     for route, rho in kept_pattern_states()])
    def test_every_construction_route_keeps_the_true_pattern(self, rho, tmp_path):
        self.assert_kept(rho)
        path = tmp_path / "state.json"
        statefile.save_state(path, rho)
        self.assert_kept(statefile.load_state(path))

    def test_decomposition_blocks_keep_their_first_scan(self):
        qq = pl.make_qubit_qudit_pairing(0.5, QQ_DIAG, [(0.25, COEFFS, (0, 1)), (0.25, COEFFS, (2, 3))])
        for block in pl.qubit_qudit_decompose(qq).blocks:
            rho = block.coeffs
            assert "_kept" not in vars(rho)  # scanned on first use, not before
            assert rho._stack() is rho._stack()
            self.assert_kept(rho)

    def test_a_part_of_a_stack_reads_its_pattern_off_the_stack(self, rng):
        mats = np.array([pl.random_canonical_pairing(2, 6, 2, rng).mat,
                         pl.random_bipartite_state(2, 6, rng).mat,
                         pl.random_canonical_pairing(2, 6, 1, rng).mat])
        flat = np.flatnonzero(mats)
        listed = pl.linalg._Stack.of_entries(mats.shape, flat, mats.reshape(-1)[flat])
        for stack in (pl.linalg._Stack.of(mats), listed):
            for keep in ([], [0], [1], [0, 2], [1, 2], [0, 1, 2]):
                part = stack.take(np.array(keep, dtype=np.intp))
                assert (part.listed is None) == (stack.listed is None)
                assert np.array_equal(part.mat, mats[keep])
                # an entry list that fills its stack has no pattern (flat None)
                pattern = np.arange(mats[keep].size) if part.flat is None else part.flat
                assert np.array_equal(pattern, np.flatnonzero(mats[keep]))
        dense = pl.linalg._Stack.of(mats[[1, 1]])
        assert dense.flat is None and dense.take(np.array([1])).flat is None

    def test_a_stale_pattern_changes_the_answers(self, rng):
        # negative control: a kept pattern is trusted, so one that misses
        # a coherence pair must show in detection and in every measure
        bs = pl.random_canonical_pairing(2, 6, 2, rng, diag_weight=0.3)
        cert, entries = pl.detect_canonical_pairing(bs), pl.measure_report(bs).entries
        flat = np.flatnonzero(bs.mat)
        i = flat[flat // 12 != flat % 12][0]  # a coherence and its conjugate
        stale = np.setdiff1d(flat, [i, (i % 12) * 12 + i // 12])
        object.__setattr__(bs.rho, "_kept", pl.linalg._Stack(bs.mat[None], stale))
        got = pl.measure_report(bs).entries
        assert pl.detect_canonical_pairing(bs).pairing_number == cert.pairing_number - 1
        assert got["C_l0"] == entries["C_l0"] - 2
        assert got["C_l1"] < entries["C_l1"] - 1e-3
        assert got["N"] != entries["N"]


def alone_or_stacked_input(kind, d, g, rng):
    """One matrix on d x d for the alone-or-stacked test, with entries
    just above or below the cutoffs or exact zeros in full rows."""
    if kind.startswith("pairing"):
        n_pairs = int(g.integers(0, d * (d - 1) // 2 + 1))
        m = pl.random_canonical_pairing(d, d, n_pairs, rng, diag_weight=0.3).mat.copy()
    elif kind.startswith("cnot"):
        m = pl.cnot_embed(pl.ginibre_density(d, d, rng)).mat.copy()
    else:
        m = pl.random_bipartite_state(d, d, rng).mat.copy()
    n = d * d
    i, j = g.choice(n, size=2, replace=False)
    if kind.endswith("near"):  # about the detection cutoff, or the measures' 1e-10
        top = float(np.max(np.abs(m)))
        x = g.choice([0.99, 1.01]) * 1e-10 * g.choice([top, 1.0]) * np.exp(2j * np.pi * g.random())
        m[i, j], m[j, i] = x, np.conj(x)
    elif kind.endswith("zero"):  # an exact zero, inside a full row for a Ginibre state
        m[i, j] = m[j, i] = 0.0
    return m


@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3, 4]),
       kinds=st.lists(st.sampled_from(["pairing", "pairing near", "pairing zero", "cnot",
                                       "cnot near", "ginibre", "ginibre near",
                                       "ginibre zero"]), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_measures_and_certificates_are_the_same_alone_or_stacked(seed, d, kinds):
    g = np.random.Generator(np.random.Philox(seed))
    rng = pl.RngState(int(g.integers(2**32)))
    mats = np.array([alone_or_stacked_input(kind, d, g, rng) for kind in kinds])
    dims = (d, d)
    stack = pl.linalg._Stack.of(mats)
    c_l1 = pl.measures._c_l1_of(pl.measures._moduli(stack))
    c_l0 = pl.measures._c_l0_of(pl.measures._moduli(stack), None)
    w = pl.measures._pt_spectrum(stack, dims)
    n, n0 = pl.measures._negativity_of(w)[0], pl.measures._n0_of(w, None)
    det = pl.pairing._certify_stack(stack, dims, pl.pairing.ZERO_TOL)
    for t, m in enumerate(mats):
        # a loose tolerance: an exact zero may cost a Ginibre state its PSD
        bs = pl.BipartiteState(pl.DensityMatrix(m, 1.0), *dims)
        assert pl.c_l1(bs.rho) == c_l1[t] and type(pl.c_l1(bs.rho)) is float
        assert pl.c_l0_count(bs.rho) == c_l0[t]
        assert pl.negativity(bs)[0].hex() == float(n[t]).hex()
        assert pl.n0_count(bs) == n0[t]
        assert pl.detect_canonical_pairing(bs) == det.certificate(t)


@given(seed=st.integers(0, 2**32 - 1),
       counts=st.lists(st.sampled_from([0, 1, 2, 7, 8, 9, 100, 128, 129, 300]),
                       min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_segment_reduce_takes_each_run_as_numpy_takes_it_alone(seed, counts):
    # the reduceat route must give np.sum's pairwise bits, run by run
    g = np.random.Generator(np.random.Philox(seed))
    counts = np.array(counts)
    values = g.random(counts.sum()) * 10.0 ** g.integers(-8, 9, counts.sum())
    runs = np.split(values, np.cumsum(counts)[:-1])
    sums = pl.linalg._segment_reduce(np.add, values, counts)
    tops = pl.linalg._segment_reduce(np.maximum, values, counts)
    above = pl.linalg._segment_reduce(np.add, values > 1.0, counts, 0)
    for t, run in enumerate(runs):
        assert sums[t] == np.sum(run)
        assert tops[t] == np.max(run, initial=0.0)
        assert above[t] == np.count_nonzero(run > 1.0)


class TestSingularValues:
    def test_monomial(self):
        s = pl.singular_values(np.array([[0, 2], [3j, 0]]))
        assert np.allclose(s, [3, 2])

    def test_rank_one(self):
        s = pl.singular_values(np.array([[1.0, 0], [1.0, 0]]))
        assert np.allclose(s, [np.sqrt(2), 0])

    def test_zero(self):
        assert np.allclose(pl.singular_values(np.zeros((2, 2))), [0, 0])

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_squares_match_gram_spectrum(self, seed):
        g = np.random.Generator(np.random.Philox(seed))
        x = g.standard_normal((4, 3)) + 1j * g.standard_normal((4, 3))
        s = pl.singular_values(x)
        w = np.linalg.eigvalsh(x.conj().T @ x)[::-1]
        assert np.allclose(s**2, np.clip(w, 0, None), atol=1e-9)


class TestNorms:
    def test_trace_norm_monomial(self):
        assert pl.trace_norm(np.array([[0, 2], [3j, 0]])) == pytest.approx(5)

    def test_trace_norm_rank_one(self):
        assert pl.trace_norm(np.array([[1.0, 0], [1.0, 0]])) == pytest.approx(np.sqrt(2))

    def test_trace_norm_bell_pt(self, bell_state):
        assert pl.trace_norm(pl.partial_transpose(bell_state)) == pytest.approx(2.0)

    def test_l1_norm(self):
        assert pl.entrywise_l1_norm(np.ones((2, 2)) / 2) == pytest.approx(2)
        assert pl.entrywise_l1_norm(np.zeros((3, 3))) == 0
        assert pl.entrywise_l1_norm(np.array([[0, 2], [3j, 0]])) == pytest.approx(5)


class TestPartialTranspose:
    def test_diagonal_unchanged(self, diagonal_state):
        assert np.array_equal(pl.partial_transpose(diagonal_state), diagonal_state.mat)

    def test_bell_spectrum(self, bell_state):
        w = np.linalg.eigvalsh(pl.partial_transpose(bell_state))
        assert np.allclose(np.sort(w), [-0.5, 0.5, 0.5, 0.5])

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_involution_trace_hermiticity(self, seed):
        g = np.random.Generator(np.random.Philox(seed))
        d_a, d_b = int(g.integers(2, 5)), int(g.integers(2, 5))
        bs = pl.BipartiteState(random_density(seed + 1, d_a * d_b), d_a, d_b)
        pt = pl.partial_transpose(bs)
        # apply the index shuffle a second time by hand
        twice = (
            pt.reshape(d_a, d_b, d_a, d_b)
            .transpose(2, 1, 0, 3)
            .reshape(d_a * d_b, d_a * d_b)
        )
        assert np.max(np.abs(twice - bs.mat)) <= 1e-12
        assert abs(pt.trace() - bs.mat.trace()) <= 1e-12
        assert np.max(np.abs(pt - pt.conj().T)) <= 1e-12


def hermitian_monomial(g, n, scale, one_sided):
    """A random Hermitian matrix with at most one nonzero per row, and the
    exact ascending spectrum of its Hermitian part: 2x2 blocks on random
    index pairs with complex phases (eigenvalues -|v|, |v|), fixed rows
    with positive, negative or (signed) zero diagonal entries (their
    entry), and empty rows (0).  With ``one_sided``, some pairs keep only
    one of their two entries, at twice the size, so that only the
    Hermitian part is monomial."""
    perm = g.permutation(n)
    n_pairs = int(g.integers(0, n // 2 + 1))
    x = np.zeros((n, n), dtype=complex)
    spectrum = []
    for a, b in perm[:2 * n_pairs].reshape(-1, 2):
        v = scale * g.uniform(0.1, 1.0) * np.exp(2j * np.pi * g.random())
        if one_sided and g.random() < 0.5:
            x[a, b] = 2 * v
        else:
            x[a, b], x[b, a] = v, np.conj(v)
        spectrum += [-np.abs(v), np.abs(v)]
    for a in perm[2 * n_pairs:]:
        kind = g.integers(0, 5)  # positive, negative, 0.0, -0.0, empty
        if kind < 4:
            x[a, a] = (scale * g.uniform(0.1, 1.0), -scale * g.uniform(0.1, 1.0),
                       0.0, -0.0)[kind]
        spectrum.append(x[a, a].real)
    return x, np.sort(spectrum)


def hermitian_part(x):
    return (x + x.conj().swapaxes(-1, -2)) / 2


class TestMonomialSpectrum:
    """``measures._pt_spectrum`` reads the spectrum of a monomial rho^T_A
    off its entries, and takes any other pattern by its components."""

    @given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(1, 1), (1, 5), (2, 2), (2, 5),
                                                                 (3, 3), (3, 4)]),
           count=st.sampled_from([None, 1, 4]), scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e150]),
           one_sided=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_eigvalsh(self, seed, dims, count, scale, one_sided):
        g = np.random.Generator(np.random.Philox(seed))
        n = dims[0] * dims[1]
        drawn = [hermitian_monomial(g, n, scale, one_sided) for _ in range(count or 1)]
        x, exact = np.array([x for x, _ in drawn]), np.array([lam for _, lam in drawn])
        x, exact = (x, exact) if count else (x[0], exact[0])
        # d_A = 1: rho^T_A = rho, so this is the spectrum of x itself
        got = pt_spectrum(x, (1, n))
        assert got.shape == exact.shape
        assert np.array_equal(got, exact)
        want = np.linalg.eigvalsh(hermitian_part(x))
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
        assert np.array_equal(pl.measures._n0_of(got, None), pl.measures._n0_of(want, None))
        # the same matrix as the partial transpose of another: the transpose
        # on A is an involution, so rho = x^T_A has rho^T_A = x
        rho = pl.partial_transpose(x, dims)
        assert np.array_equal(pt_spectrum(rho, dims), exact)

    def test_stack_keeps_each_spectrum_in_its_row(self, decompositions):
        q, _ = np.linalg.qr(np.array([[1.0, 2.0, 0.5], [0.3, 1.0, 2.0], [2.0, 0.1, 1.0]]))
        x = np.zeros((2, 4, 4), dtype=complex)
        # matrix 0: rows 0 and 1 fixed, a hollow pair on rows 2 and 3
        x[0, [0, 1], [0, 1]] = 0.4, 0.3
        x[0, 2, 3], x[0, 3, 2] = 0.25j, -0.25j
        # matrix 1: a 3-row component on rows 0-2, row 3 fixed
        x[1, :3, :3] = (q * [0.1, 0.2, 0.7]) @ q.T
        x[1, 3, 3] = -0.05
        for dims in [(1, 4), (2, 2)]:
            decompositions.clear()
            got = pt_spectrum(pl.partial_transpose(x, dims), dims)
            assert decompositions == [(1, 3, 3)]
            assert np.array_equal(got[0], [-0.25, 0.25, 0.3, 0.4])
            want = np.linalg.eigvalsh(hermitian_part(x))
            assert np.max(np.abs(got - want)) <= 1e-15

    def test_one_extra_entry_decomposes_only_its_component(self, decompositions):
        g = np.random.Generator(np.random.Philox(4))
        for x, exact in [hermitian_monomial(g, 12, 1.0, False) for _ in range(20)]:
            row = np.flatnonzero(np.any(x != 0, axis=1))[0]
            extra = x.copy()
            extra[row, np.flatnonzero(x[row] == 0)[0]] = 1e-300  # beside the row's entry
            # the rows the extra entry joins to ``row``
            joined = (extra != 0) | (extra != 0).T
            reach = np.arange(12) == row
            for _ in range(12):
                reach |= joined[reach].any(axis=0)
            size = int(np.count_nonzero(reach))
            decompositions.clear()
            got = pt_spectrum(extra, (1, 12))  # A is trivial: rho^T_A = rho
            assert decompositions == [(1, size, size)]
            assert 2 <= size <= 4
            want = np.linalg.eigvalsh(hermitian_part(extra))
            assert np.max(np.abs(got - want)) <= 1e-15
            # in a stack, only that matrix changes
            stacked = pt_spectrum(np.array([x, extra, x]), (1, 12))
            assert np.array_equal(stacked, [exact, got, exact])

    def test_a_dense_matrix_is_only_counted(self, monkeypatch):
        mats = np.array([random_density(5 + i, 12).mat for i in range(3)])
        want = np.linalg.eigvalsh(hermitian_part(pl.partial_transpose(mats, (3, 4))))
        scans = []
        monkeypatch.setattr(np, "nonzero", lambda *a: scans.append(a))
        assert np.array_equal(pt_spectrum(mats[0], (3, 4)), want[0])
        assert np.array_equal(pt_spectrum(mats, (3, 4)), want)
        assert scans == []

    def test_cancelling_entries_and_empty_matrices(self):
        # X = [[0, 1], [-1, 0]] is anti-Hermitian: its Hermitian part is 0
        x = np.array([[0, 1], [-1, 0]], dtype=complex)
        assert np.array_equal(pt_spectrum(x, (1, 2)), [0.0, 0.0])
        assert np.array_equal(pt_spectrum(np.zeros((3, 4, 4)), (2, 2)),
                              np.zeros((3, 4)))

    @given(seed=st.integers(0, 2**32 - 1),
           dims=st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 6), (4, 3)]))
    @settings(max_examples=100, deadline=None)
    def test_block_structure_matches_eigvalsh(self, seed, dims):
        # a direct sum of 1-4 row blocks as rho^T_A: not monomial
        g = np.random.Generator(np.random.Philox(seed))
        x, _ = permuted_direct_sum(g, dims[0] * dims[1])
        got = pt_spectrum(pl.partial_transpose(x, dims), dims)
        want = np.linalg.eigvalsh(hermitian_part(x))
        scale = max(1.0, float(np.max(np.abs(x))))
        assert np.max(np.abs(got - want)) <= 1e-15 * scale

    def test_isotropic_state_decomposes_its_pairs(self, decompositions):
        # rho^T_A of an isotropic 3x3 state: 2x2 blocks on |jk>, |kj> for
        # j < k and the fixed rows |jj>
        iso = pl.isotropic_mixture(0.4, np.eye(3).ravel(), 3, 3)
        decompositions.clear()
        got = pl.measures._pt_spectrum(iso.rho._stack(), (3, 3))[0]
        assert decompositions == [(3, 2, 2)]
        want = np.linalg.eigvalsh(hermitian_part(pl.partial_transpose(iso)))
        assert np.max(np.abs(got - want)) <= 1e-15


class TestTensorProduct:
    def test_index_convention(self):
        # |j>|k> = kron(|j>, |k>) sits at row/column j * d_B + k
        bs = pl.BipartiteState(pl.DensityMatrix(np.eye(6) / 6), 2, 3)
        for j in range(2):
            for k in range(3):
                ket = np.kron(np.eye(2)[j], np.eye(3)[k])
                assert np.flatnonzero(ket).tolist() == [bs.index_of(j, k)]
                assert bs.label_of(bs.index_of(j, k)) == (j, k)


class TestEntropies:
    def test_pure_state(self, plus_rho):
        assert pl.von_neumann_entropy(plus_rho) == pytest.approx(0, abs=1e-12)

    def test_maximally_mixed(self):
        assert pl.von_neumann_entropy(pl.DensityMatrix(np.eye(2) / 2)) == pytest.approx(1)

    def test_spectrum_08_02(self):
        rho = pl.DensityMatrix(np.diag([0.8, 0.2]).astype(complex))
        # frozen oracle: -0.8 log2 0.8 - 0.2 log2 0.2
        assert pl.von_neumann_entropy(rho) == pytest.approx(0.7219280948873623, abs=1e-12)

    def test_rejects_negative_spectrum(self):
        with pytest.raises(NegativeEigenvalue, match=r"eigenvalue -2.000e-01 below -1.000e-09"):
            pl.linalg.entropy_of_spectrum(np.array([1.2, -0.2]), 1e-9)

    def test_binary_entropy(self):
        assert pl.binary_entropy(0.5) == 1
        assert pl.binary_entropy(0.0) == 0
        assert pl.binary_entropy(1.0) == 0
        # frozen oracle: H(0.9)
        assert pl.binary_entropy(0.9) == pytest.approx(0.4689955935892812, abs=1e-12)
        with pytest.raises(OutOfRange):
            pl.binary_entropy(1.5)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_stack_matches_the_per_row_formula(self, seed):
        # rows of varying kept counts: zeros, entries below the cutoff, a
        # tiny negative entry within tolerance
        g = np.random.Generator(np.random.Philox(seed))
        t, n = int(g.integers(1, 9)), int(g.integers(1, 13))
        lams = g.dirichlet(np.ones(n), size=t) * g.choice([1.0, 3.0])
        lams[g.random((t, n)) < 0.3] = 0.0
        lams[g.random((t, n)) < 0.1] = 1e-12
        lams[g.random((t, n)) < 0.1] = -1e-11
        tols = g.choice([1e-10, 1e-9], size=t)

        def per_row(row, tol):  # -sum l log2 l as one spectrum at a time
            cut = 1e-10 * max(1.0, float(np.max(np.abs(row))))
            row = np.clip(row, 0.0, None)
            row = row[row > cut]
            return float(-np.sum(row * np.log2(row)))

        got = pl.linalg._entropies(lams, tols)
        assert got.tolist() == [per_row(row, tol) for row, tol in zip(lams, tols)]
        assert [pl.linalg.entropy_of_spectrum(row, tol) for row, tol in zip(lams, tols)] \
            == got.tolist()

    def test_stack_names_the_first_negative_row(self):
        lams = np.array([[0.5, 0.5], [1.2, -0.2], [1.5, -0.5]])
        with pytest.raises(NegativeEigenvalue, match=r"eigenvalue -2.000e-01 below -1.000e-09"):
            pl.linalg._entropies(lams, 1e-9)

    def test_binary_entropy_of_an_array_is_entrywise(self):
        x = np.array([0.0, 0.1, 0.5, 0.9, 1.0])
        assert pl.binary_entropy(x).tolist() == [pl.binary_entropy(float(v)) for v in x]
        with pytest.raises(OutOfRange, match="argument 1.5 outside"):
            pl.binary_entropy(np.array([0.5, 1.5]))

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_dephasing_never_decreases_entropy(self, seed):
        # C_r = S(diag rho) - S(rho), the entropy dephasing adds
        g = np.random.Generator(np.random.Philox(seed))
        rho = random_density(seed + 1, int(g.integers(2, 9)))
        assert pl.c_rel_entropy(rho) >= -1e-9
