"""Dense complex-matrix kernel: validated states, decompositions, norms,
partial transpose, and entropies.

All matrices are plain numpy arrays with complex dtype.  The product-basis
index convention for a bipartite system is fixed globally: basis ket
``|j k>`` maps to row/column ``j * d_B + k``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeEigenvalue,
    NoConvergence,
    OutOfRange,
    ValidationError,
)

DEFAULT_TOL = 1e-9

#: relative cutoff below which eigenvalues are treated as exact zeros
#: (entropy terms, negative-eigenvalue counts)
ZERO_EIGENVALUE_RTOL = 1e-10


def as_complex_stack(x) -> np.ndarray:
    """Coerce input to a finite complex matrix or stack of matrices
    (shape ``(..., n, m)``).

    Raises ValueError on fewer than two axes or non-finite entries.
    """
    m = np.asarray(x, dtype=complex)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def as_complex_matrix(x) -> np.ndarray:
    """Coerce input to a finite 2-d complex array.

    Raises ValueError on wrong shape or non-finite entries.
    """
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    return as_complex_stack(m)


def _scalar(a):
    """A 0-d result as a Python scalar; results over a stack stay an array."""
    a = np.asarray(a)
    return a.item() if a.ndim == 0 else a


class DensityMatrix:
    """Validated Hermitian, PSD, unit-trace complex matrix.

    Validation happens on construction, by one routine (``_checked``):
    ``DensityMatrix(mat, validation_tol)`` validates a dense matrix,
    ``from_entries`` (or ``_of_entries``, given entries already checked) a
    matrix given by its entries, ``_of_blocks`` a direct sum of blocks and
    ``_validated_stack`` a whole stack, building no states.
    ``validation_tol`` bounds the allowed Hermiticity defect, the most
    negative eigenvalue, and the trace deviation from 1.
    The spectrum validation computes is kept, so ``eigenvalues`` and
    ``von_neumann_entropy`` never decompose again, and so are the entries
    it read (``_stack``), so detection and the measures read the nonzero
    entries without a scan of the whole matrix.  A state built from its
    entries holds only them: its dense ``mat`` is built on first access.
    States are immutable, and compare and hash by identity.
    """

    def __init__(self, mat, validation_tol: float = DEFAULT_TOL):
        self.__dict__.update(mat=mat, validation_tol=validation_tol)
        self.__post_init__()

    def __post_init__(self):
        """Validate the dense ``mat`` the constructor was given (its own
        method, as ``benchmarks/tracing.py`` times it as the
        ``linalg.validate`` layer)."""
        m = as_complex_matrix(self.mat)
        if m.shape[0] != m.shape[1]:
            raise ValidationError(f"density matrix must be square, got {m.shape}")
        stack = _Stack.of(m[None])
        lam = _checked(stack, self.validation_tol)[0]
        lam.flags.writeable = False
        self.__dict__.update(mat=m, _spectrum=lam, _kept=stack)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a DensityMatrix is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a DensityMatrix is immutable")

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim}, validation_tol={self.validation_tol!r})"

    @classmethod
    def from_entries(cls, dim: int, flat, values, validation_tol: float = DEFAULT_TOL) -> DensityMatrix:
        """Validate the ``dim`` x ``dim`` matrix whose entry at each flat
        index ``flat[i]`` (row-major: row ``flat[i] // dim``, column
        ``flat[i] % dim``; strictly ascending) is ``values[i]``, and whose
        every other entry is +0.0, by the constructor's routine, reading
        only those entries.  It gives the spectrum, the pattern and the
        error ``DensityMatrix`` gives the dense matrix; listed entries that
        are zero stay out of the pattern, but the writer keeps a -0.0.
        """
        flat = np.asarray(flat, dtype=np.int64).reshape(-1)
        values = np.asarray(values, dtype=complex).reshape(-1)
        if dim < 0 or flat.size != values.size:
            raise ValidationError(f"expected a dimension and one value per index, got {dim}, "
                                  f"{flat.size} indices and {values.size} values")
        if flat.size and not (0 <= flat[0] and flat[-1] < dim * dim
                              and (np.diff(flat) > 0).all()):
            raise ValidationError(f"flat indices must ascend strictly within [0, {dim * dim})")
        if not np.isfinite(values).all():
            raise ValueError("matrix contains NaN or Inf entries")
        return cls._of_entries(dim, flat, values, validation_tol)

    @classmethod
    def _of_entries(cls, dim: int, flat: np.ndarray, values: np.ndarray,
                    validation_tol: float) -> DensityMatrix:
        """``from_entries`` of entries already checked (int64 flat indices
        ascending strictly within range, finite complex values): the route
        of every state read from its entries."""
        stack = _Stack.of_entries((1, dim, dim), flat, values)
        return cls._validated(validation_tol, _checked(stack, validation_tol)[0], stack)

    @classmethod
    def _of_blocks(cls, parts, validation_tol: float) -> DensityMatrix:
        """The direct sum of ``parts``, validated at ``validation_tol``: the
        route of every state built as one.  Each part is (blocks, rows): a
        ``(T, s, s)`` stack and the ``(T, c, s)`` rows of each block's c
        copies, every row of the sum in one copy.  The state holds the
        placed entries, and ``_checked`` is given the spectrum of each
        distinct block (one ``_spectra`` per block size; a 1 x 1 block is
        its real entry)."""
        parts = [(np.asarray(blocks, dtype=complex), rows) for blocks, rows in parts if len(blocks)]
        n = sum(rows.size for _, rows in parts)
        at = np.concatenate([(rows[..., :, None] * n + rows[..., None, :]).ravel()
                             for _, rows in parts])
        vals = np.concatenate([np.repeat(blocks, rows.shape[1], axis=0).ravel()
                               for blocks, rows in parts])
        spectra = []
        for s in {blocks.shape[-1] for blocks, _ in parts}:
            group = [(blocks, rows) for blocks, rows in parts if blocks.shape[-1] == s]
            distinct = _Stack.of(np.concatenate([blocks for blocks, _ in group]))
            lam = distinct.diagonal.real if s == 1 else _spectra(distinct, distinct.flat)
            copies = np.repeat([rows.shape[1] for _, rows in group], [len(rows) for _, rows in group])
            spectra.append(np.repeat(lam, copies, axis=0).ravel())
        order = np.argsort(at)
        stack = _Stack.of_entries((1, n, n), at[order], vals[order])
        spectrum = np.sort(np.concatenate(spectra))[None]
        return cls._validated(validation_tol, _checked(stack, validation_tol, spectrum)[0], stack)

    @classmethod
    def _validated(cls, validation_tol: float, spectrum: np.ndarray, stack: _Stack):
        """A state whose checks the caller has already made, holding its
        ascending ``spectrum`` (which becomes read-only) and the one-matrix
        ``stack`` it was validated from."""
        self = object.__new__(cls)
        spectrum.flags.writeable = False
        self.__dict__.update(validation_tol=validation_tol, _spectrum=spectrum, _kept=stack)
        return self

    @functools.cached_property
    def mat(self) -> np.ndarray:
        """The dense matrix: held by a state built from a dense one, and
        built from the kept entries on first access otherwise."""
        return self._kept.mat[0]

    @property
    def dim(self) -> int:
        return self._spectrum.size

    def _ascending(self) -> np.ndarray:
        return self._spectrum

    def _stack(self) -> _Stack:
        """The state as the one-matrix ``_Stack`` it keeps."""
        return self._kept

    def eigenvalues(self) -> np.ndarray:
        """Real spectrum in descending order (a copy of the cached one)."""
        return self._ascending()[::-1].copy()


def _validated_stack(mats, tols) -> tuple[_Stack, np.ndarray]:
    """The scanned ``_Stack`` of a ``(T, d, d)`` stack of matrices and
    their ascending ``(T, d)`` spectra, each matrix t checked as a density
    matrix at ``tols[t]`` (one tolerance or one per matrix) by
    ``_checked``: one scan and one validation for the whole stack.  The
    first matrix that fails raises the error ``DensityMatrix(mats[t],
    tols[t])`` raises.  The stack routines take what it gives, so they
    build no state per matrix and scan nothing again."""
    mats = as_complex_stack(mats)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValidationError(f"expected a stack of square matrices, got {mats.shape}")
    stack = _Stack.of(mats)
    if not len(mats):
        return stack, np.zeros(mats.shape[:2])
    return stack, _checked(stack, tols)


def _checked(stack: _Stack, tols, spectra: np.ndarray | None = None) -> np.ndarray:
    """The ascending spectra (``_spectra``) of the matrices of ``stack``,
    each checked as a density matrix, matrix t at ``tols[t]`` (one
    tolerance or one per matrix), by ``_reject``.  A caller that already
    holds the ascending spectra (of a product, from its factors'; of a
    direct sum, from its blocks') passes them as ``spectra`` and none is
    taken.  The Hermiticity defect max |M - M^dag| is read off the nonzero
    entries when the stack has a zero, as a pair of zero entries adds
    nothing to it, and the trace off the diagonals.  A stack with no zero
    takes M^dag once, for the defect and for the Hermitian part its
    spectra are taken of; the dense route records on the stack whether
    each matrix is its own Hermitian part (``_dense_spectra``).
    No spectrum is taken when the first matrix fails before its spectrum
    is needed, so a single state that is not Hermitian or not of unit
    trace is rejected without a decomposition."""
    t, n = stack.shape[:2]
    if not n:
        raise ValidationError("density matrix must be at least 1 x 1, got 0 x 0")
    tols = np.zeros(t) + tols
    flat, dag = stack.flat, None
    if flat is None:
        dag = _dagger(stack.mat)
        defects = np.abs(stack.mat - dag).max(axis=(1, 2), initial=0.0)
    else:
        rows, cols = np.divmod(flat, n)  # row r of matrix t is row t * n + r
        partner = flat + (cols - rows % n) * (n - 1)  # the entry at (c, r)
        defects = _segment_reduce(np.maximum, np.abs(stack.values - stack.gather(partner).conj()),
                                  np.bincount(rows // n, minlength=t))
    gaps = np.abs(stack.diagonal.sum(axis=1) - 1)
    _reject(tols[:1], defects[:1], gaps[:1])
    if spectra is None:  # a stack with no zero is one component: _spectra's dense route
        spectra = _spectra(stack, flat) if dag is None else _dense_spectra(stack, dag)
    _reject(tols, defects, gaps, spectra[:, 0])
    return spectra


def _reject(tols, defects, gaps, lowest=0.0) -> None:
    """Raise the ValidationError of the first matrix t that is not a
    density matrix at ``tols[t]``, given its Hermiticity defect
    ``defects[t]``, ``gaps[t]`` = |tr - 1| and ``lowest[t]``, the smallest
    eigenvalue of its Hermitian part (0.0 leaves the spectrum unchecked)."""
    # defects >= 0, so a negative tolerance fails here as well
    bad = np.maximum(np.maximum(defects, gaps), np.negative(lowest)) > tols
    if not bad.any():
        return
    t = int(np.flatnonzero(bad)[0])
    tol = tols[t]
    if tol < 0:
        raise ValidationError("validation_tol must be nonnegative")
    if defects[t] > tol:
        raise ValidationError(f"not Hermitian: max |M - M^dag| = {defects[t]:.3e} > {tol:.3e}")
    if gaps[t] > tol:
        raise ValidationError(f"not unit trace: |tr - 1| = {gaps[t]:.3e} > {tol:.3e}")
    raise ValidationError(f"smallest eigenvalue {lowest[t]:.3e} below -{tol:.3e}")


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def _hermitian_part(m: np.ndarray, dag: np.ndarray | None = None) -> np.ndarray:
    """(M + M^dag) / 2 of a matrix or of each matrix in a stack, given
    ``dag`` = M^dag when the caller holds it: the one place it is formed."""
    return (m + (_dagger(m) if dag is None else dag)) / 2


def _hermitian_spectrum(m: np.ndarray) -> np.ndarray:
    """Ascending spectrum of the Hermitian part of ``m`` (of each matrix,
    for a stack), formed by ``_hermitian_part``."""
    return np.linalg.eigvalsh(_hermitian_part(m))


class _Stack:
    """A ``(T, n, n)`` stack of matrices and ``flat``, the ascending flat
    indices of its nonzero entries, or None when it has no zero: entry
    (t, r, c) sits at flat index (t * n + r) * n + c, and together they
    are its pattern.  It holds either the dense ``mat`` (``of``) or its
    entries (``of_entries``): ``listed``, ascending flat indices, a
    superset of the pattern, and their values, every other entry being
    +0.0.  ``values`` are the entries at the pattern (every entry,
    row-major, when it is None) and ``diagonal`` the ``(T, n)``
    diagonals, shared by every reader (not to be written); the ``mat``
    of listed entries is built on first use.

    The stack routines of ``measures`` and ``pairing`` take one, so they
    read the nonzero entries without a scan of their own: a stack is
    scanned once (``of``), a part of it is read off its pattern
    (``take``) and a state's is the one validation kept
    (``DensityMatrix._stack``).

    ``own_part`` is a ``(T,)`` boolean array once validation formed the
    Hermitian part (M + M^dag) / 2 of the dense stack
    (``_dense_spectra``): whether each matrix equals it bit for bit, so
    that its partial transpose does too and is decomposed as it is.  It
    is None on a stack no validation formed it for; ``take`` keeps it."""

    def __init__(self, mat: np.ndarray | None, flat: np.ndarray | None,
                 listed: tuple[np.ndarray, np.ndarray] | None = None, shape=None):
        self.flat, self.listed, self.own_part = flat, listed, None
        if mat is None:
            self.shape = tuple(shape)
        else:
            self.shape, self.mat = mat.shape, mat
            v = mat.reshape(-1)
            self.values = v if flat is None else v[flat]
            self.diagonal = mat.diagonal(axis1=-2, axis2=-1)

    def __len__(self) -> int:
        return self.shape[0]

    @classmethod
    def of(cls, mats: np.ndarray) -> _Stack:
        # mats.all() makes no boolean temporary, so a stack with no zero costs one read
        return cls(mats, None if mats.all() else np.flatnonzero(mats != 0))

    @classmethod
    def of_entries(cls, shape, at: np.ndarray, vals: np.ndarray) -> _Stack:
        """The stack of ``shape`` whose entries at the ascending flat
        indices ``at`` are ``vals``: its pattern is the nonzero ones.
        When they fill a quarter of it or more, its ``mat`` is built at
        once, as one scatter then costs less than the sparse reads."""
        nonzero = vals != 0
        flat, values = (at, vals) if nonzero.all() else (at[nonzero], vals[nonzero])
        size = math.prod(shape)
        stack = cls(None, None if flat.size == size else flat, (at, vals), shape)
        stack.values = values
        if 4 * at.size >= size:
            stack.mat = stack._scattered()
            stack.diagonal = stack.mat.diagonal(axis1=-2, axis2=-1)
        else:
            node = np.arange(math.prod(shape[:-1]))  # row t * n + r
            stack.diagonal = stack.gather(node * shape[-1] + node % shape[-1]).reshape(shape[:-1])
        return stack

    @functools.cached_property
    def mat(self) -> np.ndarray:
        return self._scattered()

    def _scattered(self) -> np.ndarray:
        """The dense stack of the listed entries."""
        at, vals = self.listed
        m = np.zeros(math.prod(self.shape), dtype=complex)
        m[at] = vals
        return m.reshape(self.shape)

    def gather(self, at) -> np.ndarray:
        """The entries at the flat indices ``at`` (an array of any shape)."""
        if "mat" in vars(self):  # held, or built
            return self.mat.reshape(-1)[at]
        keys, vals = self.listed
        if not keys.size:
            return np.zeros(np.shape(at), dtype=complex)
        pos = np.minimum(np.searchsorted(keys, at), keys.size - 1)
        return np.where(keys[pos] == at, vals[pos], 0)

    def blocks(self, owner: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """The ``(B, s, s)`` principal blocks: block b of matrix
        ``owner[b]`` on its rows ``idx[b]``."""
        if "mat" in vars(self):
            return self.mat[owner[:, None, None], idx[:, :, None], idx[:, None, :]]
        n = self.shape[-1]
        return self.gather((owner[:, None, None] * n + idx[:, :, None]) * n + idx[:, None, :])

    def take(self, keep: np.ndarray) -> _Stack:
        """The matrices ``keep`` (ascending indices) and their pattern."""
        size = self.shape[-1] ** 2
        slot = np.full(len(self), -1)
        slot[keep] = np.arange(len(keep))

        def moved(flat):  # the indices of the kept matrices, renumbered
            owner, at = np.divmod(flat, size)
            new = slot[owner]
            sel = new >= 0
            return sel, new[sel] * size + at[sel]

        if self.listed is not None:
            sel, at = moved(self.listed[0])
            part = _Stack.of_entries((len(keep), *self.shape[1:]), at, self.listed[1][sel])
        else:
            part = _Stack(self.mat[keep], None if self.flat is None else moved(self.flat)[1])
        if self.own_part is not None:
            part.own_part = self.own_part[keep]
        return part

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """(flat indices, values) of every entry that is not +0.0, in
        row-major order: each listed one, or each of a dense stack, whose
        real or imaginary part is not +0.0 (so a -0.0 is kept)."""
        at, vals = self.listed or (np.arange(math.prod(self.shape)), self.mat.reshape(-1))
        bits = np.ascontiguousarray(vals).view(np.uint64).reshape(-1, 2)
        kept = np.flatnonzero(bits[:, 0] | bits[:, 1])
        return at[kept], vals[kept]


def _pt_flat(flat, n: int, d_b: int):
    """The flat index in rho^T_A, on d_A x ``d_b``, of the entry of rho at
    each flat index ``flat`` of an n x n matrix (or of a stack of them):
    entry ((j', k), (j, k')) of rho is entry ((j, k), (j', k')) of rho^T_A.
    The map is its own inverse, so it also gives the entry of rho at each
    flat index of rho^T_A."""
    row, col = np.divmod(flat, n)
    # the row moves by (j - j') d_B rows and the column by (j' - j) d_B
    return flat + (col // d_b - row % n // d_b) * (d_b * (n - 1))


def _segment_reduce(ufunc, values: np.ndarray, counts: np.ndarray, empty=0.0) -> np.ndarray:
    """``ufunc.reduce`` of each run of ``counts[t]`` consecutive ``values``,
    ``empty`` for a run of none, taken as over that run alone: a float sum
    in ``np.sum``'s pairwise order, so a matrix's result is the same alone
    or in any stack.  ``reduceat`` takes each run behind an ``empty``,
    which must not change a reduction (0 for a sum, a count or a max of
    moduli): it starts a run from its first value and adds the rest
    pairwise, so a run led by 0 sums as ``np.sum``, which starts from 0,
    sums it."""
    c = int(counts[0]) if counts.size else 0
    # runs of one length (one state's, or a stack of full matrices) are the
    # rows of one array, which ``reduce`` takes 3-4x faster: 1.7 against
    # 8.4 us for one run of 24 values, 7.7 against 21.9 us for 50 runs of
    # 144 (numpy 2.4, one core of a 2-core Intel Xeon)
    if c and (counts.size == 1 or (counts == c).all()):
        return ufunc.reduce(values.reshape(counts.size, c), axis=1)
    at = np.cumsum(counts) - counts + np.arange(counts.size)  # each run's lead
    led = np.full(values.size + counts.size, empty, dtype=values.dtype)
    rest = np.ones(led.size, dtype=bool)
    rest[at] = False
    led[rest] = values
    return ufunc.reduceat(led, at)


def _per_entry(x, counts: np.ndarray):
    """A value per run of ``counts`` (see ``_segment_reduce``), repeated
    for each value of its run; one value (one for all runs, or that of the
    one run) is left to broadcast."""
    x = np.asarray(x)
    return x if x.size == 1 else np.repeat(x, counts)


def _spectra(stack: _Stack, flat: np.ndarray | None,
             dims: tuple[int, int] | None = None) -> np.ndarray:
    """Ascending spectrum of the Hermitian part of each matrix of
    ``stack``, or of its partial transpose on ``dims`` = (d_A, d_B), given
    ``flat``, the pattern of the matrix taken.  This is the one place
    that chooses how it is taken: a stack whose every matrix is one
    connected component of its pattern (as a full row makes it) takes one
    eigvalsh of the dense stack, any other stack ``_component_spectrum``,
    which gives a connected matrix the same bits.  So a matrix's spectrum
    is the same alone or in any stack.

    The dense route of the matrices themselves records
    ``stack.own_part`` (``_dense_spectra``).  The partial transpose moves
    each entry together with the one its conjugate is added to, so it is
    its own Hermitian part wherever the matrix is: the dense route takes
    eigvalsh of those as they are, the same bits, and forms the Hermitian
    part of the rest alone."""
    n, nodes = stack.shape[-1], math.prod(stack.shape[:-1])
    if flat is not None:
        # entry (t, r, c) joins the nodes t * n + r and t * n + c
        rows, cols = np.divmod(flat, n)
        full = np.bincount(rows, minlength=nodes) == n
        if not full.reshape(-1, n).any(axis=1).all():
            cols += rows - rows % n
            rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
            # min-label propagation with pointer jumping: each label stays a
            # node of its component and only falls, until every edge joins
            # equal labels
            label = np.arange(nodes)
            while True:
                np.minimum.at(label, rows, label[cols])
                label = label[label]
                if np.array_equal(label[rows], label[cols]):
                    break
            size = np.bincount(label)[label]  # of each node's component
            if size.min() < n:
                return _component_spectrum(stack, label, size, dims)
    if dims is None:
        return _dense_spectra(stack)
    pt, own = partial_transpose(stack.mat, dims), stack.own_part
    if own is None or not own.any():
        return _hermitian_spectrum(pt)
    if not own.all():  # pt may be a view of m: write a copy
        pt = pt.copy()
        pt[~own] = _hermitian_part(pt[~own])
    return np.linalg.eigvalsh(pt)


def _dense_spectra(stack: _Stack, dag: np.ndarray | None = None) -> np.ndarray:
    """Ascending spectrum of the Hermitian part of each matrix of the
    dense ``stack``, by one eigvalsh, given ``dag`` = M^dag when the caller
    holds it; records in ``stack.own_part`` which matrices equal their
    Hermitian part bit for bit (a value test would miss a -0.0 that the
    sum or the halving turns into +0.0)."""
    part = _hermitian_part(stack.mat, dag)
    bits = [np.ascontiguousarray(x).view(np.uint64) for x in (part, stack.mat)]
    stack.own_part = np.equal(*bits).all(axis=(-2, -1))
    return np.linalg.eigvalsh(part)


def _component_spectrum(stack: _Stack, label: np.ndarray, size: np.ndarray,
                        dims: tuple[int, int] | None = None) -> np.ndarray:
    """Ascending spectrum of the Hermitian part of each matrix of the
    ``(T, n, n)`` ``stack``, or of its partial transpose on ``dims`` =
    (d_A, d_B), from the connected components of the pattern of the matrix
    taken: node t * n + r (row r of matrix t) lies in the component
    ``label[t * n + r]``, of ``size[t * n + r]`` nodes (i ~ j when entry
    (i, j) or (j, i) is not zero), and the Hermitian part is the direct sum
    of its principal blocks on them.
    One batched eigvalsh per component size gives the spectrum, except
    that a component of one row and a hollow one of two rows are read off
    their entries.
    """
    n = stack.shape[-1]
    order = np.lexsort((label, size))  # by component size, then component
    nodes_of_size = np.bincount(size)
    parts, owners, start = [], [], 0
    for s in np.flatnonzero(nodes_of_size).tolist():
        idx = order[start:start + nodes_of_size[s]].reshape(-1, s)
        start += idx.size
        owner, r = np.divmod(idx, n)  # each component's rows, ascending
        at = (owner[:, :1, None] * n + r[:, :, None]) * n + r[:, None, :]
        if dims is not None:  # the entry of the partial transpose, read off the stack
            at = _pt_flat(at, n, dims[1])
        blocks = stack.gather(at)
        # a component of one row is its real diagonal entry, as eigvalsh gives it
        lam = blocks.diagonal(axis1=1, axis2=2).real
        if s == 2:  # a hollow pair [[0, x], [y, 0]]: -|h|, |h| with h = (x + y*) / 2
            hollow = ~lam.any(axis=1)
            h = (blocks[hollow, 0, 1] + blocks[hollow, 1, 0].conj()) / 2
            parts.append(np.abs(h)[:, None] * [-1.0, 1.0])
            owners.append(owner[hollow])
            blocks, owner = blocks[~hollow], owner[~hollow]
        if s > 1:
            lam = _hermitian_spectrum(blocks) if len(blocks) else lam[:0]
        parts.append(lam)
        owners.append(owner)
    lam, owner = np.concatenate(parts, axis=None), np.concatenate(owners, axis=None)
    # each matrix's eigenvalues into its own row, ascending
    return lam[np.lexsort((lam, owner))].reshape(stack.shape[:-1])


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """A DensityMatrix together with subsystem dimensions (d_A, d_B).

    Index convention: ``|jk>`` lives at row/column ``j * d_B + k``.
    States compare and hash by identity.
    """

    rho: DensityMatrix
    d_A: int
    d_B: int

    def __post_init__(self):
        if self.d_A < 1 or self.d_B < 1:
            raise DimensionMismatch("subsystem dimensions must be positive")
        if self.d_A * self.d_B != self.rho.dim:
            raise DimensionMismatch(
                f"d_A * d_B = {self.d_A * self.d_B} != matrix dimension {self.rho.dim}"
            )

    @property
    def mat(self) -> np.ndarray:
        return self.rho.mat

    @property
    def dim(self) -> int:
        return self.rho.dim

    def label_of(self, index: int) -> tuple[int, int]:
        """Product-basis label (j, k) of a flat index."""
        return divmod(index, self.d_B)

    def index_of(self, j: int, k: int) -> int:
        return j * self.d_B + k


def singular_values(x) -> np.ndarray:
    """Singular values of a matrix (of each matrix of a stack),
    nonnegative and descending."""
    x = as_complex_stack(x)
    try:
        return np.linalg.svd(x, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergence(str(exc)) from exc


def trace_norm(x):
    """Schatten 1-norm: the sum of singular values (an array of them for
    a stack)."""
    return _scalar(np.sum(singular_values(x), axis=-1))


def entrywise_l1_norm(x):
    """Sum of entry moduli (an array of them for a stack)."""
    return _scalar(np.sum(np.abs(as_complex_stack(x)), axis=(-2, -1)))


def partial_transpose(state, dims: tuple[int, int] | None = None) -> np.ndarray:
    """Partial transpose over subsystem A of a BipartiteState, or of a
    matrix or ``(..., d, d)`` stack of them on ``dims`` = (d_A, d_B).

    ``<jk| out |j'k'> = <j'k| in |jk'>``; Hermiticity and trace are
    preserved exactly.
    """
    if isinstance(state, BipartiteState):
        m, (d_a, d_b) = state.mat, (state.d_A, state.d_B)
    else:
        m, (d_a, d_b) = state, dims
    lead = m.shape[:-2]
    return (
        m.reshape(*lead, d_a, d_b, d_a, d_b)
        .swapaxes(-4, -2)
        .reshape(*lead, d_a * d_b, d_a * d_b)
    )


def entropy_of_spectrum(lams: np.ndarray, tol: float) -> float:
    """-sum l log2 l over a real spectrum or probability vector.

    Entries below the relative zero cutoff are dropped; raises
    NegativeEigenvalue when one lies below ``-tol``.
    """
    return float(_entropies(np.asarray(lams)[None], tol)[0])


def _entropies(lams: np.ndarray, tols) -> np.ndarray:
    """``entropy_of_spectrum`` of each row of a ``(T, n)`` array, row t
    checked at ``tols[t]`` (one tolerance or one per row).

    A row's sum is taken as ``np.sum`` takes it over the row's kept terms
    alone: the rows with equal kept counts are summed as one array.
    """
    tols = np.zeros(len(lams)) + tols
    bad = lams < -tols[:, None]
    if bad.any():
        t = int(np.flatnonzero(bad.any(axis=1))[0])
        raise NegativeEigenvalue(f"eigenvalue {lams[t][bad[t]].min():.3e} below -{tols[t]:.3e}")
    scale = np.fmax(1.0, np.abs(lams).max(axis=1, initial=0.0))  # as max(1.0, nan) is 1.0
    kept = lams > ZERO_EIGENVALUE_RTOL * scale[:, None]
    terms = lams[kept]
    terms *= np.log2(terms)
    counts = kept.sum(axis=1)
    starts = np.cumsum(counts) - counts
    out = np.full(len(lams), -0.0)  # -np.sum of no terms
    sizes = np.flatnonzero(np.bincount(counts))
    for c in sizes[sizes > 0].tolist():
        rows = np.flatnonzero(counts == c)
        out[rows] = -terms[starts[rows, None] + np.arange(c)].sum(axis=1)
    return out


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum_i lambda_i log2 lambda_i over the positive spectrum."""
    return entropy_of_spectrum(rho._ascending()[::-1], rho.validation_tol)


def binary_entropy(x):
    """H(x) = -x log2 x - (1-x) log2 (1-x) on [0, 1], with H(0) = H(1) = 0
    (of each entry of an array)."""
    x = np.asarray(x, dtype=float)
    bad = ~((-1e-12 <= x) & (x <= 1 + 1e-12))
    if bad.any():
        raise OutOfRange(f"binary entropy argument {x[bad].flat[0]} outside [0, 1]")
    x = np.clip(x, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 0.0 - np.where(x > 0.0, x * np.log2(x), 0.0)
        out -= np.where(x < 1.0, (1 - x) * np.log2(1 - x), 0.0)
    return _scalar(out)
