"""Dense complex-matrix kernel: validated states, decompositions, norms,
partial transpose, tensor products, and entropies.

All matrices are plain numpy arrays with complex dtype.  The product-basis
index convention for a bipartite system is fixed globally: basis ket
``|j k>`` maps to row/column ``j * d_B + k``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class DensityMatrix:
    """Validated Hermitian, PSD, unit-trace complex matrix.

    Validation happens on construction; ``validation_tol`` bounds the
    allowed Hermiticity defect, the most negative eigenvalue, and the
    trace deviation from 1.  The spectrum validation computes is kept,
    so ``eigenvalues`` and ``von_neumann_entropy`` never decompose again.
    Unless a row is full, it is taken block by block over the connected
    components of the nonzero pattern (``_component_spectrum``): the
    matrix is a direct sum of its principal blocks on them, up to a
    permutation of the basis.
    """

    mat: np.ndarray
    validation_tol: float = DEFAULT_TOL
    # (matrix the spectrum belongs to, read-only ascending spectrum)
    _spectrum: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        m = as_complex_matrix(self.mat)
        if m.shape[0] != m.shape[1]:
            raise ValidationError(f"density matrix must be square, got {m.shape}")
        object.__setattr__(self, "mat", m)
        present = m != 0
        if present.all(axis=1).any():  # a full row: the pattern is one component
            self._validate(np.max(np.abs(m - m.conj().T)), lambda: _hermitian_spectrum(m))
            return
        rows, cols = np.nonzero(present)
        # the dense max |M - M^dag|: every other entry pair is zero on both sides
        defect = np.abs(m[rows, cols] - m[cols, rows].conj()).max(initial=0.0)
        self._validate(defect, lambda: _component_spectrum(m, rows, cols))

    @classmethod
    def from_stack(cls, mats, validation_tols=DEFAULT_TOL) -> list[DensityMatrix]:
        """Validate each matrix of a ``(T, d, d)`` stack, ``mats[t]`` at
        ``validation_tols[t]`` (one tolerance or one per matrix).

        The checks are the constructor's, taken for the whole stack at once,
        and the spectra (``_spectra``) those it keeps; a matrix that fails is
        passed to the constructor, so the error and its message are the ones
        ``DensityMatrix(mats[t], validation_tols[t])`` raises.  The states
        hold views of ``mats`` and keep their spectra.
        """
        mats = as_complex_stack(mats)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValidationError(f"expected a stack of square matrices, got {mats.shape}")
        if not len(mats):
            return []
        tols = np.zeros(len(mats)) + validation_tols
        defects = np.abs(mats - _dagger(mats)).max(axis=(1, 2), initial=0.0)
        traces = mats.trace(axis1=1, axis2=2)
        spectra = _spectra(mats, mats != 0)
        # defects >= 0, so a negative tolerance is caught here as well
        bad = np.maximum(np.maximum(defects, np.abs(traces - 1)), -spectra[:, 0]) > tols
        for t in np.flatnonzero(bad):
            cls(mats[t], float(tols[t]))  # raises what the dense constructor raises
        # validated above, as a stack
        return [cls._validated(m, tol, lam) for m, tol, lam in zip(mats, tols.tolist(), spectra)]

    @classmethod
    def _validated(cls, mat: np.ndarray, validation_tol: float, spectrum: np.ndarray):
        """A state whose checks the caller has already made, holding
        ``mat`` and its ascending ``spectrum`` (which becomes read-only)."""
        self = object.__new__(cls)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "validation_tol", validation_tol)
        spectrum.flags.writeable = False
        object.__setattr__(self, "_spectrum", (mat, spectrum))
        return self

    def _validate(self, herm_defect: float, spectrum) -> None:
        """Check ``mat``, given its Hermiticity defect max |M - M^dag| and
        ``spectrum()``, its ascending spectrum (taken only once the cheaper
        checks pass), and keep that spectrum, read-only."""
        tol = self.validation_tol
        if tol < 0:
            raise ValidationError("validation_tol must be nonnegative")
        if herm_defect > tol:
            raise ValidationError(
                f"not Hermitian: max |M - M^dag| = {herm_defect:.3e} > {tol:.3e}"
            )
        tr = self.mat.trace()
        if abs(tr - 1) > tol:
            raise ValidationError(f"trace is {tr:.6g}, expected 1 within {tol:.3e}")
        lam = spectrum()
        if lam[0] < -tol:
            raise ValidationError(
                f"smallest eigenvalue {lam[0]:.3e} below -{tol:.3e}"
            )
        lam.flags.writeable = False
        object.__setattr__(self, "_spectrum", (self.mat, lam))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def _ascending(self) -> np.ndarray:
        source, lam = self._spectrum
        if source is not self.mat:  # ``mat`` was swapped after validation
            lam = _hermitian_spectrum(self.mat)
            lam.flags.writeable = False
            object.__setattr__(self, "_spectrum", (self.mat, lam))
        return lam

    def eigenvalues(self) -> np.ndarray:
        """Real spectrum in descending order (a copy of the cached one)."""
        return self._ascending()[::-1].copy()


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def _hermitian_spectrum(m: np.ndarray) -> np.ndarray:
    """Ascending spectrum of the Hermitian part of ``m`` (of each matrix,
    for a stack)."""
    return np.linalg.eigvalsh((m + _dagger(m)) / 2)


def _spectra(m: np.ndarray, present: np.ndarray,
             dims: tuple[int, int] | None = None) -> np.ndarray:
    """``_component_spectrum`` of ``m`` given ``present``, the nonzero
    pattern of the matrix taken; a stack whose every matrix has a full row
    takes one eigvalsh, the bits the components give a connected matrix.
    So a matrix's spectrum is the same alone or in any stack."""
    if present.all(axis=-1).any(axis=-1).all():
        return _hermitian_spectrum(m if dims is None else partial_transpose(m, dims))
    n = m.shape[-1]
    # entry (t, r, c) sits at flat index (t * n + r) * n + c
    rows, cols = np.divmod(np.flatnonzero(present), n)
    return _component_spectrum(m, rows, cols + (rows - rows % n), dims=dims)


def _component_spectrum(m: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                        dims: tuple[int, int] | None = None) -> np.ndarray:
    """Ascending spectrum of the Hermitian part of the square matrix ``m``
    (of each matrix of a ``(T, n, n)`` stack), or of its partial transpose
    on ``dims`` = (d_A, d_B), from the connected components of the pattern
    of the matrix taken, whose nonzero entries join the nodes ``rows`` and
    ``cols`` (row r of matrix t is node t * n + r, and i ~ j when entry
    (i, j) or (j, i) is not zero): its Hermitian part is the direct sum of
    its principal blocks on them.
    One batched eigvalsh per component size gives the spectrum, except
    that a component of one row and a hollow one of two rows are read off
    their entries, and a pattern with one component per matrix takes one
    eigvalsh of the whole matrix (the partial transpose is formed only
    then).
    """
    n = m.shape[-1]
    stack = m.reshape(-1, n, n)
    rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    # min-label propagation with pointer jumping: each label stays a node
    # of its component and only falls, until every edge joins equal labels
    label = np.arange(stack.shape[0] * n)
    while True:
        np.minimum.at(label, rows, label[cols])
        label = label[label]
        if np.array_equal(label[rows], label[cols]):
            break
    size = np.bincount(label)[label]  # of each node's component
    if size.min() == n:  # one component per matrix
        return _hermitian_spectrum(m if dims is None else partial_transpose(m, dims))
    order = np.lexsort((label, size))  # by component size, then component
    nodes_of_size = np.bincount(size)
    parts, owners, start = [], [], 0
    for s in np.flatnonzero(nodes_of_size).tolist():
        idx = order[start:start + nodes_of_size[s]].reshape(-1, s)
        start += idx.size
        owner, r = np.divmod(idx, n)  # each component's rows, ascending
        i, j = r[:, :, None], r[:, None, :]
        if dims is not None:  # entry (i, j) of the partial transpose, read off m
            d_b = dims[1]
            i, j = (j // d_b) * d_b + i % d_b, (i // d_b) * d_b + j % d_b
        blocks = stack[owner[:, :1, None], i, j]
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
    return lam[np.lexsort((lam, owner))].reshape(m.shape[:-1])


@dataclass(frozen=True)
class BipartiteState:
    """A DensityMatrix together with subsystem dimensions (d_A, d_B).

    Index convention: ``|jk>`` lives at row/column ``j * d_B + k``.
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


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product, consistent with the j*d_B + k index convention."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


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


def dephase(rho: DensityMatrix) -> DensityMatrix:
    """Zero every off-diagonal entry, keeping the diagonal."""
    d = np.diag(np.diag(rho.mat).real.astype(complex))
    return DensityMatrix(d, rho.validation_tol)
