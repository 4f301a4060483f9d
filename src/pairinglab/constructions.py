"""Explicit states and transformations: maximally correlated states,
qubit-qudit pairing states, the generalized-CNOT embedding, the
root-of-unity dilation chain used in the uniqueness argument, and named
counterexamples."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from . import linalg, measures
from .errors import (
    DimensionCapExceeded,
    Infeasible,
    InvalidCoeffs,
    LabelCollision,
    PhaseNotRoot,
    SupportOverlap,
    UnknownName,
    ValidationError,
    WeightMismatch,
)
from .linalg import BipartiteState, DensityMatrix


@dataclass(frozen=True, eq=False)
class MCSpec:
    """Coefficient matrix plus injective A/B label lists of a canonical
    maximally correlated state.  Specs compare and hash by identity."""

    coeffs: np.ndarray
    a_labels: tuple[int, ...]
    b_labels: tuple[int, ...]
    # the coefficient matrix, validated as a state
    _rho: DensityMatrix = field(init=False, repr=False)

    def __post_init__(self):
        c = linalg.as_complex_matrix(self.coeffs)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "a_labels", tuple(int(j) for j in self.a_labels))
        object.__setattr__(self, "b_labels", tuple(int(k) for k in self.b_labels))
        r = c.shape[0]
        if len(self.a_labels) != r or len(self.b_labels) != r:
            raise LabelCollision("label lists must match the coefficient dimension")
        if len(set(self.a_labels)) != r or len(set(self.b_labels)) != r:
            raise LabelCollision("A labels and B labels must each be pairwise distinct")
        try:
            object.__setattr__(self, "_rho", DensityMatrix(c, linalg.DEFAULT_TOL))
        except ValidationError as exc:
            raise InvalidCoeffs(str(exc)) from exc


def make_mc_state(spec: MCSpec, d_a: int, d_b: int) -> BipartiteState:
    """rho = sum_rs c_rs |j_r k_r><j_s k_s| on a d_A x d_B system."""
    if min(spec.a_labels) < 0 or min(spec.b_labels) < 0:
        raise LabelCollision("labels must be nonnegative")
    if max(spec.a_labels) >= d_a or max(spec.b_labels) >= d_b:
        raise LabelCollision("labels exceed the subsystem dimensions")
    # distinct labels in range give distinct indices
    idx = [j * d_b + k for j, k in zip(spec.a_labels, spec.b_labels)]
    return BipartiteState(_embedded(spec._rho, idx, d_a * d_b), d_a, d_b)


def make_qubit_qudit_pairing(
    p0: float,
    diag,
    blocks: list[tuple[float, np.ndarray, tuple[int, int]]],
) -> BipartiteState:
    """Assemble a canonical 2 x d_B pairing state from a weighted diagonal
    part and 2x2 maximally correlated blocks on disjoint B-column pairs.

    ``diag`` is a probability vector over the 2*d_B product basis (its
    support must avoid the block columns); each block is
    (weight, 2x2 unit-trace coefficient matrix, (k0, k1)) supported on
    |0 k0> and |1 k1>, with integer columns k0 and k1.  The state is the
    direct sum of the weighted blocks and the diagonal's 1 x 1 blocks
    (``DensityMatrix._of_blocks``): it holds their entries and is
    validated at ``linalg.DEFAULT_TOL`` given their spectra.  A sum that
    is not a state raises the error ``DensityMatrix`` raises for the
    dense matrix.
    """
    diag = np.asarray(diag, dtype=float)
    if diag.ndim != 1 or diag.size % 2:
        raise WeightMismatch("diag must be a flat vector over the 2 x d_B product basis")
    d_b = diag.size // 2
    weights = [p for p, _, _ in blocks]
    if not (np.isfinite(diag).all() and np.isfinite([p0, *weights]).all()):
        raise WeightMismatch("p0, the block weights and diag must be finite numbers")
    if abs(p0 + sum(weights) - 1.0) > linalg.DEFAULT_TOL:
        raise WeightMismatch(f"p0 + block weights = {p0 + sum(weights):.6g}, expected 1")
    if p0 > 0 and abs(diag.sum() - 1.0) > linalg.DEFAULT_TOL:
        raise WeightMismatch("diag must be normalized when p0 > 0")

    used_cols: set[int] = set()
    for _, _, (k0, k1) in blocks:
        try:
            cols = {operator.index(k0), operator.index(k1)}
        except TypeError:
            raise SupportOverlap(f"B-columns must be integers, got ({k0!r}, {k1!r})") from None
        if len(cols) != 2 or not all(0 <= k < d_b for k in cols):
            raise SupportOverlap(f"invalid B-column pair ({k0}, {k1})")
        if used_cols & cols:
            raise SupportOverlap("block B-columns must be pairwise disjoint")
        used_cols |= cols
    diag_cols = {i % d_b for i in np.flatnonzero(diag > 0)}
    if p0 > 0 and diag_cols & used_cols:
        raise SupportOverlap("diagonal support overlaps a block column pair")

    coeffs = _coeff_stack(blocks)
    # p0 diag(diag) plus each weighted block on its rows (k0, d_B + k1),
    # each summed onto zeros as a dense matrix sums them
    d = 2 * d_b
    on_diag = np.zeros(d, dtype=complex)
    if p0 > 0:
        on_diag += p0 * diag.astype(complex)
    rows = np.array([(k0, d_b + k1) for _, _, (k0, k1) in blocks], dtype=np.intp).reshape(-1, 2)
    placed = np.zeros((len(blocks), 2, 2), dtype=complex)
    placed[:, [0, 1], [0, 1]] = on_diag[rows]
    placed += np.array(weights).reshape(-1, 1, 1) * coeffs
    # the diagonal off the blocks' rows, one 1 x 1 block per row
    alone = np.flatnonzero(np.bincount(rows.ravel(), minlength=d) == 0)
    rho = DensityMatrix._of_blocks([(on_diag[alone, None, None], alone[:, None, None]),
                                    (placed, rows[:, None])], linalg.DEFAULT_TOL)
    return BipartiteState(rho, 2, d_b)


def _coeff_stack(blocks) -> np.ndarray:
    """The ``(B, 2, 2)`` coefficient matrices of ``blocks``, validated as
    one stack.  A fault is that of the first faulty block: a matrix that
    is not 2x2 or not finite counts only after the blocks before it
    pass."""
    mats, fault = [], None
    for _, coeffs, _ in blocks:
        try:
            c = linalg.as_complex_matrix(coeffs)
        except (TypeError, ValueError) as exc:
            fault = exc
            break
        if c.shape != (2, 2):
            fault = InvalidCoeffs(f"block coefficients must be 2x2, got shape {c.shape}")
            break
        mats.append(c)
    mats = np.array(mats, dtype=complex).reshape(-1, 2, 2)
    try:
        linalg._validated_stack(mats, linalg.DEFAULT_TOL)
    except ValidationError as exc:
        raise InvalidCoeffs(str(exc)) from exc
    if fault is not None:
        raise fault
    return mats


def cnot_embed(rho: DensityMatrix) -> BipartiteState:
    """Embed coherence into entanglement via the generalized CNOT:
    output = sum_jk rho_jk |jj><kk| on a d x d system.

    The output is canonically maximally correlated with negativity equal
    to C_l1 of the input.
    """
    d = rho.dim
    return BipartiteState(_embedded(rho, [j * d + j for j in range(d)], d * d), d, d)


def _embedded(rho: DensityMatrix, idx: list[int], n: int) -> DensityMatrix:
    """``rho`` placed on the distinct rows and columns ``idx`` of an n x n
    zero matrix, held by its entries (rho's, moved) and validated without
    a decomposition or a scan of the n x n matrix."""
    at, vals = rho._stack().entries()
    rows, cols = np.divmod(at, rho.dim)
    idx = np.asarray(idx)
    moved = idx[rows] * n + idx[cols]
    order = np.argsort(moved)
    # an isometric embedding keeps rho's Hermiticity defect, trace and
    # nonzero spectrum, so it passes rho's checks with rho's spectrum plus zeros
    lam = np.sort(np.concatenate([rho._ascending(), np.zeros(n - rho.dim)]))
    return DensityMatrix._validated(rho.validation_tol, lam,
                                    linalg._Stack.of_entries((1, n, n), moved[order], vals[order]))


@dataclass(frozen=True, eq=False)
class AppendixAChain:
    """The dilation chain rho -> rho2 -> rho3 -> rho4 built from a group of
    diagonal root-of-unity unitaries; ``report`` carries the verified
    structural checks.  Chains compare and hash by identity."""

    K: int
    L: int
    omega: complex
    rho2: DensityMatrix
    rho3: DensityMatrix
    rho4: DensityMatrix
    weights: np.ndarray  # |rho_jk| for j < k
    v_diag: np.ndarray
    report: dict


def _entries(runs, part) -> np.ndarray:
    """``part(blocks)`` of each run's stack (one row per block), each row
    repeated as often as its block stands, flattened: those entries of the
    direct sum of ``runs`` (see ``_block_diagonal``) block by block, in the
    order of the dense matrix's rows."""
    return np.concatenate([np.repeat(part(blocks), copies, axis=0).ravel()
                           for blocks, copies in runs])


def _block_diagonal(runs, tol: float) -> DensityMatrix:
    """The direct sum of the blocks of ``runs`` along the diagonal,
    validated at ``tol`` by ``DensityMatrix._of_blocks``.  ``runs`` lists
    (blocks, copies): a (T, s, s) stack whose every block stands
    ``copies`` (at least 1) times in a row."""
    parts, start = [], 0
    for blocks, copies in runs:
        t, s = len(blocks), blocks.shape[-1]
        first = start + s * np.arange(t * copies).reshape(t, copies, 1)
        parts.append((blocks, first + np.arange(s)))
        start += s * t * copies
    return DensityMatrix._of_blocks(parts, tol)


def _offdiag(blocks: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of each block of a stack, row-major."""
    return blocks[:, ~np.eye(blocks.shape[-1], dtype=bool)]


def _multiset(vals: np.ndarray, cut: float = 1e-13) -> np.ndarray:
    """``vals`` above ``cut`` in modulus, sorted (stably) by real and then
    imaginary part."""
    vals = vals[np.abs(vals) > cut]
    # round the sort keys so sign noise around zero cannot scramble the order
    order = np.lexsort((np.round(vals.imag, 12), np.round(vals.real, 12)))
    return vals[order]


def appendix_a_chain(rho: DensityMatrix, L: int, dim_cap: int = 4096) -> AppendixAChain:
    """Instantiate the uniqueness-proof state chain for a state whose
    off-diagonal phases are L-th roots of unity.

    K is the smallest integer >= 2d divisible by L.  Raises Infeasible
    for a state of dimension 1, PhaseNotRoot when a phase is not an L-th
    root of unity within 1e-9, and DimensionCapExceeded when any
    constructed matrix would exceed ``dim_cap``.
    """
    if L < 1:
        raise ValueError("L must be a positive integer")
    d = rho.dim
    if d < 2:
        raise Infeasible("the chain needs dimension at least 2")
    m = rho.mat

    for j in range(d):
        for k in range(d):
            if j != k and abs(m[j, k]) > 1e-12:
                phase = m[j, k] / abs(m[j, k])
                if abs(phase**L - 1.0) > 1e-9:
                    raise PhaseNotRoot(
                        f"phase of entry ({j},{k}) is not an L={L} root of unity"
                    )

    K = ((2 * d + L - 1) // L) * L
    omega = np.exp(2j * np.pi / K)
    dim2 = d * K**d
    mult2 = 2 * (K ** (d - 2) - 1) // (K - 1)
    per_pair = 2 * K ** (d - 2) * K + mult2 * K + K * 2
    dim3 = d * (d - 1) // 2 * per_pair + 1
    if max(dim2, dim3) > dim_cap:
        raise DimensionCapExceeded(
            f"chain dimensions ({dim2}, {dim3}) exceed cap {dim_cap}"
        )

    tol = rho.validation_tol
    # rho2: uniform mixture of conjugations by every diagonal unitary with
    # K-th root-of-unity entries, one block per unitary in the order of
    # itertools.product
    u = omega ** np.indices((K,) * d).reshape(d, -1).T
    conj = (u[:, :, None] * m * u.conj()[:, None, :]) / K**d
    rho2 = _block_diagonal([(conj, 1)], tol)

    psi = omega ** np.arange(K) / np.sqrt(K)
    phi = np.ones(K) / np.sqrt(K)
    psi_proj = np.outer(psi, psi.conj())
    phi_proj = np.outer(phi, phi.conj())
    ones2 = np.ones((2, 2), dtype=complex)
    weights = np.array([abs(m[j, k]) for j in range(d) for k in range(j + 1, d)])

    def unit(b: np.ndarray) -> np.ndarray:
        # a diagonal block of kron(eye(n), b) as a complex core holds it:
        # a complex b times 1 + 0j (which can flip the sign of a zero), a
        # real b cast to complex, so later products and quotients take the
        # complex loops and the blocks match the dense M bit for bit
        return np.kron(np.eye(1), b).astype(complex)

    def chain_runs(core) -> tuple[list, float]:
        """(runs, tr(M)): the runs of the diagonal blocks of M, for each
        pair j < k |rho_jk| / K^(d-1) times each (block, copies) of
        ``core``, then the 1 - tr(M) corner, with tr(M) summed as the dense
        trace sums it."""
        runs = [(w * b[None] / K ** (d - 1), copies)
                for w in weights for b, copies in core if copies]
        tr_m = float(_entries(runs, lambda blocks: blocks.diagonal(axis1=1, axis2=2)).sum().real)
        return [*runs, (np.array([[[1.0 - tr_m]]]), 1)], tr_m

    # per pair, M holds 2K^(d-2) copies of the rank-one block, mult2 of
    # phi_proj and K of ones2 / K: the rank-one block is psi_proj in rho3
    # and phi_proj in rho4
    two = (unit(ones2) / K, K)
    runs3, tr_m = chain_runs([(unit(psi_proj), 2 * K ** (d - 2)), (unit(phi_proj), mult2), two])
    runs4, _ = chain_runs([(unit(phi_proj), 2 * K ** (d - 2) + mult2), two])
    rho3, rho4 = _block_diagonal(runs3, tol), _block_diagonal(runs4, tol)

    v_diag = omega ** (-np.arange(K))

    off2 = _multiset(_offdiag(conj).ravel())
    off3 = _multiset(_entries(runs3, _offdiag))
    if off2.size != off3.size:
        multiset_gap = np.inf
    elif off2.size == 0:
        multiset_gap = 0.0
    else:
        multiset_gap = float(np.max(np.abs(off2 - off3)))
    # the two sums have blocks of the same sizes in the same order, so
    # their entries, block by block, align
    abs3, real4 = (_entries(runs, lambda blocks: blocks.reshape(len(blocks), -1))
                   for runs in (runs3, runs4))
    abs_gap = float(np.max(np.abs(np.abs(abs3) - real4.real)))
    report = {
        "K_divisible_by_L": K % L == 0 and K >= 2 * d,
        "trace_M": tr_m,
        "trace_M_below_1": tr_m < 1.0,
        "offdiag_count_rho2": int(off2.size),
        "offdiag_count_rho3": int(off3.size),
        "offdiag_multiset_gap": multiset_gap,
        "offdiag_multiset_match": off2.size == off3.size and multiset_gap <= 1e-10,
        "rho4_abs_gap": abs_gap,
        "rho4_is_entrywise_abs_of_rho3": abs_gap <= 1e-10,
    }
    return AppendixAChain(
        K=K,
        L=L,
        omega=complex(omega),
        rho2=rho2,
        rho3=rho3,
        rho4=rho4,
        weights=weights,
        v_diag=v_diag,
        report=report,
    )


@dataclass(frozen=True, eq=False)
class Counterexample:
    """A named state with an optional non-PSD companion matrix and the
    numeric facts that make it a (non)example.  Counterexamples compare
    and hash by identity."""

    name: str
    state: BipartiteState | DensityMatrix
    companion: np.ndarray | None
    details: dict


def _tau_remark() -> Counterexample:
    a = 1.0 / np.sqrt(2.0)
    m = np.array(
        [[1, a, 0, -a], [a, 1, a, 0], [0, a, 1, a], [-a, 0, a, 1]], dtype=complex
    ) / 4.0
    rho = DensityMatrix(m, 1e-12)
    tau = np.abs(m).astype(complex)
    tau_eigs = np.linalg.eigvalsh(tau)
    details = {
        "rho_eigenvalues": rho.eigenvalues(),
        "tau_eigenvalues": tau_eigs[::-1],
        "tau_min_eigenvalue": float(tau_eigs[0]),
    }
    return Counterexample("tau-remark", rho, tau, details)


def _appendix_f() -> Counterexample:
    # 3x3 state that saturates N = C_l1 but has no direct-sum block
    # structure: equal mixture of |02>, |20>, (|00>+|11>)/sqrt2,
    # (|11>+|22>)/sqrt2
    def ket(j, k):
        v = np.zeros(9)
        v[3 * j + k] = 1.0
        return v

    psi = (ket(0, 0) + ket(1, 1)) / np.sqrt(2)
    phi = (ket(1, 1) + ket(2, 2)) / np.sqrt(2)
    m = (
        np.outer(ket(0, 2), ket(0, 2))
        + np.outer(ket(2, 0), ket(2, 0))
        + np.outer(psi, psi)
        + np.outer(phi, phi)
    ) / 4.0
    bs = BipartiteState(DensityMatrix(m.astype(complex), 1e-12), 3, 3)
    n, _ = measures.negativity(bs)
    details = {"N": n, "C_l1": measures.c_l1(bs.rho)}
    return Counterexample("appendix-f", bs, None, details)


def isotropic_mixture(p: float, psi, d_a: int, d_b: int) -> BipartiteState:
    """p |psi><psi| + (1 - p) I / (d_A d_B)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing parameter p = {p} outside [0, 1]")
    v = np.asarray(psi, dtype=complex).ravel()
    v = v / np.linalg.norm(v)
    d = d_a * d_b
    if v.size != d:
        raise ValueError("pure part has wrong dimension")
    m = p * np.outer(v, v.conj()) + (1.0 - p) * np.eye(d) / d
    return BipartiteState(DensityMatrix(m, linalg.DEFAULT_TOL), d_a, d_b)


def bell_vector() -> np.ndarray:
    return np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def named_counterexample(name: str, p: float | None = None) -> Counterexample:
    """Dispatch on {tau-remark, appendix-f, isotropic}; the isotropic state
    mixes the Bell vector with weight ``p``."""
    if name == "tau-remark":
        return _tau_remark()
    if name == "appendix-f":
        return _appendix_f()
    if name == "isotropic":
        if p is None:
            raise ValueError("isotropic requires the mixing parameter p")
        bs = isotropic_mixture(p, bell_vector(), 2, 2)
        n, _ = measures.negativity(bs)
        details = {"p": p, "N": n, "C_l1": measures.c_l1(bs.rho)}
        return Counterexample("isotropic", bs, None, details)
    raise UnknownName(f"unknown counterexample {name!r}")
