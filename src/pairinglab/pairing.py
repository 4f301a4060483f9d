"""Structure theory of canonical pairing states.

A canonical pairing state is one whose partial transpose is monomial with
a disjoint-transposition permutation structure; exactly these states
saturate the negativity <= C_l1 bound in the reference product basis.
This module detects them (returning a certificate), decomposes the
qubit-qudit case into maximally correlated blocks, evaluates closed-form
distillable entanglement / entanglement cost, extracts two-qubit
distillation witnesses, and evaluates projective lower bounds on the
distillable entanglement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, measures
from .errors import (
    ConditionViolated,
    InvalidPartition,
    NoConvergence,
    NoTransposition,
    NotCanonicalPairing,
    NotQubit,
)
from .linalg import BipartiteState, DensityMatrix

Label = tuple[int, int]


@dataclass(frozen=True)
class PairingCertificate:
    """The disjoint-transposition structure of a monomial partial transpose.

    ``transpositions`` holds pairs of product-basis labels ((j,k), (j',k'));
    ``fixed_points`` the labels with positive diagonal weight; the pairing
    number equals the number of transpositions.
    """

    transpositions: tuple[tuple[Label, Label], ...]
    fixed_points: tuple[Label, ...]
    pairing_number: int

    def __post_init__(self):
        if self.pairing_number != len(self.transpositions):
            raise ValueError("pairing_number must equal the transposition count")


def detect_canonical_pairing(
    bs: BipartiteState, zero_tol: float = 1e-10
) -> PairingCertificate | None:
    """Certify a canonical pairing state, or return None.

    An entry of rho^T_A counts as present when its modulus exceeds
    ``zero_tol`` times the largest entry modulus.  Detection succeeds iff
    the partial transpose is monomial and the induced permutation is a
    product of disjoint transpositions ((j,k), (j',k')) with j != j',
    k != k', and positive diagonal weight at (j,k') and (j',k).

    Saturation N = C_l1 is proved from the entries alone: with rho^T_A =
    M + R, M the kept monomial part and R the dropped remainder,
    ||M||_1 = ||M||_l1 and ||R||_1 <= ||R||_l1 give
    |N - C_l1| <= |sum_i |rho_ii| - 1| + 2 ||R||_l1.  Only when that bound
    exceeds the tolerance is N computed, by an SVD.
    """
    pt = linalg.partial_transpose(bs)
    d = pt.shape[0]
    mod = np.abs(pt)
    top = float(np.max(mod))
    present = mod > zero_tol * top

    if np.any(present.sum(axis=0) > 1) or np.any(present.sum(axis=1) > 1):
        return None

    # the permutation, one entry per nonempty row; empty rows carry zero weight
    rows, cols = np.nonzero(present)
    partner = dict(zip(rows.tolist(), cols.tolist()))

    for r, c in partner.items():
        if partner.get(c) != r:
            return None  # not an involution; cannot be Hermitian-consistent

    fixed = {r for r, c in partner.items() if r == c}
    trans = sorted({(min(r, c), max(r, c)) for r, c in partner.items() if r != c})

    transpositions = []
    for r, c in trans:
        j, k = bs.label_of(r)
        jp, kp = bs.label_of(c)
        if j == jp or k == kp:
            return None
        # companion condition: (j,k') and (j',k) must be fixed points
        if bs.index_of(j, kp) not in fixed or bs.index_of(jp, k) not in fixed:
            return None
        transpositions.append(((j, k), (jp, kp)))

    cert = PairingCertificate(
        transpositions=tuple(transpositions),
        fixed_points=tuple(sorted(bs.label_of(r) for r in fixed)),
        pairing_number=len(transpositions),
    )

    # soundness: certified states must actually saturate N = C_l1
    slack = 10 * zero_tol * d * max(1.0, top)
    trace_defect = abs(float(np.sum(np.diag(mod))) - 1.0)
    if trace_defect + 2.0 * float(np.sum(mod, where=~present)) <= slack:
        return cert
    n = linalg.trace_norm(pt) - 1.0
    if abs(n - measures.c_l1(bs.rho)) > slack:
        return None
    return cert


def pairing_number_bound_check(cert: PairingCertificate, d_a: int) -> bool:
    """Pairing-number cap d_A(d_A - 1)/2 for equal subsystem dimensions."""
    return cert.pairing_number <= d_a * (d_a - 1) // 2


def ppt_cost_condition(
    bs: BipartiteState, cert: PairingCertificate, diag_tol: float = 1e-8
) -> float:
    """Exact PPT entanglement cost E_PPT = N_L, after verifying that
    |rho^T_A| is diagonal (hence its partial transpose is PSD).

    Raises ConditionViolated when |rho^T_A| has significant off-diagonal
    weight, which signals a certificate/state mismatch.
    """
    pt = linalg.partial_transpose(bs)
    try:  # rho^T_A of a validated state is Hermitian
        w, v = np.linalg.eigh((pt + pt.conj().T) / 2)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise NoConvergence(str(exc)) from exc
    abs_pt = (v * np.abs(w)) @ v.conj().T
    off = abs_pt - np.diag(np.diag(abs_pt))
    if np.max(np.abs(off)) > diag_tol * max(1.0, float(np.max(np.abs(abs_pt)))):
        raise ConditionViolated("|rho^T_A| is not diagonal; state does not match certificate")
    if float(np.min(np.diag(abs_pt).real)) < -1e-9:
        raise ConditionViolated("|rho^T_A|^T_A has a negative diagonal entry")
    # N_L from the same spectrum (ascending, as measures.negativity sums it)
    _, n_log = measures._negativity_of(w)
    return float(n_log)


def _renormalized(sub: np.ndarray, tol: float, spectrum: np.ndarray | None = None):
    """Weight p = tr(sub) of a principal block of a state validated at
    ``tol``, and the block renormalized to unit trace; for a ``(T, n, n)``
    stack of blocks, the array of weights and the list of blocks.

    A principal block keeps the source's Hermiticity defect and (by
    interlacing) its smallest eigenvalue, so dividing by p scales both by
    1/p: each block is validated at the source tolerance over its p.
    ``spectrum``, given when the block is the whole source state, is that
    state's validated spectrum: the block's checks then hold already, and
    its spectrum is that over p.
    """
    p = np.trace(sub, axis1=-2, axis2=-1).real
    block_tol = max(tol, linalg.DEFAULT_TOL) / p
    if spectrum is not None:
        return float(p), DensityMatrix._validated(sub / p, float(block_tol), spectrum / p)
    if sub.ndim == 2:
        return float(p), DensityMatrix(sub / p, float(block_tol))
    return p, DensityMatrix.from_stack(sub / p[:, None, None], block_tol)


@dataclass(frozen=True)
class MCBlock:
    """One 2x2 maximally correlated block of a qubit-qudit decomposition.

    The block is supported on |0 b_columns[0]> and |1 b_columns[1]>, with
    unit-trace coefficient matrix ``coeffs`` in that order.
    """

    weight: float
    coeffs: DensityMatrix
    b_columns: tuple[int, int]

    @property
    def block_negativity(self) -> float:
        return 2.0 * float(np.abs(self.coeffs.mat[0, 1]))


@dataclass(frozen=True)
class QubitQuditDecomposition:
    """Block data of a canonical qubit-qudit pairing state: one diagonal
    part plus disjoint 2x2 maximally correlated blocks.

    ``validation_tol`` is that of the state the blocks came from."""

    d_B: int
    p0: float
    diag_probs: np.ndarray  # length 2*d_B, sums to p0, zero on block support
    blocks: tuple[MCBlock, ...]
    validation_tol: float = linalg.DEFAULT_TOL

    @property
    def d_A(self) -> int:
        return 2

    def _matrix(self) -> np.ndarray:
        m = np.diag(self.diag_probs.astype(complex))
        if self.blocks:
            idx = np.array([(k0, self.d_B + k1) for k0, k1 in
                            (blk.b_columns for blk in self.blocks)], dtype=np.intp)
            weighted = np.array([blk.weight * blk.coeffs.mat for blk in self.blocks])
            # add.at accumulates, block after block, even where supports overlap
            np.add.at(m, (idx[:, :, None], idx[:, None, :]), weighted)
        return m

    def reassemble(self) -> BipartiteState:
        """The dense state, validated at ``validation_tol``."""
        return BipartiteState(DensityMatrix(self._matrix(), self.validation_tol), 2, self.d_B)


def qubit_qudit_decompose(
    bs: BipartiteState, zero_tol: float = 1e-10, cert: PairingCertificate | None = None
) -> QubitQuditDecomposition:
    """Split a canonical 2 x d_B pairing state into its diagonal part and
    2x2 maximally correlated blocks on disjoint B-column pairs.

    ``cert`` is the state's certificate when the caller already has it;
    otherwise the state is detected here.  The blocks are validated as one
    stack.  Raises NotQubit if d_A != 2 and NotCanonicalPairing if
    detection fails or the blocks do not reassemble the state.
    """
    if bs.d_A != 2:
        raise NotQubit(f"d_A = {bs.d_A}; decomposition requires a qubit on A")
    if cert is None:
        cert = detect_canonical_pairing(bs, zero_tol)
    if cert is None:
        raise NotCanonicalPairing("state is not a canonical pairing state")

    m = bs.mat
    tol = bs.rho.validation_tol
    columns, support = [], []
    for (j, k), (jp, kp) in cert.transpositions:
        if j != 0:  # orient so the first label sits on A-level 0
            (j, k), (jp, kp) = (jp, kp), (j, k)
        # the rho-support of this transposition is the fixed-point pair
        # (0, kp) and (1, k)
        columns.append((kp, k))
        support.append((bs.index_of(0, kp), bs.index_of(1, k)))
    idx = np.array(support, dtype=np.intp).reshape(-1, 2)
    weights, coeffs = _renormalized(m[idx[:, :, None], idx[:, None, :]], tol)
    blocks = [MCBlock(weight=p, coeffs=c, b_columns=cols)
              for p, c, cols in zip(weights.tolist(), coeffs, columns)]
    used = idx.ravel()

    diag = np.diag(m).real.copy()
    diag[used] = 0.0
    diag[np.abs(diag) < zero_tol] = 0.0
    p0 = float(diag.sum())

    dec = QubitQuditDecomposition(
        d_B=bs.d_B,
        p0=p0,
        diag_probs=diag,
        blocks=tuple(sorted(blocks, key=lambda b: b.b_columns)),
        validation_tol=tol,
    )
    gap = float(np.max(np.abs(dec._matrix() - m)))
    if gap > 1e-9 * max(1.0, float(np.max(np.abs(m)))):
        raise NotCanonicalPairing(f"reassembly gap {gap:.3e}; state is not block-structured")
    return dec


@dataclass(frozen=True)
class PairingMeasures:
    """Closed-form measures of a qubit-qudit pairing state (base-2 units)."""

    E_D: float
    C_D: float
    E_C: float
    C_C: float
    E_PPT: float


def pairing_measures(dec: QubitQuditDecomposition) -> PairingMeasures:
    """Distillable entanglement, entanglement cost, and PPT cost.

    E_D = C_D = S(diag(rho)) - S(rho);
    E_C = C_C = sum_j p_j H((1 + sqrt(1 - N_j^2)) / 2);
    E_PPT = N_L = log2(1 + sum_j p_j N_j).

    Everything is read from the block data: rho is the diagonal part plus
    the weighted blocks on disjoint supports, so its spectrum is the
    diagonal part's entries plus each block's validated spectrum times its
    weight, and its partial transpose is monomial.
    """
    weighted = np.array([blk.weight * blk.coeffs.mat for blk in dec.blocks]).reshape(-1, 2, 2)
    spectrum = np.array([blk.weight * blk.coeffs.eigenvalues() for blk in dec.blocks])
    diagonal = np.diagonal(weighted, axis1=1, axis2=2).real
    s_diag = linalg.entropy_of_spectrum(np.concatenate([dec.diag_probs, diagonal.ravel()]),
                                        dec.validation_tol)
    s_rho = linalg.entropy_of_spectrum(np.concatenate([dec.diag_probs, spectrum.ravel()]),
                                       dec.validation_tol)
    e_d = s_diag - s_rho
    e_c = sum(
        blk.weight
        * linalg.binary_entropy(
            (1.0 + np.sqrt(max(0.0, 1.0 - blk.block_negativity**2))) / 2.0
        )
        for blk in dec.blocks
    )
    e_ppt = float(np.log2(1.0 + sum(blk.weight * blk.block_negativity for blk in dec.blocks)))
    return PairingMeasures(E_D=e_d, C_D=e_d, E_C=float(e_c), C_C=float(e_c), E_PPT=e_ppt)


def distill_witness(
    bs: BipartiteState, cert: PairingCertificate, which: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Project onto the 2x2 subspace of one transposition.

    Returns the local projector P, the subnormalized block P rho P, and
    the negativity of the renormalized block viewed as a two-qubit state.
    The block is always NPT for a certified entangled state.
    """
    if not cert.transpositions:
        raise NoTransposition("certificate has no transpositions; state is separable")
    if not 0 <= which < len(cert.transpositions):
        raise IndexError(f"transposition index {which} out of range")
    (j, k), (jp, kp) = cert.transpositions[which]

    pa = np.zeros((bs.d_A, bs.d_A), dtype=complex)
    pa[j, j] = pa[jp, jp] = 1.0
    pb = np.zeros((bs.d_B, bs.d_B), dtype=complex)
    pb[k, k] = pb[kp, kp] = 1.0
    proj = linalg.tensor_product(pa, pb)
    # P is a diagonal 0/1 projector, so P rho P is rho masked entrywise
    mask = np.diag(proj).real
    block = bs.mat * np.outer(mask, mask)

    idx = _witness_support(bs, cert.transpositions[which])
    _, sub = _renormalized(block[np.ix_(idx, idx)], bs.rho.validation_tol)
    n, _ = measures.negativity(BipartiteState(sub, 2, 2))
    return proj, block, n


def _witness_support(bs: BipartiteState, transposition: tuple[Label, Label]) -> list[int]:
    """Flat indices of the two-qubit subspace of one transposition
    ((j,k), (j',k')): A-levels {j, j'} times B-levels {k, k'}, in the
    product order of a 2 x 2 state."""
    (j, k), (jp, kp) = transposition
    return [bs.index_of(a, b) for a in sorted((j, jp)) for b in sorted((k, kp))]


def distillable_lower_bound(
    bs: BipartiteState,
    cert: PairingCertificate,
    a_pairs: list[tuple[int, int]],
    zero_tol: float = 1e-12,
) -> float:
    """Projective lower bound on E_D: sum over disjoint A-level pairs of
    p_j [S(diag(rho_j)) - S(rho_j)] for the renormalized projected blocks.

    Blocks with probability below ``zero_tol`` are dropped.  With d_A = 2
    and no diagonal part the single-pair bound equals the closed-form E_D.
    """
    seen: set[int] = set()
    for pair in a_pairs:
        if len(set(pair)) != 2 or seen & set(pair):
            raise InvalidPartition(f"A-level subsets must be disjoint pairs, got {a_pairs}")
        seen.update(pair)
        if not all(0 <= a < bs.d_A for a in pair):
            raise InvalidPartition(f"A-level {pair} outside range 0..{bs.d_A - 1}")

    m = bs.mat
    total = 0.0
    for pair in a_pairs:
        idx = [bs.index_of(a, b) for a in sorted(pair) for b in range(bs.d_B)]
        sub = m[np.ix_(idx, idx)]
        if float(sub.trace().real) <= zero_tol:
            continue
        # a pair of all d_A = 2 levels projects onto rho itself
        whole = bs.rho._ascending() if len(idx) == bs.dim else None
        p, rho_j = _renormalized(sub, bs.rho.validation_tol, whole)
        total += p * measures.c_rel_entropy(rho_j)
    return total
