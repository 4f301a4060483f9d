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
from typing import NamedTuple

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


#: default cutoff of detection: an entry of rho^T_A counts as present when
#: its modulus exceeds this times the largest entry modulus
ZERO_TOL = 1e-10


def detect_canonical_pairing(
    bs: BipartiteState, zero_tol: float = ZERO_TOL
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
    exceeds the tolerance is N computed, from the spectrum of rho^T_A that
    ``measures.negativity`` takes.  Every check reads the nonzero entries
    that validation kept.
    """
    return _certify_stack(bs.rho._stack(), (bs.d_A, bs.d_B), zero_tol)[0]


def _certify_stack(stack: linalg._Stack, dims: tuple[int, int],
                   zero_tol: float) -> list[PairingCertificate | None]:
    """``detect_canonical_pairing`` of each matrix of a ``(T, d, d)`` stack
    on ``dims`` = (d_A, d_B): each check is one pass over the nonzero
    entries of the stack, and the checks stop once no matrix passes.

    rho^T_A is never formed: its entries are those of rho, moved, so its
    pattern is read off rho's present entries.
    """
    mats, flat = stack
    certs: list[PairingCertificate | None] = [None] * len(mats)
    d, d_b = mats.shape[-1], dims[1]
    ent = measures._moduli(stack)
    top = linalg._segment_reduce(np.maximum, ent.mod, ent.counts)
    present = ent.mod > linalg._per_entry(zero_tol * top, ent.counts)
    # a monomial matrix has at most d present entries
    ok = linalg._segment_reduce(np.add, present, ent.counts, 0) <= d
    if not ok.any():
        return certs

    # each present entry of rho sits at (r, c) of the rho^T_A of matrix s,
    # in row line = s * d + r of the stack's
    kept = np.flatnonzero(present & linalg._per_entry(ok, ent.counts))
    line, c = np.divmod(linalg._pt_flat(kept if flat is None else flat[kept], d, d_b), d)
    s, r = np.divmod(line, d)
    # monomial: at most one present entry in each row and in each column
    for key in (line, s * d + c):
        ok &= np.bincount(key, minlength=len(mats) * d).reshape(-1, d).max(axis=1) <= 1
    if not ok.any():
        return certs

    # the permutation, one entry per nonempty row, in row order; empty rows
    # carry zero weight.  It must be an involution (else it is not
    # Hermitian-consistent) whose transpositions ((j,k), (j',k')) have
    # j != j', k != k' and the companion fixed points (j,k') and (j',k)
    order = np.argsort(line)
    s, r, c = s[order], r[order], c[order]
    partner = np.full((len(mats), d), -1)
    partner[s, r] = c
    j, k = np.divmod(r, d_b)
    jp, kp = np.divmod(c, d_b)
    bad = partner[s, c] != r
    bad |= (r != c) & ((j == jp) | (k == kp)
                       | (partner[s, j * d_b + kp] != j * d_b + kp)
                       | (partner[s, jp * d_b + k] != jp * d_b + k))
    ok[s[bad]] = False
    if not ok.any():
        return certs

    # soundness: certified states must actually saturate N = C_l1
    slack = 10 * zero_tol * d * np.maximum(1.0, top)
    trace_defect = np.abs(np.abs(np.diagonal(mats, axis1=1, axis2=2)).sum(axis=1) - 1.0)
    # ||R||_l1: the moduli of the nonzero entries that are not present
    remainder = linalg._segment_reduce(np.add, np.where(present, 0.0, ent.mod), ent.counts)
    unsure = np.flatnonzero(ok & (trace_defect + 2.0 * remainder > slack))
    if unsure.size:
        sub = stack.take(unsure)
        n, _ = measures._negativity_of(measures._pt_spectrum(sub, dims))
        c_l1 = measures._c_l1_of(measures._moduli(sub))
        ok[unsure] = np.abs(n - c_l1) <= slack[unsure]

    # each certificate off the sorted entries: its fixed points and its
    # transpositions (r, c), r < c, in row order
    keep = ok[s]
    fixed, trans = keep & (r == c), keep & (r < c)
    fixed_points = list(zip(j[fixed].tolist(), k[fixed].tolist()))
    transpositions = list(zip(zip(j[trans].tolist(), k[trans].tolist()),
                              zip(jp[trans].tolist(), kp[trans].tolist())))
    # matrix t's are fixed_points[f[t]:f[t + 1]] and transpositions[p[t]:p[t + 1]]
    f, p = ([0, *np.cumsum(np.bincount(s[sel], minlength=len(mats))).tolist()]
            for sel in (fixed, trans))
    for t in np.flatnonzero(ok).tolist():
        certs[t] = PairingCertificate(
            transpositions=tuple(transpositions[p[t]:p[t + 1]]),
            fixed_points=tuple(fixed_points[f[t]:f[t + 1]]),
            pairing_number=p[t + 1] - p[t],
        )
    return certs


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


def _block_tol(tol, p: np.ndarray) -> np.ndarray:
    """Validation tolerance of principal blocks of weights (traces) ``p``
    renormalized to unit trace, cut from states validated at ``tol`` (one
    tolerance or one per block).

    A principal block keeps the source's Hermiticity defect and (by
    interlacing) its smallest eigenvalue, so dividing by p scales both by
    1/p: each block is held to the source tolerance over its p.
    """
    return np.maximum(tol, linalg.DEFAULT_TOL) / p


def _renormalized(subs: np.ndarray, tol):
    """Weights p = tr(sub) of a ``(T, n, n)`` stack of principal blocks of
    states validated at ``tol`` (one tolerance or one per block), and the
    blocks renormalized to unit trace, validated as one stack at
    ``_block_tol``."""
    p = np.trace(subs, axis1=1, axis2=2).real
    return p, DensityMatrix.from_stack(subs / p[:, None, None], _block_tol(tol, p))


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
        m = np.diag(self.diag_probs).astype(complex)
        for blk in self.blocks:  # block after block, even where supports overlap
            idx = np.add(blk.b_columns, [0, self.d_B])
            m[np.ix_(idx, idx)] += blk.weight * blk.coeffs.mat
        return m

    def reassemble(self) -> BipartiteState:
        """The dense state, validated at ``validation_tol``."""
        return BipartiteState(DensityMatrix(self._matrix(), self.validation_tol), 2, self.d_B)


class _Blocks(NamedTuple):
    """Block data of the qubit-qudit decompositions of a stack of T
    states: the blocks of each state in B-column order, state by state."""

    diag: np.ndarray  # (T, 2 d_B) diagonal parts
    tols: np.ndarray  # (T,) validation tolerance of each state
    owner: np.ndarray  # (B,) state of each block
    columns: np.ndarray  # (B, 2) B-columns of each block
    weights: np.ndarray  # (B,)
    coeffs: list[DensityMatrix]  # (B,) unit-trace coefficient matrices

    @classmethod
    def of(cls, dec: QubitQuditDecomposition) -> _Blocks:
        """The one-state stack of a decomposition."""
        return cls(dec.diag_probs[None], np.array([dec.validation_tol]),
                   np.zeros(len(dec.blocks), dtype=np.intp),
                   np.array([blk.b_columns for blk in dec.blocks], dtype=np.intp).reshape(-1, 2),
                   np.array([blk.weight for blk in dec.blocks]),
                   [blk.coeffs for blk in dec.blocks])


def _coeff_mats(stack: _Blocks) -> np.ndarray:
    """The ``(B, 2, 2)`` coefficient matrices of a block stack."""
    return np.array([c.mat for c in stack.coeffs]).reshape(-1, 2, 2)


def _transpositions(certs: list[PairingCertificate]) -> np.ndarray:
    """The transpositions of certificates, one after another, as a
    ``(B, 2, 2)`` array of label pairs ((j, k), (j', k'))."""
    return np.array([t for cert in certs for t in cert.transpositions],
                    dtype=np.intp).reshape(-1, 2, 2)


def qubit_qudit_decompose(
    bs: BipartiteState, zero_tol: float = ZERO_TOL, cert: PairingCertificate | None = None
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
    tol, stack = bs.rho.validation_tol, bs.rho._stack()
    blocks, gaps = _decompose_stack(stack, bs.d_B, [cert], tol, zero_tol)
    # the cutoff is 1e-9 times max(1, largest entry modulus), at least 1e-9
    if gaps[0] > 1e-9 and gaps[0] > 1e-9 * float(measures._moduli(stack).mod.max()):
        raise NotCanonicalPairing(f"reassembly gap {gaps[0]:.3e}; state is not block-structured")
    diag = blocks.diag[0]
    return QubitQuditDecomposition(
        d_B=bs.d_B,
        p0=float(diag.sum()),
        diag_probs=diag,
        blocks=tuple(MCBlock(weight=p, coeffs=c, b_columns=tuple(cols))
                     for p, c, cols in zip(blocks.weights.tolist(), blocks.coeffs,
                                           blocks.columns.tolist())),
        validation_tol=tol,
    )


def _decompose_stack(stack: linalg._Stack, d_b: int, certs: list[PairingCertificate], tols,
                     zero_tol: float) -> tuple[_Blocks, np.ndarray]:
    """``qubit_qudit_decompose`` of each canonical 2 x d_B pairing state of
    a ``(T, d, d)`` stack, validated at ``tols`` (one tolerance or one per
    state), from its certificate: the block stack, and each state's
    reassembly gap max |assembled - rho|.  Every block is validated in one
    stack.  Raises NotCanonicalPairing if a block has no weight."""
    mats, flat = stack
    tols = np.zeros(len(mats)) + tols
    trans = _transpositions(certs)
    owner = np.repeat(np.arange(len(certs)), [cert.pairing_number for cert in certs])
    # orient so the first label sits on A-level 0: the rho-support of
    # ((0,k), (1,k')) is the fixed-point pair (0, k') and (1, k)
    (j, k), kp = trans[:, 0].T, trans[:, 1, 1]
    columns = np.where((j == 0)[:, None], np.stack([kp, k], axis=1), np.stack([k, kp], axis=1))
    order = np.lexsort((columns[:, 1], columns[:, 0], owner))
    owner, columns = owner[order], columns[order]
    idx = columns + [0, d_b]
    support = owner[:, None, None], idx[:, :, None], idx[:, None, :]
    subs = mats[support]
    # only a certificate of another state can put a block where rho is zero
    if not np.all(np.trace(subs, axis1=1, axis2=2).real > 0):
        raise NotCanonicalPairing("reassembly gap: a block of the certificate holds no weight; "
                                  "state is not block-structured")
    weights, coeffs = _renormalized(subs, tols[owner])

    diag = np.diagonal(mats, axis1=1, axis2=2).real.copy()
    diag[owner[:, None], idx] = 0.0
    diag[np.abs(diag) < zero_tol] = 0.0
    blocks = _Blocks(diag, tols, owner, columns, weights, coeffs)
    # the block supports are disjoint: |assembled - rho| is |rho| but on the
    # diagonal and on each block's support, so off them it is read off the
    # nonzero entries.  Row r of state t is in a block with row mate[t, r],
    # or mate[t, r] = -1.
    mate = np.full(diag.shape, -1)
    mate[owner[:, None], idx] = idx[:, ::-1]
    d = mats.shape[-1]
    at = np.arange(mats.size) if flat is None else flat
    line, col = np.divmod(at, d)
    at = at[(line % d != col) & (mate.ravel()[line] != col)]
    on_diag = np.abs(diag - np.diagonal(mats, axis1=1, axis2=2))
    on_diag[owner[:, None], idx] = 0.0
    gap = on_diag.max(axis=1, initial=0.0)
    np.maximum.at(gap, at // (d * d), np.abs(mats.ravel()[at]))
    np.maximum.at(gap, owner, np.abs(weights[:, None, None] * _coeff_mats(blocks)
                                     - subs).max(axis=(1, 2)))
    return blocks, gap


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

    Everything is read from the block data (``_closed_forms``).
    """
    e_d, e_c, e_ppt = (float(x[0]) for x in _closed_forms(_Blocks.of(dec)))
    return PairingMeasures(E_D=e_d, C_D=e_d, E_C=e_c, C_C=e_c, E_PPT=e_ppt)


def _closed_forms(stack: _Blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E_D, E_C and E_PPT of each state of a block stack.

    rho is the diagonal part plus the weighted blocks on disjoint supports,
    so its diagonal and its spectrum are the diagonal part's entries plus
    each block's diagonal and validated spectrum times its weight, and its
    partial transpose is monomial.
    """
    t = len(stack.diag)
    coeffs = _coeff_mats(stack)
    spectra = np.array([c._ascending()[::-1] for c in stack.coeffs]).reshape(-1, 2)
    counts = np.bincount(stack.owner, minlength=t)
    slot = np.arange(len(stack.owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    cols = 2 * slot[:, None] + [0, 1]

    def entropies(block_values):
        # each state's row: its diagonal part, then its blocks' values
        rows = np.zeros((t, 2 * counts.max(initial=0)))
        rows[stack.owner[:, None], cols] = stack.weights[:, None] * block_values
        return linalg._entropies(np.concatenate([stack.diag, rows], axis=1), stack.tols)

    e_d = entropies(coeffs.diagonal(axis1=1, axis2=2).real) - entropies(spectra)
    n = 2.0 * np.abs(coeffs[:, 0, 1])  # each block's negativity
    h = linalg.binary_entropy((1.0 + np.sqrt(np.maximum(0.0, 1.0 - n**2))) / 2.0)
    # bincount adds each state's blocks in order, as a running sum does
    e_c = np.bincount(stack.owner, stack.weights * h, minlength=t)
    e_ppt = np.log2(1.0 + np.bincount(stack.owner, stack.weights * n, minlength=t))
    return e_d, e_c, e_ppt


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
    trans = np.array([cert.transpositions[which]])
    mask = np.zeros(bs.dim)
    mask[_witness_supports(trans, bs.d_B)] = 1.0
    (n,) = _witness_negativities(bs.mat[None], bs.d_B, np.zeros(1, dtype=np.intp), trans,
                                 bs.rho.validation_tol)
    # P is a diagonal 0/1 projector, so P rho P is rho masked entrywise
    return np.diag(mask).astype(complex), bs.mat * np.outer(mask, mask), float(n)


def _witness_negativities(mats: np.ndarray, d_b: int, owner: np.ndarray, trans: np.ndarray,
                          tol: float) -> np.ndarray:
    """``distill_witness`` N of each transposition ``trans[i]`` (of a ``(B,
    2, 2)`` array) of ``mats[owner[i]]`` (of a stack of states on d_A x
    ``d_b`` validated at ``tol``), from one stack of renormalized blocks and
    one stacked spectrum of their partial transposes."""
    idx = _witness_supports(trans, d_b)
    _, blocks = _renormalized(mats[owner[:, None, None], idx[:, :, None], idx[:, None, :]], tol)
    subs = np.array([b.mat for b in blocks]).reshape(-1, 4, 4)
    return measures._negativity_of(measures._pt_spectrum(linalg._Stack.of(subs), (2, 2)))[0]


def _witness_supports(trans: np.ndarray, d_b: int) -> np.ndarray:
    """``(B, 4)`` flat indices of the two-qubit subspace of each transposition
    ((j,k), (j',k')) of a ``(B, 2, 2)`` array of them: A-levels {j, j'} times
    B-levels {k, k'}, in the product order of a 2 x 2 state."""
    a = np.sort(trans[:, :, 0], axis=1)
    b = np.sort(trans[:, :, 1], axis=1)
    return (a[:, :, None] * d_b + b[:, None, :]).reshape(-1, 4)


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
        if len(pair) != 2 or len(set(pair)) != 2 or seen & set(pair):
            raise InvalidPartition(f"A-level subsets must be disjoint pairs, got {a_pairs}")
        seen.update(pair)
        if not all(0 <= a < bs.d_A for a in pair):
            raise InvalidPartition(f"A-level {pair} outside range 0..{bs.d_A - 1}")

    a = np.sort(np.array(a_pairs, dtype=np.intp).reshape(-1, 2), axis=1)
    idx = (a[:, :, None] * bs.d_B + np.arange(bs.d_B)).reshape(len(a), -1)
    subs = bs.mat[idx[:, :, None], idx[:, None, :]]
    p = np.trace(subs, axis1=1, axis2=2).real
    subs, p, tol = subs[p > zero_tol], p[p > zero_tol], bs.rho.validation_tol
    if bs.d_A == 2:  # the one pair projects onto rho itself: its spectrum over p
        spectra = bs.rho._ascending() / p[:, None]
    else:
        spectra = np.array([b._ascending() for b in _renormalized(subs, tol)[1]])
    total = 0.0
    for bound in _projected_bounds(subs, spectra.reshape(subs.shape[:2]), tol).tolist():
        total += bound  # in pair order, as a running sum
    return total


def _projected_bounds(subs: np.ndarray, spectra: np.ndarray, tol) -> np.ndarray:
    """p [S(diag(rho_j)) - S(rho_j)] of each principal block ``subs[j]`` of
    a ``(T, n, n)`` stack of blocks of states validated at ``tol``, with p
    its trace and rho_j = subs[j] / p, given ``spectra[j]``, the ascending
    spectrum of rho_j."""
    p = np.trace(subs, axis1=1, axis2=2).real
    block_tol = _block_tol(tol, p)
    # the diagonal of the complex block over p, as rho_j has it
    diag = (np.diagonal(subs, axis1=1, axis2=2) / p[:, None]).real
    return p * (linalg._entropies(diag, block_tol) - linalg._entropies(spectra[:, ::-1], block_tol))
