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

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg, measures
from .errors import (
    ConditionViolated,
    InvalidPartition,
    NoTransposition,
    NotCanonicalPairing,
    NotQubit,
)
from .linalg import BipartiteState, DensityMatrix

Label = tuple[int, int]

#: default cutoff of detection: an entry of rho^T_A counts as present when
#: its modulus exceeds this times the largest entry modulus
ZERO_TOL = 1e-10


@dataclass(frozen=True)
class PairingCertificate:
    """The disjoint-transposition structure of a monomial partial transpose.

    ``transpositions`` holds pairs of product-basis labels ((j,k), (j',k'));
    ``fixed_points`` the labels with positive diagonal weight; the pairing
    number equals the number of transpositions.  ``zero_tol`` is the
    cutoff the structure was detected at; certificates compare by their
    structure alone.
    """

    transpositions: tuple[tuple[Label, Label], ...]
    fixed_points: tuple[Label, ...]
    pairing_number: int
    zero_tol: float = field(default=ZERO_TOL, compare=False)

    def __post_init__(self):
        if self.pairing_number != len(self.transpositions):
            raise ValueError("pairing_number must equal the transposition count")


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
    ``measures.negativity`` takes, and ||rho^T_A||_1 = ||rho^T_A||_l1,
    that is N - C_l1 = sum_i |rho_ii| - 1, is tested.  Every check reads
    the nonzero entries that validation kept.
    """
    return _certify_stack(bs.rho._stack(), (bs.d_A, bs.d_B), zero_tol).certificate(0)


class _Detection(NamedTuple):
    """Detection of each matrix of a stack of T, as arrays: the structure
    of every certified matrix, matrix after matrix, each in row order.
    ``certificate`` makes one matrix's a ``PairingCertificate``; the
    stacked routines read the arrays."""

    ok: np.ndarray  # (T,) certified
    owner: np.ndarray  # (B,) matrix of each transposition
    transpositions: np.ndarray  # (B, 2, 2) label pairs ((j, k), (j', k'))
    fixed_owner: np.ndarray  # (F,) matrix of each fixed point
    fixed_points: np.ndarray  # (F, 2) labels (j, k)
    zero_tol: float  # the cutoff

    @classmethod
    def refused(cls, ok: np.ndarray, zero_tol: float) -> "_Detection":
        """The detection of a stack that has no certified matrix."""
        none = np.zeros(0, dtype=np.intp)
        return cls(ok, none, none.reshape(0, 2, 2), none, none.reshape(0, 2), zero_tol)

    def certificate(self, t: int) -> PairingCertificate | None:
        """Matrix t's certificate, or None if it is not certified."""
        if not self.ok[t]:
            return None
        j, k, jp, kp = self.transpositions[self.owner == t].reshape(-1, 4).T.tolist()
        return PairingCertificate(
            transpositions=tuple(zip(zip(j, k), zip(jp, kp))),
            fixed_points=tuple(zip(*self.fixed_points[self.fixed_owner == t].T.tolist())),
            pairing_number=len(j),
            zero_tol=self.zero_tol,
        )


def _certify_stack(stack: linalg._Stack, dims: tuple[int, int], zero_tol: float) -> _Detection:
    """``detect_canonical_pairing`` of each matrix of a ``(T, d, d)`` stack
    on ``dims`` = (d_A, d_B), as one ``_Detection``: each check is one pass
    over the nonzero entries of the stack, and the checks stop once no
    matrix passes.

    rho^T_A is never formed: its entries are those of rho, moved, so its
    pattern is read off rho's present entries.
    """
    (count, d, _), flat, d_b = stack.shape, stack.flat, dims[1]
    ent = measures._moduli(stack)
    top = linalg._segment_reduce(np.maximum, ent.mod, ent.counts)
    present = ent.mod > linalg._per_entry(zero_tol * top, ent.counts)
    # a monomial matrix has at most d present entries
    ok = linalg._segment_reduce(np.add, present, ent.counts, 0) <= d
    if not ok.any():
        return _Detection.refused(ok, zero_tol)

    # each present entry of rho sits at (r, c) of the rho^T_A of matrix s,
    # in row line = s * d + r of the stack's
    kept = np.flatnonzero(present & linalg._per_entry(ok, ent.counts))
    line, c = np.divmod(linalg._pt_flat(kept if flat is None else flat[kept], d, d_b), d)
    s, r = np.divmod(line, d)
    # monomial: at most one present entry in each row and in each column
    for key in (line, s * d + c):
        ok &= np.bincount(key, minlength=count * d).reshape(-1, d).max(axis=1) <= 1
    if not ok.any():
        return _Detection.refused(ok, zero_tol)

    # the permutation, one entry per nonempty row, in row order; empty rows
    # carry zero weight.  It must be an involution (else it is not
    # Hermitian-consistent) whose transpositions ((j,k), (j',k')) have
    # j != j', k != k' and the companion fixed points (j,k') and (j',k)
    order = np.argsort(line)
    s, r, c = s[order], r[order], c[order]
    partner = np.full((count, d), -1)
    partner[s, r] = c
    j, k = np.divmod(r, d_b)
    jp, kp = np.divmod(c, d_b)
    bad = partner[s, c] != r
    bad |= (r != c) & ((j == jp) | (k == kp)
                       | (partner[s, j * d_b + kp] != j * d_b + kp)
                       | (partner[s, jp * d_b + k] != jp * d_b + k))
    ok[s[bad]] = False
    if not ok.any():
        return _Detection.refused(ok, zero_tol)

    # soundness: certified states must actually saturate N = C_l1
    slack = 10 * zero_tol * d * np.maximum(1.0, top)
    excess = np.abs(stack.diagonal).sum(axis=1) - 1.0  # sum_i |rho_ii| - 1
    # ||R||_l1: the moduli of the nonzero entries that are not present
    remainder = linalg._segment_reduce(np.add, np.where(present, 0.0, ent.mod), ent.counts)
    unsure = np.flatnonzero(ok & (np.abs(excess) + 2.0 * remainder > slack))
    if unsure.size:  # N - C_l1 - excess = ||rho^T_A||_1 - ||rho^T_A||_l1
        sub = stack.take(unsure)
        n, _ = measures._negativity_of(measures._pt_spectrum(sub, dims))
        c_l1 = measures._c_l1_of(measures._moduli(sub))
        ok[unsure] = np.abs(n - c_l1 - excess[unsure]) <= slack[unsure]

    # the certified matrices' fixed points and transpositions (r, c), r < c,
    # off the sorted entries
    keep = ok[s]
    fixed, trans = keep & (r == c), keep & (r < c)
    return _Detection(ok, s[trans], np.array([[j, k], [jp, kp]])[..., trans].transpose(2, 0, 1),
                      s[fixed], np.array([j, k])[:, fixed].T, zero_tol)


def pairing_number_bound_check(cert: PairingCertificate, d_a: int) -> bool:
    """Pairing-number cap d_A(d_A - 1)/2 for equal subsystem dimensions."""
    return cert.pairing_number <= d_a * (d_a - 1) // 2


def _own_certificate(bs: BipartiteState, cert: PairingCertificate | None) -> None:
    """Raise ConditionViolated unless ``cert`` is the state's certificate:
    the one ``detect_canonical_pairing`` gives at the cutoff ``cert`` was
    detected at."""
    if cert is None or cert != detect_canonical_pairing(bs, cert.zero_tol):
        raise ConditionViolated("the certificate is not that of this state")


def ppt_cost_condition(bs: BipartiteState, cert: PairingCertificate) -> float:
    """Exact PPT entanglement cost E_PPT = N_L of a canonical pairing state,
    whose certificate ``cert`` must be (else ConditionViolated).

    rho^T_A is a Hermitian monomial involution, so |rho^T_A| is diagonal and
    its partial transpose PSD (binegativity): E_PPT = N_L (Audenaert-Plenio-
    Eisert, PRL 90, 027901 (2003); Ishizaka, PRA 69, 020301 (2004)).
    """
    _own_certificate(bs, cert)
    return measures.negativity(bs)[1]


def _block_tol(tol, p: np.ndarray) -> np.ndarray:
    """Validation tolerance of principal blocks of weights (traces) ``p``
    renormalized to unit trace, cut from states validated at ``tol`` (one
    tolerance or one per block).

    A principal block keeps the source's Hermiticity defect and (by
    interlacing) its smallest eigenvalue, so dividing by p scales both by
    1/p: each block is held to the source tolerance over its p.
    """
    return np.maximum(tol, linalg.DEFAULT_TOL) / p


def _renormalized(subs: np.ndarray, tol) -> tuple[np.ndarray, linalg._Stack, np.ndarray]:
    """Weights p = tr(sub) of a ``(T, n, n)`` stack of principal blocks of
    states validated at ``tol`` (one tolerance or one per block), and the
    blocks renormalized to unit trace, validated as one stack at
    ``_block_tol`` (``linalg._validated_stack``): their scanned stack,
    whose ``mat`` they are, and their ascending ``(T, n)`` spectra."""
    p = np.trace(subs, axis1=1, axis2=2).real
    return p, *linalg._validated_stack(subs / p[:, None, None], _block_tol(tol, p))


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


class _Blocks(NamedTuple):
    """Block data of the qubit-qudit decompositions of a stack of T
    states: the blocks of each state in B-column order, state by state.
    A ``QubitQuditDecomposition`` keeps its one-state stack, and the
    closed forms, ``reassemble`` and ``detect --decompose`` read its
    arrays; only reading ``blocks`` makes each block a state."""

    diag: np.ndarray  # (T, 2 d_B) diagonal parts
    tols: np.ndarray  # (T,) validation tolerance of each state
    owner: np.ndarray  # (B,) state of each block
    columns: np.ndarray  # (B, 2) B-columns of each block
    weights: np.ndarray  # (B,)
    coeffs: np.ndarray  # (B, 2, 2) unit-trace coefficient matrices
    spectra: np.ndarray  # (B, 2) their validated spectra, ascending


@dataclass(frozen=True, eq=False)
class QubitQuditDecomposition:
    """Block data of a canonical qubit-qudit pairing state: one diagonal
    part plus disjoint 2x2 maximally correlated blocks.

    It holds the one-state block stack ``_stack`` that
    ``qubit_qudit_decompose`` validated; ``blocks`` makes each block an
    ``MCBlock`` on first access.  ``validation_tol`` is that of the state
    the blocks came from.  Decompositions compare and hash by identity."""

    d_B: int
    p0: float
    diag_probs: np.ndarray  # length 2*d_B, sums to p0, zero on block support
    _stack: _Blocks
    validation_tol: float = linalg.DEFAULT_TOL

    @property
    def d_A(self) -> int:
        return 2

    @functools.cached_property
    def blocks(self) -> tuple[MCBlock, ...]:
        """The blocks as states, each held to its validation's tolerance
        and holding its validated spectrum and its one-matrix stack."""
        s = self._stack
        coeffs = [DensityMatrix._validated(block_tol, lam, linalg._Stack.of(m[None]))
                  for m, block_tol, lam in
                  zip(s.coeffs, _block_tol(self.validation_tol, s.weights).tolist(), s.spectra)]
        return tuple(MCBlock(weight=p, coeffs=c, b_columns=tuple(cols))
                     for p, c, cols in zip(s.weights.tolist(), coeffs, s.columns.tolist()))

    def reassemble(self) -> BipartiteState:
        """The direct sum of the diagonal part and the weighted blocks
        (``DensityMatrix._of_blocks``), validated at ``validation_tol``: a
        decomposition at a looser cutoff than the default may fail it."""
        s, rows = self._stack, self._stack.columns + [0, self.d_B]
        alone = np.flatnonzero(np.bincount(rows.ravel(), minlength=2 * self.d_B) == 0)
        # + 0.0: each block summed onto zeros, as a dense sum adds it
        parts = [(self.diag_probs[alone, None, None], alone[:, None, None]),
                 (s.weights[:, None, None] * s.coeffs + 0.0, rows[:, None])]
        return BipartiteState(DensityMatrix._of_blocks(parts, self.validation_tol), 2, self.d_B)


def _transpositions(cert: PairingCertificate) -> np.ndarray:
    """The transpositions of a certificate as a ``(B, 2, 2)`` array of label
    pairs ((j, k), (j', k'))."""
    return np.array(cert.transpositions, dtype=np.intp).reshape(-1, 2, 2)


def qubit_qudit_decompose(
    bs: BipartiteState, cert: PairingCertificate | None = None
) -> QubitQuditDecomposition:
    """Split a canonical 2 x d_B pairing state into its diagonal part and
    2x2 maximally correlated blocks on disjoint B-column pairs.

    ``cert`` is the state's certificate when the caller already has it;
    otherwise the state is detected here, at ``ZERO_TOL``.  Diagonal
    entries below the certificate's ``zero_tol`` are dropped.  The blocks
    are validated as one stack, which the decomposition keeps: no block
    is made a state until ``blocks`` is read.  Raises NotQubit if d_A != 2
    and NotCanonicalPairing if detection fails, the certificate's blocks
    overlap or the blocks do not reassemble the state: if the reassembly
    gap exceeds the certificate's cutoff (at least 1e-9) times max(1,
    largest entry modulus), as the entries it dropped stay below that.
    """
    if bs.d_A != 2:
        raise NotQubit(f"d_A = {bs.d_A}; decomposition requires a qubit on A")
    tol, stack = bs.rho.validation_tol, bs.rho._stack()
    if cert is None:  # the detection's arrays: no certificate is built
        det = _certify_stack(stack, (2, bs.d_B), ZERO_TOL)
        if not det.ok[0]:
            raise NotCanonicalPairing("state is not a canonical pairing state")
        trans, zero_tol = det.transpositions, det.zero_tol
    else:
        trans, zero_tol = _transpositions(cert), cert.zero_tol
    blocks, gaps = _decompose_stack(stack, bs.d_B, np.zeros(len(trans), dtype=np.intp), trans,
                                    tol, zero_tol)
    # the certificate dropped entries up to its cutoff times the largest
    # entry modulus: refuse a gap above that (at least 1e-9) times max(1, top)
    top = float(measures._moduli(stack).mod.max())
    if gaps[0] > max(1e-9, zero_tol) * max(1.0, top):
        raise NotCanonicalPairing(f"reassembly gap {gaps[0]:.3e}; state is not block-structured")
    diag = blocks.diag[0]
    return QubitQuditDecomposition(d_B=bs.d_B, p0=float(diag.sum()), diag_probs=diag,
                                   _stack=blocks, validation_tol=tol)


def _decompose_stack(stack: linalg._Stack, d_b: int, owner: np.ndarray, trans: np.ndarray,
                     tols, zero_tol: float) -> tuple[_Blocks, np.ndarray]:
    """``qubit_qudit_decompose`` of each canonical 2 x d_B pairing state of
    a ``(T, d, d)`` stack, validated at ``tols`` (one tolerance or one per
    state), from its transpositions ``trans[i]`` (a ``(B, 2, 2)`` array),
    that of state ``owner[i]``: the block stack, and each state's
    reassembly gap max |assembled - rho|.  Every block is validated in one
    stack.  Raises NotCanonicalPairing if two blocks of a state share a
    row or a block has no weight."""
    (t, d, _), flat = stack.shape, stack.flat
    tols = np.zeros(t) + tols
    # orient so the first label sits on A-level 0: the rho-support of
    # ((0,k), (1,k')) is the fixed-point pair (0, k') and (1, k)
    (j, k), kp = trans[:, 0].T, trans[:, 1, 1]
    columns = np.where((j == 0)[:, None], np.stack([kp, k], axis=1), np.stack([k, kp], axis=1))
    order = np.lexsort((columns[:, 1], columns[:, 0], owner))
    owner, columns = owner[order], columns[order]
    idx = columns + [0, d_b]
    # the reassembly gap below assumes disjoint supports: no row twice
    if np.bincount((owner[:, None] * d + idx).ravel(), minlength=1).max() > 1:
        raise NotCanonicalPairing("the blocks of a certificate overlap; "
                                  "state is not block-structured")
    subs = stack.blocks(owner, idx)
    # only a certificate of another state can put a block where rho is zero
    if not np.all(np.trace(subs, axis1=1, axis2=2).real > 0):
        raise NotCanonicalPairing("reassembly gap: a block of the certificate holds no weight; "
                                  "state is not block-structured")
    weights, coeffs, spectra = _renormalized(subs, tols[owner])

    diag = stack.diagonal.real.copy()
    diag[owner[:, None], idx] = 0.0
    diag[np.abs(diag) < zero_tol] = 0.0
    blocks = _Blocks(diag, tols, owner, columns, weights, coeffs.mat, spectra)
    # the block supports are disjoint: |assembled - rho| is |rho| but on the
    # diagonal and on each block's support, so off them it is read off the
    # nonzero entries.  Row r of state t is in a block with row mate[t, r],
    # or mate[t, r] = -1.
    mate = np.full(diag.shape, -1)
    mate[owner[:, None], idx] = idx[:, ::-1]
    at = np.arange(t * d * d) if flat is None else flat
    line, col = np.divmod(at, d)
    off = (line % d != col) & (mate.ravel()[line] != col)
    on_diag = np.abs(diag - stack.diagonal)
    on_diag[owner[:, None], idx] = 0.0
    gap = on_diag.max(axis=1, initial=0.0)
    np.maximum.at(gap, at[off] // (d * d), np.abs(stack.values[off]))
    np.maximum.at(gap, owner, np.abs(weights[:, None, None] * coeffs.mat
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

    Everything is read from the decomposition's block stack
    (``_closed_forms``); no block is made a state.
    """
    e_d, e_c, e_ppt = (float(x[0]) for x in _closed_forms(dec._stack))
    return PairingMeasures(E_D=e_d, C_D=e_d, E_C=e_c, C_C=e_c, E_PPT=e_ppt)


def _closed_forms(stack: _Blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E_D, E_C and E_PPT of each state of a block stack.

    rho is the diagonal part plus the weighted blocks on disjoint supports,
    so its diagonal and its spectrum are the diagonal part's entries plus
    each block's diagonal and validated spectrum times its weight, and its
    partial transpose is monomial.
    """
    t, coeffs = len(stack.diag), stack.coeffs
    counts = np.bincount(stack.owner, minlength=t)
    slot = np.arange(len(stack.owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    cols = 2 * slot[:, None] + [0, 1]

    def entropies(block_values):
        # each state's row: its diagonal part, then its blocks' values
        rows = np.zeros((t, 2 * counts.max(initial=0)))
        rows[stack.owner[:, None], cols] = stack.weights[:, None] * block_values
        return linalg._entropies(np.concatenate([stack.diag, rows], axis=1), stack.tols)

    e_d = entropies(coeffs.diagonal(axis1=1, axis2=2).real) - entropies(stack.spectra[:, ::-1])
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
    The block is always NPT for a certified entangled state.  ``cert``
    must be the state's certificate, else ConditionViolated.
    """
    _own_certificate(bs, cert)
    if not cert.transpositions:
        raise NoTransposition("certificate has no transpositions; state is separable")
    if not 0 <= which < len(cert.transpositions):
        raise IndexError(f"transposition index {which} out of range")
    trans = _transpositions(cert)[[which]]
    mask = np.zeros(bs.dim)
    mask[_witness_supports(trans, bs.d_B)] = 1.0
    (n,) = _witness_negativities(bs.rho._stack(), bs.d_B, np.zeros(1, dtype=np.intp), trans,
                                 bs.rho.validation_tol)
    # P is a diagonal 0/1 projector, so P rho P is rho masked entrywise
    return np.diag(mask).astype(complex), bs.mat * np.outer(mask, mask), float(n)


def _witness_negativities(stack: linalg._Stack, d_b: int, owner: np.ndarray,
                          trans: np.ndarray, tol: float) -> np.ndarray:
    """``distill_witness`` N of each transposition ``trans[i]`` (of a ``(B,
    2, 2)`` array) of matrix ``owner[i]`` of ``stack`` (of states on d_A x
    ``d_b`` validated at ``tol``), from one stack of renormalized blocks and
    one stacked spectrum of their partial transposes."""
    _, blocks, _ = _renormalized(stack.blocks(owner, _witness_supports(trans, d_b)), tol)
    return measures._negativity_of(measures._pt_spectrum(blocks, (2, 2)))[0]


def _witness_supports(trans: np.ndarray, d_b: int) -> np.ndarray:
    """``(B, 4)`` flat indices of the two-qubit subspace of each transposition
    ((j,k), (j',k')) of a ``(B, 2, 2)`` array of them: A-levels {j, j'} times
    B-levels {k, k'}, in the product order of a 2 x 2 state."""
    a = np.sort(trans[:, :, 0], axis=1)
    b = np.sort(trans[:, :, 1], axis=1)
    return (a[:, :, None] * d_b + b[:, None, :]).reshape(-1, 4)


_BLOCK_CUTOFF = 1e-12  # projected blocks of no more weight are dropped


def distillable_lower_bound(
    bs: BipartiteState, cert: PairingCertificate, a_pairs: list[tuple[int, int]]
) -> float:
    """Projective lower bound on E_D: sum over disjoint A-level pairs of
    p_j [S(diag(rho_j)) - S(rho_j)] for the renormalized projected blocks.

    ``cert`` must be the state's certificate, else ConditionViolated.
    Blocks of weight at most 1e-12 are dropped.  With d_A = 2 and no
    diagonal part the single-pair bound equals the closed-form E_D.
    """
    _own_certificate(bs, cert)
    seen: set[int] = set()
    for pair in a_pairs:
        if len(pair) != 2 or len(set(pair)) != 2 or seen & set(pair):
            raise InvalidPartition(f"A-level subsets must be disjoint pairs, got {a_pairs}")
        seen.update(pair)
        if not all(0 <= a < bs.d_A for a in pair):
            raise InvalidPartition(f"A-level {pair} outside range 0..{bs.d_A - 1}")

    a = np.sort(np.array(a_pairs, dtype=np.intp).reshape(-1, 2), axis=1)
    idx = (a[:, :, None] * bs.d_B + np.arange(bs.d_B)).reshape(len(a), -1)
    subs = bs.rho._stack().blocks(np.zeros(len(idx), dtype=np.intp), idx)
    p = np.trace(subs, axis1=1, axis2=2).real
    subs, p, tol = subs[p > _BLOCK_CUTOFF], p[p > _BLOCK_CUTOFF], bs.rho.validation_tol
    if bs.d_A == 2:  # the one pair projects onto rho itself: its spectrum over p
        spectra = bs.rho._ascending() / p[:, None]
    else:
        spectra = _renormalized(subs, tol)[2]
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
