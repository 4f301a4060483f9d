"""Deterministic seeded generators for random states and the structured
pairing-state family used by the verification harness.

Randomness comes from numpy's counter-based Philox generator; the
algorithm name and the stream version are recorded so reports stay
reproducible, and streams can be split for concurrent trials without
coordination.

Stream version 2: each draw family has a stacked routine that makes one
fixed set of RNG calls for a whole stack of T trials, whatever T is, and
each public generator is its one-trial case.  A seed gives other states
than under version 1, which drew trial by trial.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import Infeasible, InvalidRank
from .linalg import BipartiteState, DensityMatrix, _dagger, _segment_reduce

#: the bit generator and the stream version, the way the draws consume it
ALGORITHM = "philox4x64/stream-2"

#: validation tolerance of every generated state
GENERATED_TOL = 1e-9


class RngState:
    """Seeded counter-based RNG wrapper.

    The same seed plus the same call sequence reproduces identical output
    bits.  ``split`` hands out independent child streams.
    """

    def __init__(self, seed: int, _seq: np.random.SeedSequence | None = None):
        self.seed = int(seed)
        self.algorithm = ALGORITHM
        self._seq = np.random.SeedSequence(self.seed) if _seq is None else _seq
        self._gen = np.random.Generator(np.random.Philox(self._seq))

    def split(self, n: int) -> list["RngState"]:
        return [RngState(self.seed, _seq=child) for child in self._seq.spawn(n)]

    @property
    def generator(self) -> np.random.Generator:
        return self._gen


def haar_random_pure(d: int, rng: RngState) -> np.ndarray:
    """Haar-distributed unit vector in dimension d."""
    if d < 1:
        raise ValueError("dimension must be positive")
    g = rng.generator
    v = g.standard_normal(d) + 1j * g.standard_normal(d)
    return v / np.linalg.norm(v)


def _complex_normals(g: np.random.Generator, shape: tuple) -> np.ndarray:
    """Standard complex normals (real and imaginary parts standard normal)
    from one call: each real pair drawn becomes one complex entry."""
    return g.standard_normal((*shape, 2)).view(complex)[..., 0]


def _exponentials(g: np.random.Generator, shape: tuple) -> np.ndarray:
    """Standard exponentials -log(1 - u) of uniforms u; normalized along
    a row they are a flat-Dirichlet draw."""
    return -np.log1p(-g.random(shape))


# Each stacked routine makes every RNG call of its stack and returns the
# unvalidated matrices; the public generators validate its one-trial
# case.  Callers that validate many draws as one stack (the verify
# suites) call the stacked routine alone.

def _ginibre_stack(d: int, ranks, rng: RngState) -> np.ndarray:
    """G G^dag / tr(G G^dag) for each rank r of ``ranks``, with G of size
    d x r: one draw of (T, d, r_max) normals whose columns at or beyond
    each trial's rank are zeroed, so a lone trial draws only d x r."""
    ranks = np.asarray(ranks)
    if ranks.dtype.kind not in "iu" or not np.all((1 <= ranks) & (ranks <= d)):
        raise InvalidRank(f"rank must be an integer in 1..{d}, got {ranks.tolist()}")
    r_max = int(ranks.max())
    gmat = _complex_normals(rng.generator, (len(ranks), d, r_max))
    gmat *= (np.arange(r_max) < ranks[:, None])[:, None, :]
    m = gmat @ _dagger(gmat)
    m /= m.trace(axis1=1, axis2=2).real[:, None, None]
    return m


def ginibre_density(d: int, rank: int, rng: RngState) -> DensityMatrix:
    """Random density matrix G G^dag / tr(G G^dag) with G of size d x rank."""
    return DensityMatrix(_ginibre_stack(d, [rank], rng)[0], GENERATED_TOL)


def _bipartite_stack(d_a: int, d_b: int, trials: int, rng: RngState,
                     rank: int | None = None) -> np.ndarray:
    """``trials`` Ginibre matrices on d_A x d_B, each of a uniformly random
    rank unless ``rank`` is given."""
    d = d_a * d_b
    ranks = (rng.generator.integers(1, d + 1, size=trials) if rank is None
             else np.full(trials, rank))
    return _ginibre_stack(d, ranks, rng)


def random_bipartite_state(
    d_a: int, d_b: int, rng: RngState, rank: int | None = None
) -> BipartiteState:
    """Random bipartite density matrix (Ginibre, random rank by default)."""
    return BipartiteState(
        DensityMatrix(_bipartite_stack(d_a, d_b, 1, rng, rank)[0], GENERATED_TOL), d_a, d_b)


def random_monomial_unitary(d: int, rng: RngState) -> np.ndarray:
    """Random phase matrix times a random permutation."""
    if d < 1:
        raise ValueError("dimension must be positive")
    g = rng.generator
    perm = g.permutation(d)
    phases = np.exp(2j * np.pi * g.random(d))
    u = np.zeros((d, d), dtype=complex)
    u[perm, np.arange(d)] = phases
    return u


def _feasible_pairs(d_a: int, d_b: int) -> int:
    """The most transpositions ``_component_plan`` can host on a d_A x d_B
    system: greedy components of min(d_A, columns left) levels."""
    cap = 0
    cols = d_b
    while cols >= 2:
        m = min(d_a, cols)
        cap += m * (m - 1) // 2
        cols -= m
    return cap


def _component_plan(d_a: int, d_b: int, n_pairs: int) -> list[tuple[int, int]]:
    """Split n_pairs into components (levels m_i, coherence edges e_i) with
    m_i <= d_A, edges e_i <= m_i(m_i-1)/2, and sum m_i <= d_B."""
    plan = []
    cols_left, remaining = d_b, n_pairs
    while remaining > 0:
        m = min(d_a, cols_left)
        if m < 2:
            raise Infeasible(
                f"cannot host {n_pairs} transpositions on a {d_a} x {d_b} system"
            )
        e = min(remaining, m * (m - 1) // 2)
        while (m - 1) * (m - 2) // 2 >= e:
            m -= 1  # shrink to the smallest level count that still fits
        plan.append((m, e))
        remaining -= e
        cols_left -= m
    return plan


def random_canonical_pairing(
    d_a: int,
    d_b: int,
    n_pairs: int,
    rng: RngState,
    diag_weight: float | None = None,
) -> BipartiteState:
    """Random canonical pairing state with exactly ``n_pairs`` transpositions.

    Built as a mixture of two-level maximally correlated pure components,
    one per coherence edge, over maximally-correlated level sets with
    disjoint B supports; an optional diagonal remainder is spread over
    fixed points and unused columns.  Every output is certified by the
    detector with pairing number ``n_pairs``.
    """
    m = _pairing_stack(d_a, d_b, [n_pairs], rng, diag_weight)[0]
    return BipartiteState(DensityMatrix(m, GENERATED_TOL), d_a, d_b)


@functools.lru_cache(maxsize=128)
def _plan_table(d_a: int, d_b: int, present: tuple[int, ...]):
    """The component plans of the ascending pairing numbers ``present``,
    zero-padded to C components of m_max level slots, as read-only arrays:
    ``sizes`` and ``counts`` (G, C), each component's levels and edges;
    ``col`` (G, C, m_max), the place in the B order of each slot's
    column; ``pairs``, the slot pairs (j, k) of a component; ``diag_at``
    (G, K) and ``k`` (G,), the k places of each plan's diagonal mass in a
    trial's row of targets: its C * m_max levels, then the level
    a * d_B + (B order)[j] of each (a, j) in turn."""
    # in ascending order, so the least infeasible n is the one that raises
    plans = [_component_plan(d_a, d_b, n) for n in present]
    n_comp = max(map(len, plans), default=0)
    m_max = max((m for plan in plans for m, _ in plan), default=0)
    sizes, counts = np.zeros((2, len(plans), n_comp), dtype=np.intp)
    for g, plan in enumerate(plans):
        sizes[g, :len(plan)], counts[g, :len(plan)] = np.reshape(plan, (-1, 2)).T
    slot, lead = np.arange(m_max), n_comp * m_max
    col = np.minimum(np.cumsum(sizes, axis=1)[:, :, None] - sizes[:, :, None] + slot, d_b - 1)
    # diagonal mass may sit on fixed points and on columns no component
    # touches, never on a transposition label
    targets = [np.concatenate([np.flatnonzero(slot < row[:, None]), lead + (
        d_b * np.arange(d_a)[:, None] + np.arange(row.sum(), d_b)).ravel()]) for row in sizes]
    k = np.array([len(at) for at in targets], dtype=np.intp)
    diag_at = np.zeros((len(plans), k.max(initial=0)), dtype=np.intp)
    for g, at in enumerate(targets):
        diag_at[g, :len(at)] = at
    pairs = np.triu_indices(m_max, 1)
    for a in (sizes, counts, col, *pairs, diag_at, k):
        a.flags.writeable = False
    return sizes, counts, col, pairs, diag_at, k


def _pairing_entries(d_a: int, d_b: int, n_pairs, rng: RngState,
                     diag_weight: float | None = None):
    """The drawn parameters of one pairing state per entry of ``n_pairs``.

    Returns ``edges = (trial, r, s, weight, theta, phase)``, one entry per
    coherence edge, each trial's edges in turn: the component
    ``cos(theta)|r> + phase sin(theta)|s>`` enters with ``weight`` (the
    diagonal part's share already taken off); and ``diag = (trial,
    index, value)``, the diagonal mass added after them.  Each field is
    one RNG call for the whole stack, and each trial takes its component
    plan from the table of the pairing numbers present.
    """
    n_pairs = np.asarray(n_pairs)
    if n_pairs.size == 0:  # np.asarray([]) is a float array
        n_pairs = n_pairs.astype(np.intp)
    if n_pairs.dtype.kind not in "iu" or np.any(n_pairs < 0):
        raise Infeasible(f"n_pairs must be nonnegative integers, got {n_pairs.tolist()}")
    if diag_weight is not None and not 0.0 <= diag_weight < 1.0:
        raise Infeasible("diag_weight must lie in [0, 1)")
    present, group = np.unique(n_pairs, return_inverse=True)
    sizes, counts, col, (slot_j, slot_k), diag_at, k = _plan_table(
        d_a, d_b, tuple(present.tolist()))
    n_pairs = n_pairs.astype(np.intp)  # feasible, so small
    trials, n_comp, m_max = len(n_pairs), *col.shape[1:]
    n_max, dim = int(n_pairs.max(initial=0)), d_a * d_b

    g = rng.generator
    # a random order is the argsort of uniform keys; a random subset of
    # size e is the first e of a random order
    b_order = np.argsort(g.random((trials, d_b)), axis=1)
    a_order = np.argsort(g.random((trials, n_comp, d_a)), axis=2)[:, :, :m_max]
    edge_keys = g.random((trials, n_comp, len(slot_j)))
    spread = _exponentials(g, (trials, n_max))
    u = g.random((trials, n_max, 2))  # each edge's angle and phase
    mass = _exponentials(g, (trials, dim))
    if diag_weight is None:
        coin = g.random((trials, 2))
        share = np.where(coin[:, 0] < 0.5, coin[:, 1] * 0.4, 0.0)
    else:
        share = np.full(trials, float(diag_weight))

    sizes, counts = sizes[group], counts[group]
    # component i holds the levels (a, b) of its first sizes[i] slots:
    # a from its own order of A, b the next columns of the B order
    levels = a_order * d_b + np.take_along_axis(
        b_order, col[group].reshape(trials, n_comp * m_max), axis=1).reshape(a_order.shape)
    # its edges: the counts[i] first of its level pairs by key; a key
    # above every uniform puts the pairs it lacks last
    keys = np.where(slot_k < sizes[:, :, None], edge_keys, 2.0)
    taken = np.arange(counts.max(initial=0)) < counts[:, :, None]
    chosen = np.argsort(keys, axis=2)[:, :, :taken.shape[2]][taken]
    trial, comp, _ = np.nonzero(taken)
    first = (trial * n_comp + comp) * m_max  # of each edge's component
    r, s = levels.ravel()[first + slot_j[chosen]], levels.ravel()[first + slot_k[chosen]]
    # floored simplex weights keep every coherence entry well above the
    # detection threshold
    edge = np.arange(n_max) < n_pairs[:, None]
    spread, u = spread[edge], u[edge]
    w = 0.4 / n_pairs[trial] + 0.6 * spread / _segment_reduce(np.add, spread, n_pairs)[trial]
    edges = (trial, r, s, (1.0 - share)[trial] * w,
             0.3 + u[:, 0] * (np.pi / 2 - 0.6), np.exp(2j * np.pi * u[:, 1]))

    # with no pairs the diagonal takes all the mass, a flat Dirichlet in
    # the plain order
    plain = n_pairs == 0
    b_order[plain], share[plain] = np.arange(d_b), 1.0
    k = np.where(share > 0.0, k[group], 0)
    held = np.arange(diag_at.shape[1]) < k[:, None]
    d_trial = np.nonzero(held)[0]
    rows = np.concatenate([levels.reshape(trials, n_comp * m_max), (
        b_order[:, None, :] + d_b * np.arange(d_a)[:, None]).reshape(trials, dim)], axis=1)
    p = mass[:, :diag_at.shape[1]][held]
    value = p / _segment_reduce(np.add, p, k)[d_trial]
    value *= share[d_trial]
    return edges, (d_trial, rows[d_trial, diag_at[group][held]], value)


def _pairing_stack(d_a: int, d_b: int, n_pairs, rng: RngState,
                   diag_weight: float | None = None) -> np.ndarray:
    """The matrices of ``_pairing_entries``, one per entry of ``n_pairs``."""
    (trial, r, s, weight, theta, phase), (d_trial, index, value) = _pairing_entries(
        d_a, d_b, n_pairs, rng, diag_weight)
    dim = d_a * d_b
    # the component cos|r> + e^{i phi} sin|s> touches four entries only
    v = np.stack([np.cos(theta), phase * np.sin(theta)], axis=1)
    outer = v[:, :, None] * v.conj()[:, None, :]
    idx = np.stack([r, s], axis=1)
    m = np.zeros((len(n_pairs), dim, dim), dtype=complex)
    flat = m.reshape(-1)
    # components sharing a level add up on its diagonal entry in edge order
    np.add.at(flat, (((trial * dim)[:, None, None] + idx[:, :, None]) * dim
                     + idx[:, None, :]).ravel(), (weight[:, None, None] * outer).ravel())
    flat[(d_trial * dim + index) * dim + index] += value
    return m
