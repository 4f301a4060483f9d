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

import numpy as np

from .errors import Infeasible, InvalidRank
from .linalg import BipartiteState, DensityMatrix, _dagger

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


def _pairing_entries(d_a: int, d_b: int, n_pairs, rng: RngState,
                     diag_weight: float | None = None):
    """The drawn parameters of one pairing state per entry of ``n_pairs``.

    Returns ``edges = (trial, r, s, weight, theta, phase)``, one entry per
    coherence edge, each trial's edges in turn: the component
    ``cos(theta)|r> + phase sin(theta)|s>`` enters with ``weight`` (the
    diagonal part's share already taken off); and ``diag = (trial,
    index, value)``, the diagonal mass added after them.  Each field is
    one RNG call for the whole stack, and the trials that share an
    ``n_pairs`` share a component plan and are built together.
    """
    n_pairs = np.asarray(n_pairs)
    if n_pairs.dtype.kind not in "iu" or np.any(n_pairs < 0):
        raise Infeasible(f"n_pairs must be nonnegative integers, got {n_pairs.tolist()}")
    if diag_weight is not None and not 0.0 <= diag_weight < 1.0:
        raise Infeasible("diag_weight must lie in [0, 1)")
    plans = {n: _component_plan(d_a, d_b, n) for n in np.unique(n_pairs).tolist()}
    n_comp = max(map(len, plans.values()), default=0)
    m_max = max((m for plan in plans.values() for m, _ in plan), default=0)
    slot = np.arange(m_max)
    slot_j, slot_k = np.triu_indices(m_max, 1)  # the level pairs of a component
    trials, dim = len(n_pairs), d_a * d_b

    g = rng.generator
    # a random order is the argsort of uniform keys; a random subset of
    # size e is the first e of a random order
    b_order = np.argsort(g.random((trials, d_b)), axis=1)
    a_order = np.argsort(g.random((trials, n_comp, d_a)), axis=2)[:, :, :m_max]
    edge_keys = g.random((trials, n_comp, len(slot_j)))
    spread = _exponentials(g, (trials, int(n_pairs.max(initial=0))))
    u = g.random((trials, int(n_pairs.max(initial=0)), 2))  # each edge's angle and phase
    mass = _exponentials(g, (trials, dim))
    if diag_weight is None:
        coin = g.random((trials, 2))
        share = np.where(coin[:, 0] < 0.5, coin[:, 1] * 0.4, 0.0)
    else:
        share = np.full(trials, float(diag_weight))

    # typed empty fields, so that a stack without edges still concatenates
    none = np.zeros(0, dtype=np.intp)
    edges = [(none, none, none, none * 0.0, none * 0.0, none * 0j)]
    diag = [(none, none, none * 0.0)]
    for n, plan in plans.items():
        t = np.flatnonzero(n_pairs == n)
        if n == 0:  # a flat-Dirichlet diagonal
            diag.append((np.repeat(t, dim), np.tile(np.arange(dim), len(t)),
                         (mass[t] / mass[t].sum(axis=1, keepdims=True)).ravel()))
            continue
        sizes, counts = np.array(plan).T
        # component i holds the levels (a, b) of its first sizes[i] slots:
        # a from its own order of A, b the next columns of the B order
        col = np.minimum(np.cumsum(sizes)[:, None] - sizes[:, None] + slot, d_b - 1)
        levels = a_order[t, :len(plan)] * d_b + b_order[t][:, col]
        # its edges: the counts[i] first of its level pairs by key; a key
        # above every uniform puts the pairs it lacks last
        keys = np.where(slot_k < sizes[:, None], edge_keys[t, :len(plan)], 2.0)
        taken = np.arange(counts.max()) < counts[:, None]
        chosen = np.argsort(keys, axis=2)[:, :, :counts.max()][:, taken]
        first = np.nonzero(taken)[0] * m_max  # of each edge's component
        flat = levels.reshape(len(t), -1)
        r = np.take_along_axis(flat, first + slot_j[chosen], axis=1)
        s = np.take_along_axis(flat, first + slot_k[chosen], axis=1)
        # floored simplex weights keep every coherence entry well above
        # the detection threshold
        w = 0.4 / n + 0.6 * spread[t, :n] / spread[t, :n].sum(axis=1, keepdims=True)
        theta = 0.3 + u[t, :n, 0] * (np.pi / 2 - 0.6)
        phase = np.exp(2j * np.pi * u[t, :n, 1])
        edges.append((np.repeat(t, n), r.ravel(), s.ravel(),
                      ((1.0 - share[t])[:, None] * w).ravel(), theta.ravel(), phase.ravel()))
        # diagonal mass may sit on fixed points and on columns no component
        # touches, never on a transposition label
        keep = share[t] > 0.0
        t, levels = t[keep], levels[keep]
        used = int(sizes.sum())
        free = b_order[t][:, None, used:] + d_b * np.arange(d_a)[:, None]
        targets = np.concatenate([levels[:, slot < sizes[:, None]],
                                  free.reshape(len(t), d_a * (d_b - used))], axis=1)
        p = mass[t, :targets.shape[1]]
        diag.append((np.repeat(t, targets.shape[1]), targets.ravel(),
                     (share[t][:, None] * (p / p.sum(axis=1, keepdims=True))).ravel()))
    return tuple(map(np.concatenate, zip(*edges))), tuple(map(np.concatenate, zip(*diag)))


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
    # components sharing a level add up on its diagonal entry in edge order
    np.add.at(m, (trial[:, None, None], idx[:, :, None], idx[:, None, :]),
              weight[:, None, None] * outer)
    m[d_trial, index, index] += value
    return m
