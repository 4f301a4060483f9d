"""Deterministic seeded generators for random states and the structured
pairing-state family used by the verification harness.

Randomness comes from numpy's counter-based Philox generator; the
algorithm name is recorded so reports stay reproducible, and streams can
be split for concurrent trials without coordination.
"""

from __future__ import annotations

import numpy as np

from .errors import Infeasible, InvalidRank
from .linalg import BipartiteState, DensityMatrix

ALGORITHM = "philox4x64"

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


# Each generator is a private draw step, which makes every RNG call and
# returns the unvalidated matrix, plus validation.  Callers that validate
# many draws as one stack (the verify suites) call the draw step alone.

def _ginibre_matrix(d: int, rank: int, rng: RngState) -> np.ndarray:
    if not 1 <= rank <= d:
        raise InvalidRank(f"rank must lie in 1..{d}, got {rank}")
    g = rng.generator
    gmat = g.standard_normal((d, rank)) + 1j * g.standard_normal((d, rank))
    m = gmat @ gmat.conj().T
    m /= m.trace().real
    return m


def ginibre_density(d: int, rank: int, rng: RngState) -> DensityMatrix:
    """Random density matrix G G^dag / tr(G G^dag) with G of size d x rank."""
    return DensityMatrix(_ginibre_matrix(d, rank, rng), GENERATED_TOL)


def _bipartite_matrix(d_a: int, d_b: int, rng: RngState, rank: int | None = None) -> np.ndarray:
    d = d_a * d_b
    if rank is None:
        rank = int(rng.generator.integers(1, d + 1))
    return _ginibre_matrix(d, rank, rng)


def random_bipartite_state(
    d_a: int, d_b: int, rng: RngState, rank: int | None = None
) -> BipartiteState:
    """Random bipartite density matrix (Ginibre, random rank by default)."""
    return BipartiteState(
        DensityMatrix(_bipartite_matrix(d_a, d_b, rng, rank), GENERATED_TOL), d_a, d_b)


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
    m = _canonical_pairing_matrix(d_a, d_b, n_pairs, rng, diag_weight)
    return BipartiteState(DensityMatrix(m, GENERATED_TOL), d_a, d_b)


def _canonical_pairing_matrix(
    d_a: int, d_b: int, n_pairs: int, rng: RngState, diag_weight: float | None = None
) -> np.ndarray:
    if n_pairs < 0:
        raise Infeasible("n_pairs must be nonnegative")
    g = rng.generator
    dim = d_a * d_b

    if n_pairs == 0:
        diag = g.dirichlet(np.ones(dim))
        return np.diag(diag.astype(complex))

    plan = _component_plan(d_a, d_b, n_pairs)

    b_pool = list(g.permutation(d_b))
    edges = []  # (flat index r, flat index s) support pairs with coherence
    support = []  # flat indices of all maximally-correlated levels
    for m, n_edges in plan:
        a_levels = g.choice(d_a, size=m, replace=False)
        b_levels = [b_pool.pop() for _ in range(m)]
        levels = [int(a) * d_b + int(b) for a, b in zip(a_levels, b_levels)]
        support.extend(levels)
        all_pairs = [(r, s) for i, r in enumerate(levels) for s in levels[i + 1 :]]
        chosen = g.choice(len(all_pairs), size=n_edges, replace=False)
        edges.extend(all_pairs[i] for i in chosen)

    # floored simplex weights keep every coherence entry well above the
    # detection threshold
    n_edges = len(edges)
    weights = 0.4 / n_edges + 0.6 * g.dirichlet(np.ones(n_edges))

    if diag_weight is None:
        diag_weight = float(g.random() * 0.4) if g.random() < 0.5 else 0.0
    if not 0.0 <= diag_weight < 1.0:
        raise Infeasible("diag_weight must lie in [0, 1)")

    # each edge draws its angle, then its phase: two uniforms, edge by edge
    u = g.random(2 * n_edges).reshape(n_edges, 2)
    theta = 0.3 + u[:, 0] * (np.pi / 2 - 0.6)
    phase = np.exp(2j * np.pi * u[:, 1])
    # the component cos|r> + e^{i phi} sin|s> touches four entries only
    v = np.stack([np.cos(theta), phase * np.sin(theta)], axis=1)
    outer = v[:, :, None] * v.conj()[:, None, :]
    components = ((1.0 - diag_weight) * weights)[:, None, None] * outer
    idx = np.array(edges, dtype=np.intp)
    m = np.zeros((dim, dim), dtype=complex)
    # components sharing a level add up on its diagonal entry in edge order
    np.add.at(m, (idx[:, :, None], idx[:, None, :]), components)

    if diag_weight > 0.0:
        # diagonal mass may sit on fixed points and on columns no component
        # touches, never on a transposition label
        free_cols = b_pool
        targets = list(support) + [
            a * d_b + b for a in range(d_a) for b in free_cols
        ]
        probs = g.dirichlet(np.ones(len(targets)))
        m[targets, targets] += diag_weight * probs
    return m
