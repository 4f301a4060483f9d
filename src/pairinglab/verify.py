"""Seeded property-verification harness behind the ``verify`` CLI command.

Each suite fuzzes one structural invariant over seeded random states
and records every violation as (trial, quantity, lhs, rhs, gap).

A suite runs in two phases.  First it draws every trial's random inputs
as one stack, through the stacked routines of ``randgen`` whose one-trial
case the public generators are (stream version 2), so it makes the same
RNG calls whatever the number of trials.  Then it checks each quantity
for all trials at once, on ``(T, d, d)`` stacks: validation, spectra
(each that of its matrix alone), detection, the qubit-qudit
decomposition, the closed forms, the witness blocks and the lower bound
all run through the routines whose one-state case the public functions
are.  Detection hands back arrays (the certified trials, and each
transposition's trial and labels), which the decomposition and the
witness blocks read: no suite builds a certificate per trial.  So a report is bit for bit that of a loop that measures the drawn
states one at a time, and no suite's decomposition count grows with the
trials.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import linalg, majorization, measures, pairing, randgen
from .errors import Infeasible
from .majorization import majorizes
from .randgen import RngState


@dataclass
class Violation:
    """A failed check of one trial; ``block`` names the part of the trial
    that failed, for a quantity checked per block (the witness blocks)."""

    trial: int
    quantity: str
    lhs: float
    rhs: float
    gap: float
    block: int | None = None

    def to_dict(self) -> dict:
        """The violation's fields, ``block`` only when it is set."""
        doc = vars(self).copy()
        if self.block is None:
            del doc["block"]
        return doc


@dataclass
class VerifyReport:
    """One suite run.  ``worst_gap`` is the largest lhs - rhs over every
    check (0.0 when none is positive); ``margins`` holds, per quantity, the
    signed worst margin max(lhs - rhs - tol), which turns positive exactly
    when the quantity has a violation."""

    suite: str
    trials: int
    seed: int
    dims: tuple[int, int]
    algorithm: str = randgen.ALGORITHM
    violations: list[Violation] = field(default_factory=list)
    worst_gap: float = 0.0
    margins: dict[str, float] = field(default_factory=dict)
    elapsed_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def check(self, trials, quantity: str, lhs, rhs, tol: float = 0.0, blocks=None) -> None:
        """Check lhs <= rhs + tol for one trial, or for each trial of an
        array of trials with matching arrays ``lhs`` and ``rhs`` (and
        ``blocks``, the block each check is of, when given); record a
        violation for each that fails."""
        trials, lhs, rhs = np.broadcast_arrays(np.atleast_1d(trials), lhs, rhs)
        if not trials.size:
            return
        gap = lhs - rhs
        # fmax skips NaN, as max(worst, gap) does one gap at a time
        self.worst_gap = max(self.worst_gap, float(np.fmax.reduce(gap)))
        margin = float(np.fmax.reduce(gap - tol))
        self.margins[quantity] = max(self.margins.get(quantity, margin), margin)
        # a NaN gap fails the check: it is not <= tol
        for i in np.flatnonzero(~(gap <= tol)):
            self.violations.append(Violation(int(trials[i]), quantity, lhs[i].item(),
                                             rhs[i].item(), gap[i].item(),
                                             None if blocks is None else int(blocks[i])))

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "seed": self.seed,
            "dims": list(self.dims),
            "algorithm": self.algorithm,
            "violations": [v.to_dict() for v in self.violations],
            "worst_gap": self.worst_gap,
            "margins": self.margins,
            "elapsed_ms": self.elapsed_ms,
        }


def _random_pairings(rep: VerifyReport, rng: RngState, entangled: bool = False):
    """The unvalidated matrices of one random pairing state per trial, and
    their pairing numbers."""
    d_a, d_b = rep.dims
    cap = randgen._feasible_pairs(d_a, d_b)
    low = 1 if entangled else 0
    n_pairs = rng.generator.integers(low, max(cap, low) + 1, size=rep.trials)
    return randgen._pairing_stack(d_a, d_b, n_pairs, rng), n_pairs


def _bipartite_stack(rep: VerifyReport, rng: RngState) -> linalg._Stack:
    """The scanned stack of validated ``random_bipartite_state`` matrices,
    one per trial."""
    mats = randgen._bipartite_stack(*rep.dims, rep.trials, rng)
    return linalg._validated_stack(mats, randgen.GENERATED_TOL)[0]


def _certified(rep: VerifyReport, stack: linalg._Stack, dims: tuple[int, int]):
    """Detect each state of a stack; record the states detection refuses.
    Returns the certified trials, and the transpositions of their states
    (a ``(B, 2, 2)`` array, trial after trial, each in row order) with the
    position of each one's trial in the certified trials."""
    det = pairing._certify_stack(stack, dims, pairing.ZERO_TOL)
    rep.check(np.flatnonzero(~det.ok), "detector certifies generated state", 1.0, 0.0)
    return np.flatnonzero(det.ok), (np.cumsum(det.ok) - 1)[det.owner], det.transpositions


def suite_negativity_bound(rep: VerifyReport, rng: RngState) -> None:
    stack = _bipartite_stack(rep, rng)
    n, _ = measures._negativity_of(measures._pt_spectrum(stack, rep.dims))
    rep.check(np.arange(rep.trials), "N <= C_l1", n,
              measures._c_l1_of(measures._moduli(stack)), 1e-9)


def suite_l0_bound(rep: VerifyReport, rng: RngState) -> None:
    stack = _bipartite_stack(rep, rng)
    n0 = measures._n0_of(measures._pt_spectrum(stack, rep.dims), None)
    rep.check(np.arange(rep.trials), "2*N0 <= C_l0", 2 * n0,
              measures._c_l0_of(measures._moduli(stack), None))


def suite_additivity(rep: VerifyReport, rng: RngState) -> None:
    d_a, d_b = rep.dims
    g = rng.generator
    rhos = randgen._ginibre_stack(d_a, g.integers(1, d_a + 1, size=rep.trials), rng)
    sigs = randgen._ginibre_stack(d_b, g.integers(1, d_b + 1, size=rep.trials), rng)
    # rho (x) sigma per trial: entry (i k, j l) = rho_ij sigma_kl
    prods = (rhos[:, :, None, :, None] * sigs[:, None, :, None, :]).reshape(
        rep.trials, d_a * d_b, d_a * d_b)
    rhos, lams = linalg._validated_stack(rhos, randgen.GENERATED_TOL)
    sigs, mus = linalg._validated_stack(sigs, randgen.GENERATED_TOL)
    # spec(rho (x) sigma) = {lam_i mu_j}: the product is checked without
    # a decomposition of its own
    prods = linalg._Stack.of(prods)
    linalg._checked(prods, 1e-8, np.sort((lams[:, :, None] * mus[:, None, :]).reshape(
        rep.trials, -1), axis=1))

    def c_log(stack):
        return np.log2(1.0 + measures._c_l1_of(measures._moduli(stack)))

    gap = np.abs(c_log(prods) - c_log(rhos) - c_log(sigs))
    rep.check(np.arange(rep.trials), "C_L additivity", gap, 0.0, 1e-9)


def suite_pairing_roundtrip(rep: VerifyReport, rng: RngState) -> None:
    d_a, d_b = rep.dims
    mats, n_pairs = _random_pairings(rep, rng)
    stack, _ = linalg._validated_stack(mats, randgen.GENERATED_TOL)
    ok, owner, trans = _certified(rep, stack, rep.dims)
    rep.check(ok, "pairing number matches generator",
              np.abs(np.bincount(owner, minlength=ok.size) - n_pairs[ok]), 0.0)
    stack = stack.take(ok)
    n, _ = measures._negativity_of(measures._pt_spectrum(stack, rep.dims))
    rep.check(ok, "|N - C_l1| on pairing state",
              np.abs(n - measures._c_l1_of(measures._moduli(stack))), 0.0, 1e-8)
    if d_a == 2:
        _, gaps = pairing._decompose_stack(stack, d_b, owner, trans, randgen.GENERATED_TOL,
                                           pairing.ZERO_TOL)
        rep.check(ok, "decompose/reassemble round trip", gaps, 0.0, 1e-9)


def suite_witness(rep: VerifyReport, rng: RngState) -> None:
    mats, _ = _random_pairings(rep, rng, entangled=True)
    stack, _ = linalg._validated_stack(mats, randgen.GENERATED_TOL)
    ok, owner, trans = _certified(rep, stack, rep.dims)
    # every certified trial's witness blocks: block `which` of trial `trial`
    trial = ok[owner]
    which = np.arange(owner.size) - np.searchsorted(owner, owner)
    block_n = pairing._witness_negativities(stack, rep.dims[1], trial, trans,
                                            randgen.GENERATED_TOL)
    rep.check(trial, "witness block negativity > 1e-6", 1e-6, block_n, blocks=which)


# every X of the majorization suite fits in the top-left corner of an 8x8
# zero matrix, which leaves u, v, w and the singular values unchanged
# apart from added zeros
MAJORIZATION_SIZE = 8


def suite_majorization(rep: VerifyReport, rng: RngState) -> None:
    g = rng.generator
    # each X is n x m, for uniformly random n and m, drawn as one 8x8 stack
    n, m = g.integers(1, MAJORIZATION_SIZE + 1, size=(2, rep.trials))
    x = randgen._complex_normals(g, (rep.trials, MAJORIZATION_SIZE, MAJORIZATION_SIZE))
    span = np.arange(MAJORIZATION_SIZE)
    x *= (span < n[:, None])[:, :, None] & (span < m[:, None])[:, None, :]
    trials = np.arange(rep.trials)
    s = linalg.singular_values(x)  # w and the trace norm both read them
    triple = majorization._uvw_triple(x, s)
    rep.check(trials, "u < v", np.where(majorizes(triple.v, triple.u), 0.0, 1.0), 0.0)
    rep.check(trials, "v < w", np.where(majorizes(triple.w, triple.v), 0.0, 1.0), 0.0)
    cmp = majorization._trace_vs_l1(x, s)
    rep.check(trials, "trace norm <= l1 norm", cmp.trace_norm, cmp.l1_norm, 1e-9)


def suite_lowerbound(rep: VerifyReport, rng: RngState) -> None:
    d_b = rep.dims[1]
    if d_b < 2:
        raise Infeasible(f"cannot host a transposition on a 2 x {d_b} system")
    n_pairs = rng.generator.integers(1, d_b // 2 + 1, size=rep.trials)
    mats = randgen._pairing_stack(2, d_b, n_pairs, rng, diag_weight=0.0)
    stack, spectra = linalg._validated_stack(mats, randgen.GENERATED_TOL)
    ok, owner, trans = _certified(rep, stack, (2, d_b))
    # two independent routes: the projected-block bound from each whole
    # state's spectrum and diagonal, E_D from its block decomposition
    stack, spectra = stack.take(ok), spectra[ok]
    p = np.trace(stack.mat, axis1=1, axis2=2).real
    bounds = pairing._projected_bounds(stack.mat, spectra / p[:, None], randgen.GENERATED_TOL)
    _, n_log = measures._negativity_of(measures._pt_spectrum(stack, (2, d_b)))
    rep.check(ok, "lower bound <= N_L", bounds, n_log, 1e-9)
    blocks, _ = pairing._decompose_stack(stack, d_b, owner, trans, randgen.GENERATED_TOL,
                                         pairing.ZERO_TOL)
    e_d, _, _ = pairing._closed_forms(blocks)
    rep.check(ok, "p0=0 bound equals E_D", np.abs(bounds - e_d), 0.0, 1e-8)


SUITES = {
    "negativity-bound": suite_negativity_bound,
    "l0-bound": suite_l0_bound,
    "additivity": suite_additivity,
    "pairing-roundtrip": suite_pairing_roundtrip,
    "witness": suite_witness,
    "majorization": suite_majorization,
    "lowerbound": suite_lowerbound,
}


def run_suite(suite: str, trials: int, seed: int, dims: tuple[int, int] = (3, 3)) -> list[VerifyReport]:
    """Run one named suite (or 'all'); returns one report per suite run."""
    names = list(SUITES) if suite == "all" else [suite]
    reports = []
    for name in names:
        if name not in SUITES:
            raise KeyError(name)
        rep = VerifyReport(suite=name, trials=trials, seed=seed, dims=tuple(dims))
        start = time.perf_counter()
        if trials > 0:  # no trials, no draws: a suite's stacks are never empty
            SUITES[name](rep, RngState(seed))
        rep.elapsed_ms = (time.perf_counter() - start) * 1e3
        # each suite checks one quantity for all trials at a time; a stable
        # sort restores the per-trial order of the checks
        rep.violations.sort(key=lambda v: v.trial)
        reports.append(rep)
    return reports
