"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they print.
"""

import time
from functools import lru_cache

import numpy as np

import pairinglab as pl
from pairinglab.errors import NotQubit


def _report(num, ok, desc):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _capacity(d_a, d_b):
    """Maximum number of transpositions a d_a x d_b system can host."""
    cap, cols = 0, d_b
    while cols >= 2:
        m = min(d_a, cols)
        cap += m * (m - 1) // 2
        cols -= m
    return cap


@lru_cache(maxsize=1)
def _random_ensemble():
    """1000 seeded random states for each (d_A, d_B) in {2,3,4}^2."""
    states = []
    rng = pl.RngState(20260826)
    for d_a in (2, 3, 4):
        for d_b in (2, 3, 4):
            for _ in range(1000):
                states.append(pl.random_bipartite_state(d_a, d_b, rng))
    return states


@lru_cache(maxsize=1)
def _pairing_ensemble():
    """500 canonical pairing states across d_A in {2,3,4}, d_B in {2..6}."""
    out = []
    rng = pl.RngState(424242)
    g = rng.generator
    while len(out) < 500:
        d_a = int(g.integers(2, 5))
        d_b = int(g.integers(2, 7))
        cap = _capacity(d_a, d_b)
        if cap == 0:
            continue
        n_pairs = int(g.integers(1, cap + 1))
        out.append((pl.random_canonical_pairing(d_a, d_b, n_pairs, rng), n_pairs))
    return out


def test_criterion_01_negativity_bounded_by_coherence():
    start = time.monotonic()
    worst = -np.inf
    for bs in _random_ensemble():
        n, _ = pl.negativity(bs)
        worst = max(worst, n - pl.c_l1(bs.rho))
    elapsed = time.monotonic() - start
    _report(1, worst <= 1e-9 and elapsed < 10.0,
            f"N <= C_l1 + 1e-9 on 9000 random states (worst gap {worst:.2e}, "
            f"{elapsed:.1f}s)")


def test_criterion_02_pairing_states_saturate():
    worst, cert_ok = 0.0, True
    for bs, n_pairs in _pairing_ensemble():
        n, _ = pl.negativity(bs)
        worst = max(worst, abs(n - pl.c_l1(bs.rho)))
        cert = pl.detect_canonical_pairing(bs)
        cert_ok &= cert is not None and cert.pairing_number == n_pairs
    _report(2, worst <= 1e-8 and cert_ok,
            f"|N - C_l1| <= 1e-8 and certificates match on 500 pairing states "
            f"(worst {worst:.2e})")


def test_criterion_03_pure_state_schmidt_formula():
    rng = pl.RngState(31415)
    g = rng.generator
    worst = 0.0
    for _ in range(500):
        d_a, d_b = int(g.integers(2, 5)), int(g.integers(2, 5))
        v = pl.haar_random_pure(d_a * d_b, rng)
        bs = pl.BipartiteState(pl.DensityMatrix(np.outer(v, v.conj()), 1e-8), d_a, d_b)
        n, _ = pl.negativity(bs)
        lam = pl.schmidt_spectrum(v, d_a, d_b)
        worst = max(worst, abs(n - pl.schmidt_negativity(lam)))
    _report(3, worst <= 1e-8,
            f"pure-state negativity matches Schmidt closed form on 500 states "
            f"(worst {worst:.2e})")


def test_criterion_04_support_counting_bound():
    ok = all(
        pl.c_l0_count(bs.rho) >= 2 * pl.n0_count(bs) for bs in _random_ensemble()
    )
    _report(4, ok, "C_l0 >= 2 N0 (integer comparison) on the 9000-state ensemble")


def test_criterion_05_every_transposition_witnesses():
    worst = np.inf
    for bs, _ in _pairing_ensemble():
        cert = pl.detect_canonical_pairing(bs)
        for i in range(cert.pairing_number):
            _, _, block_n = pl.distill_witness(bs, cert, i)
            worst = min(worst, block_n)
    _report(5, worst > 1e-6,
            f"witness block negativity > 1e-6 for every transposition "
            f"(smallest {worst:.2e})")


def test_criterion_06_closed_form_measures():
    mc = pl.make_mc_state(
        pl.MCSpec(np.array([[0.5, 0.3], [0.3, 0.5]]), (0, 1), (0, 1)), 2, 2
    )
    pm = pl.pairing_measures(pl.qubit_qudit_decompose(mc))
    bell = pl.make_mc_state(pl.MCSpec(np.ones((2, 2)) / 2, (0, 1), (0, 1)), 2, 2)
    pm_bell = pl.pairing_measures(pl.qubit_qudit_decompose(bell))
    # frozen values from scripts/closed_form_oracle.py
    ok = (
        abs(pm.E_D - 0.2780719051126377) <= 1e-4
        and abs(pm.E_C - 0.4689955935892811) <= 1e-4
        and abs(pm_bell.E_D - 1.0) <= 1e-9
        and abs(pm_bell.E_C - 1.0) <= 1e-9
    )
    _report(6, ok,
            f"closed-form E_D = {pm.E_D:.6f}, E_C = {pm.E_C:.6f} for the "
            f"running example; Bell gives 1")


def test_criterion_07_cnot_embedding():
    rng = pl.RngState(2718)
    g = rng.generator
    worst = 0.0
    for _ in range(200):
        d = int(g.integers(2, 6))
        rho = pl.ginibre_density(d, int(g.integers(1, d + 1)), rng)
        n, _ = pl.negativity(pl.cnot_embed(rho))
        worst = max(worst, abs(n - pl.c_l1(rho)))
    _report(7, worst <= 1e-8,
            f"embedding maps coherence to negativity on 200 states "
            f"(worst {worst:.2e})")


def test_criterion_08_trace_vs_l1_majorization():
    rng = pl.RngState(1618)
    g = rng.generator
    ok = True
    for i in range(1000):
        n, m = int(g.integers(1, 9)), int(g.integers(1, 9))
        x = g.standard_normal((n, m)) + 1j * g.standard_normal((n, m))
        if i % 5 == 0:
            # every fifth trial uses a constructed monomial matrix
            d = max(n, m)
            x = pl.random_monomial_unitary(d, rng) * g.random(d)
        r = pl.trace_vs_l1(x)
        t = pl.uvw_triple(x)
        ok &= r.trace_norm <= r.l1_norm + 1e-9
        ok &= pl.majorizes(t.v, t.u, tol=1e-8) and pl.majorizes(t.w, t.v, tol=1e-8)
        if r.is_monomial:
            ok &= abs(r.gap) <= 1e-9
        row_counts = (np.abs(x) > 0.1).sum(axis=1)
        if np.any(row_counts >= 2):
            ok &= r.gap > 1e-7
    _report(8, ok,
            "trace norm <= l1 norm, monomial equality, strict gap for crowded "
            "rows, and u < v < w on 1000 matrices")


def test_criterion_09_dilation_chain():
    start = time.monotonic()
    chain = pl.appendix_a_chain(pl.DensityMatrix(np.ones((2, 2)) / 2), L=1)
    elapsed = time.monotonic() - start
    rep = chain.report
    ok = (
        chain.K == 4
        and abs(rep["trace_M"] - 0.5) <= 1e-12
        and rep["offdiag_multiset_gap"] <= 1e-10
        and rep["rho4_is_entrywise_abs_of_rho3"]
        and elapsed < 1.0
    )
    _report(9, ok,
            f"dilation chain at d=2, L=1: K={chain.K}, tr(M)={rep['trace_M']}, "
            f"multiset gap {rep['offdiag_multiset_gap']:.1e}, {elapsed * 1000:.0f}ms")


def test_criterion_10_isotropic_family():
    ok = True
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        ex = pl.named_counterexample("isotropic", p=p)
        ok &= ex.details["C_l1"] - ex.details["N"] > 1e-8
    for p in (0.0, 1.0):
        ex = pl.named_counterexample("isotropic", p=p)
        ok &= pl.detect_canonical_pairing(ex.state) is not None
    _report(10, ok,
            "isotropic mixtures: strict C_l1 > N inside (0,1), endpoints "
            "certified as pairing states")


def test_criterion_11_distillable_lower_bound():
    rng = pl.RngState(5772)
    g = rng.generator
    worst_eq, ok_bound = 0.0, True
    for _ in range(200):
        d_b = int(g.integers(2, 7))
        n_pairs = int(g.integers(1, d_b // 2 + 1))
        bs = pl.random_canonical_pairing(2, d_b, n_pairs, rng, diag_weight=0.0)
        cert = pl.detect_canonical_pairing(bs)
        bound = pl.distillable_lower_bound(bs, cert, [(0, 1)])
        e_d = pl.pairing_measures(pl.qubit_qudit_decompose(bs)).E_D
        worst_eq = max(worst_eq, abs(bound - e_d))
        _, n_log = pl.negativity(bs)
        ok_bound &= bound <= n_log + 1e-9
    _report(11, worst_eq <= 1e-8 and ok_bound,
            f"lower bound equals E_D (worst {worst_eq:.2e}) and never exceeds "
            f"N_L on 200 qubit-qudit states")


def test_criterion_12_named_counterexamples():
    tau = pl.named_counterexample("tau-remark")
    rho_eigs_ok = np.allclose(
        np.sort(tau.details["rho_eigenvalues"])[::-1], [0.5, 0.5, 0, 0], atol=1e-10
    )
    tau_min_ok = abs(tau.details["tau_min_eigenvalue"] - (1 - np.sqrt(2)) / 4) <= 1e-10
    appf = pl.named_counterexample("appendix-f")
    sat_ok = abs(appf.details["N"] - appf.details["C_l1"]) <= 1e-9
    try:
        pl.qubit_qudit_decompose(appf.state)
        refuses = False
    except NotQubit:
        refuses = True
    _report(12, rho_eigs_ok and tau_min_ok and sat_ok and refuses,
            "tau-remark spectra reproduced; saturating 3x3 state refused by "
            "the qubit-qudit decomposition")
