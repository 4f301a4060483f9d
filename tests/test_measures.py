from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairinglab as pl
from pairinglab.errors import ValidationError

from conftest import random_density


def test_c_l1_diagonal_is_zero(diagonal_state):
    assert pl.c_l1(diagonal_state.rho) == 0


def test_c_l1_plus_saturates_bound(plus_rho):
    assert pl.c_l1(plus_rho) == pytest.approx(1.0)


def test_c_l1_mc_example(mc_state):
    assert pl.c_l1(mc_state.rho) == pytest.approx(0.6)


def test_c_log(plus_rho, diagonal_state):
    assert pl.c_log(diagonal_state.rho) == 0
    assert pl.c_log(plus_rho) == pytest.approx(1.0)


def test_c_rel_entropy_values(plus_rho, mc_state):
    assert pl.c_rel_entropy(plus_rho) == pytest.approx(1.0)
    # frozen oracle: 1 - S(0.8, 0.2)
    assert pl.c_rel_entropy(mc_state.rho) == pytest.approx(
        1.0 - 0.7219280948873623, abs=1e-12
    )


def test_negativity_diagonal(diagonal_state):
    n, n_log = pl.negativity(diagonal_state)
    assert n == pytest.approx(0, abs=1e-12)
    assert n_log == pytest.approx(0, abs=1e-12)


def test_negativity_bell(bell_state):
    n, n_log = pl.negativity(bell_state)
    assert n == pytest.approx(1.0)
    assert n_log == pytest.approx(1.0)


def test_negativity_isotropic_half():
    iso = pl.named_counterexample("isotropic", p=0.5)
    n, _ = pl.negativity(iso.state)
    assert n == pytest.approx(0.25)


def test_schmidt_negativity():
    assert pl.schmidt_negativity([1.0]) == pytest.approx(0, abs=1e-12)
    assert pl.schmidt_negativity([0.5, 0.5]) == pytest.approx(1.0)
    # frozen oracle: (sqrt(.5) + sqrt(.3) + sqrt(.2))^2 - 1
    assert pl.schmidt_negativity([0.5, 0.3, 0.2]) == pytest.approx(
        1.8969501498317949, abs=1e-12
    )
    with pytest.raises(ValidationError):
        pl.schmidt_negativity([0.5, 0.4])


def test_n0_count(diagonal_state, mc_state, rng):
    assert pl.n0_count(diagonal_state) == 0
    assert pl.n0_count(mc_state) == 1
    # pure Schmidt-rank-r states have r(r-1)/2 negative PT eigenvalues
    for r in (2, 3, 4):
        lam = rng.generator.dirichlet(np.ones(r))
        v = np.zeros(r * r, dtype=complex)
        for j in range(r):
            v[j * r + j] = np.sqrt(lam[j])
        bs = pl.BipartiteState(pl.DensityMatrix(np.outer(v, v.conj()), 1e-9), r, r)
        assert pl.n0_count(bs) == r * (r - 1) // 2


def test_c_l0_count(diagonal_state, mc_state, plus_rho):
    assert pl.c_l0_count(diagonal_state.rho) == 0
    assert pl.c_l0_count(mc_state.rho) == 2
    pp = pl.DensityMatrix(np.kron(plus_rho.mat, plus_rho.mat))
    assert pl.c_l0_count(pp) == 12


def test_measure_report_consistency(mc_state):
    rep = pl.measure_report(mc_state)
    assert set(rep.entries) == {"C_l1", "C_L", "C_r", "N", "N_L", "N0", "C_l0"}
    assert rep.entries["C_L"] == pytest.approx(
        np.log2(1 + rep.entries["C_l1"]), abs=1e-12
    )
    assert rep.entries["N_L"] == pytest.approx(
        np.log2(1 + rep.entries["N"]), abs=1e-12
    )
    assert all(v >= -1e-9 for v in rep.entries.values())


@pytest.mark.parametrize("zero_tol", [None, 0.0, 1e-3])
def test_measure_report_shares_one_modulus_array(zero_tol, rng):
    # a diagonal entry above 1 sets the default C_l0 cutoff (1e-10 x 3)
    # above the 2e-10 coherence, so the cutoff must see the diagonal
    m = np.diag([3.0, -2.0, 0.5, -0.5]).astype(complex)
    m[0, 1] = m[1, 0] = 2e-10
    m[2, 3], m[3, 2] = 0.25j, -0.25j
    states = [pl.DensityMatrix(m, np.inf), pl.random_bipartite_state(2, 3, rng).rho]
    for rho in states:
        rep = pl.measure_report(rho, zero_tol=zero_tol)
        want = (pl.c_l1(rho), pl.c_log(rho), pl.c_l0_count(rho, zero_tol))
        assert (rep.entries["C_l1"], rep.entries["C_L"], rep.entries["C_l0"]) == want


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_negativity_upper_bounded_by_c_l1(seed):
    g = np.random.Generator(np.random.Philox(seed))
    d_a, d_b = int(g.integers(2, 5)), int(g.integers(2, 5))
    bs = pl.BipartiteState(random_density(seed + 1, d_a * d_b), d_a, d_b)
    n, _ = pl.negativity(bs)
    assert n <= pl.c_l1(bs.rho) + 1e-9


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_l0_bound(seed):
    g = np.random.Generator(np.random.Philox(seed))
    d_a, d_b = int(g.integers(2, 5)), int(g.integers(2, 5))
    bs = pl.BipartiteState(random_density(seed + 1, d_a * d_b), d_a, d_b)
    assert pl.c_l0_count(bs.rho) >= 2 * pl.n0_count(bs)


@given(st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_pure_state_negativity_matches_schmidt(seed):
    g = np.random.Generator(np.random.Philox(seed))
    d_a, d_b = int(g.integers(2, 5)), int(g.integers(2, 5))
    v = g.standard_normal(d_a * d_b) + 1j * g.standard_normal(d_a * d_b)
    v /= np.linalg.norm(v)
    bs = pl.BipartiteState(pl.DensityMatrix(np.outer(v, v.conj()), 1e-9), d_a, d_b)
    lam = pl.schmidt_spectrum(v, d_a, d_b)
    n, _ = pl.negativity(bs)
    assert abs(n - pl.schmidt_negativity(lam)) <= 1e-8


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_c_log_additivity(seed):
    g = np.random.Generator(np.random.Philox(seed))
    rho = random_density(seed + 1, int(g.integers(2, 5)))
    sig = random_density(seed + 2, int(g.integers(2, 5)))
    prod = pl.DensityMatrix(np.kron(rho.mat, sig.mat), 1e-8)
    assert abs(pl.c_log(prod) - pl.c_log(rho) - pl.c_log(sig)) <= 1e-9


def test_dephasing_kills_all_coherence(rng):
    rho = pl.ginibre_density(5, 3, rng)
    deph = pl.DensityMatrix(np.diag(np.diag(rho.mat).real))
    assert pl.c_l1(deph) == 0
    assert pl.c_rel_entropy(deph) == pytest.approx(0, abs=1e-9)


def _exact_pt_spectrum(entries: dict, d: int, d_b: int) -> list:
    """The spectrum of rho^T_A, in Fractions, of a d x d state whose
    nonzero entries ``entries`` ({(row, col): Fraction}) are real and
    whose partial transpose is monomial: each fixed row its diagonal
    entry, each transposition (i, j) of rho^T_A the pair -|x|, |x|, and
    each empty row 0."""
    pt = {}
    for (r, c), x in entries.items():
        (j, k), (jp, kp) = divmod(r, d_b), divmod(c, d_b)
        pt[jp * d_b + k, j * d_b + kp] = x
    col = {}
    for r, c in pt:
        assert r not in col, "rho^T_A is not monomial"
        col[r] = c
    spectrum = []
    for r, c in col.items():
        if r == c:
            spectrum.append(pt[r, r])
        elif r < c:
            assert pt[r, c] == pt[c, r]
            spectrum += [-abs(pt[r, c]), abs(pt[r, c])]
    return spectrum + [Fraction(0)] * (d - len(col))


def _exact_pairing_states():
    """Two pairing states with dyadic real entries, and their entries in
    Fractions, built from the same numbers by hand."""
    h = Fraction(1, 2)
    b1 = [[h, h / 2], [h / 2, h]]
    b2 = [[Fraction(3, 4), Fraction(-3, 8)], [Fraction(-3, 8), Fraction(1, 4)]]
    diag = np.zeros(12)
    diag[2] = diag[8] = 0.5
    qq = pl.make_qubit_qudit_pairing(0.25, diag, [(0.5, np.array(b1, dtype=float), (0, 1)),
                                                 (0.25, np.array(b2, dtype=float), (3, 5))])
    qq_entries = {(2, 2): Fraction(1, 8), (8, 8): Fraction(1, 8)}
    for w, b, rows in ((h, b1, (0, 7)), (h / 2, b2, (3, 11))):
        qq_entries.update({(rows[a], rows[c]): w * b[a][c] for a in range(2) for c in range(2)})
    coeffs = [[h, h / 4, -h / 2], [h / 4, h / 2, h / 8], [-h / 2, h / 8, h / 2]]
    mc = pl.make_mc_state(pl.MCSpec(np.array(coeffs, dtype=float), (0, 1, 2), (0, 1, 2)), 3, 3)
    mc_entries = {(4 * r, 4 * s): coeffs[r][s] for r in range(3) for s in range(3)}
    return [(qq, qq_entries), (mc, mc_entries)]


@pytest.mark.parametrize("bs, entries", _exact_pairing_states(), ids=["2x6 qubit-qudit", "3x3 mc"])
def test_dyadic_pairing_states_take_the_exact_path(bs, entries):
    # every float step on a monomial rho^T_A with dyadic entries is exact,
    # so N, N0, C_l1 and the spectrum equal their Fraction values
    assert sum(x for (r, c), x in entries.items() if r == c) == 1
    assert {rc: Fraction(x) for rc, x in np.ndenumerate(bs.mat.real) if x} == entries
    want = sorted(_exact_pt_spectrum(entries, bs.dim, bs.d_B))
    got = pl.measures._pt_spectrum(bs.rho._stack(), (bs.d_A, bs.d_B))[0]
    assert [Fraction(x) for x in got.tolist()] == want
    exact_n = sum(abs(x) for x in want) - 1
    exact_c_l1 = sum(abs(x) for (r, c), x in entries.items() if r != c)
    assert exact_n == exact_c_l1
    assert pl.negativity(bs)[0] == exact_n
    assert pl.c_l1(bs.rho) == exact_c_l1
    assert pl.n0_count(bs) == sum(x < 0 for x in want)
