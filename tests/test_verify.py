"""The batched verify suites against per-trial reference loops.

The reference suites below draw each suite's trials as one stack through
randgen's stacked routines, in the suite's order of RNG calls, and then
validate and measure one trial at a time through the public functions,
in the form the suites had before they were batched.  So every seed must
give the same violations and the same worst gap, bit for bit.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairinglab import cli, linalg, measures, pairing, randgen, verify
from pairinglab.linalg import BipartiteState, DensityMatrix
from pairinglab.majorization import majorizes, trace_vs_l1, uvw_triple
from pairinglab.errors import ValidationError
from pairinglab.randgen import RngState

from conftest import random_density


class ReferenceReport:
    """Per-trial check bookkeeping: the worst gap and every violation."""

    def __init__(self, trials, dims):
        self.trials, self.dims = trials, dims
        self.violations = []
        self.worst_gap = 0.0

    def check(self, trial, quantity, lhs, rhs, tol=0.0, block=None):
        gap = lhs - rhs
        self.worst_gap = max(self.worst_gap, gap)
        if gap > tol:
            self.violations.append((trial, quantity, lhs, rhs, gap, block))


def states(mats, dims):
    """Each matrix of a drawn stack as a public state, validated alone."""
    return [BipartiteState(DensityMatrix(m, randgen.GENERATED_TOL), *dims) for m in mats]


def draw_pairings(rep, rng, entangled=False):
    """A stack of random pairing states and their pairing numbers."""
    d_a, d_b = rep.dims
    cap = randgen._feasible_pairs(d_a, d_b)
    low = 1 if entangled else 0
    n_pairs = rng.generator.integers(low, max(cap, low) + 1, size=rep.trials)
    return states(randgen._pairing_stack(d_a, d_b, n_pairs, rng), rep.dims), n_pairs


def draw_bipartite(rep, rng):
    return states(randgen._bipartite_stack(*rep.dims, rep.trials, rng), rep.dims)


def draw_products(rep, rng):
    """Each trial's rho and sigma of the additivity suite."""
    g = rng.generator
    d_a, d_b = rep.dims
    rhos = randgen._ginibre_stack(d_a, g.integers(1, d_a + 1, size=rep.trials), rng)
    sigs = randgen._ginibre_stack(d_b, g.integers(1, d_b + 1, size=rep.trials), rng)
    return ([DensityMatrix(m, randgen.GENERATED_TOL) for m in rhos],
            [DensityMatrix(m, randgen.GENERATED_TOL) for m in sigs])


def draw_lowerbound(rep, rng):
    d_b = rep.dims[1]
    n_pairs = rng.generator.integers(1, d_b // 2 + 1, size=rep.trials)
    return states(randgen._pairing_stack(2, d_b, n_pairs, rng, diag_weight=0.0), (2, d_b))


def ref_negativity_bound(rep, rng):
    for t, bs in enumerate(draw_bipartite(rep, rng)):
        n, _ = measures.negativity(bs)
        rep.check(t, "N <= C_l1", n, measures.c_l1(bs.rho), 1e-9)


def ref_l0_bound(rep, rng):
    for t, bs in enumerate(draw_bipartite(rep, rng)):
        rep.check(t, "2*N0 <= C_l0", 2 * measures.n0_count(bs), measures.c_l0_count(bs.rho))


def ref_additivity(rep, rng):
    for t, (rho, sig) in enumerate(zip(*draw_products(rep, rng))):
        prod = DensityMatrix(np.kron(rho.mat, sig.mat), 1e-8)
        gap = abs(measures.c_log(prod) - measures.c_log(rho) - measures.c_log(sig))
        rep.check(t, "C_L additivity", gap, 0.0, 1e-9)


def ref_pairing_roundtrip(rep, rng):
    d_a, d_b = rep.dims
    for t, (bs, n_pairs) in enumerate(zip(*draw_pairings(rep, rng))):
        cert = pairing.detect_canonical_pairing(bs)
        if cert is None:
            rep.check(t, "detector certifies generated state", 1.0, 0.0)
            continue
        rep.check(t, "pairing number matches generator",
                  abs(cert.pairing_number - n_pairs), 0.0)
        n, _ = measures.negativity(bs)
        rep.check(t, "|N - C_l1| on pairing state",
                  abs(n - measures.c_l1(bs.rho)), 0.0, 1e-8)
        if d_a == 2:
            dec = pairing.qubit_qudit_decompose(bs)
            gap = float(np.max(np.abs(dec.reassemble().mat - bs.mat)))
            rep.check(t, "decompose/reassemble round trip", gap, 0.0, 1e-9)


def ref_witness(rep, rng):
    for t, bs in enumerate(draw_pairings(rep, rng, entangled=True)[0]):
        cert = pairing.detect_canonical_pairing(bs)
        if cert is None:
            rep.check(t, "detector certifies generated state", 1.0, 0.0)
            continue
        for i in range(cert.pairing_number):
            _, _, block_n = pairing.distill_witness(bs, cert, i)
            rep.check(t, "witness block negativity > 1e-6", 1e-6, block_n, block=i)


def ref_majorization(rep, rng):
    g = rng.generator
    rows, cols = g.integers(1, 9, size=(2, rep.trials))
    xs = randgen._complex_normals(g, (rep.trials, 8, 8))
    for t in range(rep.trials):
        x = xs[t, :rows[t], :cols[t]]
        triple = uvw_triple(x)
        rep.check(t, "u < v", 0.0 if majorizes(triple.v, triple.u) else 1.0, 0.0)
        rep.check(t, "v < w", 0.0 if majorizes(triple.w, triple.v) else 1.0, 0.0)
        cmp = trace_vs_l1(x)
        rep.check(t, "trace norm <= l1 norm", cmp.trace_norm, cmp.l1_norm, 1e-9)


def ref_lowerbound(rep, rng):
    for t, bs in enumerate(draw_lowerbound(rep, rng)):
        cert = pairing.detect_canonical_pairing(bs)
        if cert is None:
            rep.check(t, "detector certifies generated state", 1.0, 0.0)
            continue
        bound = pairing.distillable_lower_bound(bs, cert, [(0, 1)])
        _, n_log = measures.negativity(bs)
        rep.check(t, "lower bound <= N_L", bound, n_log, 1e-9)
        e_d = pairing.pairing_measures(pairing.qubit_qudit_decompose(bs)).E_D
        rep.check(t, "p0=0 bound equals E_D", abs(bound - e_d), 0.0, 1e-8)


REFERENCE = {
    "negativity-bound": ref_negativity_bound,
    "l0-bound": ref_l0_bound,
    "additivity": ref_additivity,
    "pairing-roundtrip": ref_pairing_roundtrip,
    "witness": ref_witness,
    "majorization": ref_majorization,
    "lowerbound": ref_lowerbound,
}


def reference_run(suite, trials, seed, dims):
    rep = ReferenceReport(trials, dims)
    REFERENCE[suite](rep, RngState(seed))
    rep.violations.sort(key=lambda v: v[0])
    return rep


def assert_same_report(batched, ref):
    assert batched.worst_gap == ref.worst_gap
    got = [(v.trial, v.quantity, v.lhs, v.rhs, v.gap, v.block) for v in batched.violations]
    assert got == ref.violations


def test_reference_covers_every_suite():
    assert list(REFERENCE) == list(verify.SUITES)


@pytest.mark.parametrize("dims", [(3, 3), (2, 6), (2, 4), (4, 3), (2, 2)])
@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_batched_suite_matches_per_trial_reference(suite, dims):
    # (2, 2) draws trials with no transposition; one trial is a T = 1 stack
    for seed in range(10):
        for trials in (50, 1):
            (rep,) = verify.run_suite(suite, trials, seed, dims)
            assert rep.algorithm == "philox4x64/stream-2"
            assert_same_report(rep, reference_run(suite, trials, seed, dims))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dims", [(3, 3), (2, 6), (2, 2)])
@pytest.mark.parametrize("suite", ["pairing-roundtrip", "witness", "lowerbound"])
def test_a_refused_trial_is_masked_out_of_the_stack(suite, dims, monkeypatch):
    # trial 3 is a full-rank Ginibre state, which detection refuses: the
    # suites compute on the whole stack and check only the certified trials
    real = randgen._pairing_stack

    def with_ginibre(d_a, d_b, n_pairs, rng, diag_weight=None):
        mats = real(d_a, d_b, n_pairs, rng, diag_weight)
        mats[3] = random_density(3, d_a * d_b).mat
        return mats

    monkeypatch.setattr(randgen, "_pairing_stack", with_ginibre)
    for seed in range(3):
        (rep,) = verify.run_suite(suite, 20, seed, dims)
        assert_same_report(rep, reference_run(suite, 20, seed, dims))
        assert [(v.trial, v.quantity) for v in rep.violations] == [
            (3, "detector certifies generated state")]


def reference_draws(suite, trials, seed, dims):
    """The matrices the stacked generators give for the states a suite
    validates first (for additivity: the rhos, then the sigmas)."""
    rng = RngState(seed)
    rep = ReferenceReport(trials, dims)
    if suite in ("negativity-bound", "l0-bound"):
        drawn = [draw_bipartite(rep, rng)]
    elif suite == "additivity":
        drawn = draw_products(rep, rng)
    elif suite in ("pairing-roundtrip", "witness"):
        drawn = [draw_pairings(rep, rng, entangled=suite == "witness")[0]]
    else:
        drawn = [draw_lowerbound(rep, rng)]
    return [[state.mat for state in group] for group in drawn]


@pytest.mark.parametrize("suite", [s for s in verify.SUITES if s != "majorization"])
def test_suites_validate_the_states_the_generators_give(suite, monkeypatch):
    validated = []
    real = linalg._validated_stack

    def recording(mats, tols):
        validated.append(np.array(mats))
        return real(mats, tols)

    monkeypatch.setattr(linalg, "_validated_stack", recording)
    for dims in [(3, 3), (2, 5)]:
        validated.clear()
        verify.run_suite(suite, 12, 8, dims)
        want = reference_draws(suite, 12, 8, dims)
        assert [m.tobytes() for m in validated[:len(want)]] == \
            [np.array(w).tobytes() for w in want]


def _patch_spectra(monkeypatch, targets, change):
    """Pass the spectrum of rho^T_A of each matrix in ``targets`` through
    ``change``, wherever it is computed, batched or not."""
    real = measures._pt_spectrum

    def patched(state, dims=None):
        w = real(state, dims)
        mats = state if isinstance(state, np.ndarray) else state.mat
        for target in targets:
            if target.shape == mats.shape[-2:]:
                hit = np.all(mats == target, axis=(-2, -1))
                w[hit] = change(w[hit])
        return w

    monkeypatch.setattr(measures, "_pt_spectrum", patched)


def test_injected_defect_is_reported_at_its_trial(monkeypatch):
    drawn = randgen._bipartite_stack(3, 3, 20, RngState(4))
    # N grows by 10 with the top (last, ascending) eigenvalue
    _patch_spectra(monkeypatch, [drawn[7]],
                   lambda w: w + 10.0 * (np.arange(w.shape[-1]) == w.shape[-1] - 1))
    (rep,) = verify.run_suite("negativity-bound", 20, 4, (3, 3))
    ref = reference_run("negativity-bound", 20, 4, (3, 3))
    assert [v[:2] for v in ref.violations] == [(7, "N <= C_l1")]
    assert_same_report(rep, ref)
    assert rep.margins["N <= C_l1"] == pytest.approx(rep.violations[0].gap - 1e-9)


def test_a_nan_measure_is_reported_at_its_trial(monkeypatch):
    drawn = randgen._bipartite_stack(3, 3, 20, RngState(4))
    _patch_spectra(monkeypatch, [drawn[5]], lambda w: np.full_like(w, np.nan))
    (rep,) = verify.run_suite("negativity-bound", 20, 4, (3, 3))
    assert not rep.ok
    assert [(v.trial, v.quantity) for v in rep.violations] == [(5, "N <= C_l1")]
    assert np.isnan(rep.violations[0].gap)


def test_violations_are_listed_in_trial_order(monkeypatch):
    # break witness block 1 of an early trial and block 0 of a later one:
    # both are violations of the one witness quantity, each naming its block
    drawn, _ = draw_pairings(ReferenceReport(30, (3, 3)), RngState(6), entangled=True)
    certs = [pairing.detect_canonical_pairing(bs) for bs in drawn]
    early = next(t for t, c in enumerate(certs) if c.pairing_number >= 2)
    late = len(drawn) - 1

    def block(t, i):
        (idx,) = pairing._witness_supports(np.array([certs[t].transpositions[i]]), drawn[t].d_B)
        sub = drawn[t].mat[np.ix_(idx, idx)]
        return sub / sub.trace().real

    # a flat spectrum of trace 1 has N = 0
    _patch_spectra(monkeypatch, [block(early, 1), block(late, 0)], lambda w: np.full_like(w, 0.25))
    (got,) = verify.run_suite("witness", 30, 6, (3, 3))
    ref = reference_run("witness", 30, 6, (3, 3))
    assert [(v[0], v[1], v[5]) for v in ref.violations] == [
        (early, "witness block negativity > 1e-6", 1), (late, "witness block negativity > 1e-6", 0)]
    assert_same_report(got, ref)
    assert list(got.margins) == ["witness block negativity > 1e-6"]
    assert [v["block"] for v in got.to_dict()["violations"]] == [1, 0]


@pytest.mark.parametrize("suite, dims", [
    *[pytest.param(suite, (3, 3), id=suite) for suite in verify.SUITES],
    *[pytest.param(suite, (2, 6), id=f"{suite}-2x6") for suite in verify.SUITES],
])
def test_decompositions_do_not_grow_with_trials(suite, dims, decompositions):
    verify.run_suite(suite, 50, 1, dims)
    calls_at_50 = len(decompositions)
    decompositions.clear()
    verify.run_suite(suite, 200, 1, dims)
    assert len(decompositions) == calls_at_50 <= 3


@pytest.mark.parametrize("dims", [(3, 3), (2, 6)])
def test_additivity_decomposes_only_its_factors(dims, decompositions):
    verify.run_suite("additivity", 50, 1, dims)
    d_a, d_b = dims
    assert decompositions == [(50, d_a, d_a), (50, d_b, d_b)]


@pytest.mark.parametrize("dims", [(3, 3), (2, 6)])
def test_majorization_takes_one_svd(dims, decompositions, monkeypatch):
    svds, counted = [], np.linalg.svd

    def svd(a, *args, **kwargs):
        svds.append(np.shape(a))
        return counted(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    verify.run_suite("majorization", 50, 1, dims)
    assert decompositions == svds == [(50, 8, 8)]


@pytest.mark.parametrize("dims", [(3, 3), (2, 6), (4, 3)])
def test_additivity_checks_the_kron_with_its_factors_spectra(dims, monkeypatch):
    checked, real = [], linalg._checked

    def recording(stack, tols, spectra=None):
        checked.append((stack.mat.copy(), tols, spectra))
        return real(stack, tols, spectra)

    monkeypatch.setattr(linalg, "_checked", recording)
    verify.run_suite("additivity", 20, 5, dims)
    (_, _, given_a), (_, _, given_b), (prods, tol, spectra) = checked
    rhos, sigs = draw_products(ReferenceReport(20, dims), RngState(5))
    assert given_a is None and given_b is None and tol == 1e-8
    assert [p.tobytes() for p in prods] == \
        [np.kron(rho.mat, sig.mat).tobytes() for rho, sig in zip(rhos, sigs)]
    outer = [np.multiply.outer(rho._ascending(), sig._ascending()).ravel()
             for rho, sig in zip(rhos, sigs)]
    assert spectra.tobytes() == np.sort(outer, axis=1).tobytes()


@given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_product_spectrum_is_the_sorted_outer_product(d_a, d_b, seed):
    rng = RngState(seed)
    ranks = rng.generator.integers(1, [d_a + 1, d_b + 1])
    rho = randgen.ginibre_density(d_a, int(ranks[0]), rng)
    sig = randgen.ginibre_density(d_b, int(ranks[1]), rng)
    outer = np.sort(np.multiply.outer(rho._ascending(), sig._ascending()).ravel())
    assert np.abs(outer - np.linalg.eigvalsh(np.kron(rho.mat, sig.mat))).max() <= 1e-14


class TestGivenSpectra:
    """``linalg._checked`` given a product's spectra from its factors still
    rejects what ``DensityMatrix`` rejects, with its message."""

    @staticmethod
    def assert_rejects(prod, spectrum, phrase):
        with pytest.raises(ValidationError, match=phrase) as given_spectra:
            linalg._checked(linalg._Stack.of(prod[None]), 1e-8, spectrum[None])
        with pytest.raises(ValidationError) as dense:
            DensityMatrix(prod, 1e-8)
        assert str(given_spectra.value) == str(dense.value)

    @staticmethod
    def factors():
        rho, sig = random_density(3, 2), random_density(4, 3)
        return rho.mat, sig.mat, np.sort(np.multiply.outer(
            rho._ascending(), sig._ascending()).ravel())

    def test_valid_product_passes(self):
        rho, sig, spectrum = self.factors()
        got = linalg._checked(linalg._Stack.of(np.kron(rho, sig)[None]), 1e-8, spectrum[None])
        assert got.tobytes() == spectrum[None].tobytes()

    def test_non_hermitian(self):
        rho, sig, spectrum = self.factors()
        prod = np.kron(rho, sig)
        prod[0, 1] += 1e-6
        self.assert_rejects(prod, spectrum, "not Hermitian")

    def test_off_trace(self):
        rho, sig, spectrum = self.factors()
        prod = np.kron(rho, sig)
        prod[2, 2] += 1e-6
        self.assert_rejects(prod, spectrum, "not unit trace")

    def test_negative_eigenvalue(self):
        rho = random_density(3, 2)
        q, _ = np.linalg.qr(random_density(5, 3).mat)
        mu = np.array([-1e-6, 0.5, 0.5 + 1e-6])
        sig = (q * mu) @ q.conj().T
        spectrum = np.sort(np.multiply.outer(rho._ascending(), mu).ravel())
        assert spectrum[0] < -1e-8
        self.assert_rejects(np.kron(rho.mat, sig), spectrum, "smallest eigenvalue")


# SHA-256 of the reports of `verify --suite S --seed N --dims D --json` at
# the default 200 trials, each report without its elapsed_ms, written back
# as the command writes them.  Computed when the product took its own
# eigvalsh and w came from eigvalsh of X^dag X, so they pin that taking
# both from other spectra moves no bit of a report.
FROZEN_REPORTS = {
    ("additivity", (3, 3), 0): "061f85aa809f53c3202b4ed159e2ac1500b98eb34ba0a417298bce80a5603e5f",
    ("additivity", (3, 3), 1): "263527325de308e87a1094be2d9c0768902a1db60475d842b218ec0dae030175",
    ("additivity", (3, 3), 2): "8aaa1a71d3f3ca8f0ec50cadf2a1e467ba99c2a72f080eeb1ef59391323fe59a",
    ("additivity", (2, 6), 0): "9f72f31eaf3aa6025760227649f37e7ecf02e525e3313f111287f9ac61ff644f",
    ("additivity", (2, 6), 1): "df07fa8fc6c8cc6e5a2361975a94020140d972de31fc906beac975f3cba63873",
    ("additivity", (2, 6), 2): "10bd052a2f7965e19038e1d3fb8a6082a1743b67a06fea7c8ddef74c106df70d",
    ("majorization", (3, 3), 0): "a34bc54e0b805dcb7a8dcfaa674e7650de7c62406b073afc1dac64bb816f1389",
    ("majorization", (3, 3), 1): "85fb519eb4ed136efba98d898aca0ebb6d85dbea5609b7c08eeed91965b4bd0b",
    ("majorization", (3, 3), 2): "f60953aab1acf08ad63d41e97c4a835122620db690916954da72b9706ce54784",
    ("majorization", (2, 6), 0): "a6670e7a6eed90a3baf1a4f41cbc4904137de0d7031b201393d98d49f300cedc",
    ("majorization", (2, 6), 1): "78d3d27dae62f3a32e851bfe72e18736b76f38659f35de5c83795d650ed92d12",
    ("majorization", (2, 6), 2): "828bf62336b84db871ab4b4dc937ea356bb349c5e51c4d61786d4882ad024dc1",
}


@pytest.mark.parametrize("suite, dims, seed", list(FROZEN_REPORTS))
def test_reports_are_frozen(suite, dims, seed, capsys):
    assert cli.main(["verify", "--suite", suite, "--seed", str(seed),
                     "--dims", *map(str, dims), "--json"]) == 0
    docs = json.loads(capsys.readouterr().out)
    for doc in docs:
        del doc["elapsed_ms"]
    digest = hashlib.sha256(json.dumps(docs, indent=1).encode()).hexdigest()
    assert digest == FROZEN_REPORTS[suite, dims, seed]


@pytest.mark.parametrize("dims", [(3, 3), (2, 6)])
@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_suites_build_no_states_and_scan_each_stack_once(suite, dims, monkeypatch):
    # the suites validate, measure and decompose stacks: no DensityMatrix
    # per trial or per block, no PairingCertificate, and no stack scanned
    # for its pattern twice
    drawn = [] if suite == "majorization" else reference_draws(suite, 50, 3, dims)
    if suite == "witness":  # every certified trial's 4x4 blocks, as one stack
        blocks = [(sum(pairing.detect_canonical_pairing(bs).pairing_number
                       for bs in states(np.array(drawn[0]), dims)), 4, 4)]
    built, scanned = [], []
    real_init, real_validated = DensityMatrix.__init__, DensityMatrix._validated.__func__
    real_of = linalg._Stack.of.__func__
    real_certified = pairing.PairingCertificate.__post_init__

    def init(self, *args, **kwargs):
        built.append("__init__")
        real_init(self, *args, **kwargs)

    def validated(cls, *args, **kwargs):
        built.append("_validated")
        return real_validated(cls, *args, **kwargs)

    def of(cls, mats):
        scanned.append((mats.shape, mats.tobytes()))
        return real_of(cls, mats)

    def certified(self):
        built.append("PairingCertificate")
        real_certified(self)

    monkeypatch.setattr(DensityMatrix, "__init__", init)
    monkeypatch.setattr(DensityMatrix, "_validated", classmethod(validated))
    monkeypatch.setattr(linalg._Stack, "of", classmethod(of))
    monkeypatch.setattr(pairing.PairingCertificate, "__post_init__", certified)
    verify.run_suite(suite, 50, 3, dims)
    assert built == []
    assert len(set(scanned)) == len(scanned)
    for group in drawn:
        mats = np.array(group)
        assert scanned.count((mats.shape, mats.tobytes())) == 1
    if suite == "witness":
        assert [shape for shape, _ in scanned if shape[1:] == (4, 4)] == blocks


class CountingGenerator:
    """A numpy Generator that records the name of each method called."""

    def __init__(self, generator, calls):
        self._generator, self._calls = generator, calls

    def __getattr__(self, name):
        method = getattr(self._generator, name)

        def counted(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("suite, dims", [
    *[pytest.param(suite, (3, 3), id=suite) for suite in verify.SUITES],
    *[pytest.param(suite, (2, 6), id=f"{suite}-2x6") for suite in verify.SUITES],
])
def test_rng_calls_do_not_grow_with_trials(suite, dims, monkeypatch):
    calls = []
    real = RngState.generator.fget
    monkeypatch.setattr(RngState, "generator",
                        property(lambda rng: CountingGenerator(real(rng), calls)))
    verify.run_suite(suite, 5, 1, dims)
    calls_at_5 = list(calls)
    calls.clear()
    verify.run_suite(suite, 50, 1, dims)
    assert calls == calls_at_5 and calls


class TestReport:
    def test_margins_are_signed_worst_per_quantity(self):
        rep = verify.VerifyReport("x", 3, 0, (2, 2))
        rep.check(np.arange(3), "a <= b", np.array([0.1, 0.5, 0.2]), np.array([1.0, 1.0, 1.0]),
                  0.25)
        rep.check(1, "c <= d", 2.0, 1.0)
        assert rep.margins == {"a <= b": pytest.approx(-0.75), "c <= d": 1.0}
        assert rep.worst_gap == 1.0
        assert [(v.trial, v.quantity) for v in rep.violations] == [(1, "c <= d")]
        assert rep.to_dict()["margins"] == rep.margins

    def test_block_is_written_only_when_set(self):
        rep = verify.VerifyReport("x", 2, 0, (2, 2))
        rep.check(np.arange(2), "a", np.array([2.0, 0.0]), 1.0)
        rep.check(np.arange(2), "b", np.array([0.0, 2.0]), 1.0, blocks=np.array([4, 5]))
        assert rep.to_dict()["violations"] == [
            {"trial": 0, "quantity": "a", "lhs": 2.0, "rhs": 1.0, "gap": 1.0},
            {"trial": 1, "quantity": "b", "lhs": 2.0, "rhs": 1.0, "gap": 1.0, "block": 5}]

    def test_json_margins(self, capsys):
        assert cli.main(["verify", "--suite", "negativity-bound", "--trials", "20",
                         "--seed", "5", "--json"]) == 0
        (doc,) = json.loads(capsys.readouterr().out)
        assert set(doc["margins"]) == {"N <= C_l1"}
        assert doc["margins"]["N <= C_l1"] < 0
