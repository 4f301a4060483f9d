import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairinglab as pl


class TestMajorizes:
    def test_reflexive(self):
        assert pl.majorizes([0.5, 0.3, 0.2], [0.5, 0.3, 0.2])

    def test_uniform_is_bottom(self):
        assert pl.majorizes([0.7, 0.2, 0.1], [1 / 3] * 3)
        assert not pl.majorizes([1 / 3] * 3, [0.7, 0.2, 0.1])

    def test_point_mass_is_top(self):
        assert pl.majorizes([1.0, 0.0, 0.0], [0.6, 0.3, 0.1])

    def test_length_padding(self):
        assert pl.majorizes([0.6, 0.4], [0.6, 0.3, 0.1])

    def test_total_mismatch_fails(self):
        assert not pl.majorizes([0.9, 0.2], [0.6, 0.4])

    def test_order_insensitive(self):
        assert pl.majorizes([0.1, 0.7, 0.2], [0.25, 0.4, 0.35])


class TestUVWTriple:
    def test_monomial_collapses_chain(self):
        x = np.array([[0, 2], [3j, 0]])
        t = pl.uvw_triple(x)
        # u, v, w all equal {9, 4} (plus zeros in u)
        assert sorted(t.u[t.u > 0]) == [4, 9]
        assert sorted(t.v) == [4, 9]
        assert np.allclose(sorted(t.w), [4, 9])

    def test_totals_agree(self):
        x = np.array([[1.0, 2.0], [0.5, 1.5]])
        t = pl.uvw_triple(x)
        fro2 = np.sum(np.abs(x) ** 2)
        assert t.u.sum() == pytest.approx(fro2)
        assert t.v.sum() == pytest.approx(fro2)
        assert t.w.sum() == pytest.approx(fro2)

    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_chain_holds(self, seed):
        g = np.random.Generator(np.random.Philox(seed))
        n, m = int(g.integers(1, 9)), int(g.integers(1, 9))
        x = g.standard_normal((n, m)) + 1j * g.standard_normal((n, m))
        t = pl.uvw_triple(x)
        assert pl.majorizes(t.v, t.u, tol=1e-8)
        assert pl.majorizes(t.w, t.v, tol=1e-8)
        assert pl.majorizes(t.w, t.u, tol=1e-8)


class TestIsMonomial:
    def test_examples(self):
        assert pl.is_monomial(np.zeros((3, 3)))
        assert pl.is_monomial(np.eye(3))
        assert pl.is_monomial(np.array([[0, 2], [3j, 0]]))
        assert not pl.is_monomial(np.ones((2, 2)))
        assert not pl.is_monomial(np.array([[1.0, 0.5], [0, 1.0]]))

    def test_relative_threshold(self):
        x = np.array([[1.0, 1e-14], [0.0, 1.0]])
        assert pl.is_monomial(x)
        assert not pl.is_monomial(x, zero_tol=1e-16)


class TestTraceVsL1:
    def test_monomial_equality(self):
        r = pl.trace_vs_l1(np.array([[0, 2], [3j, 0]]))
        assert r.is_monomial
        assert r.gap == pytest.approx(0, abs=1e-12)
        assert r.trace_norm == pytest.approx(5)

    def test_two_entry_row_strict_gap(self):
        r = pl.trace_vs_l1(np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert not r.is_monomial
        assert r.gap == pytest.approx(2 - np.sqrt(2))

    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_trace_norm_never_exceeds_l1(self, seed):
        g = np.random.Generator(np.random.Philox(seed))
        n = int(g.integers(1, 9))
        x = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
        r = pl.trace_vs_l1(x)
        assert r.trace_norm <= r.l1_norm + 1e-9

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_random_monomial_has_zero_gap(self, seed):
        g = np.random.Generator(np.random.Philox(seed))
        n = int(g.integers(2, 9))
        rng = pl.RngState(seed)
        u = pl.random_monomial_unitary(n, rng) * g.random(n)
        r = pl.trace_vs_l1(u)
        assert r.is_monomial
        assert abs(r.gap) <= 1e-9


class TestStacks:
    def test_stack_answers_match_per_matrix_answers(self):
        g = np.random.Generator(np.random.Philox(11))
        xs = g.standard_normal((12, 3, 5)) + 1j * g.standard_normal((12, 3, 5))
        xs[4] = np.diag([2.0, -1j, 0.5]) @ np.eye(3, 5)  # a monomial one
        triple = pl.uvw_triple(xs)
        cmp = pl.trace_vs_l1(xs)
        for x, u, v, w, tn, l1, mono in zip(xs, triple.u, triple.v, triple.w, *cmp[:3]):
            one = pl.uvw_triple(x)
            assert (u.tobytes(), v.tobytes(), w.tobytes()) == \
                (one.u.tobytes(), one.v.tobytes(), one.w.tobytes())
            assert (tn, l1, mono) == pytest.approx(tuple(pl.trace_vs_l1(x)[:3]), rel=1e-15)
        assert cmp.is_monomial.tolist() == [i == 4 for i in range(12)]
        assert pl.majorizes(triple.w, triple.v).tolist() == [True] * 12
        # a stack of pairs that fail on partial sums, on totals, and hold
        ys = np.array([[0.5, 0.5], [1.0, 0.2], [0.7, 0.3]])
        xs2 = np.array([[0.9, 0.1], [1.0, 0.0], [0.6, 0.4]])
        assert pl.majorizes(ys, xs2).tolist() == [pl.majorizes(y, x) for y, x in zip(ys, xs2)]
        assert pl.majorizes(ys, xs2).tolist() == [False, False, True]
