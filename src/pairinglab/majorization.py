"""Majorization machinery: partial-sum comparison, the u < v < w chain
attached to a matrix, and the trace-norm versus entrywise-l1 comparison
with monomial equality detection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg


def _descending(x) -> np.ndarray:
    return np.flip(np.sort(np.asarray(x, dtype=float), axis=-1), axis=-1)


def _zero_padded(a: np.ndarray, n: int) -> np.ndarray:
    return np.pad(a, [(0, 0)] * (a.ndim - 1) + [(0, n - a.shape[-1])])


def majorizes(y, x, tol: float = 1e-9):
    """True iff x is majorized by y (x < y); for stacks of sequences (the
    last axis), one answer per pair.

    Sequences of different lengths are zero-padded; all descending
    partial sums of x must stay below those of y and the totals must
    agree within ``tol``.
    """
    xs, ys = _descending(x), _descending(y)
    n = max(xs.shape[-1], ys.shape[-1])
    cx, cy = np.cumsum(_zero_padded(xs, n), axis=-1), np.cumsum(_zero_padded(ys, n), axis=-1)
    totals_agree = np.abs(cx[..., -1] - cy[..., -1]) <= tol
    return linalg._scalar(totals_agree & np.all(cx <= cy + tol, axis=-1))


@dataclass(frozen=True, eq=False)
class MajorizationTriple:
    """u = squared entry moduli, v = diag(X^dag X), w = eig(X^dag X).

    All three share the same total (the squared Frobenius norm) and
    satisfy u < v < w.  Triples compare and hash by identity.
    """

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray


def uvw_triple(x) -> MajorizationTriple:
    """The majorization chain of a matrix, per-component (of each matrix
    of a stack, along the last axis)."""
    x = linalg.as_complex_stack(x)
    u = (np.abs(x) ** 2).reshape(*x.shape[:-2], -1)
    gram = linalg._dagger(x) @ x
    v = np.diagonal(gram, axis1=-2, axis2=-1).real.copy()
    w = np.flip(np.linalg.eigvalsh((gram + linalg._dagger(gram)) / 2), axis=-1).copy()
    return MajorizationTriple(u=u, v=v, w=w)


class TraceVsL1(NamedTuple):
    trace_norm: float
    l1_norm: float
    is_monomial: bool
    gap: float


def is_monomial(x, zero_tol: float = 1e-10):
    """At most one significant entry per row and per column (for each
    matrix of a stack).

    Significance is relative: modulus above zero_tol times the largest
    entry modulus; an all-zero matrix is monomial.
    """
    mod = np.abs(linalg.as_complex_stack(x))
    top = np.max(mod, axis=(-2, -1), keepdims=True, initial=0.0)
    mask = mod > zero_tol * top
    return linalg._scalar(np.all(mask.sum(axis=-2) <= 1, axis=-1)
                          & np.all(mask.sum(axis=-1) <= 1, axis=-1))


def trace_vs_l1(x, zero_tol: float = 1e-10) -> TraceVsL1:
    """Compare ||X||_1 against ||X||_l1 and flag the monomial equality
    case (fields are arrays over a stack)."""
    x = linalg.as_complex_stack(x)
    tn = linalg.trace_norm(x)
    l1 = linalg.entrywise_l1_norm(x)
    return TraceVsL1(tn, l1, is_monomial(x, zero_tol), l1 - tn)
