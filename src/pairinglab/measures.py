"""Scalar coherence and entanglement quantities with closed forms.

Coherence is always taken with respect to the fixed reference (product)
basis.  All logarithms are base 2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import ValidationError
from .linalg import BipartiteState, DensityMatrix


def _relative_cutoff(top):
    """The default cutoff, 1e-10 times max(1, top), for a largest modulus ``top``."""
    return 1e-10 * np.maximum(1.0, top)


class _Moduli(NamedTuple):
    """The nonzero entries of a ``(T, d, d)`` stack whose ``linalg._pattern``
    is ``flat``, in flat order."""

    mod: np.ndarray  # their moduli
    counts: np.ndarray  # (T,) nonzero entries of each matrix
    flat: np.ndarray | None
    d: int

    def zero_diagonal(self, a: np.ndarray) -> np.ndarray:
        """``a``, one value per nonzero entry, with those of the diagonal
        entries set to zero (False), in place."""
        d = self.d
        if self.flat is None:
            a.reshape(-1, d * d)[:, ::d + 1] = 0
        else:
            a[self.flat % (d * d) % (d + 1) == 0] = 0
        return a


def _moduli(stack: linalg._Stack) -> _Moduli:
    """The nonzero entries of a stack (of ``rho._stack()`` for a state)."""
    mats, flat = stack
    t, d = len(mats), mats.shape[-1]
    if flat is None:
        return _Moduli(np.abs(mats).ravel(), np.full(t, d * d), flat, d)
    return _Moduli(np.abs(mats.ravel()[flat]), np.bincount(flat // (d * d), minlength=t), flat, d)


def _c_l1_of(ent: _Moduli) -> np.ndarray:
    """C_l1 of each matrix: the sum of its nonzero entries' moduli with the
    diagonal ones zeroed (``linalg._segment_reduce``, so a matrix's C_l1 is
    the same alone or in any stack); zeroes them in ``ent.mod``."""
    return linalg._segment_reduce(np.add, ent.zero_diagonal(ent.mod), ent.counts)


def _c_l1_checked(val: float, dim: int) -> float:
    """``val``, warning when it exceeds the d - 1 bound of C_l1."""
    if val > dim - 1 + 1e-9:
        warnings.warn(
            f"C_l1 = {val:.6g} exceeds the d-1 bound {dim - 1}; "
            "validation_tol may be too loose",
            stacklevel=3,
        )
    return val


def c_l1(rho: DensityMatrix) -> float:
    """l1-norm of coherence: sum of off-diagonal entry moduli."""
    return _c_l1_checked(float(_c_l1_of(_moduli(rho._stack()))[0]), rho.dim)


def c_log(rho: DensityMatrix) -> float:
    """Logarithmic l1-norm of coherence: log2(1 + C_l1)."""
    return float(np.log2(1.0 + c_l1(rho)))


def c_rel_entropy(rho: DensityMatrix) -> float:
    """Relative entropy of coherence: S(diag(rho)) - S(rho).

    S(diag(rho)) is the entropy of the diagonal entries; S(rho) comes from
    the spectrum validation already computed.
    """
    s_diag = linalg.entropy_of_spectrum(np.diag(rho.mat).real, rho.validation_tol)
    return s_diag - linalg.von_neumann_entropy(rho)


def _pt_spectrum(stack: linalg._Stack, dims: tuple[int, int]) -> np.ndarray:
    """Ascending spectrum of the (Hermitian) partial transpose rho^T_A of
    each matrix of a stack on ``dims`` = (d_A, d_B) (of
    ``rho._stack()`` for a state).

    A matrix's spectrum is the same alone or in any stack (``linalg._spectra``).
    The pattern of rho^T_A is read off the stack's.
    """
    mats, flat = stack
    if flat is not None:  # the pattern of rho^T_A: rho's, moved
        flat = linalg._pt_flat(flat, mats.shape[-1], dims[1])
    return linalg._spectra(mats, flat, dims)


def _negativity_of(pt_spectrum: np.ndarray):
    """N and N_L from the spectrum of rho^T_A (from each row of a stack of
    spectra)."""
    # rho^T_A is Hermitian, so its trace norm is the sum of |eigenvalues|
    n = np.sum(np.abs(pt_spectrum), axis=-1) - 1.0
    return n, np.log2(1.0 + np.maximum(n, 0.0))


def _n0_of(pt_spectrum: np.ndarray, zero_tol: float | None):
    """Count of eigenvalues below -zero_tol (per row of a stack); the
    default cutoff is relative to each spectrum's largest modulus."""
    if zero_tol is None:
        zero_tol = _relative_cutoff(np.max(np.abs(pt_spectrum), axis=-1, keepdims=True))
    return np.count_nonzero(pt_spectrum < -zero_tol, axis=-1)


def negativity(bs: BipartiteState) -> tuple[float, float]:
    """Negativity and logarithmic negativity of a bipartite state.

    N = ||rho^T_A||_1 - 1 and N_L = log2(1 + N).
    """
    n, n_log = _negativity_of(_pt_spectrum(bs.rho._stack(), (bs.d_A, bs.d_B))[0])
    return float(n), float(n_log)


def schmidt_negativity(lambdas) -> float:
    """Pure-state negativity from a Schmidt spectrum: (sum sqrt(l_j))^2 - 1."""
    lam = np.asarray(lambdas, dtype=float)
    if lam.size == 0 or np.any(lam < -1e-12):
        raise ValidationError("Schmidt coefficients must be nonnegative")
    if abs(lam.sum() - 1.0) > 1e-9:
        raise ValidationError(f"Schmidt coefficients sum to {lam.sum():.6g}, not 1")
    lam = np.clip(lam, 0.0, None)
    return float(np.sum(np.sqrt(lam)) ** 2 - 1.0)


def schmidt_spectrum(psi, d_a: int, d_b: int) -> np.ndarray:
    """Schmidt coefficients (descending, summing to 1) of a pure state vector."""
    v = np.asarray(psi, dtype=complex).reshape(d_a, d_b)
    s = linalg.singular_values(v)
    lam = s**2
    return lam / lam.sum()


def n0_count(bs: BipartiteState, zero_tol: float | None = None) -> int:
    """Number of eigenvalues of rho^T_A strictly below -zero_tol."""
    return int(_n0_of(_pt_spectrum(bs.rho._stack(), (bs.d_A, bs.d_B))[0], zero_tol))


def _c_l0_of(ent: _Moduli, zero_tol: float | None) -> np.ndarray:
    """Count of off-diagonal nonzero entries above zero_tol of each
    matrix; the default cutoff is relative to each matrix's largest
    modulus."""
    if zero_tol is None:
        zero_tol = _relative_cutoff(linalg._segment_reduce(np.maximum, ent.mod, ent.counts))
    mask = ent.zero_diagonal(ent.mod > linalg._per_entry(zero_tol, ent.counts))
    return linalg._segment_reduce(np.add, mask, ent.counts, 0)


def c_l0_count(rho: DensityMatrix, zero_tol: float | None = None) -> int:
    """Number of off-diagonal entries with modulus above zero_tol."""
    return int(_c_l0_of(_moduli(rho._stack()), zero_tol)[0])


@dataclass
class MeasureReport:
    """Named scalar measures with the formula that produced each value."""

    entries: dict[str, float] = field(default_factory=dict)
    formulas: dict[str, str] = field(default_factory=dict)

    def add(self, name: str, value: float, formula: str) -> None:
        self.entries[name] = float(value)
        self.formulas[name] = formula


def measure_report(state: DensityMatrix | BipartiteState, zero_tol: float | None = None) -> MeasureReport:
    """All closed-form measures of a state; bipartite inputs additionally
    get negativity-side quantities.

    N and N0 share one spectrum of rho^T_A (``_pt_spectrum``): read off
    exactly when rho^T_A is monomial, otherwise from eigvalsh of its
    components, the only decompositions.  Every quantity reads the
    nonzero entries that validation kept, not the whole matrix.
    """
    rho = state.rho if isinstance(state, BipartiteState) else state
    stack = rho._stack()
    # one modulus list: C_l0 reads it before C_l1 zeroes its diagonal
    ent = _moduli(stack)
    c_l0 = int(_c_l0_of(ent, zero_tol)[0])
    c_l1_value = _c_l1_checked(float(_c_l1_of(ent)[0]), rho.dim)
    rep = MeasureReport()
    rep.add("C_l1", c_l1_value, "sum of off-diagonal moduli")
    rep.add("C_L", float(np.log2(1.0 + c_l1_value)), "log2(1 + C_l1)")
    rep.add("C_r", c_rel_entropy(rho), "S(diag(rho)) - S(rho)")
    if isinstance(state, BipartiteState):
        w = _pt_spectrum(stack, (state.d_A, state.d_B))[0]
        n, n_log = _negativity_of(w)
        rep.add("N", n, "trace norm of partial transpose minus 1")
        rep.add("N_L", n_log, "log2(1 + N)")
        rep.add("N0", int(_n0_of(w, zero_tol)), "negative eigenvalue count of rho^T_A")
    rep.add("C_l0", c_l0, "nonzero off-diagonal count")
    return rep
