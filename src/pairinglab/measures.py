"""Scalar coherence and entanglement quantities with closed forms.

Coherence is always taken with respect to the fixed reference (product)
basis.  All logarithms are base 2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ValidationError
from .linalg import BipartiteState, DensityMatrix


def _relative_cutoff(top):
    """The default cutoff, 1e-10 times max(1, top), for a largest modulus ``top``."""
    return 1e-10 * np.maximum(1.0, top)


def _c_l1_of(mod: np.ndarray):
    """Sum of the off-diagonal entries of the entry moduli ``mod`` of a
    matrix (of each matrix of a ``(..., d, d)`` stack); zeroes the
    diagonal of ``mod``."""
    diag = np.arange(mod.shape[-1])
    mod[..., diag, diag] = 0.0
    return mod.sum(axis=(-2, -1))


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
    return _c_l1_checked(float(_c_l1_of(np.abs(rho.mat))), rho.dim)


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


def _pt_spectrum(state, dims: tuple[int, int] | None = None) -> np.ndarray:
    """Ascending spectrum of the (Hermitian) partial transpose rho^T_A of
    a BipartiteState, or of each matrix of a ``(T, d, d)`` stack on
    ``dims`` = (d_A, d_B).

    A matrix's spectrum is the same alone or in any stack (``linalg._spectra``).
    """
    if isinstance(state, BipartiteState):
        state, dims = state.mat, (state.d_A, state.d_B)
    return linalg._spectra(state, linalg.partial_transpose(state != 0, dims), dims)


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
    n, n_log = _negativity_of(_pt_spectrum(bs))
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
    return int(_n0_of(_pt_spectrum(bs), zero_tol))


def _c_l0_of(mod: np.ndarray, zero_tol: float | None):
    """Count of off-diagonal entries above zero_tol, given the entry
    moduli ``mod`` of a matrix (of each matrix of a stack); the default
    cutoff is relative to each matrix's largest modulus."""
    if zero_tol is None:
        zero_tol = _relative_cutoff(np.max(mod, axis=(-2, -1), keepdims=True, initial=0.0))
    mask = mod > zero_tol
    diag = np.arange(mod.shape[-1])
    mask[..., diag, diag] = False
    return np.count_nonzero(mask, axis=(-2, -1))


def c_l0_count(rho: DensityMatrix, zero_tol: float | None = None) -> int:
    """Number of off-diagonal entries with modulus above zero_tol."""
    return int(_c_l0_of(np.abs(rho.mat), zero_tol))


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
    components, the only decompositions.
    """
    rho = state.rho if isinstance(state, BipartiteState) else state
    # one modulus array: C_l0 reads it before C_l1 zeroes its diagonal
    mod = np.abs(rho.mat)
    c_l0 = int(_c_l0_of(mod, zero_tol))
    c_l1_value = _c_l1_checked(float(_c_l1_of(mod)), rho.dim)
    rep = MeasureReport()
    rep.add("C_l1", c_l1_value, "sum of off-diagonal moduli")
    rep.add("C_L", float(np.log2(1.0 + c_l1_value)), "log2(1 + C_l1)")
    rep.add("C_r", c_rel_entropy(rho), "S(diag(rho)) - S(rho)")
    if isinstance(state, BipartiteState):
        w = _pt_spectrum(state)
        n, n_log = _negativity_of(w)
        rep.add("N", n, "trace norm of partial transpose minus 1")
        rep.add("N_L", n_log, "log2(1 + N)")
        rep.add("N0", int(_n0_of(w, zero_tol)), "negative eigenvalue count of rho^T_A")
    rep.add("C_l0", c_l0, "nonzero off-diagonal count")
    return rep
