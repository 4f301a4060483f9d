"""Inputs that public functions must refuse, each with the error and the
message it raises."""

import numpy as np
import pytest

import pairinglab as pl
from pairinglab.constructions import bell_vector, isotropic_mixture
from pairinglab.errors import (
    DimensionMismatch,
    InvalidPartition,
    NotCanonicalPairing,
    SupportOverlap,
    ValidationError,
    WeightMismatch,
)

MC = np.array([[0.5, 0.3], [0.3, 0.5]])


def mc_state():
    return pl.make_mc_state(pl.MCSpec(MC, (0, 1), (0, 1)), 2, 2)


def witness_out_of_range():
    bs = mc_state()
    return pl.distill_witness(bs, pl.detect_canonical_pairing(bs), 5)


def a_level_out_of_range():
    bs = mc_state()
    return pl.distillable_lower_bound(bs, pl.detect_canonical_pairing(bs), [(0, 2)])


REFUSED = {
    "qubit-qudit 2-d diag": (
        lambda: pl.make_qubit_qudit_pairing(0.0, np.zeros((2, 4)), [(1.0, MC, (0, 1))]),
        WeightMismatch, "diag must be a flat vector"),
    "qubit-qudit unnormalized diag": (
        lambda: pl.make_qubit_qudit_pairing(0.5, [0.3, 0, 0, 0, 0, 0, 0, 0.3],
                                            [(0.5, MC, (0, 1))]),
        WeightMismatch, "diag must be normalized when p0 > 0"),
    "qubit-qudit columns (1, 1)": (
        lambda: pl.make_qubit_qudit_pairing(0.0, np.zeros(4), [(1.0, MC, (1, 1))]),
        SupportOverlap, r"invalid B-column pair \(1, 1\)"),
    "appendix-a L = 0": (
        lambda: pl.appendix_a_chain(pl.DensityMatrix(np.ones((3, 3)) / 3), 0),
        ValueError, "L must be a positive integer"),
    "isotropic p = 1.5": (
        lambda: isotropic_mixture(1.5, bell_vector(), 2, 2),
        ValueError, r"mixing parameter p = 1.5 outside \[0, 1\]"),
    "isotropic wrong-length psi": (
        lambda: isotropic_mixture(0.5, [1, 0, 1], 2, 2),
        ValueError, "pure part has wrong dimension"),
    "witness index 5": (witness_out_of_range, IndexError, "transposition index 5 out of range"),
    "decompose a Ginibre state": (
        lambda: pl.qubit_qudit_decompose(pl.random_bipartite_state(2, 3, pl.RngState(3))),
        NotCanonicalPairing, "not a canonical pairing state"),
    "A-level out of range": (
        a_level_out_of_range, InvalidPartition, r"A-level \(0, 2\) outside range 0..1"),
    "d_A = 0": (
        lambda: pl.BipartiteState(pl.DensityMatrix(np.eye(4) / 4), 0, 4),
        DimensionMismatch, "subsystem dimensions must be positive"),
    "d_A d_B != dim": (
        lambda: pl.BipartiteState(pl.DensityMatrix(np.eye(4) / 4), 2, 3),
        DimensionMismatch, "d_A \\* d_B = 6 != matrix dimension 4"),
    "negative Schmidt coefficient": (
        lambda: pl.schmidt_negativity([-0.1, 1.1]),
        ValidationError, "Schmidt coefficients must be nonnegative"),
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_refused(case):
    call, error, message = REFUSED[case]
    with pytest.raises(error, match=message):
        call()


def test_c_l1_above_its_bound_warns():
    # accepted only at the loose tolerance 0.1: its smallest eigenvalue is -0.05
    rho = pl.DensityMatrix([[0.5, 0.55], [0.55, 0.5]], 0.1)
    with pytest.warns(UserWarning, match="C_l1 = 1.1 exceeds the d-1 bound 1"):
        assert pl.c_l1(rho) == pytest.approx(1.1)
