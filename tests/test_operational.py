"""C_l1 as the most negativity that incoherent operations make: the
exhaustive qubit case.

Every permutation of the four joint levels of rho (x) |0><0| on 2 x 2 is
an incoherent unitary.  For a qubit rho the largest negativity they reach
is C_l1(rho), and none exceeds it (Streltsov et al., PRL 115, 020403
(2015)).
"""

import itertools

import numpy as np
import pytest

import pairinglab as pl

PERMUTATIONS = list(itertools.permutations(range(4)))


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("rank", [1, 2])
def test_level_permutations_of_a_qubit_and_ancilla_reach_c_l1(seed, rank):
    rho = pl.ginibre_density(2, rank, pl.RngState(seed))
    joint = np.kron(rho.mat, np.diag([1.0, 0.0]))  # rho (x) |0><0|
    c_l1 = pl.c_l1(rho)
    n = np.array([pl.negativity(pl.BipartiteState(pl.DensityMatrix(joint[np.ix_(p, p)]), 2, 2))[0]
                  for p in PERMUTATIONS])
    assert len(n) == 24
    assert abs(n.max() - c_l1) <= 1e-12
    assert np.all(n <= c_l1 + 1e-12)
    # attained where rho's two levels land on labels that differ on A and
    # on B: 2 label pairs, 2 orders, 2 places for the empty levels
    assert np.count_nonzero(np.abs(n - c_l1) <= 1e-12) == 8
