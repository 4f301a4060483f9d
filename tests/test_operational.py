"""C_l1 as the most negativity that incoherent operations make: the
exhaustive qubit and qutrit cases.

Every permutation of the d^2 joint levels of rho (x) |0><0| on d x d is
an incoherent unitary.  For a qubit or qutrit rho the largest negativity
they reach is C_l1(rho), and none exceeds it (Streltsov et al., PRL 115,
020403 (2015)).
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


# rho (x) |0><0| on 3 x 3 depends only on where rho's three levels land:
# the 9! permutations give 9 * 8 * 7 placements, each standing for 6! of them
PLACEMENTS = list(itertools.permutations(range(9), 3))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_level_placements_of_a_qutrit_and_ancilla_reach_c_l1(seed, rank):
    rho = pl.ginibre_density(3, rank, pl.RngState(seed))
    c_l1 = pl.c_l1(rho)
    n = []
    for p in PLACEMENTS:
        m = np.zeros((9, 9), dtype=complex)
        m[np.ix_(p, p)] = rho.mat
        n.append(pl.negativity(pl.BipartiteState(pl.DensityMatrix(m), 3, 3))[0])
    n = np.array(n)
    assert len(n) == 504
    assert abs(n.max() - c_l1) <= 1e-12
    assert np.all(n <= c_l1 + 1e-12)
    # attained where the three labels differ pairwise on A and on B: 3!
    # orders of the A-levels times 3! of the B-levels (36 * 6! = 25,920
    # of the 9! permutations)
    assert np.count_nonzero(np.abs(n - c_l1) <= 1e-12) == 36
