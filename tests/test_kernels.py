"""The numpy kernels against independent oracles.

Each kernel is one path of two that must agree: the Bruhat matrix with
the pairwise bruhat_leq (itself checked against reduced subwords in
test_permutations), and the dense KL fill with the R-polynomial
inversion.  The array oracles of the kl-properties check (the table
identities and the mu-graph cells) also run here at n = 6, one size
past selftest.
"""

import pytest

from kostantpv.checks import (
    _cells_against_mu_graph,
    _kl_against_r_oracle,
    _kl_table_problems,
)
from kostantpv.groupindex import group_index
from kostantpv.klcells import kl_table
from kostantpv.permutations import bruhat_leq


@pytest.mark.parametrize('n', [1, 2, 3, 4, 5])
def test_leq_matrix_paths_agree(n):
    g = group_index(n)
    assert g.leq.shape == (g.N, g.N)
    perms = [g.perm(i) for i in range(g.N)]
    for x in range(g.N):
        for y in range(g.N):
            assert g.leq[x, y] == bruhat_leq(perms[x], perms[y]), (x, y)


@pytest.mark.parametrize('n', [2, 3, 4, 5])
def test_kl_fill_paths_agree(n):
    assert _kl_against_r_oracle(n) == []


def test_kl_table_identities_n6():
    assert _kl_table_problems(group_index(6), kl_table(6)) == []


def test_cells_against_mu_graph_n6():
    assert _cells_against_mu_graph(6) == []
