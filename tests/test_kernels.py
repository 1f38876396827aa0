"""The numpy kernels against independent oracles.

Each kernel is one path of two that must agree: the Bruhat matrix with
the pairwise bruhat_leq (itself checked against reduced subwords in
test_permutations), and the dense KL fill with the R-polynomial
inversion.
"""

import pytest

from kostantpv.checks import _kl_against_r_oracle
from kostantpv.groupindex import group_index
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
