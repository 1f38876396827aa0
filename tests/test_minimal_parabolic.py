"""Seeds, factorization, and the case analysis for minimal parabolics."""

import pytest

from kostantpv.bigrassmannian import complement_bigrassmannians
from kostantpv.minimal_parabolic import (
    CaseAnalysis,
    MinParContext,
    case_analysis,
    enumerate_X,
    factorize,
    hat_G,
    is_kostant_positive_minimal,
    tau,
)
from kostantpv.permutations import (
    identity,
    parse_permutation,
    simple_reflection,
)
from oracles import enumerate_shortest_reps


def test_context_validation():
    MinParContext(4, 2)
    with pytest.raises(ValueError):
        MinParContext(4, 4)
    with pytest.raises(ValueError):
        MinParContext(4, 0)
    with pytest.raises(ValueError):
        MinParContext(1, 1)


def test_tau_examples():
    ctx = MinParContext(4, 2)
    assert str(tau(ctx, 1, 2)) == '2314'
    assert str(tau(ctx, 2, 3)) == '1234'
    assert str(tau(ctx, 1, 3)) == '2134'
    assert str(tau(ctx, 1, 4)) == '2143'
    ctx31 = MinParContext(3, 1)
    assert str(tau(ctx31, 1, 2)) == '123'
    assert str(tau(ctx31, 1, 3)) == '132'


def test_tau_is_shortest_rep():
    for n in range(2, 7):
        for k in range(1, n):
            ctx = MinParContext(n, k)
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    t = tau(ctx, i, j)
                    assert t.inverse(k) == i and t.inverse(k + 1) == j


def test_enumerate_X_counts():
    for n in range(2, 7):
        for k in range(1, n):
            plus, minus = enumerate_X(MinParContext(n, k))
            assert len(plus) == n - 1
            assert len(minus) == n * (n - 1) // 2 - (n - 1)
            assert not plus & minus


def test_hat_G():
    for n in range(2, 7):
        for k in range(1, n):
            g = hat_G(MinParContext(n, k))
            assert len(g) == _factorial(n - 2)
            for sigma in g:
                assert sigma(k) == k and sigma(k + 1) == k + 1


def _factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_factorize_round_trip():
    for n in range(2, 6):
        for k in range(1, n):
            ctx = MinParContext(n, k)
            plus, _ = enumerate_X(ctx)
            for w in enumerate_shortest_reps(n, frozenset({k})):
                f = factorize(ctx, w)
                assert f.sigma * f.tau == w
                assert f.sigma in hat_G(ctx)
                assert f.positive == (f.tau in plus)
                assert f.positive == is_kostant_positive_minimal(ctx, w)


def test_positive_reads_the_inverse_window_as_factorize_does():
    for n in range(2, 8):
        for k in range(1, n):
            ctx = MinParContext(n, k)
            for w in enumerate_shortest_reps(n, frozenset({k})):
                assert is_kostant_positive_minimal(ctx, w) == \
                    factorize(ctx, w).positive, (n, k, w)
    with pytest.raises(ValueError):
        is_kostant_positive_minimal(MinParContext(4, 2),
                                    parse_permutation('1324'))


def test_factorize_rejects_non_reps():
    ctx = MinParContext(4, 2)
    with pytest.raises(ValueError):
        factorize(ctx, parse_permutation('1324'))


def test_identity_is_positive():
    for n in range(2, 7):
        for k in range(1, n):
            assert is_kostant_positive_minimal(MinParContext(n, k), identity(n))


def test_case_analysis_errors():
    ctx = MinParContext(4, 2)
    with pytest.raises(ValueError):
        case_analysis(ctx, 2, 3)
    with pytest.raises(ValueError):
        case_analysis(ctx, 3, 2)
    with pytest.raises(ValueError):
        case_analysis(ctx, 0, 3)
    with pytest.raises(ValueError):
        case_analysis(ctx, 1, 5)


def test_case_dispatch():
    assert case_analysis(MinParContext(5, 2), 2, 4).case_id == 1
    assert case_analysis(MinParContext(5, 2), 1, 3).case_id == 2
    assert case_analysis(MinParContext(5, 2), 3, 5).case_id == 3
    assert case_analysis(MinParContext(5, 3), 1, 3).case_id == 4
    assert case_analysis(MinParContext(5, 2), 1, 4).case_id == 5


def test_case_chains_match_brute_force():
    for n in range(3, 6):
        for k in range(1, n):
            ctx = MinParContext(n, k)
            s = simple_reflection(n, k)
            for i in range(1, n):
                for j in range(i + 2, n + 1):
                    analysis = case_analysis(ctx, i, j)
                    assert isinstance(analysis, CaseAnalysis)
                    t = tau(ctx, i, j)
                    assert set(analysis.predicted) == \
                        complement_bigrassmannians(s * t, t)
