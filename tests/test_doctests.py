"""Run the usage examples embedded in the library docstrings and in
the references of tests/oracles.py."""

import doctest

import pytest

from kostantpv import (
    bigrassmannian,
    checks,
    compositions,
    cup_diagrams,
    laurent,
    minimal_parabolic,
    permutations,
    tableaux,
)

import oracles

MODULES = [
    permutations,
    laurent,
    tableaux,
    bigrassmannian,
    minimal_parabolic,
    cup_diagrams,
    compositions,
    checks,
    oracles,
]


@pytest.mark.parametrize('module', MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0
    assert result.attempted > 0
