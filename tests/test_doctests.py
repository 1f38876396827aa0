"""Run the usage examples embedded in the library docstrings, in the
references of tests/oracles.py and in the README."""

import contextlib
import doctest
import io
import re
from pathlib import Path

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


README = Path(__file__).resolve().parent.parent / 'README.md'


def test_readme_examples():
    # each print in a ```python block of the README writes the line its
    # '# ...' comment shows
    blocks = re.findall(r'^```python\n(.*?)^```', README.read_text(),
                        re.M | re.S)
    assert blocks
    for block in blocks:
        want = [line.partition('#')[2].strip()
                for line in block.splitlines() if line.startswith('print(')]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(block, {})
        assert out.getvalue().splitlines() == want, block
