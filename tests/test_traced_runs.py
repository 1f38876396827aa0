"""Requests run under perfbench's tracer print their golden bytes.

The tracer binds fixed names of the program (its SPANS, KERNELS, COUNTS
and CACHES, checks.ALL_CHECKS, GroupIndex.__init__ and the
LaurentPolynomial methods) and reads the size of the array kl_fill
returns.  A renamed or reshaped one makes a traced request fail while
the untraced one still passes, so each engine, and each command's row
encoder (cli._emit_json, _emit_tsv and _mult_text), is run here through
the tracer as perfbench loads it.  selftest runs the checks through the
ALL_CHECKS tuple the tracer replaces, and fills the parabolic tables
that cross-oracle compares with the cup engine.  The traced
GroupIndex.__init__ counts the elements of each group index built: no
command builds one.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib

import pytest

from kostantpv import cli, compositions, groupindex, klcells

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _tracer():
    spec = importlib.util.spec_from_file_location(
        'perfbench_tracer', ROOT / 'perfbench' / 'tracer.py')
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize('args, fills, group_size', [
    (('classify', '--n', '6', '--parabolic', 'min:3', '--format', 'json'),
     True, 0),
    (('classify', '--n', '6', '--parabolic', 'comp:1,2,1,2',
      '--format', 'tsv'), True, 0),
    (('mult', '--n', '6', '--k', '3', '--x', '412356', '--engine', 'both',
      '--format', 'json'), True, 0),
    (('classify', '--n', '8', '--parabolic', 'max:4', '--format', 'tsv'),
     False, 0),
    (('selftest', '--n-max', '8'), True, 0),
    (('socle', '--n', '6', '--w', '543216', '--format', 'json'), False, 0),
    (('cells', '--n', '6', '--format', 'tsv'), False, 0),
    (('mult', '--n', '6', '--k', '3', '--x', '456123', '--engine', 'cup',
      '--format', 'tsv'), False, 0),
], ids=['min', 'comp', 'mult-both', 'max', 'selftest', 'socle', 'cells',
        'mult-cup'])
def test_traced_request_prints_its_golden(args, fills, group_size):
    compositions._thin.cache_clear()
    klcells._HELD_TABLES.clear()
    groupindex.group_index.cache_clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code, report = _tracer().run_traced(cli.main, list(args))
    assert code == 0
    goldens = json.loads((ROOT / 'tests' / 'cli_goldens.json').read_text())
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
        goldens[' '.join(args)]
    assert (report['counts'].get('kernels.kl_fill.bytes', 0) > 0) == fills
    assert report['counts'].get('groupindex.N', 0) == group_size
    # every command but selftest writes its rows through cli.encode
    assert (report['spans']['cli.encode'][0] > 0) == (args[0] != 'selftest')
