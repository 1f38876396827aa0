"""Exit codes, schema stability, and byte-for-byte determinism."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from kostantpv import checks, cli, klcells
from kostantpv._kernels import BITS
from kostantpv.permutations import (
    Permutation,
    enumerate_group,
    longest_element,
)

ROW_FIELDS = {'w', 'word', 'verdict', 'thin', 'a_value', 'multiplicities'}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, '-m', 'kostantpv.cli', *args],
        capture_output=True,
        text=True,
    )


def run_main(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(args))
    return code, out.getvalue()


def test_classify_max_json_schema():
    code, out = run_main('classify', '--n', '4', '--parabolic', 'max:2')
    assert code == 0
    data = json.loads(out)
    assert data['context'] == {'n': 4, 'parabolic': 'max:2'}
    assert len(data['rows']) == 6
    for row in data['rows']:
        assert set(row) == ROW_FIELDS
        assert row['verdict'] in ('Positive', 'Negative')
        assert isinstance(row['thin'], bool)
        assert isinstance(row['a_value'], int)
        assert row['word'].count('^') == 2
        for y, degree in row['multiplicities']:
            assert isinstance(y, str) and isinstance(degree, int)
    ws = [row['w'] for row in data['rows']]
    assert ws == sorted(ws)


def test_classify_min_and_comp_rows():
    code, out = run_main('classify', '--n', '3', '--parabolic', 'min:1')
    assert code == 0
    rows = json.loads(out)['rows']
    verdicts = [row['verdict'] for row in rows]
    assert verdicts.count('Positive') == 2
    assert verdicts.count('Negative') == 1
    assert all(row['word'] is None for row in rows)
    assert all(row['a_value'] is None for row in rows)
    assert all(row['multiplicities'] is None for row in rows)

    code, out = run_main('classify', '--n', '4', '--parabolic', 'comp:2,2')
    assert code == 0
    rows = json.loads(out)['rows']
    assert [r['w'] for r in rows if r['verdict'] == 'Positive'] == \
        ['1234', '3412']


def test_classify_comp_equals_min():
    code_a, out_a = run_main('classify', '--n', '4', '--parabolic', 'min:2')
    code_b, out_b = run_main('classify', '--n', '4', '--parabolic',
                             'comp:1,2,1')
    assert code_a == code_b == 0
    rows_a = json.loads(out_a)['rows']
    rows_b = json.loads(out_b)['rows']
    assert [(r['w'], r['verdict'], r['thin']) for r in rows_a] == \
        [(r['w'], r['verdict'], r['thin']) for r in rows_b]


def test_tsv_format():
    code, out = run_main('classify', '--n', '4', '--parabolic', 'max:2',
                         '--format', 'tsv')
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == '# w\tword\tverdict\tthin\ta_value\tmultiplicities'
    assert len(lines) == 7
    first = lines[1].split('\t')
    assert first[0] == '1234' and first[1] == '^^vv'
    assert first[2] == 'Positive' and first[3] == 'true'
    assert first[5] == '1234:0;1324:1;3412:2'


def test_determinism_byte_identical():
    for args in (
        ('classify', '--n', '5', '--parabolic', 'max:2'),
        ('classify', '--n', '4', '--parabolic', 'comp:2,1,1',
         '--format', 'tsv'),
        ('mult', '--n', '4', '--k', '2', '--x', '1324'),
        ('cells', '--n', '4', '--format', 'tsv'),
    ):
        a, b = run_cli(*args), run_cli(*args)
        assert a.returncode == b.returncode
        assert a.stdout == b.stdout
        assert a.stdout.endswith('\n')


def test_mult_engines_agree():
    code, out = run_main('mult', '--n', '4', '--k', '2', '--x', '1234',
                         '--engine', 'both')
    assert code == 0
    data = json.loads(out)
    assert data['agree'] is True
    assert len(data['rows']) == 3

    _, cup_out = run_main('mult', '--n', '4', '--k', '2', '--x', '1234',
                          '--engine', 'cup')
    _, kl_out = run_main('mult', '--n', '4', '--k', '2', '--x', '1234',
                         '--engine', 'kl')
    cup_rows = json.loads(cup_out)['rows']
    kl_rows = json.loads(kl_out)['rows']
    assert cup_rows == kl_rows
    assert 'agree' not in json.loads(cup_out)
    assert run_main('mult', '--n', '4', '--k', '2', '--x', '1234',
                    '--format', 'tsv') == (
        0, '# y\tdegree\n1234\t0\n1324\t1\n3412\t2\n# agree\ttrue\n')


def _zigzag(n):
    """The window h+1, h-1, h+3, h-3, ..., n-1, 1, n, 2, n-2, 4, ... of
    n = 4m (h = n / 2), which has n^2 / 8 socle generators."""
    h = n // 2
    window = [v for j in range(h // 2) for v in (h + 1 + 2 * j, h - 1 - 2 * j)]
    window += [v for j in range(h // 2) for v in (n - 2 * j, 2 + 2 * j)]
    return str(Permutation(window))


@pytest.mark.parametrize('args', [
    ('classify', '--n', '5', '--parabolic', 'max:2'),
    ('classify', '--n', '5', '--parabolic', 'min:2'),
    ('classify', '--n', '5', '--parabolic', 'comp:2,1,2'),
    ('mult', '--n', '6', '--k', '3', '--x', '412356', '--engine', 'cup'),
    ('mult', '--n', '6', '--k', '3', '--x', '412356', '--engine', 'kl'),
    ('mult', '--n', '6', '--k', '3', '--x', '412356', '--engine', 'both'),
    ('socle', '--n', '4', '--w', '1234'),
    ('socle', '--n', '4', '--w', '4231'),
    ('socle', '--n', '72', '--w', _zigzag(72), '--n-max', '72'),
    ('cells', '--n', '7'),
], ids=['max', 'min', 'comp', 'mult-cup', 'mult-kl', 'mult-both',
        'socle-identity', 'socle', 'socle-chunks', 'cells'])
def test_json_rows_are_what_json_dumps_writes(args):
    # every command writes its JSON rows through a template; the page
    # must read as json.dumps(..., sort_keys=True, indent=2) lays it out
    with contextlib.redirect_stderr(io.StringIO()):
        code, out = run_main(*args, '--format', 'json')
    assert code == 0
    data = json.loads(out)
    assert json.dumps(data, sort_keys=True, indent=2) + '\n' == out
    if '72' in args:  # past one chunk of rows
        assert len(data['generators']) > cli.CHUNK_ROWS


def test_mult_disagreement_exits_one(monkeypatch):
    # the KL engine finds no factor at all
    monkeypatch.setattr(klcells, 'graded_row', lambda table, window: [])
    code, out = run_main('mult', '--n', '4', '--k', '2', '--x', '1234',
                         '--engine', 'both')
    assert code == 1
    assert json.loads(out)['agree'] is False


def test_socle():
    code, out = run_main('socle', '--n', '4', '--w', '3412')
    assert code == 0
    assert json.loads(out)['generators'] == ['3412']
    code, out = run_main('socle', '--n', '4', '--w', '1234')
    assert json.loads(out)['generators'] == []
    code, out = run_main('socle', '--n', '4', '--w', '4231')
    gens = json.loads(out)['generators']
    assert len(gens) > 1


def test_cells():
    code, out = run_main('cells', '--n', '3')
    assert code == 0
    rows = json.loads(out)['rows']
    assert len(rows) == 6
    small = [r['w'] for r in rows if r['small']]
    assert small == ['132', '213', '231', '312']
    shapes = {r['w']: r['shape'] for r in rows}
    assert shapes['123'] == '3' and shapes['321'] == '1,1,1'


IDENTITY_14 = '[' + ','.join(map(str, range(1, 15))) + ']'


def test_usage_errors():
    cases = [
        ('classify', '--n', '9', '--parabolic', 'max:2'),
        ('classify', '--n', '4', '--parabolic', 'max:4'),
        ('classify', '--n', '4', '--parabolic', 'bogus'),
        ('classify', '--n', '4', '--parabolic', 'comp:2,3'),
        # past the KL fill's bound: 5,040 reps
        ('classify', '--n', '7', '--parabolic', 'comp:1,1,1,1,1,1,1'),
        ('selftest', '--n-max', '9'),
    ]
    for args in cases:
        proc = run_cli(*args)
        assert proc.returncode == 2, args
        assert proc.stderr.startswith('error:'), args
        assert proc.stdout == ''
    # the whole of stderr: a k out of range is the contexts' own error,
    # and k and each part are canonical decimals (int() alone would run
    # max:1_0 as max:10 and comp:2,+2 as comp:2,2); an engine's
    # ValueError is printed as it is raised, and only phi's is reworded
    def warning(n):
        return (f'warning: n limit raised to {n}; runs beyond n=8 can take '
                'very long and use much memory\n')

    for args, stderr in (
        (('classify', '--n', '4', '--parabolic', 'max:4'),
         'error: k=4 out of range 1..3\n'),
        (('classify', '--n', '4', '--parabolic', 'min:0'),
         'error: k=0 out of range 1..3\n'),
        (('mult', '--n', '4', '--k', '5', '--x', '1234'),
         'error: k=5 out of range 1..3\n'),
        (('classify', '--n', '12', '--parabolic', 'max:1_0', '--n-max', '12'),
         warning(12) + "error: malformed k in 'max:1_0'\n"),
        (('classify', '--n', '4', '--parabolic', 'min:02'),
         "error: malformed k in 'min:02'\n"),
        # past the 4,300 digits int() converts, in the program's words
        (('classify', '--n', '4', '--parabolic', 'max:' + '1' * 4301),
         f"error: malformed k in 'max:{'1' * 4301}'\n"),
        (('classify', '--n', '4', '--parabolic', 'comp:2,+2'),
         "error: malformed composition text: '2,+2'\n"),
        (('classify', '--n', '4', '--parabolic', 'comp: 2,2'),
         "error: malformed composition text: ' 2,2'\n"),
        (('classify', '--n', '3', '--parabolic', 'comp:1, 2'),
         "error: malformed composition text: '1, 2'\n"),
        (('mult', '--n', '4', '--k', '2', '--x', '213'),
         "error: argument --x: '213' is a window of size 3, not 4\n"),
        (('mult', '--n', '4', '--k', '2', '--x', '2134'),
         'error: 2134 is not a shortest coset rep for max:2\n'),
        (('socle', '--n', '4', '--w', 'x'),
         "error: argument --w: not a permutation text: 'x'\n"),
        # each value of a window is a canonical decimal, as k and the
        # parts are: int() alone would read '٣١٢' and '[3, 1,2]' as 312
        (('socle', '--n', '3', '--w', '٣١٢'),
         "error: argument --w: not a permutation text: '٣١٢'\n"),
        (('socle', '--n', '3', '--w', '[3, 1,2]'),
         "error: argument --w: not a permutation text: '[3, 1,2]'\n"),
        (('socle', '--n', '3', '--w', '3²1'),
         "error: argument --w: not a permutation text: '3²1'\n"),
        (('mult', '--n', '4', '--k', '2', '--x', '١٣٢٤'),
         "error: argument --x: not a permutation text: '١٣٢٤'\n"),
        (('classify', '--n', '19', '--parabolic', 'max:9', '--n-max', '19'),
         warning(19) + 'error: the cup engine lists all 19319845 '
         'composition factors of the (19,9) block, over its limit of '
         '8099511\n'),
        # past the KL fill's bound: 20,160 reps, and the 3,432 of max:7
        # at n = 14, where the raised --n-max warns first
        (('classify', '--n', '8', '--parabolic', 'min:3'),
         'error: the KL fill over the 20160 reps of (1, 1, 2, 1, 1, 1, 1) '
         'is over its limit of 82587960 bytes\n'),
        (('mult', '--n', '14', '--k', '7', '--x', IDENTITY_14, '--engine',
          'kl', '--n-max', '14'),
         warning(14) + 'error: the KL fill over the 3432 reps of (7, 7) is '
         'over its limit of 82587960 bytes\n'),
    ):
        proc = run_cli(*args)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, '', stderr), args
    # and so is every integer argument, refused by the parser under the
    # usage text
    for args, stderr in (
        (('classify', '--n', '0_4', '--parabolic', 'max:2'),
         "kostantpv classify: error: argument --n: invalid decimal value: "
         "'0_4'"),
        (('mult', '--n', '٤', '--k', '2', '--x', '1324'),
         "kostantpv mult: error: argument --n: invalid decimal value: '٤'"),
        (('mult', '--n', '4', '--k', '+2', '--x', '1324'),
         "kostantpv mult: error: argument --k: invalid decimal value: '+2'"),
        (('socle', '--n', '4', '--w', '1234', '--n-max', '08'),
         "kostantpv socle: error: argument --n-max: invalid decimal value: "
         "'08'"),
        (('selftest', '--n-max', ' 3'),
         "kostantpv selftest: error: argument --n-max: invalid decimal "
         "value: ' 3'"),
    ):
        proc = run_cli(*args)
        assert (proc.returncode, proc.stdout, proc.stderr.splitlines()[-1]
                ) == (2, '', stderr), args


def test_cup_table_ceiling():
    # classify max:k needs every factor and refuses past the ceiling
    proc = run_cli('classify', '--n', '19', '--parabolic', 'max:9',
                   '--n-max', '19')
    assert proc.returncode == 2
    assert ('error: the cup engine lists all 19319845 composition factors'
            in proc.stderr)
    assert proc.stdout == ''
    # mult lists one row, under the ceiling on the row alone; the
    # digest was recorded from the per-pair engine that preceded the
    # block table
    proc = run_cli('mult', '--n', '18', '--k', '7', '--engine', 'cup',
                   '--x', '[' + ','.join(map(str, range(1, 19))) + ']',
                   '--format', 'tsv', '--n-max', '18')
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        'dea6bb0b69c87f2549ddd0c869b9a800f9c2b0331dd11497b4638279c290f709')


def _bracket(window):
    return '[' + ','.join(map(str, window)) + ']'


# x at max:k of n whose word is (^v)^k followed by v^(n - 2k): the
# wedges carry 1..k, the vees k + 1..n
def _alternating(n, k):
    return _bracket([v for p in range(k) for v in (p + 1, k + p + 1)]
                    + list(range(2 * k + 1, n + 1)))


def test_cup_block_ceiling(monkeypatch, capsys):
    # mult lists its one row from the word of x, and no block: past
    # every block the word ceiling used to admit, a row of few factors
    # is answered, and the alternating row is refused before any output
    from kostantpv import cup_diagrams

    def no_listing(ctx):
        raise AssertionError('listed the words of the block')

    monkeypatch.setattr(cup_diagrams, '_words', no_listing)
    args = ['mult', '--n', '30', '--k', '15', '--engine', 'cup',
            '--n-max', '30', '--x']
    assert cli.main(args + [_bracket(range(1, 31))]) == 0
    out, _ = capsys.readouterr()
    assert json.loads(out)['rows'][0] == {'degree': 0,
                                          'y': _bracket(range(1, 31))}
    assert cli.main(args + [_alternating(30, 15)]) == 2
    out, err = capsys.readouterr()
    assert out == ''
    assert ('error: the cup engine lists over its limit of '
            f'{cup_diagrams.MAX_ROW_FACTORS} composition factors at '
            + '^v' * 15) in err


def test_cup_row_ceiling_golden():
    # the largest row the ceiling admits, (^v)^10 at (20, 10), with
    # MAX_ROW_FACTORS factors; the digest was recorded from the engine
    # that listed the whole block for one row
    args = ('mult', '--n', '20', '--k', '10', '--x', _alternating(20, 10),
            '--engine', 'cup', '--n-max', '20')
    assert _stdout_digest(args) == (
        '7bee8c17914e54499bf0705b55f5908108d3b7eeda224c6ecaad99ac2b614123')


def test_cup_rows_keep_no_block(monkeypatch, capsys):
    # a row of the largest blocks lists none of the block's words
    from kostantpv import cup_diagrams

    def unlisted(ctx):
        raise AssertionError('a cup row listed the words of its block')

    monkeypatch.setattr(cup_diagrams, '_words', unlisted)
    for n, k in ((20, 10), (20, 9), (19, 9), (20, 11)):
        assert cli.main(['mult', '--n', str(n), '--k', str(k), '--x',
                         _bracket(range(1, n + 1)), '--engine', 'cup',
                         '--n-max', str(n)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize('x', [_alternating(13, 6),
                               _bracket([*range(7, 14), *range(1, 7)])],
                         ids=['alternating', 'antidominant'])
def test_cup_rows_agree_with_kl_at_the_largest_fill(x):
    # the KL oracle at the largest size mult --engine both serves
    code, out = run_main('mult', '--n', '13', '--k', '6', '--x', x,
                         '--engine', 'both', '--n-max', '13')
    assert code == 0 and json.loads(out)['agree'] is True


def test_a_refused_table_caches_no_block(monkeypatch, capsys):
    # classify max:k counts the factors before it lists the block's words
    from kostantpv import cup_diagrams

    def unlisted(ctx):
        raise AssertionError('listed a block past the ceiling')

    monkeypatch.setattr(cup_diagrams, '_words', unlisted)
    for n, k in ((19, 9), (20, 10)):
        assert cli.main(['classify', '--n', str(n), '--parabolic',
                         f'max:{k}', '--n-max', str(n)]) == 2
    out, err = capsys.readouterr()
    assert out == '' and err.count('error: the cup engine lists all') == 2


def test_a_refused_kl_fill_caches_no_thinness(capsys):
    # the fill's bound is checked from the parts, before any entry of
    # _thin (or of the max:k table) is made
    from kostantpv import compositions

    before = compositions._thin.cache_info().currsize
    tables = len(klcells._HELD_TABLES)
    for args in (
        ['classify', '--n', '8', '--parabolic', 'min:3'],
        ['classify', '--n', '7', '--parabolic', 'comp:1,1,1,1,1,1,1'],
        ['mult', '--n', '14', '--k', '7', '--x', IDENTITY_14,
         '--engine', 'both', '--n-max', '14'],
    ):
        assert cli.main(args) == 2, args
    out, err = capsys.readouterr()
    assert out == '' and err.count('error: the KL fill over the') == 3
    assert compositions._thin.cache_info().currsize == before
    assert len(klcells._HELD_TABLES) == tables


def test_kl_tables_held_stay_within_one_fill(capsys):
    # the tables at (13, 6) and (13, 7) take 64.8 MB each, so together
    # they are over MAX_FILL_BYTES and the first is dropped
    klcells._HELD_TABLES.clear()
    x = '[' + ','.join(map(str, range(1, 14))) + ']'
    for k in (6, 7):
        assert cli.main(['mult', '--n', '13', '--k', str(k), '--x', x,
                         '--engine', 'kl', '--n-max', '13']) == 0
    capsys.readouterr()
    assert list(klcells._HELD_TABLES) == [(7, 6)]  # max:7 at n = 13
    klcells._HELD_TABLES.clear()


def test_cells_ceiling():
    proc = run_cli('cells', '--n', '10', '--n-max', '10')
    assert proc.returncode == 2
    assert 'error: cells keeps a row' in proc.stderr
    assert proc.stdout == ''


def test_socle_ceiling():
    # refused on n alone, before the window is read
    proc = run_cli('socle', '--n', str(cli.MAX_SOCLE_N + 1), '--w', 'x',
                   '--n-max', str(cli.MAX_SOCLE_N + 1))
    assert proc.returncode == 2
    assert 'error: socle lists' in proc.stderr
    assert proc.stdout == ''
    n = cli.MAX_SOCLE_N
    proc = run_cli('socle', '--n', str(n), '--w', _bracket(range(1, n + 1)),
                   '--n-max', str(n), '--format', 'tsv')
    assert proc.returncode == 0
    assert proc.stdout == '# generator\n'


def test_n_max_override_warns():
    proc = run_cli('classify', '--n', '4', '--parabolic', 'max:2',
                   '--n-max', '9')
    assert proc.returncode == 0
    assert 'warning' in proc.stderr


@pytest.mark.parametrize('fmt, want', [
    ('tsv',
     '9e30bd7f02bf415d81adefd8a50d3e409ad6b34835a768b31f0061803d30e34d'),
    ('json',
     'f08ac88df5c3fd6ebce4354b6af4f88e0bf0865eebf3f4e00f1a20ed146128f6'),
])
def test_classify_max_past_the_goldens(fmt, want):
    # the goldens stop at n = 10; (12, 6) has 924 rows, more than one
    # chunk of the streamed output, and its digests were recorded from
    # the dense-table engine with json.dumps
    args = ('classify', '--n', '12', '--parabolic', 'max:6', '--format', fmt,
            '--n-max', '12')
    assert _stdout_digest(args) == want


def test_mult_cup_engine_allows_large_n():
    proc = run_cli('mult', '--n', '7', '--k', '3', '--x', '1234567',
                   '--engine', 'cup')
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)['rows']
    assert rows and rows[0]['y'] == '1234567'


def _modules_after(code):
    """The names in sys.modules of a fresh interpreter that ran code."""
    proc = subprocess.run(
        [sys.executable, '-c', code + '\nimport json, sys\n'
         'print(json.dumps(sorted(sys.modules)), file=sys.stderr)'],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


def test_cold_kl_request_leaves_out_numpy_ma():
    # and numpy itself: the KL fill is plain Python
    loaded = _modules_after(
        'from kostantpv.cli import main\n'
        "assert main(['classify', '--n', '6', '--parabolic', 'min:3']) == 0")
    assert 'kostantpv.klcells' in loaded
    assert 'numpy' not in loaded


# The kostantpv modules every command loads: the package itself loads
# permutations.
BASE = {'kostantpv', 'kostantpv.cli', 'kostantpv.permutations'}
KL_STACK = {'kostantpv.klcells', 'kostantpv._kernels', 'kostantpv.tableaux'}


def test_cli_import_leaves_out_checks_and_numpy_ma():
    # and every other engine, and numpy itself
    loaded = _modules_after('import kostantpv.cli')
    assert {m for m in loaded if m.startswith('kostantpv')} == BASE
    assert 'numpy' not in loaded


@pytest.mark.parametrize('args, engine', [
    (('classify', '--n', '5', '--parabolic', 'max:2'),
     {'kostantpv.cup_diagrams'}),
    (('classify', '--n', '5', '--parabolic', 'min:2'),
     KL_STACK | {'kostantpv.compositions', 'kostantpv.minimal_parabolic'}),
    (('classify', '--n', '5', '--parabolic', 'comp:2,1,2'),
     KL_STACK | {'kostantpv.compositions'}),
    (('mult', '--n', '4', '--k', '2', '--x', '1234'),
     KL_STACK | {'kostantpv.cup_diagrams'}),
    (('mult', '--n', '4', '--k', '2', '--x', '1234', '--engine', 'kl'),
     KL_STACK | {'kostantpv.cup_diagrams'}),
    (('mult', '--n', '4', '--k', '2', '--x', '1234', '--engine', 'cup'),
     {'kostantpv.cup_diagrams'}),
    (('socle', '--n', '5', '--w', '35142'), {'kostantpv.bigrassmannian'}),
    (('cells', '--n', '4'), {'kostantpv.tableaux'}),
    (('selftest', '--n-max', '8'),
     KL_STACK | {'kostantpv.checks', 'kostantpv.bigrassmannian',
                 'kostantpv.compositions', 'kostantpv.cup_diagrams',
                 'kostantpv.laurent', 'kostantpv.minimal_parabolic'}),
], ids=['max', 'min', 'comp', 'mult', 'mult-kl', 'mult-cup', 'socle',
        'cells', 'selftest'])
def test_each_command_loads_only_its_engine(args, engine):
    loaded = _modules_after(
        'import contextlib, io\n'
        'from kostantpv.cli import main\n'
        'with contextlib.redirect_stdout(io.StringIO()):\n'
        f'    assert main({list(args)!r}) == 0')
    assert {m for m in loaded if m.startswith('kostantpv')} == BASE | engine
    # every degree a command prints is an int: only selftest's oracles
    # take Laurent polynomials
    assert ('kostantpv.laurent' in loaded) == (args[0] == 'selftest')
    # the whole-group index is the tests' alone
    assert 'kostantpv.groupindex' not in loaded
    assert 'numpy' not in loaded


def test_min_reads_the_thinness_of_the_matching_comp(monkeypatch):
    from kostantpv import compositions, klcells

    min_args = ('classify', '--n', '5', '--parabolic', 'min:2',
                '--format', 'tsv')
    compositions._thin.cache_clear()
    assert run_main('classify', '--n', '5', '--parabolic', 'comp:1,2,1,1',
                    '--format', 'tsv')[0] == 0

    def refuse(parts):
        raise AssertionError('refilled the table of a cached Levi')

    monkeypatch.setattr(klcells, 'parabolic_table', refuse)
    monkeypatch.setattr(compositions, 'parabolic_table', refuse)
    assert _stdout_digest(min_args) == _goldens()[' '.join(min_args)]


def test_repeat_requests_run_no_import_statement(monkeypatch):
    # every command reaches its engines through the cached loader, so
    # once they are loaded a request imports nothing.
    import builtins

    requests = (
        ('classify', '--n', '6', '--parabolic', 'max:3', '--format', 'tsv'),
        ('classify', '--n', '5', '--parabolic', 'min:2', '--format', 'tsv'),
        ('classify', '--n', '5', '--parabolic', 'comp:2,1,2',
         '--format', 'json'),
        ('cells', '--n', '5', '--format', 'tsv'),
        ('mult', '--n', '6', '--k', '3', '--x', '412356', '--engine', 'both',
         '--format', 'json'),
        ('socle', '--n', '6', '--w', '134625', '--format', 'json'),
    )
    for args in requests:
        _stdout_digest(args)
    imported = []
    real_import = builtins.__import__

    def counting_import(name, *args, **kwargs):
        imported.append(name)
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, '__import__', counting_import)
    digests = [_stdout_digest(args) for args in requests]
    monkeypatch.undo()
    assert imported == []
    want = _goldens()
    assert digests == [want[' '.join(args)] for args in requests]


def test_selftest_small():
    proc = run_cli('selftest', '--n-max', '3')
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 13
    assert all(line.startswith('ok') for line in lines[:-1])
    assert lines[-1].startswith('12/12 checks passed')
    # one timing line per check on stderr, in scoreboard order
    timings = proc.stderr.splitlines()
    assert [t.partition(':')[0] for t in timings] == \
        [name for name, _ in checks.ALL_CHECKS]
    assert all(re.fullmatch(r'[a-z-]+: \d+\.\d{3} s', t) for t in timings)


# Byte-exact stdout of the maximal-parabolic and Kazhdan-Lusztig paths
# and of socle and cells, as sha256 digests.  The maximal-parabolic ones
# were recorded before the cup engine moved to the index-space block
# table, the KL ones before the parabolic alternating sum moved to index
# space, the socle and cells ones before the second kernel path and
# the grading and cell-side switches were removed, the selftest ones before
# four checks moved onto the production tables, and cells at n = 8,
# comp:9,1 at n = 10 before cells and classify min:/comp:
# were encoded from texts.  Regenerate (only for a
# deliberate output change) with
#   PYTHONPATH=src python tests/test_cli.py

GOLDENS = pathlib.Path(__file__).with_name('cli_goldens.json')


def _three_reps(n, k):
    """The first, middle and last shortest rep of max:k."""
    from kostantpv.cup_diagrams import MaxParContext, shortest_reps

    reps = shortest_reps(MaxParContext(n, k))
    return list(dict.fromkeys((reps[0], reps[len(reps) // 2], reps[-1])))


def max_golden_invocations():
    """Every classify max:k at n = 2..8 and cup multiplicities of the
    first, middle and last rep of each block, in both formats, plus
    bracket-window cases at n = 10."""
    out = []
    for fmt in ('json', 'tsv'):
        for n in range(2, 9):
            for k in range(1, n):
                out.append(('classify', '--n', str(n), '--parabolic',
                            f'max:{k}', '--format', fmt))
                for x in _three_reps(n, k):
                    out.append(('mult', '--n', str(n), '--k', str(k),
                                '--x', str(x), '--engine', 'cup',
                                '--format', fmt))
        out.append(('classify', '--n', '10', '--parabolic', 'max:2',
                    '--format', fmt, '--n-max', '10'))
        for x in ('[1,2,3,4,5,6,7,8,9,10]', '[1,6,2,7,3,8,4,9,5,10]',
                  '[6,7,8,9,10,1,2,3,4,5]'):
            out.append(('mult', '--n', '10', '--k', '5', '--x', x,
                        '--engine', 'cup', '--format', fmt,
                        '--n-max', '10'))
    return out


def _proper_compositions(n):
    """Compositions of n with more than one and fewer than n parts."""
    out = []
    for cuts in itertools.product((False, True), repeat=n - 1):
        parts = [1]
        for cut in cuts:
            if cut:
                parts.append(1)
            else:
                parts[-1] += 1
        if 1 < len(parts) < n:
            out.append(','.join(map(str, parts)))
    return out


def kl_golden_invocations():
    """Every classify min:k at n = 2..6, every classify comp: with
    1 < parts < n at n = 3..6, and KL and two-engine multiplicities of
    the first, middle and last rep of each max:k block at n <= 6, in
    both formats."""
    out = []
    for fmt in ('json', 'tsv'):
        for n in range(2, 7):
            for k in range(1, n):
                out.append(('classify', '--n', str(n), '--parabolic',
                            f'min:{k}', '--format', fmt))
            for mu in _proper_compositions(n):
                out.append(('classify', '--n', str(n), '--parabolic',
                            f'comp:{mu}', '--format', fmt))
            for k in range(1, n):
                for x in _three_reps(n, k):
                    for engine in ('kl', 'both'):
                        out.append(('mult', '--n', str(n), '--k', str(k),
                                    '--x', str(x), '--engine', engine,
                                    '--format', fmt))
    return out


WIDE_MULT = ((7, 3), (8, 4), (10, 5), (12, 6))


def wide_kl_golden_invocations():
    """Past n = 6, where the KL paths used to stop: every classify min:k
    at n = 7 and classify comp:2,2,3, comp:3,4 (n = 7), comp:4,4 (n = 8)
    and comp:9,1 (n = 10, bracket windows), in both formats, and two-engine
    multiplicities of the middle rep of max:k at WIDE_MULT.  The min:k
    digests were recorded from the minimal theorem's verdicts
    (is_kostant_positive_minimal)."""
    out = []
    for fmt in ('json', 'tsv'):
        for k in range(1, 7):
            out.append(('classify', '--n', '7', '--parabolic', f'min:{k}',
                        '--format', fmt))
        for n, mu in ((7, '2,2,3'), (7, '3,4'), (8, '4,4')):
            out.append(('classify', '--n', str(n), '--parabolic',
                        f'comp:{mu}', '--format', fmt))
        out.append(('classify', '--n', '10', '--parabolic', 'comp:9,1',
                    '--format', fmt, '--n-max', '10'))
    for n, k in WIDE_MULT:
        reps = _three_reps(n, k)
        out.append(('mult', '--n', str(n), '--k', str(k),
                    '--x', str(reps[len(reps) // 2]), '--engine', 'both',
                    '--format', 'tsv')
                   + (('--n-max', str(n)) if n > 8 else ()))
    return out


def socle_cells_golden_invocations():
    """cells at n = 2..8, and socle of every w at n <= 4, of ten seeded
    w per n at n = 5..8, and of w_0 and two seeded w at n = 9 (digit
    windows) and n = 10 (bracket windows), in both formats."""
    out = []
    for fmt in ('json', 'tsv'):
        for n in range(2, 9):
            out.append(('cells', '--n', str(n), '--format', fmt))
        for n in range(1, 9):
            if n <= 4:
                ws = [str(w) for w in enumerate_group(n)]
            else:
                rng = random.Random(n)
                ws = [str(Permutation(rng.sample(range(1, n + 1), n)))
                      for _ in range(10)]
            for w in ws:
                out.append(('socle', '--n', str(n), '--w', w,
                            '--format', fmt))
        for n in (9, 10):
            rng = random.Random(n)
            ws = [str(longest_element(n))] + [
                str(Permutation(rng.sample(range(1, n + 1), n)))
                for _ in range(2)]
            for w in ws:
                out.append(('socle', '--n', str(n), '--w', w,
                            '--format', fmt, '--n-max', str(n)))
    return out


def selftest_golden_invocations():
    """The selftest scoreboard at every n_max from 2 to 8."""
    return [('selftest', '--n-max', str(n)) for n in range(2, 9)]


def golden_invocations():
    return (max_golden_invocations() + kl_golden_invocations()
            + wide_kl_golden_invocations() + socle_cells_golden_invocations()
            + selftest_golden_invocations())


def _stdout_digest(args):
    with contextlib.redirect_stderr(io.StringIO()):
        code, out = run_main(*args)
    assert code == 0, args
    return hashlib.sha256(out.encode()).hexdigest()


def _goldens():
    return json.loads(GOLDENS.read_text())


def test_golden_keys_cover_invocations():
    assert sorted(_goldens()) == sorted(
        ' '.join(a) for a in golden_invocations())


def test_max_parabolic_goldens():
    want = _goldens()
    for args in max_golden_invocations():
        assert _stdout_digest(args) == want[' '.join(args)], args


def test_kl_path_goldens():
    want = _goldens()
    for args in kl_golden_invocations():
        assert _stdout_digest(args) == want[' '.join(args)], args


def test_wide_kl_goldens():
    want = _goldens()
    for args in wide_kl_golden_invocations():
        assert _stdout_digest(args) == want[' '.join(args)], args


def test_socle_cells_goldens():
    want = _goldens()
    for args in socle_cells_golden_invocations():
        assert _stdout_digest(args) == want[' '.join(args)], args


def test_selftest_goldens():
    want = _goldens()
    for args in selftest_golden_invocations():
        assert _stdout_digest(args) == want[' '.join(args)], args


def test_socle_builds_no_permutation_per_generator(monkeypatch):
    # socle writes each generator's text from its window
    from kostantpv import bigrassmannian

    def refuse(window):
        raise AssertionError('socle built a Permutation for a generator')

    monkeypatch.setattr(bigrassmannian, '_raw', refuse)
    want = _goldens()
    requests = [args for args in socle_cells_golden_invocations()
                if args[0] == 'socle']
    assert len(requests) > 100
    for args in requests:
        assert _stdout_digest(args) == want[' '.join(args)], args


def test_kl_paths_never_build_a_whole_group_table(monkeypatch):
    from kostantpv import compositions, klcells

    def refuse(n):
        raise AssertionError('a KL request built kl_table')

    monkeypatch.setattr(klcells, 'kl_table', refuse)
    klcells._HELD_TABLES.clear()
    compositions._thin.cache_clear()
    want = _goldens()
    for args in (
        ('classify', '--n', '6', '--parabolic', 'min:3', '--format', 'json'),
        ('classify', '--n', '6', '--parabolic', 'comp:1,2,1,2',
         '--format', 'tsv'),
        ('mult', '--n', '6', '--k', '3', '--x', '412356', '--engine', 'both',
         '--format', 'json'),
    ):
        assert _stdout_digest(args) == want[' '.join(args)], args


def test_kl_paths_never_build_a_group_index(monkeypatch):
    # classify min:/comp: and mult --engine kl|both index the shortest
    # reps by their windows; only selftest builds GroupIndex
    from kostantpv import compositions, groupindex

    def refuse(self, n):
        raise AssertionError(f'a KL request built GroupIndex({n})')

    monkeypatch.setattr(groupindex.GroupIndex, '__init__', refuse)
    groupindex.group_index.cache_clear()
    klcells._HELD_TABLES.clear()
    compositions._thin.cache_clear()
    want = _goldens()
    for args in kl_golden_invocations():
        assert _stdout_digest(args) == want[' '.join(args)], args


def test_selftest_never_builds_a_group_index(monkeypatch):
    # the checks index S_n by klcells.whole_group, as the KL table is
    from kostantpv import groupindex

    def refuse(self, n):
        raise AssertionError(f'selftest built GroupIndex({n})')

    monkeypatch.setattr(groupindex.GroupIndex, '__init__', refuse)
    groupindex.group_index.cache_clear()
    args = ('selftest', '--n-max', '8')
    assert _stdout_digest(args) == _goldens()[' '.join(args)]


def test_one_parser_serves_a_bad_request_then_a_good_one():
    args = ('classify', '--n', '5', '--parabolic', 'min:2', '--format', 'tsv')
    with contextlib.redirect_stderr(io.StringIO()):
        with pytest.raises(SystemExit) as exc:
            cli.main(['classify', '--n', 'five', '--parabolic', 'min:2'])
    assert exc.value.code == 2
    assert _stdout_digest(args) == _goldens()[' '.join(args)]
    assert cli._build_parser() is cli._build_parser()


# sha256 of `kostantpv [command] --help` at 80 columns, as Python 3.11's
# argparse lays it out, recorded while each command's arguments were
# still written out one add_argument call at a time
HELP_DIGESTS = {
    '': '47fec3129f93c43fe70f73513ee135a83835e39439cd8ba8e5b24d69a0badc74',
    'classify':
        'f055693fad3ff4030f31ea7dd8ac5ff78d043e506a65b8aee2f1e454f23c4bb4',
    'mult': '70ec6b6d31ab532cb13736fda9ce98832b52b7c35508ece2b5f0f8817ac4783f',
    'socle': '195244c5e0e77a0d2bad1f37adc7616d288ea1ea4c20ea53919bb2d312a3cb29',
    'cells': '2f706304b04b65cb193cd8ad70b973b5dbd67e8dfe39fcf6f38fba6d8229c4aa',
    'selftest':
        'b6e94a6aae190a5712e40b8a2a6666e170d5eefe087a0e16cadece7c9dff4844',
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the digests are of Python 3.11's argparse layout")
def test_help_texts_keep_every_argument_in_order():
    for command, want in HELP_DIGESTS.items():
        proc = subprocess.run(
            [sys.executable, '-m', 'kostantpv.cli', *filter(None, [command]),
             '--help'],
            capture_output=True, text=True,
            env={**os.environ, 'COLUMNS': '80'},
        )
        assert (proc.returncode, proc.stderr) == (0, ''), command
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == want, (
            command)


def test_kl_requests_build_one_coset_index_per_fill(monkeypatch):
    # classify min:/comp: and mult --engine kl read the windows and
    # lengths of the table's own index: every coset_index call lists its
    # windows through klcells.coset_windows
    from kostantpv import _kernels, compositions

    real_windows, real_fill = klcells.coset_windows, _kernels.kl_fill
    index, fills = [], []

    def listing(parts):
        index.append(parts)
        return real_windows(parts)

    def fill(*args):
        fills.append(len(args[0]))
        return real_fill(*args)

    monkeypatch.setattr(klcells, 'coset_windows', listing)
    monkeypatch.setattr(_kernels, 'kl_fill', fill)
    klcells._HELD_TABLES.clear()
    compositions._thin.cache_clear()
    want = _goldens()
    requests = [args for args in kl_golden_invocations()
                if args[0] == 'classify' or 'kl' in args]
    for args in requests:
        assert _stdout_digest(args) == want[' '.join(args)], args
    assert len(index) == len(fills) > 0


def test_kl_mult_builds_no_permutation_from_a_rep(monkeypatch):
    # the rows of mult --engine kl|both are labelled from the rep
    # windows and get their degrees from the lengths of the table
    def refuse(*args):
        raise AssertionError('mult built a Permutation from a rep window')

    monkeypatch.setattr(cli, 'Permutation', refuse)
    klcells._HELD_TABLES.clear()
    want = _goldens()
    requests = [args for args in kl_golden_invocations()
                + wide_kl_golden_invocations() if args[0] == 'mult']
    assert {args[args.index('--engine') + 1] for args in requests} == \
        {'kl', 'both'}
    for args in requests:
        assert _stdout_digest(args) == want[' '.join(args)], args


def test_classify_comp_past_the_recursion_limit():
    # comp:1200 has one rep, the identity; listing it and the standard
    # tableaux of its cell is 1,200 levels deep, past the default
    # recursion limit of 1,000
    n = 1200
    with contextlib.redirect_stderr(io.StringIO()):
        code, out = run_main('classify', '--n', str(n), '--parabolic',
                             f'comp:{n}', '--n-max', str(n), '--format',
                             'tsv')
    assert code == 0
    identity = '[' + ','.join(map(str, range(1, n + 1))) + ']'
    assert out.splitlines() == [
        '# w\tword\tverdict\tthin\ta_value\tmultiplicities',
        f'{identity}\t-\tPositive\ttrue\t-\t-',
    ]


if __name__ == '__main__':
    GOLDENS.write_text(json.dumps(
        {' '.join(a): _stdout_digest(a)
         for a in golden_invocations()},
        indent=1, sort_keys=True) + '\n')


def test_kl_mult_raises_on_a_grade_of_more_than_one_term(monkeypatch):
    # a maximal parabolic's multiplicities are single powers of v, so a
    # table entry 1 + q is a fault of the fill: mult raises, writes
    # nothing and is no usage error, and cross-oracle reports it
    windows, lengths, S = klcells.parabolic_table((2, 2))
    cols = [dict(col) for col in S]
    x, y = windows.index((1, 3, 2, 4)), windows.index((3, 4, 1, 2))
    assert cols[y][x] == 1 << BITS  # q
    cols[y][x] |= 1
    table = windows, lengths, type(S)(cols, S.ncoef)
    monkeypatch.setattr(klcells, 'held_table', lambda parts: table)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(
            ArithmeticError, match=r'\[1, 1\] are no single power of q'):
        cli.main(['mult', '--n', '4', '--k', '2', '--x', '1324',
                  '--engine', 'kl'])
    assert out.getvalue() == ''
    real = checks.parabolic_table
    monkeypatch.setattr(checks, 'parabolic_table', lambda parts: (
        table if parts == (2, 2) else real(parts)))
    ok, detail = dict(checks.ALL_CHECKS)['cross-oracle'](4)
    assert not ok
    assert detail.startswith('(4,2): q-coefficients [1, 1]'), detail
