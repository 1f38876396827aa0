"""Exit codes, schema stability, and byte-for-byte determinism."""

import contextlib
import hashlib
import io
import itertools
import json
import math
import pathlib
import random
import re
import subprocess
import sys

import pytest

from kostantpv import checks, cli
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


def test_mult_disagreement_exits_one(monkeypatch):
    monkeypatch.setattr(cli, '_kl_mult_rows', lambda ctx, x: [])
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
        # past the KL fill's bound: 20,160 and 5,040 reps
        ('classify', '--n', '8', '--parabolic', 'min:3'),
        ('classify', '--n', '7', '--parabolic', 'comp:1,1,1,1,1,1,1'),
        ('mult', '--n', '4', '--k', '2', '--x', '2134'),
        ('mult', '--n', '4', '--k', '2', '--x', '213'),
        ('selftest', '--n-max', '9'),
    ]
    for args in cases:
        proc = run_cli(*args)
        assert proc.returncode == 2, args
        assert proc.stderr.startswith('error:'), args
        assert proc.stdout == ''
    # the 3,432 reps of max:7 at n = 14; the raised --n-max warns first
    proc = run_cli('mult', '--n', '14', '--k', '7', '--x', IDENTITY_14,
                   '--engine', 'kl', '--n-max', '14')
    assert proc.returncode == 2
    warning, error = proc.stderr.splitlines()
    assert warning.startswith('warning:') and error.startswith('error:')
    assert proc.stdout == ''


def test_cup_table_ceiling():
    # classify max:k needs every factor and refuses past the ceiling
    proc = run_cli('classify', '--n', '19', '--parabolic', 'max:9',
                   '--n-max', '19')
    assert proc.returncode == 2
    assert ('error: the cup engine lists all 19319845 composition factors'
            in proc.stderr)
    assert proc.stdout == ''
    # mult reads one row, under the ceiling on the block alone;
    # the digest was recorded from the per-pair engine that preceded
    # the block table
    proc = run_cli('mult', '--n', '18', '--k', '7', '--engine', 'cup',
                   '--x', '[' + ','.join(map(str, range(1, 19))) + ']',
                   '--format', 'tsv', '--n-max', '18')
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        'dea6bb0b69c87f2549ddd0c869b9a800f9c2b0331dd11497b4638279c290f709')


def test_cup_block_ceiling(monkeypatch, capsys):
    # mult refuses a block with too many words before listing one
    from kostantpv import cup_diagrams

    assert math.comb(20, 10) <= cup_diagrams.MAX_BLOCK_WORDS \
        < math.comb(21, 8)

    def no_listing(ctx):
        raise AssertionError('listed the words past the ceiling')

    monkeypatch.setattr(cup_diagrams, '_words', no_listing)
    code = cli.main(['mult', '--n', '30', '--k', '15', '--engine', 'cup',
                     '--x', '[' + ','.join(map(str, range(1, 31))) + ']',
                     '--n-max', '30'])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ''
    assert 'error: the cup engine lists all C(30,15)' in err


def test_a_refused_table_caches_no_block(capsys):
    # classify max:k counts the factors before it builds the block
    from kostantpv import cup_diagrams

    cup_diagrams.block.cache_clear()
    for n, k in ((19, 9), (20, 10)):
        assert cli.main(['classify', '--n', str(n), '--parabolic',
                         f'max:{k}', '--n-max', str(n)]) == 2
    out, err = capsys.readouterr()
    assert out == '' and err.count('error: the cup engine lists all') == 2
    assert cup_diagrams.block.cache_info().currsize == 0


def test_a_refused_kl_fill_caches_no_thinness(capsys):
    # the fill's bound is checked from the parts, before any entry of
    # _thin (or of the max:k table) is made
    from kostantpv import compositions

    before = compositions._thin.cache_info().currsize
    tables = len(cli._MAX_TABLES)
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
    assert len(cli._MAX_TABLES) == tables


def test_kl_tables_held_stay_within_one_fill(capsys):
    # the tables at (13, 6) and (13, 7) take 64.8 MB each, so together
    # they are over MAX_FILL_BYTES and the first is dropped
    cli._MAX_TABLES.clear()
    x = '[' + ','.join(map(str, range(1, 14))) + ']'
    for k in (6, 7):
        assert cli.main(['mult', '--n', '13', '--k', str(k), '--x', x,
                         '--engine', 'kl', '--n-max', '13']) == 0
    capsys.readouterr()
    assert [(ctx.n, ctx.k) for ctx in cli._MAX_TABLES] == [(13, 7)]
    cli._MAX_TABLES.clear()


def test_cells_ceiling():
    proc = run_cli('cells', '--n', '10', '--n-max', '10')
    assert proc.returncode == 2
    assert 'error: cells keeps a row' in proc.stderr
    assert proc.stdout == ''


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
    loaded = _modules_after(
        'from kostantpv.cli import main\n'
        "assert main(['classify', '--n', '6', '--parabolic', 'min:3']) == 0")
    assert 'kostantpv.klcells' in loaded
    assert 'numpy.ma' not in loaded


# The kostantpv modules every command loads: the package itself loads
# permutations.
BASE = {'kostantpv', 'kostantpv.cli', 'kostantpv.permutations'}
KL_STACK = {'kostantpv.klcells', 'kostantpv.groupindex', 'kostantpv._kernels',
            'kostantpv.tableaux', 'kostantpv.laurent'}


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
    (('mult', '--n', '4', '--k', '2', '--x', '1234', '--engine', 'cup'),
     {'kostantpv.cup_diagrams'}),
    (('socle', '--n', '5', '--w', '35142'), {'kostantpv.bigrassmannian'}),
    (('cells', '--n', '4'), {'kostantpv.tableaux'}),
], ids=['max', 'min', 'comp', 'mult', 'mult-cup', 'socle', 'cells'])
def test_each_command_loads_only_its_engine(args, engine):
    loaded = _modules_after(
        'import contextlib, io\n'
        'from kostantpv.cli import main\n'
        'with contextlib.redirect_stdout(io.StringIO()):\n'
        f'    assert main({list(args)!r}) == 0')
    assert {m for m in loaded if m.startswith('kostantpv')} == BASE | engine
    if args[0] in ('socle', 'cells') or engine == {'kostantpv.cup_diagrams'}:
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
    # classify max:k, mult and socle reach their engines through cached
    # loaders, so once the engine is loaded a request imports nothing.
    import builtins

    requests = (
        ('classify', '--n', '6', '--parabolic', 'max:3', '--format', 'tsv'),
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
# comp:9,1 at n = 10 and comp:1, 2 before cells and classify min:/comp:
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
    and comp:9,1 (n = 10, bracket windows), in both formats, comp:1, 2
    as typed (the context echoes the text unchanged), and two-engine
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
    out.append(('classify', '--n', '3', '--parabolic', 'comp:1, 2',
                '--format', 'json'))
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


def test_kl_paths_never_build_a_whole_group_table(monkeypatch):
    from kostantpv import compositions, klcells

    def refuse(n):
        raise AssertionError('a KL request built kl_table')

    monkeypatch.setattr(klcells, 'kl_table', refuse)
    cli._MAX_TABLES.clear()
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
    cli._MAX_TABLES.clear()
    compositions._thin.cache_clear()
    compositions._quotient_cell.cache_clear()
    want = _goldens()
    for args in kl_golden_invocations():
        assert _stdout_digest(args) == want[' '.join(args)], args


def test_one_parser_serves_a_bad_request_then_a_good_one():
    args = ('classify', '--n', '5', '--parabolic', 'min:2', '--format', 'tsv')
    with contextlib.redirect_stderr(io.StringIO()):
        with pytest.raises(SystemExit) as exc:
            cli.main(['classify', '--n', 'five', '--parabolic', 'min:2'])
    assert exc.value.code == 2
    assert _stdout_digest(args) == _goldens()[' '.join(args)]
    assert cli._build_parser() is cli._build_parser()


if __name__ == '__main__':
    GOLDENS.write_text(json.dumps(
        {' '.join(a): _stdout_digest(a)
         for a in golden_invocations()},
        indent=1, sort_keys=True) + '\n')
