"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / 'src'))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL = [['cells', '--n', '4', '--format', 'tsv'],
         ['cells', '--n', '5', '--format', 'json']]


def corrupted(goldens, argv):
    bad = dict(goldens)
    k = workloads.key(argv)
    bad[k] = ('0' if bad[k][0] != '0' else '1') + bad[k][1:]
    return bad


def test_corrupted_golden_counts_as_failed_cold():
    goldens = corrupted(workloads.load_goldens(), SMALL[0])
    result = run.cold_pass(SMALL, goldens, seconds=60, trace=False)
    assert len(result.results) == 2
    assert result.failed == 1
    assert result.results[0][2] == 'stdout differs from the golden'
    assert result.results[1][2] is None


def test_corrupted_golden_counts_as_failed_in_session():
    from kostantpv.cli import main
    goldens = corrupted(workloads.load_goldens(), SMALL[1])
    results, _ = session.serve(main, SMALL, goldens, seconds=60)
    assert [r[2] is None for r in results] == [True, False]


def test_disagreeing_engines_fail():
    argv = workloads.mult(3, 1, (1, 2, 3), 'json')
    out = b'{\n  "agree": false\n}\n'
    assert workloads.verdict(argv, 0, out, {}) == 'engines disagree'


@pytest.mark.parametrize('name', workloads.WORKLOADS)
def test_passes_are_seeded_distinct_and_golden(name):
    goldens = workloads.load_goldens()
    first = workloads.draw_pass(name, 7)
    assert first == workloads.draw_pass(name, 7)
    keys = [workloads.key(argv) for argv in first]
    assert len(set(keys)) == len(keys)
    assert all(k in goldens for k in map(workloads.key,
                                          workloads.pool(name)))


def test_max_reps_match_the_program():
    from kostantpv.cup_diagrams import MaxParContext, shortest_reps
    for n, k in ((4, 2), (5, 1), (6, 3)):
        want = [w.window for w in shortest_reps(MaxParContext(n, k))]
        assert workloads.max_reps(n, k) == sorted(want)


def test_benchmark_json_lists_the_layer_metrics():
    spec = json.loads((HERE.parent / 'BENCHMARK.json').read_text())
    assert spec['per_layer'] == [
        {'name': name, 'unit': unit, 'better': better}
        for name, unit, better, _, _ in layers.METRICS]
    assert [w['name'] for w in spec['workloads']] == list(workloads.WORKLOADS)


def test_check_names_match_the_scoreboard():
    from kostantpv.checks import ALL_CHECKS
    assert layers.CHECK_NAMES == tuple(name for name, _ in ALL_CHECKS)


def test_tracer_keeps_stdout_and_restores_the_program():
    from kostantpv import cli, cup_diagrams
    argv = ['classify', '--n', '5', '--parabolic', 'max:2', '--format',
            'tsv']
    before = (cup_diagrams.d_of, cli.graded_multiplicity, cli.ALL_CHECKS)
    plain, traced = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(plain):
        cli.main(argv)
    with contextlib.redirect_stdout(traced):
        code, report = tracer.run_traced(cli.main, argv)
    assert code == 0 and plain.getvalue() == traced.getvalue()
    assert (cup_diagrams.d_of, cli.graded_multiplicity,
            cli.ALL_CHECKS) == before
    # d_of is reached through cli -> cup_diagrams module globals
    assert report['counts']['cup_diagrams.d_of'] > 0
    # the table alone makes C(5,2)**2 = 100 calls; is_thin makes more
    assert report['spans']['cup_diagrams.graded_multiplicity'][0] > 100
    metrics = layers.per_layer(tracer.merge([report]), 0, 0.0)
    assert [name for name, *_ in layers.METRICS] == list(metrics)


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(19))) is None
    pct, value = run.tail(list(range(40)))
    assert (pct, value) == (75, 29)


def test_compare_refuses_mixed_kernel_paths():
    stamp = run.env_stamp('klpar', 1, 0)
    other = dict(stamp, kernel_path='numba', numba_imports=True)
    same = dict(stamp, seed=2)
    assert compare.mixed_paths([(stamp, {}), (same, {})]) is None
    assert compare.mixed_paths([(stamp, {}), (other, {})])
