"""Compare benchmark runs of a parent commit and a change.

    python3 perfbench/compare.py PARENT.txt CHANGE.txt

Each file holds the stdout of one or more run.py runs, one after the
other.  For every workload and metric found on both sides it prints the
median and quartile spread of each side and the change relative to the
parent; an end-to-end metric worse by more than its bound in
BENCHMARK.json is marked REGRESSION.  Runs from machines whose kernel
paths differ (numba against numpy, see the stamp) are not compared: the
script stops with exit code 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / 'BENCHMARK.json'

# Stamp fields that select the code path the numbers come from.
PATH_FIELDS = ('kernel_path', 'numba_imports', 'KOSTANTPV_NO_NUMBA')


def read_runs(path):
    """[(stamp, result)] for every run in a captured stdout file."""
    runs, stamp = [], None
    for line in Path(path).read_text().splitlines():
        if line.startswith('stamp '):
            stamp = json.loads(line[len('stamp '):])
        elif line.startswith('{') and stamp is not None:
            runs.append((stamp, json.loads(line)))
            stamp = None
    return runs


def grouped(runs):
    """(workload, trace, metric) -> list of values."""
    out = {}
    for stamp, result in runs:
        for name, m in result['metrics'].items():
            out.setdefault((stamp['workload'], stamp['trace'], name),
                           []).append(m['value'])
    return out


def mixed_paths(runs):
    """The distinct kernel paths among the runs' stamps, if more than one."""
    paths = {tuple(stamp[f] for f in PATH_FIELDS) for stamp, _ in runs}
    return sorted(paths) if len(paths) > 1 else None


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = read_runs(argv[0]), read_runs(argv[1])
    mixed = mixed_paths(parent + change)
    if mixed:
        print(f'error: runs come from different kernel paths {mixed}; '
              'their numbers are not comparable', file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    rules = {m['name']: m for m in spec['end_to_end'] + spec['per_layer']}
    before, after = grouped(parent), grouped(change)
    for key in sorted(before.keys() & after.keys()):
        workload, _, name = key
        a, b = before[key], after[key]
        ma, mb = statistics.median(a), statistics.median(b)
        rel = (mb - ma) / ma if ma else 0.0
        rule = rules.get(name, {})
        worse = rel if rule.get('better') == 'lower' else -rel
        flag = ''
        if 'bound' in rule and worse > rule['bound']:
            flag = 'REGRESSION'
        print(f'{workload:9s} {name:48s} {ma:14.6g} ±{spread(a):<10.3g} '
              f'{mb:14.6g} ±{spread(b):<10.3g} {rel:+8.2%} '
              f'n={len(a)}/{len(b)} {flag}')
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))
