"""Record the golden stdout digest of every request in every pool.

    python3 perfbench/record_goldens.py

Runs each request through ``kostantpv.cli.main`` in this process and
writes perfbench/goldens.json.  Run it only on a commit whose output is
known to be right (the goldens were recorded from the package as first
committed); the benchmark counts any later difference as a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / 'src'))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from kostantpv.cli import main  # noqa: E402


def record() -> dict:
    goldens = {}
    for name in workloads.WORKLOADS:
        for argv in workloads.pool(name):
            k = workloads.key(argv)
            if k in goldens:
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            if code != 0:
                raise SystemExit(f'{k}: exit code {code}')
            goldens[k] = workloads.digest(out.getvalue().encode())
    return goldens


if __name__ == '__main__':
    goldens = record()
    with open(workloads.GOLDENS, 'w') as f:
        json.dump(goldens, f, indent=0, sort_keys=True)
        f.write('\n')
    print(f'{len(goldens)} goldens written to {workloads.GOLDENS.name}')
