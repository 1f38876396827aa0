"""One cold request: a fresh interpreter running ``kostantpv.cli.main``.

    python3 perfbench/child.py --trace 0|1 -- ARGV...

Started by run.py with PYTHONPATH pointing at the package sources.  The
CLI's stdout passes through untouched.  While the request runs, a
calibration sampler probes the core; with --trace 1 the tracer wraps
the program's layers.  After the CLI returns, the probe samples (and the
tracer's report) are written to stderr as the last line, after REPORT_MARK.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibration  # noqa: E402

REPORT_MARK = 'perfbench-report '


def main() -> int:
    trace = sys.argv[1:3] == ['--trace', '1']
    argv = sys.argv[sys.argv.index('--') + 1:]
    report = None
    with calibration.Sampler() as sampler:
        from kostantpv.cli import main as cli_main
        if trace:
            import tracer
            code, report = tracer.run_traced(cli_main, argv)
        else:
            code = cli_main(argv)
    sys.stdout.flush()
    sys.stderr.write('\n' + REPORT_MARK + json.dumps({
        'probes': [p for _, p in sampler.samples], 'trace': report}) + '\n')
    return code


if __name__ == '__main__':
    sys.exit(main())
