"""One warm kostantpv process serving the `session` workload.

    python3 perfbench/session.py --seed N --seconds S --trace 0|1 [--setup-only]

Started by run.py with PYTHONPATH pointing at the package sources.  It
imports the CLI, warms the Kazhdan-Lusztig and group tables for n <= 6,
and prints ``ready``; the time to that line is the workload's set-up.
It probes the core and, with --setup-only, prints the probe and exits.
Otherwise it serves the seeded pass through ``kostantpv.cli.main``, one
request after the other, each bracketed by calibration probes, and
prints one JSON line with each request's times and verdict (and, with
--trace 1, the tracer's report).  Requests not started within --seconds
count as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibration  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def serve(cli_main, reqs, goldens, seconds, before=None):
    """Run each request in this process; return (results, raw wall seconds).

    Results are in run.Pass form; `before` is a probe taken just before.
    """
    results = []
    start = time.perf_counter()
    if before is None:
        before = calibration.probe()
    with calibration.Sampler() as sampler:
        for argv in reqs:
            result, before = _serve_one(cli_main, argv, goldens, start,
                                        seconds, sampler, before)
            results.append(result)
    return results, time.perf_counter() - start


def _serve_one(cli_main, argv, goldens, start, seconds, sampler, before):
    """(one request's result, the probe taken after it)."""
    if time.perf_counter() - start >= seconds:
        return [argv, None, 'not started within --seconds', 0, None], before
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash fails this request, not the pass
        traceback.print_exc()
        code = 'exception'
    t1 = time.perf_counter()
    after = calibration.probe()
    data = out.getvalue().encode()
    probes = [before, *sampler.between(t0, t1), after]
    return [argv, calibration.calibrated(t1 - t0, probes),
            workloads.verdict(argv, code, data, goldens), len(data),
            t1 - t0], after


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    parser.add_argument('--setup-only', action='store_true')
    args = parser.parse_args()

    from kostantpv.cli import main as cli_main
    from kostantpv.klcells import kl_table

    for n in range(1, workloads.KL_N + 1):
        kl_table(n)
    print('ready', flush=True)
    probe_after_ready = calibration.probe()
    if args.setup_only:
        print(json.dumps({'probe_after_ready': probe_after_ready}))
        return

    reqs = workloads.draw_pass('session', args.seed)
    goldens = workloads.load_goldens()
    tracer = Tracer()
    if args.trace:
        tracer.install()
    try:
        results, wall = serve(cli_main, reqs, goldens, args.seconds,
                              probe_after_ready)
    finally:
        tracer.uninstall()
    print(json.dumps({'results': results, 'raw_wall_s': wall,
                      'probe_after_ready': probe_after_ready,
                      'trace': tracer.report() if args.trace else None}))


if __name__ == '__main__':
    main()
