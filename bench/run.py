"""Benchmark of the doubleslit simulator, driven from outside the package.

Run from the root of a checkout:

    python3 bench/run.py --workload ref-all --seed 1 --seconds 20 --trace 0

Workloads (why each exists: ``BENCHMARK.json``): ``ref-all``,
``large-none`` and ``sweep-small``.  Each is a closed loop, one client in this process: an
operation is one ``doubleslit.cli.main`` call on the next case, into an
empty directory, and the next starts when it returns and its outputs are
checked.  The seed picks the oracle's sample points and the sweep's
configs; the 40-digit reference is computed before any timing.

``--trace 0`` reports the end-to-end metrics with no tracing installed:

* ``setup_s``: median time of seven fresh interpreters that import
  ``doubleslit`` and ``doubleslit.cli`` and run ``derive`` and
  ``build_grids`` on a case's config.  They run between operations,
  spread evenly over the ``--seconds`` window.
* ``pass_s``: median time of one operation; on sweep-small the median
  of each config, averaged over the configs.
* ``peak_rss_mb``: ``ru_maxrss`` of this process.
* ``oracle_digits``: -log10 of ``oracle_err``, the largest |p - p_ref| /
  max p over a config's sampled points and behaviors; the mean over the
  configs of a workload (one, except on sweep-small), so a loss of
  accuracy on part of the sweep moves it.  The seed picks the points and
  configs, and the raw error varies by a factor of two or more between
  seeds; its logarithm does not.  The worst raw error is printed.

The two times are wall times scaled to a reference host speed: a fixed
numpy loop is timed between all timed events, and each event's time is
divided by the loop's mean time on either side and multiplied by the
loop's time on the reference host, ``measure.CAL_REFERENCE_S`` (see there
why).  Wall times and the host's speed are printed too.

``--trace 1`` runs every case twice in turn, once untraced and once with
spans around each call into a module's public functions (see
``tracing.py``), and reports the per-layer metrics.  The output stage
(masks, SVG, mask files, ``validate``, report) is timed by standalone
calls after each traced operation, on the case's profiles of all three
behaviors, so these figures exist on every workload; ``tracemalloc`` is
on only for its memory probe.  Spans are written to
``.bench_build/doubleslit/traces/`` when the run ends.

An operation fails if any check in ``cases.check`` fails; the last stdout
line is the JSON result with ``attempted`` and ``failed`` counts.  Run
``python3 -m pytest bench`` for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    if not (SRC / "doubleslit" / "__init__.py").is_file():
        print(f"error: no doubleslit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import doubleslit

    if Path(doubleslit.__file__).resolve().parent != SRC / "doubleslit":
        print(f"error: doubleslit imported from {doubleslit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import cases
    import measure

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    result, lines = measure.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
