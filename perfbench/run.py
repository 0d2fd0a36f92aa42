"""Run one workload of the layer-by-layer benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paged-reads --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` repeats
the same workload with spans recorded around each layer's entry points
and reports the per-layer metrics instead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  See README.md.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("paged-reads", "ordered-ingest", "view-refresh", "served-mix")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's sources are missing ({SRC})",
              file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]

    from common import END_TO_END, PER_LAYER, Context
    from harness import work_dir
    from spans import Recorder, wrap_program

    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        root=ROOT,
        workdir=work_dir(ROOT, args.workload),
    )
    if args.trace:
        ctx.recorder = Recorder()
        wrap_program(ctx.recorder)
    try:
        module = __import__(args.workload.replace("-", "_"))
        module.run(ctx)
    finally:
        if ctx.recorder is not None:
            ctx.recorder.close()
        shutil.rmtree(ctx.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(ctx.workdir))
        except OSError:
            pass  # another run's directory is still there

    result = ctx.result
    result.notes.setdefault("probe_median_rate", round(ctx.meter.median_rate()))
    if args.trace:
        names = [name for name, _ in PER_LAYER]
        for name, unit in PER_LAYER:
            if name not in result.metrics:
                result.metric(name, 0.0, unit)
    else:
        names = [name for name, _ in END_TO_END]
    others = {k: round(v["value"], 4) for k, v in result.metrics.items()
              if k not in names}
    if others:
        result.notes["other_metrics"] = others
    result.emit(names)
    return 0


if __name__ == "__main__":
    sys.exit(main())
