"""``python3 -m benchmarks.perf run|trace|compare|list`` (and the
driver's ``bench``; ``child`` is what the others spawn)."""

from __future__ import annotations

import argparse
import sys

from .spec import WORKLOADS


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.perf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="every workload, timed then traced")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--repeats", type=int, default=5,
                     help="timed runs per workload (default 5)")
    run.add_argument("--out", help="write the result file here")
    run.add_argument("--quick", action="store_true",
                     help="~1 s per workload, one repeat, no pins or bounds")
    run.add_argument("--record-expected", action="store_true",
                     help="re-record expected.json and print what changed")

    trace = sub.add_parser(
        "trace", help="only the traced runs; writes trace_<workload>.json "
                      "into .perf_scratch/ in the checkout")
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument("--quick", action="store_true")

    compare = sub.add_parser("compare", help="two result files, row by row")
    compare.add_argument("a", help="the parent's result file")
    compare.add_argument("b", help="the change's result file")

    sub.add_parser("list", help="the workloads and why each exists")

    bench = sub.add_parser("bench", help="the driver's entry (BENCHMARK.json)")
    bench.add_argument("--workload", required=True, choices=list(WORKLOADS))
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--seconds", type=int, required=True)
    bench.add_argument("--trace", type=int, choices=(0, 1), default=0)

    child = sub.add_parser("child")
    child.add_argument("--workload", required=True, choices=list(WORKLOADS))
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--size", type=int, required=True)
    child.add_argument("--scratch", required=True)
    child.add_argument("--traced", action="store_true")
    child.add_argument("--trace-out")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "child":
        from . import child
        return child.main(args)
    if args.command == "list":
        for workload in WORKLOADS.values():
            print(f"{workload.name:<22}{workload.size_of}={workload.size()}"
                  f"  {workload.why}")
        return 0
    if args.command == "compare":
        from . import compare
        return compare.main(args.a, args.b)
    from . import harness
    return {"run": harness.cmd_run, "trace": harness.cmd_trace,
            "bench": harness.cmd_bench}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
