"""``python3 -m bench``: the repository's measured-clock benchmark.

    python3 -m bench --workload NAME --seed N --seconds S --trace 0|1
        one run of one workload; the last line of standard output is the
        result object of the benchmark contract (BENCHMARK.json).
    python3 -m bench [--seeds N] [--seconds S]
        every workload (end-to-end runs, then one traced run each), every
        metric printed by name with its unit; writes bench/out/<time>.json.
    python3 -m bench agree [--seeds N]
        two full sets back to back, compared under the bounds.
    python3 -m bench compare A.json B.json
        apply the bounds to two result files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", nargs="?", default="run", choices=("run", "agree", "compare"))
    parser.add_argument("files", nargs="*", help="compare: two result files")
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the self-tests' input sizes")
    parser.add_argument("--seeds", type=int, default=3,
                        help="full run / agree: runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--detail", action="store_true",
                        help="also print sample counts and quartiles as a JSON line")
    args = parser.parse_args(argv)

    if not (_SRC / "repro").is_dir():
        print(f"bench: the program under test is missing ({_SRC / 'repro'})", file=sys.stderr)
        return 2
    # The program is run from source; nothing is installed.
    sys.path.insert(0, str(_SRC))
    from . import report
    from .runner import run_workload
    from .workloads import WORKLOADS

    if args.command == "compare":
        if len(args.files) != 2:
            parser.error("compare takes two result files")
        loaded = [json.loads(Path(f).read_text(encoding="utf-8")) for f in args.files]
        return report.compare(*loaded)

    seconds = args.seconds if args.seconds is not None else report.contract()["run_seconds"]
    if args.workload is not None:
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.scale)
        detail = result.pop("detail")
        for name, m in detail["metrics"].items():
            q1, _q2, q3 = m["quartiles"]
            print(f"{name:<32} {m['value']:>16.6f} {m['unit']:<6} n={m['n']} "
                  f"quartiles=[{q1:.6f}, {q3:.6f}]")
        if args.detail:
            print(json.dumps(detail))
        print(json.dumps(result))
        return 0

    seeds = list(range(args.seed, args.seed + args.seeds))
    first = report.run_set(seeds, seconds, args.scale)
    report.print_set(first)
    print(f"\nwrote {report.write_result(first)}")
    failed = any(e["failed"] for e in first["workloads"].values())
    if args.command == "run":
        return 1 if failed else 0
    second = report.run_set(seeds, seconds, args.scale)
    print(f"wrote {report.write_result(second)}\n")
    return max(report.compare(first, second), int(failed))


if __name__ == "__main__":
    sys.exit(main())
