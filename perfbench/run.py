"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload backbone-uniform --seed 1 \
        --seconds 20 --trace 0

Run it from the root of a checkout (it imports ``src/repro`` from
there).  Earlier lines are a readable report; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, the
``per_layer`` ones with ``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import ROOT, machine_info, require_program

WORKLOADS = ("backbone-uniform", "pldel-dense", "serve-mixed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    require_program()
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    if args.workload == "serve-mixed":
        import serving

        outcome = serving.run(args.seed, args.seconds, bool(args.trace))
    else:
        import construction

        outcome = construction.run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )

    ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    outcome.per_layer["failed_ratio"] = ratio

    # Every run reports every listed metric.  A per-layer metric whose
    # layer does not run on this workload reads 0; an end-to-end metric
    # is measured on every workload.
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = outcome.per_layer if args.trace else outcome.end_to_end
    if not args.trace:
        missing = [m["name"] for m in wanted if m["name"] not in measured]
        if missing:
            raise SystemExit(f"perfbench: {args.workload} did not measure {missing}")
    metrics = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }

    info = machine_info()
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, **outcome.config)
    print("# perfbench " + json.dumps(info, sort_keys=True))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for group in (outcome.end_to_end, outcome.per_layer):
        for name, value in group.items():
            print(f"{name:40s} {value:>16.6g} {units.get(name, '')}")
    print(f"# failed {outcome.failed} of {outcome.attempted} operations")
    for note in outcome.notes:
        print(f"# {note}")

    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
