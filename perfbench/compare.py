#!/usr/bin/env python3
"""Compare two perfbench results written with run.py --out.

    python3 perfbench/compare.py before.json after.json

Prints each metric of both results with its relative change. Refuses
(exit 2) to compare results whose environment stamps differ in ISA tier
or nproc, or that ran different workloads or modes.
"""

import json
import sys

MUST_MATCH = ("isa_tier", "nproc")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        a = json.load(f)
    with open(argv[2]) as f:
        b = json.load(f)
    for key in MUST_MATCH:
        if a["env"].get(key) != b["env"].get(key):
            print(f"compare: refusing: {key} differs "
                  f"({a['env'].get(key)} vs {b['env'].get(key)})", file=sys.stderr)
            return 2
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        print("compare: refusing: different workload or trace mode", file=sys.stderr)
        return 2
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    print(f"# {a['workload']} trace={a['trace']} seeds {a['seed']} -> {b['seed']}, "
          f"isa {a['env']['isa_tier']}, nproc {a['env']['nproc']}")
    for name in ma:
        va, vb = ma[name]["value"], mb.get(name, {}).get("value")
        change = f"{(vb - va) / va:+.2%}" if vb is not None and va else "n/a"
        print(f"{name:34s} {va:14.6g} {vb if vb is not None else float('nan'):14.6g} "
              f"{ma[name]['unit']:8s} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
