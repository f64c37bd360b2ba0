"""Compare benchmark records of two commits.

    python3 perfbench/compare.py BASE.json [BASE.json ...] -- CHANGE.json [...]

Each argument is a record that run.py wrote under .perfbench/results/.
Records whose machine blocks differ in backend or Python version are not
compared at all.  For every workload and metric it prints the median of
each side, the change as a share of the base median, and REGRESSION where
an end-to-end metric is worse than its bound in BENCHMARK.json.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(paths):
    by_workload = defaultdict(list)
    for path in paths:
        with open(path) as fh:
            record = json.load(fh)
        by_workload[(record["workload"], record["trace"])].append(record)
    return by_workload


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 1
    cut = argv.index("--")
    base, change = _load(argv[:cut]), _load(argv[cut + 1:])
    records = [r for side in (base, change) for rs in side.values() for r in rs]
    blocks = {(r["machine"]["backend"], r["machine"]["python"]) for r in records}
    if len(blocks) > 1:
        print(f"refusing to compare: backend/Python differ across records: {sorted(blocks)}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    print(f"{'workload':14} {'metric':40} {'base':>12} {'change':>12} {'shift':>8}")
    for key in sorted(set(base) & set(change)):
        for name in base[key][0]["result"]["metrics"]:
            a = statistics.median(r["result"]["metrics"][name]["value"] for r in base[key])
            b = statistics.median(r["result"]["metrics"][name]["value"] for r in change[key])
            shift = (b - a) / a if a else float("nan")
            flag = ""
            if name in bounds:
                better, bound = bounds[name]
                worse = shift if better == "lower" else -shift
                flag = "REGRESSION" if worse > bound else ""
            print(f"{key[0]:14} {name:40} {a:12.6g} {b:12.6g} {shift:+8.3f} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
