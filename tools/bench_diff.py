"""Before/after medians per workload and metric from BENCH_<n>.json files.

    python3 tools/bench_diff.py BENCH_6.json              # parent vs change
    python3 tools/bench_diff.py BENCH_6.json BENCH_7.json  # change vs change

A BENCH file holds interleaved perfbench runs of a parent commit and a
change on one machine: {"machine": {...}, "pairs": [{"workload", "seed",
"first", "parent": {metric: value}, "change": {metric: value}}, ...]}.
With one file, "before" is its parent side and "after" its change side,
"wins" counts the pairs in which the change was better, and "pair IQR"
gives the quartiles of the per-pair ratio change/parent.  Pair k runs at
seed k, so the parent's own IQR mixes the op mixes of the seeds with
run-to-run noise; the paired ratio cancels the seed.  With two
files, "before" is the first file's change side and "after" the second's;
runs are then unpaired and no wins are counted.  Files whose machine
blocks differ in Python version, backend or CPU count are not compared.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _side(bench, side):
    runs = defaultdict(list)
    for pair in bench["pairs"]:
        runs[pair["workload"]].append(pair[side])
    return runs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 1
    benches = [json.loads(Path(p).read_text()) for p in argv]
    keys = ("python", "backend", "cpu_count")
    if len({tuple(b["machine"].get(k) for k in keys) for b in benches}) > 1:
        print("refusing to compare: the machine blocks differ", file=sys.stderr)
        return 2
    paired = len(benches) == 1
    if paired:
        before, after = _side(benches[0], "parent"), _side(benches[0], "change")
    else:
        before, after = _side(benches[0], "change"), _side(benches[1], "change")
    spec = json.loads(SPEC.read_text())
    lower = {m["name"]: m["better"] == "lower" for k in ("end_to_end", "per_layer") for m in spec[k]}
    print(f"{'workload':13} {'metric':12} {'before':>9} {'IQR':>17} {'after':>9} "
          f"{'IQR':>17} {'ratio':>6} {'wins':>6} {'pair IQR':>15}")
    for workload in sorted(set(before) & set(after)):
        a_runs, b_runs = before[workload], after[workload]
        for metric in a_runs[0]:
            if metric not in b_runs[0] or not isinstance(a_runs[0][metric], (int, float)):
                continue
            a = [r[metric] for r in a_runs]
            b = [r[metric] for r in b_runs]
            ma, mb = statistics.median(a), statistics.median(b)
            (a1, a3), (b1, b3) = _quartiles(a), _quartiles(b)
            wins = pair_iqr = ""
            if paired:
                sign = 1 if lower.get(metric, True) else -1
                wins = f"{sum(sign * (y - x) < 0 for x, y in zip(a, b))}/{len(a)}"
                ratios = [y / x for x, y in zip(a, b) if x]
                if ratios:
                    r1, r3 = _quartiles(ratios)
                    pair_iqr = f"[{r1:6.3f},{r3:6.3f}]"
            ratio = f"{mb / ma:6.2f}" if ma else "   nan"
            print(f"{workload:13} {metric:12} {ma:9.3f} [{a1:7.3f},{a3:7.3f}] {mb:9.3f} "
                  f"[{b1:7.3f},{b3:7.3f}] {ratio} {wins:>6} {pair_iqr:>15}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
