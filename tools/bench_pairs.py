"""Interleaved parent/change perfbench pairs, written as a BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs deep_powers=10 \\
        --pairs paper_tables=5 --traced deep_powers --claim deep_powers:wall_s \\
        --name "what the change does" --out BENCH_7.json

The parent side is the committed tree of --parent, extracted with
``git archive``; the change side is a copy of this checkout's tracked
files and its untracked files that git does not ignore, so neither side
reads a ``__pycache__`` the other lacks.  Both go in a new directory under
--workdir (default: the system temporary directory), removed at the end.
For each workload, pair k (k = 1..N) runs
``perfbench/run.py --seed k --trace 0`` on both sides back to back, and
the side that runs first alternates from pair to pair; each run lasts the
``run_seconds`` of BENCHMARK.json.  Each --traced workload also gets one
``--trace 1`` run per side at seed 0, perfbench's default seed, whose
output digests are recorded.  Nothing under perfbench/ is changed; its
JSON result line is all that is read.

The output is the format tools/bench_diff.py reads: {"machine", "pairs":
[{"workload", "seed", "first", "parent": {metric: value}, "change": {...}}],
"traced": [{"workload", "seed", "parent", "change"}], "failures": [...]}.
A run that is not correct, or fails an op, is listed under "failures".
"""

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
TRACE_SEED = 0  # perfbench's default seed: its outputs are checked against recorded digests


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def _extract(rev, dest):
    """The committed files of rev, in dest; returns the full commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest)
    return commit


def _copy_checkout(dest):
    """This checkout's tracked and untracked, not ignored, files, copied into dest."""
    for name in _git("ls-files", "-z", "-co", "--exclude-standard").decode().split("\0"):
        src = os.path.join(ROOT, name)
        if name and os.path.isfile(src):  # a tracked file may be deleted in the checkout
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))


def _run(tree, workload, seed, seconds, trace):
    """(metrics, machine block, failure or None) of one perfbench run in tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {}, {}, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    result = json.loads(lines[-1])
    machine = next((json.loads(line[len("# machine "):]) for line in lines
                    if line.startswith("# machine ")), {})
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    failure = None
    if not result["correct"] or result["failed"]:
        failure = f"correct={result['correct']}, failed={result['failed']}: " + "; ".join(
            line for line in lines if line.startswith("# FAILED"))[:1000]
    return metrics, machine, failure


def _pair_spec(text):
    workload, _, count = text.partition("=")
    if not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=N, got {text!r}")
    return workload, int(count)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit of the parent side")
    parser.add_argument("--pairs", type=_pair_spec, action="append", default=[],
                        metavar="WORKLOAD=N", help="N interleaved pairs of WORKLOAD")
    parser.add_argument("--traced", action="append", default=[], metavar="WORKLOAD",
                        help="one --trace 1 run per side of WORKLOAD")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the claimed gain, if any")
    parser.add_argument("--name", default="", help="what the change does, one line")
    parser.add_argument("--workdir", help="where the two trees go (default: a temp dir)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if not args.pairs and not args.traced:
        parser.error("nothing to run: give --pairs or --traced")

    work = tempfile.mkdtemp(prefix="bench-pairs-", dir=args.workdir)
    try:
        return _bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(args, work):
    trees = {side: os.path.join(work, side) for side in SIDES}
    parent_commit = _extract(args.parent, trees["parent"])
    _copy_checkout(trees["change"])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]

    machine, pairs, traced, failures = {}, [], [], []

    def run(side, workload, seed, trace):
        print(f"# {side} {workload} seed={seed} trace={trace}", file=sys.stderr, flush=True)
        metrics, block, failure = _run(trees[side], workload, seed, seconds, trace)
        if failure:
            failures.append(f"{side} {workload} seed={seed} trace={trace}: {failure}")
        if block and not machine:
            machine.update({k: v for k, v in block.items() if k != "commit"})
        return metrics

    for workload, count in args.pairs:
        for seed in range(1, count + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            sides = {side: run(side, workload, seed, 0) for side in order}
            pairs.append({"workload": workload, "seed": seed, "first": order[0], **sides})
    for workload in args.traced:
        sides = {side: run(side, workload, TRACE_SEED, 1) for side in SIDES}
        traced.append({"workload": workload, "seed": TRACE_SEED, **sides})

    bench = {
        "change": args.name,
        "parent_commit": parent_commit,
        "change_commit": "working tree at " + _git("rev-parse", "HEAD").decode().strip(),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                   "--trace 0",
        "machine": machine,
        "note": "Each pair runs the parent and the change on the same seed back to back, "
                "alternating which goes first; 'traced' holds one --trace 1 run per side.",
        "pairs": pairs,
        "traced": traced,
        "failures": failures,
    }
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        bench["claim"] = {"workload": workload, "metric": metric}
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print(f"# wrote {args.out}: {len(pairs)} pairs, {len(traced)} traced, "
          f"{len(failures)} failed runs", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
