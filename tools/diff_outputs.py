"""Byte-for-byte output diff of perfbench ops between a parent commit and this checkout.

    python3 tools/diff_outputs.py --parent HEAD~1 explore=0-5 refusals=0-2 \\
        deep_powers=0,1 paper_tables=0

Each WORKLOAD=SEEDS argument names a perfbench workload and its seeds (a
range a-b, a list a,b,c, or both).  The ops come from this checkout's
perfbench/workloads.py, so both sides are asked exactly the same thing.
Every op runs through ``repapprox.cli.main`` once in the committed tree of
--parent (extracted with ``git archive``, as tools/bench_pairs.py does) and
once in this checkout, each (workload, seed) in a fresh interpreter per
side.  Exit code, stdout, stderr and every file the op writes (the table
CSVs) are compared by SHA-256 digest.  The only text masked is the
per-table wall time that ``tables`` prints to stderr ("table N: 1.23s").
perfbench itself checks output digests only at seed 0; this covers any
seed.

Prints one line per (workload, seed) and one per differing op, and exits
1 if any op differs.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from bench_pairs import _extract  # noqa: E402

_ELAPSED = re.compile(r"^(table \d+: )\d+\.\d+s$", re.M)


def _digest(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _run_side(tree, workload, seed, work):
    """Digests of every op's outputs, run in tree (called in a fresh interpreter)."""
    sys.path.insert(0, os.path.join(tree, "src"))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads
    from repapprox import cli

    results = []
    for op in workloads.generate(workload, seed, os.path.join(work, "tables")):
        out_dir = os.path.join(work, f"op-{op['id']}")
        os.makedirs(out_dir)
        argv = [a.replace(os.path.join(work, "tables"), out_dir) for a in op["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception as exc:  # an escape from main is an output too
                rc = f"raised {type(exc).__name__}: {exc}"
        files = {}
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                files[name] = _digest(fh.read())
        shutil.rmtree(out_dir)
        results.append({
            "id": op["id"],
            "argv": op["argv"],
            "rc": rc,
            "stdout": _digest(out.getvalue()),
            "stderr": _digest(_ELAPSED.sub(r"\1<elapsed>", err.getvalue())),
            "files": files,
        })
    return results


def _side(tree, workload, seed, work):
    cmd = [sys.executable, os.path.abspath(__file__), "--run-side", tree, workload, str(seed), work]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree} {workload} seed={seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def _seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        if not lo.isdigit() or (hi and not hi.isdigit()):
            raise argparse.ArgumentTypeError(f"bad seed list {text!r}")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _spec(text):
    workload, sep, seeds = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=SEEDS, got {text!r}")
    return workload, _seeds(seeds)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--run-side"]:
        tree, workload, seed, work = argv[1:]
        json.dump(_run_side(tree, workload, int(seed), work), sys.stdout)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit of the parent side")
    parser.add_argument("specs", nargs="+", type=_spec, metavar="WORKLOAD=SEEDS")
    parser.add_argument("--workdir", help="where the extracted tree goes (default: a temp dir)")
    args = parser.parse_args(argv)

    work = tempfile.mkdtemp(prefix="diff-outputs-", dir=args.workdir)
    try:
        parent = os.path.join(work, "parent")
        commit = _extract(args.parent, parent)
        print(f"# parent {commit}, change: working tree of {ROOT}")
        differing = total = 0
        for workload, seeds in args.specs:
            for seed in seeds:
                sides = [_side(tree, workload, seed, tempfile.mkdtemp(dir=work))
                         for tree in (parent, ROOT)]
                diffs = []
                for a, b in zip(*sides):
                    fields = [k for k in ("rc", "stdout", "stderr", "files") if a[k] != b[k]]
                    if fields:
                        diffs.append(f"  op {a['id']} differs in {', '.join(fields)}: "
                                     f"{' '.join(a['argv'])}")
                if len(sides[0]) != len(sides[1]):
                    diffs.append(f"  op counts differ: {len(sides[0])} vs {len(sides[1])}")
                total += len(sides[1])
                differing += len(diffs)
                print(f"{workload} seed={seed}: {len(sides[1])} ops, "
                      f"{'identical' if not diffs else f'{len(diffs)} differ'}")
                for line in diffs:
                    print(line)
        print(f"# {total} ops, {differing} differ")
        return 1 if differing else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
