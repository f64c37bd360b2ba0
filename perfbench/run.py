"""repapprox benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload explore --seed 3 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``
as is.  The ops of the workload (workloads.py, from --seed) are sent
through ``repapprox.cli.main`` by worker.py in a fresh interpreter, one op
after another (closed loop, one client, no threads, --jobs 1), so caches
start cold as they do for a CLI user.  Passes over the same ops repeat in
new interpreters while at least half of one more pass fits in --seconds of
summed op time.  With
--trace 1 there is one untraced and one traced pass.

--trace 0 prints the end-to-end metrics: setup_s (median over
SETUP_SAMPLES interpreters from spawn to package imported and an argv
parsed), wall_s (median over passes of the summed op latencies), op_p50_s
and op_p90_s (over all ops of all passes), peak_rss_mb (median over passes
of the worker's peak RSS).  --trace 1 runs one untraced and one traced
pass and prints the per-layer metrics of the traced one (tracing.py), the
tracing overhead (traced minus untraced wall_s) and the op outcome ratios.

Every op's output of the first pass is checked (checks.py) after the pass,
outside the timed region; for the default seed the exit codes and
stdout digests must also equal those in digests.json, whatever the
outcome.  Every later pass, the traced one too,
must give the same exit codes and output digests as the first.  The last
stdout line is the JSON result; the lines before it, and the file under
.perfbench/results/, state the sample counts, the machine block and any
failed op.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
SETUP_SAMPLES = 9
PASS_TIMEOUT_S = 170
TABLE_SUMMARY = ("checked 162 cells", "11 flagged")
WORKER = os.path.join(HERE, "worker.py")


def _read(path):
    with open(path) as fh:
        return fh.read()


def _commit():
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model():
    try:
        for line in _read("/proc/cpuinfo").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(backend, python):
    return {"python": python, "backend": backend, "cpu_count": os.cpu_count(),
            "cpu_model": _cpu_model(), "commit": _commit()}


def measure_setup():
    """Median seconds from spawning an interpreter to its "ready" line."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):  # the first one warms the bytecode cache
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, WORKER, "--setup-only"],
                                stdout=subprocess.PIPE, cwd=ROOT, text=True)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait(timeout=PASS_TIMEOUT_S) != 0 or line.strip() != "ready":
            raise RuntimeError("setup probe did not report ready")
    return statistics.median(samples[1:])


def run_pass(ops, work, traced):
    ops_path = os.path.join(work, "ops.json")
    result_path = os.path.join(work, "result.json")
    with open(ops_path, "w") as fh:
        json.dump(ops, fh)
    cmd = [sys.executable, WORKER, ops_path, result_path] + (["--trace"] if traced else [])
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=PASS_TIMEOUT_S)
    with open(result_path) as fh:
        payload = json.load(fh)
    os.remove(result_path)
    for res in payload["ops"]:
        path = os.path.join(work, f"out-{res['id']}.txt")
        res["stdout"] = _read(path)
        os.remove(path)
    return payload


def _table_digests(out_dir):
    return {name: checks.digest(_read(os.path.join(out_dir, name)))
            for name in sorted(os.listdir(out_dir))}


def fingerprint(op, res, table_dir):
    """Exit code and output digests of one op, compared across passes."""
    got = {"rc": res["rc"], "stdout": checks.digest(res["stdout"])}
    if op["kind"] == "tables" and os.path.isdir(table_dir):
        got.update(_table_digests(table_dir))
    return got


def judge(op, res, seed, recorded, got):
    """(status, reason) of one op: ok, refused or failed.

    An op fails if it raises, if its exit code is not the one the generator
    expects (0 for an answer, 2 with the planned marker for a refusal), if
    its output check fails, or, for the default seed and for the tables,
    if its exit code and output digests differ from the recorded ones.
    """
    first_err = res["stderr"].strip().splitlines()[:1]
    rc = res["rc"]
    reason = None
    if res["error"]:
        reason = f"raised {res['error']}"
    elif op["expect"] == "refuse":
        if rc == 0:
            reason = "answered where a refusal was expected"
        elif rc != 2 or op["marker"] not in res["stderr"]:
            reason = f"exit {rc}, not refused as {op['marker']!r}: {first_err}"
    elif rc != 0:
        reason = f"exit {rc} where an answer was expected: {first_err}"
    elif op["kind"] == "tables":
        if not all(s in res["stderr"] for s in TABLE_SUMMARY):
            reason = f"table summary is not {TABLE_SUMMARY}: {first_err}"
    else:
        try:
            reason = checks.CHECKS[op["kind"]](op, res["stdout"])
        except Exception as exc:  # unparsable output is a wrong output
            reason = f"output check raised {type(exc).__name__}: {exc}"
    if reason is None and recorded is not None and (seed == DEFAULT_SEED or op["kind"] == "tables"):
        want = recorded.get(str(op["id"]))
        if want != got:
            reason = f"exit code and output digests {got} differ from the recorded {want}"
    if reason:
        return "failed", reason
    return ("refused" if op["expect"] == "refuse" else "ok"), None


def percentile(values, q):
    """Nearest-rank percentile (q in (0, 1]) of a nonempty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def main(argv=None):
    spec = json.loads(_read(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "repapprox", "cli.py")):
        print(f"no repapprox sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2

    recorded = json.loads(_read(os.path.join(HERE, "digests.json")))[args.workload]
    work = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    table_dir = os.path.join(work, "tables")
    os.makedirs(work)
    try:
        ops = workloads.generate(args.workload, args.seed, table_dir)
        outcomes, passes, failures, first = [], [], [], {}

        def execute(traced):
            """One pass; the first is checked in full, later ones against it."""
            if os.path.isdir(table_dir):
                shutil.rmtree(table_dir)
            payload = run_pass(ops, work, traced)
            for op, res in zip(ops, payload["ops"]):
                got = fingerprint(op, res, table_dir)
                if op["id"] in first:
                    status, want = first[op["id"]]
                    reason = None if got == want else "exit code or output differs from the first pass"
                    status = "failed" if reason else status
                else:
                    status, reason = judge(op, res, args.seed, recorded, got)
                    first[op["id"]] = (status, got)
                del res["stdout"]
                outcomes.append(status)
                if reason:
                    failures.append(f"op {op['id']} ({op['kind']}{', traced' if traced else ''}): {reason}")
            payload["wall"] = sum(r["seconds"] for r in payload["ops"])
            return payload

        passes.append(execute(False))
        while not args.trace and sum(p["wall"] for p in passes) + passes[-1]["wall"] / 2 < args.seconds:
            passes.append(execute(False))
        latencies = [r["seconds"] for p in passes for r in p["ops"]]
        wall_s = statistics.median(p["wall"] for p in passes)
        if args.trace:
            traced = execute(True)
            metrics = tracing.layer_metrics(traced["spans"])
            metrics["trace.overhead_s"] = traced["wall"] - wall_s
            metrics["ops.failed_ratio"] = outcomes.count("failed") / len(outcomes)
            metrics["ops.refused_ratio"] = outcomes.count("refused") / len(outcomes)
        else:
            metrics = {
                "setup_s": measure_setup(),
                "wall_s": wall_s,
                "op_p50_s": statistics.median(latencies),
                "op_p90_s": percentile(latencies, 0.9),
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            }
        units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]}
        block = machine(passes[0]["backend"], passes[0]["python"])
        failed = outcomes.count("failed")
        result = {
            "correct": failed == 0,
            "attempted": len(outcomes),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        results_dir = os.path.join(ROOT, ".perfbench", "results")
        os.makedirs(results_dir, exist_ok=True)
        tag = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
               f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": block, "passes": len(passes),
                  "samples": len(latencies), "refused": outcomes.count("refused"),
                  "failures": failures, "result": result,
                  "not_traced": traced["not_traced"] if args.trace else [],
                  "ops": [{"id": op["id"], "kind": op["kind"], "status": first[op["id"]][0],
                           "seconds": [p["ops"][k]["seconds"] for p in passes]}
                          for k, op in enumerate(ops)]}
        with open(os.path.join(results_dir, tag + ".json"), "w") as fh:
            json.dump(record, fh, indent=1)
        if args.trace:
            with open(os.path.join(results_dir, tag + "-spans.json"), "w") as fh:
                json.dump(traced["spans"], fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup = "" if args.trace else f"{SETUP_SAMPLES} setup samples, "
    print(f"# {args.workload} seed={args.seed}: {len(passes)} pass(es) of {len(ops)} ops, "
          f"{len(latencies)} latency samples, {setup}{record['refused']} refused, {failed} failed")
    print("# machine " + json.dumps(block))
    for line in failures[:20]:
        print("# FAILED " + line)
    if record["not_traced"]:
        print("# not traced, absent from the package: " + ", ".join(record["not_traced"]))
    print(f"# record .perfbench/results/{tag}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
