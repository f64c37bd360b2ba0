"""One benchmark process: runs ops through ``repapprox.cli.main`` in order.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py OPS.json RESULT.json [--trace]

With --setup-only it imports the package, parses one argv with the CLI's
parser, prints "ready" and exits; run.py times that from spawn.  Otherwise
it runs every op with stdout and stderr captured, one client, no threads,
and writes per-op latency, exit code and stderr to RESULT.json together
with its peak RSS.  Each op's stdout goes to out-<id>.txt beside RESULT.json
as soon as the op ends, so captured output does not pile up in the
process.  Only the call to ``cli.main`` is timed.  With --trace the
layers are wrapped first (tracing.py) and the spans are written out too.
"""

import contextlib
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def peak_rss_mb():
    """This process's peak resident set (VmHWM), in MiB.

    VmHWM belongs to the address space exec created; ru_maxrss would also
    carry the peak of the parent that forked this process.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")


def setup_only():
    from repapprox import cli

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main(["--help"])
        except SystemExit:
            pass
    print("ready", flush=True)


def run(ops_path, result_path, traced):
    import repapprox
    from repapprox import cli

    out_dir = os.path.dirname(os.path.abspath(result_path))
    with open(ops_path) as fh:
        ops = json.load(fh)
    tracer, missing = None, []
    if traced:
        sys.path.insert(0, HERE)
        import tracing

        tracer = tracing.Tracer()
        missing = tracing.install(tracer)
    results = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = op["id"]
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = cli.main(op["argv"])
            except Exception as exc:  # any escape from main is a failed op
                rc, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        with open(os.path.join(out_dir, f"out-{op['id']}.txt"), "w") as fh:
            fh.write(out.getvalue())
        results.append({"id": op["id"], "rc": rc, "seconds": seconds, "error": error,
                        "stderr": err.getvalue()})
    rss_mb = peak_rss_mb()
    payload = {
        "ops": results,
        "peak_rss_mb": rss_mb,
        "backend": repapprox.BACKEND,
        "python": sys.version.split()[0],
        "spans": tracer.spans if tracer is not None else None,
        "not_traced": missing,
    }
    with open(result_path, "w") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    if sys.argv[1:] == ["--setup-only"]:
        setup_only()
    else:
        run(sys.argv[1], sys.argv[2], "--trace" in sys.argv[3:])
