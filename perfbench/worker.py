"""One workload's operations in a fresh process.

Reads a JSON job from stdin and writes one JSON object to stdout.  Modes:

  setup     set up only (import, build the inputs, one warm-up operation)
            and report the set-up time
  run       set up, then run the operation list in a closed loop with one
            caller, timing each operation; with "trace", the listed concord
            functions are wrapped after the warm-up

Only the standard library is imported before the set-up clock starts.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def use_checkout_source() -> None:
    sys.path.insert(0, SRC)


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def inprocess(job: dict) -> dict:
    t0 = time.perf_counter()
    use_checkout_source()
    import concord  # noqa: F401  (the set-up pays the package import)
    import inproc

    build, run, describe = inproc.workload(job["workload"])
    objects = [build(op) for op in job["ops"]]
    warm = build(inproc.warmup_op(job["workload"]))
    run(warm)
    setup_s = time.perf_counter() - t0
    if job["mode"] == "setup":
        return {"setup_s": setup_s}

    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    latencies, outputs, errors = [], [], []
    for obj in objects:
        t = time.perf_counter()
        try:
            result = run(obj)
            err = None
        except Exception as e:  # an operation's failure is data, not a crash
            result, err = None, f"{type(e).__name__}: {e}"
        latencies.append(time.perf_counter() - t)
        if tracer:
            tracer.enabled = False
        outputs.append(None if err else describe(obj, result))
        errors.append(err)
        if tracer:
            tracer.enabled = True
    out = {"setup_s": setup_s, "latencies": latencies, "outputs": outputs,
           "errors": errors, "peak_rss_kb": peak_rss_kb()}
    if tracer:
        out["trace"] = tracer.summary()
    return out


def main() -> int:
    json.dump(inprocess(json.load(sys.stdin)), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
