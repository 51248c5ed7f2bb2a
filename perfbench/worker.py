"""Run one benchmark workload in a fresh interpreter and print one JSON object.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE --seconds T

Modes: ``setup`` imports the package, makes the inputs and stops; ``run``
then runs the workload's warm-up ops and times ops in a closed loop for T
seconds with tracing off; ``trace`` times ops untraced for T/2 seconds after
the warm-up, then replays the same inputs with the layer tracer installed.
``ready`` is the ``time.monotonic`` reading once set-up is done, so the
parent can time set-up from the moment it spawned this process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _environment() -> dict:
    import ctypes

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    # wheels bundle OpenBLAS next to the package; loading it again returns the
    # library numpy already uses
    for path in sorted(Path(numpy.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads = int(getattr(lib, sym)())
                break
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_loop(workload, inputs: list, seconds: float | None = None, count: int | None = None,
             first: int = 0):
    """Closed loop of ops from input ``first``, by wall time or for a fixed op count.

    Outputs are kept and judged later, so that checks stay out of the loop.
    """
    clock = time.perf_counter
    durations, outs = [], []
    start = clock()
    k = 0
    while (clock() - start < seconds) if count is None else (k < count):
        inp = inputs[(first + k) % len(inputs)]
        t0 = clock()
        try:
            out = workload.op(inp)
        except Exception as exc:  # a raising op counts as failed; the loop goes on
            out = exc
        durations.append(clock() - t0)
        outs.append(out)
        k += 1
    return {"durations": durations, "loop_s": clock() - start, "outs": outs}


def check_outputs(workload, inputs: list, outs: list, first: int = 0) -> dict:
    """Judges every op's output, then the workload's post-loop checks."""
    used = [inputs[(first + i) % len(inputs)] for i in range(len(outs))]
    failures = {}
    for i, (inp, out) in enumerate(zip(used, outs)):
        if isinstance(out, Exception):
            failures[i] = f"{type(out).__name__}: {out}"
        else:
            msg = workload.check(inp, out)
            if msg is not None:
                failures[i] = msg
    clean = [None if i in failures else out for i, out in enumerate(outs)]
    for i in workload.finish(used, clean):
        failures.setdefault(i, "failed the post-loop check")
    return {"attempted": len(outs), "failed": len(failures),
            "failures": [f"op {i}: {msg}" for i, msg in sorted(failures.items())[:5]]}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args()

    clock = time.perf_counter
    sys.path.insert(0, str(ROOT / "src"))
    import arakelov  # noqa: F401  (set-up cost: the package import)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    t0 = clock()
    inputs = workload.generate(args.seed)
    result = {"ready": time.monotonic(), "inputs_s": clock() - t0}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    result["environment"] = _environment()
    # the first ops of a process run slower (allocator and BLAS warm-up); timed
    # ops start after them, and the warm-up outputs are checked as well
    first = workload.warmup_ops
    warm = run_loop(workload, inputs, count=first)
    warm_check = check_outputs(workload, inputs, warm["outs"])
    if args.mode == "run":
        loop = run_loop(workload, inputs, seconds=args.seconds, first=first)
        result.update(durations=loop["durations"], loop_s=loop["loop_s"])
        checks = [warm_check, check_outputs(workload, inputs, loop["outs"], first)]
    else:
        from tracer import Tracer

        plain = run_loop(workload, inputs, seconds=args.seconds / 2, first=first)
        ops = len(plain["outs"])
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_loop(workload, inputs, count=ops, first=first)
        finally:
            tracer.uninstall()
        traced_s = sum(traced["durations"])
        layers = tracer.layer_metrics(ops)
        layers["trace.overhead_ratio"] = (traced_s / sum(plain["durations"]), "ratio")
        layers["trace.outside_s"] = ((traced_s - tracer.top_s) / ops, "s/op")
        checks = [warm_check] + [
            check_outputs(workload, inputs, loop["outs"], first) for loop in (plain, traced)
        ]
        result["layers"] = layers
    result.update(
        attempted=sum(c["attempted"] for c in checks),
        failed=sum(c["failed"] for c in checks),
        failures=[f for c in checks for f in c["failures"]][:5],
    )
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
