"""Benchmark of the arakelov library: four workloads, each a closed loop of one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Workloads (see BENCHMARK.json for why each exists):
  arch_pair  ``arakelov energy arch`` at its defaults (n=20000, lambda 2 vs 3)
  gap_scan   one criterion-13 configuration through ``adelic.global_energy``
  ua_oracle  one criterion-1 segment pair: closed form, bounds, kernel oracle
  torsion    ``adelic.bft_scan`` at level 5 for a pair from a small lambda pool

Each run spawns fresh interpreters from the root of the checkout: several
that only set up (import and input generation), to take the median set-up
time, and one that also runs the timed loop.  With ``--trace 0`` the last
line of stdout holds every end-to-end metric of BENCHMARK.json; with
``--trace 1`` every per-layer metric, from a traced replay of the ops plus
``python -X importtime`` and the line counts of ``src/arakelov``.  A summary
and the environment go to stderr.  Exit status is 0 once a result line is
printed, 2 when the checkout has no library to measure, 1 on any other
error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "arakelov"
WORKLOADS = ("arch_pair", "gap_scan", "ua_oracle", "torsion")
MODULES = ("init", "places", "tree", "energy_ua", "lattes", "quartic", "energy_arch",
           "adelic", "cli", "suite", "errors")
SETUP_SAMPLES = 5  # set-up is timed in this many fresh interpreters
IMPORTTIME_SAMPLES = 3
RUN_LIMIT_S = 170.0  # every child is killed by then


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("ARAKELOV_SEED", None)  # the CLI would let it override --seed
    return env


def _spawn(argv: list[str], deadline: float) -> tuple[float, subprocess.CompletedProcess]:
    started = time.monotonic()
    timeout = deadline - started
    if timeout <= 0:
        raise BenchError("out of time before spawning " + " ".join(argv))
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=_child_env(),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(argv)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return started, proc


def _worker(args, mode: str, deadline: float) -> dict:
    argv = [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--mode", mode, "--seconds", str(args.seconds)]
    started, proc = _spawn(argv, deadline)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def _import_times(deadline: float) -> dict[str, float]:
    """Cumulative import time of the package and of scipy.integrate, in seconds."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import arakelov"
    samples: dict[str, list[float]] = {"arakelov": [], "scipy.integrate": []}
    for _ in range(IMPORTTIME_SAMPLES):
        _, proc = _spawn(["-X", "importtime", "-c", code], deadline)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {k: statistics.median(v) if v else 0.0 for k, v in samples.items()}


def _line_counts() -> dict[str, tuple[float, str]]:
    """Lines per module of the package (0 once a module is deleted) and in total."""
    out = {f"{m}.loc": (0, "lines") for m in MODULES}
    total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_bytes().count(b"\n")
        total += lines
        name = "init" if path.stem == "__init__" else path.stem
        if name in MODULES:
            out[f"{name}.loc"] = (lines, "lines")
    out["src.loc"] = (total, "lines")
    return out


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _measure(args, deadline: float) -> tuple[dict, dict]:
    """Returns the metrics by name as (value, unit), and the main worker's result."""
    if args.trace:
        main = _worker(args, "trace", deadline)
        metrics = dict(main["layers"])
        imports = _import_times(deadline)
        metrics["setup.import_s"] = (imports["arakelov"], "s")
        metrics["setup.import.scipy_integrate_s"] = (imports["scipy.integrate"], "s")
        metrics["setup.inputs_s"] = (main["inputs_s"], "s")
        metrics.update(_line_counts())
        return metrics, main

    setups = [_worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    main = _worker(args, "run", deadline)
    setups.append(main["setup_s"])
    durations = main["durations"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": ((main["attempted"] - main["failed"]) / main["loop_s"], "1/s"),
        "op_p50_s": (statistics.median(durations), "s"),
        "op_p90_s": (_p90(durations), "s"),
        "peak_rss_mb": (main["maxrss_kb"] / 1024.0, "MB"),
    }
    return metrics, main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "__init__.py").is_file():
        print(f"no library at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        metrics, main_result = _measure(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    mismatched = [m["name"] for m in wanted if metrics.get(m["name"], (0, None))[1] != m["unit"]]
    if mismatched:
        print(f"no value in the declared unit for {mismatched}", file=sys.stderr)
        return 1

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "environment": main_result["environment"],
                      "failures": main_result["failures"]}), file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}", file=sys.stderr)
    result = {
        "correct": main_result["failed"] == 0,
        "attempted": main_result["attempted"],
        "failed": main_result["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
