"""Run one workload of the multi-model benchmark and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload unified-analytics --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--seconds`` is the timed window in reference seconds (see
``perfbench/hostspeed.py``).  ``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` makes a
separate run that wraps each layer's public functions in timing spans,
writes the spans as JSON lines under ``perfbench/out/``, and reports
the per-layer metrics.  Both check every answer against an oracle
driver.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when every operation succeeded and matched the oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("unified-analytics", "sharded-mixed", "replicated-oltp")


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without leaving ROOT."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(bench: Any, args: argparse.Namespace) -> dict[str, Any]:
    """The environment of this result, with the values actually used."""
    from perfbench.hostspeed import REFERENCE_S

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale_factor": bench.ds.config.scale_factor,
        "dataset_seed": bench.ds.config.seed,
        "orders": len(bench.ds.orders),
        **bench.system,
        "setups_per_run": len(bench.setup_times),
        "reference_ms": round(bench.speed.median_s * 1000.0, 4),
        "reference_ms_nominal": REFERENCE_S * 1000.0,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": git_commit(),
    }


def run_workload(args: argparse.Namespace) -> int:
    from perfbench.harness import NOT_GATED, run_benchmark
    from perfbench.workloads import WORKLOADS

    outcome = run_benchmark(
        WORKLOADS[args.workload], args.seed, seconds=args.seconds, trace=bool(args.trace)
    )
    if outcome.tracer is not None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        outcome.tracer.write_jsonl(
            str(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"),
            [s for s in outcome.tracer.spans if s.op is not None])
    bench, metrics, units = outcome.bench, outcome.metrics, outcome.units
    not_gated = {name: unit for name, unit in NOT_GATED.items() if name in metrics}
    errors = sorted({c.error for c in bench.calls if c.error})[:5]
    print(json.dumps({"stamp": stamp(bench, args), "checks": outcome.checks, "errors": errors,
                      "wall_clock": outcome.wall_clock,
                      "not_gated": {name: {"value": metrics[name], "unit": unit}
                                    for name, unit in not_gated.items()}}))
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:14.6f} {unit}")
    for name, unit in not_gated.items():
        print(f"{name:40s} {metrics[name]:14.6f} {unit} (not gated)")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": len(bench.calls),
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if outcome.correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process; one merged result line."""
    merged: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if not lines:
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # On SIGTERM, unwind so the harness closes the system and its workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
