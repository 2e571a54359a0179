"""Run the benchmark over seeds 1-10 and record the medians.

    python3 perfbench/baseline.py [--output perfbench/baseline.json]

For every workload in BENCHMARK.json it runs ``run.py`` for its
``run_seconds`` once per seed (end-to-end metrics) and once traced on the
first seed, whose results must match digest for digest.  It prints each
end-to-end metric's median and spread (quartile distance over median, as
the bounds in BENCHMARK.json are judged), and with ``--output`` writes all
of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600
SEEDS = tuple(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S, check=True,
    )
    lines = done.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("parity_digest"))
    return json.loads(lines[-1]), digest


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", type=Path)
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "seeds": list(SEEDS),
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        digests, attempted = {}, []
        for seed in SEEDS:
            result, digest = run(workload, seed, seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} items failed", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            digests[seed] = digest
            attempted.append(result["attempted"])
        traced, traced_digest = run(workload, SEEDS[0], seconds, 1)
        if traced_digest != digests[SEEDS[0]] or not traced["correct"]:
            print(f"{workload}: traced run disagrees with the untraced run", file=sys.stderr)
            return 1
        summary = {}
        print(f"{workload}: items per run {min(attempted)}-{max(attempted)}")
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "runs": vals}
            print(f"  {name:14s} median {median:10.4f}  spread {spread:.3f}  (bound {bounds[name]})")
        record["workloads"][workload] = {
            "items_per_run": {"min": min(attempted), "max": max(attempted)},
            "end_to_end": summary,
            "per_layer_seed": SEEDS[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "parity_digests": digests,
        }
    if args.output:
        args.output.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
