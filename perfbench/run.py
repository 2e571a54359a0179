"""birat2 benchmark: seeded closed-loop workloads with a correctness gate.

    python3 perfbench/run.py --workload oracle-sweep --seed 1 --seconds 20 --trace 0

One caller issues items one after another, each only after the previous
returned.  A run keeps going until its items have been busy for
``--seconds`` and at least ``FIXED_ITEMS`` items have completed; the first
``FIXED_ITEMS`` items of a seed are the fixed prefix behind the parity
digest and the peak-memory reading.  birat2's caches are emptied at the
start of every epoch of the input stream (see ``workloads``), so no input
repeats while its results are cached.  Every item is checked with the
benchmark's own arithmetic.

Item latency is the calling thread's CPU time (``time.thread_time``) in
reference units.  birat2 does no I/O and never waits, so on an unshared
core CPU time equals wall time.  On a shared virtual machine the core
also runs slower while other guests load it, by up to 2x in bursts of
1-50 ms, which moved runs of identical inputs by 5-20%.  So between items,
after every ``KERNEL_EVERY_S`` of item time, the benchmark times a fixed
calibration kernel, and scales all item times by ``KERNEL_REF_S / mean
kernel time``: a time reads as it would on a core where the kernel takes
``KERNEL_REF_S``.  Set-up time is the CPU time of a fresh interpreter up
to ``import birat2`` returning, scaled by the kernel as timed in that
interpreter.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the fixed
prefix once untraced and once traced, and reports the per-layer metrics
and the tracing overhead.  Metric names and units come from BENCHMARK.json.
The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

FIXED_ITEMS = 1000
KERNEL_REF_S = 70e-6  # the kernel on an idle core of the baseline machine
KERNEL_EVERY_S = 0.005  # item CPU time between two kernel samples
SETUP_REPS = 11
SHOW_FAILURES = 5


def measure_setup() -> float:
    """Median CPU time from process start to ``import birat2`` returning,
    in reference units: each fresh interpreter times the calibration
    kernel after its import and scales by it."""
    path = os.pathsep.join(filter(None, [str(SRC), str(ROOT), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    cmd = [
        sys.executable, "-c",
        "import time, birat2; t = time.process_time(); "
        "from perfbench.run import kernel_mean_s; print(t, kernel_mean_s(50))",
    ]
    # the first import writes the bytecode cache, as an installed package has one
    subprocess.run(cmd, env=env, check=True, capture_output=True, cwd=ROOT)
    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True, cwd=ROOT)
        cpu_s, kernel_s = map(float, done.stdout.split())
        times.append(cpu_s * KERNEL_REF_S / kernel_s)
    return statistics.median(times)


def calibration_kernel() -> int:
    """Fixed interpreter work, ~0.1 ms: tuples, dict lookups, gcd.

    Its working set fits the L1 cache on purpose, and it is timed on its
    second call: a kernel over a larger table ran up to 3x slower right
    after items that had evicted it, so it measured the preceding item,
    not the core.
    """
    seen: dict = {}
    for i in range(1, 200):
        a = i * 7919 % 1009
        key = (a, i % 7, math.gcd(a, i))
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def kernel_mean_s(reps: int) -> float:
    total = 0.0
    for _ in range(reps):
        start = time.thread_time()
        calibration_kernel()
        total += time.thread_time() - start
    return total / reps


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Pass:
    """Results of running items through one workload in a closed loop."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []
        self.kernel_s: list[float] = []
        self._since_kernel_s = math.inf
        self.failed = 0
        self.failures: list[str] = []
        self.digest = hashlib.sha256()
        self.epochs = 0
        self.rss_mb = None

    def run_item(self, index: int, inp) -> None:
        start = time.thread_time()
        try:
            out = self.workload.run(inp)
        except Exception as exc:  # a raising item is a failed item, not a crash
            elapsed = time.thread_time() - start
            ok, canon = False, ["raised", repr(inp), f"{type(exc).__name__}: {exc}"]
        else:
            elapsed = time.thread_time() - start
            ok, canon = self.workload.check(inp, out)
        self.latencies.append(elapsed)
        self._since_kernel_s += elapsed
        if self._since_kernel_s >= KERNEL_EVERY_S:
            self._since_kernel_s = 0.0
            calibration_kernel()  # warm its caches after the item; time the second call
            start = time.thread_time()
            calibration_kernel()
            self.kernel_s.append(time.thread_time() - start)
        if not ok:
            self.failed += 1
            if len(self.failures) < SHOW_FAILURES:
                self.failures.append(json.dumps(canon, default=str)[:300])
        if index < FIXED_ITEMS:
            self.digest.update(json.dumps(canon, default=str).encode() + b"\n")
        if index + 1 == FIXED_ITEMS:
            self.rss_mb = peak_rss_mb()

    def run(self, epochs, seconds: float = math.inf, tracer=None) -> None:
        """Run the items of ``epochs`` until they have been busy for
        ``seconds`` and ``FIXED_ITEMS`` are done, or the epochs end."""
        from perfbench.workloads import clear_caches

        index, busy = 0, 0.0
        for epoch in epochs:
            clear_caches()
            self.epochs += 1
            for inp in epoch:
                if tracer is not None:
                    tracer.item = index
                self.run_item(index, inp)
                busy += self.latencies[-1]
                index += 1
                if busy >= seconds and index >= FIXED_ITEMS:
                    return

    @property
    def scale(self) -> float:
        """Factor from measured CPU time to reference units."""
        return KERNEL_REF_S * len(self.kernel_s) / math.fsum(self.kernel_s)

    @property
    def busy_s(self) -> float:
        """Total item time in reference units."""
        return math.fsum(self.latencies) * self.scale

    def percentile_ms(self, q: float) -> tuple[float, int]:
        """Nearest-rank percentile in reference ms and the number of samples beyond it."""
        ordered = sorted(self.latencies)
        rank = math.ceil(q * len(ordered))
        return ordered[rank - 1] * self.scale * 1000, len(ordered) - rank


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def select(values: dict, wanted: list) -> dict:
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not produced: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def show(metrics: dict, notes: dict) -> None:
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:48s} {m['value']:.6g} {m['unit']}{note}")


def first_items(epochs, n: int) -> list[list]:
    """The first ``n`` items of a stream, in their epochs."""
    out = []
    while n > 0:
        out.append(list(islice(next(epochs), n)))
        n -= len(out[-1])
    return out


def end_to_end(workload, seed: int, seconds: float) -> tuple[Pass, dict]:
    setup_s = measure_setup()
    # the input pools are the benchmark's memory, not the program's
    before_mb = peak_rss_mb()
    epochs = workload.inputs(seed)
    pools_mb = peak_rss_mb() - before_mb
    p = Pass(workload)
    p.run(epochs, seconds)
    n = len(p.latencies)
    p50, _ = p.percentile_ms(0.50)
    p99, beyond = p.percentile_ms(0.99)
    values = {
        "items_per_s": n / p.busy_s,
        "item_p50_ms": p50,
        "item_p99_ms": p99,
        "setup_s": setup_s,
        "peak_rss_mb": p.rss_mb - pools_mb,
    }
    metrics = select(values, spec()["end_to_end"])
    show(
        metrics,
        {
            "items_per_s": f"{n} items in {p.epochs} epoch(s), {p.busy_s:.3f} s busy, "
            f"CPU time x {p.scale:.3f}",
            "item_p50_ms": f"n={n}",
            "item_p99_ms": f"n={n}, {beyond} beyond",
            "setup_s": f"median of {SETUP_REPS} fresh interpreters",
            "peak_rss_mb": f"after item {FIXED_ITEMS}, less {pools_mb:.2f} MB of input pools",
        },
    )
    print(f"{'fail_frac':48s} {p.failed / n:.6g}  ({p.failed} of {n})")
    return p, metrics


def traced(workload, seed: int) -> tuple[Pass, dict]:
    from perfbench.trace import Tracer

    inputs = first_items(workload.inputs(seed), FIXED_ITEMS)
    plain = Pass(workload)
    plain.run(inputs)
    tracer = Tracer()
    tracer.install()
    p = Pass(workload)
    p.run(inputs, tracer=tracer)
    if p.digest.digest() != plain.digest.digest():
        p.failed += 1
        p.failures.append("traced results differ from untraced results")

    values = tracer.metrics()
    shares = tracer.module_self_s()
    total = sum(shares.values()) or 1.0
    ranked = sorted(shares, key=shares.get, reverse=True)
    predicted = sum(shares[m] for m in workload.dominant)
    others = max(shares[m] for m in shares if m not in workload.dominant)
    idle_ok = not workload.quadforms_idle or values["quadforms.calls"] == 0
    prediction_ok = predicted > others and idle_ok
    values["trace.overhead"] = p.busy_s / plain.busy_s - 1
    values["trace.prediction_ok"] = int(prediction_ok)
    metrics = select(values, spec()["per_layer"])
    show(metrics, {})
    print(
        "self time by module: "
        + ", ".join(f"{m} {100 * shares[m] / total:.1f}%" for m in ranked)
    )
    print(
        f"prediction: {'+'.join(workload.dominant)} dominant"
        + (", no quadforms calls" if workload.quadforms_idle else "")
        + f": {'ok' if prediction_ok else 'MISMATCH'}"
    )
    print(
        f"tracing overhead: {100 * values['trace.overhead']:.1f}% "
        f"({p.busy_s:.3f} s traced vs {plain.busy_s:.3f} s untraced, {len(p.latencies)} items)"
    )
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload.name}-{seed}.jsonl"
    tracer.write_spans(spans)
    print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}, {tracer.dropped} beyond the cap")
    return p, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "birat2" / "__init__.py").is_file():
        print(f"error: no birat2 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    print(f"workload {workload.name}, seed {args.seed}, closed loop with 1 caller")
    if args.trace:
        p, metrics = traced(workload, args.seed)
    else:
        p, metrics = end_to_end(workload, args.seed, args.seconds)
    print(f"parity_digest sha256:{p.digest.hexdigest()} (first {FIXED_ITEMS} items)")
    for failure in p.failures:
        print(f"failed: {failure}")
    result = {
        "correct": p.failed == 0,
        "attempted": len(p.latencies),
        "failed": p.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
