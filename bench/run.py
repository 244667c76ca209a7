"""cbound benchmark: one measured run of one workload.

    python3 bench/run.py --workload {table1,forests,braids} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The run repeats passes of the workload
for about ``--seconds`` seconds.  Every pass is a fresh interpreter
(``worker.py``), so no cache of the program carries over from one pass to
the next: the cost model of the command line.  Untraced, pass k runs the
inputs drawn from (seed, k) and the run reports the end-to-end metrics of
``BENCHMARK.json``; traced, untraced and traced passes alternate on the
inputs of (seed, 0), the run reports the per-layer metrics and the last
traced pass leaves its spans in ``bench/out/spans-<workload>.json``.

The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The line before it gives the details: per-pass input digests, times,
failures, and functions the tracer looked for but did not find.
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

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASS_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, pass_index: int, trace: bool, size: str, deadline: float) -> dict:
    """Run one pass in a fresh interpreter and return its record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workload", workload,
           "--seed", str(seed), "--pass-index", str(pass_index), "--trace", str(int(trace)),
           "--size", size]
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    proc = subprocess.Popen(cmd + ["--started", repr(started)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("pass %d of %s ran out of time" % (pass_index, workload)) from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise BenchError("pass %d of %s exited %d:\n%s" % (pass_index, workload, proc.returncode, err.strip()))
    return json.loads(out.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> list[dict]:
    """Passes until the next one would end after ``seconds``; traced runs
    alternate untraced and traced passes on the same inputs."""
    t0 = time.monotonic()
    deadline = t0 + PASS_TIMEOUT_S
    passes: list[dict] = []
    while True:
        if trace:
            for traced in (False, True):
                passes.append(run_worker(workload, seed, 0, traced, size, deadline))
        else:
            passes.append(run_worker(workload, seed, len(passes), False, size, deadline))
        elapsed = time.monotonic() - t0
        step = elapsed / (len(passes) // 2 if trace else len(passes))
        if elapsed + step > seconds:
            return passes


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def trimmed_mean(values: list[float], cut: float = 0.1) -> float:
    """Mean of the values left after dropping the lowest and the highest
    ``cut`` share.  The speed of a shared host shifts between levels that
    last seconds; a median jumps from one level to the next with the share
    of passes that met each, while this mean moves with that share, and
    the cut drops single stalled passes."""
    values = sorted(values)
    k = int(len(values) * cut)
    kept = values[k:len(values) - k]
    return sum(kept) / len(kept)


def end_to_end(passes: list[dict]) -> dict[str, float]:
    """Pass times and per-pass item percentiles are averaged over the run
    with ``trimmed_mean``; set-up time and memory are medians."""
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": trimmed_mean([p["wall_s"] for p in passes]),
        "item_ms.p50": trimmed_mean([percentile(p["item_ms"], 50) for p in passes]),
        "item_ms.p90": trimmed_mean([percentile(p["item_ms"], 90) for p in passes]),
        "decided_frac": sum(p["decided"] for p in passes) / sum(p["attempted"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(passes: list[dict]) -> dict[str, float]:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    out: dict[str, float] = {}
    for key in traced[0]["layers"]:
        out[key] = statistics.median(p["layers"].get(key, 0) for p in traced)
    base = statistics.median(p["wall_s"] for p in plain)
    out["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
    out["trace.overhead_frac"] = (out["trace.wall_s"] - base) / base
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "cbound" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print("bench: %s holds no cbound checkout (src/cbound, fixtures)" % ROOT, file=sys.stderr)
        return 2
    try:
        passes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    section = "per_layer" if args.trace else "end_to_end"
    values = per_layer(passes) if args.trace else end_to_end(passes)
    absent = sorted({q for p in passes for q in p["absent"]})
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in spec[section]}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "inputs": [p["inputs"] for p in passes],
        "setup_s": [round(p["setup_s"], 4) for p in passes],
        "wall_s": [round(p["wall_s"], 4) for p in passes],
        "failures": [f for p in passes for f in p["failures"]][:10],
        "absent": absent,
        "layers": values if args.trace else None,
    }
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
