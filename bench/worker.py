"""One pass of a workload in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  The pass imports cbound
from ``<root>/src``, loads the fixtures, reports how long that took since
the parent started the process, runs the items of the pass in one timed
loop (traced or not), checks every answer and prints one JSON object.  A
traced pass writes its spans to ``bench/out/spans-<workload>.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402

OVAL_FIXTURES = ("hopf.ovals", "wermer.ovals", "wermer_conj.ovals")


def load(root: Path):
    """Import cbound from ``root/src`` and read the fixtures."""
    src = root / "src"
    if not (src / "cbound" / "__init__.py").is_file():
        raise FileNotFoundError("no cbound package under %s" % src)
    sys.path.insert(0, str(src))
    api = types.SimpleNamespace(package=importlib.import_module("cbound"))
    if Path(api.package.__file__).resolve().parent != (src / "cbound").resolve():
        raise ImportError("cbound was imported from %s, not %s" % (api.package.__file__, src))
    for name in MODULES:
        setattr(api, name, importlib.import_module("cbound." + name))
    fixtures_dir = root / "fixtures"
    kb_path = fixtures_dir / "table1.kb"
    kb_text = kb_path.read_text()
    fixtures = {
        "kb_path": str(kb_path),
        "kb_text": kb_text,
        "table1_lines": reference.expected_table1(kb_text),
        "golden": reference.parse_golden((fixtures_dir / "golden.dat").read_text()),
        "ovals": [(name, api.notation.parse_ovals((fixtures_dir / name).read_text())) for name in OVAL_FIXTURES],
    }
    return api, fixtures


def run_pass(api, fixtures, workload: str, seed: int, pass_index: int, trace: bool, size: str = "full") -> dict:
    """Run and check one pass in this process; returns the pass record."""
    items = workloads.make_items(workload, seed, pass_index, fixtures, api, size)
    tracer = None
    if trace:
        tracer = Tracer(api.package)
        tracer.install()
    outputs, item_s = [], []
    clock = time.perf_counter
    try:
        start = clock()
        for item in items:
            t0 = clock()
            try:
                out = workloads.run_item(api, item)
            except Exception:
                out = ("exception", traceback.format_exc(limit=3))
            item_s.append(clock() - t0)
            outputs.append(out)
        wall = clock() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures, decided = [], 0
    for k, (item, out) in enumerate(zip(items, outputs)):
        if isinstance(out, tuple) and out and out[0] == "exception":
            why, ok = "uncaught exception: %s" % out[1].strip().splitlines()[-1], False
        else:
            try:
                why, ok = workloads.check(item, out, outputs)
            except Exception as exc:
                why, ok = "check could not read the answer: %r" % (exc,), False
        if why:
            failures.append("item %d (%s %s): %s" % (k, item.kind, item.text[:60], why))
        decided += ok and not why
    return {
        "traced": trace,
        "inputs": workloads.digest(items),
        "attempted": len(items),
        "failed": len(failures),
        "decided": decided,
        "failures": failures[:5],
        "wall_s": wall,
        "item_ms": [1000.0 * t for t in item_s],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": tracer.summary() if tracer else None,
        "absent": tracer.absent if tracer else [],
        "spans": tracer.spans() if tracer else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--started", type=float, required=True, help="time.monotonic() when the parent spawned us")
    args = ap.parse_args(argv)
    api, fixtures = load(Path(args.root))
    setup = time.monotonic() - args.started
    record = run_pass(api, fixtures, args.workload, args.seed, args.pass_index, bool(args.trace), args.size)
    record["setup_s"] = setup
    spans = record.pop("spans")
    if spans is not None:
        (HERE / "out").mkdir(exist_ok=True)
        (HERE / "out" / ("spans-%s.json" % args.workload)).write_text(json.dumps(spans))
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, ImportError) as exc:
        print("worker: %s" % exc, file=sys.stderr)
        sys.exit(1)
