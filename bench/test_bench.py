"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = HERE.parent


@pytest.fixture(scope="module")
def loaded():
    return worker.load(ROOT)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_is_correct(loaded, workload):
    api, fixtures = loaded
    rec = worker.run_pass(api, fixtures, workload, 3, 0, trace=False, size="tiny")
    assert rec["attempted"] >= 1
    assert rec["failed"] == 0, rec["failures"]
    assert rec["decided"] >= 1


def _corrupt(item):
    if item.kind == "table1":
        item.ref = [item.ref[0].replace(" ok", " MISMATCH", 1)] + item.ref[1:]
    elif item.kind == "homfly_golden":
        item.ref = "2 + " + item.ref
    elif item.kind == "forest":
        item.ref = item.ref + [99]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_reference_raises_fail_frac(loaded, workload, monkeypatch):
    api, fixtures = loaded
    make = workloads.make_items

    def corrupted(*args, **kwargs):
        items = make(*args, **kwargs)
        for item in items:
            _corrupt(item)
        return items

    monkeypatch.setattr(workloads, "make_items", corrupted)
    rec = worker.run_pass(api, fixtures, workload, 3, 0, trace=False, size="tiny")
    assert rec["failed"] >= 1
    assert rec["failures"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_self_times_fit_in_traced_wall(loaded, workload):
    api, fixtures = loaded
    rec = worker.run_pass(api, fixtures, workload, 3, 0, trace=True, size="tiny")
    layers = rec["layers"]
    assert rec["failed"] == 0 and rec["absent"] == []
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert 0 < self_total <= rec["wall_s"]
    assert all(v >= 0 for v in layers.values())
    assert layers["cli.calls"] + layers["embed.calls"] >= 1


def test_counters_repeat_and_bindings_are_restored(loaded):
    api, fixtures = loaded
    before = api.cli.apply_rules
    runs = [worker.run_pass(api, fixtures, "braids", 5, 0, trace=True, size="tiny")["layers"] for _ in range(2)]
    counters = [k for k in runs[0] if not k.endswith(".self_s")]
    assert [runs[0][k] for k in counters] == [runs[1][k] for k in counters]
    assert runs[0]["homfly.calls"] >= 1 and runs[0]["braids.chi_search.calls"] >= 1
    assert api.cli.apply_rules is before is api.classify.apply_rules


def test_table1_layers(loaded):
    api, fixtures = loaded
    layers = worker.run_pass(api, fixtures, "table1", 0, 0, trace=True)["layers"]
    # one apply_rules from the command, one per audit rerun
    assert layers["classify.apply_rules.calls"] == 8
    assert layers["braids.chi_search.calls"] == 232
    assert layers["embed.calls"] == layers["splice.calls"] == 0


def test_missing_function_is_reported_absent(loaded, monkeypatch):
    api, _ = loaded
    monkeypatch.delattr(api.homfly, "homfly_pd")
    tracer = Tracer(api.package)
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["homfly.homfly_pd"]


def test_inputs_follow_the_seed(loaded):
    api, fixtures = loaded

    def digest(seed, pass_index):
        return workloads.digest(workloads.make_items("braids", seed, pass_index, fixtures, api))

    assert digest(1, 0) == digest(1, 0)
    assert len({digest(1, 0), digest(2, 0), digest(1, 1)}) == 3


def test_every_declared_metric_is_computed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    passes = run.measure("braids", 1, 0.1, trace=True, size="tiny")
    assert set(m["name"] for m in spec["per_layer"]) <= set(run.per_layer(passes))
    assert set(m["name"] for m in spec["end_to_end"]) == set(run.end_to_end(passes))
    assert [m["name"] for m in spec["workloads"]] == list(workloads.WORKLOADS)
    spans = json.loads((HERE / "out" / "spans-braids.json").read_text())
    assert spans["spans"] and all(parent < k for k, (_, parent, _, _) in enumerate(spans["spans"]))
    assert all(0 <= start <= end for _, _, start, end in spans["spans"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "table1", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
