"""Tests of the benchmark's own logic; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bench_stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = bench_stats.load_spec(ROOT / "BENCHMARK.json")


# ---------------------------------------------------------------------------
# percentiles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n, expected",
    [
        (0, None), (19, None), (20, "50"), (99, "50"), (100, "90"), (199, "90"),
        (200, "95"), (999, "95"), (1000, "99"), (9999, "99"), (10000, "99.9"),
        (100000, "99.99"),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert bench_stats.tail_percentile(n) == expected
    if expected is not None:
        assert bench_stats.samples_beyond(n, expected) >= 10


def test_samples_beyond_counts_ranks_above_the_percentile():
    values = list(range(1000))
    p99 = bench_stats.percentile(values, 99)
    assert sum(v > p99 for v in values) == bench_stats.samples_beyond(1000, "99") == 10


def test_percentile_matches_numpy_linear():
    rng = random.Random(3)
    for n in (1, 2, 7, 100):
        values = [rng.random() for _ in range(n)]
        for q in (0, 25, 50, 90, 99, 100):
            assert math.isclose(bench_stats.percentile(values, q), np.percentile(values, q))


def test_summarize_reports_count_median_and_tail():
    s = bench_stats.summarize([float(i) for i in range(200)])
    assert s == {"n": 200, "p50": 99.5, "tail_q": "95", "tail": bench_stats.percentile(range(200), 95)}
    assert bench_stats.summarize([1.0]) == {"n": 1, "p50": 1.0, "tail_q": None, "tail": None,
                                            "samples": [1.0]}


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("other", 11.0, 12.0, None),
    ]
    assert bench_stats.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_aggregate_groups_by_root_and_name():
    spans = [
        ("phase.train", 0.0, 10.0, None),
        ("f", 1.0, 3.0, 0),
        ("g", 1.5, 2.0, 1),
        ("f", 4.0, 5.0, 0),
        ("phase.setup", 20.0, 21.0, None),
        ("f", 20.0, 20.5, 4),
    ]
    agg = bench_stats.aggregate(spans)
    assert agg["phase.train"]["f"] == [3.0, 2.5, 2]
    assert agg["phase.train"]["g"] == [0.5, 0.5, 1]
    assert agg["phase.train"]["phase.train"] == [10.0, 7.0, 1]
    assert agg["phase.setup"]["f"] == [0.5, 0.5, 1]


def test_tracer_records_nesting_and_restores_functions():
    sys.path.insert(0, str(ROOT / "src"))
    import bench_trace
    import seqpolicy.trainer as trainer

    original = trainer.optimizer_step
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        assert trainer.optimizer_step is not original
        outer = tracer.begin("phase.x")
        inner = tracer.begin("inner")
        tracer.count("k", 2)
        tracer.end(inner)
        tracer.end(outer)
    finally:
        tracer.uninstall()
    assert trainer.optimizer_step is original
    assert [s[0] for s in tracer.spans] == ["phase.x", "inner"]
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] is None
    assert tracer.counts["phase.x"]["k"] == 2
    selfs = bench_stats.self_times(tracer.spans)
    assert selfs[0] == pytest.approx(
        (tracer.spans[0][2] - tracer.spans[0][1]) - (tracer.spans[1][2] - tracer.spans[1][1])
    )


# ---------------------------------------------------------------------------
# names and schemas
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["setup_s", "train.step_ms.p50", "0x", "a-b_c.d", "x" * 64])
def test_valid_metric_names(name):
    assert bench_stats.valid_name(name)


@pytest.mark.parametrize("name", ["", "-a", ".a", "_a", "a b", "a/b", "é", "x" * 65, None, 3])
def test_invalid_metric_names(name):
    assert not bench_stats.valid_name(name)


def _result(trace: bool) -> dict:
    group = SPEC["per_layer" if trace else "end_to_end"]
    return {
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in group},
    }


@pytest.mark.parametrize("trace", [False, True])
def test_result_line_schema_accepts_declared_metrics(trace):
    assert bench_stats.result_problems(_result(trace), SPEC, trace) == []


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r.pop("failed"),
        lambda r: r.update(extra=1),
        lambda r: r.update(attempted=0),
        lambda r: r.update(failed=11),
        lambda r: r.update(correct="yes"),
        lambda r: r["metrics"].pop("setup_s"),
        lambda r: r["metrics"].update({"bogus": {"value": 1.0, "unit": "s"}}),
        lambda r: r["metrics"]["setup_s"].update(unit="ms"),
        lambda r: r["metrics"]["setup_s"].update(value=float("nan")),
        lambda r: r["metrics"]["setup_s"].update(value=True),
        lambda r: r["metrics"]["setup_s"].update(extra=0),
    ],
)
def test_result_line_schema_rejects(mutate):
    result = _result(False)
    mutate(result)
    assert bench_stats.result_problems(result, SPEC, False)


def _result_file() -> dict:
    line = _result(False)
    return {
        "workload": "finetune-line",
        "seed": 1,
        "trace": 0,
        "run_seconds": 20,
        "machine": {k: None for k in ("nproc", "blas", "blas_threads", "python",
                                      "numpy", "scipy", "git_commit")},
        "result": line,
        "metrics": {k: v["value"] for k, v in line["metrics"].items()},
        "samples": {"setup_s": 3},
        "timings": {},
        "checks": {},
        "phases_s": {},
    }


def test_result_file_schema():
    assert bench_stats.result_file_problems(_result_file(), SPEC) == []
    for key in ("machine", "samples", "result"):
        doc = _result_file()
        doc.pop(key)
        assert bench_stats.result_file_problems(doc, SPEC)
    doc = _result_file()
    doc["samples"]["not.reported"] = 1
    assert bench_stats.result_file_problems(doc, SPEC)
    doc = _result_file()
    doc["machine"].pop("blas_threads")
    assert bench_stats.result_file_problems(doc, SPEC)


def test_benchmark_json_is_well_formed():
    raw = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(raw) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert raw["paths"] == ["perfbench"] and raw["command"][1].startswith("perfbench/")
    assert isinstance(raw["run_seconds"], int) and 1 <= raw["run_seconds"] <= 60
    for w in raw["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in raw["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        assert m["better"] in ("higher", "lower")
    for m in raw["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and m["better"] in ("higher", "lower")
    setup = [m for m in raw["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in raw["end_to_end"])
    names = [m["name"] for g in ("end_to_end", "per_layer") for m in raw[g]]
    assert len(names) == len(set(names))


def test_workloads_match_benchmark_json():
    sys.path.insert(0, str(ROOT / "src"))
    import bench_workloads

    assert [w["name"] for w in SPEC["workloads"]] == list(bench_workloads.WORKLOADS)


def test_run_without_program_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "finetune-line",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
