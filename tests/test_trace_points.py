"""Every function the benchmark's tracer wraps still exists where it looks.

``perfbench/bench_trace.py`` wraps ``owner.__dict__[attr]`` for each trace
point, so a rename in the program breaks a traced benchmark run. This test
reads that table and fails on the rename instead.
"""

import importlib.util
from pathlib import Path

BENCH_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def test_every_trace_point_resolves():
    spec = importlib.util.spec_from_file_location("_bench_trace_points", BENCH_TRACE)
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    assert bench_trace.TRACE_POINTS
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _ in bench_trace.TRACE_POINTS
        if not callable(vars(owner).get(attr))
    ]
    assert not missing, f"trace points that no longer resolve: {missing}"
