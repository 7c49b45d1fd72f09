"""Pure helpers of the benchmark: percentiles, metric names, result schemas.

Nothing here imports seqpolicy or numpy, so the rules can be tested alone.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

# Percentiles a timing may be reported at, lowest first.
TAIL_LADDER = ("50", "90", "95", "99", "99.9", "99.99")
MIN_BEYOND = 10
SMALL_SAMPLE = 16

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")
RESULT_FILE_KEYS = (
    "workload", "seed", "trace", "run_seconds", "machine", "result",
    "metrics", "samples", "timings", "checks", "phases_s",
)


def valid_name(name) -> bool:
    """Metric and workload names: ``[A-Za-z0-9_.-]``, leading letter or digit, <= 64."""
    return isinstance(name, str) and _NAME_RE.fullmatch(name) is not None


def valid_unit(unit) -> bool:
    return isinstance(unit, str) and _UNIT_RE.fullmatch(unit) is not None


def samples_beyond(n: int, q: str) -> int:
    """Samples strictly above the ``q``-th percentile rank of ``n`` samples."""
    return n - math.ceil(Fraction(q) * n / 100)


def tail_percentile(n: int) -> str | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    best = None
    for q in TAIL_LADDER:
        if samples_beyond(n, q) >= MIN_BEYOND:
            best = q
    return best


def percentile(values, q) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * float(q) / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def summarize(values) -> dict:
    """Sample count, median, and the tail the sample count supports; small
    sample sets are kept whole."""
    q = tail_percentile(len(values))
    out = {
        "n": len(values),
        "p50": percentile(values, 50) if values else None,
        "tail_q": q,
        "tail": percentile(values, q) if q else None,
    }
    if len(values) <= SMALL_SAMPLE:
        out["samples"] = list(values)
    return out


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    ``spans`` holds ``(name, start, end, parent_index)`` rows in start order,
    so a parent always precedes its children; children nest inside parents.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def aggregate(spans) -> dict:
    """``{root name: {span name: [total_s, self_s, calls]}}`` over span trees."""
    selfs = self_times(spans)
    roots: list[str] = []
    out: dict[str, dict[str, list]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        root = name if parent is None else roots[parent]
        roots.append(root)
        row = out.setdefault(root, {}).setdefault(name, [0.0, 0.0, 0])
        row[0] += end - start
        row[1] += selfs[i]
        row[2] += 1
    return out


def load_spec(path) -> dict:
    """Read BENCHMARK.json and check the names and units it declares."""
    spec = json.loads(Path(path).read_text())
    for group in ("workloads", "end_to_end", "per_layer"):
        names = [m["name"] for m in spec[group]]
        bad = [n for n in names if not valid_name(n)]
        if bad or len(set(names)) != len(names):
            raise ValueError(f"{group}: invalid or repeated names {bad or names}")
        for m in spec[group]:
            if "unit" in m and not valid_unit(m["unit"]):
                raise ValueError(f"{m['name']}: invalid unit {m['unit']!r}")
    return spec


def result_problems(result, spec: dict, trace: bool) -> list[str]:
    """Why ``result`` is not a valid last output line; empty when it is."""
    if not isinstance(result, dict) or tuple(sorted(result)) != tuple(sorted(RESULT_KEYS)):
        return [f"result keys must be exactly {RESULT_KEYS}"]
    problems = []
    if not isinstance(result["correct"], bool):
        problems.append("correct must be a bool")
    attempted, failed = result["attempted"], result["failed"]
    if type(attempted) is not int or attempted < 1:
        problems.append("attempted must be an int >= 1")
    if type(failed) is not int or failed < 0 or (type(attempted) is int and failed > attempted):
        problems.append("failed must be an int in [0, attempted]")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(declared):
        missing = set(declared) - set(metrics or {})
        extra = set(metrics or {}) - set(declared)
        return problems + [f"metrics mismatch: missing {sorted(missing)}, extra {sorted(extra)}"]
    for name, entry in metrics.items():
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"{name}: entry must have exactly value and unit")
            continue
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value must be a finite number")
        if entry["unit"] != declared[name]:
            problems.append(f"{name}: unit {entry['unit']!r} != {declared[name]!r}")
    return problems


def result_file_problems(doc, spec: dict) -> list[str]:
    """Why ``doc`` is not a valid per-run result file; empty when it is."""
    if not isinstance(doc, dict):
        return ["result file must hold an object"]
    missing = [k for k in RESULT_FILE_KEYS if k not in doc]
    if missing:
        return [f"missing keys {missing}"]
    problems = result_problems(doc["result"], spec, bool(doc["trace"]))
    for name in doc["metrics"]:
        if not valid_name(name):
            problems.append(f"invalid metric name {name!r}")
    for name, count in doc["samples"].items():
        if name not in doc["metrics"] or type(count) is not int or count < 0:
            problems.append(f"samples[{name!r}] must count a reported metric")
    for key in ("nproc", "blas", "blas_threads", "python", "numpy", "scipy", "git_commit"):
        if key not in doc["machine"]:
            problems.append(f"machine info lacks {key}")
    return problems
