"""Per-layer metrics from tracer counts and spans.

A per-layer metric name in BENCHMARK.json maps to tracer data by suffix:
``<key>_calls`` is the call count of tracer key ``<key>``, and ``<key>_s``
the inclusive seconds of span ``<key>``.  The remaining names are filled by
the kernel micro-timings, the CLI child timings and the tracer self-checks.
"""

from __future__ import annotations

import statistics

from tracing import COUNTERS, ITEM_PREFIX, SPANS

COUNT_KEYS = {key for key, *_ in COUNTERS} | {key for key, *_ in SPANS}
SPAN_KEYS = {key for key, *_ in SPANS}


def from_trace(names, counts: dict, layer_times: dict) -> dict[str, float]:
    """Values of the per-layer metrics that the tracer measures."""
    out = {}
    for name in names:
        if name.endswith("_calls") and name[:-6] in COUNT_KEYS:
            out[name] = counts.get(name[:-6], 0)
        elif name.endswith("_s") and (name[:-2] in SPAN_KEYS
                                      or name.startswith(ITEM_PREFIX)):
            out[name] = layer_times.get(name[:-2], {}).get("inclusive_s", 0.0)
    return out


def merge(records: list[dict]) -> tuple[dict, dict]:
    """Summed counts and layer times of several traced CLI processes."""
    counts: dict[str, int] = {}
    layer_times: dict[str, dict[str, float]] = {}
    for rec in records:
        for key, n in rec["counts"].items():
            counts[key] = counts.get(key, 0) + n
        for key, row in rec["layers"].items():
            acc = layer_times.setdefault(key, dict.fromkeys(row, 0))
            for field, value in row.items():
                acc[field] += value
    return counts, layer_times


def cli_metrics(records: list[dict], wall_s: float) -> dict[str, float]:
    """Medians per CLI call of the import and the command, and the share
    of the untraced pass not spent running commands."""
    return {
        "cli.import_ms": statistics.median(r["import_ms"] for r in records),
        "cli.run_ms": statistics.median(r["run_ms"] for r in records),
        "cli.startup_share": 1 - sum(r["run_ms"] for r in records) / (wall_s * 1e3),
    }


def print_table(layer_times: dict, limit: int = 12) -> None:
    rows = sorted(layer_times.items(), key=lambda kv: -kv[1]["self_s"])[:limit]
    print(f"  {'span':42s} {'calls':>8s} {'inclusive_s':>12s} {'self_s':>10s}")
    for name, row in rows:
        print(f"  {name:42s} {row['calls']:8d} {row['inclusive_s']:12.4f} "
              f"{row['self_s']:10.4f}")
