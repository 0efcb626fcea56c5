"""Per-layer metrics from the spans of a traced run.

Server-side spans come from ``tracing.py`` running inside the server;
pipeline spans from the same tracer installed in this process.  The
client's own timings (due, sent, answered) are matched to server spans by
the request id the client sends as ``X-Bench-Id``.
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from stats import percentile, self_times

KERNELS = ("ppr", "ego", "paths")
COALESCED = ("ppr", "ego", "paths", "predict")
POOL_OPS = ("ppr", "ego", "paths", "predict", "sparql")
METHODS = ("sparql", "brw", "ibs")
#: A request's stage self times must sum to its server span within this,
#: for at least ``STAGE_SUM_MIN_SHARE`` of the requests.
STAGE_TOLERANCE_MS, STAGE_TOLERANCE_SHARE = 0.05, 0.01
STAGE_SUM_MIN_SHARE = 0.99

#: Every per-layer metric, with its unit, in report order.
PER_LAYER = [
    ("http.overhead_ms", "ms"), ("wire.encode_ms", "ms"),
    ("service.refused", "count"), ("service.inflight_p99", "count"),
    ("coalesce.wait_ms", "ms"),
    *[(f"coalesce.items.{op}", "count") for op in COALESCED],
    ("coalesce.windows", "count"),
    *[(f"kernel.{k}.{m}", "ms") for k in KERNELS for m in ("ms_per_call", "ms_per_item")],
    ("kernel.ppr.miss_ms_per_item", "ms"), ("kernel.predict.ms_per_call", "ms"),
    *[(f"cache.{k}.{m}", u) for k in KERNELS
      for m, u in (("hit_ratio", "ratio"), ("invalidated", "count"))],
    ("registry.forward_passes", "count"), ("registry.forward_ms", "ms"),
    *[(f"pool.call_ms.{op}", "ms") for op in POOL_OPS],
    ("pool.calls", "count"), ("pool.ingest_ms", "ms"), ("pool.respawns", "count"),
    ("epoch.ingest_ms", "ms"), ("epoch.count", "count"),
    ("service.ingest_wait_ms", "ms"),
    ("sparql.query_ms", "ms"), ("sparql.rows", "count"),
    ("sparql.subqueries", "count"), ("sparql.pages", "count"), ("sparql.rows_fetched", "count"),
    ("core.sparql_ms", "ms"), ("core.brw_ms", "ms"), ("core.ibs_ms", "ms"),
    ("core.ibs_ppr_ms", "ms"), ("kg.subgraph_ms", "ms"), ("core.remap_ms", "ms"),
    *[(f"train.epoch_ms.{m}", "ms") for m in METHODS],
    ("train.eval_ms", "ms"), ("transform.hetero_ms", "ms"),
    ("setup.dataset_s", "s"), ("setup.artifacts_s", "s"), ("setup.checkpoint_s", "s"),
    ("setup.pool_spawn_s", "s"),
    ("gen.late_p99_ms", "ms"), ("gen.sent", "count"), ("gen.done", "count"),
    ("trace.overhead.light_p50_ms", "ms"), ("trace.overhead.busy_p50_ms", "ms"),
    ("trace.overhead.pipeline_s", "s"),
    ("trace.stage_sum_ok_share", "ratio"), ("trace.stage_sum_max_err_ms", "ms"),
]


def _mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def _by_name(spans) -> Dict[str, List[list]]:
    out: Dict[str, List[list]] = defaultdict(list)
    for span in spans:
        out[span[0]].append(span)
    return out


def _ms(span) -> float:
    return (span[2] - span[1]) * 1e3


def _mean_ms(spans) -> float:
    return _mean([_ms(s) for s in spans])


def _per_item_ms(spans) -> float:
    items = sum(s[6] or 0 for s in spans)
    return sum(_ms(s) for s in spans) / items if items else 0.0


def _windows(named) -> Dict[str, tuple]:
    """Per op: dispatch spans sorted by end, and their end times."""
    out = {}
    for op in COALESCED:
        spans = sorted(named.get(f"coalesce.dispatch.{op}", []), key=lambda s: s[2])
        out[op] = (spans, [s[2] for s in spans])
    return out


def _window_of(submit, op: str, windows) -> Optional[list]:
    """The dispatch that answered ``submit``: the last one ending inside it."""
    spans, ends = windows[op]
    i = bisect.bisect_right(ends, submit[2]) - 1
    return spans[i] if i >= 0 and spans[i][1] >= submit[1] else None


def serving(dump: dict, requests, metrics_before: dict, metrics_after: dict) -> Dict[str, float]:
    """Server-side layers over the traced light+busy phases.

    Only spans inside the phases' time window count (the server's and this
    process's ``perf_counter`` share the monotonic clock), except set-up
    spans, which come from the launch.
    """
    start = min(r.due for r in requests)
    end = max(r.done for r in requests if r.done is not None)
    setup = [s for s in dump["spans"] if s[0].startswith("setup.")]
    spans = [s for s in dump["spans"] if s[1] >= start and s[2] <= end]
    named = _by_name(spans)
    out: Dict[str, float] = {}
    by_request: Dict[str, List[list]] = defaultdict(list)
    for span in spans:
        if span[5] is not None:
            by_request[span[5]].append(span)

    perform = {s[5]: s for s in named.get("wire.perform_op", [])}
    overhead = [(r.done - r.sent) * 1e3 - _ms(perform[str(r.index)])
                for r in requests if r.ok and str(r.index) in perform]
    out["http.overhead_ms"] = statistics.median(overhead) if overhead else 0.0
    out["wire.encode_ms"] = _mean_ms(named.get("wire.encode", []))
    out["service.refused"] = float(sum(
        1 for t, _ in dump["samples"].get("service.refused", []) if start <= t <= end))
    depth = [d for t, d in dump["samples"].get("service.inflight", []) if start <= t <= end]
    out["service.inflight_p99"] = float(percentile(depth, 99) or (max(depth) if depth else 0))

    windows = _windows(named)
    waits, ok, errors = [], 0, []
    for rid, group in by_request.items():
        if rid.startswith("window-"):
            continue
        roots = [s for s in group if s[0] == "http.request"]
        if not roots:
            continue
        group = list(group)
        service = next((s for s in group if s[0].startswith("service.")), None)
        op = service[0].split(".", 1)[1] if service else None
        for submit in [s for s in group if s[0] == "coalesce.submit"]:
            window = _window_of(submit, op, windows) if op in windows else None
            if window is not None:
                waits.append(_ms(submit) - _ms(window))
                # The window's dispatch is the kernel stage of this request.
                group.append([window[0], window[1], window[2], -window[3], submit[3], rid, None])
        selfs = self_times([tuple(s[:6]) for s in group])
        error = abs(sum(selfs.values()) - (roots[0][2] - roots[0][1])) * 1e3
        errors.append(error)
        ok += error <= max(STAGE_TOLERANCE_MS, STAGE_TOLERANCE_SHARE * _ms(roots[0]))
    out["coalesce.wait_ms"] = _mean(waits)
    for op in COALESCED:
        out[f"coalesce.items.{op}"] = _mean([s[6] or 0 for s in windows[op][0]])
    out["coalesce.windows"] = float(sum(len(windows[op][0]) for op in COALESCED))
    out["trace.stage_sum_ok_share"] = ok / len(errors) if errors else 0.0
    out["trace.stage_sum_max_err_ms"] = max(errors) if errors else 0.0

    for kind in KERNELS:
        out[f"kernel.{kind}.ms_per_call"] = _mean_ms(named.get(f"kernel.{kind}", []))
        out[f"kernel.{kind}.ms_per_item"] = _per_item_ms(named.get(f"kernel.{kind}", []))
    out["kernel.ppr.miss_ms_per_item"] = _per_item_ms(named.get("kernel.ppr.miss", []))
    out["kernel.predict.ms_per_call"] = _mean_ms(named.get("kernel.predict", []))

    before = metrics_before["graphs"]["mag"]["live"]
    after = metrics_after["graphs"]["mag"]["live"]
    for kind in KERNELS:
        a, b = before[f"{kind}_cache"], after[f"{kind}_cache"]
        hits = b["hits"] - a["hits"]
        lookups = hits + b["misses"] - a["misses"]
        out[f"cache.{kind}.hit_ratio"] = hits / lookups if lookups else 0.0
        out[f"cache.{kind}.invalidated"] = float(b["invalidated"] - a["invalidated"])

    out["registry.forward_passes"] = float(len(named.get("registry.forward", [])))
    out["registry.forward_ms"] = _mean_ms(named.get("registry.forward", []))
    calls = named.get("pool.call", [])
    for op in POOL_OPS:
        out[f"pool.call_ms.{op}"] = _mean_ms(
            [s for s in calls if str(s[6]).replace("sparql_stream", "sparql") == op])
    out["pool.calls"] = float(len(calls))
    out["pool.ingest_ms"] = _mean_ms(named.get("pool.ingest", []))
    pool = metrics_after.get("config", {}).get("pool")
    out["pool.respawns"] = float(pool["respawns"]) if pool else 0.0
    out["epoch.ingest_ms"] = _mean_ms(named.get("epoch.ingest", []))
    out["epoch.count"] = float(after["epoch"] - before["epoch"])
    ingest_ids = {s[3] for s in named.get("service.ingest", [])}
    ingest_family = [s for s in spans if s[3] in ingest_ids or s[4] in ingest_ids]
    selfs = self_times([tuple(s[:6]) for s in ingest_family])
    out["service.ingest_wait_ms"] = _mean([selfs[i] * 1e3 for i in ingest_ids])
    out["sparql.query_ms"] = _mean_ms(named.get("sparql.query", []))
    rows = (metrics_after["graphs"]["mag"]["endpoint"]["rows_returned"]
            - metrics_before["graphs"]["mag"]["endpoint"]["rows_returned"])
    out["sparql.rows"] = float(rows)
    for name, key in (("setup.dataset_s", "setup.dataset"), ("setup.artifacts_s", "setup.artifacts"),
                      ("setup.checkpoint_s", "setup.checkpoint"),
                      ("setup.pool_spawn_s", "setup.pool_spawn")):
        out[name] = sum(s[2] - s[1] for s in setup if s[0] == key)
    return out


def pipeline(dump: dict, results: Dict[str, dict]) -> Dict[str, float]:
    """Offline-pipeline layers, from spans recorded in this process."""
    spans = dump["spans"]
    named = _by_name(spans)
    out: Dict[str, float] = {}
    params = results["sparql"]["params"]
    for key in ("subqueries", "pages", "rows_fetched"):
        out[f"sparql.{key}"] = float(params.get(key, 0))
    for name in ("core.sparql", "core.brw", "core.ibs", "core.ibs_ppr", "kg.subgraph",
                 "core.remap", "transform.hetero"):
        out[f"{name}_ms"] = _mean_ms(named.get(name, []))
    for method in METHODS:
        out[f"train.epoch_ms.{method}"] = _mean_ms(
            [s for s in named.get("train.epoch", []) if s[5] == method])
    runs = named.get("train.run", [])
    run_ids = {s[3] for s in runs}
    family = [s for s in spans if s[3] in run_ids or s[4] in run_ids]
    selfs = self_times([tuple(s[:6]) for s in family])
    out["train.eval_ms"] = _mean([selfs[i] * 1e3 for i in run_ids])
    return out


def generator(requests) -> Dict[str, float]:
    late = [(r.sent - r.due) * 1e3 for r in requests]
    return {
        "gen.late_p99_ms": float(percentile(late, 99) or (max(late) if late else 0.0)),
        "gen.sent": float(len(requests)),
        "gen.done": float(sum(r.done is not None and r.error is None for r in requests)),
    }
