"""The paper's offline pipeline: extract the PV TOSG three ways, train, evaluate.

Runs in the benchmark process through public Python calls only
(``extract_tosg`` and the harness's ``run_nc_method``).  Inputs are pinned
to the fixture seed, so subgraph sizes and test accuracy are the same on
every run and are checked against the values recorded in
``workloads.json``.  The whole pass is repeated and every time reported is
the fastest over the passes: on a shared host, work on the other tenants
slows this process's CPU by up to a third for tens of seconds at a time, and
the fastest pass is the one such interference touched least.
"""

from __future__ import annotations

import contextlib
import gc
import time
from typing import Dict, List, Optional

import numpy as np


METHODS = ("sparql", "brw", "ibs")
#: Passes over the three methods; each time reported is the fastest over them.
PASSES = 10
#: Within a pass, extraction repeats until this much time is spent.
EXTRACT_BUDGET_S = 0.05
MAX_REPEATS = 20


def run(bundle, seed: int, epochs: int, passes: int = PASSES,
        tracer: Optional[object] = None) -> List[Dict[str, dict]]:
    """``passes`` passes over the three methods; raw results per pass.

    With a ``tracer``, each method's work runs inside a root span whose
    request id is the method name, so its layer spans can be told apart.
    """
    from repro.kg.cache import clear_artifacts

    out = []
    for _ in range(passes):
        one: Dict[str, dict] = {}
        for method in METHODS:
            with tracer.region(f"pipeline.{method}", method) if tracer else contextlib.nullcontext():
                one[method] = _method(bundle, method, seed, epochs)
        out.append(one)
    clear_artifacts(bundle.kg)
    return out


def summarize(passes: List[Dict[str, dict]]) -> Dict[str, dict]:
    """Per method: fastest extraction and training times over every pass.

    A method whose sizes or accuracy differ between passes is not
    deterministic; its accuracy becomes NaN, which fails :func:`check`.
    """
    out = {}
    for method in METHODS:
        runs = [one[method] for one in passes]
        out[method] = dict(runs[0], extract_s=min(t for r in runs for t in r["times"]),
                           train_s=min(r["train_s"] for r in runs),
                           extract_repeats=sum(len(r["times"]) for r in runs))
        if any((r["nodes"], r["edges"], r["test_acc"]) !=
               (runs[0]["nodes"], runs[0]["edges"], runs[0]["test_acc"]) for r in runs):
            out[method]["test_acc"] = float("nan")
    return out


def _method(bundle, method: str, seed: int, epochs: int) -> dict:
    from repro.bench.harness import run_nc_method
    from repro.core import extract_tosg
    from repro.kg.cache import clear_artifacts
    from repro.models import ModelConfig
    from repro.training import TrainConfig

    times, spent = [], 0.0
    gc.collect()
    while spent < EXTRACT_BUDGET_S and len(times) < MAX_REPEATS:
        clear_artifacts(bundle.kg)  # every repeat pays for its own indices
        start = time.perf_counter()
        result = extract_tosg(bundle.kg, bundle.task("PV"), method=method, direction=1,
                              hops=1, rng=np.random.default_rng(seed))
        times.append(time.perf_counter() - start)
        spent += times[-1]
    gc.collect()
    start = time.perf_counter()
    trained = run_nc_method(
        "RGCN", result.subgraph, result.task,
        ModelConfig(hidden_dim=24, num_layers=2, lr=0.02, seed=seed),
        TrainConfig(epochs=epochs, eval_every=epochs, seed=seed),
        graph_label=method,
    )
    return {
        "times": times,
        "train_s": time.perf_counter() - start,
        "test_acc": float(trained.metric),
        "nodes": int(result.subgraph.num_nodes),
        "edges": int(result.subgraph.num_edges),
        "params": {key: result.params[key] for key in
                   ("subqueries", "pages", "rows_fetched") if key in result.params},
    }


def check(out: Dict[str, dict], expected: Dict[str, dict]) -> list:
    """Mismatches against the recorded sizes and accuracies (empty when right)."""
    problems = []
    for method in METHODS:
        want = expected.get(method)
        got = {key: out[method][key] for key in ("nodes", "edges", "test_acc")}
        if want != got:
            problems.append(f"pipeline {method}: got {got}, recorded {want}")
    return problems
