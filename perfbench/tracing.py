"""Spans recorded from outside the program, by wrapping its public functions.

A :class:`Tracer` replaces a function or method at a layer boundary with a
wrapper that records one span per call: name, start, end, its own id, the
id of the span that was open when it was called, a request id, and an
optional item count.  Spans live in memory and are written out at exit.

Run as a script, this module is the traced server launcher::

    python3 perfbench/tracing.py SPANS.json serve --dataset mag ...

It installs the serving-side wrappers, then calls the program's own CLI
entry point with the remaining arguments, and dumps the spans to
``SPANS.json`` when the server exits.  Worker processes of a pool start
through ``forkserver`` and never see the wrappers: their time shows only
inside the parent's ``pool.call`` spans.
"""

from __future__ import annotations

import atexit
import collections
import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional

#: ``(span_id, request_id)`` of the innermost open span in this context.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class Tracer:
    """Collects spans and timed samples; undoes its own patches."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.samples: Dict[str, List[tuple]] = collections.defaultdict(list)
        self._ids = itertools.count(1)
        self._undo: List[Callable[[], None]] = []

    # -- recording --

    def _open(self, request_id: Optional[str], root: bool):
        current = _CURRENT.get()
        parent = None if (root or current is None) else current[0]
        if request_id is None and current is not None and not root:
            request_id = current[1]
        span_id = next(self._ids)
        token = _CURRENT.set((span_id, request_id))
        return span_id, parent, request_id, token

    def _close(self, name, start, span_id, parent, request_id, token, items=None):
        self.spans.append(
            [name, start, time.perf_counter(), span_id, parent, request_id, items]
        )
        _CURRENT.reset(token)

    def traced(self, fn, name: str, root: bool = False,
               request_id: Optional[Callable] = None,
               items: Optional[Callable] = None,
               on_error: Optional[Callable] = None):
        """``fn`` wrapped to record span ``name`` per call.

        ``request_id(args)`` names the request a root span belongs to;
        ``items(args)`` gives the item count of the call; ``on_error(exc)``
        sees any exception before it propagates.
        """
        tracer = self

        def before(args):
            rid = request_id(args) if request_id is not None else None
            n = items(args) if items is not None else None
            return (*tracer._open(rid, root), n)

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                span_id, parent, rid, token, n = before(args)
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                except Exception as exc:
                    if on_error is not None:
                        on_error(exc)
                    raise
                finally:
                    tracer._close(name, start, span_id, parent, rid, token, n)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span_id, parent, rid, token, n = before(args)
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                except Exception as exc:
                    if on_error is not None:
                        on_error(exc)
                    raise
                finally:
                    tracer._close(name, start, span_id, parent, rid, token, n)
        return wrapper

    @contextlib.contextmanager
    def region(self, name: str, request_id: str):
        """A root span around a block; spans opened inside share ``request_id``."""
        span_id, parent, rid, token = self._open(request_id, root=True)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, start, span_id, parent, rid, token)

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` by its traced wrapper (undone by :meth:`uninstall`)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.traced(getattr(owner, attr), name, **options))
        self._undo.append(lambda: setattr(owner, attr, original))

    def replace(self, owner, attr: str, value) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def dump(self) -> dict:
        return {"spans": self.spans, "samples": dict(self.samples)}


def _count_items(index: int):
    return lambda args: len(args[index]) if len(args) > index else None


def install_serving(tracer: Tracer) -> None:
    """Wrap the serving layers' boundaries (runs in the server process)."""
    from repro.datasets import catalog
    from repro.kg import epoch, store
    from repro.kg.cache import GraphArtifacts
    from repro.models.rgcn import RGCNNodeClassifier
    from repro.serve import coalesce, http, pool, registry, service, wire
    from repro.sparql.endpoint import SparqlEndpoint

    def refused(exc):
        if isinstance(exc, service.ServiceOverloaded):
            tracer.samples["service.refused"].append((time.perf_counter(), 1))

    # http: one root span per request, named by the client's X-Bench-Id.
    original_pipelined = wire.serve_pipelined

    def serve_pipelined(reader, writer, read_frame, respond, write_response, **kwargs):
        async def respond_async(frame):  # ``respond`` is a lambda returning a coroutine
            return await respond(frame)

        traced_respond = tracer.traced(
            respond_async, "http.request", root=True,
            request_id=lambda args: getattr(args[0], "headers", {}).get("x-bench-id"),
        )
        return original_pipelined(reader, writer, read_frame, traced_respond,
                                  write_response, **kwargs)

    tracer.replace(http, "serve_pipelined", serve_pipelined)

    # wire: dispatch (with the in-flight depth at entry) and result encoding.
    inflight = [0]
    traced_perform = tracer.traced(wire.perform_op, "wire.perform_op", on_error=refused)

    async def perform_op(service_, request):
        inflight[0] += 1
        tracer.samples["service.inflight"].append((time.perf_counter(), inflight[0]))
        try:
            return await traced_perform(service_, request)
        finally:
            inflight[0] -= 1

    tracer.replace(http, "perform_op", perform_op)
    tracer.patch(http, "result_payload", "wire.encode")

    cls = service.ExtractionService
    for method, name in (("ppr_top_k", "service.ppr"), ("extract_ego", "service.ego"),
                         ("paths", "service.paths"), ("predict", "service.predict"),
                         ("ingest_triples", "service.ingest")):
        tracer.patch(cls, method, name)
    tracer.patch(cls, "sparql_stream", "service.sparql", on_error=refused)
    tracer.patch(cls, "register_checkpoint", "setup.checkpoint")

    # coalesce: the per-request submit, and each window's dispatch as its
    # own root span (a window serves many requests).
    tracer.patch(coalesce.Coalescer, "submit", "coalesce.submit")
    original_init = coalesce.Coalescer.__init__

    def coalescer_init(self, dispatch, *args, **kwargs):
        op = getattr(dispatch, "__name__", "dispatch").replace("_dispatch_", "")
        window_ids = itertools.count()
        traced = tracer.traced(
            dispatch, f"coalesce.dispatch.{op}", root=True,
            request_id=lambda args: f"window-{op}-{next(window_ids)}",
            items=_count_items(1),
        )
        original_init(self, traced, *args, **kwargs)

    tracer.replace(coalesce.Coalescer, "__init__", coalescer_init)

    live = epoch.LiveGraph
    tracer.patch(live, "ppr_top_k", "kernel.ppr", items=_count_items(1))
    tracer.patch(live, "ego_batch", "kernel.ego", items=_count_items(1))
    tracer.patch(live, "paths_batch", "kernel.paths", items=_count_items(1))
    tracer.patch(live, "ingest", "epoch.ingest", items=_count_items(1))
    from repro.sampling import ppr

    tracer.patch(ppr, "batch_ppr_top_k_with_support", "kernel.ppr.miss",
                 items=_count_items(1))
    tracer.patch(service, "run_predict_batch", "kernel.predict", items=_count_items(5))
    tracer.patch(registry.ModelRegistry, "logits", "registry.logits")
    tracer.patch(RGCNNodeClassifier, "predict_logits", "registry.forward")

    tracer.patch(pool.WorkerPool, "call", "pool.call",
                 items=lambda args: args[1] if len(args) > 1 else None)
    tracer.patch(pool.WorkerPool, "ingest", "pool.ingest")
    tracer.patch(pool.WorkerPool, "__init__", "setup.pool_spawn")

    tracer.patch(SparqlEndpoint, "query", "sparql.query")
    tracer.patch(SparqlEndpoint, "stream_pages", "sparql.query")

    tracer.patch(catalog, "mag", "setup.dataset")
    tracer.patch(GraphArtifacts, "warm", "setup.artifacts")
    tracer.patch(store, "open_artifacts", "setup.artifacts")


def install_pipeline(tracer: Tracer) -> None:
    """Wrap the offline pipeline's layers (runs in the benchmark process)."""
    from repro.bench import harness
    from repro.core import api, ibs
    from repro.core.brw import BiasedRandomWalkSampler
    from repro.core.sparql_method import SparqlTOSGExtractor
    from repro.kg.cache import GraphArtifacts
    from repro.kg.graph import KnowledgeGraph
    from repro.models.rgcn import RGCNNodeClassifier
    from repro.sparql.endpoint import SparqlEndpoint

    tracer.patch(SparqlTOSGExtractor, "extract", "core.sparql")
    tracer.patch(BiasedRandomWalkSampler, "sample", "core.brw")
    tracer.patch(ibs.InfluenceBasedSampler, "sample", "core.ibs")
    tracer.patch(ibs, "batch_ppr_top_k", "core.ibs_ppr")
    tracer.patch(KnowledgeGraph, "induced_subgraph", "kg.subgraph")
    tracer.patch(api, "remap_task", "core.remap")
    tracer.patch(SparqlEndpoint, "query", "sparql.query")
    tracer.patch(SparqlEndpoint, "stream_pages", "sparql.query")
    tracer.patch(RGCNNodeClassifier, "train_epoch", "train.epoch")
    tracer.patch(harness, "train_node_classifier", "train.run")
    tracer.patch(GraphArtifacts, "hetero", "transform.hetero")


def _launch(argv: List[str]) -> int:
    """Traced server launcher: ``tracing.py SPANS.json <repro CLI args...>``."""
    out, args = argv[0], argv[1:]
    tracer = Tracer()
    install_serving(tracer)

    def write() -> None:
        tmp = out + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(tracer.dump(), handle)
        os.replace(tmp, out)

    atexit.register(write)
    from repro.cli import main

    return main(args)


if __name__ == "__main__":
    sys.exit(_launch(sys.argv[1:]))
