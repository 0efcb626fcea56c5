"""Serving workloads: open-loop phases against a launched server, then checks.

Phases, in order: an untimed warm-up that lasts until the kernel-cache hit
ratio settles and the first ``/predict`` forward pass is done; rounds of
``light`` (a fixed low rate) and ``busy`` (a fixed rate at 40-60% of the
median capacity measured over ten seeds), each round one segment of both;
with a write stream, ``live``: reads at a low rate plus the writes; then
the capacity search, ``step`` phases up a fixed ladder of rates until two
rates in a row miss the latency limit, from which ``max_rate_rps`` is
interpolated.  Every answer is then compared with the program's scalar
oracles run in this process.
"""

from __future__ import annotations

import itertools
import json
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import mix as mixes
from httpclient import Generator, Request, burst, fetch, get
from stats import percentile, poisson_schedule

#: The latency limit: p99 of a phase at or under this many milliseconds.
LIMIT_MS = 100.0
#: The ``light`` rate (req/s): requests rarely overlap, so coalescing
#: windows hold one item.
LIGHT_RPS = 30.0
#: Warm-up chunk size (requests) and bounds on the number of chunks.
WARM_CHUNK, WARM_MIN, WARM_MAX = 300, 2, 6
#: Warm-up has settled when the chunk hit ratio moves less than this.
WARM_SETTLE = 0.03
#: Hot-set burst: requests in flight at once, and the most popular keys of
#: each cached op it loads.
WARM_INFLIGHT, HOT_KEYS = 64, 768
#: Share of ``--seconds`` each measured phase gets (light: all its segments).
SHARES = {"light": 0.25, "live": 0.3125}
#: Rounds of one light and one busy segment.  ``busy_p50_ms`` is the median
#: of the busy segments' p50s: a host stall or a neighbour's burst then
#: moves one segment, not the metric, and the segments are spread over the
#: measured phases instead of sharing one moment of the host's speed.
ROUNDS = 7
#: Requests of one capacity step: its p99 then has ten samples beyond it
#: (the schedule offers exactly this many).
P99_SAMPLES = 1000
#: The capacity search stops after this many ladder rates in a row miss.
STOP_MISSES = 2
#: Writes of the idle write probe (serve-read) and their rate.
PROBE_WRITES, PROBE_RPS = 40, 20.0
#: Predict answers checked against one forward pass in this process.
PREDICT_SAMPLE = 64
READ_OPS = ("ppr", "ego", "paths", "predict", "sparql")


async def metrics(port: int) -> dict:
    response = await fetch("127.0.0.1", port, get("/metrics", -1))
    if response.status != 200:
        raise RuntimeError(f"/metrics answered {response.status}: {response.body[:200]!r}")
    return json.loads(response.body)


def cache_lookups(snapshot: dict) -> Dict[str, Tuple[int, int, int]]:
    """``kind -> (hits, misses, invalidated)`` of the live kernel caches."""
    live = snapshot["graphs"][mixes.GRAPH]["live"]
    return {kind: (live[f"{kind}_cache"]["hits"], live[f"{kind}_cache"]["misses"],
                   live[f"{kind}_cache"]["invalidated"]) for kind in ("ppr", "ego", "paths")}


def hit_ratio(before: dict, after: dict) -> Optional[float]:
    a, b = cache_lookups(before), cache_lookups(after)
    hits = sum(b[k][0] - a[k][0] for k in a)
    lookups = hits + sum(b[k][1] - a[k][1] for k in a)
    return hits / lookups if lookups else None


class Phase:
    def __init__(self, name: str, requests: List[Request], info: dict,
                 before: dict, after: dict):
        self.name, self.requests, self.info = name, requests, info
        self.before, self.after = before, after

    def reads(self) -> List[Request]:
        return [r for r in self.requests if r.op in READ_OPS]

    def writes(self) -> List[Request]:
        return [r for r in self.requests if r.op == "triples"]

    def offered_rps(self) -> float:
        return len(self.reads()) / self.info["scheduled_s"] if self.info["scheduled_s"] else 0.0

    def latencies_ms(self, requests: Sequence[Request]) -> List[float]:
        """Latency from the due time; a failed request counts as missing any limit."""
        return [r.latency * 1e3 if r.ok else float("inf") for r in requests]

    def p(self, q: float, requests: Optional[Sequence[Request]] = None) -> Optional[float]:
        return percentile(self.latencies_ms(self.reads() if requests is None else requests), q)

    def grew(self) -> bool:
        """Backlog grew: answers had not drained one latency limit after the last send."""
        return self.info["backlog"] > 0 and self.info["drain_s"] > LIMIT_MS / 1e3 + 0.1

    def meets_limit(self) -> bool:
        p99 = self.p(99)
        return p99 is not None and p99 <= LIMIT_MS and not self.grew()


def pooled(name: str, segments: Sequence[Phase]) -> Phase:
    """The segments of one phase as a single phase (their requests together)."""
    info = {"scheduled_s": sum(p.info["scheduled_s"] for p in segments),
            "backlog": max(p.info["backlog"] for p in segments),
            "drain_s": max(p.info["drain_s"] for p in segments)}
    return Phase(name, [r for p in segments for r in p.requests], info,
                 segments[0].before, segments[-1].after)


def median_p50(segments: Sequence[Phase]) -> Optional[float]:
    """Median over the segments of each segment's p50 (``None`` if one lacks samples)."""
    values = [p.p(50) for p in segments]
    return None if None in values else float(np.median(values))


class Session:
    """One connection set to one server, with phase-local seeded streams."""

    def __init__(self, port: int, cfg: dict, seed: int, mix: mixes.ReadMix,
                 writes: Optional[mixes.WriteStream]):
        self.port, self.cfg, self.seed = port, cfg, seed
        self.mix, self.writes = mix, writes
        self.index = itertools.count()
        self.gen = Generator("127.0.0.1", port)
        self.phases: List[Phase] = []

    def _rng(self, tag: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, tag])

    def schedule(self, name: str, tag: int, rate: float, duration: float,
                 write_rps: float = 0.0) -> Tuple[List[float], List[Request]]:
        rng = self._rng(tag)
        offsets = poisson_schedule(rng, rate, duration)
        items = [(float(t), self.mix.request(next(self.index), op, key, name))
                 for t, (op, key) in zip(offsets, self.mix.keys(rng, len(offsets)))]
        if write_rps and self.writes is not None:
            # Writes are periodic from a seeded phase, not Poisson: clusters of
            # Poisson writes compound their stalls, and those rare compounds set
            # the phase's p99 on their own.
            period = 1.0 / write_rps
            for t in np.arange(rng.uniform(0.0, period), duration, period):
                items.append((float(t), self.writes.request(next(self.index), name)))
        items.sort(key=lambda item: item[0])
        return [t for t, _ in items], [r for _, r in items]

    async def phase(self, name: str, offsets, requests) -> Phase:
        before = await metrics(self.port)
        info = await self.gen.run(requests, offsets)
        after = await metrics(self.port)
        phase = Phase(name, requests, info, before, after)
        self.phases.append(phase)
        return phase

    async def warm_up(self) -> dict:
        """Untimed: load the hot set, then Zipf chunks until the hit ratio settles.

        The hot set (the most popular keys of each cached op, and one
        ``/predict`` that triggers the forward pass) goes out as a burst
        with a bounded number in flight.  Chunks of ordinary draws at the
        ``busy`` rate follow until the chunk hit ratio moves less than
        :data:`WARM_SETTLE` (pool mode exports no cache counters, so there
        the minimum number of chunks runs).
        """
        hot = await self.hot_burst("warmup", HOT_KEYS)
        ratios: List[Optional[float]] = []
        rate = self.cfg["busy_rps"]
        for chunk in range(WARM_MAX):
            offsets, requests = self.schedule("warmup", 100 + chunk, rate, WARM_CHUNK / rate)
            phase = await self.phase("warmup", offsets, requests)
            ratios.append(hit_ratio(phase.before, phase.after))
            if len(ratios) >= WARM_MIN and (ratios[-1] is None or (
                    ratios[-2] is not None and abs(ratios[-1] - ratios[-2]) < WARM_SETTLE)):
                break
        return {"hot": hot, "chunks": len(ratios), "hit_ratios": ratios}

    async def hot_burst(self, name: str, per_op: int) -> int:
        hot = [self.mix.request(next(self.index), op, key, name)
               for op, key in self.mix.hot_keys(per_op)]
        before = await metrics(self.port)
        await burst(self.gen, hot, WARM_INFLIGHT)
        self.phases.append(Phase(name, hot, {"scheduled_s": 0.0, "backlog": 0, "drain_s": 0.0},
                                 before, await metrics(self.port)))
        return len(hot)

    async def measured(self, seconds: float, steps: bool = True) -> None:
        cfg = self.cfg
        for i in range(1, ROUNDS + 1):
            await self.phase(f"light{i}", *self.schedule(
                f"light{i}", 20 + i, LIGHT_RPS, SHARES["light"] * seconds / ROUNDS))
            await self.phase(f"busy{i}", *self.schedule(
                f"busy{i}", 40 + i, cfg["busy_rps"], cfg["busy_samples"] / ROUNDS / cfg["busy_rps"]))
        if cfg["write_rps"]:
            # Reads at a low rate under the write stream.  Its read latencies
            # are printed, not bounded: write stalls make them spread by 0.3-0.45
            # across seeds, so light and busy above run without writes.
            await self.phase("live", *self.schedule("live", 6, cfg["live_rps"],
                                                    SHARES["live"] * seconds, cfg["write_rps"]))
        if steps and cfg["write_rps"]:
            # Writes stop before the steps: on serve-live the steps are also
            # the verification phase, read on a fixed final graph.  The
            # writes invalidated cached kernel results; reload the hot set.
            await self.hot_burst("rewarm", HOT_KEYS // 2)
        if steps:
            await self.capacity_search()

    async def capacity_search(self) -> None:
        """Step up the ladder ``step_rps`` until two rates in a row miss the limit.

        Each step offers :data:`P99_SAMPLES` requests.  Below the knee one
        rare stall (a burst of expensive requests) alone sets a
        1000-request window's p99, so a single miss does not end the
        search; past the knee every step misses.  Stopping there drives the
        server just past its knee, not into a queue that only refusals
        would end.
        """
        misses = 0
        for number, rate in enumerate(self.cfg["step_rps"], 1):
            name = f"step{number}"
            phase = await self.phase(name, *self.schedule(name, 10 + number, rate,
                                                          P99_SAMPLES / rate))
            misses = 0 if phase.meets_limit() else misses + 1
            if misses == STOP_MISSES:
                return

    async def write_probe(self) -> Phase:
        rng = self._rng(9)
        offsets = np.cumsum(rng.exponential(1.0 / PROBE_RPS, size=PROBE_WRITES))
        requests = [self.writes.request(next(self.index), "probe") for _ in offsets]
        return await self.phase("probe", list(offsets), requests)

    def get(self, name: str) -> Phase:
        return next(p for p in self.phases if p.name == name)

    def segments(self, name: str) -> List[Phase]:
        """The numbered segments ``name1 .. nameN`` of a phase, in order."""
        return [p for p in self.phases
                if p.name.startswith(name) and p.name[len(name):].isdigit()]


def max_rate(points: Sequence[Phase]) -> Tuple[float, str]:
    """Highest offered rate meeting the limit, interpolated toward the next miss.

    ``points`` are taken in increasing offered rate.  Between the fastest
    phase that meets the limit and the phase above it (which misses), the
    rate is interpolated linearly on p99 to where p99 reaches the limit
    (the passing rate itself when the miss was a failure or a growing
    backlog, not latency).  A miss below a faster pass is a stall, not the
    knee, and does not cap the result.
    """
    points = sorted(points, key=Phase.offered_rps)
    passing = [i for i, phase in enumerate(points) if phase.meets_limit()]
    if not passing:
        first = points[0]
        p99 = first.p(99)
        scale = LIMIT_MS / p99 if p99 and p99 != float("inf") else 0.5
        return first.offered_rps() * min(scale, 1.0), f"below {first.name}"
    best = passing[-1]
    if best == len(points) - 1:
        last = points[best]
        return last.offered_rps(), f"at least {last.name} (every step met the limit)"
    previous, phase = points[best], points[best + 1]
    lo, hi = previous.p(99), phase.p(99)
    if hi is None or hi <= LIMIT_MS or hi == float("inf"):
        return previous.offered_rps(), f"at {previous.name}"
    r0, r1 = previous.offered_rps(), phase.offered_rps()
    return r0 + (LIMIT_MS - lo) * (r1 - r0) / (hi - lo), f"between {previous.name} and {phase.name}"


# -- answer checks ----------------------------------------------------------------


class Oracle:
    """Scalar oracles of the program, run in this process on a given graph."""

    def __init__(self, kg):
        from repro.kg.cache import artifacts_for
        from repro.sparql.endpoint import SparqlEndpoint

        self.kg = kg
        self.adjacency = artifacts_for(kg).csr("both")
        self.endpoint = SparqlEndpoint(kg)
        self.memo: Dict[Tuple[str, object], object] = {}

    def expected(self, op: str, key):
        memo_key = (op, key)
        if memo_key not in self.memo:
            self.memo[memo_key] = self._compute(op, key)
        return self.memo[memo_key]

    def _compute(self, op: str, key):
        from repro.models.shadowsaint import extract_ego
        from repro.sampling.paths import enumerate_paths_scalar
        from repro.sampling.ppr import ppr_top_k

        if op == "ppr":
            return [[int(n), float(s)] for n, s in
                    ppr_top_k(self.adjacency, key, mixes.PPR_K, 0.25, 2e-4)]
        if op == "ego":
            ego = extract_ego(self.kg, key, mixes.EGO_DEPTH, mixes.EGO_FANOUT, 0)
            return {name: [int(v) for v in getattr(ego, name)]
                    for name in ("nodes", "src", "dst", "rel")}
        if op == "paths":
            return enumerate_paths_scalar(self.kg, key[0], key[1], mixes.PATHS_MAX_HOPS,
                                          mixes.PATHS_MAX_PATHS)
        if op == "sparql":
            result = self.endpoint.query(mixes.sparql_text(self.kg, key))
            rows = list(zip(*(result.columns[v].tolist() for v in result.variables)))
            return [list(result.variables), [list(r) for r in rows]]
        raise ValueError(op)


def served(op: str, body: bytes):
    data = json.loads(body)
    if op != "sparql":
        return data
    variables = data["head"]["vars"]
    rows = [[int(b[v]["value"]) for v in variables] for b in data["results"]["bindings"]]
    return [variables, rows]


def check_reads(requests: Sequence[Request], oracle: Oracle) -> int:
    """Compare every answered non-predict read with its oracle; mark the wrong ones."""
    wrong = 0
    for r in requests:
        if r.ok and r.op in ("ppr", "ego", "paths", "sparql"):
            if served(r.op, r.body) != oracle.expected(r.op, r.key):
                r.error = "wrong answer"
                wrong += 1
    return wrong


def check_predict(requests: Sequence[Request], kg, checkpoint: str, seed: int) -> Tuple[int, int]:
    """A seeded sample of /predict answers against one forward pass here."""
    from repro.serve.kernels import run_predict_batch
    from repro.serve.registry import ModelRegistry

    answered = [r for r in requests if r.ok and r.op == "predict"]
    keys = sorted({r.key for r in answered})
    if not keys:
        return 0, 0
    rng = np.random.default_rng([seed, 77])
    sample = sorted(rng.choice(keys, size=min(PREDICT_SAMPLE, len(keys)), replace=False).tolist())
    registry = ModelRegistry()
    registry.add(mixes.GRAPH, checkpoint, expected_graph=kg.name)
    payloads = run_predict_batch(kg, registry, mixes.GRAPH, "PV", "RGCN", sample,
                                 mixes.PREDICT_K, 0)
    expected = {key: json.loads(json.dumps(p)) for key, p in zip(sample, payloads)}
    wrong = checked = 0
    for r in answered:
        if r.key in expected:
            checked += 1
            if json.loads(r.body) != expected[r.key]:
                r.error = "wrong answer"
                wrong += 1
    return checked, wrong


def acknowledged(requests: Sequence[Request]) -> List[Tuple[int, List[List[int]]]]:
    """``(epoch, triples)`` of every write the server acknowledged, in epoch order."""
    out = []
    for r in requests:
        if r.op == "triples" and r.ok:
            answer = json.loads(r.body)
            if answer.get("added") != len(r.key):
                r.error = f"write added {answer.get('added')} of {len(r.key)} triples"
                continue
            out.append((int(answer["epoch"]), r.key))
    return sorted(out)


def failure_table(phases: Sequence[Phase]) -> Tuple[Dict[str, dict], Dict[str, str]]:
    """Per phase: sent, ok, refused (503), failed; first body per failing status."""
    table: Dict[str, dict] = {}
    first: Dict[str, str] = {}
    for phase in phases:
        row = table.setdefault(phase.name, {"sent": 0, "ok": 0, "refused": 0, "failed": 0})
        for r in phase.requests:
            row["sent"] += 1
            if r.ok:
                row["ok"] += 1
                continue
            if r.status == 503:
                row["refused"] += 1
            else:
                row["failed"] += 1
            label = f"HTTP {r.status}" if r.status not in (None, 200) else r.error
            first.setdefault(label, (r.error or "") + " " + r.body[:300].decode("utf-8", "replace"))
    return table, first
