"""Request mixes: seeded keys, turned into HTTP requests for one graph.

Keys follow a Zipf-like popularity over every node of the graph.  The
popularity *ranking* is fixed (:data:`RANK_SEED`), so every seed shares the
same hot set; the seed only chooses the draws.  That keeps the cache hit
ratio a property of the workload, not of the seed.
"""

from __future__ import annotations

import json
from typing import List, Sequence, Tuple
from urllib.parse import quote

import numpy as np

from httpclient import Request, get, post_json
from stats import ranking, zipf_draw

#: Fixed popularity ranking shared by every seed.
RANK_SEED = 20240
#: Fixed sequence of written triples shared by every seed: which cached
#: results a write invalidates is then a property of the workload, and the
#: seed only moves the writes in time.
WRITE_SEED = 20241
#: The served graph's name.
GRAPH = "mag"
#: Zipf exponent of key popularity: after the warm-up it settles the kernel
#: cache hit ratio at about 0.7 on both workloads (README.md).
ZIPF_EXPONENT = 1.0
#: Read mix shares, in the order keys are drawn.
READ_MIX = (("ppr", 0.35), ("ego", 0.25), ("paths", 0.20), ("predict", 0.15), ("sparql", 0.05))

PPR_K = 16
EGO_DEPTH, EGO_FANOUT = 2, 8
PATHS_MAX_HOPS, PATHS_MAX_PATHS = 3, 16
PREDICT_K = 5
SPARQL_LIMIT = 16
WRITE_TRIPLES = 3


def partner_pairs(kg, seed: int = RANK_SEED) -> np.ndarray:
    """One ``(src, dst)`` pair per node with out-edges, ``dst`` 1-3 hops away.

    ``dst`` is the end of a seeded directed walk, so every pair has at least
    one path within :data:`PATHS_MAX_HOPS` and ``/paths`` never answers
    empty by construction.
    """
    rng = np.random.default_rng(seed)
    s, o = np.asarray(kg.triples.s), np.asarray(kg.triples.o)
    order = np.argsort(s, kind="stable")
    s_sorted, o_sorted = s[order], o[order]
    starts = np.searchsorted(s_sorted, np.arange(kg.num_nodes))
    ends = np.searchsorted(s_sorted, np.arange(kg.num_nodes), side="right")
    pairs = []
    for src in np.nonzero(ends > starts)[0]:
        node, hops = int(src), int(rng.integers(1, PATHS_MAX_HOPS + 1))
        for _ in range(hops):
            if ends[node] == starts[node]:
                break
            nxt = int(o_sorted[rng.integers(starts[node], ends[node])])
            if nxt == src:
                break
            node = nxt
        if node != src:
            pairs.append((int(src), node))
    return np.asarray(pairs, dtype=np.int64)


class ReadMix:
    """Seeded read requests against :data:`GRAPH` (a PV checkpoint is served)."""

    def __init__(self, kg, targets: Sequence[int]):
        self.kg = kg
        self.nodes = np.arange(kg.num_nodes)
        self.targets = np.asarray(targets)
        self.pairs = partner_pairs(kg)

    def keys(self, rng: np.random.Generator, count: int) -> List[Tuple[str, object]]:
        """``count`` ``(op, key)`` draws in mix proportions, shuffled."""
        ops = rng.choice(len(READ_MIX), size=count, p=[share for _, share in READ_MIX])
        out: List[Tuple[str, object]] = [None] * count  # type: ignore[list-item]
        for code, (op, _) in enumerate(READ_MIX):
            where = np.nonzero(ops == code)[0]
            if op == "predict":
                keys = zipf_draw(rng, self.targets, ZIPF_EXPONENT, len(where), RANK_SEED)
            elif op == "paths":
                index = zipf_draw(rng, np.arange(len(self.pairs)), ZIPF_EXPONENT,
                                  len(where), RANK_SEED)
                keys = [tuple(int(v) for v in self.pairs[i]) for i in index]
            else:
                keys = zipf_draw(rng, self.nodes, ZIPF_EXPONENT, len(where), RANK_SEED)
            for position, key in zip(where, keys):
                out[position] = (op, key if op == "paths" else int(key))
        return out

    def hot_keys(self, per_op: int) -> List[Tuple[str, object]]:
        """The ``per_op`` most popular keys of each cached op, interleaved."""
        nodes = ranking(self.nodes, RANK_SEED)[:per_op]
        pairs = self.pairs[ranking(np.arange(len(self.pairs)), RANK_SEED)[:per_op]]
        out: List[Tuple[str, object]] = []
        for node, pair in zip(nodes, pairs):
            out += [("ppr", int(node)), ("ego", int(node)),
                    ("paths", tuple(int(v) for v in pair))]
        out.append(("predict", int(ranking(self.targets, RANK_SEED)[0])))
        return out

    def request(self, index: int, op: str, key, phase: str) -> Request:
        g = GRAPH
        if op == "ppr":
            path = f"/ppr?graph={g}&target={key}&k={PPR_K}"
        elif op == "ego":
            path = f"/ego?graph={g}&root={key}&depth={EGO_DEPTH}&fanout={EGO_FANOUT}"
        elif op == "paths":
            path = (f"/paths?graph={g}&src={key[0]}&dst={key[1]}"
                    f"&max_hops={PATHS_MAX_HOPS}&max_paths={PATHS_MAX_PATHS}")
        elif op == "predict":
            path = f"/predict?graph={g}&task=PV&node={key}&k={PREDICT_K}"
        elif op == "sparql":
            path = f"/sparql?graph={g}&query={quote(sparql_text(self.kg, key))}"
        else:
            raise ValueError(f"not a read op: {op}")
        return Request(index, op, key, phase, get(path, index))


def sparql_text(kg, node: int) -> str:
    return (f"select ?p ?o where {{ <{kg.node_vocab.term(int(node))}> ?p ?o }} "
            f"limit {SPARQL_LIMIT}")


class WriteStream:
    """Schema-valid new edges between existing nodes, a few per write.

    Each new triple re-uses a relation's observed (subject, object) pairing
    rule: subject of one existing ``r`` edge, object of another, so node
    types stay those the schema puts on ``r``.  Triples already present (or
    already written) are skipped.
    """

    def __init__(self, kg, rng: np.random.Generator):
        self.rng = rng
        self.s = np.asarray(kg.triples.s)
        self.p = np.asarray(kg.triples.p)
        self.o = np.asarray(kg.triples.o)
        self.seen = set(zip(self.s.tolist(), self.p.tolist(), self.o.tolist()))

    def triples(self) -> List[List[int]]:
        out: List[List[int]] = []
        while len(out) < WRITE_TRIPLES:
            a, b = self.rng.integers(0, len(self.s), size=2)
            if self.p[a] != self.p[b]:
                continue
            triple = (int(self.s[a]), int(self.p[a]), int(self.o[b]))
            if triple[0] == triple[2] or triple in self.seen:
                continue
            self.seen.add(triple)
            out.append(list(triple))
        return out

    def request(self, index: int, phase: str) -> Request:
        triples = self.triples()
        body = json.dumps({"graph": GRAPH, "triples": triples}).encode()
        return Request(index, "triples", triples, phase, post_json("/triples", body, index))
