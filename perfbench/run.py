"""The repository's benchmark: one command, end to end and layer by layer.

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 40 --trace 0

Workloads and their rates are in ``workloads.json``; why each exists, and
which layers it exercises or bypasses, is in ``README.md``.  With
``--trace 0`` the run measures every end-to-end metric untraced; with
``--trace 1`` it runs the workload twice, untraced then traced, and
reports the per-layer metrics plus the tracing overhead.  Every answer is
checked against the program's scalar oracles.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A wrong answer or a lost write exits with code 1.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import sys
import time
from pathlib import Path

# One BLAS thread in this process and in every server it starts: the host
# has two cores and the load generator needs one, and a two-thread BLAS that
# shares a core spins at its barriers, which turns training and inference
# times into noise.  Set before anything imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((HERE / "workloads.json").read_text())

#: End-to-end metrics: name -> unit (bounds live in BENCHMARK.json).
END_TO_END = {
    "setup_s": "s", "light_p50_ms": "ms", "busy_p50_ms": "ms",
    "write_p50_ms": "ms", "mem_mb": "MB", "ibs_extract_s": "s", "test_acc": "ratio",
}
#: Printed with the end-to-end metrics but not bounded: across ten seeds their
#: spread exceeded, or nearly reached, the largest bound (0.25) a metric may
#: have (README.md).
UNBOUNDED = {"light_p95_ms": "ms", "busy_p99_ms": "ms", "max_rate_rps": "req/s",
             "sparql_extract_s": "s", "brw_extract_s": "s", "train_s": "s"}
#: Server launches whose time-to-first-answer gives ``setup_s`` (median).
SETUP_LAUNCHES = 3
#: The generator fell behind if its p99 lateness exceeds this (ms).
LATE_LIMIT_MS = 25.0


_START = time.perf_counter()


def log(text: str = "") -> None:
    print(text, flush=True)


def stage(text: str) -> None:
    log(f"[{time.perf_counter() - _START:6.1f}s] {text}")


def server_args(cfg: dict, fixtures: dict) -> list:
    args = ["--dataset", "mag", "--scale", cfg["scale"], "--seed", str(CONFIG["fixture_seed"]),
            "--checkpoint", str(fixtures["checkpoint"])]
    if cfg["workers"]:
        args += ["--workers", str(cfg["workers"]), "--mmap-dir", str(fixtures["store"])]
    return args


def prepare(name: str):
    """Graph, fixtures and request generators; nothing here is timed."""
    import server
    from mix import ReadMix
    from repro.datasets import catalog

    cfg = CONFIG["workloads"][name]
    seed = CONFIG["fixture_seed"]
    bundle = catalog.mag(cfg["scale"], seed)
    fixtures = {"checkpoint": server.checkpoint("mag", cfg["scale"], seed,
                                                CONFIG["checkpoint_epochs"])}
    if cfg["workers"]:
        fixtures["store"] = server.artifact_store("mag", cfg["scale"], seed)
    mix = ReadMix(bundle.kg, bundle.task("PV").target_nodes)
    # The graph and the mix live for the whole run: keep them out of the
    # collector's way so that collections between phases stay short.
    gc.collect()
    gc.freeze()
    return cfg, bundle, fixtures, mix


def offline_bundle(cfg: dict, bundle):
    """The offline pipeline's graph: the same for every workload."""
    from repro.datasets import catalog

    if cfg["scale"] == CONFIG["pipeline_scale"]:
        return bundle
    return catalog.mag(CONFIG["pipeline_scale"], CONFIG["fixture_seed"])


def base_graph(cfg: dict, bundle, fixtures: dict):
    """The graph the server starts from: the mapped store, or the generated graph."""
    if cfg["workers"]:
        from repro.kg.store import open_artifacts

        return open_artifacts(str(fixtures["store"])).kg
    return bundle.kg


async def serve_pass(name, cfg, bundle, fixtures, mix, seed, seconds, state: Path,
                     traced: bool, full: bool, between=None) -> dict:
    """Launch, warm up, run the phases, stop.

    A ``full`` pass launches the server ``SETUP_LAUNCHES`` times (median
    set-up time), runs the capacity steps and, without a write stream, the
    idle write probe; then it reads the server's memory before stopping it.
    ``between()`` runs after the warm-up and after the phases, while the
    server idles.
    """
    import serving
    import server
    from mix import WRITE_SEED, WriteStream
    import numpy as np

    setups = []
    launches = SETUP_LAUNCHES if full else 1
    trace_out = state / f"spans-{name}.json" if traced else None
    for i in range(launches):
        srv = server.Server(server_args(cfg, fixtures), state / f"server-{name}.log",
                            trace_out=trace_out)
        setups.append(srv.setup_s)
        if i < launches - 1:
            srv.stop()
    writes = WriteStream(bundle.kg, np.random.default_rng(WRITE_SEED))
    session = serving.Session(srv.port, cfg, seed, mix, writes)
    try:
        await session.gen.open()
        warm = await session.warm_up()
        stage(f"set up {launches}x and warmed up")
        if between is not None:
            between()
        await session.measured(seconds, steps=full)
        if full and not cfg["write_rps"]:
            await session.write_probe()
        mem = srv.pss_mb()
        if between is not None:
            between()
    finally:
        await session.gen.close()
        srv.stop()
    return {"session": session, "setups": setups, "warm": warm, "mem": mem}


def verify(cfg, bundle, fixtures, session, seed) -> dict:
    """Answer checks; returns counts and problems (wrong answers, lost writes)."""
    import serving
    from mix import GRAPH
    from repro.kg.epoch import LiveGraph

    problems = []
    if not cfg["write_rps"]:
        reads = [r for p in session.phases for r in p.requests]
        kg = bundle.kg
    else:
        # Reads during the write stream raced epochs; the steps ran after
        # the writes stopped, on base + every acknowledged triple.
        writes = [r for p in session.phases for r in p.writes()]
        acked = serving.acknowledged(writes)
        live = LiveGraph(base_graph(cfg, bundle, fixtures))
        for _, triples in acked:
            live.ingest(triples)
        kg = live.epoch.cold_rebuild()
        served = session.phases[-1].after["graphs"][GRAPH]["live"]
        base_rows = len(bundle.kg.triples)
        added = sum(len(t) for _, t in acked)
        if served["base_rows"] + served["delta_rows"] != base_rows + added:
            problems.append(f"lost writes: server holds {served['base_rows'] + served['delta_rows']}"
                            f" triples, base {base_rows} + acknowledged {added}")
        if any(r.ok is False and r.status == 200 for r in writes):
            problems.append("a write was answered 200 but not acknowledged in full")
        reads = [r for p in session.phases if p.name.startswith(("rewarm", "step"))
                 for r in p.requests]
    oracle = serving.Oracle(kg)
    wrong = serving.check_reads(reads, oracle)
    checked, wrong_predict = serving.check_predict(reads, kg, str(fixtures["checkpoint"]), seed)
    if wrong or wrong_predict:
        problems.append(f"{wrong + wrong_predict} wrong answers")
    return {"checked_reads": sum(r.ok or r.error == "wrong answer" for r in reads
                                 if r.op in ("ppr", "ego", "paths", "sparql")),
            "checked_predict": checked, "problems": problems}


def report_phases(session) -> None:
    import serving

    table, first = serving.failure_table(session.phases)
    log("phase      sent     ok  refused  failed")
    for name, row in table.items():
        log(f"{name:8} {row['sent']:6} {row['ok']:6} {row['refused']:8} {row['failed']:7}")
    for label, body in first.items():
        log(f"  first failure [{label}]: {body.strip()[:300]}")
    for phase in session.phases:
        if phase.name in ("warmup", "rewarm"):
            continue
        reads = phase.reads()
        n = len(reads)
        log(f"{phase.name:6} offered {phase.offered_rps():7.1f} req/s  n={n:5}  "
            f"p50={_fmt(phase.p(50))} p95={_fmt(phase.p(95))} p99={_fmt(phase.p(99))} ms  "
            f"backlog={phase.info['backlog']} drain={phase.info['drain_s'] * 1e3:.0f}ms  "
            f"cache hit={_fmt(serving.hit_ratio(phase.before, phase.after))}")


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.3f}" if value < 10 else f"{value:.1f}"


def lateness_problems(session) -> tuple:
    """The generator's p99 lateness over the timed phases, and the run's
    invalidity if the generator, not the server, fell behind."""
    from stats import percentile

    measured = [r for p in session.phases if p.name != "warmup" for r in p.requests]
    late = percentile([(r.sent - r.due) * 1e3 for r in measured], 99)
    if late is not None and late > LATE_LIMIT_MS:
        return late, [f"invalid run: the generator's p99 lateness was {late:.1f} ms"]
    return late, []


def counts(session, pipeline_problems) -> tuple:
    requests = [r for p in session.phases for r in p.requests]
    return len(requests) + 3, sum(not r.ok for r in requests) + len(pipeline_problems)


def run_untraced(name, seed, seconds, state) -> dict:
    import pipeline
    import serving
    from stats import median, percentile

    cfg, bundle, fixtures, mix = prepare(name)
    log(f"== {name}: seed {seed}, {seconds}s measured, MAG-{cfg['scale']} "
        f"({bundle.kg.num_nodes} nodes, {len(bundle.kg.triples)} triples)")
    stage("prepared")
    # The offline passes are spread over the run (before the server, after
    # the warm-up, after the phases) so that the fastest pass is taken from
    # the whole run, not from one moment of the host's speed.
    offline_graph = offline_bundle(cfg, bundle)
    passes = []

    def offline_passes(count: int) -> None:
        passes.extend(pipeline.run(offline_graph, CONFIG["fixture_seed"],
                                   CONFIG["pipeline_epochs"], passes=count))

    offline_passes(2)
    served = asyncio.run(serve_pass(name, cfg, bundle, fixtures, mix, seed, seconds, state,
                                    False, True, between=lambda: offline_passes(4)))
    session, setups, warm, mem = (served[k] for k in ("session", "setups", "warm", "mem"))
    stage("serving done")
    offline = pipeline.summarize(passes)
    pipeline_problems = pipeline.check(offline, CONFIG["pipeline_expected"])
    checks = verify(cfg, bundle, fixtures, session, seed)
    stage("answers checked")

    light, busy = (serving.pooled(n, session.segments(n)) for n in ("light", "busy"))
    writes = session.get("live" if cfg["write_rps"] else "probe").writes()
    write_p50 = percentile(busy.latencies_ms(writes) if writes else [], 50)
    steps = [p for p in session.phases if p.name.startswith("step")]
    rate, where = serving.max_rate([busy] + steps)
    values = {
        "setup_s": median(setups), "light_p50_ms": light.p(50), "light_p95_ms": light.p(95),
        "busy_p50_ms": serving.median_p50(session.segments("busy")), "busy_p99_ms": busy.p(99),
        "max_rate_rps": rate,
        "write_p50_ms": write_p50, "mem_mb": mem,
        "sparql_extract_s": offline["sparql"]["extract_s"],
        "brw_extract_s": offline["brw"]["extract_s"],
        "ibs_extract_s": offline["ibs"]["extract_s"],
        "train_s": sum(offline[m]["train_s"] for m in pipeline.METHODS),
        "test_acc": sum(offline[m]["test_acc"] for m in pipeline.METHODS) / 3,
    }

    log(f"warm-up: {warm['hot']} hot keys, then {warm['chunks']} chunks, "
        f"hit ratios {[_fmt(h) for h in warm['hit_ratios']]}")
    report_phases(session)
    log(f"setup launches: {[round(s, 4) for s in setups]} s")
    log(f"max_rate_rps {where}")
    for method in pipeline.METHODS:
        o = offline[method]
        log(f"pipeline {method:6} extract {o['extract_s']:.4f}s "
            f"(fastest of {o['extract_repeats']}) train {o['train_s']:.3f}s  "
            f"|V'|={o['nodes']} |E'|={o['edges']} acc={o['test_acc']:.4f}")
    log(f"checked {checks['checked_reads']} read answers and {checks['checked_predict']} "
        f"/predict answers against the scalar oracles")
    attempted, failed = counts(session, pipeline_problems)
    log(f"fail_share {failed / attempted:.5f} ratio ({failed} of {attempted} attempts)")
    late, problems = lateness_problems(session)
    problems += checks["problems"] + pipeline_problems
    missing = [k for k, v in values.items() if v is None]
    if missing:
        problems.append(f"too few samples for {missing}; raise --seconds")
    log(f"generator lateness p99 {_fmt(late)} ms")
    per_segment = "+".join(str(len(p.reads())) for p in session.segments("busy"))
    samples = {"light_p50_ms": len(light.reads()), "light_p95_ms": len(light.reads()),
               "busy_p50_ms": f"{per_segment}, median of the segments' p50",
               "busy_p99_ms": len(busy.reads()), "write_p50_ms": len(writes)}
    log("")
    for key, unit in {**END_TO_END, **UNBOUNDED}.items():
        extra = f"  (n={samples[key]})" if key in samples else ""
        bounded = "" if key in END_TO_END else "  (printed, not bounded)"
        log(f"{key:18} {_fmt(values[key]):>10} {unit}{extra}{bounded}")
    return finish(values, END_TO_END, attempted, failed, problems)


def run_traced(name, seed, seconds, state) -> dict:
    import layers
    import pipeline
    import serving
    from tracing import Tracer, install_pipeline

    cfg, bundle, fixtures, mix = prepare(name)
    log(f"== {name} traced: seed {seed}, untraced pass then traced pass")
    plain = pipeline.summarize(pipeline.run(offline_bundle(cfg, bundle), CONFIG["fixture_seed"],
                                            CONFIG["pipeline_epochs"]))
    tracer = Tracer()
    install_pipeline(tracer)
    try:
        offline = pipeline.summarize(pipeline.run(
            offline_bundle(cfg, bundle), CONFIG["fixture_seed"], CONFIG["pipeline_epochs"],
            tracer=tracer))
    finally:
        tracer.uninstall()
    pipeline_problems = pipeline.check(offline, CONFIG["pipeline_expected"])
    problems = list(pipeline_problems)

    passes = {}
    for traced in (False, True):
        passes[traced] = asyncio.run(serve_pass(
            name, cfg, bundle, fixtures, mix, seed, seconds, state, traced, False))["session"]
    session = passes[True]
    dump = json.loads((state / f"spans-{name}.json").read_text())
    timed = [p for p in session.phases if p.name.rstrip("0123456789") in ("light", "busy", "live")]
    measured = [r for p in timed for r in p.requests]
    values = layers.serving(dump, measured, timed[0].before, timed[-1].after)
    values.update(layers.pipeline(tracer.dump(), offline))
    values.update(layers.generator(measured))
    untraced = passes[False]
    light = {run: serving.pooled("light", run.segments("light")).p(50) for run in (untraced, session)}
    busy = {run: serving.median_p50(run.segments("busy")) for run in (untraced, session)}
    values["trace.overhead.light_p50_ms"] = light[session] - light[untraced]
    values["trace.overhead.busy_p50_ms"] = busy[session] - busy[untraced]
    total = lambda out: sum(out[m]["extract_s"] + out[m]["train_s"] for m in pipeline.METHODS)
    values["trace.overhead.pipeline_s"] = total(offline) - total(plain)
    if not cfg["write_rps"]:
        problems += verify(cfg, bundle, fixtures, session, seed)["problems"]
    for run in (untraced, session):
        problems += lateness_problems(run)[1]
    if values["trace.stage_sum_ok_share"] < layers.STAGE_SUM_MIN_SHARE:
        problems.append(f"stage self times matched their server span for only "
                        f"{values['trace.stage_sum_ok_share']:.4f} of requests "
                        f"(at least {layers.STAGE_SUM_MIN_SHARE} required)")

    report_phases(session)
    log(f"stage self times within {layers.STAGE_TOLERANCE_MS} ms or "
        f"{layers.STAGE_TOLERANCE_SHARE:.0%} of the request's server span: "
        f"{values['trace.stage_sum_ok_share']:.4f} of requests, at least "
        f"{layers.STAGE_SUM_MIN_SHARE} required "
        f"(max error {values['trace.stage_sum_max_err_ms']:.4f} ms)")
    log(f"tracing overhead: light p50 {values['trace.overhead.light_p50_ms']:+.3f} ms, "
        f"busy p50 {values['trace.overhead.busy_p50_ms']:+.3f} ms, "
        f"pipeline {values['trace.overhead.pipeline_s']:+.3f} s")
    if cfg["workers"]:
        log("pool workers start via forkserver and are not traced: in-worker time "
            "(kernels, caches, forward passes, SPARQL) shows only inside pool.call_ms; "
            "the kernel.*, cache.*, registry.* and sparql.query_ms rows read 0 here "
            "by construction")
    log("")
    units = dict(layers.PER_LAYER)
    for key, unit in layers.PER_LAYER:
        log(f"{key:32} {values[key]:>12.4f} {unit}")
    attempted, failed = counts(session, pipeline_problems)
    return finish(values, units, attempted, failed, problems)


def finish(values, units, attempted, failed, problems) -> dict:
    for problem in problems:
        log(f"PROBLEM: {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CONFIG["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program's sources are missing ({ROOT / 'src' / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    state = ROOT / ".perfbench" / "runs"
    state.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    runner = run_traced if args.trace else run_untraced
    result = runner(args.workload, args.seed, args.seconds, state)
    log(f"run took {time.perf_counter() - start:.1f}s")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
