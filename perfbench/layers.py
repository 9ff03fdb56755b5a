"""Where the traced run wraps the library, and the per-layer metrics it reports.

Layers are the library's packages.  Each wrapper sits at a public entry of
its layer (or, where a layer is reached through a name another module
imported, at that imported name), so a span measures one call into the
layer as its callers make it.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Sequence, Tuple

from perfbench import stats
from perfbench.tracing import ATTR, END, NAME, PID, START, Span, Tracer, outermost

LAYERS = (
    "topologies",
    "embedding",
    "core",
    "baselines",
    "forwarding",
    "graph",
    "failures",
    "runner",
    "store",
    "serve",
)

BASELINES = ("fcp", "lfa", "reconvergence")


def _size(args, kwargs, result):
    return len(result)


def _result(args, kwargs, result):
    return result


def _op(args, kwargs, result):
    request = args[1] if len(args) > 1 else kwargs.get("request", {})
    return [request.get("op"), bool(result.get("ok")), result.get("error_type")]


def _claim_wait(args, kwargs, result):
    if result is None:
        return None
    return time.time() - float(result.get("submitted_s") or time.time())


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    from repro.baselines.fcp import FailureCarryingPackets
    from repro.baselines.lfa import LoopFreeAlternates
    from repro.baselines.reconvergence import Reconvergence
    from repro.core import scheme as core_scheme
    from repro.core.scheme import PacketRecycling
    from repro.embedding import builder, genus
    from repro.forwarding.scheme import ForwardingScheme
    from repro.graph.spcache import ShortestPathEngine
    from repro.runner import aggregate, executor
    from repro.runner import cache as runner_cache
    from repro.store.database import CampaignStore
    from repro.store.jobs import JobQueue
    from repro.store.serve import ServeSession
    from repro.topologies.corpus import TopologySpec

    patch = tracer.patch
    patch(TopologySpec, "build", "topologies", "topologies.build")

    patch(core_scheme, "embed", "embedding", "embedding.embed")
    patch(runner_cache, "embed", "embedding", "embedding.embed")
    patch(builder, "minimise_genus", "embedding", "embedding.minimise_genus")
    patch(genus, "is_planar", "embedding", "embedding.is_planar", _result)
    patch(genus, "greedy_insertion_rotation", "embedding", "embedding.greedy_insertion")
    patch(genus, "embedding_score", "embedding", "embedding.score")
    patch(genus, "local_search_rotation", "embedding", "embedding.local_search")
    patch(genus, "repair_self_paired_edges", "embedding", "embedding.self_paired_repair")

    patch(PacketRecycling, "__init__", "core", "core.build")
    patch(PacketRecycling, "deliver_many", "core", "core.pr.deliver_many", _size)
    for cls, key in (
        (FailureCarryingPackets, "fcp"),
        (LoopFreeAlternates, "lfa"),
        (Reconvergence, "reconvergence"),
    ):
        patch(cls, "__init__", "baselines", f"baselines.{key}.build")
        patch(cls, "deliver_many", "baselines", f"baselines.{key}.deliver_many", _size)

    patch(ForwardingScheme, "deliver", "forwarding", "forwarding.deliver")

    patch(ShortestPathEngine, "__init__", "graph", "graph.engine_build")
    for method in ("sssp", "sssp_indexed", "sssp_tree"):
        patch(ShortestPathEngine, method, "graph", "graph.sssp")

    patch(executor, "generate_scenarios", "failures", "failures.generate", _size)
    patch(executor, "all_affecting_pairs", "failures", "failures.affected_pairs")

    patch(executor, "run_cell", "runner", "runner.cell")
    patch(aggregate, "topology_summary_rows", "runner", "runner.aggregate")
    patch(runner_cache.ArtifactCache, "get_or_build", "runner", "runner.artifact")

    patch(CampaignStore, "append_record", "store", "store.append")
    patch(CampaignStore, "query", "store", "store.query", _size)

    patch(ServeSession, "handle", "serve", "serve.handle", _op)
    patch(JobQueue, "claim", "serve", "serve.claim", _claim_wait)


def _total(spans: Sequence[Span], name: str) -> float:
    return sum(span[END] - span[START] for span in outermost(spans, name))


def _count(spans: Sequence[Span], name: str) -> int:
    return sum(1 for span in spans if span[NAME] == name)


def _ms(values: List[float]) -> Dict[str, float]:
    if not values:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}
    return stats.describe([1000.0 * value for value in values])


def metric_names() -> List[str]:
    """Every per-layer metric, in report order (the traced run reports all
    of them on every workload; a layer a workload never calls reads 0)."""
    return list(layer_metrics([], {}, {}, 1, {}).keys())


def layer_metrics(
    spans: Sequence[Span],
    self_by_layer: Dict[str, float],
    counters: Dict[str, Any],
    reps: int,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics of a traced run, per measured repetition.

    ``spans`` are the spans of every process that fall in the measured
    repetitions; ``self_by_layer`` is the wall-time split of the measured
    thread (see :func:`perfbench.tracing.attribute_wall`); ``counters``
    holds counts the program itself keeps (engine, outcome-memo, artifact
    cache, serve counters) summed over the repetitions; ``extra`` carries
    metrics the workload measured directly (client latency, trace overhead).
    Times and counts are divided by ``reps``; ratios come with their base.
    """
    per = 1.0 / max(1, reps)
    out: Dict[str, float] = {}

    def put(name: str, value: float) -> None:
        out[name] = value

    # embedding
    planar = [span for span in spans if span[NAME] == "embedding.is_planar"]
    by_key = {(span[PID], span[0]): span for span in spans}
    deferred = 0
    for span in planar:
        parent = by_key.get((span[PID], span[1]))
        # A failed planarity test while growing the planar core defers one edge.
        if span[ATTR] is False and parent is not None and parent[NAME] == "embedding.greedy_insertion":
            deferred += 1
    insertion_scores = 0
    for span in spans:
        if span[NAME] == "embedding.score":
            parent = by_key.get((span[PID], span[1]))
            if parent is not None and parent[NAME] == "embedding.greedy_insertion":
                insertion_scores += 1
    put("embedding.is_planar_calls", len(planar) * per)
    put("embedding.is_planar_s", _total(spans, "embedding.is_planar") * per)
    put("embedding.greedy_insertion_s", _total(spans, "embedding.greedy_insertion") * per)
    put("embedding.insertion_scores", insertion_scores * per)
    put("embedding.deferred_edges", deferred * per)
    put("embedding.scores_per_edge", stats.ratio(insertion_scores, deferred))
    put("embedding.local_search_s", _total(spans, "embedding.local_search") * per)
    put("embedding.self_paired_repair_s", _total(spans, "embedding.self_paired_repair") * per)

    # core (build self time excludes the embedding it computes)
    core_build_self = extra.get("core.build_self_s", 0.0)
    put("core.build_s", core_build_self * per)
    pr_spans = [span for span in spans if span[NAME] == "core.pr.deliver_many"]
    pr_pairs = sum(span[ATTR] for span in pr_spans)
    pr_time = sum(span[END] - span[START] for span in pr_spans)
    put("core.pr.deliver_many_s", pr_time * per)
    put("core.pr.pairs", pr_pairs * per)
    put("core.pr.us_per_pair", 1e6 * stats.ratio(pr_time, pr_pairs))

    # baselines
    for key in BASELINES:
        name = f"baselines.{key}.deliver_many"
        chosen = [span for span in spans if span[NAME] == name]
        pairs = sum(span[ATTR] for span in chosen)
        spent = sum(span[END] - span[START] for span in chosen)
        put(f"baselines.{key}.deliver_many_s", spent * per)
        put(f"baselines.{key}.pairs", pairs * per)
        put(f"baselines.{key}.us_per_pair", 1e6 * stats.ratio(spent, pairs))
    memo_hits = counters.get("baseline_memo_hits", 0)
    memo_lookups = memo_hits + counters.get("baseline_memo_misses", 0)
    put("baselines.outcome_memo_hit_ratio", stats.ratio(memo_hits, memo_lookups))
    put("baselines.outcome_memo_lookups", memo_lookups * per)

    # forwarding
    put("forwarding.deliver_s", _total(spans, "forwarding.deliver") * per)
    put("forwarding.delivers", _count(spans, "forwarding.deliver") * per)

    # graph
    hits = counters.get("hits", 0)
    misses = counters.get("misses", 0)
    repair_hits = counters.get("repair_hits", 0)
    repair_fallbacks = counters.get("repair_fallbacks", 0)
    put("graph.sssp_s", _total(spans, "graph.sssp") * per)
    put("graph.sssp_hits", hits * per)
    put("graph.sssp_misses", misses * per)
    put("graph.sssp_hit_ratio", stats.ratio(hits, hits + misses))
    put("graph.repair_hits", repair_hits * per)
    put("graph.repair_fallbacks", repair_fallbacks * per)
    put("graph.repair_hit_ratio", stats.ratio(repair_hits, repair_hits + repair_fallbacks))
    put("graph.evictions", counters.get("evictions", 0) * per)

    # failures
    generated = [span for span in spans if span[NAME] == "failures.generate"]
    put("failures.generate_s", _total(spans, "failures.generate") * per)
    put("failures.scenarios", sum(span[ATTR] for span in generated) * per)
    put("failures.affected_pairs_s", _total(spans, "failures.affected_pairs") * per)

    # topologies
    put("topologies.build_s", _total(spans, "topologies.build") * per)
    put("topologies.builds", _count(spans, "topologies.build") * per)

    # runner
    cells = [span[END] - span[START] for span in spans if span[NAME] == "runner.cell"]
    put("runner.cells", len(cells) * per)
    put("runner.cell_p50_s", stats.median(cells) if cells else 0.0)
    put("runner.cell_max_s", max(cells) if cells else 0.0)
    put("runner.dispatch_wait_s", extra.get("runner.dispatch_wait_s", 0.0) * per)
    put("runner.aggregate_s", _total(spans, "runner.aggregate") * per)
    put("runner.retries", counters.get("retries", 0) * per)
    put("runner.quarantined", counters.get("quarantined", 0) * per)
    put("runner.artifact_hits", counters.get("artifact_hits", 0) * per)
    put("runner.artifact_misses", counters.get("artifact_misses", 0) * per)

    # store
    queries = [span for span in spans if span[NAME] == "store.query"]
    records = sum(span[ATTR] for span in queries)
    put("store.appends", _count(spans, "store.append") * per)
    put("store.append_s", _total(spans, "store.append") * per)
    put("store.queries", len(queries) * per)
    put("store.query_s", _total(spans, "store.query") * per)
    put("store.records_per_query", stats.ratio(records, len(queries)))

    # serve (daemon side)
    handled: Dict[str, List[float]] = {"query": [], "deliver": []}
    for span in spans:
        if span[NAME] == "serve.handle" and span[ATTR][0] in ("query", "deliver", "stretch"):
            key = "query" if span[ATTR][0] == "query" else "deliver"
            handled[key].append(span[END] - span[START])
    for key in ("query", "deliver"):
        summary = _ms(handled[key])
        put(f"serve.{key}_p50_ms", summary["p50"])
        put(f"serve.{key}_tail_ms", summary["tail"])
        put(f"serve.{key}_tail_pct", summary["tail_pct"])
        put(f"serve.{key}_samples", summary["n"] * per)
    put("serve.transport_ms", extra.get("serve.transport_ms", 0.0))
    put("serve.shed", counters.get("shed", 0) * per)
    waits = [
        span[ATTR] for span in spans if span[NAME] == "serve.claim" and span[ATTR] is not None
    ]
    put("serve.job_queue_wait_s", stats.median(waits) if waits else 0.0)

    # wall-time split of the measured thread
    for layer in LAYERS:
        put(f"{layer}.self_s", self_by_layer.get(layer, 0.0) * per)
    put("trace.unattributed_s", extra.get("trace.unattributed_s", 0.0) * per)
    put("trace.wall_s", extra.get("trace.wall_s", 0.0) * per)
    put("trace.overhead_s", extra.get("trace.overhead_s", 0.0))
    put("trace.spans", len(spans) * per)
    put("client.request_p50_ms", extra.get("client.request_p50_ms", 0.0))
    put("client.request_tail_ms", extra.get("client.request_tail_ms", 0.0))
    put("client.request_tail_pct", extra.get("client.request_tail_pct", 0.0))
    put("client.requests", extra.get("client.requests", 0.0) * per)
    return out


def core_build_self(spans: Sequence[Span], selfs: Dict[Tuple[int, int], float]) -> float:
    """Self time of every ``core.build`` span, summed over processes."""
    return sum(selfs[(span[PID], span[0])] for span in spans if span[NAME] == "core.build")
