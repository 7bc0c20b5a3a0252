"""The traced run: per-layer metrics, measured from outside the library.

Two sources, both the benchmark's own:

* **spans** — public methods on objects the benchmark holds (the
  partitioner, each group's hash families, lattice, tables and
  hierarchies, the resolved kernel table, the runtime, its WAL, the
  micro-batcher) are shadowed by recording wrappers, and the same passes
  as the untraced leg are run again; a layer's *self time* is its spans
  minus the spans they caused;
* **replays** — where the library does not call a public function on its
  hot path (it inlines the work or goes through a private helper), the
  captured inputs are run through the public function alone and timed.

A per-layer metric reads 0 on a workload where that layer does no work.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from benchmarks.e2e import workloads as W
from benchmarks.e2e.legs import (IN_PROCESS, BatchAdaptive,
                                  InProcessWorkload, run_passes, tally)
from benchmarks.e2e.measure import median, percentile
from benchmarks.e2e.trace import Tracer

#: name, unit, public call timed, the end-to-end metric it should move
#: (and where), better direction.  README.md's table and BENCHMARK.json's
#: ``per_layer`` list say the same; test_e2e_smoke.py holds them together.
LAYER_METRICS: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("rptree.fit_s", "s", "RPTree.fit", "setup_s @ batch_plain, batch_adaptive", "lower"),
    ("rptree.assign_us_per_row", "us", "partitioner.assign, batched rows", "throughput_per_s @ batch_plain", "lower"),
    ("rptree.assign_solo_us", "us", "partitioner.assign, 1 row", "latency_ms_p50 @ solo_inprocess", "lower"),
    ("rptree.routing_loss", "ratio", "share of true 10-NN outside the routed group (exact)", "ceiling on recall_at_10 @ batch_plain, batch_adaptive, solo_inprocess", "lower"),
    ("lsh.fit_s", "s", "sum of per-group StandardLSH.fit", "setup_s @ batch_plain", "lower"),
    ("lsh.project_us_per_row", "us", "PStableHashFamily.project x L", "throughput_per_s @ batch_plain", "lower"),
    ("lsh.gather_us_per_row", "us", "LSHTable.gather_batch x L", "throughput_per_s @ batch_plain", "lower"),
    ("lsh.group_query_us_per_row", "us", "per-group StandardLSH.query_batch", "throughput_per_s @ batch_plain", "lower"),
    ("lsh.probe_us_per_row", "us", "Lattice.probe_codes per row x table", "throughput_per_s @ batch_adaptive; 0 @ batch_plain", "lower"),
    ("lsh.probe_lookups_per_row", "count", "bucket lookups issued (exact)", "throughput_per_s @ batch_adaptive", "lower"),
    ("lsh.bucket_hit_ratio", "ratio", "non-empty / issued lookups (exact)", "throughput_per_s @ batch_adaptive", "higher"),
    ("lsh.candidates_per_row", "count", "QueryStats.n_candidates (exact)", "throughput_per_s, recall_at_10 @ all", "lower"),
    ("lsh.selectivity", "ratio", "n_candidates / n, paper Eq. 5 (exact)", "throughput_per_s, recall_at_10 @ all", "lower"),
    ("lsh.multiprobe_recall_at_10", "ratio", "multi-probe half of batch_adaptive", "recall_at_10 @ batch_adaptive", "higher"),
    ("hierarchy.recall_at_10", "ratio", "hierarchy half of batch_adaptive", "recall_at_10 @ batch_adaptive", "higher"),
    ("lattice.zm_quantize_us_per_row", "us", "ZMLattice.quantize x L", "throughput_per_s @ batch_plain", "lower"),
    ("lattice.e8_quantize_us_per_row", "us", "E8Lattice.quantize x L", "throughput_per_s, setup_s @ batch_adaptive", "lower"),
    ("hierarchy.build_s", "s", "E8 fit minus the same fit with hierarchy=False", "setup_s @ batch_adaptive", "lower"),
    ("hierarchy.candidates_us_per_call", "us", "E8Hierarchy.candidates", "throughput_per_s @ batch_adaptive", "lower"),
    ("hierarchy.escalated_share", "ratio", "QueryStats.escalated mean (exact)", "throughput_per_s, recall_at_10 @ batch_adaptive", "lower"),
    ("native.lookup_codes_us_per_row", "us", "kernels.lookup_codes", "throughput_per_s @ batch_plain", "lower"),
    ("native.dedup_us_per_row", "us", "kernels.dedup_candidates", "throughput_per_s @ batch_plain", "lower"),
    ("native.rank_topk_us_per_row", "us", "kernels.rank_topk", "throughput_per_s @ batch_plain", "lower"),
    ("native.rank_topk_solo_us", "us", "kernels.rank_topk, 1 row", "latency_ms_p50 @ solo_inprocess", "lower"),
    ("core.query_batch_us_per_row", "us", "BiLevelLSH.query_batch", "throughput_per_s @ batch_plain", "lower"),
    ("core.self_us_per_row", "us", "query_batch minus assign and group queries", "throughput_per_s @ batch_plain", "lower"),
    ("core.groups_per_call", "count", "distinct groups routed to (exact)", "16 @ batch_plain, 1 @ solo_inprocess", "lower"),
    ("exec.run_plan_solo_us", "us", "run_plan(index.execution_plan(...), q, k), 1 row", "latency_ms_p50 @ solo_inprocess", "lower"),
    ("exec.self_solo_us", "us", "run_plan minus the leaf-layer spans under it", "latency_ms_p50 @ solo_inprocess", "lower"),
    ("runtime.submit_solo_us", "us", "IndexRuntime.submit, 1 row", "latency_ms_p50 @ solo_inprocess, serve_mixed", "lower"),
    ("runtime.session_self_solo_us", "us", "submit minus run_plan", "latency_ms_p50 @ solo_inprocess, serve_mixed", "lower"),
    ("runtime.batch_wait_ms_p50", "ms", "MicroBatcher.submit minus the inner submit", "latency_ms_p50 @ serve_mixed", "lower"),
    ("runtime.merge_size_mean", "count", "requests per executed batch", "throughput_per_s @ serve_mixed", "higher"),
    ("runtime.codec_us_per_request", "us", "json.loads + np.asarray, serialize_response + json.dumps", "latency_ms_p50 @ serve_mixed", "lower"),
    ("runtime.http_remainder_ms_p50", "ms", "client p50 minus batch wait, submit and codec", "latency_ms_p50 @ serve_mixed", "lower"),
    ("runtime.connects_per_request", "ratio", "TCP connects / requests (exact)", "latency_ms_p50, throughput_per_s @ serve_mixed", "lower"),
    ("runtime.shed_share", "ratio", "shed / attempted reads", "failed share @ serve_mixed", "lower"),
    ("runtime.read_ms_p95", "ms", "client side, whole window", "reported, not gated", "lower"),
    ("runtime.read_ms_p99", "ms", "client side, whole window", "reported, not gated", "lower"),
    ("runtime.write_ms_p50", "ms", "client side, whole window", "reported, not gated", "lower"),
    ("runtime.write_ms_p95", "ms", "client side, whole window", "reported, not gated", "lower"),
    ("maintenance.insert_ms_p50", "ms", "IndexRuntime.insert, WAL attached", "throughput_per_s @ serve_mixed", "lower"),
    ("maintenance.delete_ms_p50", "ms", "IndexRuntime.delete, WAL attached", "throughput_per_s @ serve_mixed", "lower"),
    ("maintenance.wal_append_us_per_op", "us", "WriteAheadLog.append_insert / append_delete", "throughput_per_s @ serve_mixed", "lower"),
    ("maintenance.wal_bytes_per_user_byte", "ratio", "WAL growth / insert payload bytes (exact)", "throughput_per_s @ serve_mixed", "lower"),
    ("maintenance.recover_s", "s", "open(snapshot, wal_path=tail) minus open(snapshot)", "setup_s @ serve_mixed", "lower"),
    ("maintenance.replay_ms_per_record", "ms", "recover_s / 64 records", "setup_s @ serve_mixed", "lower"),
    ("persistence.load_s", "s", "load_index", "setup_s @ solo_inprocess, serve_mixed", "lower"),
    ("persistence.save_s", "s", "save_index", "setup_s @ solo_inprocess, serve_mixed", "lower"),
    ("persistence.snapshot_bytes_per_user_byte", "ratio", "snapshot size / corpus bytes (exact)", "setup_s @ solo_inprocess, serve_mixed", "lower"),
    ("trace.coverage", "ratio", "sum of layer self time / traced pass wall", "per workload", "higher"),
    ("trace.overhead", "ratio", "traced / untraced median, minus 1", "per workload", "lower"),
)

#: Span name -> the layer (package under src/repro) it is booked to.
#: The root span of an operation carries whatever its children do not:
#: the Python between the entry point and the leaf calls.
SPAN_LAYER = {
    "core.query_batch": "core (+ exec and lsh glue under it)",
    "runtime.submit": "runtime (+ exec, core and lsh glue under it)",
    "client.request": "http remainder (socket, asyncio, thread hop, json)",
}

MAJORITY = {
    "batch_plain": ("native.lookup_codes", "native.dedup_candidates",
                    "native.rank_topk", "lsh.project", "lsh.gather",
                    "rptree.assign"),
    "batch_adaptive": ("lsh.probe", "hierarchy.candidates",
                       "lattice.e8.decode", "lattice.e8.quantize"),
}


def _timed(fn: Callable[[], Any], repeats: int = 3) -> float:
    """Median wall of ``fn`` over ``repeats`` calls."""
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
    return median(walls)


# ---------------------------------------------------------- instrumentation

class Counters:
    """Exact counts taken where the work happens (never inside a span)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.assign_calls = 0
        self.groups = 0
        self.probe_lookups = 0
        self.lookups = 0
        self.lookup_hits = 0

    def on_assign(self, groups: np.ndarray, *_args: Any) -> None:
        self.assign_calls += 1
        self.groups += int(np.unique(groups).size)

    def on_probe(self, probes: np.ndarray, *_args: Any) -> None:
        self.probe_lookups += int(probes.shape[0]) + 1

    def on_lookup(self, bucket_index: np.ndarray, *_args: Any) -> None:
        self.lookups += int(bucket_index.size)
        self.lookup_hits += int(np.count_nonzero(bucket_index >= 0))


def instrument_standard(tracer: Tracer, index: Any, counters: Counters) -> None:
    """Shadow the public methods of what one ``StandardLSH`` holds.

    The holders (``_families``, ``_lattice``, ``_tables``,
    ``_hierarchies``) have no public accessor; the methods timed are
    public.
    """
    lattice = index._lattice
    name = "lattice.e8" if index.lattice_kind == "e8" else "lattice.zm"
    for family in index._families:
        tracer.wrap(family, "project", "lsh.project")
    tracer.wrap(lattice, "quantize", name + ".quantize")
    tracer.wrap(lattice, "probe_codes", "lsh.probe", counters.on_probe)
    for table in index._tables:
        tracer.wrap(table, "gather_batch", "lsh.gather")
    for hierarchy in index._hierarchies:
        tracer.wrap(hierarchy, "candidates", "hierarchy.candidates")


def instrument_bilevel(tracer: Tracer, index: Any, counters: Counters) -> None:
    tracer.wrap(index.partitioner, "assign", "rptree.assign",
                counters.on_assign)
    for group in index.group_indexes:
        instrument_standard(tracer, group, counters)


def instrument_kernels(tracer: Tracer, counters: Counters) -> None:
    from repro.native.registry import load_kernels

    kernels = load_kernels()
    tracer.wrap(kernels, "lookup_codes", "native.lookup_codes",
                counters.on_lookup)
    tracer.wrap(kernels, "dedup_candidates", "native.dedup_candidates")
    tracer.wrap(kernels, "rank_topk", "native.rank_topk")
    tracer.wrap(kernels, "e8_decode", "lattice.e8.decode")


def routing_loss(index: Any, workload: InProcessWorkload, gt_name: str,
                 n_points: int) -> float:
    """Share of the true 10-NN that live outside the query's group."""
    gt_ids = workload.inputs.load(gt_name)
    rows = workload.queries[:workload.sizes.quality_rows]
    of_query = index.partitioner.assign(rows)
    of_point = index.partitioner.assign(workload.train[:n_points])
    return float(1.0 - np.mean(of_point[gt_ids] == of_query[:, None]))


# ------------------------------------------------------------ traced legs

class TracedLeg:
    """Untraced passes, then the same passes with spans on."""

    def __init__(self, workload: InProcessWorkload, seed: int,
                 seconds: float, min_passes: int) -> None:
        self.workload = workload
        start = time.perf_counter()
        workload.setup()
        self.setup_s = time.perf_counter() - start
        self.quality = workload.quality()
        warm = workload.ops_of_pass(seed, 0)[0]
        workload.run_op(np.ascontiguousarray(workload.queries[warm]))
        self.untraced = run_passes(workload, seed, seconds / 2, min_passes)
        self.tracer = Tracer()
        self.counters = Counters()
        for index in self.indexes():
            instrument_bilevel(self.tracer, index, self.counters)
        instrument_kernels(self.tracer, self.counters)
        workload.tracer = self.tracer
        try:
            self.traced = run_passes(workload, seed, 0.0,
                                     len(self.untraced), len(self.untraced))
        finally:
            workload.tracer = None
        self.attempted, self.failed = tally(self.untraced + self.traced)
        self.wall = sum(p.wall for p in self.traced)
        self.rows = sum(r.size for p in self.traced for r in p.rows)
        self.ops = sum(len(p.rows) for p in self.traced)
        self.self_times = self.tracer.self_times()

    def indexes(self) -> List[Any]:
        w = self.workload
        if isinstance(w, BatchAdaptive):
            return [w.probe, w.hier]
        return [w.index]

    def finish(self) -> None:
        self.tracer.unwrap_all()

    # -- derived ---------------------------------------------------------
    def per_row_us(self, span: str) -> float:
        return 1e6 * sum(self.tracer.durations(span)) / self.rows

    def mean_us(self, span: str) -> float:
        walls = self.tracer.durations(span)
        return 1e6 * sum(walls) / len(walls) if walls else 0.0

    def shares(self) -> Dict[str, float]:
        return {name: value / self.wall
                for name, value in sorted(self.self_times.items())}

    def common(self) -> Dict[str, float]:
        untraced = median([p.wall for p in self.untraced])
        traced = median([p.wall for p in self.traced])
        calls = max(1, self.counters.assign_calls)
        return {
            "trace.coverage": sum(self.self_times.values()) / self.wall,
            "trace.overhead": traced / untraced - 1.0,
            "lsh.candidates_per_row": self.quality.candidates_per_row,
            "lsh.selectivity": self.quality.selectivity,
            "lsh.project_us_per_row": self.per_row_us("lsh.project"),
            "lattice.zm_quantize_us_per_row":
                self.per_row_us("lattice.zm.quantize"),
            "native.lookup_codes_us_per_row":
                self.per_row_us("native.lookup_codes"),
            "native.dedup_us_per_row":
                self.per_row_us("native.dedup_candidates"),
            "native.rank_topk_us_per_row": self.per_row_us("native.rank_topk"),
            "core.groups_per_call": self.counters.groups / calls,
        }


def _replay_groups(index: Any, batch: np.ndarray) -> Dict[str, float]:
    """Per-group public calls on one batch's routed rows, timed alone:
    ``StandardLSH.query_batch`` and ``LSHTable.gather_batch`` x L."""
    groups = index.partitioner.assign(batch)
    routed = [(index.group_indexes[g], batch[groups == g])
              for g in np.unique(groups)]

    def group_queries() -> None:
        for group, rows in routed:
            group.query_batch(rows, W.K, engine=W.ENGINE)

    coded = [(table, group._lattice.quantize(family.project(rows)))
             for group, rows in routed
             for family, table in zip(group._families, group._tables)]

    def gathers() -> None:
        for table, codes in coded:
            table.gather_batch(codes)

    n = batch.shape[0]
    return {"lsh.group_query_us_per_row": 1e6 * _timed(group_queries) / n,
            "lsh.gather_us_per_row": 1e6 * _timed(gathers) / n}


def _replay_fit(index: Any, train: np.ndarray) -> Dict[str, float]:
    """``RPTree.fit`` and the per-group ``StandardLSH.fit``s, timed alone
    with the parameters the fitted index reports."""
    from repro.lsh.index import StandardLSH
    from repro.rptree.tree import RPTree

    cfg = index.config
    tree_s = _timed(lambda: RPTree(
        n_groups=cfg.n_groups, rule=cfg.tree_rule,
        diameter_sweeps=cfg.diameter_sweeps, seed=W.INDEX_SEED).fit(train))
    start = time.perf_counter()
    for g, rows in enumerate(index.partitioner.leaf_indices()):
        StandardLSH(n_hashes=cfg.n_hashes, n_tables=cfg.n_tables,
                    bucket_width=index.group_widths[g], lattice=cfg.lattice,
                    n_probes=cfg.n_probes, hierarchy=cfg.hierarchy,
                    seed=W.INDEX_SEED + g).fit(train[rows], ids=rows)
    return {"rptree.fit_s": tree_s,
            "lsh.fit_s": time.perf_counter() - start}


def trace_batch_plain(leg: TracedLeg) -> Dict[str, float]:
    w = leg.workload
    index = w.index
    out = leg.common()
    out["rptree.assign_us_per_row"] = leg.per_row_us("rptree.assign")
    out["rptree.routing_loss"] = routing_loss(index, w, "gt_ids",
                                              w.sizes.n_train)
    batch = np.ascontiguousarray(w.queries[w.ops_of_pass(0, 0)[0]])
    leg.finish()                  # replays run without the wrappers
    out.update(_replay_groups(index, batch))
    out.update(_replay_fit(index, w.train))
    per_row = 1e6 * median([lat / rows.size for p in leg.untraced
                            for lat, rows in zip(p.latencies, p.rows)])
    out["core.query_batch_us_per_row"] = per_row
    out["core.self_us_per_row"] = (per_row - out["rptree.assign_us_per_row"]
                                   - out["lsh.group_query_us_per_row"])
    return out


def trace_batch_adaptive(leg: TracedLeg) -> Dict[str, float]:
    from repro import BiLevelLSH

    w = leg.workload
    out = leg.common()
    out["rptree.assign_us_per_row"] = leg.per_row_us("rptree.assign")
    out["lsh.probe_us_per_row"] = leg.per_row_us("lsh.probe")
    out["hierarchy.candidates_us_per_call"] = leg.mean_us(
        "hierarchy.candidates")
    parts = leg.quality.parts
    out["lsh.multiprobe_recall_at_10"] = parts["probe"]["recall"]
    out["hierarchy.recall_at_10"] = parts["hier"]["recall"]
    out["hierarchy.escalated_share"] = parts["hier"]["escalated_share"]
    out["rptree.routing_loss"] = 0.5 * (
        routing_loss(w.probe, w, "gt_ids", w.sizes.n_train)
        + routing_loss(w.hier, w, "gt_hier_ids", w.sizes.hier_n))
    # Exact lookup counts: one instrumented pass of the multi-probe index
    # over the quality rows, outside any timed interval.
    rows = w.queries[:w.sizes.quality_rows]
    leg.counters.reset()
    w._probe(rows)
    out["lsh.probe_lookups_per_row"] = (leg.counters.probe_lookups
                                        / rows.shape[0])
    out["lsh.bucket_hit_ratio"] = (leg.counters.lookup_hits
                                   / max(1, leg.counters.lookups))
    leg.finish()
    group = w.hier.group_indexes[0]
    projected = group._families[0].project(rows)
    out["lattice.e8_quantize_us_per_row"] = (
        1e6 * W.N_TABLES * _timed(lambda: group._lattice.quantize(projected))
        / rows.shape[0])
    head = w.train[:w.sizes.hier_n]
    with_s = _timed(lambda: BiLevelLSH(W.hier_config(w.inputs)).fit(head), 1)
    flat = W.hier_config(w.inputs).with_(hierarchy=False)
    without_s = _timed(lambda: BiLevelLSH(flat).fit(head), 1)
    out["hierarchy.build_s"] = with_s - without_s
    out["rptree.fit_s"] = _replay_fit(w.probe, w.train)["rptree.fit_s"]
    per_row = 1e6 * median([lat / rows_.size for p in leg.untraced
                            for lat, rows_ in zip(p.latencies, p.rows)])
    out["core.query_batch_us_per_row"] = per_row
    return out


def trace_solo(leg: TracedLeg) -> Dict[str, float]:
    from repro.exec.executor import run_plan
    from repro.persistence import load_index

    w = leg.workload
    index = w.index
    out = leg.common()
    out["rptree.assign_solo_us"] = leg.mean_us("rptree.assign")
    out["native.rank_topk_solo_us"] = leg.mean_us("native.rank_topk")
    out["rptree.routing_loss"] = routing_loss(index, w, "gt_ids",
                                              w.sizes.n_train)
    leaf_us = 1e6 * sum(wall for name, wall in leg.self_times.items()
                        if name != "runtime.submit") / leg.ops
    leg.finish()
    lo = w.sizes.quality_rows
    singles = [np.ascontiguousarray(w.queries[i:i + 1])
               for i in range(lo, lo + min(400, w.sizes.solo_ops))]
    walls = []
    for q in singles:
        start = time.perf_counter()
        run_plan(index.execution_plan(engine=W.ENGINE), q, W.K)
        walls.append(time.perf_counter() - start)
    submit_us = 1e6 * median([lat for p in leg.untraced
                              for lat in p.latencies])
    run_plan_us = 1e6 * median(walls)
    out["runtime.submit_solo_us"] = submit_us
    out["exec.run_plan_solo_us"] = run_plan_us
    out["runtime.session_self_solo_us"] = submit_us - run_plan_us
    out["exec.self_solo_us"] = run_plan_us - leaf_us
    snapshot = w.inputs.path("plain.npz")
    out["persistence.load_s"] = _timed(lambda: load_index(snapshot), 1)
    out.update(_save_cost(index, w.sizes))
    return out


def _save_cost(index: Any, sizes: W.Sizes) -> Dict[str, float]:
    from repro.persistence import save_index

    scratch = os.path.join(W.OUT_DIR, f"save-{os.getpid()}.npz")
    try:
        save_s = _timed(lambda: save_index(index, scratch), 1)
        size = os.path.getsize(scratch)
    finally:
        if os.path.exists(scratch):
            os.remove(scratch)
    return {"persistence.save_s": save_s,
            "persistence.snapshot_bytes_per_user_byte":
                size / float(sizes.n_train * sizes.dim * 8)}


# ------------------------------------------------------------- serve_mixed

def _codec_us(queries: np.ndarray, runtime: Any) -> float:
    """What the server spends turning one request's bytes into arrays and
    its answer into bytes, replayed on a real request and a real answer."""
    from repro.runtime import QueryRequest
    from repro.runtime.server import serialize_response

    body = json.dumps({"queries": [queries[0].tolist()], "k": W.K,
                       "engine": W.ENGINE}).encode("ascii")
    answer = runtime.submit(QueryRequest(queries=queries[:1], k=W.K))

    def codec() -> None:
        payload = json.loads(body)
        np.asarray(payload["queries"], dtype=np.float64)
        json.dumps(serialize_response(answer)).encode("utf-8")

    return 1e6 * _timed(codec, 201)


def trace_serve(inputs: W.Inputs, seed: int, seconds: float,
                untraced: Dict[str, Any]) -> Dict[str, Any]:
    """The traced serve_mixed leg (``RuntimeServer`` in this process) and
    the replays around it.  ``untraced`` is the real-server leg's result.
    """
    from repro.persistence import load_index
    from repro.runtime import IndexRuntime, RuntimeConfig

    from benchmarks.e2e.serve import (InProcessServer, MixedClient,
                                      ServeChecker)

    sizes = inputs.sizes
    queries = inputs.load("queries")
    snapshot = inputs.path("serve.npz")
    config = RuntimeConfig(engine=W.ENGINE)
    out: Dict[str, float] = {}

    def open_plain() -> None:
        IndexRuntime.open(snapshot, config).close()

    def open_recover() -> None:
        IndexRuntime.open(snapshot, config,
                          wal_path=inputs.path("tail.wal")).close()

    recover_s = _timed(open_recover, 1) - _timed(open_plain, 1)
    n_records = W.WAL_TAIL_INSERTS + W.WAL_TAIL_DELETES
    out["maintenance.recover_s"] = recover_s
    out["maintenance.replay_ms_per_record"] = 1e3 * recover_s / n_records
    out["persistence.load_s"] = _timed(lambda: load_index(snapshot), 1)

    tracer = Tracer()
    wal_copy = os.path.join(W.OUT_DIR, f"traced-{os.getpid()}.wal")
    server = InProcessServer(inputs, wal_copy, tracer)
    try:
        wal_before = os.path.getsize(wal_copy)
        client = MixedClient(server.port, queries, sizes, seed)
        client.read_all(range(min(50, sizes.quality_rows)))
        calls_before = dict(server.calls)
        tracer.spans.clear()
        start, end = client.run(seconds)
        wal_after = os.path.getsize(wal_copy)
        calls = {k: server.calls[k] - calls_before[k] for k in server.calls}
        out["runtime.codec_us_per_request"] = _codec_us(queries,
                                                        server.runtime)
        out.update(_save_cost(server.runtime.index, sizes))
    finally:
        server.close()
        tracer.unwrap_all()
        if os.path.exists(wal_copy):
            os.remove(wal_copy)
    ops = client.all_ops()
    checker = ServeChecker(inputs, inputs.load("train"), queries)
    checker.check(client, ops)
    failed = sum(1 for op in ops if not op.ok)

    reads = [op.done - op.sent for op in ops if op.kind == "read"]
    batcher = tracer.children_of("runtime.batcher.submit")
    waits = [tracer.spans[i][2] - tracer.spans[i][1] - inner
             for i, inner in batcher.items() if inner > 0.0]   # leaders
    submit = tracer.durations("runtime.submit")
    read_p50 = 1e3 * median(reads)
    wait_p50 = 1e3 * median(waits) if waits else 0.0
    submit_p50 = 1e3 * median(submit)
    codec_ms = out["runtime.codec_us_per_request"] / 1e3
    out["runtime.batch_wait_ms_p50"] = wait_p50
    out["runtime.submit_solo_us"] = 1e3 * submit_p50
    out["runtime.merge_size_mean"] = calls["batcher"] / max(1, calls["submit"])
    out["runtime.http_remainder_ms_p50"] = (read_p50 - wait_p50 - submit_p50
                                            - codec_ms)
    out["maintenance.insert_ms_p50"] = 1e3 * median(
        tracer.durations("maintenance.insert") or [0.0])
    out["maintenance.delete_ms_p50"] = 1e3 * median(
        tracer.durations("maintenance.delete") or [0.0])
    appends = tracer.durations("maintenance.wal_append")
    out["maintenance.wal_append_us_per_op"] = (
        1e6 * sum(appends) / len(appends) if appends else 0.0)
    payload = sum(1 for op in ops if op.kind == "insert" and op.ok) \
        * 2 * (sizes.dim * 8 + 8)
    out["maintenance.wal_bytes_per_user_byte"] = (
        (wal_after - wal_before) / payload if payload else 0.0)

    # Client-side tails come from the untraced, real-server window.
    real = untraced["ops"]
    real_reads = [1e3 * (op.done - op.sent) for op in real
                  if op.kind == "read"]
    real_writes = [1e3 * (op.done - op.sent) for op in real
                   if op.kind != "read"]
    out["runtime.read_ms_p95"] = percentile(real_reads, 95)
    out["runtime.read_ms_p99"] = percentile(real_reads, 99)
    out["runtime.write_ms_p50"] = percentile(real_writes, 50)
    out["runtime.write_ms_p95"] = percentile(real_writes, 95)
    out["runtime.connects_per_request"] = untraced["connects_per_request"]
    out["runtime.shed_share"] = untraced["shed_share"]
    out["trace.overhead"] = read_p50 / median(real_reads) - 1.0

    # Shares of a traced read: the client span is the root, the server
    # spans sit under it in time (other threads, same clock).
    shares = {
        "runtime.http_remainder": out["runtime.http_remainder_ms_p50"] / read_p50,
        "runtime.batch_wait": wait_p50 / read_p50,
        "runtime.submit": submit_p50 / read_p50,
        "runtime.codec": codec_ms / read_p50,
    }
    out["trace.coverage"] = sum(shares.values())
    note = (f"tail percentiles from {len(real_reads)} reads and "
            f"{len(real_writes)} writes of the untraced window; shares "
            f"from {len(reads)} traced reads")
    return {"values": out, "shares": shares, "tracer": tracer,
            "attempted": len(ops), "failed": failed, "note": note}


# --------------------------------------------------------------- reporting

def predictions(workload: str, shares: Dict[str, float]) -> List[str]:
    """The bypass predictions of the issue, judged on measured shares."""
    lines: List[str] = []

    def judge(label: str, names: Sequence[str], want: str) -> None:
        total = sum(shares.get(name, 0.0) for name in names)
        holds = total > 0.5 if want == "majority" else total < 0.5
        lines.append(f"prediction: {label} is a {want} of the pass wall "
                     f"-> measured {total:.3f}: "
                     f"{'holds' if holds else 'REFUTED'}")

    kernels_and_hash = MAJORITY["batch_plain"]
    if workload == "batch_plain":
        judge("native.* + lsh.project + lsh.gather + rptree.assign",
              kernels_and_hash, "majority")
    elif workload == "solo_inprocess":
        judge("native.* + lsh.project + lsh.gather + rptree.assign",
              kernels_and_hash, "minority")
    elif workload == "batch_adaptive":
        judge("lsh.probe + hierarchy.* + lattice.e8",
              MAJORITY["batch_adaptive"], "majority")
        judge("native.*", ("native.lookup_codes", "native.dedup_candidates",
                           "native.rank_topk"), "minority")
    else:
        judge("runtime.http_remainder + runtime.batch_wait",
              ("runtime.http_remainder", "runtime.batch_wait"), "majority")
    return lines


TRACERS = {"batch_plain": trace_batch_plain,
           "batch_adaptive": trace_batch_adaptive,
           "solo_inprocess": trace_solo}


def traced_run(workload: str, inputs: W.Inputs, seed: int, seconds: float,
               min_passes: int) -> Dict[str, Any]:
    """One ``--trace 1`` run: every per-layer metric (0 where the layer
    does no work on this workload), the shares, and the verdict counts."""
    from benchmarks.e2e.serve import run_serve_leg

    os.makedirs(W.OUT_DIR, exist_ok=True)
    values = {name: 0.0 for name, *_rest in LAYER_METRICS}
    if workload == "serve_mixed":
        untraced = run_serve_leg(inputs, seed, seconds / 2, 1,
                                 max(2, min_passes))
        traced = trace_serve(inputs, seed, seconds / 2, untraced)
        measured, shares = traced["values"], traced["shares"]
        tracer, notes = traced["tracer"], [traced["note"]]
        attempted = untraced["attempted"] + traced["attempted"]
        failed = untraced["failed"] + traced["failed"]
        quality = untraced["quality"]
    else:
        leg = TracedLeg(IN_PROCESS[workload](inputs), seed, seconds,
                        min_passes)
        try:
            measured = TRACERS[workload](leg)
        finally:
            leg.finish()
            leg.workload.close()
        shares, tracer = leg.shares(), leg.tracer
        attempted, failed, quality = leg.attempted, leg.failed, leg.quality
        notes = [f"{len(leg.traced)} traced passes, {leg.ops} operations, "
                 f"{len(tracer.spans)} spans"]
    values.update(measured)
    tracer.dump(os.path.join(W.OUT_DIR, f"trace-{workload}.json"),
                {"workload": workload, "seed": seed, "shares": shares})
    return {"values": values, "shares": shares, "attempted": attempted,
            "failed": failed, "quality": quality, "notes": notes,
            "predictions": predictions(workload, shares)}
