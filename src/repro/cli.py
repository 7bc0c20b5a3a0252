"""Command-line interface for building, querying and inspecting indexes.

Usage (installed as ``repro-knn``, or ``python -m repro.cli``)::

    repro-knn build  features.npy index.npz --groups 16 --tables 10 --tune
    repro-knn query  index.npz queries.npy -k 10 --output results.npz
    repro-knn info   index.npz
    repro-knn verify-index index.npz
    repro-knn stats  index.npz --queries queries.npy -k 10 --format prom
    repro-knn stats  index.npz --queries queries.npy --serve 9100
    repro-knn serve  index.npz --port 8080 --wal index.wal --metrics-port 9100
    repro-knn bench  --figure fig05 --scale smoke
    repro-knn synth  out.npy --preset labelme --n 10000

Feature files are ``.npy`` matrices or raw binary (pass ``--dim`` and
``--dtype``).  ``query`` and ``bench`` accept ``--metrics-out FILE`` to
run with observability on and dump a JSON metrics snapshot; ``stats``
prints one directly (JSON or Prometheus text).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Iterator, List, Optional

import numpy as np


def _load_features(path: str, dim: Optional[int], dtype: str,
                   mmap: bool) -> np.ndarray:
    from repro.datasets.loaders import load_matrix

    return load_matrix(path, dim=dim, dtype=dtype, mmap=mmap)


@contextlib.contextmanager
def _observed(metrics_out: Optional[str],
              trace_sample: float = 0.0) -> Iterator[None]:
    """Enable observability into a private registry for the body, then
    write ``{"metrics": ..., "derived": ...}`` to ``metrics_out``.

    A no-op context when ``metrics_out`` is falsy.
    """
    if not metrics_out:
        yield
        return
    from repro import obs
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    obs.enable(registry=registry, trace_sample_rate=trace_sample)
    try:
        yield
    finally:
        obs.disable()
    with open(metrics_out, "w", encoding="utf-8") as fh:
        json.dump(obs.full_snapshot(registry), fh, indent=2, sort_keys=True)
    print(f"wrote metrics snapshot to {metrics_out}")


def cmd_build(args: argparse.Namespace) -> int:
    from repro.core.bilevel import BiLevelLSH
    from repro.core.config import BiLevelConfig
    from repro.core.outofcore import fit_bilevel_chunked
    from repro.lsh.index import StandardLSH
    from repro.persistence import save_index

    data = _load_features(args.features, args.dim, args.dtype, args.mmap)
    if args.index_type == "standard":
        index = StandardLSH(n_hashes=args.hashes, n_tables=args.tables,
                            bucket_width=args.width, lattice=args.lattice,
                            n_probes=args.probes, hierarchy=args.hierarchy,
                            seed=args.seed).fit(np.asarray(data, dtype=np.float64))
    else:
        config = BiLevelConfig(
            n_groups=args.groups, n_hashes=args.hashes, n_tables=args.tables,
            bucket_width=args.width, lattice=args.lattice,
            n_probes=args.probes, hierarchy=args.hierarchy,
            tune_params=args.tune, scale_widths=not args.tune,
            seed=args.seed)
        if args.mmap:
            index = fit_bilevel_chunked(config, data,
                                        sample_size=args.sample_size,
                                        chunk_size=args.chunk_size)
        else:
            index = BiLevelLSH(config).fit(np.asarray(data, dtype=np.float64))
    save_index(index, args.index)
    n = data.shape[0]
    print(f"indexed {n} points (dim {data.shape[1]}) -> {args.index}")
    return 0


def _resolve_config(args: argparse.Namespace) -> "Optional[object]":
    """Shared CLI option resolution (``query``/``serve``).

    One seam — :meth:`repro.runtime.RuntimeConfig.from_args` — interprets
    ``--deadline-ms`` / ``--resilient`` / ``--max-batch-rows`` /
    ``--shard-workers`` (and the serving knobs) for both subcommands, so
    their defaults cannot drift apart.  Returns ``None`` after printing
    to stderr on an invalid option (callers exit 2).
    """
    from repro.runtime import RuntimeConfig

    try:
        return RuntimeConfig.from_args(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return None


def cmd_query(args: argparse.Namespace) -> int:
    from repro.persistence import load_index
    from repro.runtime import IndexRuntime, QueryRequest

    config = _resolve_config(args)
    if config is None:
        return 2
    index = load_index(args.index)
    queries = np.asarray(
        _load_features(args.queries, args.dim, args.dtype, False),
        dtype=np.float64)
    # The runtime owns the attachments (shard pool when --shard-workers
    # is set) and resolves every unset option from the shared config.
    try:
        runtime = IndexRuntime(index, config)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    with runtime:
        with _observed(args.metrics_out):
            response = runtime.submit(QueryRequest(queries=queries, k=args.k))
    ids, dists, stats = response.as_tuple()
    if args.output:
        extra = {}
        if stats.degraded is not None:
            extra["degraded"] = stats.degraded
        if stats.exhausted_budget is not None:
            extra["exhausted_budget"] = stats.exhausted_budget
        np.savez(args.output, ids=ids, distances=dists,
                 n_candidates=stats.n_candidates, **extra)
        print(f"wrote {queries.shape[0]} results to {args.output}")
    else:
        for qi in range(min(queries.shape[0], args.show)):
            pairs = ", ".join(f"{i}:{d:.4g}" for i, d in
                              zip(ids[qi], dists[qi]) if i >= 0)
            print(f"query {qi}: {pairs}")
    sel = stats.n_candidates.mean() / max(index.n_points, 1)
    print(f"mean short-list: {stats.n_candidates.mean():.1f} "
          f"(selectivity {sel:.4f})")
    n_degraded = int(stats.degraded_mask().sum())
    n_exhausted = int(stats.exhausted_mask().sum())
    if n_degraded or n_exhausted:
        print(f"resilience: {n_degraded} degraded, "
              f"{n_exhausted} budget-exhausted "
              f"({len(stats.failures or ())} recorded failures)")
    return 0


def cmd_verify_index(args: argparse.Namespace) -> int:
    from repro.persistence import verify_index
    from repro.resilience import CorruptIndexError

    try:
        report = verify_index(args.index)
    except CorruptIndexError as error:
        print(f"CORRUPT: {error}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as error:
        print(f"error: cannot verify {args.index}: {error}", file=sys.stderr)
        return 2
    print(json.dumps(report, indent=2, sort_keys=True))
    if not report["checksummed"]:
        print("note: version-1 archive carries no checksums; re-save to "
              "enable verification", file=sys.stderr)
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    from repro.core.bilevel import BiLevelLSH
    from repro.evaluation.diagnostics import bucket_statistics
    from repro.persistence import load_index

    index = load_index(args.index)
    info = {"type": type(index).__name__, "n_points": index.n_points}
    if isinstance(index, BiLevelLSH):
        info["n_groups"] = index.n_groups_built
        info["group_sizes"] = index.partitioner.leaf_sizes().tolist()
        info["group_widths"] = [round(w, 4) for w in index.group_widths]
        tables = index.group_indexes[0]._tables
    else:
        tables = getattr(index, "_tables", [])
    if tables:
        stats = bucket_statistics(tables[0])
        info["table0_buckets"] = stats.n_buckets
        info["table0_mean_bucket"] = round(stats.mean_size, 2)
        info["table0_gini"] = round(stats.gini, 4)
    print(json.dumps(info, indent=2))
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    """Fold overlays/tombstones of a saved index into fresh tables."""
    from repro.lsh.forest import LSHForest
    from repro.maintenance import RecoveryError
    from repro.persistence import save_index
    from repro.runtime import IndexRuntime

    try:
        # With --wal the runtime recovers (snapshot + WAL-tail replay)
        # and re-attaches the same WAL; without it, a plain load.
        runtime = IndexRuntime.open(args.index, wal_path=args.wal)
    except RecoveryError as error:
        # e.g. --wal pointed at an LSHForest archive: no live-update
        # path, same clean rejection as the forest check below.
        print(f"error: {error}", file=sys.stderr)
        return 2
    with runtime:
        report = runtime.recovery_report
        if report is not None:
            print(f"replayed {report.applied} WAL records "
                  f"(skipped {report.skipped}, torn {report.torn_bytes} "
                  "bytes)")
        index = runtime.index
        if isinstance(index, LSHForest):
            print("error: LSHForest has no live-update path to compact",
                  file=sys.stderr)
            return 2
        installed = index.compact()
        out = args.out if args.out is not None else args.index
        save_index(index, out)
        if runtime.wal is not None and not args.keep_wal:
            runtime.wal.reset(int(getattr(index, "_applied_lsn", 0)))
        print(json.dumps({
            "out": str(out), "installed": bool(installed),
            "n_points": int(index.n_points),
            "wal_lsn": int(getattr(index, "_applied_lsn", 0)),
        }, indent=2))
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    """Rebuild the acknowledged state: snapshot + WAL-tail replay."""
    from repro.maintenance import RecoveryError, recover_index
    from repro.persistence import save_index

    try:
        index, report = recover_index(args.index, args.wal)
    except RecoveryError as error:
        print(f"RECOVERY FAILED: {error}", file=sys.stderr)
        return 3
    save_index(index, args.out)
    print(json.dumps({
        "out": str(args.out),
        "snapshot_lsn": report.snapshot_lsn,
        "applied": report.applied,
        "skipped": report.skipped,
        "last_lsn": report.last_lsn,
        "torn_bytes": report.torn_bytes,
        "n_points": int(index.n_points),
    }, indent=2))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments import figures
    from repro.experiments.workloads import Scale

    scale = {"smoke": Scale.smoke(), "default": Scale(),
             "paper": Scale.paper()}[args.scale]
    driver = getattr(figures, args.figure, None)
    if driver is None:
        names = [n for n in dir(figures) if n.startswith("fig")]
        print(f"unknown figure {args.figure!r}; available: {names}",
              file=sys.stderr)
        return 2
    with _observed(args.metrics_out):
        driver(scale)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Run a query batch with observability on; print/write the snapshot."""
    from repro import obs
    from repro.evaluation.diagnostics import escalation_report
    from repro.obs.registry import MetricsRegistry
    from repro.persistence import load_index

    index = load_index(args.index)
    queries = np.asarray(
        _load_features(args.queries, args.dim, args.dtype, False),
        dtype=np.float64)
    registry = MetricsRegistry()
    obs.enable(registry=registry, trace_sample_rate=args.trace_sample,
               trace_seed=args.seed)
    try:
        index.query_batch(queries, args.k)
        traces = obs.recent_traces()
    finally:
        obs.disable()
    if args.format == "prom":
        text = registry.to_prometheus()
    else:
        payload = {
            "index": args.index,
            "n_queries": int(queries.shape[0]),
            "k": int(args.k),
            "escalation": escalation_report(registry),
            "metrics": registry.snapshot(),
            "derived": obs.derived_summary(registry),
        }
        if args.trace_sample > 0.0:
            payload["traces"] = [trace.to_dict() for trace in traces]
        text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + ("" if text.endswith("\n") else "\n"))
        print(f"wrote {args.format} snapshot to {args.out}")
    elif args.serve is None:
        print(text)
    if args.serve is not None:
        import time

        from repro.obs.server import MetricsServer

        server = MetricsServer(registry, port=args.serve,
                               traces_fn=lambda: traces)
        server.start()
        # The smoke test (and any scraper wrapper) parses this line for
        # the bound port, so --serve 0 can pick an ephemeral one.
        print(f"serving metrics on http://{server.host}:{server.port} "
              f"(/metrics, /metrics.json, /traces)", flush=True)
        try:
            if args.serve_seconds is not None:
                time.sleep(args.serve_seconds)
            else:
                while True:
                    time.sleep(3600)
        except KeyboardInterrupt:  # invariant: disable=R5 — interactive stop
            pass
        server.stop()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve KNN queries over HTTP/JSON with micro-batching.

    Boots an :class:`~repro.runtime.IndexRuntime` (WAL-attached when
    ``--wal`` is given, so live ``/insert`` / ``/delete`` are durable)
    and an asyncio front-end with admission control.  With
    ``--metrics-port`` the existing observability
    :class:`~repro.obs.server.MetricsServer` runs alongside, sharing the
    runtime's health/readiness callbacks.
    """
    import asyncio

    from repro import obs
    from repro.maintenance import RecoveryError
    from repro.obs.registry import MetricsRegistry
    from repro.runtime import IndexRuntime
    from repro.runtime.server import RuntimeServer

    config = _resolve_config(args)
    if config is None:
        return 2
    registry = MetricsRegistry()
    obs.enable(registry=registry)
    try:
        try:
            runtime = IndexRuntime.open(
                args.index, config, wal_path=args.wal,
                compact_async=args.compact_async, registry=registry)
        except (RecoveryError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        with runtime:
            server = RuntimeServer(runtime, host=args.host, port=args.port)
            metrics_server = None
            if args.metrics_port is not None:
                from repro.obs.server import MetricsServer

                metrics_server = MetricsServer(
                    registry, port=args.metrics_port, host=args.host,
                    health_fn=server.health, ready_fn=server.readiness)
                metrics_server.start()

            async def _run() -> None:
                await server.start()
                # The smoke tests (and scraper wrappers) parse these two
                # lines for the bound ports, so --port 0 works.
                print(f"serving knn on http://{server.host}:{server.port} "
                      f"(/query, /insert, /delete, /checkpoint, /healthz, "
                      f"/readyz, /stats)", flush=True)
                if metrics_server is not None:
                    print(f"serving metrics on http://{metrics_server.host}:"
                          f"{metrics_server.port} (/metrics, /metrics.json, "
                          f"/traces, /healthz, /readyz)", flush=True)
                try:
                    await server.serve_forever(args.serve_seconds)
                finally:
                    await server.stop()

            try:
                asyncio.run(_run())
            except KeyboardInterrupt:  # invariant: disable=R5 — interactive stop
                pass
            finally:
                if metrics_server is not None:
                    metrics_server.stop()
    finally:
        obs.disable()
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    from repro.datasets.loaders import save_matrix
    from repro.datasets.synthetic import labelme_like, tiny_like

    maker = labelme_like if args.preset == "labelme" else tiny_like
    kwargs = {}
    if args.dim:
        kwargs["dim"] = args.dim
    data = maker(n_points=args.n, seed=args.seed, **kwargs)
    save_matrix(args.output, data)
    print(f"wrote {data.shape[0]} x {data.shape[1]} features to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-knn",
        description="Bi-level LSH k-nearest-neighbor toolkit "
                    "(Pan & Manocha, ICDE 2012 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    common_feat = argparse.ArgumentParser(add_help=False)
    common_feat.add_argument("--dim", type=int, default=None,
                             help="feature dim (raw binary files only)")
    common_feat.add_argument("--dtype", default="float64",
                             help="element dtype of raw binary files")

    p = sub.add_parser("build", parents=[common_feat],
                       help="build an index from a feature file")
    p.add_argument("features")
    p.add_argument("index")
    p.add_argument("--index-type", choices=["bilevel", "standard"],
                   default="bilevel")
    p.add_argument("--groups", type=int, default=16)
    p.add_argument("--hashes", type=int, default=8)
    p.add_argument("--tables", type=int, default=10)
    p.add_argument("--width", type=float, default=1.0)
    p.add_argument("--lattice", choices=["zm", "e8", "dm"], default="zm")
    p.add_argument("--probes", type=int, default=0)
    p.add_argument("--hierarchy", action="store_true")
    p.add_argument("--tune", action="store_true",
                   help="tune per-group bucket widths (ignores --width)")
    p.add_argument("--mmap", action="store_true",
                   help="memory-map the features and build out-of-core")
    p.add_argument("--sample-size", type=int, default=4096)
    p.add_argument("--chunk-size", type=int, default=8192)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", parents=[common_feat],
                       help="answer KNN queries against a saved index")
    p.add_argument("index")
    p.add_argument("queries")
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--output", default=None,
                   help="write results to an .npz instead of printing")
    p.add_argument("--show", type=int, default=5,
                   help="queries to print when no --output is given")
    p.add_argument("--metrics-out", default=None,
                   help="run with observability on; write a JSON metrics "
                        "snapshot here")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="wall-clock budget for the batch; past it, queries "
                        "return best-effort results flagged "
                        "exhausted_budget")
    p.add_argument("--resilient", action="store_true",
                   help="run under a default ResiliencePolicy: worker "
                        "failures retry, then fall back, and are reported "
                        "instead of crashing the batch")
    p.add_argument("--max-batch-rows", type=int, default=None,
                   help="bounded-memory sharding: split the batch into "
                        "shards of at most this many queries (results are "
                        "bit-identical to the unsharded run)")
    p.add_argument("--shard-workers", type=int, default=0,
                   help="run the --max-batch-rows shards on this many "
                        "threads (same answers; a bi-level index has "
                        "n_jobs threads over its groups instead)")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("info", help="inspect a saved index")
    p.add_argument("index")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("verify-index",
                       help="verify a saved index's per-array checksums "
                            "(exit 3 if corrupt)")
    p.add_argument("index")
    p.set_defaults(func=cmd_verify_index)

    p = sub.add_parser("stats", parents=[common_feat],
                       help="run queries with observability on and report "
                            "the metrics snapshot")
    p.add_argument("index")
    p.add_argument("--queries", required=True,
                   help="query feature file to drive the instrumented run")
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--trace-sample", type=float, default=0.0,
                   help="fraction of queries to trace (0 disables tracing)")
    p.add_argument("--seed", type=int, default=0,
                   help="trace-sampling seed")
    p.add_argument("--format", choices=["json", "prom"], default="json",
                   help="snapshot format: JSON or Prometheus text")
    p.add_argument("--out", default=None,
                   help="write the snapshot to a file instead of stdout")
    p.add_argument("--serve", type=int, default=None, metavar="PORT",
                   help="after the instrumented run, serve /metrics "
                        "(Prometheus), /metrics.json and /traces on this "
                        "port (0 = ephemeral; bound port is printed)")
    p.add_argument("--serve-seconds", type=float, default=None,
                   help="stop the --serve endpoint after this many "
                        "seconds (default: serve until interrupted)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("compact",
                       help="fold a saved index's overlays/tombstones into "
                            "fresh sorted tables (optionally replaying a "
                            "WAL first)")
    p.add_argument("index", help="saved index archive (.npz)")
    p.add_argument("--wal", default=None,
                   help="replay this write-ahead log before compacting")
    p.add_argument("--out", default=None,
                   help="write the compacted index here (default: in place)")
    p.add_argument("--keep-wal", action="store_true",
                   help="do not truncate the replayed WAL after the "
                        "compacted snapshot is committed")
    p.set_defaults(func=cmd_compact)

    p = sub.add_parser("recover",
                       help="rebuild the acknowledged state from a snapshot "
                            "plus WAL tail (exit 3 on replay mismatch)")
    p.add_argument("index", help="last good snapshot archive (.npz)")
    p.add_argument("--wal", required=True,
                   help="write-ahead log to replay on top of the snapshot")
    p.add_argument("--out", required=True,
                   help="write the recovered index here")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("serve",
                       help="serve KNN queries over HTTP/JSON with "
                            "micro-batching and admission control")
    p.add_argument("index", help="saved index archive (.npz)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="bind port for the query API (0 = ephemeral; the "
                        "bound port is printed)")
    p.add_argument("--wal", default=None,
                   help="recover from (and re-attach) this write-ahead log "
                        "so live /insert and /delete are durable")
    p.add_argument("--compact-async", action="store_true",
                   help="run a background compactor so overlay debt from "
                        "live inserts never stalls the writer")
    p.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                   help="also serve Prometheus /metrics (+ /healthz, "
                        "/readyz) on this port")
    p.add_argument("--serve-seconds", type=float, default=None,
                   help="stop after this many seconds (default: serve "
                        "until interrupted)")
    p.add_argument("--engine", default=None,
                   help="inert (there is one engine; 'native' and "
                        "'vectorized' are accepted and ignored); pending "
                        "deletion")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="default per-request budget; a request's own "
                        "deadline_ms overrides it")
    p.add_argument("--resilient", action="store_true",
                   help="serve under a default ResiliencePolicy")
    p.add_argument("--max-batch-rows", type=int, default=None,
                   help="bounded-memory sharding inside each executed batch")
    p.add_argument("--shard-workers", type=int, default=0,
                   help="run each batch's --max-batch-rows shards on this "
                        "many threads (same answers; a bi-level index has "
                        "n_jobs threads over its groups instead)")
    p.add_argument("--hierarchy-threshold", type=int, default=None,
                   help="fixed escalation threshold; required for "
                        "micro-batch merging on hierarchical indexes (the "
                        "'median' default is batch-dependent, so such "
                        "requests run solo)")
    p.add_argument("--batch-window-ms", type=float, default=2.0,
                   help="micro-batch coalescing window (0 disables "
                        "merging)")
    p.add_argument("--batch-max-rows", type=int, default=256,
                   help="dispatch a merged batch early at this many rows")
    p.add_argument("--max-queue-depth", type=int, default=64,
                   help="admission bound: requests beyond this many in "
                        "flight are shed (flagged exhausted_budget, "
                        "never crashed)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("bench", help="run one paper-figure driver")
    p.add_argument("--figure", default="fig05")
    p.add_argument("--scale", choices=["smoke", "default", "paper"],
                   default="smoke")
    p.add_argument("--metrics-out", default=None,
                   help="run with observability on; write a JSON metrics "
                        "snapshot here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("synth", help="generate a synthetic feature file")
    p.add_argument("output")
    p.add_argument("--preset", choices=["labelme", "tiny"], default="labelme")
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
