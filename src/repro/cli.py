"""Command-line interface.

Subcommands::

    repro generate  --out bench.npz [--entities N --images N --k K ...]
    repro build     --data bench.npz --out bench.idx
    repro query     --data bench.npz --query "(?x, 0, ?y) . knn(?x, ?y, 5)"
    repro explain   --data bench.npz --query "..." [--engine ring-knn --analyze]
    repro trace     --data bench.npz --query "..." [--engine auto --out t.json]
    repro serve     --from-index bench.idx [--port P --workers N --no-cache ...]
    repro experiments [--only E6,E8 --out benchmarks/results]
    repro stats     --data bench.npz

``generate`` writes an ``.npz`` bundle (see :mod:`repro.graph.io`);
``build`` indexes a bundle once and writes the persistent index file
(:mod:`repro.store`) that ``--from-index`` memory-maps back in with
zero deserialization. ``query``/``explain``/``trace`` read either a
bundle (``--data``) or a built index (``--from-index``). ``trace`` evaluates the query
under a :class:`~repro.obs.trace.QueryTrace` and emits the
schema-validated JSON document (:mod:`repro.obs.schema`). ``experiments``
regenerates the paper's tables at the one recorded scale and checks
every claim EXPERIMENTS.md makes about them
(:mod:`repro.experiments.registry`). Batches and cache counters are the
server's: ``repro serve`` micro-batches concurrent requests over one
pool, and ``GET /metrics?format=json`` carries the cache counters.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import Iterator

from repro import engines
from repro.engines import ENGINE_NAMES, INDEX_ENGINES, RING_ENGINES
from repro.engines.database import GraphDatabase
from repro.query.parser import parse_query
from repro.utils.errors import ReproError, ValidationError


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datasets.wikimedia import WikimediaConfig, generate_benchmark
    from repro.graph.io import save_bundle

    bench = generate_benchmark(
        WikimediaConfig(
            n_entities=args.entities,
            n_images=args.images,
            n_misc_triples=args.misc_triples,
            K=args.big_k,
            seed=args.seed,
        )
    )
    save_bundle(args.out, bench.graph, bench.knn_graph, bench.points)
    print(
        f"wrote {args.out}: {bench.graph.num_edges} triples, "
        f"{bench.knn_graph.num_members} K-NN members (K={bench.knn_graph.K})"
    )
    return 0


def _load_db(path: str) -> GraphDatabase:
    from repro.graph.io import load_bundle

    graph, knn_graph, _points = load_bundle(path)
    return GraphDatabase(graph, knn_graph)


@contextmanager
def _open_db(args: argparse.Namespace) -> Iterator[GraphDatabase]:
    """The database of ``--data`` (build) or ``--from-index`` (mmap),
    closed on the way out — a per-invocation database owns (for
    ``--from-index``) the file mapping, released even on error.

    OS-level open failures are re-raised as typed
    :class:`~repro.utils.errors.ValidationError` so ``main`` turns them
    into a message and a nonzero exit, not a traceback. Structurally
    bad index files already raise the typed ``Store*`` family from
    :mod:`repro.store`.
    """
    if not args.from_index:
        try:
            db = _load_db(args.data)
        except OSError as exc:
            raise ValidationError(
                f"cannot read data bundle {args.data!r}: {exc}"
            ) from exc
    else:
        # Reject graph-requiring engines before mapping the file: the
        # check is static, and bailing afterwards would strand the open
        # mapping. A persistent index deliberately carries the succinct
        # structures only.
        engine = getattr(args, "engine", None)
        if engine is not None and engine not in INDEX_ENGINES:
            raise ValidationError(
                f"engine {engine!r} needs the raw graph tables, which a "
                "persistent index does not carry; use --data, or one of "
                f"{', '.join(INDEX_ENGINES)}"
            )
        try:
            db = GraphDatabase.from_index(args.from_index)
        except OSError as exc:
            raise ValidationError(
                f"cannot open index file {args.from_index!r}: {exc}"
            ) from exc
    try:
        yield db
    finally:
        db.close()


def _engine_class(name: str) -> type:
    """The engine class ``name``; :data:`~repro.engines.ENGINES` (whose
    bundle-only engines the index path never imports) only for those."""
    return INDEX_ENGINES.get(name) or engines.ENGINES[name]


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    """``--data`` / ``--from-index``: exactly one input source."""
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", help=".npz bundle (indexed on load)")
    group.add_argument(
        "--from-index",
        help="persistent index file from 'repro build' (mmap, instant load)",
    )


def _cmd_build(args: argparse.Namespace) -> int:
    from repro.obs.spans import now
    from repro.store import save

    t0 = now()
    db = _load_db(args.data)
    t1 = now()
    nbytes = save(db, args.out)
    t2 = now()
    # What the index stores: distinct triples plus K-NN arcs (the
    # denominator of the benchmark's index_bytes_per_edge).
    edges = db.graph.num_edges + sum(
        int(g.lengths.sum()) for g in db.knn_graphs.values()
    )
    print(
        f"wrote {args.out}: {nbytes} bytes, {nbytes / max(edges, 1):.2f} "
        f"B/edge over {edges} edges "
        f"(index build {t1 - t0:.3f}s, serialize {t2 - t1:.3f}s)"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    with _open_db(args) as db:
        query = parse_query(args.query)
        engine = _engine_class(args.engine)(db)
        result = engine.evaluate(
            query, timeout=args.timeout, limit=args.limit
        )
        for solution in result.solutions[: args.print_limit]:
            print(
                "  " + ", ".join(
                    f"?{v.name}={c}" for v, c in sorted(
                        solution.items(), key=lambda item: item[0].name
                    )
                )
            )
        shown = min(len(result.solutions), args.print_limit)
        if shown < len(result.solutions):
            print(f"  ... ({len(result.solutions) - shown} more)")
        flag = " (TIMED OUT)" if result.timed_out else ""
        print(
            f"{len(result.solutions)} solutions in {result.elapsed:.3f}s "
            f"via {engine.name}{flag}"
        )
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.explain import explain

    cache = None
    if args.analyze and args.cache:
        from repro.cache import QueryCache

        cache = QueryCache()
    with _open_db(args) as db:
        report = explain(
            db,
            parse_query(args.query),
            engine=args.engine,
            analyze=args.analyze,
            timeout=args.timeout,
            cache=cache,
        )
        print(report.format())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeConfig, run_server

    overrides = {}
    if args.cache_bytes is not None:
        overrides["cache_bytes"] = args.cache_bytes
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        capacity=args.capacity,
        default_timeout=args.timeout,
        drain_grace=args.drain_grace,
        debug_faults=args.debug_faults,
        cache=args.cache,
        **overrides,
    )
    with _open_db(args) as db:
        return run_server(db, config)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import QueryTrace, validate_trace

    with _open_db(args) as db:
        trace = QueryTrace(query=args.query)
        _engine_class(args.engine)(db).evaluate(
            parse_query(args.query),
            timeout=args.timeout,
            limit=args.limit,
            trace=trace,
        )
        document = trace.to_dict()
    validate_trace(document)
    text = json.dumps(document, indent=args.indent, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.experiments.report import format_table
    from repro.graph.io import load_bundle
    from repro.graph.stats import STATS_HEADERS, compute_graph_stats

    graph, knn_graph, _points = load_bundle(args.data)
    stats = compute_graph_stats(graph)
    print(format_table(STATS_HEADERS, stats.rows(), title="graph statistics"))
    if knn_graph is not None:
        print(
            f"K-NN graph: {knn_graph.num_members} members, K={knn_graph.K}"
            + (", truncated rows" if knn_graph.is_truncated else "")
        )
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.registry import run_experiments

    report = run_experiments(args.only.split(",") if args.only else None)
    print(report.claims_table())
    print(f"wrote {report.write(Path(args.out))} files under {args.out}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Worst-case-optimal similarity joins on graph databases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a benchmark bundle")
    p.add_argument("--entities", type=int, default=600)
    p.add_argument("--images", type=int, default=250)
    p.add_argument("--misc-triples", type=int, default=4000)
    p.add_argument("--K", type=int, default=16, dest="big_k")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser(
        "build",
        help="index a bundle and write a persistent index file",
    )
    p.add_argument("--data", required=True, help=".npz bundle")
    p.add_argument("--out", required=True, help="index file path")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("query", help="evaluate an extended BGP")
    _add_source_flags(p)
    p.add_argument("--query", required=True)
    p.add_argument("--engine", choices=sorted(ENGINE_NAMES), default="ring-knn")
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--print-limit", type=int, default=20)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("explain", help="explain a query plan")
    _add_source_flags(p)
    p.add_argument("--query", required=True)
    p.add_argument("--engine", choices=list(RING_ENGINES), default="ring-knn")
    p.add_argument(
        "--analyze",
        action="store_true",
        help="EXPLAIN ANALYZE: execute the query and report the "
        "observed leap/intersection/binding counters and phase timings",
    )
    p.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="probe/fill a cross-query cache during --analyze and "
        "render the outcome (hit/miss/inadmissible + signature)",
    )
    p.add_argument("--timeout", type=float, default=60.0)
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser(
        "trace", help="evaluate a query and emit its JSON trace"
    )
    _add_source_flags(p)
    p.add_argument("--query", required=True)
    p.add_argument("--engine", choices=sorted(ENGINE_NAMES), default="auto")
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--out", default=None, help="write JSON here (else stdout)")
    p.add_argument("--indent", type=int, default=2)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "serve",
        help="run the long-running HTTP query server",
    )
    _add_source_flags(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=0,
        help="0 binds an ephemeral port (printed on the ready line)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="1 evaluates in the server's dispatch thread; N >= 2 "
        "starts a pool of N worker processes",
    )
    p.add_argument(
        "--capacity",
        type=int,
        default=16,
        help="admission window; beyond it queries shed with 429",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="default per-query deadline (seconds, end-to-end)",
    )
    p.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        help="seconds a SIGTERM drain waits for in-flight queries",
    )
    p.add_argument(
        "--debug-faults",
        action="store_true",
        help="allow the 'debug' request field (fault-injection tests)",
    )
    p.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="share a cross-query result cache between all routes "
        "(per-request 'cached' field, /metrics counters)",
    )
    p.add_argument(
        "--cache-bytes",
        type=int,
        default=None,
        help="byte budget of the cache's packed solution matrices "
        "(default 32 MiB)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "experiments",
        help="regenerate the paper's tables and check its claims "
        "(exit 1 if one fails; see EXPERIMENTS.md)",
    )
    p.add_argument(
        "--only",
        default=None,
        help="comma-separated experiment ids, e.g. E6,E8 (default: all)",
    )
    p.add_argument(
        "--out",
        default="benchmarks/results",
        help="directory for the *.txt tables and claims.txt",
    )
    p.set_defaults(func=_cmd_experiments)

    p = sub.add_parser("stats", help="describe a data bundle")
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Library-originated failures (:class:`~repro.utils.errors.ReproError`
    — malformed queries, missing/corrupt inputs, store format errors)
    become a typed one-line message on stderr and exit code 2, never a
    traceback. Genuine bugs still propagate.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"repro {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
