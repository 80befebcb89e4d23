"""Command-line interface: ``python -m repro <command> ...``.

Commands:

- ``figure NAME``              print a reproduced paper figure (fig01..fig12)
- ``query QUERY.gl DATA.dl``   run a GraphLog DSL query over a fact file
- ``datalog PROGRAM.dl``       evaluate a Datalog program (facts inline or
                               via ``--data``), print derived relations
- ``translate PROGRAM.dl``     run Algorithm 3.1 and print the TC program
- ``rpq REGEX DATA.dl``        evaluate a regular path query over the graph
                               encoding of a fact file
- ``dot QUERY.gl``             render a GraphLog query as Graphviz DOT
- ``optimize PROGRAM.dl``      dedupe/inline/prune a Datalog program
- ``magic PROGRAM.dl GOAL``    goal-directed (magic sets) evaluation
- ``export DATA.dl OUT.json``  convert a fact file to a JSON graph
- ``serve``                    run the concurrent query service (TCP server);
                               ``--replica-of HOST:PORT`` makes it a read-only
                               replica of a running primary
- ``route``                    read/write router: writes to the primary, reads
                               fanned across replicas (read-your-writes kept);
                               fails writes over to a promoted replica
- ``promote``                  flip a running replica into a writable primary
                               under a fresh epoch (operator failover step)
- ``call OP [ARG]``            send one request to a running server
- ``top``                      live terminal dashboard over a running server
- ``explain QUERY.gl``         trace a query end to end (parse, translate,
                               stratify, per-stratum fixpoint iterations)
                               locally over ``--data`` or against a server
- ``shell``                    interactive session

Fact files are Datalog programs whose rules are all facts
(``parent(ann, bob).``).

Logging: the library itself never installs handlers; this entry point is
the one place handlers are configured (``--log-level``, ``--log-json``).
``serve`` defaults to ``info``, everything else to ``warning``.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.dsl import parse_graphical_query
from repro.core.engine import GraphLogEngine
from repro.datalog.database import Database
from repro.datalog.engine import evaluate
from repro.datalog.parser import parse_program
from repro.graphs.bridge import graph_from_database
from repro.rpq.evaluate import RPQEvaluator
from repro.translation.sl_to_stc import sl_to_stc
from repro.visual.ascii_art import render_relation
from repro.visual.dot import graphical_query_to_dot


def _load_facts(path):
    with open(path) as handle:
        program = parse_program(handle.read())
    database = Database()
    for rule in program:
        if not rule.is_fact:
            raise SystemExit(f"{path}: expected facts only, found rule {rule}")
        database.add_fact(rule.head.predicate, *(t.value for t in rule.head.args))
    return database


def _load_text(path):
    with open(path) as handle:
        return handle.read()


def cmd_figure(args):
    from repro.figures import ALL_FIGURES

    name = args.name if args.name.startswith("fig") else f"fig{int(args.name):02d}"
    module = ALL_FIGURES.get(name)
    if module is None:
        raise SystemExit(f"unknown figure {args.name!r}; known: {', '.join(sorted(ALL_FIGURES))}")
    print(module.render())
    return 0


def cmd_query(args):
    query = parse_graphical_query(_load_text(args.query))
    database = _load_facts(args.data)
    result = GraphLogEngine().run(query, database)
    predicates = sorted(query.idb_predicates)
    for predicate in predicates:
        rows = result.facts(predicate)
        print(render_relation(rows, title=f"{predicate} ({len(rows)} tuples)"))
    return 0


def cmd_datalog(args):
    program = parse_program(_load_text(args.program))
    database = _load_facts(args.data) if args.data else Database()
    result = evaluate(program, database)
    for predicate in sorted(program.idb_predicates):
        rows = result.facts(predicate)
        print(render_relation(rows, title=f"{predicate} ({len(rows)} tuples)"))
    return 0


def cmd_translate(args):
    program = parse_program(_load_text(args.program))
    result = sl_to_stc(program)
    print(result.program.pretty())
    return 0


def cmd_rpq(args):
    database = _load_facts(args.data)
    graph = graph_from_database(database)
    evaluator = RPQEvaluator(graph)
    if args.source:
        targets = evaluator.targets(args.regex, args.source)
        print(render_relation([(t,) for t in targets], title=f"targets of {args.regex!r} from {args.source}"))
    else:
        pairs = evaluator.pairs(args.regex)
        print(render_relation(pairs, title=f"pairs matching {args.regex!r}"))
    return 0


def cmd_optimize(args):
    from repro.datalog.optimize import optimize

    program = parse_program(_load_text(args.program))
    roots = args.roots.split(",") if args.roots else None
    print(optimize(program, roots=roots).pretty())
    return 0


def cmd_magic(args):
    from repro.datalog.magic import magic_query
    from repro.datalog.parser import parse_atom

    program = parse_program(_load_text(args.program))
    database = _load_facts(args.data) if args.data else Database()
    goal = parse_atom(args.goal)
    answers, stats = magic_query(program, database, goal)
    print(render_relation(answers, title=f"{args.goal} ({len(answers)} answers)"))
    print(f"facts derived: {stats.facts_derived}")
    return 0


def cmd_export(args):
    from repro.io import save_graph

    database = _load_facts(args.data)
    graph = graph_from_database(database)
    save_graph(graph, args.out)
    print(f"wrote {graph.node_count()} nodes, {graph.edge_count()} edges to {args.out}")
    return 0


def _steady_malloc():
    """Take the server's read path off glibc's mmap threshold.

    asyncio reads a socket with ``recv(256 KiB)``: one 256 KiB ``bytes`` per
    read, shrunk to what arrived.  glibc serves a block of that size with a
    fresh ``mmap`` (and the shrink with ``mremap`` / ``munmap``) — two page
    faults and three system calls per request — *unless* its dynamic
    ``M_MMAP_THRESHOLD`` (128 KiB at start) has meanwhile been raised by the
    ``free`` of some larger block, which is a matter of what the process
    happened to allocate earlier, not of the request.  Measured on the
    bench's ``hot_read``, same code on the hit path: 2.0 minor faults and
    0.25 ms server CPU per op below the threshold, 0 and 0.19 ms above it.
    Fixing the thresholds where that adjustment would put them after one
    1 MiB ``free`` makes the cheap case the only case; blocks over 1 MiB are
    still mmapped and returned to the OS when freed.  One arena serves all
    threads, not one each with its own unreturned slack.  A no-op off glibc.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 1 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 2 << 20)  # M_TRIM_THRESHOLD
    mallopt(-8, 1)  # M_ARENA_MAX


def cmd_serve(args):
    import asyncio

    from repro.graphs.bridge import graph_from_database
    from repro.service.server import ServiceConfig, ServiceServer

    _steady_malloc()
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        timeout=args.timeout,
        max_rows=args.max_rows,
        max_bytes=args.max_bytes,
        plan_cache_size=args.plan_cache,
        result_cache_size=args.result_cache,
        data_dir=args.data_dir,
        fsync=args.fsync,
        fsync_interval=args.fsync_interval,
        checkpoint_every=args.checkpoint_every,
        metrics_host=args.metrics_host,
        metrics_port=args.metrics_port,
        slow_ms=args.slow_ms,
        slowlog_capacity=args.slowlog_capacity,
        slowlog_path=args.slowlog_file,
        replica_of=args.replica_of,
        repl_wait_ms=args.repl_wait_ms,
        repl_max_lag=args.max_lag,
        repl_disconnect_grace=args.disconnect_grace,
        version_wait_ms=args.version_wait_ms,
        sub_queue_max=args.sub_queue_max,
        sub_policy=args.sub_policy,
        trace_sample=args.trace_sample,
        span_path=args.span_file,
    )
    # With --data-dir the service recovers the store from disk; --data then
    # only seeds a store that recovered empty (a fresh data directory).
    server = ServiceServer(config=config)
    store = server.service.store
    if args.data and store.version == 0:
        store.load_graph(graph_from_database(_load_facts(args.data)))

    async def _run():
        await server.start()
        durable = f", data dir {args.data_dir} (fsync={args.fsync})" if args.data_dir else ""
        role = f", replica of {args.replica_of}" if args.replica_of else ""
        print(f"repro service listening on {server.host}:{server.port} "
              f"(store version {store.version}{durable}{role})", flush=True)
        if server.metrics_port is not None:
            print(f"telemetry on http://{args.metrics_host}:{server.metrics_port}"
                  f"/metrics (and /healthz)", flush=True)
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.service.close()
    return 0


def cmd_route(args):
    import time as _time

    from repro.replication.router import RouterServer

    router = RouterServer(
        args.primary,
        args.replica,
        host=args.host,
        port=args.port,
        timeout=args.timeout,
        retries=args.retries,
        eject_seconds=args.eject_seconds,
        trace_sample=args.trace_sample,
        metrics_host=args.metrics_host,
        metrics_port=args.metrics_port,
    ).start()
    replicas = ", ".join(args.replica) if args.replica else "(none)"
    print(f"repro router listening on {router.host}:{router.port} "
          f"(primary {args.primary}, replicas {replicas})", flush=True)
    if router.metrics_port is not None:
        print(f"telemetry on http://{args.metrics_host}:{router.metrics_port}"
              f"/metrics (and /healthz)", flush=True)
    try:
        while True:
            _time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        router.stop()
    return 0


def cmd_promote(args):
    import json

    from repro.service.client import ServiceClient

    with ServiceClient(host=args.host, port=args.connect_port) as client:
        result = client.promote()
    print(json.dumps(result, indent=2, sort_keys=True))
    print(f"promoted: {args.host}:{args.connect_port} is now a writable "
          f"primary at version {result['applied_version']} "
          f"(epoch {result['epoch']}, was replicating {result['promoted_from']})")
    return 0


def cmd_call(args):
    import json

    from repro.service.client import ServiceClient
    from repro.service.prepared import QUERY_OPS

    payload = {}
    if args.op in ("graphlog", "datalog"):
        if not args.arg:
            raise SystemExit(f"call {args.op} needs a query file argument")
        payload["query"] = _load_text(args.arg)
    elif args.op in ("explain", "profile"):
        if not args.arg:
            raise SystemExit(f"call {args.op} needs a query file argument")
        target = args.target or "graphlog"
        payload["target"] = target
        payload["query"] = args.arg if target == "rpq" else _load_text(args.arg)
    elif args.op == "rpq":
        if not args.arg:
            raise SystemExit("call rpq needs a regex argument")
        payload["query"] = args.arg
    elif args.op == "update":
        if not args.edge:
            raise SystemExit("call update needs at least one --edge SOURCE LABEL TARGET")
        payload["edges"] = [[s, l, t] for s, l, t in args.edge]
    elif args.op == "slowlog":
        if args.limit is not None:
            payload["limit"] = args.limit
    elif args.op == "trace_get":
        if not args.arg:
            raise SystemExit("call trace_get needs a trace id argument")
        payload["trace_id"] = args.arg
    for field in ("source", "predicate", "timeout"):
        value = getattr(args, field, None)
        if value is not None:
            payload[field] = value

    with ServiceClient(host=args.host, port=args.connect_port) as client:
        response = client.call(args.op, **payload)
    if args.op == "explain" and not args.json:
        print(response["result"]["text"])
        return 0
    if args.json or args.op not in QUERY_OPS:
        # Only the query languages answer with relations to tabulate.
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0
    relations = response["result"]["relations"]
    for name in sorted(relations):
        rows = [tuple(row) for row in relations[name]]
        print(render_relation(rows, title=f"{name} ({len(rows)} tuples)"))
    cache = response.get("cache")
    print(f"version={response.get('version')} cache={cache} "
          f"elapsed_ms={response.get('elapsed_ms')}")
    return 0


def cmd_explain(args):
    import json

    if args.connect_host is not None:
        from repro.service.client import ServiceClient

        query = args.query if args.op == "rpq" else _load_text(args.query)
        with ServiceClient(host=args.connect_host, port=args.connect_port) as client:
            result = client.explain(query, target=args.op)
    else:
        from repro.ham.store import HAMStore
        from repro.service.server import QueryService

        store = HAMStore()
        if args.data:
            store.load_graph(graph_from_database(_load_facts(args.data)))
        service = QueryService(store=store)
        query = args.query if args.op == "rpq" else _load_text(args.query)
        result = service.execute({"op": "explain", "target": args.op, "query": query})["result"]
    if args.json:
        print(json.dumps(result["trace"], indent=2, sort_keys=True))
    else:
        print(result["text"])
        phases = ", ".join(f"{k}={v:.3f}ms" for k, v in result["phases"].items())
        print(f"rows: {result['count']}  phases: {phases}")
    return 0


def cmd_top(args):
    import json

    from repro.service.client import ServiceClient
    from repro.service.top import ClusterDashboard, TopDashboard

    with ServiceClient(host=args.host, port=args.connect_port) as client:
        if args.cluster:
            dashboard = ClusterDashboard(client, interval=args.interval)
        else:
            dashboard = TopDashboard(client, interval=args.interval)
        if args.once or args.json:
            if args.json:
                print(json.dumps(dashboard.snapshot(), indent=2, sort_keys=True))
            else:
                dashboard.tick()  # writes the frame to stdout itself
            return 0
        dashboard.run(iterations=args.iterations)
    return 0


def cmd_trace(args):
    import json

    from repro.obs.assemble import render_trace
    from repro.service.client import ServiceClient

    with ServiceClient(host=args.host, port=args.connect_port) as client:
        result = client.trace_get(args.trace_id)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0 if result.get("found") else 1
    if not result.get("found"):
        print(f"trace {args.trace_id}: no spans found "
              f"(evicted from every ring, or never sampled)")
        return 1
    print(render_trace(args.trace_id, result["spans"]), end="")
    sources = [n for n in result.get("nodes", ()) if n.get("error")]
    for node in sources:
        print(f"  (node {node.get('address', '?')} unreachable: {node['error']})")
    return 0


def cmd_watch(args):
    from repro.service.client import ServiceClient

    query = args.query if args.target == "rpq" else _load_text(args.query)
    client = ServiceClient(host=args.host, port=args.connect_port,
                           timeout=args.timeout)
    try:
        handle = client.subscribe(
            query,
            target=args.target,
            predicate=args.predicate,
            policy=args.policy,
            queue_max=args.queue_max,
            allow_fallback=args.allow_fallback or None,
        )
        mode = handle.mode
        if handle.fallback_reason:
            mode += f" ({handle.fallback_reason})"
        print(f"subscribed #{handle.id} at version {handle.version} "
              f"[{mode}, policy={handle.policy}]", flush=True)
        for name in sorted(handle.rows):
            rows = sorted(handle.rows[name])
            print(f"  {name}: {len(rows)} rows")
            for row in rows:
                print(f"    {tuple(row)}")
        remaining = args.count
        while remaining is None or remaining > 0:
            event = handle.next_event(timeout=None)
            if event["type"] == "closed":
                print(f"subscription closed: {event['reason']}", flush=True)
                return 1 if event["reason"] != "unsubscribed" else 0
            if event["type"] == "snapshot":
                tag = "resync" if event.get("resync") else "snapshot"
                print(f"v{event['version']} {tag}: "
                      f"{sum(len(r) for r in handle.rows.values())} rows",
                      flush=True)
            else:
                for name in sorted(event["inserted"]):
                    for row in sorted(event["inserted"][name]):
                        print(f"v{event['version']} + {name}{tuple(row)}", flush=True)
                for name in sorted(event["deleted"]):
                    for row in sorted(event["deleted"][name]):
                        print(f"v{event['version']} - {name}{tuple(row)}", flush=True)
            if remaining is not None:
                remaining -= 1
        handle.unsubscribe()
    except KeyboardInterrupt:
        print("stopped")
    finally:
        client.close()
    return 0


def cmd_shell(_args):
    from repro.shell import repl

    return repl() or 0


def cmd_dot(args):
    query = parse_graphical_query(_load_text(args.query))
    print(graphical_query_to_dot(query))
    return 0


def _one_of(load):
    """An argparse ``type`` that accepts what ``load()`` lists.  The list is
    read from the op table when the argument is parsed, not when the parser
    is built: commands that never talk to a server do not import it."""

    def check(value):
        choices = load()
        if value not in choices:
            raise argparse.ArgumentTypeError(
                f"invalid choice: {value!r} (choose from {', '.join(choices)})"
            )
        return value

    return check


def _call_ops():
    """One request, one response: every op of the table that does not stream."""
    from repro.service import protocol

    return [name for name, spec in protocol.OPS.items() if not spec.streaming]


def _query_ops():
    from repro.service.prepared import QUERY_OPS

    return QUERY_OPS


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GraphLog (PODS 1990) reproduction toolkit",
    )
    parser.add_argument("--log-level", default=None,
                        choices=("debug", "info", "warning", "error", "critical"),
                        help="handler level (default: info for serve, "
                             "warning otherwise)")
    parser.add_argument("--log-json", action="store_true",
                        help="emit logs as JSON lines (one object per record, "
                             "with request_id)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_figure = sub.add_parser("figure", help="print a reproduced paper figure")
    p_figure.add_argument("name", help="fig01..fig12 (or just the number)")
    p_figure.set_defaults(func=cmd_figure)

    p_query = sub.add_parser("query", help="run a GraphLog query over a fact file")
    p_query.add_argument("query", help="GraphLog DSL file")
    p_query.add_argument("data", help="Datalog fact file")
    p_query.set_defaults(func=cmd_query)

    p_datalog = sub.add_parser("datalog", help="evaluate a Datalog program")
    p_datalog.add_argument("program", help="Datalog program file")
    p_datalog.add_argument("--data", help="Datalog fact file", default=None)
    p_datalog.set_defaults(func=cmd_datalog)

    p_translate = sub.add_parser("translate", help="Algorithm 3.1: SL -> STC")
    p_translate.add_argument("program", help="stratified linear Datalog file")
    p_translate.set_defaults(func=cmd_translate)

    p_rpq = sub.add_parser("rpq", help="regular path query over a fact file")
    p_rpq.add_argument("regex", help="label regular expression, e.g. 'CP+'")
    p_rpq.add_argument("data", help="Datalog fact file")
    p_rpq.add_argument("--source", default=None, help="restrict to one start node")
    p_rpq.set_defaults(func=cmd_rpq)

    p_optimize = sub.add_parser("optimize", help="optimize a Datalog program")
    p_optimize.add_argument("program", help="Datalog program file")
    p_optimize.add_argument("--roots", default=None, help="comma-separated root predicates")
    p_optimize.set_defaults(func=cmd_optimize)

    p_magic = sub.add_parser("magic", help="goal-directed evaluation (magic sets)")
    p_magic.add_argument("program", help="positive Datalog program file")
    p_magic.add_argument("goal", help="goal atom, e.g. 'tc(a, Y)'")
    p_magic.add_argument("--data", default=None, help="Datalog fact file")
    p_magic.set_defaults(func=cmd_magic)

    p_export = sub.add_parser("export", help="fact file -> JSON graph")
    p_export.add_argument("data", help="Datalog fact file")
    p_export.add_argument("out", help="output JSON path")
    p_export.set_defaults(func=cmd_export)

    p_serve = sub.add_parser("serve", help="run the concurrent query service")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7464)
    p_serve.add_argument("--data", default=None, help="Datalog fact file to load")
    p_serve.add_argument("--workers", type=int, default=8, help="evaluation threads")
    p_serve.add_argument("--timeout", type=float, default=30.0,
                         help="default per-request deadline in seconds")
    p_serve.add_argument("--max-rows", type=int, default=100_000,
                         help="default answer row budget")
    p_serve.add_argument("--max-bytes", type=int, default=8 * 1024 * 1024,
                         help="default encoded-answer byte budget")
    p_serve.add_argument("--plan-cache", type=int, default=256,
                         help="prepared-plan cache capacity")
    p_serve.add_argument("--result-cache", type=int, default=1024,
                         help="result cache capacity")
    p_serve.add_argument("--data-dir", default=None,
                         help="durable data directory (WAL + checkpoints); "
                              "the store is recovered from it at startup")
    p_serve.add_argument("--fsync", default="interval",
                         choices=("always", "interval", "off"),
                         help="WAL fsync policy (durability vs throughput)")
    p_serve.add_argument("--fsync-interval", type=float, default=0.05,
                         help="seconds between fsyncs under --fsync interval")
    p_serve.add_argument("--checkpoint-every", type=int, default=0,
                         help="auto-checkpoint after N commits (0 = manual only)")
    p_serve.add_argument("--metrics-port", type=int, default=None,
                         help="serve Prometheus /metrics + /healthz on this "
                              "port (0 = ephemeral; omit to disable)")
    p_serve.add_argument("--metrics-host", default="127.0.0.1",
                         help="bind address for the telemetry endpoint")
    p_serve.add_argument("--slow-ms", type=float, default=None,
                         help="record requests slower than this many ms into "
                              "the slow-query log (omit to disable)")
    p_serve.add_argument("--slowlog-capacity", type=int, default=128,
                         help="slow-query ring capacity")
    p_serve.add_argument("--slowlog-file", default=None,
                         help="also append slow-query records to this JSONL file")
    p_serve.add_argument("--replica-of", default=None, metavar="HOST:PORT",
                         help="run as a read-only replica of this primary: "
                              "bootstrap from its newest checkpoint, tail its "
                              "WAL, reject writes (incompatible with --data-dir)")
    p_serve.add_argument("--repl-wait-ms", type=int, default=2000,
                         help="replica: tail long-poll bound asked of the "
                              "primary when caught up")
    p_serve.add_argument("--max-lag", type=int, default=None,
                         help="replica: /healthz turns 503 when more than this "
                              "many versions behind the primary")
    p_serve.add_argument("--disconnect-grace", type=float, default=10.0,
                         help="replica: /healthz turns 503 after this many "
                              "seconds without a successful tail poll (the "
                              "reported lag is stale while disconnected)")
    p_serve.add_argument("--sub-queue-max", type=int, default=256,
                         help="per-subscription outbound delta queue bound")
    p_serve.add_argument("--sub-policy", default="resync",
                         choices=("resync", "disconnect"),
                         help="default subscription overflow policy")
    p_serve.add_argument("--trace-sample", type=float, default=0.0,
                         help="head-sample this fraction of requests into "
                              "distributed traces (0 disables, 1 traces all)")
    p_serve.add_argument("--span-file", default=None,
                         help="export sampled span trees to this JSONL file "
                              "(rotated once past 16MB)")
    p_serve.add_argument("--version-wait-ms", type=int, default=2000,
                         help="bound on waiting for a read's min_version "
                              "before failing replica_stale")
    p_serve.set_defaults(func=cmd_serve)

    p_route = sub.add_parser(
        "route", help="read/write router over a primary and its replicas"
    )
    p_route.add_argument("--primary", required=True, metavar="HOST:PORT",
                         help="the write target (and read fallback)")
    p_route.add_argument("--replica", action="append", default=[],
                         metavar="HOST:PORT",
                         help="read target (repeatable); reads round-robin "
                              "across healthy replicas")
    p_route.add_argument("--host", default="127.0.0.1")
    p_route.add_argument("--port", type=int, default=7470)
    p_route.add_argument("--timeout", type=float, default=30.0,
                         help="per-backend call timeout in seconds")
    p_route.add_argument("--retries", type=int, default=1,
                         help="backend connect/send retries per request")
    p_route.add_argument("--eject-seconds", type=float, default=2.0,
                         help="how long a failed backend sits out of rotation")
    p_route.add_argument("--trace-sample", type=float, default=0.0,
                         help="head-sample this fraction of routed requests "
                              "into distributed traces")
    p_route.add_argument("--metrics-port", type=int, default=None,
                         help="serve repro_cluster_*/repro_router_* metrics "
                              "and /healthz on this port (0 = ephemeral)")
    p_route.add_argument("--metrics-host", default="127.0.0.1",
                         help="bind address for the router telemetry endpoint")
    p_route.set_defaults(func=cmd_route)

    p_promote = sub.add_parser(
        "promote",
        help="promote a running replica to a writable primary (fresh epoch); "
             "make sure the old primary is actually down first",
    )
    p_promote.add_argument("--host", default="127.0.0.1")
    p_promote.add_argument("--port", dest="connect_port", type=int, default=7464)
    p_promote.set_defaults(func=cmd_promote)

    p_call = sub.add_parser("call", help="send one request to a running server")
    p_call.add_argument("op", type=_one_of(_call_ops),
                        help="any op of docs/SERVICE.md's table that does not stream")
    p_call.add_argument("arg", nargs="?", default=None,
                        help="query file (graphlog/datalog) or regex (rpq)")
    p_call.add_argument("--host", default="127.0.0.1")
    p_call.add_argument("--port", dest="connect_port", type=int, default=7464)
    p_call.add_argument("--source", default=None, help="rpq start node")
    p_call.add_argument("--target", default=None, type=_one_of(_query_ops),
                        help="explain/profile: query language of the input")
    p_call.add_argument("--predicate", default=None, help="relation to return")
    p_call.add_argument("--timeout", type=float, default=None,
                        help="per-request deadline override in seconds")
    p_call.add_argument("--edge", nargs=3, action="append", default=None,
                        metavar=("SOURCE", "LABEL", "TARGET"),
                        help="update: edge to insert (repeatable)")
    p_call.add_argument("--limit", type=int, default=None,
                        help="slowlog: return at most this many entries")
    p_call.add_argument("--json", action="store_true", help="print the raw response")
    p_call.set_defaults(func=cmd_call)

    p_top = sub.add_parser("top", help="live dashboard over a running server")
    p_top.add_argument("--host", default="127.0.0.1")
    p_top.add_argument("--port", dest="connect_port", type=int, default=7464)
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="seconds between polls")
    p_top.add_argument("--iterations", type=int, default=None,
                       help="stop after N redraws (default: run until ^C)")
    p_top.add_argument("--cluster", action="store_true",
                       help="point at a router and render the whole cluster "
                            "(per-node role/epoch/version/lag/QPS plus "
                            "histogram-merged latency)")
    p_top.add_argument("--once", action="store_true",
                       help="render a single snapshot and exit")
    p_top.add_argument("--json", action="store_true",
                       help="print one machine-readable snapshot and exit "
                            "(implies --once)")
    p_top.set_defaults(func=cmd_top)

    p_trace = sub.add_parser(
        "trace",
        help="assemble one distributed trace by id (ask a router to merge "
             "spans from every node; works against a single server too)",
    )
    p_trace.add_argument("trace_id", help="the trace id echoed on responses "
                                          "(trace_id field) and slowlog entries")
    p_trace.add_argument("--host", default="127.0.0.1")
    p_trace.add_argument("--port", dest="connect_port", type=int, default=7470)
    p_trace.add_argument("--json", action="store_true",
                         help="print the merged span set as JSON")
    p_trace.set_defaults(func=cmd_trace)

    p_watch = sub.add_parser(
        "watch",
        help="subscribe to a query on a running server and stream its deltas",
    )
    p_watch.add_argument("query", help="query file (graphlog/datalog) or regex (rpq)")
    p_watch.add_argument("--target", default="graphlog", type=_one_of(_query_ops),
                         help="query language of the input")
    p_watch.add_argument("--host", default="127.0.0.1")
    p_watch.add_argument("--port", dest="connect_port", type=int, default=7464)
    p_watch.add_argument("--predicate", default=None, help="relation to stream")
    p_watch.add_argument("--policy", default=None,
                         choices=("resync", "disconnect"),
                         help="overflow policy for this subscription")
    p_watch.add_argument("--queue-max", type=int, default=None,
                         help="outbound queue bound for this subscription")
    p_watch.add_argument("--allow-fallback", action="store_true",
                         help="accept diff-based re-evaluation for queries "
                              "the maintenance engine cannot handle")
    p_watch.add_argument("--count", type=int, default=None,
                         help="exit after N events (default: run until ^C)")
    p_watch.add_argument("--timeout", type=float, default=60.0,
                         help="request timeout in seconds (the event wait "
                              "itself never times out)")
    p_watch.set_defaults(func=cmd_watch)

    p_explain = sub.add_parser(
        "explain", help="trace a query end to end (spans, iterations, deltas)"
    )
    p_explain.add_argument("query", help="query file (graphlog/datalog) or regex (rpq)")
    p_explain.add_argument("--op", default="graphlog", type=_one_of(_query_ops),
                           help="query language of the input")
    p_explain.add_argument("--data", default=None,
                           help="Datalog fact file (local mode)")
    p_explain.add_argument("--host", dest="connect_host", default=None,
                           help="explain against a running server instead")
    p_explain.add_argument("--port", dest="connect_port", type=int, default=7464)
    p_explain.add_argument("--json", action="store_true",
                           help="print the span tree as JSON instead of ASCII")
    p_explain.set_defaults(func=cmd_explain)

    p_shell = sub.add_parser("shell", help="interactive GraphLog shell")
    p_shell.set_defaults(func=cmd_shell)

    p_dot = sub.add_parser("dot", help="render a GraphLog query as DOT")
    p_dot.add_argument("query", help="GraphLog DSL file")
    p_dot.set_defaults(func=cmd_dot)

    return parser


def main(argv=None):
    from repro.obs.logs import configure_logging

    parser = build_parser()
    args = parser.parse_args(argv)
    # The CLI is the only place a handler is installed; library modules log
    # through module loggers under a NullHandler-ed "repro" root.
    level = args.log_level or ("info" if args.command == "serve" else "warning")
    configure_logging(level=level, json_output=args.log_json)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
