"""Command-line interface: regenerate any table or figure of the paper.

Usage::

    python -m repro table2
    python -m repro fig4 --config 1 --scale 0.05 --samples 60
    python -m repro fig7 --config 6 --budgets 100 300 500
    python -m repro table6 --scale 0.05
    python -m repro fig5 --rr-backend sequential       # legacy RR sampler
    python -m repro all --scale 0.02 --samples 20      # quick full sweep

    # the persistent influence oracle (repro.store): preprocess once ...
    python -m repro oracle build --graph g.txt --store g.sketch \
        --max-budget 50 --rr-sets 100000 --shards 8 --processes 8
    # ... then answer queries from the file in any later process
    python -m repro oracle query --graph g.txt --store g.sketch \
        --budgets 10 25 --spread --allocate 25 10
    python -m repro oracle extend --graph g.txt --store g.sketch --add 50000
    # put a fleet of stores behind a socket: async HTTP serving with
    # request coalescing, LRU mmap management and hot-swap on reload
    python -m repro serve --store-root stores/ --port 8732
    # Com-IC (GAP-aware) sketch stores: the RR-SIM+/RR-CIM pipeline
    # compiled once, served warm, theta-extended cursor-exactly
    python -m repro oracle build --graph g.txt --store c.sketch \
        --model comic --max-budget 10 --gap 0.1 0.4 0.1 0.4

Every subcommand prints the regenerated rows in the same shape the paper
reports.  Scales refer to the dataset stand-ins (DESIGN.md §11).  The engine
backend is selectable per run (``--rr-backend`` or ``$REPRO_RR_BACKEND``):
``batched`` (vectorized, default), ``parallel`` (the batched kernels
fanned over the shared-memory worker pool for sharded builds and forward
Monte-Carlo), or ``sequential`` (the historical per-world/per-set Python
loops, byte-reproducible against pre-vectorization seeds).  The single
knob covers every RR-based phase —
PRIMA/IMM/TIM/SSA sampling, TIM's width-based KPT estimation, the
GAP-aware Com-IC sampling of RR-SIM+/RR-CIM — *and* every forward
Monte-Carlo phase: welfare/adoption estimation, Com-IC spread estimation
and the baselines' forward adopter worlds (DESIGN.md §3).  Internally the
choice is carried by one :class:`repro.engine.EngineContext` per run
(DESIGN.md §5) — the CLI exports ``$REPRO_RR_BACKEND`` around each
subcommand so algorithms without an explicit context argument resolve
the same backend at context construction.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.rrset.batch import BACKEND_ENV, BACKENDS


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", type=float, default=0.05,
        help="dataset node-count multiplier (default 0.05)",
    )
    parser.add_argument(
        "--samples", type=int, default=60,
        help="Monte-Carlo samples per welfare estimate (default 60)",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument(
        "--rr-backend", choices=BACKENDS, default=None,
        help="engine backend: 'batched' (vectorized numpy frontier "
        "expansion, the default), 'parallel' (batched kernels plus the "
        "shared-memory worker pool for sharded builds and forward "
        "Monte-Carlo; worker count via $REPRO_PARALLEL_PROCESSES) or "
        "'sequential' (historical per-set/per-world Python loops). "
        "Applies to all RR phases (incl. KPT estimation and the "
        "GAP-aware Com-IC sampler) and to all forward Monte-Carlo "
        "phases (welfare/spread estimation, forward adopter worlds). "
        "Also settable via $REPRO_RR_BACKEND.",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table2", help="network statistics")

    fig4 = sub.add_parser("fig4", help="two-item welfare (configs 1-4)")
    fig4.add_argument("--config", type=int, default=1, choices=(1, 2, 3, 4))
    fig4.add_argument(
        "--no-comic", action="store_true",
        help="skip the slow RR-SIM+/RR-CIM baselines",
    )
    _add_common(fig4)

    fig5 = sub.add_parser("fig5", help="running times (config 1)")
    fig5.add_argument("--networks", nargs="+", default=None)
    _add_common(fig5)

    fig6 = sub.add_parser("fig6", help="RR-set counts (config 1)")
    fig6.add_argument("--networks", nargs="+", default=None)
    _add_common(fig6)

    fig7 = sub.add_parser("fig7", help="multi-item welfare (configs 5-8)")
    fig7.add_argument("--config", type=int, default=5, choices=(5, 6, 7, 8))
    fig7.add_argument("--budgets", type=int, nargs="+", default=(100, 300, 500))
    _add_common(fig7)

    fig8a = sub.add_parser("fig8a", help="running time vs number of items")
    fig8a.add_argument("--items", type=int, nargs="+", default=(1, 3, 5, 8, 10))
    _add_common(fig8a)

    fig8bc = sub.add_parser("fig8bc", help="real-Param budget sweep")
    fig8bc.add_argument("--budgets", type=int, nargs="+", default=(100, 300, 500))
    _add_common(fig8bc)

    fig8d = sub.add_parser("fig8d", help="budget-skew study")
    fig8d.add_argument("--total", type=int, default=500)
    _add_common(fig8d)

    fig9 = sub.add_parser("fig9abc", help="bundleGRD vs BDHS externality")
    fig9.add_argument("--network", default="orkut")
    _add_common(fig9)

    fig9d = sub.add_parser("fig9d", help="scalability sweep")
    fig9d.add_argument("--budget", type=int, default=50)
    _add_common(fig9d)

    sub.add_parser("table5", help="learned auction parameters")

    oracle = sub.add_parser(
        "oracle",
        help="persistent influence-oracle store (build once, query forever)",
    )
    osub = oracle.add_subparsers(dest="oracle_command", required=True)

    def _oracle_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--graph", required=True, metavar="FILE",
            help="edge-list file (weighted 'u v p' lines; see graph.io) "
            "or a mmap'd .graph CSR file from 'repro graph ingest'",
        )
        p.add_argument(
            "--store", required=True, metavar="FILE",
            help="sketch-store file path",
        )
        p.add_argument(
            "--rr-backend", choices=BACKENDS, default=None,
            help="RR sampling backend (also $REPRO_RR_BACKEND)",
        )

    build = osub.add_parser(
        "build", help="preprocess a graph into an on-disk oracle store"
    )
    _oracle_common(build)
    build.add_argument("--max-budget", type=int, required=True,
                       help="largest seed budget the oracle must serve")
    build.add_argument("--epsilon", type=float, default=0.5)
    build.add_argument("--ell", type=float, default=1.0)
    build.add_argument("--seed", type=int, default=0, help="RNG seed")
    build.add_argument(
        "--rr-sets", type=int, default=None,
        help="size θ of the persisted spread-estimation collection "
        "(prima model only; default 10000)",
    )
    build.add_argument(
        "--shards", type=int, default=1,
        help="sample the estimation collection in this many shards",
    )
    build.add_argument(
        "--processes", type=int, default=0,
        help="process-pool size for sharded builds (0 = in-process)",
    )
    build.add_argument(
        "--triggering", choices=("ic", "lt"), default=None,
        help="triggering model persisted with the store (default IC)",
    )
    build.add_argument(
        "--model", choices=("prima", "comic"), default="prima",
        help="sketch model: 'prima' (plain influence oracle) or 'comic' "
        "(GAP-aware Com-IC sketches via the RR-SIM+/RR-CIM pipeline; "
        "--max-budget is the selected item's budget)",
    )
    build.add_argument(
        "--gap", type=float, nargs=4, default=(0.1, 0.3, 0.1, 0.3),
        metavar=("QA0", "QAB", "QB0", "QBA"),
        help="Com-IC GAP parameters q_A|0 q_A|B q_B|0 q_B|A "
        "(comic model only)",
    )
    build.add_argument(
        "--select-item", type=int, choices=(0, 1), default=0,
        help="item whose seeds the comic sketch selects (comic only)",
    )
    build.add_argument(
        "--fixed-budget", type=int, default=None,
        help="IMM budget for the other item's fixed seeds "
        "(comic only; default --max-budget)",
    )
    build.add_argument(
        "--forward-worlds", type=int, default=20,
        help="forward Com-IC worlds estimating the GAP boost (comic only)",
    )
    build.add_argument(
        "--comic-variant", choices=("rr-sim", "rr-cim"), default="rr-sim",
        help="comic pipeline: rr-sim (RR-SIM+) or rr-cim (extra forward "
        "pass)",
    )

    extend = osub.add_parser(
        "extend", help="grow a store's RR collection without rebuilding"
    )
    _oracle_common(extend)
    extend.add_argument(
        "--add", type=int, required=True,
        help="number of RR sets to append (incremental θ-extension)",
    )

    query = osub.add_parser(
        "query", help="answer seed/spread/allocation queries from a store"
    )
    _oracle_common(query)
    query.add_argument(
        "--budgets", type=int, nargs="+", default=(10,),
        help="budgets to answer seed-prefix queries for",
    )
    query.add_argument(
        "--spread", action="store_true",
        help="also print the estimated spread of every returned prefix",
    )
    query.add_argument(
        "--allocate", type=int, nargs="+", default=None, metavar="B",
        help="run bundleGRD on the stored order for this budget vector",
    )
    query.add_argument(
        "--no-mmap", action="store_true",
        help="materialize store arrays in RAM instead of memory-mapping",
    )

    graph_cmd = sub.add_parser(
        "graph",
        help="web-scale graph files: stream-ingest edge lists into "
        "mmap'd .graph CSR files",
    )
    gsub = graph_cmd.add_subparsers(dest="graph_command", required=True)
    ingest = gsub.add_parser(
        "ingest",
        help="two-pass streaming ingest of a SNAP-style edge list",
    )
    ingest.add_argument(
        "--edges", required=True, metavar="FILE",
        help="SNAP-style edge list ('u v' or 'u v p' lines; #/%% comments)",
    )
    ingest.add_argument(
        "--out", required=True, metavar="FILE",
        help="output .graph CSR file path",
    )
    ingest.add_argument(
        "--num-nodes", type=int, default=None,
        help="override the node count (default: max id + 1)",
    )
    info = gsub.add_parser(
        "info", help="print a .graph file's header without loading arrays"
    )
    info.add_argument("path", metavar="FILE", help=".graph file")

    serve = sub.add_parser(
        "serve",
        help="async HTTP serving layer over a fleet of sketch stores",
    )
    serve.add_argument(
        "--store-root", action="append", required=True, metavar="DIR",
        help="directory scanned (recursively) for *.sketch stores; "
        "repeatable — keys are file stems",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=8732,
        help="bind port; 0 picks a free port (printed on stdout)",
    )
    serve.add_argument(
        "--lru-size", type=int, default=8,
        help="max simultaneously mmap'd stores (LRU eviction beyond)",
    )
    serve.add_argument(
        "--coalesce-window", type=float, default=2.0, metavar="MS",
        help="spread-query coalescing window in milliseconds; "
        "0 disables coalescing (default 2.0)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=64,
        help="flush a coalesced batch at this many queries (also bounds "
        "the batched kernel's scratch memory at max-batch x theta bytes)",
    )
    serve.add_argument(
        "--no-mmap", action="store_true",
        help="materialize store arrays in RAM instead of memory-mapping",
    )
    serve.add_argument(
        "--graph", default=None, metavar="FILE",
        help="verify at startup that every discovered store was built "
        "from this graph (edge list or .graph CSR file); mismatches "
        "abort before the server binds",
    )

    table6 = sub.add_parser("table6", help="RR-set count parity")
    table6.add_argument("--total", type=int, default=500)
    _add_common(table6)

    all_cmd = sub.add_parser("all", help="run every experiment (slow)")
    _add_common(all_cmd)

    obs_cmd = sub.add_parser(
        "obs",
        help="observability: dump the metrics catalogue or scrape a server",
    )
    obs_cmd.add_argument(
        "--scrape", default=None, metavar="HOST:PORT",
        help="fetch /v1/metrics from a live 'repro serve' endpoint "
        "(validated as Prometheus text) instead of dumping this "
        "process's registry",
    )

    lint = sub.add_parser(
        "lint",
        help="AST-based invariant checker (determinism, ctx-threading, ...)",
        add_help=False,
    )
    lint.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to the checker ('repro lint --help' there)",
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # The checker has its own argparse; dispatch before parsing so its
    # options pass through verbatim (REMAINDER stopped eating leading
    # options on 3.12+).
    if argv[:1] == ["lint"]:
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    backend = getattr(args, "rr_backend", None)
    if not backend:
        return _run_with_trace(args)
    # RRCollection resolves $REPRO_RR_BACKEND at construction time, so
    # exporting reconfigures every algorithm the subcommand runs; restored
    # afterwards so in-process callers don't inherit the choice.
    # repro-lint: disable=RL002 --rr-backend is the documented process knob
    saved = os.environ.get(BACKEND_ENV)
    os.environ[BACKEND_ENV] = backend  # repro-lint: disable=RL002 see above
    try:
        return _run_with_trace(args)
    finally:
        if saved is None:
            # repro-lint: disable=RL002 restore half of the same bracket
            os.environ.pop(BACKEND_ENV, None)
        else:
            # repro-lint: disable=RL002 restore half of the same bracket
            os.environ[BACKEND_ENV] = saved


def _run_with_trace(args: argparse.Namespace) -> int:
    """Run a subcommand; with ``REPRO_TRACE=1``, print its span trees."""
    from repro import obs

    code = _run(args)
    if obs.tracing_enabled():
        for root in obs.finished_roots():
            print(obs.render_span_tree(root), flush=True)
        obs.clear_finished()
    return code


def _run(args: argparse.Namespace) -> int:
    from repro.experiments.runner import print_table

    if args.command == "table2":
        from repro.graph.datasets import table2_rows

        print_table(list(table2_rows(scale=0.05)), title="Table 2")
        return 0

    if args.command == "fig4":
        from repro.experiments._two_item import TWO_ITEM_ALGORITHMS, runs_as_rows
        from repro.experiments.fig4_welfare import run_fig4

        algorithms = tuple(
            a
            for a in TWO_ITEM_ALGORITHMS
            if not (args.no_comic and a in ("RR-SIM+", "RR-CIM"))
        )
        runs = run_fig4(
            args.config,
            scale=args.scale,
            num_samples=args.samples,
            seed=args.seed,
            algorithms=algorithms,
        )
        print_table(runs_as_rows(runs), title=f"Fig 4 — Configuration {args.config}")
        return 0

    if args.command in ("fig5", "fig6"):
        from repro.experiments._two_item import runs_as_rows
        from repro.experiments.fig5_runtime import FIG5_NETWORKS, run_fig5
        from repro.experiments.fig6_rrsets import run_fig6

        networks = tuple(args.networks) if args.networks else FIG5_NETWORKS
        runner = run_fig5 if args.command == "fig5" else run_fig6
        kwargs = dict(networks=networks, scale=args.scale, seed=args.seed)
        if args.command == "fig5":
            kwargs["num_samples"] = args.samples
        panels = runner(**kwargs)
        for network, runs in panels.items():
            print_table(
                runs_as_rows(runs),
                title=f"{'Fig 5' if args.command == 'fig5' else 'Fig 6'} — {network}",
            )
        return 0

    if args.command == "fig7":
        from repro.experiments.fig7_multi_item import run_fig7, runs_as_rows

        runs = run_fig7(
            args.config,
            scale=args.scale,
            total_budgets=tuple(args.budgets),
            num_samples=args.samples,
            seed=args.seed,
        )
        print_table(runs_as_rows(runs), title=f"Fig 7 — Configuration {args.config}")
        return 0

    if args.command == "fig8a":
        from repro.experiments.fig8_real import run_items_runtime

        runs = run_items_runtime(
            scale=args.scale, item_counts=tuple(args.items), seed=args.seed
        )
        rows = [
            {
                "algorithm": r.algorithm,
                "num_items": r.num_items,
                "seconds": round(r.seconds, 3),
            }
            for r in runs
        ]
        print_table(rows, title="Fig 8(a) — items vs runtime")
        return 0

    if args.command == "fig8bc":
        from repro.experiments.fig8_real import run_real_param_sweep

        runs = run_real_param_sweep(
            scale=args.scale,
            total_budgets=tuple(args.budgets),
            num_samples=args.samples,
            seed=args.seed,
        )
        rows = [
            {
                "algorithm": r.algorithm,
                "total_budget": r.total_budget,
                "welfare": round(r.welfare, 1),
                "seconds": round(r.seconds, 3),
            }
            for r in runs
        ]
        print_table(rows, title="Fig 8(b, c) — real Param sweep")
        return 0

    if args.command == "fig8d":
        from repro.experiments.fig8_real import run_budget_skew

        runs = run_budget_skew(
            scale=args.scale,
            total_budget=args.total,
            num_samples=args.samples,
            seed=args.seed,
        )
        rows = [
            {
                "distribution": r.distribution,
                "budgets": "/".join(str(b) for b in r.budgets),
                "welfare": round(r.welfare, 1),
                "seconds": round(r.seconds, 3),
            }
            for r in runs
        ]
        print_table(rows, title="Fig 8(d) — budget skew")
        return 0

    if args.command == "fig9abc":
        from repro.experiments.fig9_bdhs import result_rows, run_fig9_bdhs

        result = run_fig9_bdhs(
            args.network,
            scale=args.scale,
            num_samples=args.samples,
            seed=args.seed,
        )
        print_table(result_rows(result), title=f"Fig 9 — {args.network}")
        return 0

    if args.command == "fig9d":
        from repro.experiments.fig9_scalability import (
            run_fig9_scalability,
            runs_as_rows,
        )

        runs = run_fig9_scalability(
            scale=args.scale,
            budget=args.budget,
            num_samples=args.samples,
            seed=args.seed,
        )
        print_table(runs_as_rows(runs), title="Fig 9(d) — scalability")
        return 0

    if args.command == "graph":
        return _run_graph(args)

    if args.command == "oracle":
        return _run_oracle(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "obs":
        return _run_obs(args)

    if args.command == "table5":
        from repro.utility.learned import table5_rows

        print_table(list(table5_rows()), title="Table 5 — learned parameters")
        return 0

    if args.command == "table6":
        from repro.experiments.table6_rrsets import rows_as_dicts, run_table6

        rows = run_table6(
            scale=args.scale, total_budget=args.total, seed=args.seed
        )
        print_table(rows_as_dicts(rows), title="Table 6 — RR-set counts")
        return 0

    if args.command == "all":
        for command in (
            ["table2"],
            ["fig4", "--config", "1", "--no-comic"],
            ["fig7", "--config", "5", "--budgets", "100", "200"],
            ["fig8d", "--total", "100"],
            ["table5"],
            ["table6", "--total", "100"],
        ):
            extra = (
                ["--scale", str(args.scale), "--samples", str(args.samples)]
                if command[0] not in ("table2", "table5")
                else []
            )
            main(command + extra)
        return 0

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


def _run_obs(args: argparse.Namespace) -> int:
    """``repro obs`` — the metrics catalogue, local or scraped live."""
    from repro import obs

    if args.scrape:
        host, _, port = args.scrape.rpartition(":")
        if not host or not port.isdigit():
            raise SystemExit("--scrape takes HOST:PORT")
        from repro.serving.client import ServingClient

        with ServingClient(host, int(port)) as client:
            text = client.metrics_text()
        obs.parse_prometheus(text)  # refuse to relay malformed exposition
        print(text, end="", flush=True)
        return 0
    # Import every instrumented layer so its registrations land in the
    # registry; a fresh CLI process then prints the complete catalogue
    # of HELP/TYPE lines even before any samples exist.
    import repro.diffusion.welfare  # noqa: F401
    import repro.parallel.pool  # noqa: F401
    import repro.rrset.prima  # noqa: F401
    import repro.serving.app  # noqa: F401
    import repro.store.builder  # noqa: F401

    print(obs.render_prometheus(), end="", flush=True)
    return 0


def _graph_source_kind(path: str) -> str:
    """How ``--graph`` error messages name the source format."""
    from repro.graph.bigcsr import is_graph_file

    return ".graph CSR file" if is_graph_file(path) else "edge list"


class _ArgumentValueError(SystemExit, ValueError):
    """A rejected argument value: from the shell, one line on stderr and
    exit status 1; to in-process callers of :func:`main`, a ``ValueError``."""


def _load_graph_source(path: str):
    """Load a ``--graph`` argument: mmap'd ``.graph`` file or edge list."""
    from repro.graph.bigcsr import GraphFileError, is_graph_file, load_graph
    from repro.graph.io import read_edge_list

    if is_graph_file(path):
        try:
            return load_graph(path)
        except GraphFileError as exc:
            raise SystemExit(f"cannot load .graph CSR file: {exc}")
    graph, _ = read_edge_list(path)
    return graph


def _graph_source_fingerprint(path: str) -> str:
    """Fingerprint of a ``--graph`` source; O(1) for ``.graph`` files."""
    from repro.graph.bigcsr import (
        GraphFileError,
        graph_file_fingerprint,
        is_graph_file,
    )
    from repro.graph.io import graph_fingerprint

    if is_graph_file(path):
        try:
            return graph_file_fingerprint(path)
        except GraphFileError as exc:
            raise SystemExit(f"cannot load .graph CSR file: {exc}")
    return graph_fingerprint(_load_graph_source(path))


def _run_graph(args: argparse.Namespace) -> int:
    """``repro graph ingest|info`` — the web-scale .graph file path."""
    from repro.graph.bigcsr import (
        GraphFileError,
        GraphIngestError,
        ingest_edge_list,
        read_graph_header,
    )

    if args.graph_command == "ingest":
        try:
            stats = ingest_edge_list(
                args.edges, args.out, num_nodes=args.num_nodes
            )
        except GraphIngestError as exc:
            raise SystemExit(f"ingest failed: {exc}")
        print(
            f"ingested {args.out}: n={stats.num_nodes} "
            f"m={stats.num_edges} records={stats.records} "
            f"self_loops={stats.self_loops} duplicates={stats.duplicates} "
            f"weighted={stats.weighted}"
        )
        return 0

    if args.graph_command == "info":
        try:
            header = read_graph_header(args.path)
        except GraphFileError as exc:
            raise SystemExit(str(exc))
        meta = header["meta"]
        print(f"format_version={header['format_version']}")
        print(f"num_nodes={meta.get('num_nodes')}")
        print(f"num_edges={meta.get('num_edges')}")
        print(f"fingerprint={meta.get('fingerprint')}")
        ingest = meta.get("ingest")
        if ingest:
            print(
                "ingest: "
                + " ".join(f"{k}={v}" for k, v in sorted(ingest.items()))
            )
        return 0

    raise AssertionError(
        f"unhandled graph command {args.graph_command}"
    )  # pragma: no cover


def _run_serve(args: argparse.Namespace) -> int:
    """``repro serve`` — the async oracle serving layer (repro.serving)."""
    from repro.serving import ServingApp, StoreRouter

    router = StoreRouter(max_open=args.lru_size, mmap=not args.no_mmap)
    keys = []
    for root in args.store_root:
        keys.extend(router.add_root(root))
    if not keys:
        raise SystemExit(
            "no *.sketch stores found under "
            + ", ".join(args.store_root)
            + " — build one with 'repro oracle build'"
        )
    if args.graph is not None:
        expected = _graph_source_fingerprint(args.graph)
        for key in sorted(keys):
            with router.lease(key) as handle:
                actual = handle.fingerprint
            if actual != expected:
                raise SystemExit(
                    f"store {key!r} was not built from the "
                    f"{_graph_source_kind(args.graph)} {args.graph} "
                    f"(store fingerprint {actual[:16]}…, graph "
                    f"{expected[:16]}…) — rebuild the store or drop "
                    "--graph"
                )
    app = ServingApp(
        router,
        host=args.host,
        port=args.port,
        window=args.coalesce_window / 1000.0,
        max_batch=args.max_batch,
        coalesce=args.coalesce_window > 0,
    )

    def ready(host: str, port: int) -> None:
        print(f"serving {len(keys)} stores on {host}:{port}", flush=True)
        print("keys: " + " ".join(sorted(keys)), flush=True)

    summary = app.run(ready=ready, install_signal_handlers=True)
    print(
        "clean shutdown: stores={stores} leaked={leaked} "
        "requests={requests} swaps={swaps} evictions={evictions}".format(
            **summary
        ),
        flush=True,
    )
    return 0 if summary["leaked"] == 0 else 1


def _run_oracle(args: argparse.Namespace) -> int:
    """``repro oracle build|extend|query`` — the repro.store serving layer."""
    from repro.engine import EngineContext
    from repro.store import (
        OracleService,
        SketchStore,
        StaleStoreError,
        build_comic_store,
        build_sharded,
        build_store,
        extend_store,
    )

    graph = _load_graph_source(args.graph)

    if args.oracle_command == "build":
        # One context names the whole build: backend resolved once
        # (explicit flag > $REPRO_RR_BACKEND > batched), seed-rooted
        # lineage for sharded child streams.
        ctx = EngineContext.create(backend=args.rr_backend, seed=args.seed)
        # One resolved default shared by both prima build branches (the
        # builders' own signature default, spelled once).
        rr_sets = args.rr_sets if args.rr_sets is not None else 10_000
        # Builders reject bad values (--max-budget 0) before any sampling.
        try:
            if args.model == "comic":
                if args.shards > 1:
                    raise SystemExit(
                        "comic stores build single-stream; drop --shards"
                    )
                if args.rr_sets is not None:
                    raise SystemExit(
                        "comic stores persist the GAP θ phase itself; "
                        "--rr-sets does not apply, drop it"
                    )
                if args.triggering is not None:
                    raise SystemExit(
                        "comic stores sample under the Com-IC GAP model; "
                        "--triggering does not apply, drop it"
                    )
                from repro.diffusion.comic import ComICModel

                store = build_comic_store(
                    graph,
                    ComICModel(*args.gap),
                    args.max_budget,
                    select_item=args.select_item,
                    fixed_budget=args.fixed_budget,
                    epsilon=args.epsilon,
                    ell=args.ell,
                    num_forward_worlds=args.forward_worlds,
                    extra_forward_pass=args.comic_variant == "rr-cim",
                    ctx=ctx,
                )
            elif args.shards > 1:
                store = build_sharded(
                    graph,
                    args.max_budget,
                    num_shards=args.shards,
                    processes=args.processes,
                    epsilon=args.epsilon,
                    ell=args.ell,
                    estimation_rr_sets=rr_sets,
                    triggering=args.triggering,
                    ctx=ctx,
                )
            else:
                store = build_store(
                    graph,
                    args.max_budget,
                    epsilon=args.epsilon,
                    ell=args.ell,
                    estimation_rr_sets=rr_sets,
                    triggering=args.triggering,
                    ctx=ctx,
                )
        except ValueError as exc:
            raise _ArgumentValueError(f"oracle build: {exc}") from exc
        store.save(args.store)
        print(
            f"built {args.store}: model={store.model} n={store.num_nodes} "
            f"max_budget={store.max_budget} rr_sets={store.num_sets} "
            f"total_width={store.total_width} "
            f"fingerprint={store.fingerprint[:16]}"
        )
        return 0

    if args.oracle_command == "extend":
        store = SketchStore.load(args.store, mmap=False)
        # No context here: an extension's execution state is the
        # persisted one; --rr-backend is the explicit override knob.
        try:
            extended = extend_store(
                store, graph, args.add, backend=args.rr_backend
            )
        except StaleStoreError as exc:
            raise SystemExit(
                f"store {args.store} was not built from the "
                f"{_graph_source_kind(args.graph)} {args.graph}: {exc}"
            )
        extended.save(args.store)
        print(
            f"extended {args.store}: rr_sets {store.num_sets} -> "
            f"{extended.num_sets}"
        )
        return 0

    if args.oracle_command == "query":
        try:
            service = OracleService.open(
                args.store, graph, mmap=not args.no_mmap
            )
        except StaleStoreError as exc:
            raise SystemExit(
                f"store {args.store} was not built from the "
                f"{_graph_source_kind(args.graph)} {args.graph}: {exc}"
            )
        for budget in args.budgets:
            seeds = service.seeds(int(budget))
            print(f"seeds[{budget}] = {' '.join(str(s) for s in seeds)}")
            if args.spread:
                print(f"spread[{budget}] = {service.estimate_spread(seeds):.3f}")
        if args.allocate is not None:
            if service.model != "prima":
                raise SystemExit(
                    "bundleGRD allocation needs a PRIMA store; this is a "
                    f"{service.model!r} store (seed/spread queries only)"
                )
            result = service.allocate(args.allocate)
            for item, budget in enumerate(args.allocate):
                nodes = sorted(result.allocation.seeds_of_item(item))
                print(
                    f"item[{item}] (budget {budget}) = "
                    f"{' '.join(str(v) for v in nodes)}"
                )
        return 0

    raise AssertionError(
        f"unhandled oracle command {args.oracle_command}"
    )  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
