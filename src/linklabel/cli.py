"""Command-line entry point.

One binary, eight subcommands:

    stats        dataset summary (nodes, edges, per-label shares)
    convert      normalize an edge list and write it back out
    cluster      run the entropy-minimizing clustering
    predict      label queries from a file of src/dst pairs
    evaluate     k-fold cross-validated evaluation of one model
    sweep        evaluation across edge densities
    samples-cdf  evidence-count distribution behind the local models
    update       fold an edge batch into precomputed count structures

Outputs are machine-readable records, one JSON object per line, with a
leading meta record that embeds the resolved configuration, the seed, and a
digest of every input file, enough to reproduce the artifact exactly.
When --output is given the records go to that file and an aligned human
summary is printed instead; reruns with identical flags and inputs are
byte-identical. The --threads flag of evaluate and sweep is accepted and has
no effect; it is not echoed into artifacts.

An optional --config file supplies key=value defaults for any long flag;
explicit flags win. Exit codes: 0 success, 1 domain error (bad data,
violated precondition), 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from .clustering import ClusterConfig, cluster, read_partition, write_partition
from .counts import (BudgetExceededError, ClusterCounts, CooccurrenceCounts,
                     apply_edge_batch, build_precomputed_nam,
                     save_cam_snapshot, save_nam_snapshot)
from .evaluation import config_echo, evaluate, make_folds, param_sample_cdf, sparsity_sweep
from .graph import (EdgeListParseError, LoadOptions, PredictionQuery,
                    graph_stats, load_edge_list, read_edge_lines, write_edge_list)
from .predictors import (CLUSTER_KINDS, LOCAL_KINDS, MODEL_KINDS,
                         SmoothingConfig, class_prior, decide, predict)


def _file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _emit(records, human_lines, output):
    """JSONL to --output (human summary to stdout), else JSONL to stdout."""
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
        for line in human_lines:
            print(line)
    else:
        sys.stdout.write(text)


def _meta(command: str, args, inputs: dict, config: dict) -> dict:
    return {
        "record": "meta",
        "command": command,
        "seed": args.seed,
        "inputs": {name: _file_digest(path) for name, path in inputs.items()},
        "config": config,
    }


def _smoothing_config(args) -> SmoothingConfig:
    return SmoothingConfig(mu=args.mu, lambda_mode=args.lambda_mode,
                           lcgm_floor_alpha=args.alpha, prior_mode=args.prior_mode)


def _cluster_config(args) -> ClusterConfig:
    return ClusterConfig(K=args.clusters, max_sweeps=args.max_sweeps,
                         scan=args.scan, temperature=args.temperature,
                         greedy=(args.sampling == "greedy"), seed=args.seed,
                         early_stop_rel_tol=args.early_stop_rel_tol,
                         restarts=args.restarts)


def _load(args):
    return load_edge_list(args.input, LoadOptions())


def _partition_for(args, graph):
    """Partition from --partition-file when given, else a fresh clustering run."""
    if args.partition_file:
        return read_partition(args.partition_file, graph)
    part, _ = cluster(graph, _cluster_config(args))
    return part


# -- subcommand bodies -----------------------------------------------------------

def _cmd_stats(args):
    graph, report = _load(args)
    stats = graph_stats(graph, report)
    meta = _meta("stats", args, {"input": args.input}, config_echo())
    records = [meta, {"record": "stats", **stats}]
    human = [
        f"nodes {stats['nodes']}  edges {stats['edges']}",
        "labels " + "  ".join(
            f"{n}: {c} ({s:.1%})" for n, c, s in
            zip(stats["labels"], stats["label_counts"], stats["label_shares"])),
        f"raw lines {stats['raw']['edges']}  raw nodes {stats['raw']['nodes']}  "
        f"self-loops dropped {stats['raw']['self_loops_dropped']}  "
        f"duplicates collapsed {stats['raw']['duplicates_collapsed']}",
        "raw label shares " + "  ".join(
            f"{n}: {s:.1%}" for n, s in
            zip(stats["labels"], stats["raw"]["label_shares"])),
    ]
    _emit(records, human, args.output)
    return 0


def _cmd_convert(args):
    if not args.output:
        raise ValueError("convert requires --output")
    graph, report = _load(args)
    write_edge_list(graph, args.output)
    print(f"wrote {graph.edge_count} edges / {graph.node_count} nodes to {args.output} "
          f"(dropped {report.self_loops_dropped} self-loops, "
          f"collapsed {report.duplicates_collapsed} duplicates)")
    return 0


def _cmd_cluster(args):
    graph, _ = _load(args)
    cfg = _cluster_config(args)
    part, trace = cluster(graph, cfg)
    meta = _meta("cluster", args, {"input": args.input}, config_echo(cluster_config=cfg))
    records = [meta]
    for sweep, phi, moves in trace:
        records.append({"record": "sweep", "sweep": sweep, "phi": phi, "moves": moves})
    records.append({"record": "result", "phi": trace[-1][1],
                    "cluster_sizes": part.sizes.tolist()})
    if args.partition_out:
        write_partition(part, graph, args.partition_out)
    human = [f"final phi {trace[-1][1]:.6f} bits after {trace[-1][0]} sweeps",
             f"cluster sizes {part.sizes.tolist()}"]
    if args.partition_out:
        human.append(f"partition written to {args.partition_out}")
    _emit(records, human, args.output)
    return 0


def _read_queries(path, graph):
    queries = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise EdgeListParseError(f"{path}:{lineno}: expected 'src dst'")
            s, d = parts
            if not graph.has_node(s) or not graph.has_node(d):
                raise ValueError(f"{path}:{lineno}: query node not in training graph")
            queries.append((graph.node_of(s), graph.node_of(d)))
    return queries


def _cmd_predict(args):
    kind = args.model.lower()
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model {args.model!r}")
    graph, _ = _load(args)
    queries = _read_queries(args.queries, graph)
    mcfg = _smoothing_config(args)
    counts = CooccurrenceCounts.on_demand(graph) if kind in LOCAL_KINDS else None
    partition = cluster_counts = ccfg = None
    if kind in CLUSTER_KINDS:
        partition = _partition_for(args, graph)
        cluster_counts = ClusterCounts.from_partition(graph, partition)
        if not args.partition_file:
            ccfg = _cluster_config(args)
    inputs = {"input": args.input, "queries": args.queries}
    if args.partition_file:
        inputs["partition"] = args.partition_file
    meta = _meta("predict", args, inputs, config_echo(mcfg, ccfg, model=kind))
    prior = class_prior(graph)
    names = graph.alphabet.names
    records = [meta]
    human = []
    for i, j in queries:
        q = PredictionQuery(i, j)
        dist = predict(kind, graph, q, counts=counts, cluster_counts=cluster_counts,
                       partition=partition, config=mcfg,
                       collect_support=args.verbose)
        label, fb = decide(dist, prior)
        probs = (prior.probs if not dist.defined else dist.probs)
        rec = {
            "record": "prediction",
            "src": graph.external_of(i), "dst": graph.external_of(j),
            "label": names[label], "fallback": bool(fb),
            "probs": {names[l]: float(probs[l]) for l in range(len(names))},
        }
        if j in graph.out_arrays(i)[0]:
            # The edge's own label is part of the evidence for its query.
            rec["in_graph"] = True
        if args.verbose and dist.support is not None:
            rec["support"] = [
                {**e, "head": graph.external_of(e["head"]),
                 "label": names[e["label"]]} for e in dist.support]
        records.append(rec)
        human.append(f"{graph.external_of(i)} -> {graph.external_of(j)}: {names[label]}"
                     + ("  (prior fallback)" if fb else ""))
    _emit(records, human, args.output)
    return 0


def _cmd_evaluate(args):
    kind = args.model.lower()
    graph, _ = _load(args)
    plan = make_folds(graph, args.folds, args.seed, stratified=args.stratified)
    mcfg = _smoothing_config(args)
    ccfg = _cluster_config(args) if kind in CLUSTER_KINDS else None
    report = evaluate(graph, kind, mcfg, ccfg, plan,
                      reuse_clustering=args.reuse_clustering, threads=args.threads)
    meta = _meta("evaluate", args, {"input": args.input},
                 {**report.config, "stratified": bool(args.stratified)})
    _emit([meta] + report.to_records(),
          report.human_table(graph.alphabet.names).splitlines(), args.output)
    return 0


def _cmd_sweep(args):
    models = [m.strip().lower() for m in args.model.split(",") if m.strip()]
    for m in models:
        if m not in MODEL_KINDS:
            raise ValueError(f"unknown model {m!r}")
    densities = [float(d) for d in args.densities.split(",") if d.strip()]
    graph, _ = _load(args)
    mcfg = _smoothing_config(args)
    ccfg = _cluster_config(args) if any(m in CLUSTER_KINDS for m in models) else None
    records = sparsity_sweep(graph, densities, models, mcfg, ccfg,
                             folds=args.folds, seed=args.seed, threads=args.threads)
    meta = _meta("sweep", args, {"input": args.input},
                 config_echo(mcfg, ccfg, models=models, densities=densities, folds=args.folds))
    human = [f"{'density':>8} {'model':>8} {'bal.acc':>9} {'fallback':>9}"]
    for r in records:
        human.append(f"{r['density']:>8.2f} {r['model']:>8} "
                     f"{r['balanced_accuracy']:>9.4f} {r['fallback_rate']:>9.4f}")
    _emit([meta] + records, human, args.output)
    return 0


def _cmd_samples_cdf(args):
    graph, _ = _load(args)
    thresholds = [int(t) for t in args.thresholds.split(",") if t.strip()]
    plan = make_folds(graph, args.folds, args.seed)
    result = param_sample_cdf(graph, plan, args.model, thresholds)
    meta = _meta("samples-cdf", args, {"input": args.input},
                 config_echo(model=result["model"], thresholds=thresholds, folds=args.folds))
    records = [meta, {"record": "summary", "model": result["model"],
                      "total_parameters": result["total_parameters"]}]
    human = [f"model {result['model']}: {result['total_parameters']} parameters"]
    for t in thresholds:
        frac = result["fractions"][t]
        records.append({"record": "cdf", "threshold": t, "fraction_below": frac})
        human.append(f"fewer than {t:>6} samples: {frac:.2%}")
    _emit(records, human, args.output)
    return 0


def _cmd_update(args):
    graph, _ = _load(args)
    counts = build_precomputed_nam(graph, budget=args.nam_budget,
                                   override=args.nam_override)
    partition = _partition_for(args, graph)
    cluster_counts = ClusterCounts.from_partition(graph, partition)

    batch = list(zip(*read_edge_lines(args.batch, LoadOptions().resolved_tokens())))
    new_graph, breport = apply_edge_batch(counts, cluster_counts, graph, batch,
                                          auto_intern=not args.no_intern)
    inputs = {"input": args.input, "batch": args.batch}
    if args.partition_file:
        inputs["partition"] = args.partition_file
    ccfg = None if args.partition_file else _cluster_config(args)
    meta = _meta("update", args, inputs,
                 config_echo(cluster_config=ccfg, nam_budget=args.nam_budget,
                             auto_intern=not args.no_intern))
    records = [meta, {
        "record": "batch",
        "added": breport.added, "relabeled": breport.relabeled,
        "unchanged": breport.unchanged,
        "self_loops_dropped": breport.self_loops_dropped,
        "collapsed_in_batch": breport.collapsed_in_batch,
        "new_nodes": breport.new_nodes,
        "nodes": new_graph.node_count, "edges": new_graph.edge_count,
    }]
    human = [f"applied batch: +{breport.added} edges, {breport.relabeled} relabeled, "
             f"{breport.unchanged} unchanged, {breport.new_nodes} new nodes",
             f"graph now {new_graph.node_count} nodes / {new_graph.edge_count} edges"]
    if args.out_edges:
        write_edge_list(new_graph, args.out_edges)
        human.append(f"merged edge list written to {args.out_edges}")
    if args.out_partition:
        write_partition(partition, new_graph, args.out_partition)
        human.append(f"partition written to {args.out_partition}")
    if args.out_nam:
        save_nam_snapshot(counts, args.out_nam)
        human.append(f"node-level count snapshot written to {args.out_nam}")
    if args.out_cam:
        save_cam_snapshot(cluster_counts, args.out_cam)
        human.append(f"cluster-level count snapshot written to {args.out_cam}")
    _emit(records, human, args.output)
    return 0


# -- parser ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentDefaultsHelpFormatter
    parser = argparse.ArgumentParser(
        prog="linklabel",
        description="Statistical link-label prediction for signed directed networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="edge list file (src dst sign)")
    common.add_argument("--output", default=None, help="write JSONL records here")
    common.add_argument("--seed", type=int, default=0, help="master random seed")
    common.add_argument("--config", default=None,
                        help="key=value file of flag defaults; flags override")

    model_opts = argparse.ArgumentParser(add_help=False)
    model_opts.add_argument("--mu", type=float, default=4.0,
                            help="Dirichlet pseudo-count of the smoothed models")
    model_opts.add_argument("--lambda-mode", choices=("support", "paper"),
                            default="support", help="evidence count feeding lambda")
    model_opts.add_argument("--alpha", type=float, default=1.0,
                            help="Laplace floor for the raw generator models")
    model_opts.add_argument("--prior-mode", choices=("uniform", "empirical"),
                            default="uniform", help="class prior of the generator models")

    cluster_opts = argparse.ArgumentParser(add_help=False)
    cluster_opts.add_argument("--clusters", type=int, default=30,
                              help="number of clusters K")
    cluster_opts.add_argument("--max-sweeps", type=int, default=20,
                              help="maximum node sweeps per restart")
    cluster_opts.add_argument("--scan", choices=("deterministic", "random"),
                              default="deterministic", help="node visit order")
    cluster_opts.add_argument("--sampling", choices=("greedy", "boltzmann"),
                              default="greedy", help="move selection rule")
    cluster_opts.add_argument("--temperature", type=float, default=1.0,
                              help="Boltzmann temperature (ignored when greedy)")
    cluster_opts.add_argument("--restarts", type=int, default=3,
                              help="independent restarts; best final phi wins")
    cluster_opts.add_argument("--early-stop-rel-tol", type=float, default=0.0,
                              help="stop when relative phi change falls below this (0 disables)")

    p = sub.add_parser("stats", parents=[common], formatter_class=fmt,
                       help="dataset summary, raw and normalized")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("convert", parents=[common], formatter_class=fmt,
                       help="normalize an edge list and write it back out")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("cluster", parents=[common, cluster_opts], formatter_class=fmt,
                       help="entropy-minimizing graph clustering")
    p.add_argument("--partition-out", default=None, help="write node/cluster pairs here")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("predict", parents=[common, model_opts, cluster_opts],
                       formatter_class=fmt, help="label a file of src/dst queries")
    p.add_argument("--queries", required=True, help="file of 'src dst' lines")
    p.add_argument("--model", required=True, help="|".join(MODEL_KINDS))
    p.add_argument("--verbose", action="store_true",
                   help="attach per-context-entry diagnostics to each record")
    p.add_argument("--partition-file", default=None,
                   help="reuse this partition instead of clustering")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", parents=[common, model_opts, cluster_opts],
                       formatter_class=fmt, help="k-fold cross-validated evaluation")
    p.add_argument("--model", required=True, help="|".join(MODEL_KINDS))
    p.add_argument("--folds", type=int, default=10, help="number of folds")
    p.add_argument("--stratified", action="store_true",
                   help="deal folds within each label class")
    p.add_argument("--reuse-clustering", action="store_true",
                   help="cluster the full graph once (leaks test edges; faster)")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and without effect: prediction is batched per fold")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", parents=[common, model_opts, cluster_opts],
                       formatter_class=fmt, help="evaluation across edge densities")
    p.add_argument("--model", required=True, help="comma-separated model kinds")
    p.add_argument("--densities", default="0.1,0.3,0.5,0.7,1.0",
                   help="comma-separated densities in (0,1]")
    p.add_argument("--folds", type=int, default=10, help="number of folds")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and without effect: prediction is batched per fold")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("samples-cdf", parents=[common], formatter_class=fmt,
                       help="evidence counts behind local-model parameters")
    p.add_argument("--model", choices=("ltlgm", "lcgm"), default="ltlgm")
    p.add_argument("--thresholds", default="1,4,16,64",
                   help="comma-separated integer thresholds")
    p.add_argument("--folds", type=int, default=10, help="number of folds")
    p.set_defaults(func=_cmd_samples_cdf)

    p = sub.add_parser("update", parents=[common, cluster_opts],
                       formatter_class=fmt,
                       help="fold an edge batch into precomputed structures")
    p.add_argument("--nam-budget", type=int, default=2_000_000,
                   help="ordered-pair budget for the precomputed count table")
    p.add_argument("--nam-override", action="store_true",
                   help="build past the pair budget anyway")
    p.add_argument("--batch", required=True, help="edge list of new edges")
    p.add_argument("--no-intern", action="store_true",
                   help="reject batch edges that mention unknown node ids")
    p.add_argument("--partition-file", default=None,
                   help="reuse this partition instead of clustering")
    p.add_argument("--out-edges", default=None, help="write the merged edge list here")
    p.add_argument("--out-partition", default=None, help="write the extended partition here")
    p.add_argument("--out-nam", default=None,
                   help="export the node-level count table here (nothing reads it back)")
    p.add_argument("--out-cam", default=None,
                   help="export the cluster-level count table here (nothing reads it back)")
    p.set_defaults(func=_cmd_update)

    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv):
    """Load key=value defaults from a --config file; explicit flags still win."""
    path = None
    for i, a in enumerate(argv):
        if a == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif a.startswith("--config="):
            path = a.split("=", 1)[1]
    if path is None:
        return
    defaults = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            defaults[key.strip().replace("-", "_")] = value.strip()
    # Let argparse coerce types by pushing values through each option's type.
    for action_parser in [parser] + [
            c for a in parser._subparsers._group_actions for c in a.choices.values()]:
        coerced = {}
        for action in action_parser._actions:
            if action.dest in defaults:
                raw = defaults[action.dest]
                if isinstance(action.const, bool) or isinstance(action.default, bool):
                    coerced[action.dest] = raw.lower() in ("1", "true", "yes", "on")
                elif action.type is not None:
                    coerced[action.dest] = action.type(raw)
                else:
                    coerced[action.dest] = raw
        if coerced:
            action_parser.set_defaults(**coerced)


def main(argv=None) -> int:
    """Run the CLI; returns the process exit status."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, AssertionError, EdgeListParseError,
            BudgetExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
