"""Per-layer spans and counters, recorded from outside the package.

The layers are the package's modules. A traced run replaces, from benchmark
code, the public functions that one module calls in another. Each wrapper
is installed at the name the caller looks up (``linklabel.evaluation.predict``
as well as ``linklabel.predictors.predict``), so every cross-module call is
seen once. Boundary calls become spans (name, start, end, parent span);
hot lookups such as ``CooccurrenceCounts.count`` are only counted. Spans stay
in memory until the run ends. A span's self time is its duration minus the
durations of its direct children.

Single-threaded runs only: the span stack and counters are not locked.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

import linklabel.cli as cli_mod
import linklabel.clustering as clustering_mod
import linklabel.counts as counts_mod
import linklabel.evaluation as evaluation_mod
import linklabel.graph as graph_mod
import linklabel.predictors as predictors_mod


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = Counter()
        self._stack = []
        self._undo = []

    def _patch(self, owner, attr, new):
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def span(self, owner, attr, name, after=None):
        """Record every call of ``owner.attr`` as a span; ``after`` sees the result."""
        orig = getattr(owner, attr)
        spans, stack, counters = self.spans, self._stack, self.counters

        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(counters, args, result)
            return result

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr, after):
        """Count calls of ``owner.attr`` through ``after``, without timing them."""
        orig = getattr(owner, attr)
        counters = self.counters

        def wrapper(*args, **kwargs):
            result = orig(*args, **kwargs)
            after(counters, args, result)
            return result

        self._patch(owner, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"span": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")

    # -- aggregation -------------------------------------------------------------

    def totals(self):
        """Per span name: (calls, summed duration); per layer: summed self time."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, time_in = Counter(), defaultdict(float)
        self_time = defaultdict(float)
        for i, (name, t0, t1, _) in enumerate(self.spans):
            calls[name] += 1
            time_in[name] += t1 - t0
            self_time[name.split(".")[0]] += t1 - t0 - child[i]
        return calls, time_in, self_time

    def layer_metrics(self) -> dict:
        """Every per-layer metric, 0 for a layer that did no work in this run.

        A layer's time is reported as its share of the time spent inside the
        package (summed self time of all layers), so that it is a ratio on
        every workload; the graph layer's load and build also get seconds.
        """
        calls, t, self_time = self.totals()
        c = self.counters
        inside = sum(self_time.values())
        q = calls["predictors.predict"]
        share = {layer: self_time[layer] / inside if inside else 0.0 for layer in LAYERS}
        rows = [
            ("graph.self_share", share["graph"], "ratio"),
            ("graph.load_s", t["graph.load"], "s"),
            ("graph.builds", calls["graph.build"], "count"),
            ("graph.build_s", t["graph.build"], "s"),
            ("counts.self_share", share["counts"], "ratio"),
            ("counts.nam_lookups", c["nam_lookups"], "count"),
            ("counts.nam_hit_ratio", c["nam_hits"] / max(c["nam_lookups"], 1), "ratio"),
            ("counts.cam_lookups", c["cam_lookups"], "count"),
            ("counts.nam_entries", c["nam_entries"], "count"),
            ("counts.cam_builds", calls["counts.cam_build"], "count"),
            ("counts.batch_changed_ratio",
             c["batch_changed"] / max(c["batch_submitted"], 1), "ratio"),
            ("clustering.self_share", share["clustering"], "ratio"),
            ("clustering.visits", c["visits"], "count"),
            ("clustering.moves", c["moves"], "count"),
            ("clustering.move_ratio", c["moves"] / max(c["visits"], 1), "ratio"),
            ("predictors.self_share", share["predictors"], "ratio"),
            ("predictors.queries", q, "count"),
            ("predictors.context_entries", c["context_entries"], "count"),
            ("predictors.defined_ratio", c["defined"] / max(q, 1), "ratio"),
            ("evaluation.self_share", share["evaluation"], "ratio"),
            ("cli.self_share", share["cli"], "ratio"),
            ("cli.output_bytes", c["output_bytes"], "bytes"),
        ]
        return {name: {"value": value, "unit": unit} for name, value, unit in rows}


LAYERS = ("graph", "counts", "clustering", "predictors", "evaluation", "cli")


def _nam_lookup(c, args, result):
    c["nam_lookups"] += 1
    if result:
        c["nam_hits"] += 1


def _cam_lookup(c, args, result):
    c["cam_lookups"] += 1


def _nam_built(c, args, result):
    c["nam_entries"] = len(result.table)


def _batch(c, args, result):
    c["batch_submitted"] += len(args[3])
    c["batch_changed"] += result[1].added + result[1].relabeled


def _sweep(c, args, result):
    c["visits"] += args[0].node_count
    c["moves"] += result


def _predicted(c, args, result):
    c["defined"] += bool(result.defined)


def _context(c, args, result):
    c["context_entries"] += len(result)


def install(tracer: Tracer) -> Tracer:
    """Wrap every cross-module call of the package; returns the tracer."""
    tracer.span(graph_mod.SignedGraph, "__init__", "graph.build")
    for mod in (cli_mod, graph_mod):
        tracer.span(mod, "load_edge_list", "graph.load")
    for mod in (cli_mod, counts_mod):
        tracer.span(mod, "build_precomputed_nam", "counts.nam_build", _nam_built)
        tracer.span(mod, "apply_edge_batch", "counts.batch", _batch)
    tracer.span(counts_mod.ClusterCounts, "from_partition", "counts.cam_build")
    tracer.count(counts_mod.CooccurrenceCounts, "count", _nam_lookup)
    tracer.count(counts_mod.ClusterCounts, "count", _cam_lookup)
    for mod in (cli_mod, evaluation_mod):
        tracer.span(mod, "cluster", "clustering.cluster")
    for mod in (cli_mod, clustering_mod):
        tracer.span(mod, "read_partition", "clustering.read_partition")
    tracer.count(clustering_mod, "gibbs_sweep", _sweep)
    for mod in (cli_mod, evaluation_mod, predictors_mod):
        tracer.span(mod, "predict", "predictors.predict", _predicted)
    tracer.count(predictors_mod, "context_of", _context)
    tracer.span(cli_mod, "sparsity_sweep", "evaluation.sweep")
    for mod in (cli_mod, evaluation_mod):
        tracer.span(mod, "evaluate", "evaluation.evaluate")
    tracer.span(cli_mod, "main", "cli.main")
    return tracer
