"""The three workloads: cv-sweep, cluster-2k and serve-stream.

Each workload makes its inputs with ``gen``, drives the package in-process,
and repeats whole rounds of the same operations until ``seconds`` of
measured time have passed. It times its set-up ``setups`` times, half before
the rounds and half after them, so that the median of the set-ups samples
the host at two moments of the run. Every workload reports the same
end-to-end metrics (``Run.end_to_end``). Output checks run after each round,
outside the timed calls and with tracing paused; they compare against
``reference`` or against properties the method must have. A failed check
fails the operations it covers.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np

import gen
import reference
import tracing

import linklabel.cli as cli_mod
import linklabel.clustering as clustering_mod
import linklabel.counts as counts_mod
import linklabel.graph as graph_mod
import linklabel.predictors as predictors_mod

# Workload sizes; SMOKE runs every code path in seconds.
FULL = {
    "cv-sweep": dict(n=250, roles=5, p=0.25, noise=0.1, densities=(0.1, 0.3, 0.5, 1.0),
                     folds=3, clusters=5, restarts=2, max_sweeps=3, mu=2.0, samples=60,
                     setups=20),
    "cluster-2k": dict(n=2000, roles=30, p=0.01, noise=0.1, clusters=30, restarts=1,
                       max_sweeps=3, setups=20),
    "serve-stream": dict(n=2000, roles=30, p=0.01, noise=0.1, held_out=6000, relabels=300,
                         new_nodes=5, new_node_degree=8, batch=20, mu=2.0, setups=4,
                         sampled_batches=8, table_samples=2000),
}
SMOKE = {
    "cv-sweep": dict(FULL["cv-sweep"], n=40, restarts=1, samples=20),
    "cluster-2k": dict(FULL["cluster-2k"], n=150, roles=5, p=0.05, clusters=5,
                       max_sweeps=2),
    "serve-stream": dict(FULL["serve-stream"], n=150, roles=5, p=0.05, held_out=100,
                         relabels=20, new_nodes=2, new_node_degree=4, setups=2,
                         sampled_batches=3, table_samples=200),
}
WORKLOADS = tuple(FULL)


@dataclass
class Run:
    seed: int
    seconds: float
    work: str
    size: dict
    tracer: Optional[tracing.Tracer] = None
    threads: int = 1
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    measured: float = 0.0        # seconds inside the timed program calls
    setups: list = field(default_factory=list)   # seconds of each set-up
    rss: Optional[float] = None  # peak RSS in MB after the first round

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    @contextlib.contextmanager
    def untraced(self):
        """Pause tracing, so that checks do not count as program work."""
        if self.tracer is None:
            yield
            return
        self.tracer.uninstall()
        try:
            yield
        finally:
            tracing.install(self.tracer)

    def fail(self, ops: int, problem: str) -> None:
        self.failed += ops
        self.problems.append(problem)

    def timed(self, dt: float) -> None:
        """Add one round's timed seconds; the first call also reads peak RSS."""
        self.measured += dt
        if self.rss is None:
            self.rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def end_to_end(self) -> dict:
        """The metrics every workload reports, measured untraced."""
        return {
            "ops_per_s": {"value": (self.attempted - self.failed) / self.measured,
                          "unit": "1/s"},
            "setup_s": {"value": float(np.median(self.setups)), "unit": "s"},
            "peak_rss_mb": {"value": self.rss, "unit": "MB"},
        }


def load_setups(run: Run, path: str, times: int) -> None:
    """Set-up of the CLI workloads: load their input edge list."""
    for _ in range(times):
        t0 = perf_counter()
        graph_mod.load_edge_list(path)
        run.setups.append(perf_counter() - t0)


def run_cli(run: Run, argv, output: str):
    """Call ``linklabel.cli.main`` in-process; returns (exit code, seconds, records)."""
    shown = io.StringIO()
    with contextlib.redirect_stdout(shown):
        t0 = perf_counter()
        rc = cli_mod.main(argv)
        dt = perf_counter() - t0
    records = []
    if rc == 0:
        with open(output, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
    if run.tracer is not None:
        size = os.path.getsize(output) if os.path.exists(output) else 0
        run.tracer.counters["output_bytes"] += size + len(shown.getvalue().encode())
    return rc, dt, records


# -- cv-sweep ------------------------------------------------------------------------------

def cv_sweep(run: Run) -> None:
    z = run.size
    g = gen.planted(gen.rng_for("cv-sweep", run.seed), z["n"], z["roles"], z["p"], z["noise"])
    src_path, out = run.path("cv-input.txt"), run.path("cv-out.jsonl")
    gen.write_edges(src_path, g)
    models = ("ltlgm", "stlgm")
    argv = ["sweep", "--input", src_path, "--output", out, "--seed", str(run.seed),
            "--model", ",".join(models), "--densities", ",".join(map(str, z["densities"])),
            "--folds", str(z["folds"]), "--clusters", str(z["clusters"]),
            "--restarts", str(z["restarts"]), "--max-sweeps", str(z["max_sweeps"]),
            "--mu", str(z["mu"]), "--threads", str(run.threads)]
    E = g.src.size
    row_edges = {d: round(d * E) for d in z["densities"]}
    per_round = len(models) * sum(row_edges.values())
    load_setups(run, src_path, z["setups"] // 2)
    expected = None
    while run.measured < run.seconds or not run.attempted:
        rc, dt, records = run_cli(run, argv, out)
        run.timed(dt)
        run.attempted += per_round
        with run.untraced():
            if expected is None:
                expected = cv_reference(g, z, run.seed)
            check_cv_rows(run, rc, records, row_edges, models, expected)
    with run.untraced():
        check_cv_support(run, g, z)
    load_setups(run, src_path, z["setups"] - z["setups"] // 2)


def cv_reference(g, z, seed):
    """Per density: the ltlgm balanced-accuracy bracket and the fallback count."""
    out = {}
    for i, d in enumerate(z["densities"]):
        sel = reference.sparsify_rule(g.src.size, d, seed + i)
        src, dst, lbl = g.src[sel], g.dst[sel], g.lbl[sel]
        fold = reference.fold_rule(sel.size, z["folds"], seed)
        low = np.zeros((gen.L, gen.L), dtype=np.int64)
        high = low.copy()
        undefined = 0
        for f in range(z["folds"]):
            tr, te = fold != f, fold == f
            winners = reference.ltlgm_winners(g.n, gen.L, (src[tr], dst[tr], lbl[tr]),
                                              (src[te], dst[te]))
            prior = int(np.argmax(np.bincount(lbl[tr], minlength=gen.L)))
            lo, hi = reference.bracket_confusions(winners, lbl[te], prior, gen.L)
            low += lo
            high += hi
            undefined += sum(w is None for w in winners)
        out[d] = (reference.balanced_accuracy(low), reference.balanced_accuracy(high),
                  undefined, sel.size)
    return out


def check_cv_rows(run, rc, records, row_edges, models, expected) -> None:
    """Check one sweep's rows; a failed row fails its test edges."""
    total = len(models) * sum(row_edges.values())
    if rc != 0:
        run.fail(total, f"sweep exited with {rc}")
        return
    rows = [r for r in records if r.get("record") == "sweep"]
    keys = [(r["density"], r["model"]) for r in rows]
    want = [(d, m) for d in row_edges for m in models]
    if keys != want:
        run.fail(total, f"sweep rows {keys} differ from {want}")
        return
    by_key = {(r["density"], r["model"]): r for r in rows}
    for d, m in want:
        r = by_key[(d, m)]
        bad = []
        if r["edges"] != row_edges[d]:
            bad.append(f"edges {r['edges']} != round(d*E) = {row_edges[d]}")
        lo, hi, undefined, n_edges = expected[d]
        if m == "ltlgm":
            if not lo - 1e-12 <= r["balanced_accuracy"] <= hi + 1e-12:
                bad.append(f"balanced accuracy {r['balanced_accuracy']} outside the "
                           f"reference's tie bracket [{lo}, {hi}]")
            if r["fallback_rate"] != undefined / n_edges:
                bad.append(f"fallback rate {r['fallback_rate']} != {undefined}/{n_edges}")
        elif r["fallback_rate"] > by_key[(d, "ltlgm")]["fallback_rate"]:
            bad.append("stlgm falls back more often than ltlgm")
        if bad:
            run.fail(r["edges"], f"density {d} {m}: " + "; ".join(bad))


def check_cv_support(run, g, z) -> None:
    """Sampled stlgm queries against the reference, and the survival property.

    On fold 0 of the sparsest and the full density, with the planted roles
    as the partition: stlgm probabilities match the reference within 1e-12,
    and every context entry with local support (ltlgm) survives in stlgm.
    These checks cover no timed operation; a failure marks the run incorrect.
    """
    cfg = predictors_mod.SmoothingConfig(mu=z["mu"])
    rng = np.random.default_rng(run.seed)
    for i in (0, len(z["densities"]) - 1):
        d = z["densities"][i]
        sel = reference.sparsify_rule(g.src.size, d, run.seed + i)
        fold = reference.fold_rule(sel.size, z["folds"], run.seed)
        tr, te = sel[fold != 0], sel[fold == 0]
        edges = zip(g.src[tr].tolist(), g.dst[tr].tolist(), g.lbl[tr].tolist())
        train = graph_mod.SignedGraph.from_edges(g.n, edges)
        part = clustering_mod.Partition.from_assignment(train, g.roles, z["roles"])
        cc = counts_mod.ClusterCounts.from_partition(train, part)
        counts = counts_mod.CooccurrenceCounts.on_demand(train)
        snap = reference.Snapshot(g.n, g.src[tr], g.dst[tr], g.lbl[tr], g.roles,
                                  z["roles"], gen.L)
        for e in rng.choice(te, size=min(z["samples"], te.size), replace=False).tolist():
            q = graph_mod.PredictionQuery(int(g.src[e]), int(g.dst[e]))
            loc = predictors_mod.predict("ltlgm", train, q, counts=counts, collect_support=True)
            sm = predictors_mod.predict("stlgm", train, q, counts=counts, cluster_counts=cc,
                                        partition=part, config=cfg, collect_support=True)
            want = snap.stlgm(q.initiator, q.receiver, z["mu"])
            if not same_dist(sm, want):
                run.problems.append(f"density {d}: stlgm {q} != reference")
            lost = [a["head"] for a, b in zip(loc.support, sm.support)
                    if a["n_local"] > 0 and b["used"] == "skipped"]
            if lost:
                run.problems.append(f"density {d}: stlgm {q} skips supported entries {lost}")


def same_dist(dist, want) -> bool:
    if want is None or not dist.defined:
        return want is None and not dist.defined
    return bool(np.max(np.abs(dist.probs - want)) <= 1e-12)


# -- cluster-2k -------------------------------------------------------------------------------

def cluster_2k(run: Run) -> None:
    z = run.size
    g = gen.planted(gen.rng_for("cluster-2k", run.seed), z["n"], z["roles"], z["p"], z["noise"])
    src_path, out = run.path("cluster-input.txt"), run.path("cluster-out.jsonl")
    part_path = run.path("cluster-partition.txt")
    gen.write_edges(src_path, g)
    load_setups(run, src_path, z["setups"] // 2)
    argv = ["cluster", "--input", src_path, "--output", out, "--seed", str(run.seed),
            "--clusters", str(z["clusters"]), "--restarts", str(z["restarts"]),
            "--max-sweeps", str(z["max_sweeps"]), "--partition-out", part_path]
    while run.measured < run.seconds or not run.attempted:
        rc, dt, records = run_cli(run, argv, out)
        run.timed(dt)
        sweeps = [r for r in records if r.get("record") == "sweep"]
        ops = g.n * ((len(sweeps) - 1) if sweeps else z["max_sweeps"] * z["restarts"])
        run.attempted += ops
        with run.untraced():
            check_cluster(run, rc, records, sweeps, src_path, part_path, z, ops)
    load_setups(run, src_path, z["setups"] - z["setups"] // 2)


def check_cluster(run, rc, records, sweeps, src_path, part_path, z, ops) -> None:
    if rc != 0:
        run.fail(ops, f"cluster exited with {rc}")
        return
    bad = []
    result = next(r for r in records if r.get("record") == "result")
    tokens, src, dst, lbl = reference.read_edge_file(src_path)
    asg_map, K = reference.read_partition_file(part_path)
    asg = np.array([asg_map[t] for t in tokens], dtype=np.int64)
    want = reference.phi(src, dst, lbl, asg, K, gen.L)
    if abs(result["phi"] - want) > 1e-9 * max(abs(want), 1.0):
        bad.append(f"final phi {result['phi']} != reference {want}")
    if sweeps[-1]["phi"] != result["phi"]:
        bad.append("last sweep phi differs from the result phi")
    phis = [s["phi"] for s in sweeps]
    if any(b > a + 1e-9 * abs(a) for a, b in zip(phis, phis[1:])):
        bad.append(f"greedy trace increases: {phis}")
    if result["cluster_sizes"] != np.bincount(asg, minlength=K).tolist():
        bad.append("cluster sizes differ from the partition file")
    if bad:
        run.fail(ops, "; ".join(bad))


# -- serve-stream ------------------------------------------------------------------------------

@dataclass
class Served:
    graph: object
    counts: object
    partition: object
    cluster_counts: object


def serve_stream(run: Run) -> None:
    z = run.size
    rng = gen.rng_for("serve-stream", run.seed)
    g = gen.planted(rng, z["n"], z["roles"], z["p"], z["noise"])
    keep, batches = gen.stream(rng, g, z["held_out"], z["relabels"], z["new_nodes"],
                               z["new_node_degree"], z["batch"])
    items = [it for batch in batches for it in batch]
    base_path, part_path = run.path("serve-base.txt"), run.path("serve-roles.txt")
    gen.write_edges(base_path, g, keep)
    gen.write_roles(part_path, g)
    spots = np.linspace(0, len(batches) - 1, z["sampled_batches"]).round()
    sampled = set(spots.astype(int).tolist())
    cfg = predictors_mod.SmoothingConfig(mu=z["mu"])
    n_queries = sum(it[3] for it in items)

    def setup():
        t0 = perf_counter()
        graph, _ = graph_mod.load_edge_list(base_path)
        counts = counts_mod.build_precomputed_nam(graph, override=True)
        partition = clustering_mod.read_partition(part_path, graph)
        cluster_counts = counts_mod.ClusterCounts.from_partition(graph, partition)
        run.setups.append(perf_counter() - t0)
        return Served(graph, counts, partition, cluster_counts)

    def fresh(times):
        """Drop the served state, then set up ``times`` times; returns the last."""
        state = None
        for _ in range(times):
            state = None
            gc.collect()
            state = setup()
        return state

    state = fresh(z["setups"] // 2)
    while True:
        t0 = perf_counter()
        seen = stream_round(state, batches, sampled, cfg)
        run.timed(perf_counter() - t0)
        run.attempted += len(items) + n_queries
        with run.untraced():
            check_serve(run, state, g, keep, items, seen, z)
        if run.measured >= run.seconds:
            break
        state = fresh(1)
    fresh(z["setups"] - z["setups"] // 2)


def stream_round(state: Served, batches, sampled, cfg) -> list:
    """Predict each batch's new pairs, then apply the batch; mutates ``state``.

    Returns, for the sampled batches, what the reference needs to recompute
    their queries: the stream position, the cluster of every node by
    external id, and each query with its answer.
    """
    seen = []
    position = 0
    for b, batch in enumerate(batches):
        graph = state.graph
        prior = predictors_mod.class_prior(graph)
        answers = []
        for s, d, _, is_query in batch:
            if not is_query:
                continue
            q = graph_mod.PredictionQuery(graph.node_of(s), graph.node_of(d))
            dist = predictors_mod.predict("stlgm", graph, q, counts=state.counts,
                                          cluster_counts=state.cluster_counts,
                                          partition=state.partition, config=cfg)
            predictors_mod.decide(dist, prior)
            answers.append((s, d, dist))
        if b in sampled:
            clusters = dict(zip(graph.external_ids, state.partition.assignment.tolist()))
            seen.append((position, clusters, answers))
        edges = [(s, d, lab) for s, d, lab, _ in batch]
        state.graph, _ = counts_mod.apply_edge_batch(state.counts, state.cluster_counts,
                                                     graph, edges)
        position += len(batch)
    return seen


def table_digest(table: dict):
    return len(table), sum(map(hash, table.items()))


def check_serve(run, state: Served, g, keep, items, seen, z) -> None:
    """Check one round; a failure fails the stream edges or queries it covers."""
    base = {(g.token(s), g.token(d)): l for s, d, l in
            zip(g.src[keep].tolist(), g.dst[keep].tolist(), g.lbl[keep].tolist())}
    tokens = sorted({t for s, d, _, _ in items for t in (s, d)} | {g.token(v) for v in range(g.n)})
    index = {t: i for i, t in enumerate(tokens)}

    def merged(upto):
        edges = dict(base)
        for s, d, lab, _ in items[:upto]:
            edges[(s, d)] = lab
        return edges

    def snapshot(edges, clusters):
        arr = np.array([(index[s], index[d], lab) for (s, d), lab in edges.items()],
                       dtype=np.int64)
        asg = np.array([clusters.get(t, 0) for t in tokens], dtype=np.int64)
        return reference.Snapshot(len(tokens), arr[:, 0], arr[:, 1], arr[:, 2], asg,
                                  z["roles"], gen.L)

    graph = state.graph
    ext = graph.external_ids
    final = merged(len(items))
    bad = []
    got = {(ext[s], ext[d]): l for s, d, l in graph.edges()}
    if got != final:
        bad.append(f"merged edge set differs ({len(got)} vs {len(final)} edges)")
    fresh = counts_mod.ClusterCounts.from_partition(graph, state.partition)
    if fresh.table != state.cluster_counts.table:
        bad.append("cluster table differs from a fresh build")
    try:
        state.partition.verify_counts()
    except AssertionError as exc:
        bad.append(f"verify_counts: {exc}")
    fresh = None

    snap = snapshot(final, dict(zip(ext, state.partition.assignment.tolist())))
    table = state.counts.table
    keys = list(table)
    rng = np.random.default_rng(run.seed)
    for k in rng.choice(len(keys), size=min(z["table_samples"], len(keys)),
                        replace=False).tolist():
        m, l, n, lp = keys[k]
        if table[keys[k]] != snap.count(index[ext[m]], l, index[ext[n]], lp):
            bad.append(f"node table entry {keys[k]} != reference")
            break
    keys = snap = None
    live = table_digest(table)
    table = state.counts = None
    gc.collect()
    if table_digest(counts_mod.build_precomputed_nam(graph, override=True).table) != live:
        bad.append("node table differs from a fresh build")
    if bad:
        run.fail(len(items), "serve-stream: " + "; ".join(bad))

    wrong = 0
    for position, clusters, answers in seen:
        snap = snapshot(merged(position), clusters)
        for s, d, dist in answers:
            if not same_dist(dist, snap.stlgm(index[s], index[d], z["mu"])):
                wrong += 1
    if wrong:
        run.fail(wrong, f"serve-stream: {wrong} sampled queries differ from the reference")


RUNNERS = {"cv-sweep": cv_sweep, "cluster-2k": cluster_2k, "serve-stream": serve_stream}
