"""``predict`` and ``predict_many`` against the scalar reference, bit for bit.

Both entry points must reproduce every probability, every defined flag and
every ``decide`` outcome of ``scalar_reference`` exactly (``np.array_equal``,
not a tolerance), because an exact tie resolved differently changes a
decision; ``predict``'s ``collect_support`` records must equal the
reference's.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

import linklabel.counts as counts_mod
from linklabel import (
    MODEL_KINDS,
    ClusterConfig,
    ClusterCounts,
    CooccurrenceCounts,
    LabelDistribution,
    Partition,
    PredictionQuery,
    SignedGraph,
    SmoothingConfig,
    class_prior,
    cluster,
    decide,
    decide_many,
    evaluate,
    generate_planted,
    make_folds,
    predict,
    predict_many,
    sparsify,
)
from linklabel.counts import receiver_blocks
from linklabel.evaluation import _train_graph_for_fold

from conftest import graph_from, random_graph
from scalar_reference import predict_reference

CONFIGS = [SmoothingConfig(mu=mu, lambda_mode=mode, lcgm_floor_alpha=alpha)
           for mode in ("support", "paper") for alpha in (0.0, 1.0) for mu in (2.5, 0.0)]


def _assert_same(g, part, initiators, receivers, configs=CONFIGS, kinds=MODEL_KINDS,
                 sample=None):
    """predict_many on all queries, and predict on each, equal the reference.

    With ``sample``, only those queries are compared.
    """
    counts = CooccurrenceCounts.on_demand(g)
    cc = ClusterCounts.from_partition(g, part)
    prior = class_prior(g)
    check = range(len(initiators)) if sample is None else sample
    for cfg in configs:
        for kind in kinds:
            probs, defined = predict_many(kind, g, initiators, receivers,
                                          cluster_counts=cc, partition=part, config=cfg)
            labels, fallback = decide_many(probs, defined, prior)
            for q in check:
                query = PredictionQuery(int(initiators[q]), int(receivers[q]))
                args = dict(counts=counts, cluster_counts=cc, partition=part, config=cfg,
                            collect_support=True)
                want = predict_reference(kind, g, query, **args)
                got = predict(kind, g, query, **args)
                where = f"{kind} {cfg} query {query}"
                assert bool(defined[q]) == got.defined == want.defined, where
                if want.defined:
                    assert np.array_equal(probs[q], want.probs), where
                    assert np.array_equal(got.probs, want.probs), where
                else:
                    assert np.all(np.isnan(probs[q])) and got.probs is None, where
                decision = decide(want, prior)
                assert (int(labels[q]), bool(fallback[q])) == decision, where
                assert decide(got, prior) == decision, where
                # JSON tells ints from floats and spells floats exactly.
                assert (json.dumps(got.support, sort_keys=True)
                        == json.dumps(want.support, sort_keys=True)), where


def _all_pairs(n):
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    return i, j


@pytest.mark.parametrize("seed,n_labels", [(0, 2), (1, 2), (2, 3), (3, 3)])
def test_random_graphs_match_scalar(seed, n_labels):
    g, _, n, _ = random_graph(seed, n=18, n_labels=n_labels, edge_prob=0.2)
    part = Partition.from_assignment(g, [u % 3 for u in range(n)], 3)
    _assert_same(g, part, *_all_pairs(n))


def test_empirical_prior_matches_scalar():
    g, _, n, _ = random_graph(7, n=16, n_labels=3, edge_prob=0.25)
    part = Partition.from_assignment(g, [u % 2 for u in range(n)], 2)
    cfgs = [SmoothingConfig(prior_mode="empirical", lcgm_floor_alpha=a, lambda_mode=m)
            for a in (0.0, 1.0) for m in ("support", "paper")]
    _assert_same(g, part, *_all_pairs(n), configs=cfgs,
                 kinds=("lcgm", "gcgm", "scgm"))


@pytest.mark.parametrize("density", [0.1, 1.0])
def test_planted_sweep_graph_matches_scalar(density):
    # The criterion-9 generator, one fold as ``evaluate`` poses it; the whole
    # fold is predicted in one call, a sample is checked against the scalar.
    graph, roles = generate_planted(300, 5, 0.25, 0.1, seed=0)
    g = sparsify(graph, density, 1)
    plan = make_folds(g, 3, 0)
    train = _train_graph_for_fold(g, plan, 0)
    test = np.flatnonzero(plan.fold_of_edge == 0)
    src, dst, _ = g.edge_arrays
    part = Partition.from_assignment(train, roles, 5)
    rng = np.random.default_rng(int(density * 10))
    sample = rng.choice(test.size, size=40, replace=False)
    cfgs = [SmoothingConfig(mu=2.0, lambda_mode="support", lcgm_floor_alpha=0.0),
            SmoothingConfig(mu=2.0, lambda_mode="paper", lcgm_floor_alpha=1.0)]
    _assert_same(train, part, src[test], dst[test], configs=cfgs, sample=sample)


def test_small_blocks_match_scalar(monkeypatch):
    # Tiny budgets force many blocks, including oversized single receivers.
    monkeypatch.setattr(counts_mod, "BLOCK_PAIRS", 12)
    monkeypatch.setattr(counts_mod, "BLOCK_CELLS", 200)
    g, _, n, _ = random_graph(5, n=20, n_labels=2, edge_prob=0.25)
    part = Partition.from_assignment(g, [u % 3 for u in range(n)], 3)
    assert len(receiver_blocks(g, np.arange(n))) > 3
    _assert_same(g, part, *_all_pairs(n))


def test_edge_cases_match_scalar():
    # 0 has no out-edges (empty context); 1's only out-edge goes to 2; nothing
    # points at 3; 4..7 carry the evidence.
    edges = [(1, 2, 0), (3, 4, 1), (4, 5, 0), (5, 6, 1), (6, 4, 0),
             (7, 4, 1), (7, 5, 0), (4, 6, 1), (5, 2, 0), (6, 2, 1)]
    g = SignedGraph.from_edges(8, edges)
    part = Partition.from_assignment(g, [0, 1, 0, 1, 0, 1, 0, 1], 2)
    initiators = np.array([0, 0, 1, 1, 4, 5, 7, 6])
    receivers = np.array([2, 3, 2, 3, 3, 3, 6, 3])
    _assert_same(g, part, initiators, receivers)
    probs, defined = predict_many("ltlgm", g, initiators[:3], receivers[:3])
    assert not defined.any() and np.isnan(probs).all()


def _tie_graph(extra_minus):
    # ltlgm for 0 -> 1 sees 2 through witnesses 3 ("+" to 1) and 4 ("-" to 1):
    # exactly [0.5, 0.5]. Edges among 5..7 only move the prior.
    edges = [(0, 2, 0), (3, 1, 0), (3, 2, 0), (4, 1, 1), (4, 2, 0)]
    extra = [(5, 6, 1), (6, 5, 1), (5, 7, 1), (7, 5, 1), (6, 7, 1), (7, 6, 1)]
    return SignedGraph.from_edges(8, edges + extra[:extra_minus])


@pytest.mark.parametrize("extra_minus,want", [(0, 0), (4, 1), (6, 1)])
def test_exact_tie_resolved_by_prior(extra_minus, want):
    g = _tie_graph(extra_minus)
    probs, defined = predict_many("ltlgm", g, [0], [1])
    assert defined[0] and probs[0].tolist() == [0.5, 0.5]
    prior = class_prior(g)
    labels, fallback = decide_many(probs, defined, prior)
    assert (int(labels[0]), bool(fallback[0])) == (want, False)
    assert decide(LabelDistribution.from_probs(probs[0]), prior) == (want, False)


def test_exact_tie_resolved_by_index_on_prior_tie():
    g = _tie_graph(3)                     # 4 "+" and 4 "-" edges: prior tie
    prior = class_prior(g)
    assert prior.probs.tolist() == [0.5, 0.5]
    probs, defined = predict_many("ltlgm", g, [0], [1])
    labels, _ = decide_many(probs, defined, prior)
    assert int(labels[0]) == 0


def test_decide_many_matches_decide_on_constructed_rows():
    prior = LabelDistribution.from_probs([0.25, 0.5, 0.25])
    probs = np.array([[0.4, 0.2, 0.4], [0.3, 0.3, 0.4], [0.2, 0.4, 0.4],
                      [np.nan] * 3, [1 / 3, 1 / 3, 1 / 3], [0.5, 0.5, 0.0]])
    defined = np.array([True, True, True, False, True, True])
    labels, fallback = decide_many(probs, defined, prior)
    for q in range(len(probs)):
        dist = (LabelDistribution.from_probs(probs[q]) if defined[q]
                else LabelDistribution.undefined())
        assert (int(labels[q]), bool(fallback[q])) == decide(dist, prior)
    with pytest.raises(ValueError):
        decide_many(probs, defined, LabelDistribution.undefined())


@pytest.mark.parametrize("pairs,cells", [(None, None), (500, 2000)])
def test_blocks_stay_within_budget(monkeypatch, pairs, cells):
    if pairs is not None:
        monkeypatch.setattr(counts_mod, "BLOCK_PAIRS", pairs)
        monkeypatch.setattr(counts_mod, "BLOCK_CELLS", cells)
    graph, _ = generate_planted(300, 5, 0.25, 0.1, seed=0)
    # Node 0 is a hub receiver: 59 in-tails with ~20 out-edges each.
    star = SignedGraph.from_edges(60, [(u, 0, u % 2) for u in range(1, 60)]
                                  + [(u, v, 0) for u in range(1, 60) for v in range(1, 60)
                                     if u != v and (u + v) % 3 == 0])
    for g in (graph, sparsify(graph, 0.1, 1), star):
        n, L = g.node_count, g.alphabet.size
        out_ptr, _, _, in_ptr, in_tails = g.csr()
        outdeg = np.diff(out_ptr)
        receivers = np.arange(n)
        blocks = receiver_blocks(g, receivers)
        assert np.array_equal(np.concatenate(blocks), receivers)
        for block in blocks:
            used = sum(int(outdeg[in_tails[in_ptr[u * L]:in_ptr[(u + 1) * L]]].sum())
                       for u in block.tolist())
            if block.size > 1:
                assert used <= counts_mod.BLOCK_PAIRS
                assert block.size * n * L * L <= counts_mod.BLOCK_CELLS
    if pairs is not None:
        # The hub alone exceeds the pair budget, so it forms its own block.
        assert [0] in [b.tolist() for b in receiver_blocks(star, np.arange(60))]


def test_predict_many_validates():
    g, _, n, _ = random_graph(0, n=10)
    with pytest.raises(ValueError, match="unknown model"):
        predict_many("nope", g, [0], [1])
    with pytest.raises(ValueError, match="partition"):
        predict_many("stlgm", g, [0], [1])
    with pytest.raises(ValueError, match="differ"):
        predict_many("ltlgm", g, [2], [2])
    with pytest.raises(ValueError, match="out of range"):
        predict_many("ltlgm", g, [0], [n])
    for i, j in (([0, 1], [2]), ([[0, 1]], [[2, 3]])):
        with pytest.raises(ValueError, match="1-D arrays of equal length"):
            predict_many("ltlgm", g, i, j)
    other = graph_from([(0, 1, 0)], n)
    with pytest.raises(ValueError, match="same graph"):
        predict_many("ltlgm", g, [0], [1], counts=CooccurrenceCounts.on_demand(other))
    probs, defined = predict_many("ltlgm", g, [], [])
    assert probs.shape == (0, 2) and defined.shape == (0,)
    probs, defined = predict_many("prior", g, [0, 3], [1, 4])
    assert defined.all() and np.array_equal(probs[1], class_prior(g).probs)


def test_counts_rebound_by_a_batch_are_refused_for_the_old_graph():
    # A stream batch rebinds both tables to the merged graph, so they no
    # longer count over the graph the caller held before the batch.
    graph, roles = generate_planted(40, 3, 0.2, 0.1, seed=0)
    counts = counts_mod.build_precomputed_nam(graph)
    part = Partition.from_assignment(graph, roles, 3)
    cc = ClusterCounts.from_partition(graph, part)
    src, dst, lbl = (a[:30].tolist() for a in graph.edge_arrays)
    ext = graph.external_of
    batch = [(ext(u), ext(v), 1 - l) for u, v, l in zip(src, dst, lbl)]
    new_graph, report = counts_mod.apply_edge_batch(counts, cc, graph, batch)
    assert report.relabeled == 30
    i, j = [0] * 39, list(range(1, 40))
    with pytest.raises(ValueError, match="^counts must count over the same graph"):
        predict("ltlgm", graph, PredictionQuery(0, 1), counts=counts)
    for kind in ("gtlgm", "stlgm"):
        with pytest.raises(ValueError, match="^cluster counts must count over the same graph"):
            predict(kind, graph, PredictionQuery(0, 1), counts=CooccurrenceCounts.on_demand(graph),
                    cluster_counts=cc, partition=part)
        with pytest.raises(ValueError, match="^cluster counts must count over the same graph"):
            predict_many(kind, graph, i, j, cluster_counts=cc, partition=part)
    # On the merged graph the stream-updated tables answer like fresh ones.
    fresh = ClusterCounts.from_partition(new_graph, part)
    for kind in ("ltlgm", "stlgm"):
        want, _ = predict_many(kind, new_graph, i, j, cluster_counts=fresh, partition=part)
        got = [predict(kind, new_graph, PredictionQuery(a, b), counts=counts,
                       cluster_counts=cc, partition=part) for a, b in zip(i, j)]
        got = [d.probs if d.defined else np.full(2, np.nan) for d in got]
        assert np.array_equal(np.array(got), want, equal_nan=True)


@pytest.mark.parametrize("kind", ["ltlgm", "lcgm", "stlgm", "scgm"])
def test_evaluate_equals_scalar_loop(kind):
    graph, _ = generate_planted(60, 3, 0.2, 0.1, seed=4)
    plan = make_folds(graph, 3, 4)
    cfg = SmoothingConfig(mu=2.0, lcgm_floor_alpha=0.0)
    ccfg = ClusterConfig(K=3, restarts=1, max_sweeps=3, seed=4)
    report = evaluate(graph, kind, cfg, ccfg, plan)
    src, dst, lbl = graph.edge_arrays
    L = graph.alphabet.size
    confusion = np.zeros((L, L), dtype=np.int64)
    fallbacks = 0
    for f in range(plan.k):
        train = _train_graph_for_fold(graph, plan, f)
        counts = CooccurrenceCounts.on_demand(train)
        part = cc = None
        if kind in ("stlgm", "scgm"):
            part, _ = cluster(train, replace(ccfg, seed=ccfg.seed + f))
            cc = ClusterCounts.from_partition(train, part)
        prior = class_prior(train)
        for e in np.flatnonzero(plan.fold_of_edge == f).tolist():
            dist = predict_reference(kind, train, PredictionQuery(int(src[e]), int(dst[e])),
                                     counts=counts, cluster_counts=cc, partition=part,
                                     config=cfg)
            label, fb = decide(dist, prior)
            confusion[lbl[e], label] += 1
            fallbacks += fb
    assert np.array_equal(report.confusion, confusion)
    assert report.fallback_count == fallbacks
