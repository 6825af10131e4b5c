"""Fold plans, balanced accuracy, cross-validation runs, sweeps, sample CDF."""

import json

import numpy as np
import pytest

from linklabel import (
    ClusterConfig,
    FoldPlan,
    SignedGraph,
    SmoothingConfig,
    balanced_accuracy,
    evaluate,
    generate_planted,
    make_folds,
    param_sample_cdf,
    sparsity_sweep,
)
from linklabel.evaluation import _assert_fold_hygiene, _train_graph_for_fold
from linklabel.graph import SIGNED

import oracles


# -- fold plans -------------------------------------------------------------------

def _ten_edge_graph():
    edges = [(i, (i + 1) % 5, i % 2) for i in range(5)]
    edges += [(i, (i + 2) % 5, i % 2) for i in range(5)]
    return SignedGraph.from_edges(5, edges)


def test_ten_edges_ten_singleton_folds():
    g = _ten_edge_graph()
    plan = make_folds(g, 10, seed=0)
    assert plan.fold_sizes().tolist() == [1] * 10
    assert sorted(plan.fold_of_edge.tolist()) == list(range(10))


def test_folds_deterministic():
    g = _ten_edge_graph()
    a = make_folds(g, 5, seed=3)
    b = make_folds(g, 5, seed=3)
    assert np.array_equal(a.fold_of_edge, b.fold_of_edge)
    c = make_folds(g, 5, seed=4)
    assert not np.array_equal(a.fold_of_edge, c.fold_of_edge)


def test_fold_sizes_pigeonhole_large():
    e = 103747
    n = 323                                  # 323 * 322 = 104006 >= e
    idx = np.arange(e, dtype=np.int64)
    src = idx // (n - 1)
    r = idx % (n - 1)
    dst = r + (r >= src)
    lbl = idx % 2
    g = SignedGraph(n, src, dst, lbl, SIGNED, [str(i) for i in range(n)])
    sizes = make_folds(g, 10, seed=0).fold_sizes()
    assert set(sizes.tolist()) == {10374, 10375}
    assert int(sizes.sum()) == e
    assert int((sizes == 10375).sum()) == 7


def test_stratified_folds_balance_labels():
    g, _ = generate_planted(40, 3, 0.2, 0.4, seed=2)
    # 13 edges of each label into 10 folds: dealing each class from fold 0
    # would give sizes [4 4 4 2 2 2 2 2 2 2].
    chain = SignedGraph.from_edges(27, [(v, v + 1, v % 2) for v in range(26)])
    for graph, k in ((g, 4), (chain, 10)):
        plan = make_folds(graph, k, seed=1, stratified=True)
        _, _, lbl = graph.edge_arrays
        for l in range(2):
            per_fold = np.bincount(plan.fold_of_edge[lbl == l], minlength=k)
            assert per_fold.max() - per_fold.min() <= 1
        sizes = np.bincount(plan.fold_of_edge, minlength=k)
        assert sizes.max() - sizes.min() <= 1


def test_folds_validate_inputs():
    g = _ten_edge_graph()
    with pytest.raises(ValueError):
        make_folds(g, 1, seed=0)
    with pytest.raises(ValueError):
        make_folds(g, 11, seed=0)


# -- balanced accuracy ---------------------------------------------------------------

def test_balanced_accuracy_worked_example():
    # truths (+,+,+,-) preds (+,+,-,-)
    assert balanced_accuracy([[2, 1], [0, 1]]) == pytest.approx(5 / 6)


@pytest.mark.parametrize("confusion,want", [
    ([[3, 0], [0, 2]], 1.0),                       # perfect
    ([[5, 0], [3, 0]], 0.5),                       # all-majority, imbalanced
    ([[0, 0], [0, 4]], 1.0),                       # single present class
    ([[1, 9], [1, 9]], 0.5),                       # complementary rates
    ([[4, 1], [2, 3]], 0.7),
    ([[2, 0, 0], [0, 3, 0], [0, 0, 4]], 1.0),      # three classes
    ([[2, 1, 0], [0, 0, 0], [1, 0, 3]], (2 / 3 + 3 / 4) / 2),   # absent class
    ([[9, 1], [0, 0]], 0.9),
    ([[1, 0], [0, 99]], 1.0),
])
def test_balanced_accuracy_matrix_battery(confusion, want):
    assert balanced_accuracy(confusion) == pytest.approx(want, abs=1e-12)


def test_balanced_accuracy_matches_list_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        truths = rng.integers(0, 3, size=60).tolist()
        preds = rng.integers(0, 3, size=60).tolist()
        conf = np.zeros((3, 3), dtype=int)
        for t, p in zip(truths, preds):
            conf[t, p] += 1
        assert balanced_accuracy(conf) == pytest.approx(
            oracles.balanced_accuracy(truths, preds, 3), abs=1e-12)


def test_balanced_accuracy_needs_instances():
    with pytest.raises(ValueError):
        balanced_accuracy([[0, 0], [0, 0]])


# -- evaluate --------------------------------------------------------------------------

def _planted_eval_graph(noise=0.0, seed=13):
    g, _ = generate_planted(60, 3, 0.25, noise, seed=seed)
    return g


def test_prior_model_scores_half():
    g = _planted_eval_graph(noise=0.1)
    plan = make_folds(g, 5, seed=0)
    rep = evaluate(g, "prior", fold_plan=plan)
    assert rep.balanced_accuracy == pytest.approx(0.5)
    assert rep.fallback_rate == 0.0
    assert rep.test_edges == g.edge_count


def test_evaluate_requires_plan_and_cluster_config():
    g = _planted_eval_graph()
    plan = make_folds(g, 5, seed=0)
    with pytest.raises(ValueError, match="fold_plan"):
        evaluate(g, "ltlgm")
    with pytest.raises(ValueError, match="cluster_config"):
        evaluate(g, "stlgm", fold_plan=plan)
    with pytest.raises(ValueError, match="unknown model"):
        evaluate(g, "wat", fold_plan=plan)


def test_evaluate_ltlgm_on_pure_planted():
    g = _planted_eval_graph()
    plan = make_folds(g, 5, seed=0)
    rep = evaluate(g, "ltlgm", fold_plan=plan)
    # Node-level votes pool tails from every role, so purity does not mean
    # perfection here; the run is deterministic, so pin the measured score.
    assert rep.balanced_accuracy > 0.75
    assert rep.balanced_accuracy == pytest.approx(0.81625690042936, abs=1e-9)
    assert len(rep.per_fold) == 5
    assert sum(r["test_edges"] for r in rep.per_fold) == g.edge_count


def test_evaluate_gtlgm_on_pure_planted():
    g = _planted_eval_graph()
    plan = make_folds(g, 5, seed=0)
    cc = ClusterConfig(K=3, restarts=3, seed=0)
    rep = evaluate(g, "gtlgm", cluster_config=cc, fold_plan=plan)
    assert rep.balanced_accuracy > 0.95
    assert rep.fallback_rate < 0.05


def test_evaluate_deterministic_and_thread_invariant():
    g = _planted_eval_graph(noise=0.1)
    plan = make_folds(g, 5, seed=2)
    cc = ClusterConfig(K=3, restarts=2, seed=1)
    reps = [evaluate(g, "stlgm", SmoothingConfig(), cc, plan, threads=t)
            for t in (1, 1, 4)]
    dumps = [json.dumps(r.to_records(), sort_keys=True) for r in reps]
    assert dumps[0] == dumps[1] == dumps[2]


def test_evaluate_reuse_clustering_runs():
    g = _planted_eval_graph()
    plan = make_folds(g, 5, seed=0)
    cc = ClusterConfig(K=3, restarts=2, seed=0)
    rep = evaluate(g, "gtlgm", cluster_config=cc, fold_plan=plan,
                   reuse_clustering=True)
    assert rep.config["reuse_clustering"] is True
    assert rep.balanced_accuracy > 0.9


def test_config_echo_excludes_threads():
    g = _planted_eval_graph(noise=0.1)
    plan = make_folds(g, 5, seed=0)
    cc = ClusterConfig(K=3, restarts=2, seed=1)
    rep = evaluate(g, "scgm", SmoothingConfig(mu=2.0), cc, plan, threads=4)
    assert "threads" not in json.dumps(rep.config)
    assert rep.config["model"] == "scgm" and rep.config["mu"] == 2.0
    assert rep.config["clustering"]["K"] == 3
    assert rep.config["folds"] == 5 and rep.config["fold_seed"] == 0


def test_fold_hygiene_guard_fires():
    g = _planted_eval_graph()
    plan = make_folds(g, 5, seed=0)
    train = _train_graph_for_fold(g, plan, 0)
    src, dst, _ = train.edge_arrays
    with pytest.raises(AssertionError, match="leaked"):
        _assert_fold_hygiene(train, src[:1], dst[:1])


def test_human_table_renders():
    g = _planted_eval_graph(noise=0.1)
    plan = make_folds(g, 5, seed=0)
    rep = evaluate(g, "ltlgm", fold_plan=plan)
    text = rep.human_table(["+", "-"])
    assert "balanced accuracy" in text and "true +" in text


# -- sparsity sweep -----------------------------------------------------------------------

def test_sweep_full_density_matches_plain_evaluate():
    g = _planted_eval_graph(noise=0.1)
    recs = sparsity_sweep(g, [1.0], ["ltlgm"], folds=5, seed=3)
    plan = make_folds(g, 5, seed=3)
    rep = evaluate(g, "ltlgm", fold_plan=plan)
    assert len(recs) == 1
    assert recs[0]["balanced_accuracy"] == pytest.approx(rep.balanced_accuracy, abs=1e-12)
    assert recs[0]["edges"] == g.edge_count


def test_sweep_record_grid():
    g = _planted_eval_graph(noise=0.1)
    recs = sparsity_sweep(g, [0.5, 1.0], ["prior", "ltlgm"], folds=4, seed=0)
    assert [(r["density"], r["model"]) for r in recs] == [
        (0.5, "prior"), (0.5, "ltlgm"), (1.0, "prior"), (1.0, "ltlgm")]


def test_sweep_rejects_bad_density():
    g = _planted_eval_graph()
    with pytest.raises(ValueError):
        sparsity_sweep(g, [0.0], ["prior"], folds=4, seed=0)


# -- parameter sample CDF --------------------------------------------------------------------

def test_cdf_hand_checked_strict_threshold():
    edges = [(0, 1, 0), (0, 2, 0), (3, 1, 0), (3, 2, 0), (4, 1, 1), (4, 2, 0)]
    g = SignedGraph.from_edges(5, edges)
    plan = FoldPlan(k=2, seed=0, fold_of_edge=np.array([0, 1, 1, 1, 1, 1]))
    out = param_sample_cdf(g, plan, "ltlgm", [1, 2, 3])
    # Two parameters total: one backed by 2 samples, one by 0.
    assert out["total_parameters"] == 2
    assert out["fractions"] == {1: 0.5, 2: 0.5, 3: 1.0}
    out2 = param_sample_cdf(g, plan, "lcgm", [1, 2])
    assert out2["total_parameters"] == 4
    assert out2["fractions"] == {1: 0.5, 2: 1.0}


def test_cdf_is_nondecreasing():
    g = _planted_eval_graph(noise=0.2)
    plan = make_folds(g, 5, seed=0)
    out = param_sample_cdf(g, plan, "ltlgm", [0, 1, 2, 4, 8, 16, 64])
    vals = [out["fractions"][t] for t in (0, 1, 2, 4, 8, 16, 64)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert out["fractions"][0] == 0.0            # nothing is below zero samples
    assert 0.0 <= vals[-1] <= 1.0


def test_cdf_rejects_cluster_models():
    g = _planted_eval_graph()
    plan = make_folds(g, 5, seed=0)
    with pytest.raises(ValueError):
        param_sample_cdf(g, plan, "stlgm", [4])
