"""Predictor formulas against hand values and the brute-force oracle."""

import numpy as np
import pytest

from linklabel import (
    ClusterCounts,
    CooccurrenceCounts,
    LabelDistribution,
    Partition,
    PredictionQuery,
    SignedGraph,
    SmoothingConfig,
    build_precomputed_nam,
    class_prior,
    decide,
    generate_planted,
    predict,
    predict_many,
)

from conftest import G1_EDGES, I, J, graph_from, random_graph
import oracles


def _g1_setup(g1, K=1):
    counts = build_precomputed_nam(g1)
    asg = [v % K for v in range(6)]
    part = Partition.from_assignment(g1, asg, K)
    cc = ClusterCounts.from_partition(g1, part)
    return counts, cc, part


Q = PredictionQuery(I, J)


# -- class prior and decide --------------------------------------------------------

def test_prior_all_positive():
    g = SignedGraph.from_edges(3, [(0, 1, 0), (1, 2, 0)])
    assert class_prior(g).probs.tolist() == [1.0, 0.0]


def test_prior_balanced():
    g = SignedGraph.from_edges(4, [(0, 1, 0), (1, 2, 0), (2, 3, 1), (3, 0, 1)])
    assert class_prior(g).probs.tolist() == [0.5, 0.5]


def test_prior_needs_edges():
    g = SignedGraph.from_edges(2, [])
    with pytest.raises(ValueError):
        class_prior(g)


def test_decide_plain_argmax():
    prior = LabelDistribution.from_probs([0.85, 0.15])
    label, fb = decide(LabelDistribution.from_probs([0.7, 0.3]), prior)
    assert (label, fb) == (0, False)


def test_decide_tie_breaks_to_higher_prior():
    prior = LabelDistribution.from_probs([0.85, 0.15])
    label, fb = decide(LabelDistribution.from_probs([0.5, 0.5]), prior)
    assert (label, fb) == (0, False)
    prior2 = LabelDistribution.from_probs([0.15, 0.85])
    label2, _ = decide(LabelDistribution.from_probs([0.5, 0.5]), prior2)
    assert label2 == 1


def test_decide_tie_breaks_to_lower_index_on_prior_tie():
    prior = LabelDistribution.from_probs([1 / 3, 1 / 3, 1 / 3])
    label, _ = decide(LabelDistribution.from_probs([0.2, 0.4, 0.4]), prior)
    assert label == 1


def test_decide_fallback_uses_prior():
    prior = LabelDistribution.from_probs([0.2, 0.8])
    label, fb = decide(LabelDistribution.undefined(), prior)
    assert (label, fb) == (1, True)


def test_decide_requires_defined_prior():
    with pytest.raises(ValueError):
        decide(LabelDistribution.from_probs([0.5, 0.5]), LabelDistribution.undefined())


# -- LTLGM -------------------------------------------------------------------------

def test_ltlgm_worked_example(g1):
    counts = build_precomputed_nam(g1)
    dist = predict("ltlgm", g1, Q, counts=counts)
    assert dist.defined
    assert dist.probs == pytest.approx([2 / 3, 1 / 3], abs=1e-12)


def test_ltlgm_empty_context_undefined(g1):
    counts = build_precomputed_nam(g1)
    assert not predict("ltlgm", g1, PredictionQuery(J, I), counts=counts).defined


def test_ltlgm_averaging_idempotence():
    # Two context entries with identical terms: the average is that term.
    edges = list(G1_EDGES)
    # Mirror x's co-pointing pattern onto a second target y (node 6).
    edges += [(I, 6, 0), (3, 6, 0), (4, 6, 0), (5, 6, 0)]
    g = SignedGraph.from_edges(7, edges)
    counts = build_precomputed_nam(g)
    dist = predict("ltlgm", g, PredictionQuery(I, J), counts=counts)
    assert dist.probs == pytest.approx([2 / 3, 1 / 3], abs=1e-12)


def test_ltlgm_skips_unsupported_entries(g1):
    # Add a context edge to a target nobody else points at: it is skipped
    # and the defined entry keeps full weight.
    edges = list(G1_EDGES) + [(I, 5, 1)]
    g = SignedGraph.from_edges(6, edges)
    counts = build_precomputed_nam(g)
    dist = predict("ltlgm", g, PredictionQuery(I, J), counts=counts)
    assert dist.probs == pytest.approx([2 / 3, 1 / 3], abs=1e-12)


# -- LCGM --------------------------------------------------------------------------

def test_lcgm_unfloored_tie(g1):
    counts = build_precomputed_nam(g1)
    cfg = SmoothingConfig(lcgm_floor_alpha=0.0)
    dist = predict("lcgm", g1, Q, counts=counts, config=cfg)
    assert dist.probs == pytest.approx([0.5, 0.5], abs=1e-12)
    label, fb = decide(dist, class_prior(g1))
    assert (label, fb) == (0, False)      # tie falls to the higher prior


def test_lcgm_floored_value(g1):
    counts = build_precomputed_nam(g1)
    cfg = SmoothingConfig(lcgm_floor_alpha=1.0)
    dist = predict("lcgm", g1, Q, counts=counts, config=cfg)
    want = 0.75 / (0.75 + 2 / 3)
    assert dist.probs == pytest.approx([want, 1 - want], abs=1e-9)
    assert dist.probs[0] == pytest.approx(0.5294, abs=5e-5)


def test_lcgm_empty_context_returns_prior(g1):
    counts = build_precomputed_nam(g1)
    dist = predict("lcgm", g1, PredictionQuery(J, I), counts=counts, config=SmoothingConfig())
    assert dist.defined
    assert dist.probs == pytest.approx([0.5, 0.5])
    emp = predict("lcgm", g1, PredictionQuery(J, I), counts=counts,
                  config=SmoothingConfig(prior_mode="empirical"))
    assert emp.probs == pytest.approx([6 / 7, 1 / 7])


# -- cluster-level models -------------------------------------------------------------

def test_gtlgm_planted_purity():
    g, roles = generate_planted(30, 3, 0.3, 0.0, seed=4)
    part = Partition.from_assignment(g, roles, K=3)
    cc = ClusterCounts.from_partition(g, part)
    table = {}
    for s, d, l in g.edges():
        table[(int(roles[s]), int(roles[d]))] = l
    checked = 0
    for s, d, l in list(g.edges())[:60]:
        dist = predict("gtlgm", g, PredictionQuery(s, d), cluster_counts=cc, partition=part)
        if dist.defined:
            assert dist.probs[table[(int(roles[s]), int(roles[d]))]] == pytest.approx(1.0)
            checked += 1
    assert checked > 0


def test_gtlgm_k1_worked_value(g1):
    counts, cc, part = _g1_setup(g1, K=1)
    dist = predict("gtlgm", g1, Q, cluster_counts=cc, partition=part)
    assert dist.probs == pytest.approx([0.8, 0.2], abs=1e-12)


def test_gtlgm_empty_context_undefined(g1):
    _, cc, part = _g1_setup(g1, K=1)
    assert not predict("gtlgm", g1, PredictionQuery(J, I), cluster_counts=cc,
                       partition=part).defined


def test_mismatched_partition_rejected(g1):
    # Another partition over the same nodes would index the table with the
    # wrong clusters and give a plausible answer; both entry points refuse it.
    counts, cc, part = _g1_setup(g1, K=2)
    other = Partition.from_assignment(g1, 1 - part.assignment, K=2)
    for kind in ("gtlgm", "stlgm", "ltlgm"):
        with pytest.raises(ValueError, match="^partition must be the one"):
            predict(kind, g1, Q, counts=counts, cluster_counts=cc, partition=other)
        with pytest.raises(ValueError, match="^partition must be the one"):
            predict_many(kind, g1, [I], [J], cluster_counts=cc, partition=other)
    assert predict("gtlgm", g1, Q, cluster_counts=cc, partition=part).defined


def test_gcgm_planted_argmax_is_table_label():
    g, roles = generate_planted(30, 3, 0.3, 0.0, seed=4)
    part = Partition.from_assignment(g, roles, K=3)
    cc = ClusterCounts.from_partition(g, part)
    prior = class_prior(g)
    table = {}
    for s, d, l in g.edges():
        table[(int(roles[s]), int(roles[d]))] = l
    # The floor matters here: unfloored factors all skip on a label-pure
    # graph because the off-table denominators are empty.
    cfg = SmoothingConfig(lcgm_floor_alpha=1.0)
    hits = total = 0
    for s, d, l in list(g.edges())[:60]:
        dist = predict("gcgm", g, PredictionQuery(s, d), cluster_counts=cc, partition=part,
                       config=cfg)
        if dist.defined and not np.isclose(dist.probs[0], dist.probs[1]):
            label, _ = decide(dist, prior)
            hits += label == table[(int(roles[s]), int(roles[d]))]
            total += 1
    assert total > 0 and hits == total


def test_gcgm_empty_context_returns_prior(g1):
    _, cc, part = _g1_setup(g1, K=1)
    dist = predict("gcgm", g1, PredictionQuery(J, I), cluster_counts=cc, partition=part,
                   config=SmoothingConfig())
    assert dist.defined and dist.probs == pytest.approx([0.5, 0.5])


# -- smoothed blends -------------------------------------------------------------------

def test_stlgm_mu_limits(g1):
    counts, cc, part = _g1_setup(g1, K=1)
    lo = predict("stlgm", g1, Q, counts=counts, cluster_counts=cc, partition=part,
                 config=SmoothingConfig(mu=1e-9))
    assert lo.probs == pytest.approx([2 / 3, 1 / 3], abs=1e-6)
    hi = predict("stlgm", g1, Q, counts=counts, cluster_counts=cc, partition=part,
                 config=SmoothingConfig(mu=1e9))
    assert hi.probs == pytest.approx([0.8, 0.2], abs=1e-6)


def test_stlgm_equal_evidence_is_midpoint(g1):
    # The single context entry has local support n = 3; mu = 3 puts the
    # blend exactly halfway between the local and global terms.
    counts, cc, part = _g1_setup(g1, K=1)
    dist = predict("stlgm", g1, Q, counts=counts, cluster_counts=cc, partition=part,
                   config=SmoothingConfig(mu=3.0))
    local = predict("ltlgm", g1, Q, counts=counts).probs
    glob = predict("gtlgm", g1, Q, cluster_counts=cc, partition=part).probs
    assert dist.probs == pytest.approx((local + glob) / 2, abs=1e-12)
    assert dist.probs == pytest.approx([0.5 * 2 / 3 + 0.5 * 0.8,
                                        0.5 / 3 + 0.5 * 0.2], abs=1e-12)


def test_stlgm_default_mu_value(g1):
    counts, cc, part = _g1_setup(g1, K=1)
    dist = predict("stlgm", g1, Q, counts=counts, cluster_counts=cc, partition=part,
                   config=SmoothingConfig(mu=4.0))
    lam = 4.0 / 7.0
    want = (1 - lam) * np.array([2 / 3, 1 / 3]) + lam * np.array([0.8, 0.2])
    assert dist.probs == pytest.approx(want, abs=1e-12)


def test_stlgm_mu_monotone_toward_global(g1):
    counts, cc, part = _g1_setup(g1, K=1)
    prev = predict("ltlgm", g1, Q, counts=counts).probs[0]
    for mu in (0.5, 1.0, 2.0, 4.0, 8.0, 32.0, 128.0):
        cur = predict("stlgm", g1, Q, counts=counts, cluster_counts=cc, partition=part,
                      config=SmoothingConfig(mu=mu)).probs[0]
        assert cur >= prev - 1e-12      # global term is larger on label 0
        prev = cur
    assert prev <= 0.8 + 1e-12


def test_stlgm_local_gap_goes_global():
    # Context head nobody else co-points: lambda = 1 for that entry.
    edges = [(0, 2, 0), (3, 2, 0), (3, 1, 0), (0, 4, 1)]
    g = SignedGraph.from_edges(5, edges)
    counts = build_precomputed_nam(g)
    part = Partition.from_assignment(g, [0] * 5, K=1)
    cc = ClusterCounts.from_partition(g, part)
    dist = predict("stlgm", g, PredictionQuery(0, 1), counts=counts, cluster_counts=cc,
                   partition=part, config=SmoothingConfig(mu=0.0), collect_support=True)
    assert dist.defined
    used = {e["head"]: e["used"] for e in dist.support}
    assert used[4] == "global"


def test_scgm_mu_limits(g1):
    counts, cc, part = _g1_setup(g1, K=1)
    base = SmoothingConfig(lcgm_floor_alpha=0.0)
    lo = predict("scgm", g1, Q, counts=counts, cluster_counts=cc, partition=part,
                 config=SmoothingConfig(mu=1e-9, lcgm_floor_alpha=0.0))
    want = predict("lcgm", g1, Q, counts=counts, config=base)
    assert lo.probs == pytest.approx(want.probs, abs=1e-6)
    hi = predict("scgm", g1, Q, counts=counts, cluster_counts=cc, partition=part,
                 config=SmoothingConfig(mu=1e9, lcgm_floor_alpha=0.0))
    want_g = predict("gcgm", g1, Q, cluster_counts=cc, partition=part, config=base)
    assert hi.probs == pytest.approx(want_g.probs, abs=1e-6)


def test_scgm_no_local_samples_is_fully_global():
    # Nobody co-points the receiver and the context head (n' = 0), yet both
    # labels keep local and global support: the factor must equal the pure
    # cluster-level conditional in paper mode.
    edges = [(0, 2, 0), (3, 2, 1), (3, 1, 0), (4, 2, 1), (4, 1, 1)]
    g = SignedGraph.from_edges(5, edges)
    counts = build_precomputed_nam(g)
    part = Partition.from_assignment(g, [0] * 5, K=1)
    cc = ClusterCounts.from_partition(g, part)
    q = PredictionQuery(0, 1)
    cfg = SmoothingConfig(mu=2.0, lambda_mode="paper", lcgm_floor_alpha=0.0)
    got = predict("scgm", g, q, counts=counts, cluster_counts=cc, partition=part, config=cfg)
    want = predict("gcgm", g, q, cluster_counts=cc, partition=part,
                   config=SmoothingConfig(lcgm_floor_alpha=0.0))
    assert got.defined
    assert got.probs == pytest.approx(want.probs, abs=1e-12)


def test_scgm_empty_context_returns_prior(g1):
    counts, cc, part = _g1_setup(g1, K=1)
    dist = predict("scgm", g1, PredictionQuery(J, I), counts=counts, cluster_counts=cc,
                   partition=part, config=SmoothingConfig())
    assert dist.defined and dist.probs == pytest.approx([0.5, 0.5])


# -- oracle equivalence ------------------------------------------------------------------

def _oracle_check(dist, defined, probs, tol=1e-12):
    assert dist.defined == defined
    if defined:
        assert dist.probs == pytest.approx(probs, abs=tol)


@pytest.mark.parametrize("seed,n_labels", [(0, 2), (1, 2), (2, 3)])
def test_all_models_match_oracle(seed, n_labels):
    g, edges, n, L = random_graph(seed, n=14, edge_prob=0.2, n_labels=n_labels)
    K = 3
    asg = [u % K for u in range(n)]
    part = Partition.from_assignment(g, asg, K)
    counts = build_precomputed_nam(g)
    cc = ClusterCounts.from_partition(g, part)
    mu = 2.5
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            q = PredictionQuery(i, j)
            _oracle_check(predict("ltlgm", g, q, counts=counts),
                          *oracles.ltlgm(edges, n, L, i, j))
            for alpha in (0.0, 1.0):
                cfg = SmoothingConfig(lcgm_floor_alpha=alpha)
                _oracle_check(predict("lcgm", g, q, counts=counts, config=cfg),
                              *oracles.lcgm(edges, n, L, i, j, alpha))
                _oracle_check(predict("gcgm", g, q, cluster_counts=cc, partition=part, config=cfg),
                              *oracles.gcgm(edges, asg, n, K, L, i, j, alpha))
            _oracle_check(predict("gtlgm", g, q, cluster_counts=cc, partition=part),
                          *oracles.gtlgm(edges, asg, n, K, L, i, j))
            for mode in ("support", "paper"):
                cfg = SmoothingConfig(mu=mu, lambda_mode=mode, lcgm_floor_alpha=0.0)
                _oracle_check(predict("stlgm", g, q, counts=counts, cluster_counts=cc,
                                      partition=part, config=cfg),
                              *oracles.stlgm(edges, asg, n, K, L, i, j, mu, mode))
                _oracle_check(predict("scgm", g, q, counts=counts, cluster_counts=cc,
                                      partition=part, config=cfg),
                              *oracles.scgm(edges, asg, n, K, L, i, j, mu, mode))


def test_defined_outputs_are_normalized():
    total = 0
    for seed in range(3):
        g, edges, n, L = random_graph(seed, n=16, edge_prob=0.2)
        part = Partition.from_assignment(g, [u % 2 for u in range(n)], 2)
        counts = build_precomputed_nam(g)
        cc = ClusterCounts.from_partition(g, part)
        cfg = SmoothingConfig()
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                q = PredictionQuery(i, j)
                for dist in (
                    predict("ltlgm", g, q, counts=counts),
                    predict("lcgm", g, q, counts=counts, config=cfg),
                    predict("gtlgm", g, q, cluster_counts=cc, partition=part),
                    predict("gcgm", g, q, cluster_counts=cc, partition=part, config=cfg),
                    predict("stlgm", g, q, counts=counts, cluster_counts=cc, partition=part,
                            config=cfg),
                    predict("scgm", g, q, counts=counts, cluster_counts=cc, partition=part,
                            config=cfg),
                ):
                    if dist.defined:
                        assert abs(float(dist.probs.sum()) - 1.0) < 1e-9
                        assert np.all(dist.probs >= -1e-15)
                        assert np.all(dist.probs <= 1 + 1e-15)
                        total += 1
    assert total > 2000


# -- dispatcher and config -----------------------------------------------------------------

def test_predict_dispatcher_validates(g1):
    counts, cc, part = _g1_setup(g1, K=1)
    with pytest.raises(ValueError, match="unknown model"):
        predict("nope", g1, Q)
    with pytest.raises(ValueError, match="counts"):
        predict("ltlgm", g1, Q)
    with pytest.raises(ValueError, match="partition"):
        predict("stlgm", g1, Q, counts=counts)
    got = predict("stlgm", g1, Q, counts=counts, cluster_counts=cc, partition=part)
    want = predict("stlgm", g1, Q, counts=counts, cluster_counts=cc, partition=part,
                   config=SmoothingConfig())
    assert got.probs == pytest.approx(want.probs)
    assert predict("prior", g1, Q).probs == pytest.approx([6 / 7, 1 / 7])


def test_smoothing_config_validation():
    with pytest.raises(ValueError):
        SmoothingConfig(mu=-1.0)
    with pytest.raises(ValueError):
        SmoothingConfig(lcgm_floor_alpha=-0.5)
    with pytest.raises(ValueError):
        SmoothingConfig(lambda_mode="middle")
    with pytest.raises(ValueError):
        SmoothingConfig(prior_mode="oracle")


def test_support_collection(g1):
    counts, cc, part = _g1_setup(g1, K=1)
    dist = predict("stlgm", g1, Q, counts=counts, cluster_counts=cc, partition=part,
                   config=SmoothingConfig(), collect_support=True)
    assert dist.support is not None and len(dist.support) == 1
    entry = dist.support[0]
    assert entry["head"] == 2 and entry["n_local"] == 3 and entry["used"] == "blend"
    plain = predict("stlgm", g1, Q, counts=counts, cluster_counts=cc, partition=part,
                    config=SmoothingConfig())
    assert plain.support is None
