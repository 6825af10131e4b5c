"""Co-pointing count structures: exact values, invariants, snapshots, streaming."""

import numpy as np
import pytest

import linklabel.counts as counts_mod
from linklabel import (
    ANY,
    MODEL_KINDS,
    BudgetExceededError,
    ClusterCounts,
    CooccurrenceCounts,
    Partition,
    PredictionQuery,
    SignedGraph,
    SmoothingConfig,
    apply_edge_batch,
    build_precomputed_nam,
    generate_planted,
    predict,
    projected_pair_cost,
    save_cam_snapshot,
    save_nam_snapshot,
)

from linklabel.counts import receiver_blocks

from conftest import G1_EDGES, J, X, graph_from, random_batch, random_edge_list, random_graph
import oracles


# -- node-level values ----------------------------------------------------------

def test_g1_values(g1):
    nam_count = oracles.nam(G1_EDGES, 6, 2)
    count = CooccurrenceCounts.on_demand(g1).count
    assert nam_count(J, 0, X, 0) == count(J, 0, X, 0) == 2          # {w1, w3}
    assert nam_count(J, None, X, 0) == count(J, ANY, X, 0) == 3     # {w1, w2, w3}


def test_self_intersection_is_tail_size(g1):
    count = CooccurrenceCounts.on_demand(g1).count
    t_any, t_lab = oracles.tail_sets(G1_EDGES, 6, 2)
    for m in range(6):
        assert count(m, ANY, m, ANY) == len(t_any[m])
        for l in (0, 1):
            assert count(m, l, m, l) == len(t_lab[m][l])


def test_disjoint_neighborhoods_give_zero():
    edges = [(0, 2, 0), (1, 3, 0)]
    count = CooccurrenceCounts.on_demand(SignedGraph.from_edges(4, edges)).count
    assert oracles.nam(edges, 4, 2)(2, None, 3, None) == count(2, ANY, 3, ANY) == 0


def test_invariants_bulk():
    """Symmetry, upper bound and label-sum identity over >= 10^4 sampled keys."""
    rng = np.random.default_rng(0)
    checked = 0
    for seed in range(6):
        g, edges, n, L = random_graph(seed, n=25, edge_prob=0.2)
        oracle = oracles.nam(edges, n, L)
        count = CooccurrenceCounts.on_demand(g).count
        for _ in range(700):
            m, nn = rng.integers(n, size=2)
            l, lp = rng.integers(-1, L, size=2)
            c = count(m, l, nn, lp)
            assert c == count(nn, lp, m, l)
            la = None if l == ANY else l
            lb = None if lp == ANY else lp
            assert c <= min(len(g.in_tails(m, la)), len(g.in_tails(nn, lb)))
            assert c == oracle(m, la, nn, lb)
            assert sum(count(m, q, nn, lp) for q in range(L)) == count(m, ANY, nn, lp)
            checked += 3
    assert checked >= 10_000


def test_precomputed_equals_on_demand():
    for seed in range(4):
        g, _, n, L = random_graph(seed, n=18, edge_prob=0.2)
        pre = build_precomputed_nam(g)
        dem = CooccurrenceCounts.on_demand(g)
        for m in range(n):
            for nn in range(n):
                for l in (ANY, *range(L)):
                    for lp in (ANY, *range(L)):
                        assert pre.count(m, l, nn, lp) == dem.count(m, l, nn, lp)


def test_reads_leave_graph_unchanged(g1):
    # On-demand counts read the graph's CSR arrays and cache nothing on it.
    def state():
        return {k: v.tobytes() if isinstance(v, np.ndarray) else repr(v)
                for k, v in vars(g1).items()}

    counts = CooccurrenceCounts.on_demand(g1)
    part = Partition.from_assignment(g1, np.arange(6) % 2, K=2)
    cc = ClusterCounts.from_partition(g1, part)
    cfg = SmoothingConfig(lambda_mode="paper")
    before = state()
    for m in range(6):
        for n in range(6):
            for l in (ANY, 0, 1):
                for lp in (ANY, 0, 1):
                    counts.count(m, l, n, lp)
            if m == n:
                continue
            for kind in MODEL_KINDS:
                predict(kind, g1, PredictionQuery(m, n), counts=counts, cluster_counts=cc,
                        partition=part, config=cfg)
    after = state()
    assert after.keys() == before.keys()
    assert after == before


def test_star_concrete_entry_count():
    k = 5
    edges = [(0, h, h % 2) for h in range(1, k + 1)]
    g = SignedGraph.from_edges(k + 1, edges)
    pre = build_precomputed_nam(g)
    concrete = [key for key in pre.table if key[1] != ANY and key[3] != ANY]
    assert len(concrete) == k * k
    assert all(pre.table[key] == 1 for key in concrete)


def test_no_shared_tail_no_off_diagonal():
    # Every node has out-degree <= 1: nothing co-points anywhere.
    g = SignedGraph.from_edges(4, [(0, 1, 0), (1, 2, 1), (2, 3, 0)])
    pre = build_precomputed_nam(g)
    assert all(m == nn for (m, _, nn, _) in pre.table)


def test_projected_cost_is_sum_of_squared_out_degrees(g1):
    # G1 out-degrees: i=1, w1=w2=w3=2 -> 1 + 3*4 = 13.
    assert projected_pair_cost(g1) == 13
    assert build_precomputed_nam(g1).projected_pair_cost == 13


def test_budget_guard(g1):
    with pytest.raises(BudgetExceededError, match="--nam-override") as exc:
        build_precomputed_nam(g1, budget=12)
    assert exc.value.projected_cost == 13 and exc.value.budget == 12
    forced = build_precomputed_nam(g1, budget=12, override=True)
    assert forced.count(J, 0, X, 0) == 2


@pytest.mark.parametrize("seed", range(4))
def test_receiver_blocks_follow_brute_force_pair_counts(monkeypatch, seed):
    # A receiver's pair count is the out-degree sum of its in-tails. Count
    # it edge by edge, redo the greedy split, and get the same blocks; the
    # last five nodes have no edges, and some receivers come twice.
    monkeypatch.setattr(counts_mod, "BLOCK_PAIRS", 30 + 10 * seed)
    monkeypatch.setattr(counts_mod, "BLOCK_CELLS", 16384 if seed < 2 else 600)
    rng = np.random.default_rng(seed)
    n, L = 30, 2 + seed % 2
    g = graph_from(random_edge_list(rng, n - 5, L, edge_prob=0.15), n, L)
    outdeg = np.zeros(n, dtype=np.int64)
    for s, _, _ in g.edges():
        outdeg[s] += 1
    pairs = np.zeros(n, dtype=np.int64)
    for s, d, _ in g.edges():
        pairs[d] += outdeg[s]
    receivers = np.concatenate((rng.integers(0, n, size=25), np.arange(n - 5, n), [3, 3]))
    per_block = max(1, counts_mod.BLOCK_CELLS // (n * L * L))
    expected, cur = [], []
    for r in sorted(set(receivers.tolist())):
        if cur and (pairs[cur].sum() + pairs[r] > counts_mod.BLOCK_PAIRS
                    or len(cur) == per_block):
            expected.append(cur)
            cur = []
        cur.append(r)
    expected.append(cur)
    blocks = receiver_blocks(g, rng.permutation(receivers))
    assert [b.tolist() for b in blocks] == expected
    assert all(b.dtype == np.int64 for b in blocks)
    assert len(expected) > 2 and not pairs[n - 5:].any()
    assert receiver_blocks(g, []) == []


# -- cluster-level values ---------------------------------------------------------

def test_single_node_mixed_labels():
    # One cluster-0 node points into cluster 1 with both labels:
    # the mixed-label entry counts that node once.
    g = SignedGraph.from_edges(3, [(0, 1, 0), (0, 2, 1)])
    cam = ClusterCounts.from_partition(g, Partition.from_assignment(g, [0, 1, 1], K=2)).count
    assert cam(0, 1, 0, 1, 1) == 1
    assert cam(0, 1, ANY, 1, ANY) == 1


def test_any_is_union_not_sum():
    g = SignedGraph.from_edges(3, [(0, 1, 0), (0, 2, 1)])
    cam = ClusterCounts.from_partition(g, Partition.from_assignment(g, [0, 1, 1], K=2)).count
    total = sum(cam(0, 1, l, 1, lp) for l in (0, 1) for lp in (0, 1))
    assert total == 4
    assert cam(0, 1, ANY, 1, ANY) == 1


def test_planted_purity():
    g, roles = generate_planted(30, 3, 0.3, 0.0, seed=5)
    cam = ClusterCounts.from_partition(g, Partition.from_assignment(g, roles, K=3)).count
    labels = {}
    for s, d, l in g.edges():
        labels[(int(roles[s]), int(roles[d]))] = l
    for (cs, cd), l in labels.items():
        tails = {int(s) for s, d, _ in g.edges()
                 if roles[s] == cs and roles[d] == cd}
        assert cam(cs, cd, l, cd, l) == len(tails)
        assert cam(cs, cd, 1 - l, cd, 1 - l) == 0


def test_empty_cluster_counts_zero():
    g = SignedGraph.from_edges(3, [(0, 1, 0), (1, 2, 1)])
    cam = ClusterCounts.from_partition(g, Partition.from_assignment(g, [0, 0, 0], K=2)).count
    for m in range(2):
        for nn in range(2):
            assert cam(1, m, ANY, nn, ANY) == 0


def test_cluster_table_matches_scan_and_oracle():
    for seed in range(4):
        g, edges, n, L = random_graph(seed, n=16, edge_prob=0.2)
        K = 3
        asg = [u % K for u in range(n)]
        part = Partition.from_assignment(g, asg, K)
        cc = ClusterCounts.from_partition(g, part)
        oracle = oracles.cam(edges, asg, n, K, L)
        for s in range(K):
            for m in range(K):
                for nn in range(K):
                    for l in (ANY, *range(L)):
                        for lp in (ANY, *range(L)):
                            got = cc.count(s, m, l, nn, lp)
                            la = None if l == ANY else l
                            lb = None if lp == ANY else lp
                            assert got == oracle(s, m, la, nn, lb)


@pytest.mark.parametrize("graph_of", [lambda: SignedGraph.from_edges(6, G1_EDGES),
                                      lambda: random_graph(0)[0],
                                      lambda: random_graph(5, n=25, n_labels=3)[0]],
                         ids=["g1", "random0", "random5"])
def test_identity_partition_cluster_table_sums_to_node_table(graph_of):
    # With one node per cluster a head's cluster is the head itself, so
    # summing the cluster table over the tail's cluster s gives the node
    # table, key for key, ANY keys included.
    g = graph_of()
    n = g.node_count
    cc = ClusterCounts.from_partition(g, Partition.from_assignment(g, np.arange(n), n))
    summed: dict = {}
    for (_, m, l, nn, lp), c in cc.table.items():
        summed[(m, l, nn, lp)] = summed.get((m, l, nn, lp), 0) + c
    table = build_precomputed_nam(g).table
    assert any(k[1] == ANY for k in table) and any(k[1] != ANY for k in table)
    assert summed == table


# -- snapshots ---------------------------------------------------------------------

def _snapshot_items(path, header, meta, fields):
    """Parse a snapshot export: check its two header lines, return its rows."""
    lines = path.read_text().splitlines()
    assert lines[:2] == [header, meta]
    rows = [tuple(int(v) for v in line.split()) for line in lines[2:]]
    assert all(len(r) == fields for r in rows)
    keys = [r[:-1] for r in rows]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    return {r[:-1]: r[-1] for r in rows}


def test_nam_snapshot_written(tmp_path, g1):
    pre = build_precomputed_nam(g1)
    p = tmp_path / "g1.nam"
    save_nam_snapshot(pre, p)
    items = _snapshot_items(p, "nam-snapshot v1", "nodes 6 labels 2", 5)
    assert items == pre.table


def test_nam_snapshot_rejects_on_demand(tmp_path, g1):
    with pytest.raises(ValueError):
        save_nam_snapshot(CooccurrenceCounts.on_demand(g1), tmp_path / "x.nam")


def test_cam_snapshot_written(tmp_path):
    g, roles = generate_planted(20, 2, 0.3, 0.0, seed=2)
    part = Partition.from_assignment(g, roles, K=2)
    cc = ClusterCounts.from_partition(g, part)
    p = tmp_path / "g.cam"
    save_cam_snapshot(cc, p)
    items = _snapshot_items(p, "cam-snapshot v1", "clusters 2 labels 2", 6)
    assert items == cc.table


# -- streaming batches ---------------------------------------------------------------

def _fresh_state(g, K=3, seed=0):
    rng = np.random.default_rng(seed)
    part = Partition.from_random(g, K, rng)
    return build_precomputed_nam(g), ClusterCounts.from_partition(g, part), part


def _assert_matches_rebuild(counts, cluster_counts, new_graph):
    part = cluster_counts.partition
    assert counts.graph is new_graph
    assert cluster_counts.graph is new_graph
    assert counts.table == build_precomputed_nam(new_graph).table
    assert cluster_counts.table == ClusterCounts.from_partition(new_graph, part).table
    part.verify_counts()


def test_batch_mixed_changes_match_rebuild(g1):
    counts, cc, part = _fresh_state(g1, K=2)
    ext = g1.external_of
    batch = [
        (ext(0), ext(1), 1),      # brand-new pair between existing nodes
        (ext(3), ext(1), 1),      # relabel: w1->j was +
        (ext(4), ext(1), 1),      # restatement: w2->j already -
        (ext(5), ext(5), 0),      # self-loop, dropped
        (ext(0), ext(2), 1),      # relabel i->x ...
        (ext(0), ext(2), 0),      # ... then back: within-batch last-wins
        ("n1", ext(2), 0),        # new node as source
        (ext(3), "n2", 1),        # new node as target
        ("n1", "n2", 0),          # edge among new nodes
    ]
    new_g, report = apply_edge_batch(counts, cc, g1, batch)
    assert report.self_loops_dropped == 1
    assert report.collapsed_in_batch == 1
    assert report.unchanged == 2          # w2->j restated, i->x restated after collapse
    assert report.relabeled == 1
    assert report.added == 4          # i->j, n1->x, w1->n2, n1->n2
    assert report.new_nodes == 2 and report.new_node_ids == ["n1", "n2"]
    assert new_g.node_of("n1") == 6 and new_g.node_of("n2") == 7
    assert part.assignment[6] in range(2) and part.assignment[7] in range(2)
    _assert_matches_rebuild(counts, cc, new_g)


def test_batch_random_splits_match_rebuild():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        g, edges, n, L = random_graph(seed, n=22, edge_prob=0.18)
        cut = int(len(edges) * 0.7)
        base = graph_from(edges[:cut], n, L)
        counts, cc, part = _fresh_state(base, K=3, seed=seed)
        batch = [(base.external_of(s), base.external_of(d), l)
                 for s, d, l in edges[cut:]]
        # Adversarial extras: relabel an existing edge and attach a new node.
        if edges[:cut]:
            s0, d0, l0 = edges[0]
            batch.append((base.external_of(s0), base.external_of(d0), (l0 + 1) % L))
        batch.append(("fresh", base.external_of(int(rng.integers(n))), 0))
        new_g, _ = apply_edge_batch(counts, cc, base, batch)
        _assert_matches_rebuild(counts, cc, new_g)


def test_batch_shares_or_extends_the_id_map(g1):
    counts, cc, _ = _fresh_state(g1, K=2)
    ext = g1.external_of
    same, report = apply_edge_batch(counts, cc, g1, [(ext(0), ext(1), 1)])
    assert report.new_nodes == 0 and same.external_ids is g1.external_ids
    # n1's pair comes again after n2's: n1 keeps the number of its first line.
    grown, _ = apply_edge_batch(counts, cc, same, [("n1", ext(2), 0), (ext(3), "n2", 1),
                                                   ("n1", ext(2), 1)])
    assert grown.external_ids == [ext(u) for u in range(6)] + ["n1", "n2"]
    assert grown.node_of("n1") == 6 and grown.node_of("n2") == 7
    assert grown.has_node(ext(5))
    for old in (g1, same):
        assert len(old.external_ids) == 6
        assert not old.has_node("n1") and not old.has_node("n2")
    _assert_matches_rebuild(counts, cc, grown)


def test_empty_batch_is_identity(g1):
    counts, cc, part = _fresh_state(g1, K=2)
    before_nam = dict(counts.table)
    before_cam = dict(cc.table)
    new_g, report = apply_edge_batch(counts, cc, g1, [])
    assert (report.added, report.relabeled, report.unchanged) == (0, 0, 0)
    assert new_g.edge_count == g1.edge_count
    assert counts.table == before_nam and cc.table == before_cam


def test_same_label_restatement_is_noop(g1):
    counts, cc, part = _fresh_state(g1, K=2)
    before = dict(counts.table)
    ext = g1.external_of
    new_g, report = apply_edge_batch(counts, cc, g1, [(ext(3), ext(1), 0)])
    assert report.unchanged == 1 and report.added == 0 and report.relabeled == 0
    assert counts.table == before
    assert new_g.edge_count == g1.edge_count


def test_batch_rejects_unknown_nodes_without_interning(g1):
    counts, cc, _ = _fresh_state(g1, K=2)
    with pytest.raises(ValueError, match="ghost"):
        apply_edge_batch(counts, cc, g1, [("ghost", g1.external_of(0), 0)],
                         auto_intern=False)
    # An unknown id seen only in a self-loop is dropped with it, not interned.
    for auto_intern in (False, True):
        new_g, report = apply_edge_batch(counts, cc, g1, [("ghost", "ghost", 0)],
                                         auto_intern=auto_intern)
        assert report.self_loops_dropped == 1 and report.new_nodes == 0
        assert not new_g.has_node("ghost") and new_g.node_count == 6
        g1 = new_g


def test_batch_rejects_label_out_of_range(g1):
    counts, cc, _ = _fresh_state(g1, K=2)
    with pytest.raises(ValueError, match="label"):
        apply_edge_batch(counts, cc, g1, [(g1.external_of(0), g1.external_of(1), 2)])


def test_batch_rejects_state_of_another_graph():
    # A partition of another planted graph of the same size: the batch is
    # refused before either table changes.
    g, roles = generate_planted(30, 3, 0.2, 0.1, seed=1)
    other, _ = generate_planted(30, 3, 0.2, 0.1, seed=2)
    counts = build_precomputed_nam(g)
    cc = ClusterCounts.from_partition(g, Partition.from_assignment(other, roles, K=3))
    before_nam, before_cam = dict(counts.table), dict(cc.table)
    ext = g.external_of
    batch = [(ext(u), ext(v), 1 - l) for u, v, l in g.edges()]
    with pytest.raises(ValueError, match="bound to graph"):
        apply_edge_batch(counts, cc, g, batch)
    assert counts.table == before_nam and cc.table == before_cam


def test_batch_on_corrupted_partition_changes_nothing():
    # The partition misses the pair count of an edge the batch relabels:
    # the batch is refused before either table or the partition changes.
    g, roles = generate_planted(30, 3, 0.2, 0.1, seed=0)
    part = Partition.from_assignment(g, roles, K=3)
    counts, cc = build_precomputed_nam(g), ClusterCounts.from_partition(g, part)
    u, v, l = next(g.edges())
    part.pair_counts[roles[u], roles[v], l] = 0
    before = (dict(counts.table), dict(cc.table), part.pair_counts.copy(),
              part.assignment.copy())
    with pytest.raises(ValueError,
                       match=rf"pair count for \({roles[u]}, {roles[v]}\) label {l} went negative"):
        apply_edge_batch(counts, cc, g, [(g.external_of(u), g.external_of(v), 1 - l)])
    assert counts.table == before[0] and cc.table == before[1]
    assert np.array_equal(part.pair_counts, before[2])
    assert np.array_equal(part.assignment, before[3])
    assert counts.graph is g and cc.graph is g and part.graph is g


@pytest.mark.parametrize("case", ["edgeless_base", "only_self_loops", "incidence_swap"])
def test_batch_edge_cases_match_rebuild(case):
    if case == "edgeless_base":
        g = SignedGraph.from_edges(4, [])
        batch = [("0", "1", 0), ("1", "2", 1), ("n1", "0", 1), ("3", "n1", 0)]
    elif case == "only_self_loops":
        g = SignedGraph.from_edges(6, G1_EDGES)
        batch = [("0", "0", 0), ("2", "2", 1), ("n1", "n1", 0)]
    else:
        # Tail 0's only (cluster 1, label 0) incidence becomes (cluster 1,
        # label 1): its incidence set loses one entry and gains another.
        g = SignedGraph.from_edges(4, [(0, 1, 0), (0, 2, 1), (3, 1, 0), (2, 3, 1)])
        batch = [("0", "1", 1)]
    K = 2 if case == "incidence_swap" else 3
    asg = [0, 1, 0, 1] if case == "incidence_swap" else [u % K for u in range(g.node_count)]
    part = Partition.from_assignment(g, asg, K)
    counts, cc = build_precomputed_nam(g), ClusterCounts.from_partition(g, part)
    new_g, report = apply_edge_batch(counts, cc, g, batch)
    _assert_matches_rebuild(counts, cc, new_g)
    if case == "only_self_loops":
        assert report.self_loops_dropped == 3 and report.new_nodes == 0
        assert np.array_equal(new_g.edge_arrays, g.edge_arrays)
    else:
        assert new_g.edge_count == g.edge_count + report.added


@pytest.mark.parametrize("L", [2, 3])
def test_spliced_graph_equals_a_fresh_build_after_every_batch(L):
    # Each batch splices into the old graph's sorted arrays; the result must
    # be the graph a from-scratch build gives, and the old graph must stay
    # as it was.
    rng = np.random.default_rng(70 + L)
    n = 24
    g = graph_from(random_edge_list(rng, n, L, edge_prob=0.12), n, L)
    part = Partition.from_random(g, 3, rng)
    counts, cc = CooccurrenceCounts.on_demand(g), ClusterCounts.from_partition(g, part)
    merged = {(g.external_of(s), g.external_of(d)): l for s, d, l in g.edges()}
    fresh, totals, new_ends = [0], np.zeros(5, dtype=np.int64), set()
    for step in range(45):
        batch = [] if step == 20 else random_batch(rng, g, L, fresh)
        digest, arrays = g.content_digest(), [a.copy() for a in g.csr()]
        new_g, report = apply_edge_batch(counts, cc, g, batch)
        assert g.content_digest() == digest
        assert all(np.array_equal(a, b) for a, b in zip(g.csr(), arrays))
        for s, d, l in batch:
            if s != d:
                merged[(s, d)] = l
                new_ends.update(k for k, tok in enumerate((s, d)) if not g.has_node(tok))
        edges = [(new_g.node_of(s), new_g.node_of(d), l) for (s, d), l in merged.items()]
        scratch = SignedGraph.from_edges(new_g.node_count, edges, new_g.alphabet,
                                         new_g.external_ids)
        for a, b in zip(new_g.edge_arrays + new_g.csr(), scratch.edge_arrays + scratch.csr()):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        new_g.validate()
        totals += (report.added, report.relabeled, report.unchanged,
                   report.self_loops_dropped, report.collapsed_in_batch)
        g = new_g
    assert (totals > 0).all() and new_ends == {0, 1}
    assert cc.table == ClusterCounts.from_partition(g, part).table


def test_batch_with_on_demand_counts_rebinds(g1):
    rng = np.random.default_rng(0)
    part = Partition.from_random(g1, 2, rng)
    counts = CooccurrenceCounts.on_demand(g1)
    cc = ClusterCounts.from_partition(g1, part)
    ext = g1.external_of
    new_g, _ = apply_edge_batch(counts, cc, g1, [(ext(0), ext(1), 0)])
    assert counts.graph is new_g
    edges = list(zip(*(a.tolist() for a in new_g.edge_arrays)))
    assert counts.count(1, 0, 2, 0) == oracles.nam(edges, new_g.node_count, 2)(1, 0, 2, 0)
    assert cc.table == ClusterCounts.from_partition(new_g, part).table
