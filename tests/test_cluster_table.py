"""The dense cluster table against the dict build it replaced.

``oracles.cam_table`` is that dict build: per tail, the ordered pairs of its
(cluster, label) and (cluster, ANY) incidences, keyed with the tail's
cluster in front, ANY = -1, zeros pruned. ``oracles.cam`` counts the same
keys by set intersection. The dense table, its mapping view and the read
that ``predict`` and ``predict_many`` share (``cluster_evidence``) must
equal both, after a build and after every batch of a stream.
"""

import gc
import weakref
from itertools import product

import numpy as np
import pytest

from linklabel import (ANY, ClusterCounts, Partition, apply_edge_batch, build_precomputed_nam,
                       generate_planted, save_cam_snapshot)
from linklabel.counts import MAX_CLUSTER_CELLS, cluster_evidence

from conftest import graph_from, random_batch, random_edge_list
import oracles


def _label(l):
    return None if l == ANY else l


def _assert_matches_oracles(cc, graph, asg, K, sample=None, rng=None):
    """The view equals the dict build; ``count`` equals set intersection on
    every key (or on ``sample`` random keys plus every nonzero one)."""
    edges, n, L = list(graph.edges()), graph.node_count, graph.alphabet.size
    table = oracles.cam_table(edges, asg, n)
    assert dict(cc.table) == table                 # keys, then one lookup per key
    assert dict(cc.table.items()) == table         # bulk decode
    assert len(cc.table) == len(table)
    count = oracles.cam(edges, asg, n, K, L)
    labels = (ANY, *range(L))
    keys = list(product(range(K), range(K), labels, range(K), labels))
    if sample is not None:
        picked = rng.choice(len(keys), size=sample, replace=False).tolist()
        keys = [keys[k] for k in picked] + list(table)
    for s, m, l, nn, lp in keys:
        assert cc.count(s, m, l, nn, lp) == count(s, m, _label(l), nn, _label(lp))


@pytest.mark.parametrize("K, n, L", [(1, 20, 2), (3, 25, 3), (30, 70, 2)])
def test_dense_build_equals_dict_oracle_and_cam(K, n, L):
    rng = np.random.default_rng(K)
    g = graph_from(random_edge_list(rng, n, L, edge_prob=0.15), n, L)
    asg = rng.integers(K, size=n)
    asg[:K] = np.arange(K)                           # no cluster empty
    asg[K:K + 3] = 0                                 # one larger cluster
    part = Partition.from_assignment(g, asg, K)
    cc = ClusterCounts.from_partition(g, part)
    assert cc.array.shape == (K, K, L + 1, K, L + 1)
    _assert_matches_oracles(cc, g, asg, K, sample=3000 if K == 30 else None, rng=rng)


def test_dense_build_on_the_identity_partition():
    rng = np.random.default_rng(7)
    n, L = 16, 3
    g = graph_from(random_edge_list(rng, n, L, edge_prob=0.25), n, L)
    cc = ClusterCounts.from_partition(g, Partition.from_assignment(g, np.arange(n), n))
    _assert_matches_oracles(cc, g, np.arange(n), n)


def test_empty_clusters_and_an_edgeless_graph():
    g = graph_from([(0, 1, 0), (0, 2, 1)], 4)
    cc = ClusterCounts.from_partition(g, Partition.from_assignment(g, [0, 2, 2, 2], K=4))
    _assert_matches_oracles(cc, g, [0, 2, 2, 2], 4)
    empty = graph_from([], 3)
    cc = ClusterCounts.from_partition(empty, Partition.from_assignment(empty, [0, 1, 1], K=2))
    assert len(cc.table) == 0 and not cc.array.any()


def _hub_items(rng, graph, L, hub):
    """Relabels and restatements of the hub's out-edges, and new ones."""
    ext, n = graph.external_ids, graph.node_count
    outs = [(d, l) for s, d, l in graph.edges() if s == hub]
    items = []
    for k in rng.choice(len(outs), size=min(4, len(outs)), replace=False).tolist():
        d, l = outs[k]
        items.append((ext[hub], ext[d], (l + 1) % L if rng.random() < 0.7 else l))
    have = {d for d, _ in outs}
    free = [d for d in range(n) if d != hub and d not in have]
    for d in rng.choice(free, size=min(2, len(free)), replace=False).tolist():
        items.append((ext[hub], ext[d], int(rng.integers(L))))
    return items


@pytest.mark.parametrize("L", [2, 3])
def test_stream_matches_dict_oracle_and_a_fresh_build_after_every_batch(L):
    # The oracle is streamed with the dict kernel the table replaced: per
    # tail whose out-edges changed, its incidence pairs move from the old
    # set to the new one, clusters taken from the final assignment.
    rng = np.random.default_rng(70 + L)
    n, hub = 30, 0
    edges = [e for e in random_edge_list(rng, n, L, edge_prob=0.1) if e[0] != hub]
    edges += [(hub, d, int(rng.integers(L))) for d in range(1, n) if rng.random() < 0.8]
    g = graph_from(edges, n, L)
    part = Partition.from_random(g, 4, rng)
    counts, cc = build_precomputed_nam(g), ClusterCounts.from_partition(g, part)
    streamed = oracles.cam_table(list(g.edges()), part.assignment, n)
    fresh, totals = [0], np.zeros(4, dtype=int)
    for b in range(40):
        batch = random_batch(rng, g, L, fresh)
        if b % 2 == 0:
            batch += _hub_items(rng, g, L, hub)
        old_outs = oracles.out_edges(list(g.edges()), g.node_count)
        g, report = apply_edge_batch(counts, cc, g, batch)
        totals += (report.relabeled, report.unchanged, report.self_loops_dropped,
                   report.new_nodes)
        asg, new_edges = part.assignment, list(g.edges())
        for u, outs in oracles.out_edges(new_edges, g.node_count).items():
            before = set(old_outs.get(u, []))
            if before != set(outs):
                oracles.move_incidences(streamed, oracles.incidence_set(before, asg),
                                        oracles.incidence_set(outs, asg), (int(asg[u]),))
        assert dict(cc.table) == streamed == oracles.cam_table(new_edges, asg, g.node_count)
        assert cc.table == ClusterCounts.from_partition(g, part).table
    assert all(totals > 0) and fresh[0] >= 3
    part.verify_counts()


def test_stream_delta_corner_cases():
    # A batch changes the table by D.T @ N + O.T @ D over its changed tails'
    # incidence rows, D = N - O. Each batch below makes one kind of D row.
    # A stream never deletes an edge, so a tail's ANY column can only flip on.
    edges = [(0, 2, 0), (0, 3, 1), (0, 7, 0), (1, 4, 0), (1, 2, 1), (3, 5, 0), (3, 0, 1),
             (4, 0, 1), (5, 3, 0), (6, 2, 0), (7, 4, 1), (2, 6, 0)]
    asg = np.array([0, 0, 1, 1, 2, 2, 0, 1])
    g = graph_from(edges, 8)
    part = Partition.from_assignment(g, asg, 3)
    counts, cc = build_precomputed_nam(g), ClusterCounts.from_partition(g, part)
    # Each batch with the cell it must move: (s, m, l, n, lp) and by how much.
    batches = [
        ([("0", "2", 1)], None, 0),   # tail 0 keeps both labels into cluster 1 (3, 7): D = 0
        ([("1", "4", 1)], (0, 2, 0, 2, 0), -1),     # tail 1 loses its last label-0 edge into 2
        ([("1", "6", 0)], (0, 0, ANY, 0, ANY), 1),  # its first edge into 0: ANY flips on
        ([("z", "0", 0), ("z", "4", 1), ("5", "z", 1)], None, 0),   # a new node as a tail
        ([("3", "1", 0), ("3", "5", 1)], (1, 0, 0, 2, 1), 1),       # tail 3 gains and loses
    ]
    for k, (batch, key, change) in enumerate(batches):
        before = cc.array.copy()
        was = cc.count(*key) if key else 0
        g, _ = apply_edge_batch(counts, cc, g, batch)
        assert np.array_equal(cc.array, before) == (k == 0)
        if key:
            assert cc.count(*key) == was + change
        assert cc.table == ClusterCounts.from_partition(g, part).table
        assert dict(cc.table) == oracles.cam_table(list(g.edges()), part.assignment,
                                                   g.node_count)


# -- the shared read path and the view --------------------------------------------------

@pytest.fixture
def planted():
    g, roles = generate_planted(60, 4, 0.15, 0.2, seed=4)
    part = Partition.from_assignment(g, roles, 4)
    return g, roles, ClusterCounts.from_partition(g, part)


def test_cluster_evidence_equals_count_key_by_key(planted):
    g, _, cc = planted
    K, L = cc.array.shape[0], g.alphabet.size
    rng = np.random.default_rng(0)
    s, m, nn = (rng.integers(K, size=300) for _ in range(3))
    l = rng.integers(L, size=300)
    # Per-entry clusters as predict_many passes them; one query's, as predict does.
    for ss, n_ in ((s, nn), (s[0], nn[0])):
        per_label, any_label, by_any = cluster_evidence(cc, ss, m, l, n_)
        assert per_label.shape == (300, L) and any_label.shape == (300,)
        ss, n_ = np.broadcast_to(ss, 300).tolist(), np.broadcast_to(n_, 300).tolist()
        for e, (se, me, le, ne) in enumerate(zip(ss, m.tolist(), l.tolist(), n_)):
            assert any_label[e] == cc.count(se, me, le, ne, ANY)
            for lp in range(L):
                assert per_label[e, lp] == cc.count(se, me, le, ne, lp)
                assert by_any[e, lp] == cc.count(se, me, ANY, ne, lp)
    none = cluster_evidence(cc, 0, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 0)
    assert [a.shape for a in none] == [(0, L), (0,), (0, L)]


def test_out_of_range_and_non_integer_keys(planted):
    g, _, cc = planted
    K, L = cc.array.shape[0], g.alphabet.size
    s, m, l, nn, lp = next(k for k in cc.table if k[0] >= 1 and k[2] >= 0 and k[4] >= 0)
    assert cc.count(s, m, l, nn, lp) > 0
    # Without the range check numpy's negative indices would read these
    # keys at the cell of (s, m, l, nn, lp).
    aliases = [(s - K, m, l, nn, lp), (s, m - K, l, nn, lp), (s, m, l - L - 1, nn, lp),
               (s, m, l, nn - K, lp), (s, m, l, nn, lp - L - 1)]
    others = [(K, 0, 0, 0, 0), (0, K, 0, 0, 0), (0, 0, L, 0, 0), (0, 0, -2, 0, 0),
              (0, 0, 0, K, 0), (0, 0, 0, 0, L), (0, 0, 0, 0, -2), (K, 0, ANY, K, ANY)]
    for key in aliases + others:
        assert cc.count(*key) == 0
        assert key not in cc.table and cc.table.get(key) is None
    with pytest.raises(TypeError):
        cc.count(s + 0.0, m, l, nn, lp)
    for bad in ("x", 3, (1, 2), (0, 0, 0, 0, "a"), (s + 0.0, m, l, nn, lp), (s, m, l, nn, lp, 0)):
        assert bad not in cc.table


def test_view_iterates_in_sorted_key_order_and_the_snapshot_is_unchanged(planted, tmp_path):
    g, roles, cc = planted
    keys = list(cc.table)
    assert keys == sorted(keys) and any(k[2] == ANY for k in keys)
    assert list(cc.table.items()) == sorted(oracles.cam_table(list(g.edges()), roles,
                                                              g.node_count).items())
    p = tmp_path / "g.cam"
    save_cam_snapshot(cc, p)
    want = "".join(["cam-snapshot v1\n", "clusters 4 labels 2\n"] +
                   [f"{s} {m} {l} {n} {lp} {c}\n" for (s, m, l, n, lp), c in cc.table.items()])
    assert p.read_bytes() == want.encode()


def test_views_compare_as_mappings(planted):
    g, roles, cc = planted
    same = ClusterCounts.from_partition(g, Partition.from_assignment(g, roles, 4))
    assert cc.table == same.table and cc.table == dict(same.table)
    other = ClusterCounts.from_partition(g, Partition.from_assignment(g, roles, 5))
    assert cc.table == other.table                   # cluster 4 is empty: same nonzero cells
    moved = roles.copy()
    moved[0] = (moved[0] + 1) % 4
    moved = ClusterCounts.from_partition(g, Partition.from_assignment(g, moved, 4))
    assert cc.table != moved.table


# -- lifetime and size ---------------------------------------------------------------------

def test_dropping_the_counts_frees_their_graph():
    # Neither table view may point back at its counts object: with the
    # cyclic collector off, a reference cycle would keep the graph alive.
    gc.collect()
    gc.disable()
    try:
        g, roles = generate_planted(40, 3, 0.2, 0.1, seed=0)
        part = Partition.from_assignment(g, roles, 3)
        counts, cc = build_precomputed_nam(g), ClusterCounts.from_partition(g, part)
        assert len(counts.table) and len(cc.table) and dict(cc.table) and dict(counts.table)
        alive = weakref.ref(g)
        ext = g.external_ids
        g2, _ = apply_edge_batch(counts, cc, g, [(ext[0], ext[1], 1), ("new", ext[2], 0)])
        del g
        assert alive() is None                       # the batch rebound both tables
        alive = weakref.ref(g2)
        del g2, part, counts, cc
        assert alive() is None
    finally:
        gc.enable()


def test_a_table_past_the_cell_limit_is_refused():
    g = graph_from([(0, 1, 0), (1, 2, 1)], 3)
    part = Partition.from_assignment(g, [0, 1, 2], K=200)
    assert 200 ** 3 * 9 > MAX_CLUSTER_CELLS
    with pytest.raises(ValueError, match="K = 200"):
        ClusterCounts.from_partition(g, part)
