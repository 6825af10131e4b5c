"""The precomputed node-level store against the dict table it replaced.

``oracles.nam_table`` is the dict build the store replaced: all four key
families, ANY = -1, zeros pruned. The store holds concrete keys only and
derives the ANY families by summing over labels. Its mapping view, its
counts and every ``predict`` answer read through it must equal the oracle
and on-demand counting exactly, after a build and after every batch of a
stream.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from linklabel import (ANY, MODEL_KINDS, ClusterCounts, CooccurrenceCounts, Partition,
                       PredictionQuery, SmoothingConfig, apply_edge_batch,
                       build_precomputed_nam, generate_planted, predict, predict_many)

from linklabel import counts as counts_module
from linklabel.counts import NodeCountStore
from linklabel.predictors import LOCAL_KINDS

from conftest import graph_from, random_batch, random_edge_list
import oracles


def _oracle(graph):
    return oracles.nam_table(list(graph.edges()), graph.node_count)


def _any_keys(table):
    return {k for k in table if ANY in (k[1], k[3])}


def _stored(table):
    """The (key, count) items a store holds: concrete keys with (m, l) <= (x, lx),
    one per unordered pair, sorted."""
    return sorted((k, v) for k, v in table.items()
                  if ANY not in (k[1], k[3]) and k[:2] <= k[2:])


def _assert_table_is(counts, oracle):
    view = counts.table
    assert dict(view) == oracle                  # keys, then one lookup per key
    assert dict(view.items()) == oracle          # bulk decode
    assert len(view) == len(oracle)
    assert _any_keys(view) == _any_keys(oracle)
    assert sorted(view.items()) == sorted(oracle.items())


@pytest.mark.parametrize("L", [2, 3])
def test_build_matches_dict_oracle(L):
    for seed in range(4):
        rng = np.random.default_rng(seed)
        n = 25
        g = graph_from(random_edge_list(rng, n, L, edge_prob=0.2), n, L)
        counts = build_precomputed_nam(g)
        oracle = _oracle(g)
        _assert_table_is(counts, oracle)
        assert counts.store.codes.size == len(_stored(oracle))
        assert counts.store.pending_codes.size == 0


def _pair_code_cases():
    cases = [graph_from(random_edge_list(np.random.default_rng(seed), 12, L, 0.25), 12, L)
             for L in (2, 3) for seed in range(3)]
    return cases + [graph_from([], 5, 2),                                   # edgeless
                    graph_from([(0, 1, 0), (1, 0, 1), (0, 2, 1)], 7, 3),    # isolated 3..6
                    graph_from([], 1, 3)]                                   # one node


@pytest.mark.parametrize("g", _pair_code_cases(),
                         ids=[f"random{i}" for i in range(6)] + ["edgeless", "isolated", "one"])
def test_store_and_block_tables_equal_the_pair_code_reference(g):
    n, L = g.node_count, g.alphabet.size
    counts, on_demand = build_precomputed_nam(g), CooccurrenceCounts.on_demand(g)
    codes, vals = np.unique(np.array(oracles.pair_codes(list(g.edges()), n, L, upper=True),
                                     dtype=np.int64), return_counts=True)
    assert np.array_equal(counts.store.codes, codes)
    assert np.array_equal(counts.store.vals, vals)
    codes, vals = np.unique(np.array(oracles.pair_codes(list(g.edges()), n, L), dtype=np.int64),
                            return_counts=True)
    ml, xlx = np.divmod(codes, counts.store.R * L)
    dense = np.zeros((n, L, n, L), dtype=np.int64)
    dense[ml // L, ml % L, xlx // L, xlx % L] = vals
    for j in range(n):
        assert np.array_equal(counts_module.block_table(g, np.array([j]))[0], dense[j])
    assert np.array_equal(counts_module.block_table(g, np.arange(n)), dense)
    if not g.edge_count:
        keys = [(m, l, x, lx) for m in range(n) for x in range(n)
                for l in range(ANY, L) for lx in range(ANY, L)]
        assert all(c.count(*k) == 0 for c in (counts, on_demand) for k in keys)
        assert len(counts.table) == 0
    part = Partition.from_assignment(g, np.arange(n) % 2, 2)
    cc = ClusterCounts.from_partition(g, part)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    args = dict(cluster_counts=cc, partition=part)
    for kind in [k for k in MODEL_KINDS if k != "prior"]:      # the prior reads no counts
        probs, defined = predict_many(kind, g, i, j, counts=counts, **args)
        want, want_defined = predict_many(kind, g, i, j, counts=on_demand, **args)
        assert probs.tobytes() == want.tobytes()
        assert np.array_equal(defined, want_defined)


@pytest.mark.parametrize("L", [2, 3])
def test_stream_matches_dict_oracle_after_every_batch(L):
    rng = np.random.default_rng(40 + L)
    n = 20
    g = graph_from(random_edge_list(rng, n, L, edge_prob=0.12), n, L)
    part = Partition.from_random(g, 3, rng)
    counts, cc = build_precomputed_nam(g), ClusterCounts.from_partition(g, part)
    merged = {(g.external_of(s), g.external_of(d)): l for s, d, l in g.edges()}
    fresh, pending_reads = [0], 0
    for _ in range(40):
        batch = random_batch(rng, g, L, fresh)
        g, _ = apply_edge_batch(counts, cc, g, batch)
        for s, d, l in batch:
            if s != d:
                merged[(s, d)] = l
        edges = [(g.node_of(s), g.node_of(d), l) for (s, d), l in merged.items()]
        assert sorted(edges) == list(g.edges())
        oracle = oracles.nam_table(edges, g.node_count)
        _assert_table_is(counts, oracle)
        for _ in range(50):
            key = (int(rng.integers(g.node_count)), int(rng.integers(-1, L)),
                   int(rng.integers(g.node_count)), int(rng.integers(-1, L)))
            assert counts.count(*key) == oracle.get(key, 0)
        pending_reads += counts.store.pending_codes.size > 0
    assert fresh[0] >= 3
    assert counts.store.merges >= 1 and pending_reads >= 1
    assert counts.table == build_precomputed_nam(g).table


def test_stream_across_the_code_radix(monkeypatch):
    # The node radix is fixed by the alphabet, so batches that bring an
    # 8-node store past 8, 16 and 32 nodes change its main run's counts in
    # place and never re-encode its codes.
    monkeypatch.setattr(counts_module, "MERGE_FRACTION", 1e9)     # no merge replaces a run
    rng = np.random.default_rng(9)
    n, L = 8, 2
    g = graph_from(random_edge_list(rng, n, L, edge_prob=0.4), n, L)
    part = Partition.from_random(g, 3, rng)
    counts, cc = build_precomputed_nam(g), ClusterCounts.from_partition(g, part)
    store = counts.store
    assert store.R == (1 << 31) // (L + 1)
    for grow in (1, 0, 6, 1, 3, 2):
        ext, before = g.external_ids, store.codes
        edges = list(g.edges())
        s, d, l = edges[int(rng.integers(len(edges)))]
        batch = [(ext[s], ext[d], 1 - l)]                               # a relabel
        batch += [(ext[u], ext[v], int(rng.integers(L)))
                  for u, v in rng.choice(len(ext), size=(3, 2), replace=False).tolist()]
        for k in range(grow):
            tok = f"x{len(ext) + k}"
            u, v = rng.choice(len(ext), size=2, replace=False).tolist()
            batch += [(tok, ext[u], 0), (ext[v], tok, 1), (tok, ext[v], 1)]
        g, report = apply_edge_batch(counts, cc, g, batch)
        assert report.new_nodes == grow and store.codes is before
        oracle = _oracle(g)
        _assert_table_is(counts, oracle)
        concrete = _stored(oracle)
        codes, vals = store.nonzero()
        keys = np.array([k for k, _ in concrete], dtype=np.int64).reshape(-1, 4).T
        assert np.array_equal(codes, store.encode(*keys))
        assert vals.tolist() == [v for _, v in concrete]
    assert g.node_count == 21


def test_store_past_its_node_limit_raises_and_changes_nothing(monkeypatch):
    # With a node radix of 8 a store holds at most 8 nodes: a build on 9
    # nodes raises, and so does a batch that brings 8 nodes to 9, before it
    # writes to the store, the partition, the cluster table or the graph.
    monkeypatch.setattr(counts_module, "_node_radix", lambda L: 8)
    monkeypatch.setattr(counts_module, "MERGE_FRACTION", 1e9)     # keep a pending run
    rng = np.random.default_rng(17)
    L = 2
    with pytest.raises(ValueError, match="9 nodes; a node store holds at most 8"):
        build_precomputed_nam(graph_from(random_edge_list(rng, 9, L, 0.3), 9, L))
    g = graph_from(random_edge_list(rng, 8, L, 0.3), 8, L)
    part = Partition.from_random(g, 3, rng)
    counts, cc = build_precomputed_nam(g), ClusterCounts.from_partition(g, part)
    ext = g.external_ids
    g, _ = apply_edge_batch(counts, cc, g, [(ext[u], ext[v], 0) for u in range(8)
                                            for v in range(8) if u != v][:20])
    store = counts.store
    assert store.pending_codes.size > 0 and g.node_count == 8
    runs = [a.copy() for a in (store.codes, store.vals, store.pending_codes, store.pending_vals)]
    state = [part.assignment.copy(), part.pair_counts.copy(), cc.array.copy()]
    edges = list(g.edges())
    s, d, l = edges[0]
    batch = [(ext[s], ext[d], 1 - l), (ext[1], ext[0], 1), ("x8", ext[2], 0)]
    with pytest.raises(ValueError, match="9 nodes; a node store holds at most 8"):
        apply_edge_batch(counts, cc, g, batch)
    now = (store.codes, store.vals, store.pending_codes, store.pending_vals)
    assert all(np.array_equal(a, b) for a, b in zip(now, runs))
    now = (part.assignment, part.pair_counts, cc.array)
    assert all(np.array_equal(a, b) for a, b in zip(now, state))
    assert counts.graph is g and cc.graph is g and part.graph is g
    assert g.node_count == 8 and list(g.edges()) == edges
    part.verify_counts()


def test_views_iterate_in_sorted_key_order(monkeypatch):
    # The snapshot export writes the views' items as they come: both views
    # must yield them in sorted key order, also while the store holds a
    # pending run.
    monkeypatch.setattr(counts_module, "MERGE_FRACTION", 1e9)
    for L in (2, 3):
        rng = np.random.default_rng(30 + L)
        g = graph_from(random_edge_list(rng, 15, L, 0.2), 15, L)
        part = Partition.from_random(g, 3, rng)
        counts, cc = build_precomputed_nam(g), ClusterCounts.from_partition(g, part)
        fresh = [0]
        for step in range(4):
            if step:                                    # after the build, then per batch
                g, _ = apply_edge_batch(counts, cc, g, random_batch(rng, g, L, fresh))
            for view in (counts.table, cc.table):
                items = list(view.items())
                assert items and items == sorted(items)
        assert counts.store.pending_codes.size > 0


def test_forced_merges_equal_the_dict_build(monkeypatch):
    # With MERGE_FRACTION 0 every batch that adds a key merges the runs: the
    # main run must then hold exactly the dict build's concrete entries.
    monkeypatch.setattr(counts_module, "MERGE_FRACTION", 0.0)
    rng = np.random.default_rng(7)
    n, L = 22, 2
    g = graph_from(random_edge_list(rng, n, L, edge_prob=0.15), n, L)
    part = Partition.from_random(g, 3, rng)
    counts, cc = build_precomputed_nam(g), ClusterCounts.from_partition(g, part)
    store, fresh = counts.store, [0]
    for _ in range(30):
        merges = store.merges
        g, _ = apply_edge_batch(counts, cc, g, random_batch(rng, g, L, fresh))
        want = _stored(_oracle(g))
        codes = store.encode(*np.array([k for k, _ in want], dtype=np.int64).reshape(-1, 4).T)
        vals = np.array([v for _, v in want], dtype=np.int64)
        for c, v in (store.nonzero(), (store.codes[store.vals != 0], store.vals[store.vals != 0])):
            assert np.array_equal(c, codes) and np.array_equal(v, vals)
        assert store.pending_codes.size == 0
        if store.merges > merges:
            assert np.array_equal(store.codes, codes) and np.array_equal(store.vals, vals)
    assert store.merges >= 10


def _assert_canonical(store):
    for run in (store.codes, store.pending_codes):
        a, b = np.divmod(run, store.R * store.L)         # in-rows m * L + l, x * L + lx
        assert (a <= b).all()


@pytest.mark.parametrize("fraction", [0.0, 1e9], ids=["merge_always", "merge_never"])
def test_every_stored_code_is_canonical(monkeypatch, fraction):
    # The store keeps each unordered pair once, under the code with a <= b:
    # after a build and after every batch of a stream that adds nodes,
    # whether each batch merges its runs or none does. Every batch
    # also gives one tail several new edges while relabeling one of its
    # edges, so its delta holds pairs of two changed edges.
    monkeypatch.setattr(counts_module, "MERGE_FRACTION", fraction)
    rng = np.random.default_rng(13)
    n, L = 7, 2
    g = graph_from(random_edge_list(rng, n, L, edge_prob=0.4), n, L)
    part = Partition.from_random(g, 3, rng)
    counts, cc = build_precomputed_nam(g), ClusterCounts.from_partition(g, part)
    store, fresh = counts.store, [0]
    _assert_canonical(store)
    for _ in range(25):
        ext, edges = g.external_ids, g.edge_map()
        u, v = next((s, d) for s, d in edges if len(g.out_arrays(s)[0]) < g.node_count - 3)
        batch = random_batch(rng, g, L, fresh) + [(ext[u], ext[v], 1 - edges[(u, v)])]
        batch += [(ext[u], ext[x], int(rng.integers(L))) for x in range(g.node_count)
                  if x != u and (u, x) not in edges][:3]
        g, _ = apply_edge_batch(counts, cc, g, batch)
        _assert_canonical(store)
        want = build_precomputed_nam(g).store
        assert all(np.array_equal(a, b) for a, b in zip(store.nonzero(), (want.codes, want.vals)))
    assert store.merges >= 20 if fraction == 0.0 else store.merges == 0


@pytest.mark.parametrize("L", [2, 3])
def test_counts_are_symmetric_and_equal_on_demand(L):
    # count(m, l, x, lx) = count(x, lx, m, l) for every key, ANY labels and
    # the diagonal m = x included, read from the store and counted on demand.
    rng = np.random.default_rng(20 + L)
    n = 9
    g = graph_from(random_edge_list(rng, n, L, edge_prob=0.35), n, L)
    counts, on_demand = build_precomputed_nam(g), CooccurrenceCounts.on_demand(g)
    oracle, labels, seen = _oracle(g), range(ANY, L), 0
    for m, l, x, lx in itertools.product(range(n), labels, range(n), labels):
        c = counts.count(m, l, x, lx)
        assert c == counts.count(x, lx, m, l) == on_demand.count(m, l, x, lx)
        assert c == on_demand.count(x, lx, m, l) == oracle.get((m, l, x, lx), 0)
        seen += c > 0 and m == x
    assert seen > 0


def test_merge_drops_zeros_of_both_runs(monkeypatch):
    # Zeros stay in place until a merge, which drops those of both runs.
    monkeypatch.setattr(counts_module, "MERGE_FRACTION", 1.0)
    store = NodeCountStore(2, np.array([1, 3, 5, 7]), np.array([2, 0, 1, 4]))
    store.add(np.array([2, 6]), np.array([3, 0]))          # pending run [2, 6]
    assert store.merges == 0 and store.pending_codes.tolist() == [2, 6]
    assert [a.tolist() for a in store.nonzero()] == [[1, 2, 5, 7], [2, 3, 1, 4]]
    assert store.codes.tolist() == [1, 3, 5, 7]              # a read changes nothing
    monkeypatch.setattr(counts_module, "MERGE_FRACTION", 0.0)
    store.add(np.array([0, 5]), np.array([6, -1]))
    assert store.merges == 1 and store.pending_codes.size == 0
    assert store.codes.tolist() == [0, 1, 2, 7] and store.vals.tolist() == [6, 2, 3, 4]


@pytest.mark.parametrize("build", [build_precomputed_nam, CooccurrenceCounts.on_demand],
                         ids=["store", "on_demand"])
def test_out_of_range_keys_read_zero(build):
    g, _ = generate_planted(40, 3, 0.3, 0.1, seed=3)
    counts = build(g)
    N, L = g.node_count, g.alphabet.size
    m, l, x, lp = next(k for k in build_precomputed_nam(g).table
                       if k[0] >= 1 and k[1] == 1 and k[2] >= 1 and k[3] == 1)
    assert counts.count(m, l, x, lp) > 0
    # Without the range check each of these would read the count of (m, l, x, lp).
    aliases = [(m - 1, l + L, x, lp), (m, l - 1, x + N, lp), (m, l, x - 1, lp + L)]
    others = [(N, 0, 0, 0), (-1, 0, 0, 0), (0, 0, -1, 0), (0, L, 0, 0),
              (0, -2, 0, 0), (0, 0, N, 0), (0, 0, 0, L), (N, ANY, N, ANY)]
    for key in aliases + others:
        assert counts.count(*key) == 0
        if counts.table is not None:
            assert key not in counts.table and counts.table.get(key) is None
    with pytest.raises(TypeError):
        counts.count(m + 0.0, l, x, lp)
    for bad in ("x", (1, 2), (0, 0, 0, "a"), (m + 0.5, l, x, lp)):
        assert counts.table is None or bad not in counts.table


def test_hub_tail_batch_matches_dict_oracle():
    # A stream batch changes only the pairs through its changed edges: on a
    # tail with out-degree ~150, relabels, new edges and a new node's edges
    # land in one batch and must leave the rebuilt table.
    rng = np.random.default_rng(11)
    n, L = 160, 3
    edges = random_edge_list(rng, n, L, edge_prob=0.03)
    edges = [e for e in edges if e[0] != 0]
    edges += [(0, d, int(rng.integers(L))) for d in range(1, n) if rng.random() < 0.95]
    g = graph_from(edges, n, L)
    part = Partition.from_random(g, 4, rng)
    counts, cc = build_precomputed_nam(g), ClusterCounts.from_partition(g, part)
    ext = g.external_ids
    hub = [(d, l) for s, d, l in g.edges() if s == 0]
    batch = [(ext[0], ext[d], (l + 1) % L) for d, l in hub[:12]]
    batch += [(ext[0], ext[d], 0) for d in range(1, n) if (0, d) not in g.edge_map()]
    batch += [(ext[0], "hubnew", 1), ("hubnew", ext[0], 2), ("hubnew", ext[5], 0)]
    g, report = apply_edge_batch(counts, cc, g, batch)
    assert report.relabeled == 12 and report.new_nodes == 1
    _assert_table_is(counts, _oracle(g))
    assert counts.table == build_precomputed_nam(g).table


def test_store_holds_at_most_16_bytes_per_entry():
    # A per-entry Python table would cost ~150 bytes per entry.
    g, _ = generate_planted(300, 3, 0.1, 0.1, seed=0)
    tracemalloc.start()
    try:
        counts = build_precomputed_nam(g)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The store keeps each unordered pair once: (ordered + diagonal) / 2 entries.
    dense = counts_module.block_table(g, np.arange(g.node_count))
    ordered = np.count_nonzero(dense)
    diagonal = np.count_nonzero(np.einsum("ilil->il", dense))
    entries = counts.store.nonzero()[0].size
    assert ordered > 100_000
    assert 2 * entries == ordered + diagonal
    assert counts.store.nbytes <= 16 * entries
    assert held <= 16 * entries + 65_536


def _same_answer(a, b):
    assert a.defined == b.defined
    if a.defined:
        assert a.probs.tobytes() == b.probs.tobytes()
    assert a.support == b.support


@pytest.mark.parametrize("config", [SmoothingConfig(mu=2.0),
                                    SmoothingConfig(mu=1.5, lambda_mode="paper",
                                                    lcgm_floor_alpha=0.0)],
                         ids=["support", "paper"])
def test_predict_from_store_equals_on_demand(config):
    for seed, L in ((0, 2), (1, 3)):
        rng = np.random.default_rng(seed)
        n = 24
        edges = random_edge_list(rng, n, L, edge_prob=0.22)
        cut = int(len(edges) * 0.7)
        g = graph_from(edges[:cut], n, L)
        part = Partition.from_random(g, 3, rng)
        streamed, cc = build_precomputed_nam(g), ClusterCounts.from_partition(g, part)
        ext = g.external_ids
        batch = [(ext[s], ext[d], l) for s, d, l in edges[cut:]]
        batch += [("new", ext[0], 0), (ext[1], "new", L - 1)]
        g, _ = apply_edge_batch(streamed, cc, g, batch)
        stores = (build_precomputed_nam(g), streamed)
        on_demand = CooccurrenceCounts.on_demand(g)
        pairs = [(i, j) for i in range(g.node_count) for j in range(g.node_count) if i != j]
        for k in rng.choice(len(pairs), size=80, replace=False).tolist():
            q = PredictionQuery(*pairs[k])
            for kind in MODEL_KINDS:
                want = predict(kind, g, q, counts=on_demand, cluster_counts=cc,
                               partition=part, config=config, collect_support=True)
                for counts in stores:
                    _same_answer(predict(kind, g, q, counts=counts, cluster_counts=cc,
                                         partition=part, config=config,
                                         collect_support=True), want)


@pytest.mark.parametrize("lambda_mode", ["support", "paper"])
def test_predict_many_reads_a_stream_updated_store(monkeypatch, lambda_mode):
    # After a batch of relabels and new nodes, predict_many given the store
    # reads it, building no block table, and answers every query as predict
    # does with the store and with on-demand counts, and as predict_many does
    # without counts, bit for bit.
    def no_table(graph, block):
        raise AssertionError("a block table was built")

    config = SmoothingConfig(mu=1.5, lambda_mode=lambda_mode, lcgm_floor_alpha=0.5)
    for seed, L in ((5, 2), (6, 3)):
        rng = np.random.default_rng(seed)
        n = 24
        g = graph_from(random_edge_list(rng, n, L, edge_prob=0.22), n, L)
        part = Partition.from_random(g, 3, rng)
        store, cc = build_precomputed_nam(g), ClusterCounts.from_partition(g, part)
        ext = g.external_ids
        batch = [(ext[s], ext[d], (l + 1) % L) for s, d, l in list(g.edges())[::4]]
        batch += [("new", ext[0], 0), (ext[1], "new", L - 1), ("newer", "new", 1),
                  (ext[2], "newer", 0)]
        g, report = apply_edge_batch(store, cc, g, batch)
        assert report.relabeled > 10 and report.new_nodes == 2
        on_demand = CooccurrenceCounts.on_demand(g)
        i, j = np.nonzero(~np.eye(g.node_count, dtype=bool))
        args = dict(cluster_counts=cc, partition=part, config=config)
        for kind in MODEL_KINDS:
            with monkeypatch.context() as m:
                m.setattr(counts_module, "block_table", no_table)
                probs, defined = predict_many(kind, g, i, j, counts=store, **args)
            want, want_defined = predict_many(kind, g, i, j, **args)
            assert probs.tobytes() == want.tobytes()
            assert np.array_equal(defined, want_defined)
            assert defined.any()
            sample = rng.choice(i.size, size=120, replace=False).tolist()
            for q in sample + [i.size - 1, i.size - 2]:        # the last two: from "newer"
                query = PredictionQuery(int(i[q]), int(j[q]))
                for counts in (store, on_demand):
                    got = predict(kind, g, query, counts=counts, **args)
                    assert got.defined == defined[q]
                    if got.defined:
                        assert got.probs.tobytes() == probs[q].tobytes()


def test_store_blocks_are_sized_by_context_entries(monkeypatch):
    # With a store no block table is built, so its cell cap does not cut the
    # receivers: one store lookup serves the queries of many receivers, and
    # the answers equal predict's bit for bit.
    g, _ = generate_planted(60, 3, 0.2, 0.1, seed=8)
    n, L = g.node_count, g.alphabet.size
    store = build_precomputed_nam(g)
    part = Partition.from_random(g, 3, np.random.default_rng(8))
    args = dict(cluster_counts=ClusterCounts.from_partition(g, part), partition=part)
    monkeypatch.setattr(counts_module, "BLOCK_CELLS", n * L * L)    # one receiver per table
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    gets = []
    get = NodeCountStore.get
    monkeypatch.setattr(NodeCountStore, "get", lambda self, codes: gets.append(1) or get(self, codes))
    for kind in LOCAL_KINDS:            # the kinds that read node-level counts
        gets.clear()
        probs, defined = predict_many(kind, g, i, j, counts=store, **args)
        entries = int(np.diff(g.csr()[0])[i].sum())
        assert len(gets) <= 2 * entries / counts_module.BLOCK_ENTRIES + 1 < n / 4
        for q in range(0, i.size, 7):
            got = predict(kind, g, PredictionQuery(int(i[q]), int(j[q])), counts=store, **args)
            assert got.defined == defined[q]
            if got.defined:
                assert got.probs.tobytes() == probs[q].tobytes()
