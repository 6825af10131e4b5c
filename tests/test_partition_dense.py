"""The dense partition state gives the dict-based state's floats bit for bit.

``tests/dict_partition.py`` keeps the per-pair dict implementation the dense
``Partition`` replaced. Move deltas, objectives, new-node placements, whole
clustering runs and streamed batches must agree with it exactly: a delta one
ulp off can flip an argmin and change every partition downstream.
"""

import math

import numpy as np
import pytest

import linklabel.clustering as clustering
from linklabel import (ClusterConfig, ClusterCounts, Partition, apply_edge_batch,
                       build_precomputed_nam, cluster, delta_objective, generate_planted)

from conftest import graph_from, random_edge_list
from dict_partition import DictPartition, pair_entropy_weight


def _criterion_7_graphs():
    rng = np.random.default_rng(7)
    for n, L in ((30, 2), (45, 3), (60, 2)):
        yield graph_from(random_edge_list(rng, n, L, edge_prob=0.12), n, L)


def _walk_graphs():
    for g in _criterion_7_graphs():
        yield g, 4, 400
    yield generate_planted(300, 5, 0.25, 0.1, seed=0)[0], 5, 300
    yield generate_planted(240, 10, 0.12, 0.1, seed=1)[0], 30, 120


def _assert_same_state(dense, ref):
    assert np.array_equal(dense.pair_counts, ref.dense_counts())
    assert np.array_equal(dense.assignment, ref.assignment)
    assert np.array_equal(dense.sizes, ref.sizes)
    assert dense.objective() == ref.objective()


@pytest.mark.parametrize("case", range(5))
def test_walk_matches_dict_partition(case):
    g, K, steps = list(_walk_graphs())[case]
    rng = np.random.default_rng(100 + case)
    asg = rng.integers(0, K, size=g.node_count)
    dense, ref = Partition(g, asg, K), DictPartition(g, asg, K)
    for step in range(steps):
        v = int(rng.integers(g.node_count))
        got, want = dense.candidate_deltas(v), ref.candidate_deltas(v)
        assert np.array_equal(got, want), (case, step, v)
        for to in rng.choice(K, size=min(K, 3), replace=False).tolist():
            assert delta_objective(dense, v, to) == ref.delta_objective(v, to)
        # Mostly greedy, sometimes random, so the walk visits varied states.
        to = int(np.argmin(got)) if rng.random() < 0.75 else int(rng.integers(K))
        dense.apply_move(v, to)
        ref.apply_move(v, to)
        assert dense.objective() == ref.objective()
    _assert_same_state(dense, ref)
    dense.verify_counts()


@pytest.mark.parametrize("greedy,scan", [(False, "deterministic"), (False, "random"),
                                         (True, "random")])
def test_cluster_matches_dict_partition(monkeypatch, greedy, scan):
    g, _ = generate_planted(90, 3, 0.2, 0.1, seed=4)
    cfg = ClusterConfig(K=4, max_sweeps=6, restarts=2, seed=5, greedy=greedy, scan=scan,
                        temperature=0.5)
    part, trace = cluster(g, cfg)
    monkeypatch.setattr(clustering, "Partition", DictPartition)
    ref_part, ref_trace = cluster(g, cfg)
    assert isinstance(ref_part, DictPartition)
    assert trace == ref_trace
    assert np.array_equal(part.assignment, ref_part.assignment)


def test_placement_deltas_match_dict_partition():
    rng = np.random.default_rng(3)
    g, _ = generate_planted(60, 4, 0.15, 0.1, seed=2)
    for K in (1, 3, 7):
        asg = rng.integers(0, K, size=g.node_count)
        dense, ref = Partition(g, asg, K), DictPartition(g, asg, K)
        for trial in range(30):
            node = g.node_count       # a new node, not yet counted
            others = rng.choice(g.node_count, size=int(rng.integers(1, 9)), replace=False)
            edges = []
            for o in others.tolist():
                lab = int(rng.integers(2))
                edges.append((node, o, lab) if rng.random() < 0.5 else (o, node, lab))
                if rng.random() < 0.3:      # both directions to the same node
                    edges.append((o, node, 1 - lab) if edges[-1][0] == node
                                 else (node, o, 1 - lab))
            dense.extend(1)
            ref.extend(1)
            got = dense.placement_deltas(node, edges)
            assert np.array_equal(got, ref.placement_deltas(node, edges)), (K, trial)
            dense.assignment = dense.assignment[:-1]
            ref.assignment = ref.assignment[:-1]


def _recording(part):
    calls = []
    inner = part.placement_deltas

    def record(node, edges):
        deltas = inner(node, edges)
        calls.append((node, list(edges), deltas))
        return deltas

    part.placement_deltas = record
    return calls


def test_batch_with_new_nodes_matches_dict_partition():
    g, _ = generate_planted(80, 4, 0.12, 0.1, seed=6)
    rng = np.random.default_rng(8)
    asg = rng.integers(0, 4, size=g.node_count)
    ext = g.external_of
    batch = []
    for i in range(6):                        # new nodes, wired to old ones and each other
        for o in rng.choice(g.node_count, size=5, replace=False).tolist():
            lab = int(rng.integers(2))
            batch.append((f"new{i}", ext(o), lab) if rng.random() < 0.5
                         else (ext(o), f"new{i}", lab))
        if i:
            batch.append((f"new{i}", f"new{i - 1}", 0))
    batch += [(ext(0), ext(1), 1), (ext(2), ext(3), 0)]
    results = []
    for cls in (Partition, DictPartition):
        part = cls(g, asg, 4)
        calls = _recording(part)
        cc = ClusterCounts.from_partition(g, part)
        new_g, report = apply_edge_batch(build_precomputed_nam(g), cc, g, batch)
        results.append((part, calls, cc, new_g))
    (dense, d_calls, d_cc, new_g), (ref, r_calls, r_cc, _) = results
    assert len(d_calls) == 6
    for (n1, e1, d1), (n2, e2, d2) in zip(d_calls, r_calls):
        assert n1 == n2 and e1 == e2 and np.array_equal(d1, d2)
    _assert_same_state(dense, ref)
    assert d_cc.table == r_cc.table
    dense.verify_counts()
    assert dense.graph is new_g


def test_new_node_whose_only_batch_edge_goes_to_a_later_new_node_joins_the_largest_cluster():
    # When "a" is placed, its one edge leads to "b", not yet placed: no edge
    # scores a cluster, so "a" joins the largest one, the lower id on a tie.
    g, _ = generate_planted(40, 3, 0.2, 0.1, seed=6)
    asg = np.repeat([0, 1, 2], [10, 15, 15])
    part = Partition(g, asg, 3)
    counts, cc = build_precomputed_nam(g), ClusterCounts.from_partition(g, part)
    new_g, report = apply_edge_batch(counts, cc, g, [("a", "b", 0), ("b", g.external_of(0), 1)])
    assert report.new_node_ids == ["a", "b"]
    assert part.assignment[new_g.node_of("a")] == 1
    part.verify_counts()
    assert counts.table == build_precomputed_nam(new_g).table
    assert cc.table == ClusterCounts.from_partition(new_g, part).table


def test_add_edge_count_is_all_or_nothing():
    g, _ = generate_planted(40, 3, 0.2, 0.1, seed=1)
    part = Partition.from_random(g, 3, np.random.default_rng(0))
    counts, weights, phi = part.pair_counts.copy(), part.pair_weights.copy(), part.objective()
    with pytest.raises(ValueError, match="went negative"):
        part.add_edge_count(1, 2, 0, -int(counts[1, 2, 0]) - 1)
    with pytest.raises(ValueError, match="out of range"):
        part.add_edge_count(-1, 0, 0, 1)
    with pytest.raises(ValueError, match="out of range"):
        part.add_edge_count(0, 3, 0, 1)
    assert np.array_equal(part.pair_counts, counts)
    assert np.array_equal(part.pair_weights, weights)
    assert part.objective() == phi
    part.verify_counts()


def test_add_edge_counts_equals_sequential_calls_and_a_rebuild():
    # One batched shift gives the bytes of one add_edge_count per entry and
    # of a fresh Partition on the edited graph: 40 edges relabeled (old
    # label retracted, new one added) and 30 new edges.
    g, _ = generate_planted(120, 4, 0.1, 0.1, seed=3)
    rng = np.random.default_rng(5)
    src, dst, lbl = g.edge_arrays
    present, new = set(g.edge_map()), []
    while len(new) < 30:
        u, v = rng.integers(0, g.node_count, size=2).tolist()
        if u != v and (u, v) not in present:
            present.add((u, v))
            new.append((u, v, int(rng.integers(2))))
    nu, nv, nl = np.array(new).T
    pick = rng.choice(g.edge_count, size=40, replace=False)
    relabeled = lbl.copy()
    relabeled[pick] = 1 - lbl[pick]
    edited = graph_from(list(zip(np.concatenate((src, nu)).tolist(),
                                 np.concatenate((dst, nv)).tolist(),
                                 np.concatenate((relabeled, nl)).tolist())), g.node_count)
    u = np.concatenate((src[pick], src[pick], nu))
    v = np.concatenate((dst[pick], dst[pick], nv))
    lab = np.concatenate((lbl[pick], 1 - lbl[pick], nl))
    delta = np.repeat([-1, 1, 1], [40, 40, 30])
    for K in (3, 30):
        asg = rng.integers(0, K, size=g.node_count)
        c, d = asg[u], asg[v]
        seq, shifted = Partition(g, asg, K), Partition(g, asg, K)
        for args in zip(c.tolist(), d.tolist(), lab.tolist(), delta.tolist()):
            seq.add_edge_count(*args)
        shifted.add_edge_counts(c, d, lab, delta)
        rebuilt = Partition(edited, asg, K)
        for ref in (seq, rebuilt):
            assert shifted.pair_counts.tobytes() == ref.pair_counts.tobytes()
            assert shifted.pair_weights.tobytes() == ref.pair_weights.tobytes()
            assert shifted.objective() == ref.objective()
        with pytest.raises(ValueError, match="went negative"):
            shifted.add_edge_counts(c[:1], d[:1], lab[:1], [-g.edge_count])
        with pytest.raises(ValueError, match="out of range"):
            shifted.add_edge_counts([K], [0], [0], [1])
        assert shifted.pair_counts.tobytes() == seq.pair_counts.tobytes()
        assert shifted.pair_weights.tobytes() == seq.pair_weights.tobytes()


def test_pair_weight_uses_math_log2():
    # 7957 * np.log2(7957) is one ulp off 7957 * math.log2(7957); the
    # weights must use the latter.
    edges = [(s, 90 + d, 0) for s in range(90) for d in range(90)]
    edges = [(s, d, int(i >= 7957)) for i, (s, d, _) in enumerate(edges)]
    g = graph_from(edges, 180)
    dense = Partition(g, [0] * 90 + [1] * 90, 2)
    assert dense.pair_counts[0, 1].tolist() == [7957, 143]
    assert dense.pair_weights[0, 1] == pair_entropy_weight([7957, 143])
    assert dense.objective() == DictPartition(g, dense.assignment, 2).objective()


def test_xlog2x_table_matches_the_scalar_loop_across_growth(monkeypatch):
    monkeypatch.setattr(clustering, "_XLOG2X", np.zeros(1))
    first = clustering._xlog2x(10)            # the minimum table
    grown = clustering._xlog2x(first.size)    # one entry past it: doubled
    assert (first.size, grown.size) == (1024, 2048)
    loop = np.array([0.0] + [c * math.log2(c) for c in range(1, grown.size)])
    assert grown.tobytes() == loop.tobytes()
    assert first.tobytes() == loop[:first.size].tobytes()


def _move_both(dense, ref, v, to):
    dense.apply_move(v, to)
    ref.apply_move(v, to)
    _assert_same_state(dense, ref)
    assert dense.pair_weights.tobytes() == Partition(dense.graph, dense.assignment,
                                                     dense.K).pair_weights.tobytes()


def test_apply_move_alone_and_after_another_nodes_move():
    g, _ = generate_planted(120, 4, 0.1, 0.1, seed=9)
    rng = np.random.default_rng(11)
    for K in (1, 3, 30):
        asg = rng.integers(0, K, size=g.node_count)
        dense, ref = Partition(g, asg, K), DictPartition(g, asg, K)
        for step in range(60):
            # No visit before the move; every other step a visit of v that
            # another node's move makes stale before v itself moves.
            v, u = rng.choice(g.node_count, size=2, replace=False).tolist()
            if step % 2:
                dense.candidate_deltas(v)
                _move_both(dense, ref, u, int(rng.integers(K)))
            _move_both(dense, ref, v, int(rng.integers(K)))
        dense.verify_counts()


def test_apply_move_to_its_own_cluster_visits_nothing(monkeypatch):
    g, _ = generate_planted(60, 3, 0.2, 0.1, seed=5)
    part = Partition(g, np.arange(g.node_count) % 3, 3)

    def state():
        return [a.tobytes() for a in (part.pair_counts, part.pair_weights, part.sizes,
                                      part.assignment)]

    before = state()

    def visit(node):
        raise AssertionError(f"node {node} visited")

    monkeypatch.setattr(part, "_visit", visit)
    for v in range(g.node_count):
        part.apply_move(v, int(part.assignment[v]))
    assert state() == before


def test_apply_move_after_a_streamed_batch():
    # The batch shifts pair counts, extends the assignment, places new
    # nodes and swaps in a spliced graph; a move made afterwards must read
    # the new graph's edges, not the neighbours indexed before the batch.
    g, _ = generate_planted(80, 4, 0.12, 0.1, seed=12)
    rng = np.random.default_rng(13)
    asg = rng.integers(0, 4, size=g.node_count)
    ext = g.external_of
    batch = [(f"new{i}", ext(o), int(rng.integers(2))) for i in range(3)
             for o in rng.choice(g.node_count, size=4, replace=False).tolist()]
    batch += [(ext(o), "new0", 1) for o in (5, 6, 7)]
    src, dst, lbl = g.edge_arrays
    batch += [(ext(s), ext(d), 1 - l) for s, d, l in
              zip(src[:10].tolist(), dst[:10].tolist(), lbl[:10].tolist())]
    parts = []
    for cls in (Partition, DictPartition):
        part = cls(g, asg, 4)
        part.apply_move(0, (int(asg[0]) + 1) % 4)
        apply_edge_batch(build_precomputed_nam(g), ClusterCounts.from_partition(g, part),
                         g, batch)
        parts.append(part)
    dense, ref = parts
    n = dense.graph.node_count
    assert n == g.node_count + 3
    for v in [0, int(src[0]), n - 3, n - 2, n - 1] + rng.integers(0, n, size=20).tolist():
        _move_both(dense, ref, v, int(rng.integers(4)))
    dense.verify_counts()


def test_greedy_cluster_at_k3_on_a_sparse_graph_matches_dict_partition(monkeypatch):
    g, _ = generate_planted(300, 3, 0.01, 0.1, seed=1)
    cfg = ClusterConfig(K=3, max_sweeps=8, restarts=2, seed=3)
    part, trace = cluster(g, cfg)
    part.verify_counts()
    monkeypatch.setattr(clustering, "Partition", DictPartition)
    ref_part, ref_trace = cluster(g, cfg)
    assert trace == ref_trace
    assert sum(moves for _, _, moves in trace) > 0
    assert np.array_equal(part.assignment, ref_part.assignment)
