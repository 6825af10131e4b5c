"""Entropy objective, move deltas, the sweep search, and partition I/O."""

import numpy as np
import pytest

from linklabel import (
    ClusterConfig,
    Partition,
    SignedGraph,
    boltzmann_pick,
    cluster,
    delta_objective,
    generate_planted,
    gibbs_sweep,
    objective,
    read_partition,
    write_partition,
)

from conftest import random_graph
import oracles


def _mixed_pair_graph():
    """Two clusters, a single inter-cluster pair carrying 3 '+' and 1 '-'."""
    edges = [(0, 2, 0), (0, 3, 0), (1, 2, 0), (1, 3, 1)]
    g = SignedGraph.from_edges(4, edges)
    part = Partition.from_assignment(g, [0, 0, 1, 1], K=2)
    return g, part


# -- objective --------------------------------------------------------------------

def test_mixed_pair_entropy_value():
    _, part = _mixed_pair_graph()
    assert part.objective() == pytest.approx(3.245112498, abs=1e-6)


def test_planted_truth_is_zero():
    g, roles = generate_planted(60, 3, 0.2, 0.0, seed=11)
    part = Partition.from_assignment(g, roles, K=3)
    assert part.objective() == 0.0


def test_single_cluster_balanced_labels():
    edges = [(0, 1, 0), (1, 2, 0), (2, 3, 1), (3, 0, 1)]
    g = SignedGraph.from_edges(4, edges)
    part = Partition.from_assignment(g, [0, 0, 0, 0], K=1)
    assert part.objective() == pytest.approx(4.0)


def test_objective_matches_oracle():
    for seed in range(5):
        g, edges, n, L = random_graph(seed, n=20, edge_prob=0.2, n_labels=3)
        rng = np.random.default_rng(seed)
        asg = rng.integers(0, 4, size=n)
        part = Partition.from_assignment(g, asg, K=4)
        want = oracles.entropy_objective(edges, asg.tolist(), L)
        assert part.objective() == pytest.approx(want, abs=1e-9)
        assert objective(part) == part.objective()


def test_objective_is_order_free():
    # Same partition content, different construction order: identical phi.
    g, edges, n, _ = random_graph(7, n=20, edge_prob=0.2)
    asg = np.arange(n) % 3
    a = Partition.from_assignment(g, asg, K=3).objective()
    perm_edges = list(reversed(edges))
    g2 = SignedGraph.from_edges(n, perm_edges)
    b = Partition.from_assignment(g2, asg, K=3).objective()
    assert a == b


# -- move deltas --------------------------------------------------------------------

def test_delta_same_cluster_is_zero():
    _, part = _mixed_pair_graph()
    assert delta_objective(part, 0, 0) == 0.0


def test_delta_isolated_node_is_zero():
    g = SignedGraph.from_edges(3, [(0, 1, 0)])
    part = Partition.from_assignment(g, [0, 1, 0], K=2)
    assert delta_objective(part, 2, 1) == 0.0
    assert part.candidate_deltas(2).tolist() == [0.0, 0.0]


def test_delta_rejects_bad_target():
    _, part = _mixed_pair_graph()
    with pytest.raises(ValueError):
        delta_objective(part, 0, 5)


def test_delta_matches_recompute():
    rng = np.random.default_rng(42)
    for seed in range(4):
        g, _, n, _ = random_graph(seed, n=18, edge_prob=0.2)
        K = 4
        part = Partition.from_random(g, K, np.random.default_rng(seed))
        for _ in range(120):
            v = int(rng.integers(n))
            to = int(rng.integers(K))
            before = part.objective()
            d = delta_objective(part, v, to)
            moved = Partition.from_assignment(
                g, np.where(np.arange(n) == v, to, part.assignment), K)
            assert d == pytest.approx(moved.objective() - before, abs=1e-9)
            # Keep walking so later deltas start from varied states.
            part.apply_move(v, to)
            assert part.objective() == pytest.approx(moved.objective(), abs=1e-9)
        part.verify_counts()


def test_candidate_deltas_agree_with_delta_objective():
    g, _, n, _ = random_graph(9, n=15, edge_prob=0.25)
    part = Partition.from_random(g, 3, np.random.default_rng(0))
    for v in range(n):
        cand = part.candidate_deltas(v)
        for to in range(3):
            assert cand[to] == delta_objective(part, v, to)


# -- sampling -----------------------------------------------------------------------

def test_boltzmann_low_temperature_is_argmin():
    rng = np.random.default_rng(0)
    deltas = np.array([0.0, 5.0, 9.0])
    picks = {boltzmann_pick(deltas, 1e-6, rng) for _ in range(1000)}
    assert picks == {0}


def test_boltzmann_high_temperature_spreads():
    rng = np.random.default_rng(0)
    deltas = np.array([0.0, 0.5])
    picks = [boltzmann_pick(deltas, 1e6, rng) for _ in range(2000)]
    share = sum(picks) / len(picks)
    assert 0.4 < share < 0.6


# -- sweeps and search ----------------------------------------------------------------

def test_greedy_sweep_never_increases_phi():
    g, _, _, _ = random_graph(3, n=30, edge_prob=0.15)
    part = Partition.from_random(g, 4, np.random.default_rng(1))
    cfg = ClusterConfig(K=4)
    rng = np.random.default_rng(2)
    prev = part.objective()
    for _ in range(6):
        gibbs_sweep(g, part, cfg, rng)
        cur = part.objective()
        assert cur <= prev + 1e-9
        prev = cur


def test_greedy_fixed_point_reports_no_moves():
    g, _, _, _ = random_graph(4, n=25, edge_prob=0.15)
    part, trace = cluster(g, ClusterConfig(K=3, restarts=1, max_sweeps=50))
    assert trace[-1][2] == 0                      # converged on a moveless sweep
    extra = gibbs_sweep(g, part, ClusterConfig(K=3), np.random.default_rng(99))
    assert extra == 0


def test_single_cluster_is_fixed():
    g, _, _, _ = random_graph(5, n=12, edge_prob=0.2)
    part, trace = cluster(g, ClusterConfig(K=1, restarts=1))
    assert len(trace) == 2 and trace[1][2] == 0
    assert np.all(part.assignment == 0)


def test_planted_recovery_reaches_zero():
    g, _ = generate_planted(90, 3, 0.2, 0.0, seed=7)
    part, trace = cluster(g, ClusterConfig(K=3, restarts=3, max_sweeps=20, seed=0))
    assert part.objective() == 0.0
    phis = [p for _, p, _ in trace]
    assert all(b <= a + 1e-9 for a, b in zip(phis, phis[1:]))


def test_cluster_deterministic():
    g, _ = generate_planted(50, 3, 0.2, 0.1, seed=3)
    cfg = ClusterConfig(K=3, restarts=2, seed=5)
    p1, t1 = cluster(g, cfg)
    p2, t2 = cluster(g, cfg)
    assert np.array_equal(p1.assignment, p2.assignment)
    assert t1 == t2


def test_random_scan_deterministic():
    g, _ = generate_planted(40, 2, 0.2, 0.1, seed=3)
    cfg = ClusterConfig(K=2, scan="random", restarts=1, seed=8)
    p1, t1 = cluster(g, cfg)
    p2, t2 = cluster(g, cfg)
    assert np.array_equal(p1.assignment, p2.assignment) and t1 == t2


def test_boltzmann_mode_runs_and_is_deterministic():
    g, _ = generate_planted(30, 2, 0.2, 0.1, seed=3)
    cfg = ClusterConfig(K=2, greedy=False, temperature=0.5, restarts=1, seed=2)
    p1, t1 = cluster(g, cfg)
    p2, t2 = cluster(g, cfg)
    assert np.array_equal(p1.assignment, p2.assignment) and t1 == t2


def test_more_restarts_never_worse():
    g, _ = generate_planted(60, 3, 0.15, 0.2, seed=9)
    phi1 = cluster(g, ClusterConfig(K=3, restarts=1, seed=4))[0].objective()
    phi3 = cluster(g, ClusterConfig(K=3, restarts=3, seed=4))[0].objective()
    assert phi3 <= phi1 + 1e-9


def test_restarts_share_one_neighbour_index():
    g, _ = generate_planted(60, 3, 0.15, 0.2, seed=9)
    reads = []
    csr = g.csr
    g.csr = lambda: reads.append(1) or csr()    # the index build is the run's one reader
    part, _ = cluster(g, ClusterConfig(K=3, restarts=3, seed=4))
    assert len(reads) == 1
    del g.csr
    assert part.objective() == cluster(g, ClusterConfig(K=3, restarts=3, seed=4))[0].objective()
    part.verify_counts()


def test_trace_final_matches_partition():
    g, _ = generate_planted(40, 2, 0.2, 0.3, seed=6)
    part, trace = cluster(g, ClusterConfig(K=2, restarts=2, seed=1))
    assert trace[0][0] == 0
    assert trace[-1][1] == pytest.approx(part.objective(), abs=1e-9)


def test_early_stop_cuts_sweeps():
    g, _ = generate_planted(40, 2, 0.2, 0.3, seed=6)
    cfg = ClusterConfig(K=2, restarts=1, max_sweeps=20, early_stop_rel_tol=1e9)
    _, trace = cluster(g, cfg)
    assert len(trace) == 2        # any change passes a huge relative tolerance


def test_config_validation_errors():
    g, _, _, _ = random_graph(0, n=5, edge_prob=0.3)
    for bad in (
        ClusterConfig(K=0),
        ClusterConfig(K=9),                              # > node count
        ClusterConfig(K=2, max_sweeps=0),
        ClusterConfig(K=2, scan="spiral"),
        ClusterConfig(K=2, greedy=False, temperature=0.0),
        ClusterConfig(K=2, restarts=0),
        ClusterConfig(K=2, early_stop_rel_tol=-1.0),
    ):
        with pytest.raises(ValueError):
            cluster(g, bad)


# -- partition I/O ---------------------------------------------------------------------

def test_partition_roundtrip(tmp_path):
    g, roles = generate_planted(25, 3, 0.2, 0.0, seed=2)
    part = Partition.from_assignment(g, roles, K=3)
    p = tmp_path / "part.txt"
    write_partition(part, g, p)
    back = read_partition(p, g)
    assert back.K == 3
    assert np.array_equal(back.assignment, part.assignment)
    assert back.objective() == part.objective()


def test_partition_read_requires_full_coverage(tmp_path):
    g = SignedGraph.from_edges(3, [(0, 1, 0), (1, 2, 0)])
    p = tmp_path / "part.txt"
    p.write_text("# clusters 2\n0 0\n1 1\n")
    with pytest.raises(ValueError, match="no cluster assignment"):
        read_partition(p, g)


@pytest.mark.parametrize("text, lineno, message", [
    ("0 0\nghost 1\n", 2, "node 'ghost' is not in the graph"),
    ("0 0\n1 -1\n", 2, "cluster id -1 is negative"),
    ("# clusters 2\n0 zero\n", 2, "cluster id 'zero' is not an integer"),
    ("0 0\n1 1\n0 1\n", 3, "node '0' is listed twice"),
    ("# clusters two\n0 0\n1 1\n", 1, "cluster count 'two' is not an integer"),
    ("# clusters 2\n0 0\n1 5\n", 3, "cluster id 5 is not below K = 2"),
    ("0 0\n\n1 1 1\n", 3, "expected 'node cluster'"),
])
def test_partition_read_rejects_bad_lines(tmp_path, text, lineno, message):
    g = SignedGraph.from_edges(2, [(0, 1, 0)])
    p = tmp_path / "part.txt"
    p.write_text(text)
    with pytest.raises(ValueError) as err:
        read_partition(p, g)
    assert str(err.value) == f"{p}:{lineno}: {message}"


def test_partition_k_from_argument_overrides(tmp_path):
    g = SignedGraph.from_edges(2, [(0, 1, 0)])
    p = tmp_path / "part.txt"
    p.write_text("0 0\n1 0\n")
    assert read_partition(p, g).K == 1
    assert read_partition(p, g, K=4).K == 4


def test_partition_id_above_k_argument_names_line(tmp_path):
    g = SignedGraph.from_edges(2, [(0, 1, 0)])
    p = tmp_path / "part.txt"
    p.write_text("# clusters 4\n0 0\n1 3\n")
    assert read_partition(p, g).K == 4
    with pytest.raises(ValueError) as err:
        read_partition(p, g, K=2)
    assert str(err.value) == f"{p}:3: cluster id 3 is not below K = 2"


def test_partition_rejects_unassigned_export(tmp_path):
    g = SignedGraph.from_edges(2, [(0, 1, 0)])
    part = Partition.from_assignment(g, [0, 0], K=1)
    part.extend(0)      # no new nodes: still fine
    write_partition(part, g, tmp_path / "ok.txt")
    part.assignment[1] = -1
    with pytest.raises(ValueError, match="unassigned"):
        write_partition(part, g, tmp_path / "bad.txt")


def test_partition_rejects_bad_arguments():
    g = SignedGraph.from_edges(3, [(0, 1, 0), (1, 2, 1)])
    for asg, K, message in (([0, 0, 0], 0, "K must be >= 1"),
                            ([0, 0], 2, "assignment length does not match node count"),
                            ([0, 2, 0], 2, "cluster id out of range"),
                            ([0, -1, 0], 2, "cluster id out of range")):
        with pytest.raises(ValueError, match=message):
            Partition(g, asg, K)
    part = Partition(g, [0, 1, 0], 2)
    before = [a.tobytes() for a in (part.pair_counts, part.pair_weights, part.sizes,
                                    part.assignment)]
    with pytest.raises(ValueError, match="target cluster out of range"):
        part.apply_move(0, part.K)
    with pytest.raises(ValueError, match="n_new must be >= 0"):
        part.extend(-1)
    assert [a.tobytes() for a in (part.pair_counts, part.pair_weights, part.sizes,
                                  part.assignment)] == before
    part.extend(1)
    with pytest.raises(AssertionError, match="unassigned"):
        part.verify_counts()
    with pytest.raises(ValueError, match="node 0 is already assigned"):
        part.assign_new(0, 1)
    for cluster_id in (-1, part.K):
        with pytest.raises(ValueError, match="cluster out of range"):
            part.assign_new(3, cluster_id)
    assert part.assignment.tolist() == [0, 1, 0, -1] and part.sizes.tolist() == [2, 1]


def test_verify_counts_detects_corruption():
    g, _, _, _ = random_graph(1, n=10, edge_prob=0.3)
    part = Partition.from_random(g, 2, np.random.default_rng(0))
    part.verify_counts()
    part.add_edge_count(0, 0, 0, 1)       # inject a phantom edge
    with pytest.raises(AssertionError):
        part.verify_counts()
