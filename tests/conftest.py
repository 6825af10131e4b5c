"""Shared fixtures: the worked-example graph and random-graph helpers."""

import numpy as np
import pytest

from linklabel import SignedGraph

# Hand-checkable six-node graph used throughout the unit tests. Node roles:
# 0 = initiator, 1 = receiver, 2 = shared target, 3..5 = witnesses.
# Labels: 0 = "+", 1 = "-".
I, J, X, W1, W2, W3 = range(6)
G1_EDGES = [
    (I, X, 0),
    (W1, X, 0),
    (W1, J, 0),
    (W2, X, 0),
    (W2, J, 1),
    (W3, X, 0),
    (W3, J, 0),
]


@pytest.fixture
def g1() -> SignedGraph:
    return SignedGraph.from_edges(6, G1_EDGES)


def random_edge_list(rng: np.random.Generator, n: int, n_labels: int,
                     edge_prob: float) -> list:
    """Random simple directed labeled edges as (src, dst, label) triples."""
    edges = []
    for s in range(n):
        for d in range(n):
            if s != d and rng.random() < edge_prob:
                edges.append((s, d, int(rng.integers(n_labels))))
    return edges


def graph_from(edges, n: int, n_labels: int = 2) -> SignedGraph:
    from linklabel.graph import LabelAlphabet

    if n_labels == 2:
        return SignedGraph.from_edges(n, edges)
    alphabet = LabelAlphabet([str(i) for i in range(n_labels)])
    return SignedGraph.from_edges(n, edges, alphabet=alphabet)


def random_graph(seed: int, n: int = 20, n_labels: int = 2,
                 edge_prob: float = 0.15):
    """(graph, edges, n, n_labels) with edges matching the graph exactly."""
    rng = np.random.default_rng(seed)
    edges = random_edge_list(rng, n, n_labels, edge_prob)
    g = graph_from(edges, n, n_labels)
    return g, edges, n, n_labels


def random_batch(rng, graph, L, fresh):
    """Random stream items over ``graph``: new pairs, relabels, restatements,
    self-loops, new nodes (also wired to each other) and in-batch duplicates."""
    ext, n = graph.external_ids, graph.node_count
    edges = list(graph.edges())
    batch = []
    for _ in range(int(rng.integers(4, 14))):
        r = rng.random()
        lab = int(rng.integers(L))
        if r < 0.08:
            tok = f"new{fresh[0]}"
            fresh[0] += 1
            for v in rng.choice(n, size=3, replace=False).tolist():
                batch.append((tok, ext[v], lab) if rng.random() < 0.5 else (ext[v], tok, lab))
            if fresh[0] > 1 and rng.random() < 0.5:
                batch.append((tok, f"new{fresh[0] - 2}", lab))
        elif r < 0.3 and edges:
            s, d, l = edges[int(rng.integers(len(edges)))]
            batch.append((ext[s], ext[d], (l + 1 + int(rng.integers(L - 1))) % L))
        elif r < 0.4 and edges:
            s, d, l = edges[int(rng.integers(len(edges)))]
            batch.append((ext[s], ext[d], l))
        elif r < 0.45:
            u = ext[int(rng.integers(n))]
            batch.append((u, u, lab))
        else:
            u, v = rng.choice(n, size=2, replace=False).tolist()
            batch.append((ext[u], ext[v], lab))
    if rng.random() < 0.5:
        s, d, _ = batch[int(rng.integers(len(batch)))]
        batch.append((s, d, int(rng.integers(L))))
    return batch


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance checklist after the run summary, uncaptured."""
    import sys

    module = sys.modules.get("test_acceptance")
    results = getattr(module, "RESULTS", None) if module else None
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance checklist")
    for num in sorted(results):
        status, detail = results[num]
        terminalreporter.write_line(f"ACCEPTANCE {num:>2}: {status}  {detail}")
