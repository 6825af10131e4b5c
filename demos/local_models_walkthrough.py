"""Walk through the two local predictors on a six-node toy graph.

The graph has an initiator i, a receiver j, a shared target x, and three
witnesses w1..w3. Everyone who points at x does so positively; the
witnesses disagree about j. Predicting the label of the edge i -> j from
i's single context entry (x, +) exercises every moving part of the local
models: tail sets, co-pointing counts, the mixture estimate of LTLGM and
the naive-Bayes product of LCGM.
"""

import numpy as np

from linklabel import (
    ANY,
    CooccurrenceCounts,
    PredictionQuery,
    SignedGraph,
    SmoothingConfig,
    class_prior,
    context_of,
    decide,
    predict,
)

I, J, X, W1, W2, W3 = range(6)
NAMES = ["i", "j", "x", "w1", "w2", "w3"]

edges = [
    (I, X, 0),      # i likes x
    (W1, X, 0), (W1, J, 0),      # w1 likes both
    (W2, X, 0), (W2, J, 1),      # w2 likes x but dislikes j
    (W3, X, 0), (W3, J, 0),      # w3 likes both
]
graph = SignedGraph.from_edges(6, edges)
print(f"graph: {graph.node_count} nodes, {graph.edge_count} edges, "
      f"labels {list(graph.alphabet.names)}")

# The context of the query i -> j is i's other labeled out-edges.
query = PredictionQuery(I, J)
ctx = context_of(graph, query)
print("context of i -> j:",
      [(NAMES[h], graph.alphabet.names[l]) for h, l in ctx.entries()])

# Tail sets are the raw material: who points at a node, with which label.
for node in (J, X):
    for label in (0, 1):
        tails = sorted(NAMES[u] for u in graph.in_tails(node, label).tolist())
        print(f"  T({NAMES[node]}, {graph.alphabet.names[label]}) = {tails}")

# Co-pointing counts are the sizes of tail-set intersections, counted
# straight from the graph. The ANY sentinel pools labels.
counts = CooccurrenceCounts.on_demand(graph)
print("count(j, +, x, +) =", counts.count(J, 0, X, 0), " (w1 and w3)")
print("count(j, -, x, +) =", counts.count(J, 1, X, 0), " (w2 alone)")
print("count(j, ANY, x, +) =", counts.count(J, ANY, X, 0))

# LTLGM averages, per context entry, the label split of the co-pointers:
# here a single entry (x, +) giving [2/3, 1/3].
dist = predict("ltlgm", graph, query, counts=counts)
print("LTLGM p(+), p(-) =", np.round(dist.probs, 6))

# LCGM multiplies per-label generation probabilities instead. With the
# Laplace floor at 0 the same single entry yields a softer split, and with
# the floor at 1 the estimate shrinks toward uniform.
for alpha in (0.0, 1.0):
    cfg = SmoothingConfig(lcgm_floor_alpha=alpha)
    dist = predict("lcgm", graph, query, counts=counts, config=cfg)
    print(f"LCGM(alpha={alpha}) p(+), p(-) =", np.round(dist.probs, 6))

# decide() turns a distribution into a label, falling back to the class
# prior when a model has nothing to say (empty or unsupported context).
prior = class_prior(graph)
dist = predict("ltlgm", graph, query, counts=counts)
label, fell_back = decide(dist, prior)
print(f"decision for i -> j: {graph.alphabet.names[label]} "
      f"(fallback={fell_back})")

# The reverse query j -> i has no context at all: j has no other out-edges,
# so the model is undefined and the decision comes from the prior.
dist = predict("ltlgm", graph, PredictionQuery(J, I), counts=counts)
label, fell_back = decide(dist, prior)
print(f"decision for j -> i: {graph.alphabet.names[label]} "
      f"(fallback={fell_back}, prior={np.round(prior.probs, 4)})")
