"""The dict-based partition state the dense ``Partition`` replaced, as the test reference.

``linklabel.Partition`` keeps the cluster-pair label counts as a dense
``(K, K, L)`` array and computes every candidate cluster's move delta in one
vectorized pass. ``DictPartition`` keeps them the way the package once did:
one Python list of per-label counts per nonempty cluster pair, with each
pair's cached objective weight, and a move delta built by merging the node's
incident-edge counts into a per-pair dict whose insertion order fixes the
float order of the sum. The tests require the dense state to give the same
floats bit for bit, so the float order here is the contract:

* a pair's weight is tot*log2(tot) minus each nonzero c*log2(c), in label
  order;
* a delta sums, in the merged dict's insertion order, each touched pair's new
  weight minus its old one, starting from 0.0. The out-edges come first (pairs
  (a, x) and (b, x) per head cluster x in first-appearance order), then the
  in-edges (pairs (y, a) and (y, b) per tail cluster y, label-major);
* placing a new node sums, for each candidate cluster, over the pairs of its
  ready edges in the edges' order.

``DictPartition`` has the methods ``cluster``, ``gibbs_sweep`` and
``apply_edge_batch`` call, so a test can swap it in for ``Partition``.
"""

import math
from types import SimpleNamespace

import numpy as np


def pair_entropy_weight(cnt) -> float:
    # tot*log2(tot) - sum c*log2(c): the pair's weighted entropy contribution.
    tot = 0
    for c in cnt:
        tot += c
    if tot == 0:
        return 0.0
    s = tot * math.log2(tot)
    for c in cnt:
        if c:
            s -= c * math.log2(c)
    return s


class DictPartition:
    """Node-to-cluster assignment plus a dict of per-pair label counts."""

    def __init__(self, graph, assignment, K):
        if K < 1:
            raise ValueError("K must be >= 1")
        self.graph = graph
        self.K = int(K)
        self.assignment = np.asarray(assignment, dtype=np.int64).copy()
        if self.assignment.shape != (graph.node_count,):
            raise ValueError("assignment length does not match node count")
        if self.assignment.size and (self.assignment.max() >= K or self.assignment.min() < 0):
            raise ValueError("cluster id out of range")
        self._L = graph.alphabet.size
        self.sizes = np.bincount(self.assignment, minlength=K).astype(np.int64)
        self._counts = {}
        self._contrib = {}
        src, dst, lbl = graph.edge_arrays
        asg = self.assignment
        for s, d, l in zip(asg[src].tolist(), asg[dst].tolist(), lbl.tolist()):
            vec = self._counts.get((s, d))
            if vec is None:
                vec = [0] * self._L
                self._counts[(s, d)] = vec
            vec[l] += 1
        for k, vec in self._counts.items():
            self._contrib[k] = pair_entropy_weight(vec)

    @classmethod
    def from_assignment(cls, graph, assignment, K):
        return cls(graph, assignment, K)

    @classmethod
    def from_random(cls, graph, K, rng):
        return cls(graph, rng.integers(0, K, size=graph.node_count), K)

    def dense_counts(self) -> np.ndarray:
        """The pair counts as a (K, K, L) array, for comparison with ``Partition``."""
        out = np.zeros((self.K, self.K, self._L), dtype=np.int64)
        for (c, d), vec in self._counts.items():
            out[c, d] = vec
        return out

    def objective(self) -> float:
        return math.fsum(pair_entropy_weight(self._counts[k]) for k in sorted(self._counts))

    def add_edge_count(self, c, d, label, delta):
        key = (c, d)
        vec = self._counts.get(key)
        if vec is None:
            vec = [0] * self._L
            self._counts[key] = vec
        vec[label] += delta
        if vec[label] < 0:
            raise ValueError(f"pair count for {key} label {label} went negative")
        if any(vec):
            self._contrib[key] = pair_entropy_weight(vec)
        else:
            del self._counts[key]
            self._contrib.pop(key, None)

    def add_edge_counts(self, c, d, label, delta):
        """``add_edge_count`` for each entry, in order."""
        for args in zip(*(np.asarray(a).tolist() for a in (c, d, label, delta))):
            self.add_edge_count(*args)

    def delta_add_counts(self, groups) -> float:
        total = 0.0
        for key, add in groups.items():
            vec = self._counts.get(key)
            if vec is None:
                new = add
                old_g = 0.0
            else:
                new = [a + b for a, b in zip(vec, add)]
                old_g = self._contrib[key]
            total += pair_entropy_weight(new) - old_g
        return total

    def _gather(self, node):
        g = self.graph
        asg = self.assignment
        out_g = {}
        heads, labels = g.out_arrays(node)
        for h, l in zip(asg[heads].tolist(), labels.tolist()):
            out_g[(h, l)] = out_g.get((h, l), 0) + 1
        in_g = {}
        for l in range(self._L):
            for t in asg[g.in_tails(node, l)].tolist():
                in_g[(t, l)] = in_g.get((t, l), 0) + 1
        return out_g, in_g

    def _delta_for(self, a, b, out_g, in_g) -> float:
        if a == b:
            return 0.0
        eff = {}

        def bump(key, l, dc):
            vec = eff.get(key)
            if vec is None:
                vec = [0] * self._L
                eff[key] = vec
            vec[l] += dc

        for (ch, l), c in out_g.items():
            bump((a, ch), l, -c)
            bump((b, ch), l, +c)
        for (ct, l), c in in_g.items():
            bump((ct, a), l, -c)
            bump((ct, b), l, +c)
        return self.delta_add_counts(eff)

    def delta_objective(self, node, to_cluster) -> float:
        a = int(self.assignment[node])
        if to_cluster == a:
            return 0.0
        out_g, in_g = self._gather(node)
        return self._delta_for(a, int(to_cluster), out_g, in_g)

    def candidate_deltas(self, node) -> np.ndarray:
        a = int(self.assignment[node])
        out_g, in_g = self._gather(node)
        deltas = np.zeros(self.K)
        if not out_g and not in_g:
            return deltas
        for b in range(self.K):
            if b != a:
                deltas[b] = self._delta_for(a, b, out_g, in_g)
        return deltas

    def _visit(self, node):
        """A visit as ``gibbs_sweep`` takes it: the node and its deltas."""
        return SimpleNamespace(node=node, deltas=self.candidate_deltas(node))

    def _move(self, visit, to_cluster):
        self.apply_move(visit.node, to_cluster)

    def placement_deltas(self, node, edges) -> np.ndarray:
        """Objective change of placing unassigned ``node`` on each cluster with ``edges``."""
        assignment = self.assignment
        deltas = np.empty(self.K)
        for c in range(self.K):
            groups = {}
            for u, v, label in edges:
                cu = c if u == node else int(assignment[u])
                cv = c if v == node else int(assignment[v])
                vec = groups.get((cu, cv))
                if vec is None:
                    vec = [0] * self._L
                    groups[(cu, cv)] = vec
                vec[label] += 1
            deltas[c] = self.delta_add_counts(groups)
        return deltas

    def apply_move(self, node, to_cluster):
        a = int(self.assignment[node])
        b = int(to_cluster)
        if b == a:
            return
        if not (0 <= b < self.K):
            raise ValueError("target cluster out of range")
        out_g, in_g = self._gather(node)
        for (ch, l), c in out_g.items():
            self.add_edge_count(a, ch, l, -c)
            self.add_edge_count(b, ch, l, +c)
        for (ct, l), c in in_g.items():
            self.add_edge_count(ct, a, l, -c)
            self.add_edge_count(ct, b, l, +c)
        self.assignment[node] = b
        self.sizes[a] -= 1
        self.sizes[b] += 1

    def extend(self, n_new):
        self.assignment = np.concatenate(
            [self.assignment, np.full(n_new, -1, dtype=np.int64)])

    def assign_new(self, node, cluster):
        if self.assignment[node] != -1:
            raise ValueError(f"node {node} is already assigned")
        self.assignment[node] = cluster
        self.sizes[cluster] += 1

    def largest_cluster(self) -> int:
        return int(np.argmax(self.sizes))
