"""Graph clustering by cluster-pair label entropy.

A partition of the nodes into K clusters is scored by the weighted sum, over
ordered cluster pairs, of the label entropy of the edges running between the
pair: phi = sum |E_cd| * H(p_cd), with H in bits and empty pairs contributing
zero. phi is zero exactly when every nonempty cluster pair carries a single
label, which is the planted-role ground truth of the synthetic generator.

Minimization runs as a Gibbs-style random walk over assignments: each sweep
visits nodes (fixed order or sampled with replacement), evaluates the exact
objective delta of moving the node to every cluster, and either takes the
argmin (greedy mode, ties to the lowest cluster id) or samples a cluster with
probability proportional to exp(-delta / temperature). Deltas touch only the
count entries incident to the node, so a sweep costs O(E * K) count updates
rather than full recomputes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import SignedGraph


def _pair_entropy_weight(cnt) -> float:
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


class Partition:
    """Node-to-cluster assignment plus the edge-label counts of every cluster pair.

    Maintains, incrementally under moves and streaming commits, the table
    (c, d) -> per-label edge counts together with each pair's cached
    objective contribution. Counts always equal a full recount from the
    assignment (``verify_counts`` checks this).

    Cluster ids of not-yet-assigned nodes (streaming) are -1 and excluded
    from all counts until ``assign_new`` places them.
    """

    def __init__(self, graph: SignedGraph, assignment, K: int):
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
        self._counts: dict = {}
        self._contrib: dict = {}
        src, dst, lbl = graph.edge_arrays
        asg = self.assignment
        for s, d, l in zip(asg[src].tolist(), asg[dst].tolist(), lbl.tolist()):
            vec = self._counts.get((s, d))
            if vec is None:
                vec = [0] * self._L
                self._counts[(s, d)] = vec
            vec[l] += 1
        for k, vec in self._counts.items():
            self._contrib[k] = _pair_entropy_weight(vec)

    @classmethod
    def from_assignment(cls, graph: SignedGraph, assignment, K: int) -> "Partition":
        return cls(graph, assignment, K)

    @classmethod
    def from_random(cls, graph: SignedGraph, K: int, rng) -> "Partition":
        return cls(graph, rng.integers(0, K, size=graph.node_count), K)

    # -- objective ----------------------------------------------------------

    def objective(self) -> float:
        """phi in bits, recomputed exactly from the count table (stable order)."""
        return math.fsum(_pair_entropy_weight(self._counts[k]) for k in sorted(self._counts))

    # -- incremental count maintenance ---------------------------------------

    def add_edge_count(self, c: int, d: int, label: int, delta: int) -> None:
        """Shift one (cluster pair, label) count; used by moves and streaming."""
        key = (c, d)
        vec = self._counts.get(key)
        if vec is None:
            vec = [0] * self._L
            self._counts[key] = vec
        vec[label] += delta
        if vec[label] < 0:
            raise ValueError(f"pair count for {key} label {label} went negative")
        if any(vec):
            self._contrib[key] = _pair_entropy_weight(vec)
        else:
            del self._counts[key]
            self._contrib.pop(key, None)

    def delta_add_counts(self, groups: dict) -> float:
        """Objective change of adding ``groups`` ((c,d) -> per-label additions)
        to the current table, without mutating anything."""
        total = 0.0
        for key, add in groups.items():
            vec = self._counts.get(key)
            if vec is None:
                new = add
                old_g = 0.0
            else:
                new = [a + b for a, b in zip(vec, add)]
                old_g = self._contrib[key]
            total += _pair_entropy_weight(new) - old_g
        return total

    # -- node moves ----------------------------------------------------------

    def _gather(self, node: int):
        """Group the node's incident edges by (other endpoint's cluster, label)."""
        g = self.graph
        asg = self.assignment
        out_g: dict = {}
        heads, labels = g.out_arrays(node)
        for h, l in zip(asg[heads].tolist(), labels.tolist()):
            out_g[(h, l)] = out_g.get((h, l), 0) + 1
        in_g: dict = {}
        for l in range(self._L):
            for t in asg[g.in_tails(node, l)].tolist():
                in_g[(t, l)] = in_g.get((t, l), 0) + 1
        return out_g, in_g

    def _delta_for(self, a: int, b: int, out_g: dict, in_g: dict) -> float:
        # Exact phi change of moving a node from cluster a to b, from the
        # merged per-pair count deltas of its incident edges.
        if a == b:
            return 0.0
        eff: dict = {}

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

    def candidate_deltas(self, node: int) -> np.ndarray:
        """Objective delta of moving ``node`` to each cluster (0 for its own)."""
        a = int(self.assignment[node])
        out_g, in_g = self._gather(node)
        deltas = np.zeros(self.K)
        if not out_g and not in_g:
            return deltas
        for b in range(self.K):
            if b != a:
                deltas[b] = self._delta_for(a, b, out_g, in_g)
        return deltas

    def apply_move(self, node: int, to_cluster: int) -> None:
        """Move a node, updating counts, contributions and sizes incrementally."""
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

    # -- streaming support -----------------------------------------------------

    def extend(self, n_new: int) -> None:
        """Grow the assignment for ``n_new`` appended nodes, initially unassigned (-1)."""
        if n_new < 0:
            raise ValueError("n_new must be >= 0")
        self.assignment = np.concatenate(
            [self.assignment, np.full(n_new, -1, dtype=np.int64)])

    def assign_new(self, node: int, cluster: int) -> None:
        """Give a previously unassigned node its cluster (edge commits are the caller's)."""
        if self.assignment[node] != -1:
            raise ValueError(f"node {node} is already assigned")
        if not (0 <= cluster < self.K):
            raise ValueError("cluster out of range")
        self.assignment[node] = cluster
        self.sizes[cluster] += 1

    def largest_cluster(self) -> int:
        """Cluster of maximal size, ties to the lowest id."""
        return int(np.argmax(self.sizes))

    # -- verification ------------------------------------------------------------

    def verify_counts(self) -> None:
        """Recount pairs from scratch and compare exactly; raises on drift."""
        if np.any(self.assignment < 0):
            raise AssertionError("verify_counts on a partition with unassigned nodes")
        fresh = Partition(self.graph, self.assignment, self.K)
        if fresh._counts != self._counts:
            raise AssertionError("incremental pair counts diverged from a full recount")
        if not np.array_equal(fresh.sizes, self.sizes):
            raise AssertionError("cluster sizes diverged from a full recount")


@dataclass
class ClusterConfig:
    """Knobs of one clustering run.

    K is always explicit; every other field has the default schedule: greedy
    deterministic scan, 20 sweeps, 3 restarts. ``early_stop_rel_tol`` of 0
    disables the relative-change stop (greedy mode still stops on a moveless
    sweep).
    """

    K: int
    max_sweeps: int = 20
    scan: str = "deterministic"
    temperature: float = 1.0
    greedy: bool = True
    seed: int = 0
    early_stop_rel_tol: float = 0.0
    restarts: int = 3

    def validate(self, node_count: Optional[int] = None) -> None:
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if node_count is not None and self.K > node_count:
            raise ValueError(f"K={self.K} exceeds node count {node_count}")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if self.scan not in ("deterministic", "random"):
            raise ValueError(f"unknown scan mode {self.scan!r}")
        if not self.greedy and not (self.temperature > 0):
            raise ValueError("temperature must be > 0 unless greedy")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.early_stop_rel_tol < 0:
            raise ValueError("early_stop_rel_tol must be >= 0")


def objective(partition: Partition) -> float:
    """phi(partition) in bits; nonnegative, zero iff all cluster pairs are label-pure."""
    return partition.objective()


def delta_objective(partition: Partition, node: int, to_cluster: int) -> float:
    """phi(after moving node) - phi(before), side-effect-free, O(degree) count touches."""
    if not (0 <= to_cluster < partition.K):
        raise ValueError("target cluster out of range")
    a = int(partition.assignment[node])
    if to_cluster == a:
        return 0.0
    out_g, in_g = partition._gather(node)
    return partition._delta_for(a, int(to_cluster), out_g, in_g)


def boltzmann_pick(deltas: np.ndarray, temperature: float, rng) -> int:
    """Sample an index with probability proportional to exp(-delta/temperature)."""
    w = np.exp(-(deltas - deltas.min()) / temperature)
    cum = np.cumsum(w)
    r = rng.random() * cum[-1]
    return int(np.searchsorted(cum, r, side="right").clip(0, len(deltas) - 1))


def gibbs_sweep(graph: SignedGraph, partition: Partition, config: ClusterConfig, rng) -> int:
    """One sweep of node visits; returns how many nodes changed cluster.

    Deterministic scan visits 0..n-1 in order; random scan draws n nodes with
    replacement from ``rng``. Greedy mode takes the delta argmin (ties break
    to the lowest cluster id); otherwise the new cluster is sampled with
    Boltzmann weights exp(-delta/temperature).
    """
    n = graph.node_count
    if config.scan == "random":
        order = rng.integers(0, n, size=n).tolist()
    else:
        order = range(n)
    moves = 0
    for v in order:
        deltas = partition.candidate_deltas(v)
        if config.greedy:
            b = int(np.argmin(deltas))
        else:
            b = boltzmann_pick(deltas, config.temperature, rng)
        if b != int(partition.assignment[v]):
            partition.apply_move(v, b)
            moves += 1
    return moves


def cluster(graph: SignedGraph, config: ClusterConfig):
    """Search for a low-entropy partition; returns (Partition, trace).

    Each restart draws its own initial uniform assignment and its own sweep
    randomness from default_rng([seed, restart]); the restart with the lowest
    final phi wins (earliest on exact ties). The trace of the winning restart
    lists one (sweep_index, phi, moves) triple per sweep, sweep 0 being the
    initial state. Sweeping stops at max_sweeps, on a moveless greedy sweep,
    or when the relative phi change falls below early_stop_rel_tol (if set).

    Raises:
        ValueError: invalid config, or K > node_count.
    """
    config.validate(node_count=graph.node_count)
    best = None
    for restart in range(config.restarts):
        rng = np.random.default_rng([config.seed, restart])
        part = Partition.from_random(graph, config.K, rng)
        phi = part.objective()
        trace = [(0, phi, 0)]
        prev = phi
        for sweep in range(1, config.max_sweeps + 1):
            moves = gibbs_sweep(graph, part, config, rng)
            phi = part.objective()
            trace.append((sweep, phi, moves))
            if config.greedy and moves == 0:
                break
            if config.early_stop_rel_tol > 0:
                rel = abs(prev - phi) / max(abs(prev), 1e-300)
                if rel < config.early_stop_rel_tol:
                    break
            prev = phi
        if best is None or phi < best[0]:
            best = (phi, part, trace)
    return best[1], best[2]


# -- partition text I/O ---------------------------------------------------------

def write_partition(partition: Partition, graph: SignedGraph, path) -> None:
    """Write `external_node_id cluster_id` lines, one per node, in dense-id order."""
    if np.any(partition.assignment < 0):
        raise ValueError("cannot export a partition with unassigned nodes")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# clusters {partition.K}\n")
        for v in range(graph.node_count):
            fh.write(f"{graph.external_of(v)} {int(partition.assignment[v])}\n")


def read_partition(path, graph: SignedGraph, K: Optional[int] = None) -> Partition:
    """Read a partition written by ``write_partition`` and bind it to ``graph``.

    Every node of the graph must be covered; K is taken from the file header
    when present, else from the maximum id seen (or the explicit argument).
    """
    assignment = np.full(graph.node_count, -1, dtype=np.int64)
    file_k = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 2 and parts[0] == "clusters":
                    file_k = int(parts[1])
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'node cluster'")
            node, cl = parts
            assignment[graph.node_of(node)] = int(cl)
    missing = int(np.sum(assignment < 0))
    if missing:
        raise ValueError(f"{path}: {missing} graph nodes have no cluster assignment")
    k = K if K is not None else (file_k if file_k is not None else int(assignment.max()) + 1)
    return Partition(graph, assignment, k)
