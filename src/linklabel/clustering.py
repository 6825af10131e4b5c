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
probability proportional to exp(-delta / temperature).

The state is dense: (K, K, L) pair label counts and (K, K) cached pair
weights. A move from cluster a to b changes only pairs in rows and columns a
and b (the block-move bookkeeping of Peixoto, PRE 89, 012804, 2014). A visit
bins the node's edges by label and cluster of the other end with one gather
and one bincount, and scores all K candidates in one numpy pass over
K * 2(X + Y) pair slots (X, Y: its distinct head and tail clusters). The
slots hold every pair a move changes, so a move writes their new values.
Deltas are summed pair by pair in a fixed order from ``math.log2`` values:
the floats of a pair-by-pair scalar loop.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import SignedGraph


#: x*log2(x) for x = 0, 1, 2, ...: one table for the whole process, filled
#: with math.log2 (np.log2 may differ in the last ulp) and grown geometrically.
_XLOG2X = np.zeros(1)


def _xlog2x(n: int) -> np.ndarray:
    """The x*log2(x) table, grown to cover 0..n."""
    global _XLOG2X
    if n >= _XLOG2X.size:
        size = max(n + 1, 2 * _XLOG2X.size, 1024)
        _XLOG2X = np.arange(size, dtype=float)        # exact: size < 2**53
        _XLOG2X[1:] *= np.fromiter(map(math.log2, range(1, size)), float, size - 1)
    return _XLOG2X


def _pair_weights(counts, table: np.ndarray) -> np.ndarray:
    """tot*log2(tot) - sum c*log2(c) over per-label counts ``counts[l]``.

    ``table`` is an ``_xlog2x`` table covering the totals. Labels are taken
    left to right, so each value is the float of a scalar loop; 0.0 if empty.
    """
    w = table[sum(counts[1:], counts[0])]
    for c in counts:
        w = w - table[c]
    return w


def _neighbour_index(g: SignedGraph, K: int):
    """Per node v, ``ends[ptr[2v]:ptr[2v + 2]]``: its heads, then from
    ``ptr[2v + 1]`` its tails in in-index order, each with its (side,
    label) offset l*K or (L + l)*K in ``offs``; scattered, not sorted."""
    out_ptr, heads, labels, in_ptr, tails = g.csr()
    n, E, L = g.node_count, heads.size, g.alphabet.size
    in_slot = np.repeat(np.arange(n * L), np.diff(in_ptr))
    ptr = np.empty(2 * n + 1, dtype=np.int64)
    ptr[0::2] = out_ptr + in_ptr[::L]
    ptr[1::2] = out_ptr[1:] + in_ptr[:-1:L]
    at_out = np.arange(E) + in_ptr[g.edge_arrays[0] * L]
    at_in = np.arange(E) + out_ptr[in_slot // L + 1]
    ends, offs = np.empty(2 * E, np.int64), np.empty(2 * E, np.min_scalar_type(2 * L * K))
    ends[at_out], ends[at_in] = heads, tails
    offs[at_out], offs[at_in] = labels * K, (L + in_slot % L) * K
    return ptr, ends, offs


#: One scored visit: per candidate b, ``deltas[b]`` and the flat pairs
#: ``cell[b]`` a move to b changes, with their ``new`` counts and ``weights``.
_Visit = namedtuple("_Visit", "node deltas cell new weights")


class Partition:
    """Node-to-cluster assignment plus the edge-label counts of every cluster pair.

    ``pair_counts[c, d, l]`` counts the edges labeled l from cluster c to
    cluster d, and ``pair_weights[c, d]`` caches that pair's objective term
    (both read-only to callers). They are kept current under moves and
    streaming commits and always equal a full recount from the assignment
    (``verify_counts`` checks this).

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
        L = self._L = graph.alphabet.size
        self.sizes = np.bincount(self.assignment, minlength=K).astype(np.int64)
        src, dst, lbl = graph.edge_arrays
        asg = self.assignment
        cells = (asg[src] * K + asg[dst]) * L + lbl
        self.pair_counts = np.bincount(cells, minlength=K * K * L).reshape(K, K, L)
        # Counted edges: a bound on every count a move can produce.
        self._edges = graph.edge_count
        self.pair_weights = _pair_weights(self.pair_counts.transpose(2, 0, 1),
                                          _xlog2x(self._edges))
        self._rows = np.arange(K)[:, None]
        # A slot's row or column: _pick[k, c] is c, and _pick[k, -1] is k.
        self._pick = np.where(np.arange(K + 1) < K, np.arange(K + 1), self._rows)
        self._labels = np.arange(L)[:, None, None]
        self._index_graph = None

    @classmethod
    def from_assignment(cls, graph: SignedGraph, assignment, K: int) -> "Partition":
        return cls(graph, assignment, K)

    @classmethod
    def from_random(cls, graph: SignedGraph, K: int, rng) -> "Partition":
        return cls(graph, rng.integers(0, K, size=graph.node_count), K)

    # -- objective ----------------------------------------------------------

    def objective(self) -> float:
        """phi in bits: the exactly rounded sum of the cached pair weights."""
        return math.fsum(self.pair_weights.ravel().tolist())

    # -- incremental count maintenance ---------------------------------------

    def add_edge_count(self, c: int, d: int, label: int, delta: int) -> None:
        """Shift one (cluster pair, label) count; all or nothing on a bad shift."""
        self.add_edge_counts([c], [d], [label], [delta])

    def add_edge_counts(self, c, d, label, delta) -> None:
        """Shift many (cluster pair, label) counts at once; all or nothing.

        Counts and weights come out bit-identical to one shift per entry,
        in any order: each touched pair's weight is recomputed once, from
        its final counts.
        """
        K, L = self.K, self._L
        c, d, label, delta = (np.asarray(a, dtype=np.int64) for a in (c, d, label, delta))
        bad = (c < 0) | (c >= K) | (d < 0) | (d >= K) | (label < 0) | (label >= L)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"pair {(int(c[i]), int(d[i]))} label {int(label[i])} out of range")
        counts = self.pair_counts.copy()
        np.add.at(counts, (c, d, label), delta)
        if np.any(counts < 0):
            i, j, l = (int(v) for v in np.argwhere(counts < 0)[0])
            raise ValueError(f"pair count for {(i, j)} label {l} went negative")
        self.pair_counts[...] = counts
        self._edges += int(delta.sum())
        tc, td = np.divmod(np.unique(c * K + d), K)
        self.pair_weights[tc, td] = _pair_weights(counts[tc, td].T, _xlog2x(self._edges))

    def _ordered_deltas(self, cell, change, skip, added: int = 0):
        """Per candidate (grid row), the objective change of shifting the
        counts of flat pairs ``cell`` (c * K + d) by ``change`` (label axis
        first; ``added`` new edges), summed in slot order from 0.0 with
        ``skip`` slots adding nothing; then the slots' new counts and weights."""
        new = self.pair_counts.reshape(-1).take(cell * self._L + self._labels) + change
        weights = _pair_weights(new, _xlog2x(self._edges + added))
        grid = np.zeros((self.K, cell.shape[1] + 1))
        grid[:, 1:] = np.where(skip, 0.0, weights - self.pair_weights.reshape(-1).take(cell))
        return np.add.accumulate(grid, axis=1)[:, -1], new, weights

    # -- node moves ----------------------------------------------------------

    def _neighbours(self):
        """The graph's ``_neighbour_index``, built on first use after the graph changes."""
        if self._index_graph is not self.graph:
            self._index, self._index_graph = _neighbour_index(self.graph, self.K), self.graph
        return self._index

    def _visit(self, node: int) -> "_Visit":
        """Score moving ``node`` to each cluster.

        For candidate b the slots are the pairs (a, x), (b, x) per head
        cluster x, then (y, a), (y, b) per tail cluster y (a being the node's
        cluster): a pair counts once, at its first slot, in slot order. The
        slots cover every pair a move changes, so ``_move`` writes their new
        values; a pair in two slots gets the same value in both.
        """
        K, L, pick, a = self.K, self._L, self._pick, int(self.assignment[node])
        ptr, ends, offs = self._neighbours()
        s, m, e = ptr[2 * node:2 * node + 3].tolist()
        clusters = self.assignment[ends[s:e]]
        out_n, in_n = np.bincount(offs[s:e] + clusters, minlength=2 * L * K).reshape(2, L, K)
        # Distinct head and tail clusters in order of first appearance.
        xs, ys = (list(dict.fromkeys(c.tolist())) for c in (clusters[:m - s], clusters[m - s:]))
        # The slots' rows and columns; -1 stands for grid row k's candidate k.
        row_of = np.array([a, -1] * len(xs) + [y for y in ys for _ in "ab"], dtype=np.int64)
        col_of = np.array([x for x in xs for _ in "ab"] + [a, -1] * len(ys), dtype=np.int64)
        rows, cols = pick.take(row_of, axis=1), pick.take(col_of, axis=1)
        # Pair (r, c) gains the node's out-edges into c if r is the candidate
        # and loses them if r is a; likewise its in-edges from r by column.
        sign = np.subtract(pick == self._rows, pick == a, dtype=np.int64)
        row_sign, col_sign = sign.take(row_of, axis=1), sign.take(col_of, axis=1)
        by_label = self._labels * K      # flat (label, cluster) index offsets
        change = row_sign * out_n.take(cols + by_label) + col_sign * in_n.take(rows + by_label)
        # An in-slot whose pair sits among the out-slots adds nothing: its row
        # is a or the candidate, a nonzero sign on every grid row but a's.
        skip = (row_sign != 0) & out_n.any(axis=0).take(cols)
        skip[:, :2 * len(xs)] = False
        cell = rows * K + cols
        deltas, new, weights = self._ordered_deltas(cell, change, skip)
        deltas[a] = 0.0
        return _Visit(node, deltas, cell, new, weights)

    def _move(self, visit: "_Visit", b: int) -> None:
        """Move the visited node to cluster b, not its own: write row b of its new pairs."""
        node, a = visit.node, int(self.assignment[visit.node])
        if not (0 <= b < self.K):
            raise ValueError("target cluster out of range")
        self.pair_counts.reshape(-1, self._L)[visit.cell[b]] = visit.new[:, b].T
        self.pair_weights.reshape(-1)[visit.cell[b]] = visit.weights[b]
        self.assignment[node] = b
        self.sizes[a] -= 1
        self.sizes[b] += 1

    def candidate_deltas(self, node: int) -> np.ndarray:
        """Objective delta of moving ``node`` to each cluster (0 for its own)."""
        return self._visit(node).deltas

    def placement_deltas(self, node: int, edges) -> np.ndarray:
        """Objective change of placing unassigned ``node`` on each cluster.

        ``edges`` are its not yet counted ``(u, v, label)`` edges to assigned
        nodes; a pair counts once, in the order of its first edge. Nothing is
        mutated.
        """
        K, ks = self.K, self._rows
        u, v, lab = np.asarray(edges, dtype=np.int64).reshape(-1, 3).T
        cell = (np.where(u == node, ks, self.assignment[u]) * K
                + np.where(v == node, ks, self.assignment[v]))
        same = cell[:, :, None] == cell[:, None, :]
        # (L, K, S): per label, how many of the edges share each slot's pair.
        change = (same & (lab == self._labels[..., None])).sum(axis=-1)
        return self._ordered_deltas(cell, change, np.tril(same, -1).any(axis=2), lab.size)[0]

    def apply_move(self, node: int, to_cluster: int) -> None:
        """Move a node: one visit, then its counts and weights for the target (none to its own)."""
        b = int(to_cluster)
        if b != self.assignment[node]:
            self._move(self._visit(node), b)

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
        for name in ("pair_counts", "pair_weights", "sizes"):
            if not np.array_equal(getattr(fresh, name), getattr(self, name)):
                raise AssertionError(f"incremental {name} diverged from a full recount")


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
    """phi(after moving node) - phi(before), side-effect-free: ``candidate_deltas``' entry."""
    if not (0 <= to_cluster < partition.K):
        raise ValueError("target cluster out of range")
    return float(partition.candidate_deltas(node)[to_cluster])


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
        visit = partition._visit(v)
        if config.greedy:
            b = int(visit.deltas.argmin())
        else:
            b = boltzmann_pick(visit.deltas, config.temperature, rng)
        if b != int(partition.assignment[v]):
            partition._move(visit, b)
            moves += 1
    return moves


def cluster(graph: SignedGraph, config: ClusterConfig):
    """Search for a low-entropy partition; returns (Partition, trace).

    Each restart draws its own initial uniform assignment and its own sweep
    randomness from default_rng([seed, restart]); all read one neighbour
    index (``_neighbour_index``), built once per call. The restart with
    the lowest final phi wins (earliest on exact ties). The trace of
    the winning restart lists one (sweep_index, phi, moves) triple per
    sweep, sweep 0 being the initial state. Sweeping stops at max_sweeps,
    on a moveless greedy sweep, or when the relative phi change falls below
    early_stop_rel_tol (if set).

    Raises:
        ValueError: invalid config, or K > node_count.
    """
    config.validate(node_count=graph.node_count)
    best, index = None, _neighbour_index(graph, config.K)
    for restart in range(config.restarts):
        rng = np.random.default_rng([config.seed, restart])
        part = Partition.from_random(graph, config.K, rng)
        part._index, part._index_graph = index, graph
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

    Every node of the graph must be listed exactly once, with a cluster id
    >= 0 and below K; K is the explicit argument when given, else the file
    header's, else the maximum id seen plus one. A bad line raises
    ``ValueError("path:lineno: ...")``.
    """
    def as_int(token, what):
        try:
            return int(token)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {what} {token!r} is not an integer") from None

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
                    file_k = as_int(parts[1], "cluster count")
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'node cluster'")
            node, cl = parts
            if not graph.has_node(node):
                raise ValueError(f"{path}:{lineno}: node {node!r} is not in the graph")
            cl = as_int(cl, "cluster id")
            if cl < 0:
                raise ValueError(f"{path}:{lineno}: cluster id {cl} is negative")
            limit = K if K is not None else file_k
            if limit is not None and cl >= limit:
                raise ValueError(f"{path}:{lineno}: cluster id {cl} is not below K = {limit}")
            v = graph.node_of(node)
            if assignment[v] >= 0:
                raise ValueError(f"{path}:{lineno}: node {node!r} is listed twice")
            assignment[v] = cl
    missing = int(np.sum(assignment < 0))
    if missing:
        raise ValueError(f"{path}: {missing} graph nodes have no cluster assignment")
    k = K if K is not None else (file_k if file_k is not None else int(assignment.max()) + 1)
    return Partition(graph, assignment, k)
