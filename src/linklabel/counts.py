"""Exact co-occurrence statistics behind all predictors.

Two count families are provided:

* node-level: how many nodes point at both of two given nodes with given
  labels (intersection sizes of in-neighborhood tail sets), served on
  demand from the graph's one in-adjacency index (split by label), or from
  a precomputed sparse table, which ``apply_edge_batch`` keeps current
  under an edge stream and which can be exported as a snapshot;
* cluster-level: given a partition, how many nodes of one cluster have at
  least one edge into each of two given clusters with given labels.

Both families support an "any label" selector (the ``ANY`` sentinel) with
set-union semantics. At node level the per-label tail sets partition the
pooled tail set (one edge per ordered pair), so summing per-label counts
reproduces the ANY count. At cluster level that identity does NOT hold: a
single node can carry several labels into the same cluster, so ANY is a
genuine union, never a sum.

Many queries at once are served by ``context_evidence``: every count is an
entry of a co-citation product, count(j, l, x, l') = (A_l^T A_l')[j, x] with
A_l the adjacency matrix restricted to label l, so one pass over the CSR
arrays per block of receivers yields the counts of every context entry of
every query into those receivers.

The precomputed node-level table and the cluster table hold one quantity:
the ordered pairs of each tail's (head, label) and (head, ANY) incidences
(``_incidence_set``), with heads taken as nodes or as their clusters, keyed
by the pair alone or prefixed with the tail's cluster. One kernel,
``_move_incidences``, builds both (a move from no incidences) and keeps
both in sync with a live edge stream through ``apply_edge_batch``: per
changed tail, only the pairs of the incidences it gains or loses change.
Every batch also merges its edges into the graph's arrays with the loader's
``normalize_edge_arrays`` and builds a new ``SignedGraph``, which is
O(edges) in numpy: about 6 ms for a one-edge batch at 38k edges, 13 ms for
20 edges (2-vCPU Xeon).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from typing import Optional

import numpy as np

from .graph import SignedGraph, normalize_edge_arrays

#: Label selector meaning "any label" (set union over labels).
ANY = -1

#: Default cap on sum(out_degree^2), the true pair-enumeration cost of a
#: precomputed table build.
DEFAULT_PAIR_BUDGET = 2_000_000


class BudgetExceededError(RuntimeError):
    """Raised when a precomputed build would exceed its pair budget."""

    def __init__(self, projected_cost: int, budget: int):
        self.projected_cost = projected_cost
        self.budget = budget
        super().__init__(
            f"precomputed count table needs {projected_cost} ordered edge pairs, "
            f"budget is {budget}; raise it (--nam-budget) or force the build "
            f"(override=True, or --nam-override)")


def nam_count(graph: SignedGraph, m: int, l: int, n: int, lp: int) -> int:
    """Count nodes with an edge into ``m`` labeled ``l`` and one into ``n`` labeled ``lp``.

    ``l`` and ``lp`` may be ``ANY``, selecting the pooled (union) tail set.
    Computed by intersecting the cached tail sets of the two endpoints.

    Args:
        graph: the graph to count in.
        m, n: head nodes.
        l, lp: label indices or ANY.

    Returns:
        Exact intersection size.
    """
    a = graph.tail_set(m, None if l == ANY else l)
    b = graph.tail_set(n, None if lp == ANY else lp)
    if len(a) > len(b):
        a, b = b, a
    return len(a & b)


def _incidence_set(heads, labels, assignment=None) -> set:
    """A tail's distinct (head, label) incidences, plus one (head, ANY) per head.

    With ``assignment`` each head is replaced by its cluster. Both count
    tables count the ordered pairs of these sets.
    """
    hs = (heads if assignment is None else assignment[heads]).tolist()
    d = set(zip(hs, labels.tolist()))
    d.update(zip(hs, repeat(ANY)))
    return d


def _move_incidences(table: dict, prefix: tuple, old: set, new: set) -> None:
    """Move one tail's incidence pairs in ``table`` from set ``old`` to ``new``.

    The ordered pair (a, b) of a tail's incidence set counts under the key
    ``prefix + a + b``. Only the pairs with an incidence in ``old ^ new``
    change. Zeros are pruned so the table stays identical to a fresh build.
    """
    for d, gone, sign in ((old, old - new, -1), (new, new - old, +1)):
        if not gone:
            continue
        for a in d:
            pa = prefix + a
            for b in (d if a in gone else gone):
                k = pa + b
                v = table.get(k, 0) + sign
                if v:
                    table[k] = v
                else:
                    del table[k]


class CooccurrenceCounts:
    """Node-pair co-pointing counts with two interchangeable strategies.

    ``on_demand`` answers each query by set intersection over the immutable
    graph; ``precomputed`` holds a sparse table built by enumerating every
    tail's ordered out-edge pairs, which also makes incremental stream
    updates possible.
    """

    def __init__(self, graph: SignedGraph, strategy: str, table: Optional[dict] = None,
                 projected_pair_cost: Optional[int] = None):
        if strategy not in ("on_demand", "precomputed"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.graph = graph
        self.strategy = strategy
        self.table = table if table is not None else ({} if strategy == "precomputed" else None)
        self.projected_pair_cost = projected_pair_cost

    @classmethod
    def on_demand(cls, graph: SignedGraph) -> "CooccurrenceCounts":
        return cls(graph, "on_demand")

    def count(self, m: int, l: int, n: int, lp: int) -> int:
        """Exact count for (m, l, n, lp); absent precomputed keys are 0."""
        if self.strategy == "on_demand":
            return nam_count(self.graph, m, l, n, lp)
        return self.table.get((m, l, n, lp), 0)


def projected_pair_cost(graph: SignedGraph) -> int:
    """sum(out_degree^2): the exact number of ordered out-edge pairs enumerated."""
    src, _, _ = graph.edge_arrays
    deg = np.bincount(src, minlength=graph.node_count)
    return int(np.sum(deg.astype(np.int64) ** 2))


def build_precomputed_nam(graph: SignedGraph, budget: int = DEFAULT_PAIR_BUDGET,
                          override: bool = False) -> CooccurrenceCounts:
    """Build the full sparse co-pointing table in one pass over tails.

    Each tail adds the ordered pairs of its incidence set (self-pairs
    included): an ordered out-edge pair counts under the concrete key and
    its three ANY projections. The enumeration cost is sum(out_degree^2),
    which is reported on the result and guarded by ``budget``.

    Args:
        graph: the graph to index.
        budget: maximum allowed ordered-pair count.
        override: build even when the budget is exceeded.

    Returns:
        A precomputed CooccurrenceCounts with ``projected_pair_cost`` set.

    Raises:
        BudgetExceededError: projected cost exceeds budget and not overridden.
    """
    cost = projected_pair_cost(graph)
    if cost > budget and not override:
        raise BudgetExceededError(cost, budget)
    counts = CooccurrenceCounts(graph, "precomputed", table={}, projected_pair_cost=cost)
    for w in range(graph.node_count):
        _move_incidences(counts.table, (), set(), _incidence_set(*graph.out_arrays(w)))
    return counts


# -- batched node-level evidence -----------------------------------------------

#: Budget of one receiver block of ``context_evidence``: the ordered
#: (in-tail, out-edge) pairs it enumerates and the cells of its count table.
#: Only a block that holds a single receiver may exceed either.
BLOCK_PAIRS = 4096
BLOCK_CELLS = 16384


def _ranges(lo, hi):
    """Concatenated index ranges ``lo[k]:hi[k]``: (indices, k of each index)."""
    lens = hi - lo
    owner = np.repeat(np.arange(lens.size), lens)
    starts = np.cumsum(lens) - lens
    return lo[owner] + (np.arange(owner.size) - starts[owner]), owner


def receiver_blocks(graph: SignedGraph, receivers) -> list:
    """Split the distinct receivers, ascending, into consecutive blocks.

    A block enumerates sum(outdeg(w)) pairs over the in-tails w of its
    receivers and allocates ``len(block) * n * L**2`` table cells; both stay
    within BLOCK_PAIRS and BLOCK_CELLS unless the block holds one receiver.
    """
    out_ptr, _, _, in_ptr, in_tails = graph.csr()
    n, L = graph.node_count, graph.alphabet.size
    reach = np.concatenate(([0], np.cumsum(np.diff(out_ptr)[in_tails])))
    pairs = (reach[in_ptr[1:]] - reach[in_ptr[:-1]]).reshape(n, L).sum(axis=1)
    per_block = max(1, BLOCK_CELLS // max(1, n * L * L))
    blocks, cur, cur_pairs = [], [], 0
    for r in np.unique(receivers).tolist():
        p = int(pairs[r])
        if cur and (cur_pairs + p > BLOCK_PAIRS or len(cur) == per_block):
            blocks.append(np.array(cur, dtype=np.int64))
            cur, cur_pairs = [], 0
        cur.append(r)
        cur_pairs += p
    if cur:
        blocks.append(np.array(cur, dtype=np.int64))
    return blocks


def block_table(graph: SignedGraph, block: np.ndarray) -> np.ndarray:
    """Co-pointing counts of a receiver block: ``T[b, l, x, lp] = count(block[b], l, x, lp)``.

    The label-split in-tails of the block's receivers are expanded through
    their out-edges with ``np.repeat`` and counted with one ``np.bincount``.
    """
    out_ptr, heads, labels, in_ptr, in_tails = graph.csr()
    n, L = graph.node_count, graph.alphabet.size
    rows = (block[:, None] * L + np.arange(L)).ravel()        # row b * L + l
    t, row = _ranges(in_ptr[rows], in_ptr[rows + 1])
    tails = in_tails[t]
    e, k = _ranges(out_ptr[tails], out_ptr[tails + 1])
    key = (row[k] * n + heads[e]) * L + labels[e]
    return np.bincount(key, minlength=rows.size * n * L).reshape(block.size, L, n, L)


@dataclass
class EvidenceBlock:
    """Context entries of some queries, with their node-level counts.

    ``context_evidence`` yields one per receiver block; ``predict`` builds
    one for a single query. Entries are ordered by query, then by context
    position (``context_of`` order). ``num`` and ``mirrored`` are None when
    counts were not asked for, and a one-query block leaves ``mirrored``
    None when its model does not read it.
    """

    queries: np.ndarray            # (Q_b,) indices into the caller's query arrays
    sizes: np.ndarray              # (Q_b,) context size of each query
    row: np.ndarray                # (m,) each entry's query, as an index into ``queries``
    position: np.ndarray           # (m,) index of the entry in its query's context
    heads: np.ndarray              # (m,) context head x
    labels: np.ndarray             # (m,) its label l_x
    num: Optional[np.ndarray]      # (m, L) count(j, l, x, l_x) for every label l
    mirrored: Optional[np.ndarray] # (m, L) count(x, ANY, j, l) for every label l


def context_evidence(graph: SignedGraph, initiators, receivers, with_counts: bool = True):
    """Yield the context entries of many queries, one receiver block at a time.

    Query q is ``initiators[q] -> receivers[q]``; its context is that of
    ``context_of``. The counts equal ``CooccurrenceCounts.count`` on
    ``graph``. At node level ANY counts are sums over labels, so
    count(j, ANY, x, l_x) is ``num.sum(axis=1)``; the mirrored counts come
    from the same block table.
    """
    initiators = np.asarray(initiators, dtype=np.int64)
    receivers = np.asarray(receivers, dtype=np.int64)
    out_ptr, heads, labels, _, _ = graph.csr()
    order = np.argsort(receivers, kind="stable")
    by_receiver = receivers[order]
    for block in receiver_blocks(graph, receivers):
        lo = np.searchsorted(by_receiver, block[0], side="left")
        hi = np.searchsorted(by_receiver, block[-1], side="right")
        q = order[lo:hi]
        i, j = initiators[q], receivers[q]
        e, row = _ranges(out_ptr[i], out_ptr[i + 1])
        keep = heads[e] != j[row]
        e, row = e[keep], row[keep]
        sizes = np.bincount(row, minlength=q.size)
        position = np.arange(row.size) - (np.cumsum(sizes) - sizes)[row]
        x, lx = heads[e], labels[e]
        num = mirrored = None
        if with_counts:
            table = block_table(graph, block)
            b = np.searchsorted(block, j[row])
            num = table[b, :, x, lx]
            mirrored = table.sum(axis=3)[b, :, x]
        yield EvidenceBlock(q, sizes, row, position, x, lx, num, mirrored)


# -- cluster-level counts -----------------------------------------------------

class ClusterCounts:
    """Sparse table of cluster-level co-incidence counts.

    Keys are (s, m, l, n, lp): how many nodes assigned to cluster ``s`` have
    at least one edge into cluster ``m`` with label ``l`` and at least one
    into cluster ``n`` with label ``lp`` (ANY = any label). Entries never
    exceed the size of cluster ``s``.
    """

    def __init__(self, graph: SignedGraph, partition, table: Optional[dict] = None):
        self.graph = graph
        self.partition = partition
        self.table = table if table is not None else {}

    @classmethod
    def from_partition(cls, graph: SignedGraph, partition) -> "ClusterCounts":
        """Build the full table in one pass: each node contributes the ordered
        pairs of its distinct (target cluster, label) and (target cluster,
        ANY) incidences."""
        cc = cls(graph, partition, table={})
        asg = partition.assignment
        for v, s in enumerate(asg.tolist()):
            _move_incidences(cc.table, (s,), set(), _incidence_set(*graph.out_arrays(v), asg))
        return cc

    def count(self, s: int, m: int, l: int, n: int, lp: int) -> int:
        return self.table.get((s, m, l, n, lp), 0)


@lru_cache(maxsize=None)
def _row_selectors(L: int) -> tuple:
    # The (l, lp) selectors of a cluster row, per context label l:
    # count(s, m, l, n, lp) for every lp, count(s, m, l, n, ANY), and
    # count(s, m, ANY, n, lp) for every lp.
    return tuple(tuple([(l, lp) for lp in range(L)] + [(l, ANY)] + [(ANY, lp) for lp in range(L)])
                 for l in range(L))


def _split_rows(rows: np.ndarray, L: int):
    return rows[:, :L], rows[:, L], rows[:, L + 1:]


def cluster_evidence(cluster_counts: ClusterCounts, s: int, m, l, n: int):
    """Cluster counts of one query's context entries, read from the table.

    ``s`` and ``n`` are the initiator's and receiver's clusters, ``m`` and
    ``l`` the entries' head clusters and labels. Returns what
    ``ClusterEvidence.lookup`` returns for these entries.
    """
    L = cluster_counts.graph.alphabet.size
    get, sel = cluster_counts.table.get, _row_selectors(L)
    rows = [get((s, mx, a, n, b), 0) for mx, lx in zip(m, l) for a, b in sel[lx]]
    return _split_rows(np.array(rows, dtype=np.int64).reshape(len(m), 2 * L + 1), L)


class ClusterEvidence:
    """Cluster counts of many context entries, read from the table once per key.

    ``lookup(s, m, l, n)`` takes equal-length arrays and returns, per entry,
    count(s, m, l, n, lp) for every label lp, count(s, m, l, n, ANY), and
    count(s, m, ANY, n, lp) for every lp. The table is read once for each
    distinct (s, m, l, n) over the lifetime of the object, which must not
    outlive a change to the table.
    """

    def __init__(self, cluster_counts: ClusterCounts):
        self.table = cluster_counts.table
        self.K = cluster_counts.partition.K
        self.L = cluster_counts.graph.alphabet.size
        self._sel = _row_selectors(self.L)
        self._rows: dict = {}

    def _row(self, code: int) -> list:
        row = self._rows.get(code)
        if row is None:
            s, m, l, n = (int(v) for v in np.unravel_index(code, (self.K, self.K, self.L, self.K)))
            get = self.table.get
            row = self._rows[code] = [get((s, m, a, n, b), 0) for a, b in self._sel[l]]
        return row

    def lookup(self, s, m, l, n):
        K, L = self.K, self.L
        code = ((np.asarray(s) * K + m) * L + l) * K + n
        uniq, inv = np.unique(code, return_inverse=True)
        rows = np.array([self._row(c) for c in uniq.tolist()],
                        dtype=np.int64).reshape(uniq.size, 2 * L + 1)[inv]
        return _split_rows(rows, L)


# -- snapshots ---------------------------------------------------------------

NAM_SNAPSHOT_HEADER = "nam-snapshot v1"
CAM_SNAPSHOT_HEADER = "cam-snapshot v1"


def save_nam_snapshot(counts: CooccurrenceCounts, path) -> None:
    """Write a precomputed node-level table as versioned text, sorted keys.

    Plain integers only, so files are identical across platforms. The file
    is an export: nothing reads it back.
    """
    if counts.strategy != "precomputed":
        raise ValueError("only precomputed count tables can be snapshotted")
    g = counts.graph
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{NAM_SNAPSHOT_HEADER}\n")
        fh.write(f"nodes {g.node_count} labels {g.alphabet.size}\n")
        for (m, l, n, lp), c in sorted(counts.table.items()):
            fh.write(f"{m} {l} {n} {lp} {c}\n")


def save_cam_snapshot(cluster_counts: ClusterCounts, path) -> None:
    """Write a cluster-level table as versioned text, sorted keys (an export)."""
    part = cluster_counts.partition
    g = cluster_counts.graph
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{CAM_SNAPSHOT_HEADER}\n")
        fh.write(f"clusters {part.K} labels {g.alphabet.size}\n")
        for (s, m, l, n, lp), c in sorted(cluster_counts.table.items()):
            fh.write(f"{s} {m} {l} {n} {lp} {c}\n")


# -- streaming updates ---------------------------------------------------------

@dataclass
class BatchReport:
    """Summary of one applied edge batch."""

    added: int = 0                   # brand-new ordered pairs
    relabeled: int = 0               # existing pairs whose label changed
    unchanged: int = 0               # restatements of an existing edge
    self_loops_dropped: int = 0
    collapsed_in_batch: int = 0      # within-batch duplicate pairs (last wins)
    new_nodes: int = 0
    new_node_ids: list = field(default_factory=list)


def apply_edge_batch(counts: CooccurrenceCounts, cluster_counts: ClusterCounts,
                     graph: SignedGraph, new_edges, auto_intern: bool = True):
    """Fold a batch of labeled edges into the graph and both count structures.

    Batch edges are ``(src_external_id, dst_external_id, label_index)``
    triples and pass the loader's normalization: self-loops are dropped,
    within-batch duplicates collapse last-wins, and a pair that already
    exists in the graph has its old label retracted from the counts before
    the new one is added. The merged graph is ``normalize_edge_arrays`` of
    the old edges followed by the batch, so the batch label wins. After the
    call every count equals what a from-scratch build on the extended graph
    would produce; existing cluster assignments are untouched and brand-new
    nodes are placed on the cluster whose objective delta is smallest
    (largest cluster when edge-free).

    The cost is O(edges) in numpy for the merged graph, plus Python work
    per changed tail: in both tables, the pairs of the incidences it gains
    or loses.

    The caller must hold exclusive access: ``counts``, ``cluster_counts``
    and its partition are mutated in place and rebound to the returned
    graph. All three must be bound to ``graph``, and the partition must hold
    the pair count of every edge the batch relabels; otherwise the call
    raises ValueError before anything is changed.

    Args:
        counts: node-level counts; a precomputed table is updated in place,
            an on_demand instance is merely rebound to the new graph.
        cluster_counts: cluster-level table, updated in place; its partition
            gains assignments for new nodes.
        graph: the current graph snapshot.
        new_edges: iterable of (src, dst, label) with external string ids.
        auto_intern: when False, unknown external ids raise instead of
            creating nodes.

    Returns:
        (new_graph, BatchReport)
    """
    partition = cluster_counts.partition
    if not (counts.graph is graph and cluster_counts.graph is graph
            and partition.graph is graph):
        raise ValueError("counts, cluster counts and partition must be bound to graph")
    alphabet = graph.alphabet
    L = alphabet.size
    report = BatchReport()

    # Phase 0: normalize the batch (drop self-loops, last label per pair wins).
    effective: dict = {}
    for s_ext, d_ext, label in new_edges:
        label = int(label)
        if not (0 <= label < L):
            raise ValueError(f"label index {label} out of range for alphabet size {L}")
        if s_ext == d_ext:
            report.self_loops_dropped += 1
            continue
        if (s_ext, d_ext) in effective:
            report.collapsed_in_batch += 1
        effective[(s_ext, d_ext)] = label

    # Intern external ids; new nodes take dense ids in first-appearance order.
    n_old = graph.node_count
    pending: dict = {}
    for s_ext, d_ext in effective:
        for tok in (s_ext, d_ext):
            if not graph.has_node(tok) and tok not in pending:
                if not auto_intern:
                    raise ValueError(f"unknown node id {tok!r} and auto_intern is disabled")
                pending[tok] = n_old + len(pending)
                report.new_node_ids.append(tok)
    report.new_nodes = len(pending)
    n_new = n_old + len(pending)

    def dense(tok):
        return pending[tok] if tok in pending else graph.node_of(tok)

    # Phase 1: each effective pair's old label (-1 if absent), found in the
    # old graph's sorted keys, and the merged graph by the loader's rule.
    src, dst, lbl = graph.edge_arrays
    b_src, b_dst, b_lbl = np.array([(dense(s), dense(d), label) for (s, d), label
                                    in effective.items()], dtype=np.int64).reshape(-1, 3).T
    keys, b_keys = src * n_new + dst, b_src * n_new + b_dst
    pos = np.searchsorted(keys, b_keys)
    hit = pos < keys.size
    hit[hit] = keys[pos[hit]] == b_keys[hit]
    b_old = np.full(b_keys.size, -1, dtype=np.int64)
    b_old[hit] = lbl[pos[hit]]
    changed = b_old != b_lbl
    relabel = changed & hit
    changes = list(zip(*(a[changed].tolist() for a in (b_src, b_dst, b_old, b_lbl))))
    report.unchanged = int(b_keys.size - changed.sum())
    report.relabeled = int(relabel.sum())
    report.added = len(changes) - report.relabeled

    src, dst, lbl, _, _ = normalize_edge_arrays(np.concatenate((src, b_src)),
                                                np.concatenate((dst, b_dst)),
                                                np.concatenate((lbl, b_lbl)), n_new)
    external_ids = graph.external_ids + report.new_node_ids
    new_graph = SignedGraph(n_new, src, dst, lbl, alphabet, external_ids)

    # Before any write: the pair counts phase 3a retracts must all exist.
    K, asg = partition.K, partition.assignment
    retracted = (asg[b_src[relabel]] * K + asg[b_dst[relabel]]) * L + b_old[relabel]
    short = np.bincount(retracted, minlength=K * K * L) > partition.pair_counts.reshape(-1)
    if short.any():
        c, d, l = np.unravel_index(int(np.argmax(short)), (K, K, L))
        raise ValueError(f"pair count for {(int(c), int(d))} label {int(l)} would go "
                         f"negative: the partition does not match the graph")

    # Phase 3a: partition pair counts for changed edges between existing nodes.
    for u, v, old, label in changes:
        if u < n_old and v < n_old:
            cu, cv = int(asg[u]), int(asg[v])
            if old >= 0:
                partition.add_edge_count(cu, cv, old, -1)
            partition.add_edge_count(cu, cv, label, +1)

    # Phase 3b: place new nodes, in dense-id order, on the objective-greedy
    # cluster; each incident edge is committed exactly once, when its later
    # endpoint is assigned.
    if report.new_nodes:
        partition.extend(report.new_nodes)
        incident: dict = {w: [] for w in range(n_old, n_new)}
        for u, v, _, label in changes:     # a new node's pairs are all added
            if u >= n_old:
                incident[u].append((u, v, label))
            if v >= n_old:
                incident[v].append((u, v, label))
        assignment = partition.assignment
        for w in range(n_old, n_new):
            ready = [(u, v, label) for u, v, label in incident[w]
                     if assignment[v if u == w else u] >= 0]
            best = (int(np.argmin(partition.placement_deltas(w, ready))) if ready
                    else partition.largest_cluster())
            partition.assign_new(w, best)
            for u, v, label in ready:       # w's own cluster is now best
                partition.add_edge_count(int(assignment[u]), int(assignment[v]), label, +1)

    # Phase 4: both tables, per changed tail: move its incidence pairs from
    # its old out-edges to its new ones (clusters from the final assignment).
    assignment, no_edges = partition.assignment, (b_src[:0], b_lbl[:0])
    for u in {u for u, _, _, _ in changes}:
        before = graph.out_arrays(u) if u < n_old else no_edges
        after = new_graph.out_arrays(u)
        if counts.strategy == "precomputed":
            _move_incidences(counts.table, (), _incidence_set(*before), _incidence_set(*after))
        _move_incidences(cluster_counts.table, (int(assignment[u]),),
                         _incidence_set(*before, assignment), _incidence_set(*after, assignment))

    counts.graph = new_graph
    cluster_counts.graph = new_graph
    partition.graph = new_graph
    return new_graph, report
