"""Exact co-occurrence statistics behind all predictors.

Two count families are provided:

* node-level: how many nodes point at both of two given nodes with given
  labels (intersection sizes of in-neighborhood tail sets), counted on
  demand from the graph's CSR arrays (``block_table``), or read from a
  precomputed store, which ``apply_edge_batch`` keeps current under an
  edge stream and which can be exported as a snapshot;
* cluster-level: given a partition, how many nodes of one cluster have at
  least one edge into each of two given clusters with given labels.

Both families support an "any label" selector (the ``ANY`` sentinel) with
set-union semantics. At node level the per-label tail sets partition the
pooled tail set (one edge per ordered pair), so summing per-label counts
reproduces the ANY count. At cluster level that identity does NOT hold: a
single node can carry several labels into the same cluster, so ANY is a
genuine union, never a sum.

Every node-level count is an entry of a co-citation product, count(j, l,
x, l') = (A_l^T A_l')[j, x] with A_l the adjacency matrix restricted to
label l. One kernel, ``_copointing``, enumerates its units by label-split
in-row j * L + l: each in-edge w -> j labeled l with each out-edge of w.
``block_table`` runs it over a block of receivers, the store build over all
n * L in-rows. One reader, ``node_evidence``, serves every node-level read
for both count strategies, from a store with one lookup, else gathered from
the block's ``block_table``; a mirrored count is read by symmetry, count(x,
l', j, l) = count(j, l, x, l'). ``context_evidence`` reads it a receiver
block at a time; ``predict`` and ``count`` with a block of one receiver.

The precomputed node-level store (``NodeCountStore``) holds concrete keys
only, (m, l, n, lp) with both labels real, and each once with its mirror
(n, lp, m, l): for the in-rows a = m * L + l and b = n * L + lp it keeps
the sorted ``int64`` code min(a, b) * R * L + max(a, b), with the node radix
R = ``_node_radix(L)`` fixed by the alphabet, and an ``int64`` count: 16
bytes per entry, about half the ordered keys. A store holds at most R
nodes, ~7.2e8 for L = 2; no node count enters a code, so a stream that adds
nodes never re-encodes the store. Every ANY count is derived by
summing over labels, exact at node level. The build enumerates each
unordered pair once, encodes the pairs in place, sorts them in place and
counts them by run starts (``_run_starts``); reads use ``searchsorted``, and
``CooccurrenceCounts.table`` shows the store as a read-only mapping over
all four key families. A stream batch touches only the out-edge pairs
that hold a changed edge (``_pairs_through``), so its cost is
O(out-degree) per changed edge, not O(out-degree^2) per changed tail:
counts of keys already present change in place and new keys go into a
small sorted pending run, which every read also searches and which is
merged into the main run only when it outgrows a fixed fraction of it (the
log-structured merge of O'Neil et al., Acta Informatica 33, 1996). On the
2,000-node, 34k-edge serve-stream graph the store holds 0.29M entries
(4.6 MB) after a ~0.013 s build and 0.39M after 315 stream batches.

The cluster table is one dense ``int64`` array (K, K, L + 1, K, L + 1), ANY
at label index 0. A node's 0/1 incidence row (``_incidence_rows``) marks
each (cluster, label) and (cluster, ANY) it points into; cluster s's slice
is R.T @ R over its nodes' rows, and a stream batch adds N.T @ N - O.T @ O
over its changed tails' rows in the new and the old graph, as the sparse
D.T @ N + O.T @ D with D = N - O. Queries read it by fancy indexing
(``cluster_evidence``). At K = 30, L = 2 it has 243k cells (1.9 MB),
built in ~0.01–0.02 s on the serve-stream graph. Every
batch is read in one pass and spliced into a new ``SignedGraph``
(``splice_edges``); the partition's own all-or-nothing retract of the
relabels' old labels is the check that it matches the graph.
"""

from __future__ import annotations

import operator
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .graph import SignedGraph, _ranges

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


def _run_starts(run):
    """Index of the first entry of each run of equal values in the sorted ``run``."""
    start = np.empty(run.size, dtype=bool)      # no sentinel: exact for any values, and empty
    start[:1] = True
    np.not_equal(run[1:], run[:-1], out=start[1:])
    return np.flatnonzero(start)


def _sum_by_code(codes, vals):
    """The distinct ``codes``, sorted, with the sum of ``vals`` at each."""
    order = np.argsort(codes, kind="stable")
    codes, vals = codes[order], vals[order]
    start = _run_starts(codes)
    return codes[start], np.add.reduceat(vals, start)


def _find(run, codes):
    """(position, present) of each of ``codes`` in the sorted ``run``."""
    if not run.size:
        return np.zeros(codes.shape, dtype=np.intp), np.zeros(codes.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(run, codes), run.size - 1)
    return pos, run[pos] == codes


#: The pending run of a ``NodeCountStore`` is merged into its main run once
#: it holds more than this fraction of the main run's entries.
MERGE_FRACTION = 1 / 32


class NodeCountStore:
    """Concrete node-level counts as sorted ``int64`` codes with ``int64`` counts.

    The key (m, l, n, lp), labels real, and its mirror (n, lp, m, l) share
    one entry, as count(m, l, n, lp) = count(n, lp, m, l): with a = m * L + l
    and b = n * L + lp its code is min(a, b) * R * L + max(a, b), with the node
    radix R = ``_node_radix(L)``, so code order is the order of the keys with
    a <= b for any node count up to R. Entries live in two sorted runs that
    never share a code: the main run, and a small pending run that takes
    the keys a stream batch adds. A read searches both. An update changes
    present keys in place, zeros included; zeros are dropped only when the
    pending run outgrows ``MERGE_FRACTION`` of the main run and the two are
    merged (``_merge_runs``, which ``nonzero`` reads through too).
    """

    def __init__(self, L: int, codes: np.ndarray, vals: np.ndarray):
        self.L, self.R = int(L), _node_radix(int(L))
        self.codes, self.vals = codes, vals
        self.pending_codes = self.pending_vals = np.empty(0, dtype=np.int64)
        self.merges = 0

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.codes, self.vals,
                                      self.pending_codes, self.pending_vals))

    def encode(self, m, l, n, lp):
        """Codes of the concrete keys (m, l, n, lp), broadcast over arrays; a key
        and its mirror (n, lp, m, l) share one code (``_pair_code``)."""
        a = np.asarray(m, dtype=np.int64) * self.L + l
        return _pair_code(a, np.asarray(n, dtype=np.int64) * self.L + lp, self.R * self.L)

    def get(self, codes) -> np.ndarray:
        """The counts at ``codes``, 0 where absent."""
        out = np.zeros(codes.shape, dtype=np.int64)
        for run, vals in ((self.codes, self.vals), (self.pending_codes, self.pending_vals)):
            pos, hit = _find(run, codes)
            out[hit] = vals[pos[hit]]
        return out

    def add(self, codes: np.ndarray, deltas: np.ndarray) -> None:
        """Add ``deltas`` at the distinct sorted ``codes``."""
        pos, hit = _find(self.codes, codes)
        self.vals[pos[hit]] += deltas[hit]
        codes, deltas = codes[~hit], deltas[~hit]
        if not codes.size:
            return
        at = np.searchsorted(self.pending_codes, codes)
        hit = at < self.pending_codes.size
        hit[hit] = self.pending_codes[at[hit]] == codes[hit]
        self.pending_vals[at[hit]] += deltas[hit]
        self.pending_codes, self.pending_vals = _interleave(
            [self.pending_codes, self.pending_vals, codes[~hit], deltas[~hit]], at[~hit])
        if self.pending_codes.size > self.codes.size * MERGE_FRACTION:
            runs = [self.codes, self.vals, self.pending_codes, self.pending_vals]
            self.codes = self.vals = self.pending_codes = self.pending_vals = None
            self.codes, self.vals = _merge_runs(runs)   # frees each old run once copied
            self.pending_codes = self.pending_vals = np.empty(0, dtype=np.int64)
            self.merges += 1

    def nonzero(self):
        """(codes, counts) of the nonzero entries of both runs, sorted: one per
        unordered pair, the keys with m * L + l <= n * L + lp."""
        return _merge_runs([self.codes, self.vals, self.pending_codes, self.pending_vals])


def _pair_code(a, b, RL: int):
    """The store code of the in-rows ``a``, ``b`` in either order: min * RL + max."""
    return np.minimum(a, b) * RL + np.maximum(a, b)


def _node_radix(L: int) -> int:
    """The node radix of store codes for ``L`` labels, and the most nodes a store
    holds: R * (L + 1) <= 2**31, so a store code (< (R * L)**2) and a code of
    ``NodeTableView``'s four key families (< (R * (L + 1))**2) fit in ``int64``."""
    return (1 << 31) // (L + 1)


def _interleave(runs, at):
    """The sorted runs ``[codes, counts, other codes, other counts]`` as one,
    zeros kept; ``at`` is ``searchsorted(codes, other codes)``.

    Other entry i lands at ``at[i] + i`` of the merged order. Each output
    array is written once, at the merged size, through one mask, and each
    input leaves ``runs`` once copied, so one held nowhere else is freed then.
    """
    size = runs[0].size + runs[2].size
    from_other = np.zeros(size, dtype=bool)
    from_other[at + np.arange(runs[2].size)] = True
    from_main = ~from_other
    out = []
    for i in (0, 1):
        out.append(np.empty(size, dtype=np.int64))
        out[i][from_main] = runs[i]
        out[i][from_other] = runs[i + 2]
        runs[i] = runs[i + 2] = None
    return out


def _merge_runs(runs):
    """The nonzero entries of the sorted runs ``[codes, counts, pending codes,
    pending counts]`` (``_interleave``); zeros are dropped, if any."""
    out = _interleave(runs, np.searchsorted(runs[0], runs[2]))
    keep = out[1] != 0
    if not keep.all():
        for i in (0, 1):
            out[i] = out[i][keep]
    return tuple(out)


def _copointing(graph: SignedGraph, rows, radix: int, first=None) -> np.ndarray:
    """Codes (k * radix + x) * L + lx of the co-pointing pairs of in-rows ``rows``:
    each in-edge w -> j labeled l of ``rows[k] = j * L + l`` with each out-edge
    w -> x labeled lx, one unit of count(j, l, x, lx). With ``first``, in-edge
    t of the in-index pairs only with w's out-edges from ``first[t]`` on. Encoded
    in place, so each step allocates one gathered column, not a new code array."""
    out_ptr, heads, labels, in_ptr, in_tails = graph.csr()
    t, k = _ranges(in_ptr[rows], in_ptr[rows + 1])
    tails = in_tails[t]
    e, codes = _ranges(out_ptr[tails] if first is None else first[t], out_ptr[tails + 1])
    codes = k[codes]            # the row index k of each pair
    codes *= radix
    codes += heads[e]
    codes *= graph.alphabet.size
    codes += labels[e]
    return codes


def _pairs_through(graph: SignedGraph, tails, heads, labels):
    """Store codes and signs of the out-edge pairs through some edges.

    The edges ``(tails[k], heads[k], labels[k])`` are out-edges of
    ``graph``. For a tail with out-edges S, X of them given, each unordered
    pair that holds an edge of X is returned once, as S x X (+1 each) less
    the pairs x_i, x_j with i < j of X (-1 each), which S x X holds twice.
    The cost is O(out-degree) per given edge.
    """
    out_ptr, h, lab, _, _ = graph.csr()
    L = graph.alphabet.size
    order = np.argsort(tails, kind="stable")
    tails = tails[order]
    x = heads[order] * L + labels[order]        # in-row of each given edge
    e, k = _ranges(out_ptr[tails], out_ptr[tails + 1])
    j, i = _ranges(np.arange(1, tails.size + 1), np.searchsorted(tails, tails, side="right"))
    codes = _pair_code(np.concatenate((h[e] * L + lab[e], x[i])),
                       np.concatenate((x[k], x[j])), _node_radix(L) * L)
    return codes, np.repeat([1, -1], [k.size, j.size])


class _CountView(Mapping):
    """Read-only key -> count mapping of the nonzero counts of a table.

    ``_count(key)`` reads one key (0 if absent, TypeError or ValueError if
    malformed); ``_columns()`` gives every nonzero key's fields and its
    count as arrays, in sorted key order, so iteration decodes in bulk.
    """

    def __getitem__(self, key):
        try:
            c = self._count(key)
        except (TypeError, ValueError):
            raise KeyError(key) from None
        if not c:
            raise KeyError(key)
        return c

    def __iter__(self):
        return zip(*(c.tolist() for c in self._columns()[:-1]))

    def items(self):
        return _BulkItems(self)


class _BulkItems(ItemsView):
    def __iter__(self):
        *key, vals = self._mapping._columns()
        return zip(zip(*(c.tolist() for c in key)), vals.tolist())


class NodeTableView(_CountView):
    """Read-only ``(m, l, n, lp) -> count`` mapping of a precomputed store.

    It holds the nonzero counts of all four key families, ANY = -1
    included, and nothing else. Each iteration mirrors the store's
    off-diagonal entries and rebuilds the ANY families from them, so it
    costs a sort of four times the ordered concrete keys.
    """

    def __init__(self, store: NodeCountStore):
        self._store = store

    def _count(self, key) -> int:
        st = self._store
        return _count(None, st, st.R, st.L, key)

    def _columns(self):
        # Keys in tuple order: labels stored as label + 1 (ANY = 0), radix L + 1.
        st = self._store
        R, L, L1 = st.R, st.L, st.L + 1
        codes, vals = st.nonzero()
        ml, nlp = np.divmod(codes, R * L)
        off = ml != nlp                             # a mirror key of its own
        ml, nlp, vals = (np.concatenate(p) for p in ((ml, nlp[off]), (nlp, ml[off]),
                                                     (vals, vals[off])))
        m, l = np.divmod(ml, L)
        n, lp = np.divmod(nlp, L)
        full = np.concatenate([((m * L1 + a) * R + n) * L1 + b
                               for a in (l + 1, 0) for b in (lp + 1, 0)])
        full, vals = _sum_by_code(full, np.tile(vals, 4))
        ml, nlp = np.divmod(full, R * L1)
        m, l = np.divmod(ml, L1)
        n, lp = np.divmod(nlp, L1)
        return m, l - 1, n, lp - 1, vals

    def __len__(self) -> int:
        return int(self._columns()[4].size)


class CooccurrenceCounts:
    """Node-pair co-pointing counts, read from a store or from the graph.

    ``build_precomputed_nam`` gives one that holds a ``NodeCountStore``
    (every tail's out-edge pairs, each unordered pair once), which stream
    updates keep current; ``table`` is its read-only mapping view.
    ``on_demand`` gives one without a store (``table`` None): each read
    counts the co-pointers of one node with ``block_table`` on the graph,
    which it never changes. Such a read costs O(n * L**2) (one dense
    receiver table); callers that need many counts should read a query's
    entries at once (``node_evidence``) or use ``predict_many``.
    """

    def __init__(self, graph: SignedGraph, store: Optional[NodeCountStore] = None,
                 projected_pair_cost: Optional[int] = None):
        self.graph = graph
        self.store = store
        self.table = NodeTableView(store) if store is not None else None
        self.projected_pair_cost = projected_pair_cost

    @classmethod
    def on_demand(cls, graph: SignedGraph) -> "CooccurrenceCounts":
        return cls(graph)

    def count(self, m: int, l: int, n: int, lp: int) -> int:
        """count(m, l, n, lp) read through ``node_evidence`` (``_count``).

        Without a store each call builds m's ``block_table``, O(n * L**2).
        """
        g = self.graph
        return _count(g, self.store, g.node_count, g.alphabet.size, (m, l, n, lp))


def projected_pair_cost(graph: SignedGraph) -> int:
    """sum(out_degree^2), the ordered out-edge pairs: the cost that ``budget``
    bounds. The build enumerates sum(d (d + 1) / 2), each unordered pair once."""
    deg = np.diff(graph.csr()[0])
    return int(np.sum(deg * deg))


def build_precomputed_nam(graph: SignedGraph, budget: int = DEFAULT_PAIR_BUDGET,
                          override: bool = False) -> CooccurrenceCounts:
    """Build the node-level count store in one vectorized pass over in-rows.

    The co-pointing pairs of all n * L in-rows (``_copointing``, the kernel
    of ``block_table``) are encoded as store codes in place, sorted in place
    and counted by run starts: the store holds concrete keys only, each
    unordered pair once, 16 bytes each. Each in-edge w -> j pairs only with
    w's out-edges from w -> j on (out-edges are sorted by head), found by one
    ``argsort`` of the in-index keys: sum(d (d + 1) / 2) pairs.
    ``projected_pair_cost`` is reported on the result and guarded by
    ``budget``; a store holds at most ``_node_radix(L)`` nodes. At 2,000
    nodes and 34k edges (0.29M entries) the build takes ~0.013 s on a
    2-vCPU Xeon, with a ``tracemalloc`` peak of 11.5 MB; at 40k edges
    (0.39M) ~0.017 s and 15.6 MB.

    Args:
        graph: the graph to index.
        budget: maximum allowed ordered-pair count.
        override: build even when the budget is exceeded.

    Returns:
        A precomputed CooccurrenceCounts with ``projected_pair_cost`` set.

    Raises:
        BudgetExceededError: projected cost exceeds budget and not overridden.
        ValueError: the graph has more nodes than a store holds.
    """
    n, L = graph.node_count, graph.alphabet.size
    if n > _node_radix(L):
        raise ValueError(f"{n} nodes; a node store holds at most {_node_radix(L)}")
    cost = projected_pair_cost(graph)
    if cost > budget and not override:
        raise BudgetExceededError(cost, budget)
    src, dst, lbl = graph.edge_arrays
    first = np.argsort((dst * L + lbl) * n + src)       # out-edge of each in-index entry
    codes = _copointing(graph, np.arange(n * L), _node_radix(L), first)
    codes.sort()
    start = _run_starts(codes)
    store = NodeCountStore(L, codes[start], np.diff(start, append=codes.size))
    return CooccurrenceCounts(graph, store, projected_pair_cost=cost)


# -- batched node-level evidence -----------------------------------------------

#: Budget of one receiver block of ``context_evidence`` read from the
#: graph: the ordered (in-tail, out-edge) pairs it enumerates and the cells
#: of its count table; read from a store: the out-edges of its queries'
#: initiators, a bound on the context entries it looks up. Only a block
#: that holds a single receiver may exceed one.
BLOCK_PAIRS = 4096
BLOCK_CELLS = 16384
BLOCK_ENTRIES = 16384


def receiver_blocks(graph: SignedGraph, receivers, initiators=None) -> list:
    """Split the distinct receivers, ascending, into consecutive blocks.

    Without ``initiators`` a block is sized for its ``block_table``: it
    enumerates sum(outdeg(w)) pairs over the in-tails w of its receivers
    and allocates ``len(block) * n * L**2`` table cells, within BLOCK_PAIRS
    and BLOCK_CELLS. With the queries' ``initiators`` (aligned with
    ``receivers``) it is sized for a store lookup: the out-degrees of the
    initiators of its queries sum to at most BLOCK_ENTRIES. A block of one
    receiver may exceed these bounds.
    """
    out_ptr, _, _, in_ptr, in_tails = graph.csr()
    n, L = graph.node_count, graph.alphabet.size
    queried = np.asarray(receivers, dtype=np.int64)
    receivers = np.sort(queried)
    receivers = receivers[_run_starts(receivers)]
    if initiators is None:
        t, k = _ranges(in_ptr[receivers * L], in_ptr[(receivers + 1) * L])
        cost = np.bincount(k, np.diff(out_ptr)[in_tails[t]], receivers.size)
        budget, per_block = BLOCK_PAIRS, max(1, BLOCK_CELLS // max(1, n * L * L))
    else:
        cost = np.bincount(queried, np.diff(out_ptr)[initiators], n)[receivers]
        budget, per_block = BLOCK_ENTRIES, receivers.size
    blocks, cur, cur_cost = [], [], 0
    for r, c in zip(receivers.tolist(), cost.astype(np.int64).tolist()):
        if cur and (cur_cost + c > budget or len(cur) == per_block):
            blocks.append(np.array(cur, dtype=np.int64))
            cur, cur_cost = [], 0
        cur.append(r)
        cur_cost += c
    if cur:
        blocks.append(np.array(cur, dtype=np.int64))
    return blocks


def block_table(graph: SignedGraph, block: np.ndarray) -> np.ndarray:
    """Co-pointing counts of a receiver block: ``T[b, l, x, lp] = count(block[b], l, x, lp)``.

    The co-pointing pairs of the block's in-rows (``_copointing``) are
    counted with one ``np.bincount`` of n * L**2 cells per receiver."""
    n, L = graph.node_count, graph.alphabet.size
    rows = (block[:, None] * L + np.arange(L)).ravel()        # row b * L + l
    key = _copointing(graph, rows, n)
    return np.bincount(key, minlength=rows.size * n * L).reshape(block.size, L, n, L)


def node_evidence(graph: SignedGraph, store: Optional[NodeCountStore], block: np.ndarray,
                  b, x: np.ndarray, lx: np.ndarray, mirrored: bool):
    """``(num, mir)`` of context entries (x, lx) of receivers ``block[b]``.

    ``num[e, l] = count(block[b_e], l, x_e, lx_e)`` and, if ``mirrored``,
    ``mir[e, l] = count(x_e, ANY, block[b_e], l)`` (else None); ``b`` is an
    index array, or one index for one receiver. Both are read by symmetry,
    count(x, l2, j, l) = count(j, l, x, l2), from the (l, l2) grid of (j, x):
    ``mir[e, l] = grid[e, l, :].sum()``, summed after the gather so that no
    step reduces a whole table. With a ``store`` the grid (``num`` alone if
    not ``mirrored``) is one ``get`` of its codes; without one it is
    gathered from the block's ``block_table`` on ``graph``."""
    if store is None:
        table = block_table(graph, block)
        return table[b, :, x, lx], (table[b, :, x].sum(axis=-1) if mirrored else None)
    lab, j = np.arange(store.L), block[b, None]
    if not mirrored:
        return store.get(store.encode(j, lab, x[:, None], lx[:, None])), None
    grid = store.get(store.encode(j[..., None], lab[:, None], x[:, None, None], lab))
    return grid[np.arange(x.size), :, lx], grid.sum(axis=-1)


def _count(graph, store, N: int, L: int, key) -> int:
    """count(m, l, n, lp) read through ``node_evidence``: an ANY label sums over
    its labels, a key out of range is 0, a field that is not an integer
    raises TypeError (``operator.index``)."""
    m, l, n, lp = map(operator.index, key)
    if not (0 <= m < N and 0 <= n < N and ANY <= l < L and ANY <= lp < L):
        return 0
    num, _ = node_evidence(graph, store, np.array([m]), 0, np.full(L, n), np.arange(L), False)
    whole = slice(None)             # num[lp, l] = count(m, l, n, lp)
    return int(num[whole if lp == ANY else lp, whole if l == ANY else l].sum())


@dataclass
class EvidenceBlock:
    """Context entries of some queries, with their node-level counts.

    ``context_evidence`` yields one per receiver block; ``predict`` builds
    one for a single query. Entries are ordered by query, then by context
    position (``context_of`` order). ``num`` is None when counts were not
    asked for, ``mirrored`` also when its model does not read it.
    """

    queries: np.ndarray            # (Q_b,) indices into the caller's query arrays
    sizes: np.ndarray              # (Q_b,) context size of each query
    row: np.ndarray                # (m,) each entry's query, as an index into ``queries``
    position: np.ndarray           # (m,) index of the entry in its query's context
    heads: np.ndarray              # (m,) context head x
    labels: np.ndarray             # (m,) its label l_x
    num: Optional[np.ndarray]      # (m, L) count(j, l, x, l_x) for every label l
    mirrored: Optional[np.ndarray] # (m, L) count(x, ANY, j, l) for every label l


def context_evidence(counts: CooccurrenceCounts, initiators, receivers,
                     mirrored: Optional[bool] = True):
    """Yield the context entries of many queries, one receiver block at a time.

    Query q is ``initiators[q] -> receivers[q]`` on ``counts.graph``; its
    context is that of ``context_of``. The counts are read from ``counts``
    through ``node_evidence``, a block at a time, so a store or the graph
    serves them; ``receiver_blocks`` sizes the blocks for the one that
    does. At node level ANY counts are sums over labels, so count(j, ANY,
    x, l_x) is ``num.sum(axis=1)``. ``mirrored`` None reads no counts,
    False ``num`` alone, True ``num`` and the mirrored counts.
    """
    graph = counts.graph
    initiators = np.asarray(initiators, dtype=np.int64)
    receivers = np.asarray(receivers, dtype=np.int64)
    out_ptr, heads, labels, _, _ = graph.csr()
    order = np.argsort(receivers, kind="stable")
    by_receiver = receivers[order]
    store = counts.store
    for block in receiver_blocks(graph, receivers, None if store is None else initiators):
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
        num = mir = None
        if mirrored is not None:
            num, mir = node_evidence(graph, store, block,
                                     np.searchsorted(block, j[row]), x, lx, mirrored)
        yield EvidenceBlock(q, sizes, row, position, x, lx, num, mir)


# -- cluster-level counts -----------------------------------------------------

#: Largest dense cluster table in cells, K^3 (L + 1)^2: 512 MB of int64.
MAX_CLUSTER_CELLS = 2 ** 26


def _incidence_rows(graph: SignedGraph, assignment, tails, K: int) -> np.ndarray:
    """0/1 incidence rows of ``tails``, one column per (cluster c, label or ANY).

    Column c * (L + 1) is 1 when the tail has an out-edge into cluster c,
    column c * (L + 1) + l + 1 when it has one labeled l.
    """
    out_ptr, heads, labels, _, _ = graph.csr()
    L1 = graph.alphabet.size + 1
    e, k = _ranges(out_ptr[tails], out_ptr[tails + 1])
    col = assignment[heads[e]] * L1
    rows = np.zeros((tails.size, K * L1), dtype=np.int64)
    rows[k, col] = 1
    rows[k, col + labels[e] + 1] = 1
    return rows


def _read(array: np.ndarray, key) -> int:
    """The count at the integer key (s, m, l, n, lp) of a dense table, 0 out of range."""
    s, m, l, n, lp = map(operator.index, key)
    cell = (s, m, l + 1, n, lp + 1)
    return int(array[cell]) if all(0 <= i < d for i, d in zip(cell, array.shape)) else 0


class ClusterTableView(_CountView):
    """Read-only ``(s, m, l, n, lp) -> count`` mapping of a dense cluster table.

    It holds the nonzero cells, ANY = -1 included; two views of one shape
    compare cell by cell, without decoding. It keeps the array only, never
    its ``ClusterCounts``, so dropping the counts frees their graph without
    the cyclic collector.
    """

    def __init__(self, array: np.ndarray):
        self._array = array

    def _count(self, key) -> int:
        return _read(self._array, key)

    def _columns(self):
        s, m, l, n, lp = key = np.nonzero(self._array)     # C order is sorted key order
        return s, m, l - 1, n, lp - 1, self._array[key]

    def __len__(self) -> int:
        return int(np.count_nonzero(self._array))

    def __eq__(self, other):
        if isinstance(other, ClusterTableView) and other._array.shape == self._array.shape:
            return bool(np.array_equal(self._array, other._array))
        return super().__eq__(other)


class ClusterCounts:
    """Dense table of cluster-level co-incidence counts.

    ``array[s, m, l + 1, n, lp + 1]`` (index 0 for ANY) is how many nodes
    assigned to cluster ``s`` have at least one edge into cluster ``m`` with
    label ``l`` and at least one into cluster ``n`` with label ``lp``.
    Entries never exceed the size of cluster ``s``. ``table`` is its
    read-only mapping view.
    """

    def __init__(self, graph: SignedGraph, partition, array: np.ndarray):
        self.graph = graph
        self.partition = partition
        self.array = array
        self.table = ClusterTableView(array)

    @classmethod
    def from_partition(cls, graph: SignedGraph, partition) -> "ClusterCounts":
        """Build the table one cluster at a time: the slice of cluster s is
        ``R.T @ R`` over the incidence rows R of its nodes (``_incidence_rows``).

        Raises:
            ValueError: the table would exceed ``MAX_CLUSTER_CELLS``.
        """
        K, L1, asg = partition.K, graph.alphabet.size + 1, partition.assignment
        cells = K ** 3 * L1 ** 2
        if cells > MAX_CLUSTER_CELLS:
            raise ValueError(f"K = {K} clusters need a {cells}-cell cluster table; "
                             f"the limit is {MAX_CLUSTER_CELLS}")
        array = np.zeros((K, K, L1, K, L1), dtype=np.int64)
        order = np.argsort(asg, kind="stable")
        bounds = np.searchsorted(asg[order], np.arange(K + 1))
        for s in np.flatnonzero(np.diff(bounds)).tolist():
            rows = _incidence_rows(graph, asg, order[bounds[s]:bounds[s + 1]], K)
            array[s] = (rows.T @ rows).reshape(K, L1, K, L1)
        return cls(graph, partition, array)

    def count(self, s: int, m: int, l: int, n: int, lp: int) -> int:
        """count(s, m, l, n, lp); a key out of range is 0, a non-integer one raises."""
        return _read(self.array, (s, m, l, n, lp))


def cluster_evidence(cluster_counts: ClusterCounts, s, m, l, n):
    """Cluster counts of context entries, read by fancy indexing the dense table.

    Per entry, with ``s``/``n`` the initiator's/receiver's clusters (scalars
    or arrays) and ``m``/``l`` the entry's head cluster and label: the
    count(s, m, l, n, lp) for every label lp, count(s, m, l, n, ANY), and
    count(s, m, ANY, n, lp) for every lp.
    """
    a = cluster_counts.array
    rows = a[s, m, l + 1, n]
    return rows[:, 1:], rows[:, 0], a[s, m, 0, n, 1:]


# -- snapshots ---------------------------------------------------------------

NAM_SNAPSHOT_HEADER = "nam-snapshot v1"
CAM_SNAPSHOT_HEADER = "cam-snapshot v1"


def _write_snapshot(path, header: str, sizes: str, table) -> None:
    """Write ``table`` as versioned text: header, size line, then one
    ``<key fields> <count>`` line per key, in the sorted key order the views
    iterate in (``_CountView._columns``). Plain integers only, so
    files are identical across platforms. The file is an export: nothing
    reads it back."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{header}\n{sizes}\n")
        for key, c in table.items():
            fh.write(f"{' '.join(map(str, key))} {c}\n")


def save_nam_snapshot(counts: CooccurrenceCounts, path) -> None:
    """Write a precomputed node-level table as a snapshot (``_write_snapshot``)."""
    if counts.store is None:
        raise ValueError("only precomputed count tables can be snapshotted")
    g = counts.graph
    _write_snapshot(path, NAM_SNAPSHOT_HEADER,
                    f"nodes {g.node_count} labels {g.alphabet.size}", counts.table)


def save_cam_snapshot(cluster_counts: ClusterCounts, path) -> None:
    """Write a cluster-level table as a snapshot (``_write_snapshot``)."""
    _write_snapshot(path, CAM_SNAPSHOT_HEADER,
                    f"clusters {cluster_counts.partition.K} labels "
                    f"{cluster_counts.graph.alphabet.size}", cluster_counts.table)


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
    the new one is added. The merged graph is the old one with the batch
    spliced in (``SignedGraph.splice_edges``), so the batch label wins.
    After the call every count equals what a from-scratch build on the
    extended graph would produce; existing cluster assignments are untouched and brand-new
    nodes are placed on the cluster whose objective delta is smallest
    (largest cluster when edge-free).

    The merged graph costs O(edges) in array copies, with no sort. The
    node store's delta is, in one vectorized pass, the out-edge pairs
    through a gained edge (in the new graph) minus those through a lost
    one (in the old graph), each unordered pair once: O(out-degree) per
    changed edge, so a hub tail costs no more than its degree. It changes
    present keys in place and adds new keys to the store's pending run,
    which is merged into the main run now and then (``NodeCountStore``).
    The cluster table adds the sparse D.T @ N + O.T @ D of the changed
    tails' incidence rows in the new (N) and the old (O) graph, D = N - O,
    as two scatters: O(out-degree + K (L + 1)) per changed (tail, column).
    On the 2,000-node serve-stream graph a 20-edge batch takes ~1.3–1.4 ms
    median on a 2-vCPU Xeon: ~0.5 ms for the spliced graph, ~0.4 ms for the
    node store outside its merges (~8–10 ms each).

    Phases: 0, one pass normalizes the batch and interns its ids, and a
    batch that brings a store past its node limit (``_node_radix``) raises
    ValueError; 1, the spliced graph and each pair's old label; 2, the node
    store's delta; 3a, the first write: the partition retracts the relabels'
    old labels in one all-or-nothing call (the check that it matches the
    graph), then adds the new labels; 3b, new nodes are placed; 4, the node
    store and the cluster table take their deltas.

    The caller must hold exclusive access: ``counts``, ``cluster_counts``
    and its partition are mutated in place and rebound to the returned
    graph. All three must be bound to ``graph``, and the partition must hold
    the pair count of every edge the batch relabels (phase 3a); otherwise
    the call raises ValueError before anything is changed.

    Args:
        counts: node-level counts; a store is updated in place, and
            counts without one (``on_demand``) are only rebound to the new
            graph, which they count from.
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
    L = graph.alphabet.size
    report = BatchReport()

    # Phase 0: normalize the batch (drop self-loops, last label per pair
    # wins) and intern its ids: new nodes take dense ids in first-appearance
    # order, and an id seen only in a self-loop is not interned.
    n_old, fresh, effective = graph.node_count, {}, {}

    def dense(tok):
        if graph.has_node(tok):
            return graph.node_of(tok)
        if tok not in fresh and not auto_intern:
            raise ValueError(f"unknown node id {tok!r} and auto_intern is disabled")
        return fresh.setdefault(tok, n_old + len(fresh))

    for s_ext, d_ext, label in new_edges:
        label = int(label)
        if not (0 <= label < L):
            raise ValueError(f"label index {label} out of range for alphabet size {L}")
        if s_ext == d_ext:
            report.self_loops_dropped += 1
            continue
        pair = dense(s_ext), dense(d_ext)
        report.collapsed_in_batch += pair in effective
        effective[pair] = label
    report.new_node_ids = list(fresh)
    report.new_nodes = len(fresh)
    n_new = n_old + len(fresh)
    if counts.store is not None and n_new > counts.store.R:
        raise ValueError(f"{n_new} nodes; a node store holds at most {counts.store.R}")

    # Phase 1: the merged graph, spliced from the old one, and each
    # effective pair's old label (-1 if absent).
    b_src, b_dst, b_lbl = np.array([(s, d, label) for (s, d), label in effective.items()],
                                   dtype=np.int64).reshape(-1, 3).T
    new_graph, b_old = graph.splice_edges(b_src, b_dst, b_lbl, report.new_node_ids)
    changed = b_old != b_lbl
    relabel = changed & (b_old >= 0)
    report.unchanged = int(b_old.size - changed.sum())
    report.relabeled = int(relabel.sum())
    report.added = int(changed.sum()) - report.relabeled

    # Phase 2, before any write: the node store's delta, the unordered
    # out-edge pairs through a gained edge minus those through a lost one.
    tails = np.sort(b_src[changed])
    tails = tails[_run_starts(tails)]
    if counts.store is not None:
        gained, g_sign = _pairs_through(new_graph, b_src[changed], b_dst[changed],
                                        b_lbl[changed])
        lost, l_sign = _pairs_through(graph, b_src[relabel], b_dst[relabel], b_old[relabel])
        nam_codes, nam_delta = _sum_by_code(np.concatenate((gained, lost)),
                                            np.concatenate((g_sign, -l_sign)))
        moved = nam_delta != 0

    # Phase 3a, the first write: partition pair counts for changed edges
    # between existing nodes. The relabels' old labels are retracted first,
    # all or nothing, so a partition that lacks one of their pair counts
    # raises here, before anything has changed; then the new labels are added.
    K, asg = partition.K, partition.assignment
    partition.add_edge_counts(asg[b_src[relabel]], asg[b_dst[relabel]], b_old[relabel],
                              np.full(report.relabeled, -1))
    between = changed & (b_src < n_old) & (b_dst < n_old)
    partition.add_edge_counts(asg[b_src[between]], asg[b_dst[between]], b_lbl[between],
                              np.ones(int(between.sum()), dtype=np.int64))

    # Phase 3b: place new nodes, in dense-id order, on the objective-greedy
    # cluster; each changed edge of a new node (an added pair) is committed
    # exactly once, when its later endpoint is assigned.
    if report.new_nodes:
        partition.extend(report.new_nodes)
        assignment = partition.assignment
        cu, cv, cl = b_src[changed], b_dst[changed], b_lbl[changed]
        for w in range(n_old, n_new):
            mine = ((cu == w) | (cv == w)) & (assignment[np.where(cu == w, cv, cu)] >= 0)
            ready = list(zip(cu[mine].tolist(), cv[mine].tolist(), cl[mine].tolist()))
            best = (int(np.argmin(partition.placement_deltas(w, ready))) if ready
                    else partition.largest_cluster())
            partition.assign_new(w, best)
            if ready:                       # w's own cluster is now best
                partition.add_edge_counts(assignment[cu[mine]], assignment[cv[mine]],
                                          cl[mine], np.ones(len(ready), dtype=np.int64))

    # Phase 4: the node store takes its delta. Per cluster s of the changed
    # tails, the cluster table adds N.T @ N - O.T @ O = D.T @ N + O.T @ D
    # over their incidence rows in the new (N) and the old (O) graph (O = 0
    # for a new tail), under the final assignment, with D = N - O sparse:
    # each D[t, c] = v adds v * N[t] to row c of s, and v * O[t] to column c.
    if counts.store is not None:
        counts.store.add(nam_codes[moved], nam_delta[moved])
    assignment, was = partition.assignment, tails < n_old
    rows_new = _incidence_rows(new_graph, assignment, tails, K)
    rows_old = np.zeros_like(rows_new)
    rows_old[was] = _incidence_rows(graph, assignment, tails[was], K)
    diff = rows_new - rows_old
    t, c = np.nonzero(diff)
    v, s = diff[t, c][:, None], assignment[tails[t]]
    table = cluster_counts.array.reshape(K, K * (L + 1), K * (L + 1))    # a view
    np.add.at(table, (s, c), v * rows_new[t])
    np.add.at(table, (s, slice(None), c), v * rows_old[t])

    counts.graph = new_graph
    cluster_counts.graph = new_graph
    partition.graph = new_graph
    return new_graph, report
