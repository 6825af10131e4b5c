"""Signed directed graph data model.

A signed network is a directed graph whose edges carry a label from a small
alphabet (classically "+" / "-" for trust/distrust).  This module holds the
immutable graph snapshot every other part of the library reads from, plus the
ways of producing one: loading an edge-list file, generating a synthetic
role-structured graph, and sparsifying an existing graph by random edge
removal.

Normalization rules applied by every constructor path:

* self-loops are dropped,
* duplicate ordered pairs are collapsed, keeping the last occurrence
  (re-votes overwrite earlier votes),

so each ordered node pair carries at most one labeled edge.  This guarantees
that the per-label in-neighborhoods of a node are disjoint, which the
estimators' normalization relies on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np


class EdgeListParseError(ValueError):
    """Raised for malformed edge-list input; carries the offending line number."""


class LabelAlphabet:
    """Ordered label alphabet; labels are dense indices 0..size-1.

    The order is fixed for the lifetime of a model: tie-breaking in the
    decision rule depends on it.
    """

    def __init__(self, names: Sequence[str]):
        names = tuple(str(n) for n in names)
        if len(names) < 2:
            raise ValueError("label alphabet needs at least 2 labels")
        if len(set(names)) != len(names):
            raise ValueError("label names must be distinct")
        self.names = names

    @property
    def size(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        return self.names.index(name)

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelAlphabet) and self.names == other.names

    def __repr__(self) -> str:
        return f"LabelAlphabet({self.names!r})"


#: The classic trust/distrust alphabet.
SIGNED = LabelAlphabet(("+", "-"))


@dataclass
class LoadOptions:
    """Controls edge-list parsing.

    ``token_map`` maps sign tokens in the file to label indices; the default
    understands ``1``/``+1``/``+`` and ``-1``/``-``.  Supplying a larger
    alphabet plus its own token map makes the same loader read multi-label
    files.
    """

    alphabet: LabelAlphabet = field(default_factory=lambda: SIGNED)
    token_map: Optional[dict] = None

    def resolved_tokens(self) -> dict:
        """The sign-token map; raises ValueError if it names a label outside the alphabet."""
        tokens = {name: i for i, name in enumerate(self.alphabet.names)}
        if self.token_map is not None:
            tokens = dict(self.token_map)
        elif self.alphabet.names == SIGNED.names:
            tokens.update({"1": 0, "+1": 0, "-1": 1})
        if not set(tokens.values()) <= set(range(self.alphabet.size)):
            raise ValueError("token_map maps a sign token to a label outside the alphabet")
        return tokens


@dataclass
class LoadReport:
    """What the loader saw before and during normalization."""

    raw_lines: int = 0              # data lines parsed (comments excluded)
    raw_nodes: int = 0              # distinct external ids seen, incl. self-loop endpoints
    raw_label_counts: Optional[np.ndarray] = None   # per-label counts over raw data lines
    self_loops_dropped: int = 0
    duplicates_collapsed: int = 0

    @property
    def raw_edges(self) -> int:
        return self.raw_lines


class SignedGraph:
    """Immutable directed graph with labeled edges.

    Stores edges once, sorted by ``(src, dst)``, and derives two CSR-style
    views: out-adjacency per node, and one in-adjacency index split by label
    (each in-list strictly sorted by tail id).  A node's pooled in-list is
    read from its L contiguous label slices.  Safe for concurrent readers;
    never mutated after construction: counts and predictions read the CSR
    arrays and cache nothing on the graph (only the external-id dict is
    built lazily, on the first id lookup).
    The out-pointers are one ``searchsorted`` and the in-index one sort
    of the unique keys ``(dst * L + label) * n + src`` over all edges
    (~0.8 ms at 40k edges), unless ``index`` gives all three prebuilt as
    ``(out_ptr, in_ptr, in_tails)``, as ``splice_edges`` does; only then is
    ``external_ids`` kept as given, a fresh list, not copied.
    """

    def __init__(self, node_count, src, dst, lbl, alphabet, external_ids, index=None):
        # Inputs must already be normalized: unique ordered pairs, no
        # self-loops, sorted by (src, dst).
        self.node_count = int(node_count)
        self.alphabet = alphabet
        self.external_ids = external_ids if index is not None else list(external_ids)
        if len(self.external_ids) != self.node_count:
            raise ValueError("external id list does not match node count")

        self._src = np.asarray(src, dtype=np.int64)
        self._dst = np.asarray(dst, dtype=np.int64)
        self._lbl = np.asarray(lbl, dtype=np.int64)
        self.edge_count = int(self._src.size)

        n, L = self.node_count, alphabet.size
        if index is not None:
            self._out_ptr, self._inl_ptr, self._inl_src = index
            return
        self._out_ptr = np.searchsorted(self._src, np.arange(n + 1))

        # In-adjacency split by label, sorted by (dst, label, src): one sort
        # of the unique keys (dst * L + label) * n + src, in place.
        key = (self._dst * L + self._lbl) * n + self._src
        key.sort()
        self._inl_ptr = np.searchsorted(key, np.arange(n * L + 1) * n)
        self._inl_src = np.remainder(key, n, out=key)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_edges(cls, node_count, edges, alphabet=None, external_ids=None):
        """Build a graph from an iterable of ``(src, dst, label)`` dense-id triples.

        Applies the standard normalization (self-loops dropped, duplicate
        ordered pairs collapsed last-wins).
        """
        alphabet = alphabet or SIGNED
        edges = list(edges)
        if edges:
            src = np.array([e[0] for e in edges], dtype=np.int64)
            dst = np.array([e[1] for e in edges], dtype=np.int64)
            lbl = np.array([e[2] for e in edges], dtype=np.int64)
        else:
            src = dst = lbl = np.empty(0, dtype=np.int64)
        src, dst, lbl, _, _ = normalize_edge_arrays(src, dst, lbl, node_count)
        if external_ids is None:
            width = max(1, len(str(max(node_count - 1, 0))))
            external_ids = [f"{i:0{width}d}" for i in range(node_count)]
        return cls(node_count, src, dst, lbl, alphabet, external_ids)

    def replace_edges(self, src, dst, lbl) -> "SignedGraph":
        """New graph with a different edge set over the same nodes and id list.

        The arrays must already be normalized and sorted by ``(src, dst)``;
        used by sparsification and fold splitting.
        """
        return self._successor((), src, dst, lbl)

    def splice_edges(self, b_src, b_dst, b_lbl, new_ids=()):
        """(new graph, old labels): this graph with the batch's edges written over it.

        The batch holds distinct pairs, no self-loops, over this graph's
        nodes plus ``new_ids``, external ids appended in that order; ``old``
        is each pair's label before, or -1.
        Copies of both sorted edge orders are spliced, not re-sorted: added
        pairs are inserted, a relabel overwrites the out-edge label and
        moves the in-index entry to its new label slice.
        """
        n, L, grow = self.node_count + len(new_ids), self.alphabet.size, len(new_ids)
        out_ptr = np.concatenate((self._out_ptr, np.full(grow, self.edge_count)))
        in_ptr = np.concatenate((self._inl_ptr, np.full(grow * L, self.edge_count)))
        pos = _search_rows(out_ptr, b_src, b_dst, self._dst)
        hit = pos < out_ptr[b_src + 1]
        hit[hit] = self._dst[pos[hit]] == b_dst[hit]
        old = np.full(b_src.size, -1, dtype=np.int64)
        old[hit] = self._lbl[pos[hit]]
        lbl = self._lbl.copy()
        lbl[pos[hit]] = b_lbl[hit]
        add = np.flatnonzero(~hit)[np.argsort(b_src[~hit] * n + b_dst[~hit])]
        out_ptr[1:] += np.bincount(b_src[add], minlength=n).cumsum()
        src, dst, lbl = (np.insert(a, pos[add], b[add]) for a, b in
                         ((self._src, b_src), (self._dst, b_dst), (lbl, b_lbl)))
        # In-index rows are label slots dst * L + label: a relabel leaves its
        # old slot, and it and an added pair enter the slot of their label.
        leave = hit & (old != b_lbl)
        out_slots = b_dst[leave] * L + old[leave]
        gone = np.sort(_search_rows(in_ptr, out_slots, b_src[leave], self._inl_src))
        enter = leave | ~hit
        in_slots = b_dst[enter] * L + b_lbl[enter]
        order = np.argsort(in_slots * n + b_src[enter])
        at = _search_rows(in_ptr, in_slots[order], b_src[enter][order], self._inl_src)
        tails = np.insert(np.delete(self._inl_src, gone), at - np.searchsorted(gone, at),
                          b_src[enter][order])
        in_ptr[1:] += (np.bincount(in_slots, minlength=n * L)
                       - np.bincount(out_slots, minlength=n * L)).cumsum()
        return self._successor(new_ids, src, dst, lbl, (out_ptr, in_ptr, tails)), old

    def _successor(self, new_ids, src, dst, lbl, index=None) -> "SignedGraph":
        """A graph over these nodes plus ``new_ids``; with none it shares the id list and dict."""
        ids, ext_to_id = self.external_ids, self._ext_to_id
        if new_ids:
            ids = [*ids, *new_ids]
            ext_to_id = dict(ext_to_id)
            ext_to_id.update(zip(new_ids, range(self.node_count, len(ids))))
        g = SignedGraph(len(ids), src, dst, lbl, self.alphabet, ids, index)
        g.external_ids, g._ext_to_id = ids, ext_to_id
        return g

    # -- lookups ------------------------------------------------------------

    @cached_property
    def _ext_to_id(self) -> dict:
        return {e: i for i, e in enumerate(self.external_ids)}

    def node_of(self, external_id: str) -> int:
        try:
            return self._ext_to_id[external_id]
        except KeyError:
            raise KeyError(f"unknown node id {external_id!r}") from None

    def external_of(self, node: int) -> str:
        return self.external_ids[node]

    def has_node(self, external_id: str) -> bool:
        return external_id in self._ext_to_id

    def out_arrays(self, u: int):
        """(heads, labels) arrays of u's out-edges, sorted by head."""
        a, b = self._out_ptr[u], self._out_ptr[u + 1]
        return self._dst[a:b], self._lbl[a:b]

    def in_tails(self, u: int, label: Optional[int] = None) -> np.ndarray:
        """Sorted array of tails pointing at ``u`` (with ``label`` if given)."""
        L = self.alphabet.size
        if label is None:
            # u's L label slices are contiguous; together they hold its tails.
            return np.sort(self._inl_src[self._inl_ptr[u * L]:self._inl_ptr[(u + 1) * L]])
        k = u * L + label
        return self._inl_src[self._inl_ptr[k]:self._inl_ptr[k + 1]]

    @property
    def edge_arrays(self):
        """(src, dst, label) arrays in canonical (src, dst) order."""
        return self._src, self._dst, self._lbl

    def csr(self):
        """The CSR arrays behind the adjacency views, for batched passes.

        Returns ``(out_ptr, heads, labels, in_ptr, in_tails)``. The out-edges
        of ``u`` are ``heads[out_ptr[u]:out_ptr[u + 1]]`` with their
        ``labels``; the tails that point at ``u`` with label ``l``, sorted,
        are ``in_tails[in_ptr[k]:in_ptr[k + 1]]`` with ``k = u * L + l``.
        The arrays are shared with the graph and must not be written.
        """
        return self._out_ptr, self._dst, self._lbl, self._inl_ptr, self._inl_src

    def edges(self) -> Iterator[tuple]:
        """Iterate ``(src, dst, label)`` as python ints, canonical order."""
        for s, d, l in zip(self._src.tolist(), self._dst.tolist(), self._lbl.tolist()):
            yield s, d, l

    def edge_map(self) -> dict:
        """Edges as a ``(src, dst) -> label`` dict."""
        return {(s, d): l for s, d, l in self.edges()}

    def label_counts(self) -> np.ndarray:
        return np.bincount(self._lbl, minlength=self.alphabet.size)

    def content_digest(self) -> str:
        """Stable digest over the dense structure, for artifact provenance."""
        h = hashlib.sha256()
        h.update(f"{self.node_count};{self.alphabet.names}".encode())
        h.update(self._src.tobytes())
        h.update(self._dst.tobytes())
        h.update(self._lbl.tobytes())
        return h.hexdigest()

    def validate(self) -> None:
        """Full cross-scan of the redundant adjacency views; raises on drift."""
        if self._src.size and not (np.all(np.diff(self._src * self.node_count + self._dst) > 0)):
            raise AssertionError("edges not strictly sorted/unique by (src, dst)")
        if np.any(self._src == self._dst):
            raise AssertionError("self-loop present")
        rebuilt = set()
        for u in range(self.node_count):
            for l in range(self.alphabet.size):
                t = self.in_tails(u, l)
                if t.size and np.any(np.diff(t) <= 0):
                    raise AssertionError(f"in-list of node {u} label {l} not strictly sorted")
                rebuilt.update((int(s), u, l) for s in t)
        direct = set(self.edges())
        if rebuilt != direct:
            raise AssertionError("in/out adjacency describe different edge sets")
        if self.edge_count != len(direct):
            raise AssertionError("edge_count out of sync")


def _ranges(lo, hi):
    """Concatenated index ranges ``lo[k]:hi[k]``: (indices, k of each index)."""
    lens = hi - lo
    owner = np.arange(lens.size).repeat(lens)
    return np.arange(owner.size) + (lo - (lens.cumsum() - lens))[owner], owner


def _search_rows(ptr, rows, values, run):
    """Index into ``run`` of each ``values[k]`` by a left ``searchsorted`` in its
    sorted row ``run[ptr[r]:ptr[r + 1]]``, ``r = rows[k]``: O(row lengths), not O(run)."""
    idx, owner = _ranges(ptr[rows], ptr[rows + 1])
    return ptr[rows] + np.bincount(owner[run[idx] < values[owner]], minlength=rows.size)


def normalize_edge_arrays(src, dst, lbl, node_count):
    """Drop self-loops, collapse duplicate ordered pairs last-wins, sort.

    Returns ``(src, dst, lbl, n_self_loops, n_duplicates)`` with the edge
    arrays sorted by ``(src, dst)`` and unique per ordered pair.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    lbl = np.asarray(lbl, dtype=np.int64)
    keep = src != dst
    n_self = int(src.size - keep.sum())
    src, dst, lbl = src[keep], dst[keep], lbl[keep]
    if src.size == 0:
        return src, dst, lbl, n_self, 0
    key = src * max(node_count, 1) + dst
    order = np.argsort(key, kind="stable")           # input order within a pair
    key = key[order]
    last = np.ones(key.size, dtype=bool)
    last[:-1] = key[1:] != key[:-1]                  # last occurrence wins
    n_dup = int(key.size - last.sum())
    sel = order[last]
    return src[sel], dst[sel], lbl[sel], n_self, n_dup


# -- edge-list I/O ----------------------------------------------------------

NODE_COMMENT = "# node "

#: Every code point where ``str.isspace()`` is true: the separators of
#: ``str.split()``. All lie below U+3001.
SPACES = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003"
          "\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")
# Code point -> is a space; the last cell stands for every code point above U+3000.
_IS_SPACE = np.zeros(0x3002, dtype=bool)
_IS_SPACE[[ord(c) for c in SPACES]] = True
# The same for bytes, as a ``bytes.translate`` table: no index array per character.
_IS_SPACE_BYTE = _IS_SPACE[:256].tobytes()

#: Characters per block of ``read_edge_lines``, before the block is
#: extended to the end of its last line.
READ_BLOCK = 1 << 16


def read_edge_lines(path, tokens, nodes=None):
    """The ``(src ids, dst ids, labels)`` lists of an edge list's data lines, in file order.

    A line is what iterating the file in text mode yields (``\\r\\n``,
    ``\\r`` and ``\\n`` end one); its words are those of ``str.split``. A
    data line is ``src dst sign``; ``tokens`` maps sign tokens to label
    indices. Blank lines and comment lines (first word starting with
    ``#``) are skipped, but a ``# node <id>`` line adds its id to the set
    ``nodes`` when that is given.

    The file is parsed in bulk, in blocks of whole lines of about
    ``READ_BLOCK`` characters (``_read_block``): per block, one numpy pass
    over its code points and one ``str.split``. The 40k-edge, 0.48 MB
    cluster-2k input of ``bench/`` is read in ~8–12 ms on a 2-vCPU Xeon;
    ``tests/oracles.py`` keeps a line-by-line loop as the reference.
    Blocks, not one read of the whole file, keep the peak RSS of a load
    low: one read raised the peak of the cluster-2k benchmark by 0.6–1.2 MB.

    Raises:
        EdgeListParseError: wrong arity or unknown sign token, naming the
            first bad line in file order.
        UnicodeDecodeError: the file is not UTF-8. It is raised when the
            block that holds the bad bytes is read, so before a parse error
            up to a block above them.
        OSError: unreadable file.
    """
    columns, lineno = ([], [], []), 1
    with open(path, "r", encoding="utf-8") as fh:
        while block := fh.read(READ_BLOCK):
            if not block.endswith("\n"):
                block += fh.readline()
            lineno = _read_block(block, lineno, path, tokens, nodes, columns)
    return columns


def _read_block(block, lineno, path, tokens, nodes, columns) -> int:
    """Append the data lines of ``block``, whole lines numbered from ``lineno``,
    to the lists ``columns``; returns the number of the line after it.

    One numpy pass over the block's code points counts the words of each
    line and finds the lines that hold a ``#``; one ``str.split`` then
    yields every word.
    """
    if block.isascii():
        cp = np.frombuffer(block.encode("ascii"), dtype=np.uint8)   # cp.base: the bytes
        space = np.frombuffer(cp.base.translate(_IS_SPACE_BYTE), dtype=bool)
    else:
        cp = np.minimum(np.frombuffer(block.encode("utf-32-le"), dtype=np.uint32),
                        _IS_SPACE.size - 1)
        space = _IS_SPACE.take(cp)
    start = np.empty(cp.size, dtype=np.uint8)       # a word starts here
    start[0] = not space[0]
    np.greater(space[:-1], space[1:], out=start[1:])
    del space
    # Line k is block[line[k]:line[k + 1]]; an empty last line is no line.
    ends = np.flatnonzero(cp == 10) + 1
    line = np.concatenate(([0], ends) if block.endswith("\n") else ([0], ends, [cp.size]))
    # Word counts are summed in uint8, which wraps at 256: a line long
    # enough to hold that many words is counted again by str.split.
    counts = np.add.reduceat(start, line[:-1], dtype=np.uint8).astype(np.int64)
    for k in np.flatnonzero(np.diff(line) > 2 * 255).tolist():
        counts[k] = len(block[line[k]:line[k + 1]].split())
    # A comment line's first word starts with "#": look only at lines holding one.
    hashed = []
    if "#" in block:
        hashed = (np.searchsorted(line, np.flatnonzero(cp == 35), side="right") - 1).tolist()
    comments = []
    for k in dict.fromkeys(hashed):
        text = block[line[k]:line[k + 1]].strip()
        if text.startswith("#"):
            comments.append(k)
            if nodes is not None and text.startswith(NODE_COMMENT):
                name = text[len(NODE_COMMENT):].strip()
                if name:
                    nodes.add(name)

    data = counts > 0
    data[comments] = False
    bad = np.flatnonzero(data & (counts != 3))
    stop = int(bad[0]) if bad.size else counts.size      # lines before the first wrong arity
    words = block.split()
    if comments or bad.size:        # keep the words of the data lines before stop
        first = np.concatenate(([0], np.cumsum(counts)))     # each line's first word
        kept, at = [], 0
        for k in comments:
            if k >= stop:
                break
            kept += words[at:first[k]]
            at = first[k + 1]
        words = kept + words[at:first[stop]]
    src, dst, lbl = columns
    try:
        lbl.extend(map(tokens.__getitem__, words[2::3]))
    except KeyError:
        signs = words[2::3]
        k = next(i for i, t in enumerate(signs) if t not in tokens)
        raise EdgeListParseError(f"{path}:{lineno + int(np.flatnonzero(data)[k])}: "
                                 f"unknown sign token {signs[k]!r}") from None
    if bad.size:
        raise EdgeListParseError(
            f"{path}:{lineno + stop}: expected 'src dst sign', got {counts[stop]} fields")
    src.extend(words[0::3])
    dst.extend(words[1::3])
    return lineno + counts.size


def load_edge_list(path, options: Optional[LoadOptions] = None):
    """Parse a whitespace-separated ``src dst sign`` edge list (``read_edge_lines``).

    Lines beginning with ``#`` are comments; the writer's ``# node <id>``
    registration lines are honored so that edge-free nodes survive a
    write/reload round trip.  Dense node ids are assigned by sorted external
    token, making the id space a pure function of the file's content.
    After the bulk reader, interning the ids (``sorted(set)``, a dict and
    ``np.fromiter``) is 40–50% of a load on the benchmark inputs, and the
    graph build (one sort for the in-index) less than a tenth.

    Args:
        path: file to read.
        options: alphabet and sign-token mapping; defaults to +/-.

    Returns:
        ``(SignedGraph, LoadReport)`` — the normalized graph plus counters
        for what normalization dropped or collapsed.

    Raises:
        EdgeListParseError: wrong arity or unknown sign token, naming the
            first bad line.
        UnicodeDecodeError: the file is not UTF-8, raised as the reader
            reaches the bad bytes' block (``read_edge_lines``).
        OSError: unreadable file.
    """
    options = options or LoadOptions()
    ext_nodes = set()
    src_t, dst_t, lbl_t = read_edge_lines(path, options.resolved_tokens(), ext_nodes)
    external_ids = sorted(ext_nodes.union(src_t, dst_t))
    idx = {e: i for i, e in enumerate(external_ids)}
    n = len(external_ids)
    src = np.fromiter(map(idx.__getitem__, src_t), dtype=np.int64, count=len(src_t))
    dst = np.fromiter(map(idx.__getitem__, dst_t), dtype=np.int64, count=len(dst_t))
    raw = np.fromiter(lbl_t, dtype=np.int64, count=len(lbl_t))
    src, dst, lbl, n_self, n_dup = normalize_edge_arrays(src, dst, raw, n)
    report = LoadReport(raw.size, n, np.bincount(raw, minlength=options.alphabet.size),
                        n_self, n_dup)
    return SignedGraph(n, src, dst, lbl, options.alphabet, external_ids), report


def write_edge_list(graph: SignedGraph, path) -> None:
    """Write the graph back in loader-compatible form.

    Edge-free nodes are registered via ``# node`` comment lines so the node
    universe round-trips exactly.
    """
    deg = np.zeros(graph.node_count, dtype=np.int64)
    src, dst, _ = graph.edge_arrays
    np.add.at(deg, src, 1)
    np.add.at(deg, dst, 1)
    with open(path, "w", encoding="utf-8") as fh:
        for u in np.flatnonzero(deg == 0):
            fh.write(f"{NODE_COMMENT}{graph.external_of(int(u))}\n")
        names = graph.alphabet.names
        for s, d, l in graph.edges():
            fh.write(f"{graph.external_of(s)} {graph.external_of(d)} {names[l]}\n")


# -- synthetic graphs and sparsification -------------------------------------

def generate_planted(n_nodes, n_roles, edge_prob, noise, seed, alphabet=None):
    """Generate a role-structured graph with a hidden planted partition.

    Nodes get roles round-robin (node ``i`` has role ``i % n_roles``); a
    role-pair label table is drawn from ``seed``; every ordered pair (u != v)
    carries an edge with probability ``edge_prob`` whose label is the table
    entry, replaced by a uniformly random *other* label with probability
    ``noise``.  At ``noise=0`` the role partition makes every cluster pair
    label-pure, so it is a known zero of the clustering objective.

    Returns:
        ``(SignedGraph, roles)`` where ``roles`` is the planted assignment.
    """
    alphabet = alphabet or SIGNED
    if n_roles < 2:
        raise ValueError("need at least 2 roles")
    if n_roles > n_nodes:
        raise ValueError("more roles than nodes")
    if not (0.0 <= edge_prob <= 1.0) or not (0.0 <= noise <= 1.0):
        raise ValueError("edge_prob and noise must lie in [0, 1]")
    L = alphabet.size
    rng = np.random.default_rng(seed)
    table = rng.integers(0, L, size=(n_roles, n_roles))
    roles = np.arange(n_nodes, dtype=np.int64) % n_roles

    mask = rng.random((n_nodes, n_nodes)) < edge_prob
    np.fill_diagonal(mask, False)
    src, dst = np.nonzero(mask)          # row-major: already (src, dst) sorted
    lbl = table[roles[src], roles[dst]]
    flip = rng.random(src.size) < noise
    # A uniformly random other label = add a nonzero offset mod L.
    offsets = rng.integers(1, L, size=src.size)
    lbl = np.where(flip, (lbl + offsets) % L, lbl)

    width = max(1, len(str(max(n_nodes - 1, 0))))
    external_ids = [f"{i:0{width}d}" for i in range(n_nodes)]
    g = SignedGraph(n_nodes, src.astype(np.int64), dst.astype(np.int64),
                    lbl.astype(np.int64), alphabet, external_ids)
    return g, roles


def sparsify(graph: SignedGraph, density: float, seed: int) -> SignedGraph:
    """Keep ``round(density * edge_count)`` uniformly sampled edges.

    Nodes are never removed and ids are never renumbered; deterministic for
    a given seed.
    """
    if not (0.0 < density <= 1.0):
        raise ValueError("density must lie in (0, 1]")
    keep = round(density * graph.edge_count)
    rng = np.random.default_rng(seed)
    sel = np.sort(rng.choice(graph.edge_count, size=keep, replace=False))
    src, dst, lbl = graph.edge_arrays
    return graph.replace_edges(src[sel], dst[sel], lbl[sel])


# -- prediction queries ------------------------------------------------------

@dataclass(frozen=True)
class PredictionQuery:
    """An edge whose label is to be predicted, tail (initiator) to head (receiver)."""

    initiator: int
    receiver: int


@dataclass
class Context:
    """The initiator's labeled out-edges, excluding any edge to the receiver.

    This is the conditioning information of every predictor.
    """

    heads: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return int(self.heads.size)

    def entries(self):
        return zip(self.heads.tolist(), self.labels.tolist())


def context_of(graph: SignedGraph, query: PredictionQuery) -> Context:
    """Context of a query; empty contexts are valid and trigger fallback downstream."""
    i, j = query.initiator, query.receiver
    if i == j:
        raise ValueError("initiator and receiver must differ")
    if not (0 <= i < graph.node_count and 0 <= j < graph.node_count):
        raise ValueError("query node out of range")
    heads, labels = graph.out_arrays(i)
    m = heads != j
    return Context(heads[m], labels[m])


def graph_stats(graph: SignedGraph, report: Optional[LoadReport] = None) -> dict:
    """Node/edge counts and per-label shares, raw (pre-normalization) and normalized."""
    counts = graph.label_counts()
    total = counts.sum()
    stats = {
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "labels": list(graph.alphabet.names),
        "label_counts": counts.tolist(),
        "label_shares": (counts / total).tolist() if total else [0.0] * graph.alphabet.size,
    }
    if report is not None:
        raw = report.raw_label_counts
        raw_total = raw.sum()
        stats["raw"] = {
            "nodes": report.raw_nodes,
            "edges": report.raw_edges,
            "label_counts": raw.tolist(),
            "label_shares": (raw / raw_total).tolist() if raw_total else [0.0] * graph.alphabet.size,
            "self_loops_dropped": report.self_loops_dropped,
            "duplicates_collapsed": report.duplicates_collapsed,
        }
    return stats
