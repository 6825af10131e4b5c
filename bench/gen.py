"""Seeded benchmark inputs, generated without the package under test.

Every input is a pure function of the benchmark seed and a per-workload tag,
so a change to the program cannot change what the program is fed. Graphs
follow a planted-role model: nodes get roles by a seeded permutation, each
ordered role pair gets a label, and each edge carries its pair's label,
replaced by the other label with probability ``noise``. The edge count is
fixed at ``round(p * n * (n - 1))`` so that every seed does the same amount
of work.

Node ids are zero-padded decimal strings, so the loader's dense ids (by
sorted token) equal the numeric ids, and labels are written as ``+``/``-``.
"""

from __future__ import annotations

import numpy as np

LABEL_TOKENS = ("+", "-")
L = len(LABEL_TOKENS)

# Workload tags keep the input streams of different workloads independent.
TAGS = {"cv-sweep": 1, "cluster-2k": 2, "serve-stream": 3}


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([TAGS[workload], seed])


class Planted:
    """A planted-role graph as sorted ``(src, dst, lbl)`` arrays plus roles."""

    def __init__(self, n, src, dst, lbl, roles, n_roles):
        self.n = n
        self.src, self.dst, self.lbl = src, dst, lbl
        self.roles = roles
        self.n_roles = n_roles

    @property
    def width(self) -> int:
        return len(str(self.n - 1))

    def token(self, v: int) -> str:
        return f"{v:0{self.width}d}"


def planted(rng, n: int, n_roles: int, p: float, noise: float) -> Planted:
    roles = rng.permutation(n) % n_roles
    # Every label labels the same number of role pairs (up to one), so the
    # per-label in-neighbourhoods, and with them the cost of intersecting
    # them, do not depend on the seed.
    table = rng.permutation(np.arange(n_roles * n_roles) % L).reshape(n_roles, n_roles)
    m = round(p * n * (n - 1))
    # An index into the n*(n-1) ordered pairs without self-loops.
    idx = rng.choice(n * (n - 1), size=m, replace=False)
    src = idx // (n - 1)
    rest = idx % (n - 1)
    dst = rest + (rest >= src)
    lbl = table[roles[src], roles[dst]]
    flip = rng.random(m) < noise
    lbl = np.where(flip, (lbl + rng.integers(1, L, size=m)) % L, lbl)
    order = np.lexsort((dst, src))
    return Planted(n, src[order].astype(np.int64), dst[order].astype(np.int64),
                   lbl[order].astype(np.int64), roles.astype(np.int64), n_roles)


def write_edges(path, g: Planted, keep=None) -> None:
    """Write ``src dst sign`` lines; nodes left without edges get ``# node`` lines."""
    sel = np.arange(g.src.size) if keep is None else np.flatnonzero(keep)
    s, d, l = g.src[sel], g.dst[sel], g.lbl[sel]
    touched = np.zeros(g.n, dtype=bool)
    touched[s] = True
    touched[d] = True
    lines = [f"# node {g.token(v)}\n" for v in np.flatnonzero(~touched).tolist()]
    lines += [f"{g.token(a)} {g.token(b)} {LABEL_TOKENS[c]}\n"
              for a, b, c in zip(s.tolist(), d.tolist(), l.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def write_roles(path, g: Planted) -> None:
    """Write the planted roles in the partition file format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# clusters {g.n_roles}\n")
        fh.writelines(f"{g.token(v)} {r}\n" for v, r in enumerate(g.roles.tolist()))


def stream(rng, g: Planted, held_out: int, relabels: int, new_nodes: int,
           new_node_degree: int, batch: int):
    """Split a planted graph into a base graph and a stream of edge batches.

    The stream holds ``held_out`` edges removed from the base graph and
    labels flipped on ``relabels`` base edges, in seeded random order, cut
    into batches of ``batch`` items. Each of ``new_nodes`` nodes the base
    graph lacks arrives with its ``new_node_degree`` edges all in one batch,
    a different seeded batch per node. Items are ``(src_token, dst_token,
    label, is_query)``; an item is a query when its pair is absent from the
    graph it arrives at, so the label can be predicted before the batch is
    applied.

    Returns ``(keep_mask, batches)`` where ``keep_mask`` selects the base edges.
    """
    m = g.src.size
    pick = rng.permutation(m)
    hold, flip = pick[:held_out], pick[held_out:held_out + relabels]
    keep = np.ones(m, dtype=bool)
    keep[hold] = False
    items = [(g.token(g.src[e]), g.token(g.dst[e]), int(g.lbl[e]), True)
             for e in hold.tolist()]
    items += [(g.token(g.src[e]), g.token(g.dst[e]), int(1 - g.lbl[e]), False)
              for e in flip.tolist()]
    items = [items[i] for i in rng.permutation(len(items)).tolist()]
    batches = [items[k:k + batch] for k in range(0, len(items), batch)]
    width = len(str(g.n + new_nodes - 1))
    joins = rng.choice(len(batches), size=new_nodes, replace=False)
    for k, b in enumerate(joins.tolist()):
        new = f"{g.n + k:0{width}d}"
        partners = rng.choice(g.n, size=new_node_degree, replace=False)
        outward = rng.random(new_node_degree) < 0.5
        labels = rng.integers(0, L, size=new_node_degree)
        for v, out, lab in zip(partners.tolist(), outward.tolist(), labels.tolist()):
            pair = (new, g.token(v)) if out else (g.token(v), new)
            batches[b].append((pair[0], pair[1], lab, False))
    return keep, batches
