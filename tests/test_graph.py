"""Graph construction, parsing, normalization, synthesis and context."""

import numpy as np
import pytest

from linklabel import (
    EdgeListParseError,
    LabelAlphabet,
    LoadOptions,
    PredictionQuery,
    SignedGraph,
    context_of,
    generate_planted,
    graph_stats,
    load_edge_list,
    sparsify,
    write_edge_list,
)

from conftest import G1_EDGES, I, J, random_graph
import oracles


# -- label alphabet ----------------------------------------------------------

def test_alphabet_rejects_single_label():
    with pytest.raises(ValueError):
        LabelAlphabet(["+"])


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        LabelAlphabet(["+", "+"])


def test_alphabet_order_is_fixed():
    a = LabelAlphabet(["-", "+"])
    assert a.index_of("-") == 0 and a.index_of("+") == 1


# -- parsing -----------------------------------------------------------------

def test_empty_file_gives_empty_graph(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("")
    g, report = load_edge_list(p)
    assert g.node_count == 0 and g.edge_count == 0
    assert report.raw_lines == 0 and report.raw_nodes == 0


def test_duplicate_pair_last_wins(tmp_path):
    p = tmp_path / "dup.txt"
    p.write_text("a b +1\na b -1\n")
    g, report = load_edge_list(p)
    assert g.edge_count == 1
    assert report.duplicates_collapsed == 1
    (s, d, l), = g.edges()
    assert (g.external_of(s), g.external_of(d), l) == ("a", "b", 1)


def test_self_loops_dropped_and_counted(tmp_path):
    p = tmp_path / "loops.txt"
    p.write_text("a a +\nb b -\na b +\n")
    g, report = load_edge_list(p)
    assert g.edge_count == 1
    assert report.self_loops_dropped == 2
    assert g.node_count == 2        # loop endpoints still enter the universe


def test_sign_token_aliases(tmp_path):
    p = tmp_path / "tok.txt"
    p.write_text("a b 1\nb c +1\nc d +\nd a -1\na c -\n")
    g, _ = load_edge_list(p)
    lbl = {(g.external_of(s), g.external_of(d)): l for s, d, l in g.edges()}
    assert lbl[("a", "b")] == 0 and lbl[("b", "c")] == 0 and lbl[("c", "d")] == 0
    assert lbl[("d", "a")] == 1 and lbl[("a", "c")] == 1


def test_wrong_arity_names_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("a b +\na b\n")
    with pytest.raises(EdgeListParseError, match=r"bad\.txt:2"):
        load_edge_list(p)


def test_unknown_token_names_line(tmp_path):
    p = tmp_path / "bad2.txt"
    p.write_text("a b ?\n")
    with pytest.raises(EdgeListParseError, match=r"bad2\.txt:1.*'\?'"):
        load_edge_list(p)


def test_node_ids_are_sorted_tokens(tmp_path):
    p = tmp_path / "ids.txt"
    p.write_text("zeta alpha +\nmid zeta -\n")
    g, _ = load_edge_list(p)
    assert g.external_ids == ["alpha", "mid", "zeta"]
    assert g.node_of("alpha") == 0 and g.node_of("zeta") == 2


def test_multilabel_loading(tmp_path):
    p = tmp_path / "ml.txt"
    p.write_text("a b x\nb c y\nc a z\n")
    opts = LoadOptions(alphabet=LabelAlphabet(["x", "y", "z"]))
    g, _ = load_edge_list(p, opts)
    assert g.alphabet.size == 3
    assert sorted(l for _, _, l in g.edges()) == [0, 1, 2]
    for label in (3, -1):       # a token map may only name labels of its alphabet
        bad = LoadOptions(alphabet=opts.alphabet, token_map={"x": 0, "y": 1, "z": label})
        with pytest.raises(ValueError, match="outside the alphabet"):
            load_edge_list(p, bad)


def test_roundtrip_preserves_content(tmp_path):
    g, _, _, _ = random_graph(3, n=15, edge_prob=0.2)
    p = tmp_path / "rt.txt"
    write_edge_list(g, p)
    g2, _ = load_edge_list(p)
    assert g2.content_digest() == g.content_digest()


def test_roundtrip_keeps_edge_free_nodes(tmp_path):
    # Node "c" has no edges; the writer must register it explicitly.
    g = SignedGraph.from_edges(3, [(0, 1, 0)], external_ids=["a", "b", "c"])
    p = tmp_path / "iso.txt"
    write_edge_list(g, p)
    assert "# node c" in p.read_text()
    g2, _ = load_edge_list(p)
    assert g2.node_count == 3 and g2.has_node("c")
    assert g2.content_digest() == g.content_digest()


# -- normalization and views ---------------------------------------------------

def test_from_edges_normalizes():
    g = SignedGraph.from_edges(3, [(0, 1, 0), (0, 0, 1), (0, 1, 1), (2, 1, 0)])
    assert g.edge_count == 2
    assert g.edge_map()[(0, 1)] == 1    # later label wins


def test_id_list_is_the_graphs_own():
    # A caller's list is copied, so mutating it later leaves the graph and
    # its id lookup in step; any iterable of ids is taken.
    ids = ["a", "b", "c"]
    g = SignedGraph.from_edges(3, [(0, 1, 0), (2, 1, 1)], external_ids=ids)
    ids[0] = "z"
    assert g.external_ids == ["a", "b", "c"] and g.node_of("a") == 0
    g = SignedGraph.from_edges(3, [(0, 1, 0)], external_ids=iter("xyz"))
    assert g.external_ids == ["x", "y", "z"] and g.node_of("z") == 2


def test_id_list_must_match_the_node_count_and_unknown_ids_raise():
    with pytest.raises(ValueError, match="external id list does not match node count"):
        SignedGraph.from_edges(3, [(0, 1, 0)], external_ids=["a", "b"])
    g = SignedGraph.from_edges(2, [(0, 1, 0)], external_ids=["a", "b"])
    with pytest.raises(KeyError, match="unknown node id 'c'"):
        g.node_of("c")


def test_blank_lines_are_skipped(tmp_path):
    p = tmp_path / "blank.txt"
    p.write_text("\na b +1\n   \n\nb c -1\n\n")
    g, _ = load_edge_list(p)
    assert [(g.external_of(s), g.external_of(d), l) for s, d, l in g.edges()] == [
        ("a", "b", 0), ("b", "c", 1)]


def test_tail_sets_match_oracle(g1):
    t_any, t_lab = oracles.tail_sets(G1_EDGES, 6, 2)
    for u in range(6):
        assert g1.in_tails(u).tolist() == sorted(t_any[u])
        for l in range(2):
            assert g1.in_tails(u, l).tolist() == sorted(t_lab[u][l])


def test_in_tails_sorted(g1):
    for u in range(6):
        tails = g1.in_tails(u)
        assert np.all(np.diff(tails) > 0)


def test_validate_passes_on_random_graphs():
    for seed in range(5):
        g, _, _, _ = random_graph(seed)
        g.validate()


def test_label_counts(g1):
    assert g1.label_counts().tolist() == [6, 1]


# -- context ------------------------------------------------------------------

def test_context_excludes_receiver():
    g = SignedGraph.from_edges(4, [(0, 1, 0), (0, 2, 1), (0, 3, 0)])
    ctx = context_of(g, PredictionQuery(0, 3))
    assert sorted(ctx.entries()) == [(1, 0), (2, 1)]


def test_context_isolated_initiator(g1):
    assert len(context_of(g1, PredictionQuery(J, I))) == 0


def test_context_only_edge_to_receiver():
    g = SignedGraph.from_edges(2, [(0, 1, 0)])
    assert len(context_of(g, PredictionQuery(0, 1))) == 0


def test_context_rejects_self_query(g1):
    with pytest.raises(ValueError):
        context_of(g1, PredictionQuery(I, I))


def test_context_rejects_nodes_out_of_range(g1):
    for i, j in ((I, 6), (6, J), (-1, J)):
        with pytest.raises(ValueError, match="query node out of range"):
            context_of(g1, PredictionQuery(i, j))


def test_context_matches_oracle(g1):
    ctx = context_of(g1, PredictionQuery(I, J))
    assert list(ctx.entries()) == oracles.context(G1_EDGES, I, J)


# -- planted graphs -------------------------------------------------------------

def test_planted_deterministic():
    a, ra = generate_planted(90, 3, 0.2, 0.0, seed=7)
    b, rb = generate_planted(90, 3, 0.2, 0.0, seed=7)
    assert a.content_digest() == b.content_digest()
    assert np.array_equal(ra, rb)


def test_planted_zero_noise_is_pure():
    g, roles = generate_planted(60, 3, 0.2, 0.0, seed=1)
    edges = list(g.edges())
    assert oracles.entropy_objective(edges, roles.tolist(), 2) == 0.0


def test_planted_full_noise_binary_still_pure():
    # With two labels, noise=1 flips every edge: purity is preserved.
    g, roles = generate_planted(60, 3, 0.2, 1.0, seed=1)
    edges = list(g.edges())
    assert oracles.entropy_objective(edges, roles.tolist(), 2) == 0.0


def test_planted_rejects_bad_parameters():
    with pytest.raises(ValueError):
        generate_planted(10, 1, 0.2, 0.0, seed=0)
    with pytest.raises(ValueError):
        generate_planted(3, 5, 0.2, 0.0, seed=0)
    with pytest.raises(ValueError):
        generate_planted(10, 2, 1.5, 0.0, seed=0)


# -- sparsify -------------------------------------------------------------------

def test_sparsify_keeps_rounded_count():
    g, _ = generate_planted(40, 2, 0.2, 0.0, seed=3)
    s = sparsify(g, 0.1, seed=0)
    assert s.edge_count == round(0.1 * g.edge_count)
    assert s.node_count == g.node_count


def test_sparsify_density_one_is_identity():
    g, _ = generate_planted(30, 2, 0.2, 0.0, seed=3)
    s = sparsify(g, 1.0, seed=9)
    assert s.content_digest() == g.content_digest()


def test_sparsify_deterministic():
    g, _ = generate_planted(30, 2, 0.3, 0.0, seed=3)
    a = sparsify(g, 0.5, seed=4)
    b = sparsify(g, 0.5, seed=4)
    assert a.content_digest() == b.content_digest()


def test_sparsify_subset_of_original():
    g, _ = generate_planted(30, 2, 0.3, 0.0, seed=3)
    s = sparsify(g, 0.4, seed=4)
    full = g.edge_map()
    for (u, v), l in s.edge_map().items():
        assert full[(u, v)] == l


def test_sparsify_rejects_zero_density():
    g, _ = generate_planted(10, 2, 0.3, 0.0, seed=3)
    with pytest.raises(ValueError):
        sparsify(g, 0.0, seed=0)


# -- stats ------------------------------------------------------------------------

def test_graph_stats_shape(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("a b +\nb c -\nc a +\na b -\n")
    g, report = load_edge_list(p)
    stats = graph_stats(g, report)
    assert stats["nodes"] == 3 and stats["edges"] == 3
    assert stats["labels"] == ["+", "-"]
    assert stats["label_counts"] == [1, 2]
    assert stats["raw"]["duplicates_collapsed"] == 1
    assert stats["label_shares"][1] == pytest.approx(2 / 3)
