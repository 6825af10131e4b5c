"""End-to-end command-line behavior: records, determinism, exit codes."""

import hashlib
import json

import numpy as np
import pytest

from linklabel import generate_planted, write_edge_list
from linklabel.cli import main


G1_TEXT = (
    "i x +\n"
    "w1 x +\n"
    "w1 j +\n"
    "w2 x +\n"
    "w2 j -\n"
    "w3 x +\n"
    "w3 j +\n"
)


@pytest.fixture
def g1_file(tmp_path):
    p = tmp_path / "g1.txt"
    p.write_text(G1_TEXT)
    return p


@pytest.fixture(scope="module")
def planted_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("data") / "planted.txt"
    g, _ = generate_planted(50, 3, 0.2, 0.1, seed=3)
    write_edge_list(g, p)
    return p


def run_lines(capsys, argv):
    """main() + parsed stdout JSONL."""
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, [json.loads(line) for line in out.splitlines() if line]


# -- stats and convert -----------------------------------------------------------

def test_stats_jsonl(capsys, g1_file):
    rc, recs = run_lines(capsys, ["stats", "--input", str(g1_file)])
    assert rc == 0
    meta, stats = recs
    assert meta["record"] == "meta" and meta["command"] == "stats"
    assert len(meta["inputs"]["input"]) == 64       # sha256 hex digest
    assert stats["nodes"] == 6 and stats["edges"] == 7
    assert stats["label_counts"] == [6, 1]


def test_stats_output_file_plus_human(capsys, g1_file, tmp_path):
    out = tmp_path / "stats.jsonl"
    rc = main(["stats", "--input", str(g1_file), "--output", str(out)])
    assert rc == 0
    human = capsys.readouterr().out
    assert "nodes 6" in human
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert lines[0]["record"] == "meta" and lines[1]["record"] == "stats"


def test_stats_deterministic_bytes(g1_file, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["stats", "--input", str(g1_file), "--output", str(a)]) == 0
    assert main(["stats", "--input", str(g1_file), "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_convert_normalizes(capsys, tmp_path):
    src = tmp_path / "raw.txt"
    src.write_text("b a +1\nb a -1\nc c +\na b 1\n")
    out = tmp_path / "norm.txt"
    assert main(["convert", "--input", str(src), "--output", str(out)]) == 0
    text = out.read_text()
    assert "b a -" in text and "a b +" in text and "c c" not in text
    assert "# node c" in text                      # loop endpoint survives
    msg = capsys.readouterr().out
    assert "dropped 1 self-loops" in msg and "collapsed 1 duplicates" in msg


def test_convert_requires_output(capsys, g1_file):
    assert main(["convert", "--input", str(g1_file)]) == 1
    assert "error:" in capsys.readouterr().err


# -- cluster ------------------------------------------------------------------------

def test_cluster_records_and_partition(capsys, planted_file, tmp_path):
    part_out = tmp_path / "part.txt"
    rc, recs = run_lines(capsys, [
        "cluster", "--input", str(planted_file), "--clusters", "3",
        "--restarts", "2", "--partition-out", str(part_out)])
    assert rc == 0
    sweeps = [r for r in recs if r["record"] == "sweep"]
    phis = [r["phi"] for r in sweeps]
    assert sweeps[0]["sweep"] == 0
    assert all(b <= a + 1e-9 for a, b in zip(phis, phis[1:]))
    result = recs[-1]
    assert result["record"] == "result"
    assert result["phi"] == pytest.approx(phis[-1])
    assert sum(result["cluster_sizes"]) == 50
    lines = part_out.read_text().splitlines()
    assert lines[0] == "# clusters 3" and len(lines) == 51


def test_cluster_deterministic(planted_file, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["cluster", "--input", str(planted_file), "--clusters", "3", "--seed", "5"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cluster_k_above_node_count_fails(capsys, g1_file):
    assert main(["cluster", "--input", str(g1_file), "--clusters", "30"]) == 1
    assert "exceeds node count" in capsys.readouterr().err


# -- predict -------------------------------------------------------------------------

def test_predict_worked_example(capsys, g1_file, tmp_path):
    q = tmp_path / "q.txt"
    q.write_text("i j\nj i\n")
    rc, recs = run_lines(capsys, [
        "predict", "--input", str(g1_file), "--queries", str(q),
        "--model", "ltlgm"])
    assert rc == 0
    meta, first, second = recs
    assert meta["config"]["model"] == "ltlgm"
    assert first["src"] == "i" and first["dst"] == "j"
    assert first["label"] == "+" and first["fallback"] is False
    assert first["probs"]["+"] == pytest.approx(2 / 3)
    # j has no out-edges: undefined, prior fallback, prior = 6/7 positive.
    assert second["fallback"] is True and second["label"] == "+"
    assert second["probs"]["+"] == pytest.approx(6 / 7)


def test_predict_verbose_support(capsys, g1_file, tmp_path):
    q = tmp_path / "q.txt"
    q.write_text("i j\n")
    rc, recs = run_lines(capsys, [
        "predict", "--input", str(g1_file), "--queries", str(q),
        "--model", "stlgm", "--clusters", "2", "--verbose"])
    assert rc == 0
    support = recs[1]["support"]
    assert support and support[0]["head"] == "x" and support[0]["label"] == "+"
    assert support[0]["n_local"] == 3


def test_predict_marks_query_already_in_graph(capsys, g1_file, tmp_path):
    q = tmp_path / "q.txt"
    q.write_text("i x\ni j\nx i\n")
    rc, recs = run_lines(capsys, [
        "predict", "--input", str(g1_file), "--queries", str(q),
        "--model", "ltlgm"])
    assert rc == 0
    assert recs[1]["src"] == "i" and recs[1]["dst"] == "x"
    assert recs[1]["in_graph"] is True
    assert "in_graph" not in recs[2] and "in_graph" not in recs[3]


def test_predict_has_no_count_strategy_flag(capsys, g1_file, tmp_path):
    q = tmp_path / "q.txt"
    q.write_text("i j\n")
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--input", str(g1_file), "--queries", str(q),
              "--model", "lcgm", "--nam-strategy", "precomputed"])
    assert exc.value.code == 2
    assert "--nam-strategy" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["cluster"], ["evaluate", "--model", "stlgm"],
                                     ["sweep", "--model", "stlgm"]])
def test_partition_file_is_refused_where_it_is_not_read(capsys, g1_file, tmp_path, command):
    # Only predict and update read a partition; the commands that cluster refuse one.
    with pytest.raises(SystemExit) as exc:
        main([*command, "--input", str(g1_file), "--partition-file", str(tmp_path / "p.txt")])
    assert exc.value.code == 2
    assert "--partition-file" in capsys.readouterr().err


def test_predict_rejects_unknown_query_node(capsys, g1_file, tmp_path):
    q = tmp_path / "q.txt"
    q.write_text("i nobody\n")
    assert main(["predict", "--input", str(g1_file), "--queries", str(q),
                 "--model", "ltlgm"]) == 1
    assert "not in training graph" in capsys.readouterr().err


def test_predict_rejects_a_query_line_with_three_fields(capsys, g1_file, tmp_path):
    q = tmp_path / "q.txt"
    q.write_text("i j\n\ni j x\n")
    assert main(["predict", "--input", str(g1_file), "--queries", str(q),
                 "--model", "ltlgm"]) == 1
    assert capsys.readouterr().err == f"error: {q}:3: expected 'src dst'\n"


def test_blank_lines_change_no_record(capsys, g1_file, tmp_path):
    # Blank lines in the edge list, partition, query and --config files
    # are skipped: every record but the meta one (file digests) is the same.
    files = {"edges": G1_TEXT, "part": "i 0\nj 1\nx 1\nw1 0\nw2 0\nw3 0\n",
             "q": "i j\nw1 x\n", "cfg": "mu=0.5\nverbose=true\n"}
    runs = []
    for blank in ("", "\n \n"):
        paths = {}
        for name, text in files.items():
            paths[name] = tmp_path / f"{name}{len(blank)}.txt"
            paths[name].write_text(blank + text.replace("\n", "\n" + blank))
        rc, recs = run_lines(capsys, [
            "predict", "--input", str(paths["edges"]), "--queries", str(paths["q"]),
            "--model", "stlgm", "--partition-file", str(paths["part"]),
            "--config", str(paths["cfg"])])
        assert rc == 0 and recs[0]["config"]["mu"] == 0.5
        runs.append(recs[1:])
    assert len(runs[0]) == 2 and "support" in runs[0][0]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("text, verbose", [
    ("verbose=yes\n", True), ("verbose=On\n", True), ("verbose=1\n", True),
    ("verbose=false\n", False), ("verbose=no\n", False), ("# verbose=yes\n", False),
])
def test_config_equals_form_and_boolean_coercion(capsys, g1_file, tmp_path, text, verbose):
    cfg, q = tmp_path / "run.cfg", tmp_path / "q.txt"
    cfg.write_text(text)
    q.write_text("i j\n")
    rc, recs = run_lines(capsys, [
        "predict", "--input", str(g1_file), "--queries", str(q), "--model", "ltlgm",
        f"--config={cfg}"])
    assert rc == 0
    assert ("support" in recs[1]) is verbose


def test_predict_rejects_unknown_model(capsys, g1_file, tmp_path):
    q = tmp_path / "q.txt"
    q.write_text("i j\n")
    assert main(["predict", "--input", str(g1_file), "--queries", str(q),
                 "--model", "oracle"]) == 1


def test_predict_partition_file_reused(capsys, planted_file, tmp_path):
    part = tmp_path / "part.txt"
    assert main(["cluster", "--input", str(planted_file), "--clusters", "3",
                 "--partition-out", str(part), "--output", str(tmp_path / "c.jsonl")]) == 0
    capsys.readouterr()                      # drop the cluster run's summary
    q = tmp_path / "q.txt"
    q.write_text("00 01\n")
    rc, recs = run_lines(capsys, [
        "predict", "--input", str(planted_file), "--queries", str(q),
        "--model", "gtlgm", "--partition-file", str(part)])
    assert rc == 0
    assert "partition" in recs[0]["inputs"]
    assert "clustering" not in recs[0]["config"]


def test_predict_partition_file_with_unknown_node(capsys, g1_file, tmp_path):
    part = tmp_path / "part.txt"
    part.write_text("i 0\nnobody 0\n")
    q = tmp_path / "q.txt"
    q.write_text("i j\n")
    assert main(["predict", "--input", str(g1_file), "--queries", str(q),
                 "--model", "gtlgm", "--partition-file", str(part)]) == 1
    assert capsys.readouterr().err == f"error: {part}:2: node 'nobody' is not in the graph\n"


@pytest.mark.parametrize("text, message", [
    ("# clusters two\n", "1: cluster count 'two' is not an integer"),
    ("# clusters 2\ni 0\nj 5\n", "3: cluster id 5 is not below K = 2"),
    ("i 0\nj\n", "2: expected 'node cluster'"),
])
def test_predict_partition_file_bad_cluster_names_line(capsys, g1_file, tmp_path, text, message):
    part = tmp_path / "part.txt"
    part.write_text(text)
    q = tmp_path / "q.txt"
    q.write_text("i j\n")
    assert main(["predict", "--input", str(g1_file), "--queries", str(q),
                 "--model", "gtlgm", "--partition-file", str(part)]) == 1
    assert capsys.readouterr().err == f"error: {part}:{message}\n"


# -- evaluate --------------------------------------------------------------------------

def test_evaluate_records(capsys, planted_file):
    rc, recs = run_lines(capsys, [
        "evaluate", "--input", str(planted_file), "--model", "ltlgm",
        "--folds", "5"])
    assert rc == 0
    assert recs[0]["record"] == "meta"
    assert recs[0]["config"]["folds"] == 5
    assert recs[0]["config"]["stratified"] is False
    folds = [r for r in recs if r["record"] == "fold"]
    total = recs[-1]
    assert len(folds) == 5 and total["record"] == "total"
    assert sum(r["test_edges"] for r in folds) == total["test_edges"]
    assert 0.0 <= total["balanced_accuracy"] <= 1.0


def test_evaluate_thread_count_never_changes_bytes(planted_file, tmp_path):
    outs = []
    for name, threads in (("t1.jsonl", "1"), ("t4.jsonl", "4")):
        out = tmp_path / name
        assert main(["evaluate", "--input", str(planted_file), "--model", "stlgm",
                     "--clusters", "3", "--restarts", "2", "--folds", "5",
                     "--threads", threads, "--output", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_evaluate_stratified_flag(capsys, planted_file):
    rc, recs = run_lines(capsys, [
        "evaluate", "--input", str(planted_file), "--model", "prior",
        "--folds", "4", "--stratified"])
    assert rc == 0
    assert recs[0]["config"]["stratified"] is True


# -- sweep and samples-cdf ----------------------------------------------------------------

def test_sweep_grid(capsys, planted_file):
    rc, recs = run_lines(capsys, [
        "sweep", "--input", str(planted_file), "--model", "prior,ltlgm",
        "--densities", "0.5,1.0", "--folds", "4"])
    assert rc == 0
    rows = [r for r in recs if r["record"] == "sweep"]
    assert [(r["density"], r["model"]) for r in rows] == [
        (0.5, "prior"), (0.5, "ltlgm"), (1.0, "prior"), (1.0, "ltlgm")]
    assert recs[0]["config"]["models"] == ["prior", "ltlgm"]


def test_sweep_rejects_unknown_model(capsys, planted_file):
    assert main(["sweep", "--input", str(planted_file), "--model", "ltlgm,nope"]) == 1
    assert capsys.readouterr().err == "error: unknown model 'nope'\n"


def test_samples_cdf_records(capsys, planted_file):
    rc, recs = run_lines(capsys, [
        "samples-cdf", "--input", str(planted_file), "--model", "ltlgm",
        "--thresholds", "1,4,16", "--folds", "5"])
    assert rc == 0
    cdf = [r for r in recs if r["record"] == "cdf"]
    assert [r["threshold"] for r in cdf] == [1, 4, 16]
    fracs = [r["fraction_below"] for r in cdf]
    assert all(b >= a for a, b in zip(fracs, fracs[1:]))
    summary = [r for r in recs if r["record"] == "summary"][0]
    assert summary["total_parameters"] > 0


# -- update ----------------------------------------------------------------------------

def test_update_merges_like_concatenation(capsys, g1_file, tmp_path):
    batch = tmp_path / "batch.txt"
    batch.write_text("i j +\nw1 j -\nn1 x +\nn1 n2 -\n")
    merged = tmp_path / "merged.txt"
    rc, recs = run_lines(capsys, [
        "update", "--input", str(g1_file), "--batch", str(batch),
        "--clusters", "2", "--out-edges", str(merged)])
    assert rc == 0
    b = [r for r in recs if r["record"] == "batch"][0]
    assert b["added"] == 3 and b["relabeled"] == 1 and b["new_nodes"] == 2
    assert b["nodes"] == 8 and b["edges"] == 10

    # The merged list must equal plain concatenate-then-normalize.
    combined = tmp_path / "combined.txt"
    combined.write_text(G1_TEXT + batch.read_text())
    q = tmp_path / "q.txt"
    q.write_text("i j\nn1 x\n")
    preds = []
    for source in (merged, combined):
        _, recs = run_lines(capsys, [
            "predict", "--input", str(source), "--queries", str(q),
            "--model", "ltlgm"])
        preds.append(recs[1:])
    assert preds[0] == preds[1]


def test_update_snapshots_written(capsys, g1_file, tmp_path):
    batch = tmp_path / "batch.txt"
    batch.write_text("# node zz\ni j -\n")       # a node line in a batch is a comment
    nam_p, cam_p = tmp_path / "t.nam", tmp_path / "t.cam"
    part_p = tmp_path / "part.txt"
    rc, _ = run_lines(capsys, [
        "update", "--input", str(g1_file), "--batch", str(batch),
        "--clusters", "2", "--out-nam", str(nam_p), "--out-cam", str(cam_p),
        "--out-partition", str(part_p)])
    assert rc == 0
    assert nam_p.read_text().startswith("nam-snapshot v1\nnodes 6 labels 2\n")
    assert cam_p.read_text().startswith("cam-snapshot v1\nclusters 2 labels 2\n")
    assert len(part_p.read_text().splitlines()) == 7


def test_update_no_intern_rejects_new_nodes(capsys, g1_file, tmp_path):
    batch = tmp_path / "batch.txt"
    batch.write_text("stranger x +\n")
    assert main(["update", "--input", str(g1_file), "--batch", str(batch),
                 "--clusters", "2", "--no-intern"]) == 1
    assert "stranger" in capsys.readouterr().err


def test_update_rejects_bad_batch_line(capsys, g1_file, tmp_path):
    batch = tmp_path / "batch.txt"
    batch.write_text("i x ?\n")
    assert main(["update", "--input", str(g1_file), "--batch", str(batch),
                 "--clusters", "2"]) == 1
    assert capsys.readouterr().err == f"error: {batch}:1: unknown sign token '?'\n"
    batch.write_text("i x\n")
    assert main(["update", "--input", str(g1_file), "--batch", str(batch),
                 "--clusters", "2"]) == 1
    assert capsys.readouterr().err == f"error: {batch}:1: expected 'src dst sign', got 2 fields\n"


def _write_update_inputs(d):
    """A 60-node planted graph, its planted partition, and a mixed batch.

    The batch relabels five edges, restates three, adds 30 pairs between
    existing nodes and 4 that bring three new nodes, and holds a self-loop
    and three within-batch duplicates, one of which undoes a relabel.
    """
    g, roles = generate_planted(60, 3, 0.2, 0.1, seed=7)
    ext, names, em = g.external_of, g.alphabet.names, g.edge_map()
    lines = []
    for u in range(8):                       # 0..4 relabel, 5..7 restate
        heads, labels = g.out_arrays(u)
        h, l = int(heads[0]), int(labels[0])
        lines.append(f"{ext(u)} {ext(h)} {names[1 - l if u < 5 else l]}")
    lines += ["n1 05 +", "07 n2 -", "11 11 +"]
    for u in range(10, 45):
        v = (u * 7 + 3) % 60
        if v != u and (u, v) not in em:
            lines.append(f"{ext(u)} {ext(v)} {names[(u // 3) % 2]}")
    flip = {"+": "-", "-": "+"}
    lines += ["n2 n3 +", "n1 05 -", lines[0][:-1] + flip[lines[0][-1]],
              lines[12][:-1] + flip[lines[12][-1]], "n3 n1 -"]
    data, part, batch = d / "g.txt", d / "part.txt", d / "batch.txt"
    write_edge_list(g, data)
    part.write_text("# clusters 3\n" + "".join(
        f"{ext(v)} {int(roles[v])}\n" for v in range(g.node_count)))
    batch.write_text("\n".join(lines) + "\n")
    return data, part, batch


#: sha256 of each ``update`` output on ``_write_update_inputs``, fresh
#: clustering and ``--partition-file``. A change here is a change of output.
UPDATE_DIGESTS = {
    "fresh": {
        "cam": "49072ac1a3834acfd691b3df1bb0637f511f08854b47dd50eae163d1493cdf0f",
        "edges": "150cd81b346f60516cf2d360736622bea68ebd5aac5d29b0a34fdda619565f56",
        "jsonl": "7beac65baa3f20318ed0910297c6da5a608126c1556dd9e009cca1fbf3322f05",
        "nam": "fab025c2c3d23b2b51e88b255bdc3fea7dca94af2e7e719fbb768d17bc9dbb67",
        "partition": "909b7ad635f8280c56ae21796666872a81924abaaef2e8a85e5a6358f15dfb74",
    },
    "partition-file": {
        "cam": "9171f7badcd9c5deb88384d3dbdd26d130369709e2cdf9f28b09277af48af805",
        "edges": "150cd81b346f60516cf2d360736622bea68ebd5aac5d29b0a34fdda619565f56",
        "jsonl": "604bcb37f91f81121e4066ef8c45e3b33917ddb744c69e9e96cc957699a6c09c",
        "nam": "fab025c2c3d23b2b51e88b255bdc3fea7dca94af2e7e719fbb768d17bc9dbb67",
        "partition": "d1425441ab1ff7d776397e85c19ae25195ad4722d6e4880ebe79c1bff4c3a537",
    },
}


@pytest.mark.parametrize("mode", sorted(UPDATE_DIGESTS))
def test_update_artifacts_pinned(capsys, tmp_path, mode):
    data, part, batch = _write_update_inputs(tmp_path)
    outs = {name: tmp_path / f"out.{name}" for name in
            ("edges", "partition", "nam", "cam", "jsonl")}
    argv = ["update", "--input", str(data), "--batch", str(batch),
            "--clusters", "3", "--restarts", "1", "--max-sweeps", "5",
            "--out-edges", str(outs["edges"]), "--out-partition", str(outs["partition"]),
            "--out-nam", str(outs["nam"]), "--out-cam", str(outs["cam"]),
            "--output", str(outs["jsonl"])]
    if mode == "partition-file":
        argv += ["--partition-file", str(part)]
    assert main(argv) == 0
    digests = {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in outs.items()}
    assert digests == UPDATE_DIGESTS[mode]


def test_update_budget_error_names_the_cli_flags(capsys, planted_file, tmp_path):
    batch = tmp_path / "batch.txt"
    batch.write_text("0 1 +\n")
    assert main(["update", "--input", str(planted_file), "--batch", str(batch),
                 "--clusters", "3", "--nam-budget", "10"]) == 1
    err = capsys.readouterr().err
    assert "budget is 10" in err and "--nam-override" in err
    assert "on_demand" not in err


# -- config file, exit codes, help ----------------------------------------------------

def test_config_file_supplies_defaults(capsys, planted_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("folds=4\nmu=0.25\nlambda-mode=paper\n")
    rc, recs = run_lines(capsys, [
        "evaluate", "--input", str(planted_file), "--model", "ltlgm",
        "--config", str(cfg)])
    assert rc == 0
    assert recs[0]["config"]["folds"] == 4
    assert recs[0]["config"]["mu"] == 0.25
    assert recs[0]["config"]["lambda_mode"] == "paper"


def test_explicit_flag_beats_config_file(capsys, planted_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("folds=4\nmu=0.25\n")
    rc, recs = run_lines(capsys, [
        "evaluate", "--input", str(planted_file), "--model", "ltlgm",
        "--config", str(cfg), "--mu", "2.0"])
    assert rc == 0
    assert recs[0]["config"]["mu"] == 2.0 and recs[0]["config"]["folds"] == 4


def test_config_file_rejects_bad_line(capsys, planted_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("this is not a pair\n")
    assert main(["stats", "--input", str(planted_file), "--config", str(cfg)]) == 1


def test_missing_input_exits_one(capsys):
    assert main(["stats", "--input", "/nonexistent/file.txt"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_help_lists_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--mu" in out and "default: 4.0" in out
    assert "--folds" in out and "default: 10" in out
