import io
import json
import sys

import pytest

from maxleaf.cli import main
from maxleaf.generators import RANDOM_MAX_N, g7, necklace, q3
from maxleaf.graphs import parse_graph, write_graph
from maxleaf.solver import tree_leaf_count, verify_spanning_tree


def run(capsys, *argv, stdin: str | None = None):
    if stdin is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            code = main(list(argv))
        finally:
            sys.stdin = old
    else:
        code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def q3_file(tmp_path):
    p = tmp_path / "q3.gr"
    p.write_text(write_graph(q3()))
    return str(p)


@pytest.fixture
def g7_minus_file(tmp_path):
    g = g7()
    g.remove_edge(2, 5)
    p = tmp_path / "g7m.gr"
    p.write_text(write_graph(g))
    return str(p)


def test_solve_yes_and_no(capsys, q3_file):
    code, out, _ = run(capsys, "solve", "-k", "4", q3_file)
    assert code == 0 and out.strip() == "YES"
    code, out, _ = run(capsys, "solve", "-k", "5", q3_file)
    assert code == 1 and out.strip() == "NO"


def test_solve_json_stats_witness(capsys, q3_file):
    code, out, _ = run(capsys, "solve", "-k", "4", q3_file, "--json", "--stats", "--witness")
    assert code == 0
    doc = json.loads(out)
    assert doc["answer"] == "YES"
    keys = {"subsets_enumerated", "subsets_pruned", "search_side", "probe_leaves", "leaf_ceiling"}
    assert keys <= doc["stats"].keys()
    # the forced side builds the expansion tree first: 4 leaves, so nothing is enumerated
    assert doc["stats"]["search_side"] == "forced" and doc["stats"]["probe_leaves"] == 4
    assert doc["stats"]["leaf_ceiling"] == 5  # 8 vertices of degree 3: at least 3 internal
    assert doc["stats"]["subsets_enumerated"] == 0
    tree = [tuple(e) for e in doc["witness"]]
    assert verify_spanning_tree(q3(), tree) and tree_leaf_count(tree) >= 4


def test_solve_witness_reparses_as_graph(capsys, q3_file):
    code, out, _ = run(capsys, "solve", "-k", "4", q3_file, "--witness")
    assert code == 0
    lines = out.strip().splitlines()
    tree_text = "\n".join(lines[1:]) + "\n"
    t = parse_graph(tree_text)
    assert t.n == 8 and t.m == 7


def test_solve_reads_stdin(capsys):
    code, out, _ = run(capsys, "solve", "-k", "2", "-", stdin=write_graph(q3()))
    assert code == 0


def test_solve_doubled_path(capsys):
    # parallel edges count once: the doubled 11-vertex path has 2 leaves at most
    text = "p 11 20\n" + "".join(f"e {i} {i + 1}\ne {i} {i + 1}\n" for i in range(1, 11))
    code, out, _ = run(capsys, "solve", "-k", "3", "-", stdin=text)
    assert code == 1 and out.strip() == "NO"
    code, out, _ = run(capsys, "solve", "-k", "2", "--witness", "-", stdin=text)
    assert code == 0 and out.splitlines()[0] == "YES"


def test_detect_json_on_g7_minus(capsys, g7_minus_file):
    code, out, _ = run(capsys, "detect", "--pattern", "2blossom", g7_minus_file, "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 1 and doc[0]["kind"] == "2-blossom"


def test_detect_json_2necklace_in_role_order(capsys):
    # necklace(3) is 1 (2 3) 4 (5 6) 7 (8 9) 10; a pendant at each end
    # raises both ends to degree 3
    g = necklace(3)
    g.add_edge(1, 11)
    g.add_edge(10, 12)
    code, out, _ = run(capsys, "detect", "--pattern", "2necklace", "--json", "-", stdin=write_graph(g))
    assert code == 0
    assert json.loads(out) == [
        {"kind": "2-necklace", "vertices": list(range(1, 11)), "terminals": [1, 10], "k": 3}
    ]


def test_detect_invariant_exit_codes(capsys, q3_file, g7_minus_file):
    code, out, _ = run(capsys, "detect", "--pattern", "invariant", q3_file)
    assert code == 0 and out.strip() == "ok"
    code, out, _ = run(capsys, "detect", "--pattern", "invariant", g7_minus_file)
    assert code == 1 and "2-blossom" in out


def test_generate_solve_pipeline(capsys, tmp_path):
    out_file = str(tmp_path / "ring.gr")
    code, _, _ = run(capsys, "generate", "--family", "necklace-ring", "--param", "3", "-o", out_file)
    assert code == 0
    code, _, _ = run(capsys, "solve", "-k", "5", out_file)
    assert code == 0
    code, _, _ = run(capsys, "solve", "-k", "6", out_file)
    assert code == 1


def test_generate_dot(capsys):
    code, out, _ = run(capsys, "generate", "--family", "q3", "--dot")
    assert code == 0 and out.startswith("graph")


def test_generate_bad_param(capsys):
    code, _, err = run(capsys, "generate", "--family", "flowerbed", "--param", "1")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("n", [RANDOM_MAX_N + 1, 100_000_000])
def test_generate_random_above_the_maximum_exit_2(capsys, n):
    # sampling is quadratic, so n far above the maximum would run for days
    # or run out of memory; it is refused before anything is allocated
    code, out, err = run(capsys, "generate", "--family", "random", "--n", str(n))
    assert code == 2 and out == "" and err == f"error: random graphs need 4 <= n <= {RANDOM_MAX_N}\n"


@pytest.mark.parametrize(
    "family, param, message",
    [
        ("necklace", "5334", "necklace needs 1 <= k <= 5333"),
        ("necklace-ring", "4001", "necklace-ring needs 2 <= k <= 4000 (k = 1 collapses to K4)"),
        ("flowerbed", "1231", "flowerbed needs 2 <= i <= 1230 (i = 1 would need a parallel edge)"),
        ("flowerbed", "100000000", "flowerbed needs 2 <= i <= 1230 (i = 1 would need a parallel edge)"),
    ],
)
def test_generate_family_above_the_maximum_exit_2(capsys, family, param, message):
    # each family's maximum keeps n within RANDOM_MAX_N; above it nothing is built
    code, out, err = run(capsys, "generate", "--family", family, "--param", param)
    assert code == 2 and out == "" and err == f"error: {message}\n"


RANDOM_ONLY = "error: --n, --min-degree and --seed are read only with --family random\n"
PARAM_ONLY = "error: --param is read only with --family necklace, necklace-ring or flowerbed\n"


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--family", "q3", "--n", "10"], RANDOM_ONLY),
        (["--family", "q3", "--seed", "5"], RANDOM_ONLY),
        (["--family", "flowerbed", "--min-degree", "3"], RANDOM_ONLY),
        (["--family", "necklace", "--seed", "0"], RANDOM_ONLY),
        (["--family", "q3", "--param", "3"], PARAM_ONLY),
        (["--family", "random", "--n", "12", "--param", "3"], PARAM_ONLY),
    ],
    ids=["n-q3", "seed-q3", "min-degree-flowerbed", "seed-necklace", "param-q3", "param-random"],
)
def test_generate_unused_option_exit_2(capsys, extra, message):
    code, out, err = run(capsys, "generate", *extra)
    assert code == 2 and out == "" and err == message


def test_generate_random_defaults(capsys):
    """--min-degree 3 and --seed 0 are the defaults of the random family."""
    code, plain, _ = run(capsys, "generate", "--family", "random", "--n", "20")
    assert code == 0
    code, explicit, _ = run(capsys, "generate", "--family", "random", "--n", "20", "--min-degree", "3", "--seed", "0")
    assert code == 0 and explicit == plain
    code, other, _ = run(capsys, "generate", "--family", "random", "--n", "20", "--seed", "1")
    assert code == 0 and other != plain
    for family, param in (("necklace", "2"), ("necklace-ring", "3"), ("flowerbed", "2")):
        code, _, _ = run(capsys, "generate", "--family", family, "--param", param)
        assert code == 0


def test_maximize_exact_and_heuristic(capsys, q3_file):
    code, out, _ = run(capsys, "maximize", "--exact", q3_file, "--json")
    assert code == 0
    assert json.loads(out)["leaves"] == 4
    code, out, _ = run(capsys, "maximize", "--heuristic", q3_file, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["leaves"] >= 4
    from fractions import Fraction

    assert Fraction(doc["bound_num"], doc["bound_den"]) == 4
    assert doc["met"] is True
    tree = [tuple(e) for e in doc["tree"]]
    assert verify_spanning_tree(q3(), tree)


def test_maximize_heuristic_cap_exit_2(capsys, q3_file):
    code, out, err = run(capsys, "maximize", "--heuristic", "--cap", "5", q3_file)
    assert code == 2 and out == "" and err == "error: --cap is read only with --exact\n"
    code, _, err = run(capsys, "maximize", "--exact", "--cap", "5", q3_file)
    assert code == 2 and err == "error: instance has 8 > 5 vertices\n"


def test_reduce_trace_and_replay(capsys, tmp_path):
    # a reducible invariant graph: diamond with a high-degree connector
    from maxleaf.graphs import Graph

    g = Graph(edges=[(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (1, 5), (1, 6), (4, 7)])
    src = tmp_path / "in.gr"
    src.write_text(write_graph(g))
    trace = tmp_path / "trace.jsonl"
    reduced_file = tmp_path / "red.gr"
    code, _, _ = run(capsys, "reduce", str(src), "--trace", str(trace), "-o", str(reduced_file))
    assert code == 0
    steps = [json.loads(line) for line in trace.read_text().splitlines()]
    assert steps and steps[0]["rule"] == "R1"
    code, out, _ = run(capsys, "reduce", str(src), "--replay", str(trace))
    assert code == 0
    replayed = parse_graph(out)
    assert replayed == parse_graph(reduced_file.read_text())
    replayed_file = tmp_path / "replayed.gr"
    code, out, _ = run(capsys, "reduce", str(src), "--replay", str(trace), "-o", str(replayed_file))
    assert code == 0 and out == "" and parse_graph(replayed_file.read_text()) == replayed


def test_reduce_fpt_mode(capsys, g7_minus_file):
    code, out, _ = run(capsys, "reduce", g7_minus_file, "--fpt", "-k", "5")
    assert code == 0
    assert "k now 4" in out


def test_reduce_fpt_k_below_one_exit_2(capsys, g7_minus_file):
    code, out, err = run(capsys, "reduce", g7_minus_file, "--fpt", "-k", "-5")
    assert code == 2 and out == "" and err == "error: k must be at least 1\n"


@pytest.mark.parametrize("k", ["-5", "3"])
def test_reduce_k_without_fpt_exit_2(capsys, tmp_path, k):
    path = tmp_path / "p3.gr"
    path.write_text("p 3 2\ne 1 2\ne 2 3\n")
    code, out, err = run(capsys, "reduce", str(path), "-k", k)
    assert code == 2 and out == "" and err == "error: -k is read only with --fpt\n"


@pytest.mark.parametrize("option", [("--fpt",), ("-k", "3"), ("--trace", "{dir}/out.jsonl")], ids=["fpt", "k", "trace"])
def test_reduce_replay_with_other_options_exit_2(capsys, tmp_path, q3_file, option):
    trace = tmp_path / "trace.jsonl"
    trace.write_text("")
    argv = [part.format(dir=tmp_path) for part in option]
    code, out, err = run(capsys, "reduce", q3_file, "--replay", str(trace), *argv)
    assert code == 2 and out == "" and err == "error: --replay takes no --fpt, -k or --trace\n"
    assert not (tmp_path / "out.jsonl").exists()


def test_suppress_output(capsys, tmp_path):
    from maxleaf.graphs import Graph

    g = Graph(edges=[(1, 2), (2, 3), (3, 1), (1, 4), (4, 5)])
    src = tmp_path / "tri.gr"
    src.write_text(write_graph(g))
    code, out, _ = run(capsys, "suppress", str(src), "--json")
    assert code == 0
    doc = json.loads(out)
    loops = [e for e in doc["edges"] if e["loop"]]
    assert len(loops) == 1 and loops[0]["internal_count"] == 2


def test_verify_g7_q3(capsys):
    code, out, _ = run(capsys, "verify", "g7", "q3")
    assert code == 0
    assert out.count("PASS") == 2
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.splitlines() == [
        "PASS g7 optimum=4",
        "PASS q3 optimum=4",
        "PASS flowerbed k=10:YES k=11:NO",
        "PASS theorem1-sample violations=0/20",
    ]


@pytest.mark.parametrize("samples", ["-3", "0"])
def test_verify_samples_below_one_exit_2(capsys, samples):
    code, out, err = run(capsys, "verify", "theorem1-sample", "--samples", samples)
    assert code == 2 and out == "" and "at least 1" in err


def test_verify_unknown_check_fails(capsys):
    code, out, err = run(capsys, "verify", "q3", "nonsense")
    assert code == 2 and out == ""
    assert err == "error: unknown check nonsense (choose from g7 q3 flowerbed theorem1-sample)\n"


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0


def test_usage_error_exit_2(capsys):
    code, _, _ = run(capsys, "solve", "q3.gr")  # missing -k
    assert code == 2


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "solve", "-k", "3", "/nonexistent/file.gr")
    assert code == 2 and "error" in err


def test_non_utf8_graph_exit_2(capsys, tmp_path):
    bad = tmp_path / "latin1.gr"
    bad.write_bytes("c caf\xe9\np 2 1\ne 1 2\n".encode("latin-1"))
    code, _, err = run(capsys, "solve", "-k", "2", str(bad))
    assert code == 2 and err.count("error:") == 1 and "UTF-8" in err


@pytest.mark.parametrize(
    "option", [(), ("--trace", "{dir}"), ("-o", "{dir}")], ids=["graph", "trace", "output"]
)
def test_directory_path_exit_2(capsys, tmp_path, q3_file, option):
    argv = [part.format(dir=tmp_path) for part in option]
    graph = str(tmp_path) if not option else q3_file
    code, _, err = run(capsys, "reduce", graph, *argv)
    assert code == 2 and err.count("error:") == 1 and "directory" in err


def _step_line(**fields) -> str:
    step = {
        "rule": "R5", "roles": {}, "removed_vertices": [], "removed_edges": [],
        "added_vertices": [], "added_edges": [], "delta_n3": 0, "component_delta": 0,
    }
    return json.dumps({**step, **fields})


@pytest.mark.parametrize(
    "bad_line",
    [
        "{not json",
        '{"rule": "R5"}',
        _step_line(removed_edges=[[1, 2, 3]]),
        _step_line(added_vertices=[[1]]),
        _step_line(removed_edges=[[1.9, 2.2]]),
        _step_line(roles={"a": 2.7}),
        _step_line(delta_n3="x"),
        _step_line(made_goober=1),
    ],
    ids=[
        "not-json", "missing-key", "edge-not-a-pair", "vertex-not-an-int", "vertex-a-float", "role-a-float",
        "delta-not-an-int", "goober-not-a-bool",
    ],
)
def test_bad_replay_line_exit_2(capsys, tmp_path, q3_file, bad_line):
    trace = tmp_path / "trace.jsonl"
    trace.write_text("\n" + bad_line + "\n")
    code, _, err = run(capsys, "reduce", q3_file, "--replay", str(trace))
    assert code == 2 and err.count("error:") == 1 and "line 2: not a step" in err


def test_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.gr"
    bad.write_text("p 2 1\ne 1 9\n")
    code, _, err = run(capsys, "solve", "-k", "2", str(bad))
    assert code == 2 and "error" in err


@pytest.mark.parametrize("command", [("solve", "-k", "3"), ("maximize", "--exact")])
def test_huge_declared_n_without_edges_exit_2(capsys, tmp_path, command):
    path = tmp_path / "huge.gr"
    path.write_text("p 200000 0\n")
    code, _, err = run(capsys, *command, str(path))
    assert code == 2 and "connected" in err
