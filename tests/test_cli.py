import contextlib
import io
import json
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeideals.cli import build_parser, main
from edgeideals.families import cycle_graph, path_graph
from edgeideals.gio import from_graph6, to_edge_list, to_graph6


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_with_stdin(argv, text=""):
    """main(argv) with `text` on stdin: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_invariants_c4(capsys):
    code, out, _ = run(capsys, "invariants", "--family", "c4")
    assert code == 0
    rec = json.loads(out)
    assert rec["tau_max"] == 2 and rec["i"] == 2
    assert rec["matching"] == 2 and rec["induced_matching"] == 1
    assert rec["chordal"] is False and rec["gap_free"] is True
    assert rec["bipartite"] is True and rec["connected"] is True


def test_invariants_2k2_and_k5(capsys):
    code, out, _ = run(capsys, "invariants", "--family", "2k2")
    rec = json.loads(out)
    assert rec["tau_max"] == 2 and rec["induced_matching"] == 2
    assert rec["gap_free"] is False
    code, out, _ = run(capsys, "invariants", "--family", "k5")
    assert json.loads(out)["tau_max"] == 4


def test_invariants_ascii(capsys):
    code, out, _ = run(capsys, "invariants", "--family", "c4", "--format", "ascii")
    assert code == 0 and "tau_max: 2" in out


def test_construct_pipe_roundtrip(capsys, monkeypatch, tmp_path):
    code, out, _ = run(capsys, "construct", "hs", "5")
    assert code == 0
    g = from_graph6(out.strip())
    assert g.n == 25
    path = tmp_path / "g.g6"
    path.write_text(out)
    code, out, _ = run(capsys, "invariants", "--graph", str(path))
    assert json.loads(out)["tau_max"] == 8


def test_construct_edge_list_format(capsys):
    code, out, _ = run(capsys, "construct", "c4", "--format", "edge-list")
    assert code == 0 and out == to_edge_list(cycle_graph(4))


def test_graph_from_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(cycle_graph(4)) + "\n"))
    code, out, _ = run(capsys, "invariants", "--graph", "-")
    assert code == 0 and json.loads(out)["n"] == 4


def test_betti_json_and_stability(capsys):
    code, out1, _ = run(capsys, "betti", "--family", "c4", "--char", "2")
    code, out2, _ = run(capsys, "betti", "--family", "c4", "--char", "2")
    assert code == 0 and out1 == out2
    rec = json.loads(out1)
    assert rec["pd"] == 3 and rec["reg"] == 1
    assert {(e["i"], e["j"]) for e in rec["entries"]} == {(0, 0), (1, 2), (2, 3), (3, 4)}


def test_enumerate_stream(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--filter", "no-isolated")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 7
    assert all(from_graph6(line).n == 4 for line in lines)


def test_verify_bound_json_lines(capsys):
    code, out, _ = run(capsys, "verify", "bound", "--n", "4", "--exhaustive")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [rec["n"] for rec in lines] == [2, 3, 4]
    assert all(rec["violations"] == [] for rec in lines)
    assert len(lines[-1]["equality_class"]) == 3


def test_verify_classification(capsys):
    code, out, _ = run(capsys, "verify", "classification", "--n", "4")
    assert code == 0
    rec = json.loads(out)
    assert rec["mismatches"] == []


def test_verify_pdr_spec_csv(capsys):
    code, out, _ = run(capsys, "verify", "pdr-spec", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,p,r,witness_graph6"
    rows = [line.split(",") for line in lines[1:]]
    assert ["4", "2", "2"] == rows[[r[:3] for r in rows].index(["4", "2", "2"])][:3]
    # witnesses parse back
    assert all(from_graph6(r[3]).n == 4 for r in rows)


def test_verify_pdr_spec_json_counts_certified_classes(capsys):
    code, out, _ = run(capsys, "verify", "pdr-spec", "--n", "5",
                       "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert (rec["classes_visited"], rec["certified"]) == (23, 23)
    assert rec["r1_row_ok"] and rec["conjecture_violations"] == []


def test_verify_spectrum(capsys):
    code, out, _ = run(capsys, "verify", "spectrum", "--n", "6")
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["ok"] for r in recs)


def test_verify_spectrum_betti_cap_zero_skips_homology(capsys, monkeypatch):
    monkeypatch.setenv("EDGEIDEALS_MAX_BETTI_N", "0")
    code, out, _ = run(capsys, "verify", "spectrum", "--n", "4")
    lines = out.strip().splitlines()
    assert code == 0 and lines
    assert all('"pd": null' in line for line in lines)


def test_exit_codes(capsys, tmp_path):
    # usage: unknown family
    code, _, err = run(capsys, "invariants", "--family", "bogus:3")
    assert code == 1
    # usage: no graph source
    code, _, err = run(capsys, "invariants")
    assert code == 1
    # usage: sampled verify without seed
    code, _, err = run(capsys, "verify", "bound", "--n", "4", "--samples", "5")
    assert code == 1
    # parse error
    bad = tmp_path / "bad.g6"
    bad.write_text("\x19nope")
    code, _, err = run(capsys, "invariants", "--graph", str(bad))
    assert code == 2
    # resource cap
    code, _, err = run(capsys, "enumerate", "--n", "10")
    assert code == 3
    code, _, err = run(capsys, "verify", "pdr-spec", "--n", "10")
    assert code == 3 and "EDGEIDEALS_MAX_ENUM_N" in err
    code, _, err = run(capsys, "betti", "--family", "hs:5")
    assert code == 3
    # missing file -> parse-side error
    code, _, err = run(capsys, "invariants", "--graph", str(tmp_path / "nope"))
    assert code == 2


def test_env_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("EDGEIDEALS_MAX_BETTI_N", "4")
    code, _, err = run(capsys, "betti", "--family", "c:5")
    assert code == 3 and "4" in err
    monkeypatch.setenv("EDGEIDEALS_MAX_BETTI_N", "6")
    code, out, _ = run(capsys, "betti", "--family", "c:5")
    assert code == 0


def test_mis_cap_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("EDGEIDEALS_MAX_MIS", "5")
    code, out, err = run(capsys, "invariants", "--family", "c:12")
    assert code == 3 and out == "" and "Traceback" not in err
    assert err.startswith("resource limit:") and len(err.splitlines()) == 1
    assert "EDGEIDEALS_MAX_MIS" in err
    # C_12 has 29 maximal independent sets; the branch and bound for its
    # induced matching number expands 5 nodes
    monkeypatch.setenv("EDGEIDEALS_MAX_MIS", "31")
    code, out, _ = run(capsys, "invariants", "--family", "c:12")
    assert code == 0 and json.loads(out)["num_minimal_covers"] == 29


@pytest.mark.parametrize("var, argv", [
    ("EDGEIDEALS_MAX_BETTI_N", ("betti", "--family", "c4")),
    ("EDGEIDEALS_MAX_ENUM_N", ("enumerate", "--n", "3")),
    ("EDGEIDEALS_MAX_MIS", ("invariants", "--family", "c4")),
])
def test_env_cap_not_an_integer_is_usage_error(capsys, monkeypatch, var, argv):
    monkeypatch.setenv(var, "abc")
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and var in err
    assert len(err.splitlines()) == 1


@pytest.mark.filterwarnings("error")
def test_invariants_graph_file_is_closed(capsys, tmp_path):
    path = tmp_path / "c4.g6"
    path.write_text(to_graph6(cycle_graph(4)) + "\n")
    code, out, _ = run(capsys, "invariants", "--graph", str(path))
    assert code == 0 and json.loads(out)["n"] == 4


@pytest.mark.parametrize("argv", [
    ("enumerate", "--n", "-1"),
    ("verify", "pdr-spec", "--n", "-1"),
])
def test_negative_n_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.startswith("usage error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("verify", "classification", "--n", "-1"),
    ("verify", "pdr-spec", "--n", "0"),
    ("verify", "pdr-spec", "--n", "1"),
    ("verify", "bound", "--n", "3", "--samples", "-2", "--seed", "1"),
    ("verify", "bound", "--n", "3", "--samples", "0", "--seed", "1"),
    ("verify", "bound", "--n", "1", "--exhaustive"),
    ("verify", "bound", "--n", "-5", "--exhaustive"),
    ("verify", "bound", "--n", "1", "--samples", "3", "--seed", "1"),
    ("verify", "spectrum", "--n", "1"),
    ("verify", "spectrum", "--n", "-3"),
])
def test_out_of_range_verify_argument_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.startswith("usage error:") and len(err.splitlines()) == 1


def test_non_utf8_graph_file_is_parse_error(capsys, tmp_path):
    # the bytes reach the graph6 parser, as the same bytes on stdin do
    path = tmp_path / "bad.g6"
    path.write_bytes(b"\xff\xfe\x80")
    code, out, err = run(capsys, "betti", "--graph", str(path))
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("parse error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("text", [
    "\u00b2 0\n",          # superscript 2
    "2 1\n0 \u00b9\n",     # superscript 1 in an edge line
    "\u0663 0\n",          # Arabic-Indic 3, once read as n = 3
])
def test_non_ascii_digits_are_parse_errors(text):
    code, out, err = run_with_stdin(["invariants", "--graph", "-"], text)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("parse error:") and len(err.splitlines()) == 1


def test_help_returns_zero(capsys):
    code, out, _ = run(capsys, "-h")
    assert code == 0 and out.startswith("usage: edgeideals")
    code, out, _ = run(capsys, "betti", "--help")
    assert code == 0 and "--char" in out


@pytest.mark.parametrize("argv", [
    ("betti", "--family", "c4"),
    ("enumerate", "--n", "3"),
    ("verify", "bound", "--n", "4", "--exhaustive"),
])
def test_caps_have_no_flag(capsys, argv):
    # each size cap is set by its environment variable alone
    code, out, _ = run(capsys, argv[0], "-h")
    assert code == 0 and "--max-n" not in out
    code, out, err = run(capsys, *argv, "--max-n", "2")
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and len(err.splitlines()) == 1


# Tokens for argv: every subcommand and flag, family specs, small ints and
# junk. With ints kept to -2..6 no call leaves the caps' fast paths.
_ARGV_TOKENS = (
    "invariants", "betti", "construct", "enumerate", "verify", "bound",
    "classification", "spectrum", "pdr-spec", "--graph", "--family",
    "--format", "--char", "--max-n", "--n", "--filter", "--exhaustive",
    "--samples", "--seed", "-h", "-", "json", "ascii", "csv", "graph6",
    "edge-list", "all", "no-isolated", "connected", "c4", "hs:3", "kb:3,3",
    "k5", "2k2", "gn:5", "p", "c", "k", "kb", "spectrum:6,4", "pdr:6,4,2",
    "bogus:3", "", "--", "-x", "--nope", "=", "é", "3,", "1e3",
)
# Free text has no decimal digits, so an edge-list header cannot ask for a
# graph of thousands of vertices.
_STDIN_TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Nd",)), max_size=12),
    st.lists(st.sampled_from(("C~", "Cr", "D?{", "2 1", "0 1", "1 2", "5 0",
                              "-1", "\udcff", "~", " ", "\n")),
             max_size=6).map("".join))


@given(st.lists(st.one_of(st.sampled_from(_ARGV_TOKENS),
                          st.integers(-2, 6).map(str)), max_size=8),
       _STDIN_TEXT)
@settings(max_examples=300, deadline=None)
def test_cli_fuzz_exits_with_a_contract_code(argv, text):
    first = run_with_stdin(argv, text)
    assert first[0] in range(5), (argv, text, first)
    # main reuses its parser, so a second call, on fresh stdin, repeats
    # the first byte for byte
    assert run_with_stdin(argv, text) == first, (argv, text)


def test_successive_main_calls_share_no_state():
    argv = ["invariants", "--graph", "-"]
    c4 = run_with_stdin(argv, to_graph6(cycle_graph(4)) + "\n")
    p5 = run_with_stdin(argv, to_graph6(path_graph(4)) + "\n")
    assert c4[0] == p5[0] == 0 and c4[2] == p5[2] == ""
    rec_c4, rec_p5 = json.loads(c4[1]), json.loads(p5[1])
    assert (rec_c4["n"], rec_c4["chordal"]) == (4, False)
    assert (rec_p5["n"], rec_p5["chordal"]) == (5, True)
    # a usage error and a non-default option between calls change nothing
    code, out, err = run_with_stdin(["invariants", "--format", "xml"])
    assert code == 1 and out == "" and err.startswith("usage error:")
    code, out, _ = run_with_stdin(argv + ["--format", "ascii"], "C~\n")
    assert code == 0 and "tau_max: 3" in out
    assert run_with_stdin(argv, to_graph6(path_graph(4)) + "\n") == p5
    assert run_with_stdin(argv, to_graph6(cycle_graph(4)) + "\n") == c4
    # the public builder still hands out a fresh parser on every call
    assert build_parser() is not build_parser()


# Each verify harness declares only the flags it reads: a flag another
# harness reads, or a second graph source, is a usage error.
@pytest.mark.parametrize("argv", [
    ("verify", "bound", "--n", "4", "--exhaustive", "--char", "3"),
    ("verify", "bound", "--n", "4", "--exhaustive", "--format", "csv"),
    ("verify", "classification", "--n", "4", "--exhaustive"),
    ("verify", "classification", "--n", "4", "--samples", "5"),
    ("verify", "classification", "--n", "4", "--seed", "1"),
    ("verify", "classification", "--n", "4", "--char", "3"),
    ("verify", "classification", "--n", "4", "--format", "csv"),
    ("verify", "spectrum", "--n", "4", "--exhaustive"),
    ("verify", "spectrum", "--n", "4", "--samples", "5"),
    ("verify", "spectrum", "--n", "4", "--seed", "1"),
    ("verify", "spectrum", "--n", "4", "--format", "csv"),
    ("verify", "pdr-spec", "--n", "4", "--exhaustive"),
    ("verify", "pdr-spec", "--n", "4", "--samples", "5"),
    ("verify", "pdr-spec", "--n", "4", "--seed", "1"),
    ("verify", "bound", "--n", "4", "--exhaustive", "--samples", "5",
     "--seed", "1"),
    ("invariants", "--graph", "-", "--family", "c4"),
    ("betti", "--family", "c4", "--graph", "-"),
    ("verify", "spectrum", "--n", "4", "--char", "3"),
])
def test_flag_a_command_does_not_read_is_usage_error(argv):
    code, out, err = run_with_stdin(list(argv), to_graph6(cycle_graph(4)))
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.startswith("usage error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("harness, flags", [
    ("bound", {"--n", "--exhaustive", "--samples", "--seed"}),
    ("classification", {"--n"}),
    ("spectrum", {"--n"}),
    ("pdr-spec", {"--n", "--char", "--format"}),
])
def test_verify_harness_help_lists_its_flags(capsys, harness, flags):
    code, out, _ = run(capsys, "verify", harness, "-h")
    assert code == 0 and out.startswith(f"usage: edgeideals verify {harness}")
    assert set(re.findall(r"--[a-z-]+", out)) == flags | {"--help"}


def test_construct_spectrum_reports_its_own_interval(capsys):
    # p = n - 1 is the star, so the interval ends at n - 1, not n - 2
    for n, p, low in ((10, 10, 5), (2, 0, 1)):
        code, out, err = run(capsys, "construct", "spectrum", str(n), str(p))
        assert (code, out, err) == (1, "", (
            f"usage error: p={p} outside the legal interval "
            f"[{low}, {n - 1}] for n={n}\n"))
    code, out, _ = run(capsys, "construct", "spectrum", "10", "9")
    assert code == 0 and from_graph6(out.strip()).m == 9
