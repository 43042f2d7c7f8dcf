import json

import pytest

from edgeideals.cli import main
from edgeideals.families import cycle_graph
from edgeideals.gio import from_graph6, to_edge_list, to_graph6


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_verify_spectrum(capsys):
    code, out, _ = run(capsys, "verify", "spectrum", "--n", "6")
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["ok"] for r in recs)


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


@pytest.mark.parametrize("var, argv", [
    ("EDGEIDEALS_MAX_BETTI_N", ("betti", "--family", "c4")),
    ("EDGEIDEALS_MAX_ENUM_N", ("enumerate", "--n", "3")),
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
