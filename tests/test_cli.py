"""End-to-end CLI tests driven through pdgal3.cli.main(argv)."""

import json

import pytest

from pdgal3.cli import main

SEMISIMPLE = {
    "schema": "pdgal3/1",
    "dim": 3,
    "matrix": [["t/x", "0", "0"], ["0", "1/x", "0"], ["0", "0", "0"]],
    "certificates": {
        "flag": [
            [["1"], ["0"], ["0"]],
            [["1", "0"], ["0", "1"], ["0", "0"]],
        ]
    },
}


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_analyze_semisimple(tmp_path, capsys):
    path = write(tmp_path, "sys.json", SEMISIMPLE)
    code, doc = run(capsys, ["analyze", path])
    assert code == 0
    assert doc["schema"] == "pdgal3/1"
    assert doc["case_path"] == "SEMISIMPLE"
    assert doc["group"]["kind"] == "named"
    assert doc["group"]["family"] == "torus"
    assert doc["timing_seconds"] >= 0


def test_analyze_writes_out_file(tmp_path, capsys):
    path = write(tmp_path, "sys.json", SEMISIMPLE)
    out = tmp_path / "report.json"
    code = main(["analyze", path, "--out", str(out), "--pretty"])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["case_path"] == "SEMISIMPLE"


def test_analyze_cqnc_residues_outside_qt(tmp_path, capsys):
    # a diagonal with residues outside Q(t): once a traceback and exit 1
    doc = dict(SEMISIMPLE, matrix=[
        ["(x+1)/(x^2-t)", "1/(x-1)", "0"],
        ["0", "(x+1)/(x^2-t)", "1/(x+1)"],
        ["0", "0", "t/x"],
    ])
    code, out = run(capsys, ["analyze", write(tmp_path, "sys.json", doc)])
    assert code == 0
    assert out["case_path"] == "(CQ,NC)-undecided"
    assert out["flags"] == ["bound-limited", "deferred"]


def test_analyze_wrong_dim_exit_2(tmp_path, capsys):
    path = write(tmp_path, "sys.json",
                 {"matrix": [["0", "1"], ["0", "0"]]})
    assert main(["analyze", path]) == 2
    assert "unsupported" in capsys.readouterr().err


def test_analyze_oversized_log_derivative_witness_exit_2(tmp_path, capsys):
    # the torus entry's witness would have x-degree 24071 (m = 716539)
    a = "1/(97*x) + 1/(89*(x-1)) + 1/(83*(x-t))"
    doc = dict(SEMISIMPLE, matrix=[[a, "0", "0"], ["0", "1/x", "0"],
                                   ["0", "0", "0"]])
    assert main(["analyze", write(tmp_path, "sys.json", doc)]) == 2
    assert "witness of degree 24071" in capsys.readouterr().err


def test_analyze_certified_flag_without_simple_poles(tmp_path, capsys):
    # the →dual→ route reads dual(V)'s flag off the certified one; it once
    # searched dual(V) and exited 2 on the double pole
    doc = dict(SEMISIMPLE, matrix=[["t/x", "1/(x-1)", "1/x^2"],
                                   ["0", "0", "1/x"], ["0", "0", "0"]])
    code, out = run(capsys, ["analyze", write(tmp_path, "sys.json", doc)])
    assert code == 0
    assert out["case_path"].startswith("(NC,CQ)→dual→")


#: e1 spans an invariant line of the upper 2-dim block, whose character has
#: residues outside Q(t): the class search misses it and is not complete
UNSPLIT_BLOCK = [["(x+1)/(x^2-t)", "1/x", "0"], ["0", "0", "1/(x-1)"],
                 ["0", "0", "t/x"]]


@pytest.mark.parametrize("flag", [None, [[["1", "0"], ["0", "1"], ["0", "0"]]]])
def test_analyze_block_not_provably_simple_is_undecided(tmp_path, capsys,
                                                        flag):
    # the block, with or without its plane as a certificate, once counted
    # as a simple 2-dim factor: INDECOMPOSABLE-2DIM
    doc = {"matrix": UNSPLIT_BLOCK}
    if flag is not None:
        doc["certificates"] = {"flag": flag}
    code, out = run(capsys, ["analyze", write(tmp_path, "sys.json", doc)])
    assert code == 0
    assert out["case_path"] == "UNDECIDED"
    assert out["flags"] == ["bound-limited", "deferred"]
    assert out["certificates"] == []


@pytest.mark.parametrize("matrix", [[["0", "1"], ["x^2+t", "0"]],
                                    [["(x+1)/(x^2-t)", "1/x"], ["0", "0"]]])
def test_check_classify2_incomplete_line_search_exit_1(tmp_path, capsys,
                                                       matrix):
    # no invariant line found proves nothing: the first is irregular at
    # infinity, so the class search is bounded; the second has the line e1
    # with residues outside Q(t).  Both were once "CR" (simple)
    path = write(tmp_path, "m.json", {"matrix": matrix})
    assert main(["check", "classify2", path]) == 1
    assert "not provably complete" in capsys.readouterr().err


def test_check_constancy_incomplete_search_exit_1(tmp_path, capsys):
    # [[0, 1], [x^2 + t, 0]] is irregular at infinity: the bounded search
    # for a witness finds none, which proves nothing
    path = write(tmp_path, "m.json", {"matrix": [["0", "1"], ["x^2+t", "0"]]})
    assert main(["check", "constancy", path]) == 1
    assert "not provably complete" in capsys.readouterr().err


def test_parse_error_exit_1(tmp_path, capsys):
    path = write(tmp_path, "sys.json",
                 {"matrix": [["1/("], ["0"]]})
    assert main(["analyze", path]) == 1
    path2 = tmp_path / "missing.json"
    assert main(["analyze", str(path2)]) == 1
    bad_dim = write(tmp_path, "bd.json",
                    {"dim": 2, "matrix": [["0", "0", "0"]] * 3})
    assert main(["analyze", bad_dim]) == 1
    capsys.readouterr()


def test_oversized_entry_exit_1(tmp_path, capsys):
    doc = {"schema": "pdgal3/1", "dim": 3,
           "matrix": [["t/x", "0", "0"], ["0", "x^(10^9)", "0"],
                      ["0", "0", "0"]]}
    assert main(["analyze", write(tmp_path, "sys.json", doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exponent above" in err


def test_construct_prolong(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"matrix": [["t/x"]]})
    code, doc = run(capsys, ["construct", "prolong", path])
    assert code == 0
    assert doc["dim"] == 2
    assert doc["matrix"][0][0] == doc["matrix"][1][1]
    assert doc["matrix"][1][0] == "0"


def test_construct_dual_roundtrip(tmp_path, capsys):
    path = write(tmp_path, "m.json",
                 {"matrix": [["t/x", "1"], ["0", "1/x"]]})
    code, doc = run(capsys, ["construct", "dual", path])
    assert code == 0
    dd = write(tmp_path, "d.json", doc)
    code, doc2 = run(capsys, ["construct", "dual", dd])
    assert code == 0
    assert doc2["matrix"] == [["t/x", "1"], ["0", "1/x"]]


def test_construct_tensor_dims(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"matrix": [["t/x", "0"], ["0", "0"]]})
    b = write(tmp_path, "b.json", {"matrix": [["1/x"]]})
    code, doc = run(capsys, ["construct", "tensor", a, b])
    assert code == 0 and doc["dim"] == 2


def test_construct_gauge_by_basis(tmp_path, capsys):
    # Y = x*Z turns dY/dx = 0 into dZ/dx = -Z/x
    m = write(tmp_path, "m.json", {"matrix": [["0"]]})
    b = write(tmp_path, "b.json", {"matrix": [["x"]]})
    code, doc = run(capsys, ["construct", "gauge", m, b])
    assert code == 0 and doc["matrix"] == [["-1/x"]]


@pytest.mark.parametrize("basis", [
    [["1", "1"], ["1", "1"]],
    [["1"]],
])
def test_construct_gauge_bad_basis_exit_1(tmp_path, capsys, basis):
    m = write(tmp_path, "m.json", M2)
    b = write(tmp_path, "b.json", {"matrix": basis})
    assert main(["construct", "gauge", m, b]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: gauge basis must be an invertible 2x2")
    assert "Traceback" not in captured.err


def test_construct_arity_error(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"matrix": [["t/x"]]})
    assert main(["construct", "tensor", a]) == 1
    capsys.readouterr()


def test_check_classify2(tmp_path, capsys):
    path = write(tmp_path, "m.json",
                 {"matrix": [["t/x", "1/(x-1)"], ["0", "0"]]})
    code, doc = run(capsys, ["check", "classify2", path])
    assert code == 0 and doc["type"] == "NC"


def test_check_constancy(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"matrix": [["1/x", "1"], ["0", "0"]]})
    code, doc = run(capsys, ["check", "constancy", path])
    assert code == 0 and doc["constant"] is True
    path2 = write(tmp_path, "m2.json", {"matrix": [["t/x"]]})
    code, doc = run(capsys, ["check", "constancy", path2])
    assert code == 0 and doc["constant"] is False


def test_check_telescoper(capsys):
    code, doc = run(capsys, ["check", "telescoper", "--expr", "1/(x-t)"])
    assert code == 0
    assert doc["order"] == 1
    code, doc = run(capsys, ["check", "telescoper", "--expr", "t/(x-t)"])
    assert code == 0
    assert doc["order"] == 1 and "1/t" in doc["operator"].replace(" ", "")


def test_check_telescoper_without_expr_exit_1(capsys):
    assert main(["check", "telescoper"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: check telescoper needs --expr\n"
    assert captured.out == ""


def test_check_invariant(tmp_path, capsys):
    m = write(tmp_path, "m.json",
              {"matrix": [["t/x", "1/(x-1)"], ["0", "0"]]})
    s = write(tmp_path, "s.json", {"matrix": [["1"], ["0"]]})
    code, doc = run(capsys, ["check", "invariant", m, s])
    assert code == 0 and doc["invariant"] is True
    s_bad = write(tmp_path, "s2.json", {"matrix": [["0"], ["1"]]})
    code, doc = run(capsys, ["check", "invariant", m, s_bad])
    assert code == 0 and doc["invariant"] is False


def test_config_from_file_and_env(tmp_path, capsys, monkeypatch):
    """Telescopers have their exact order, so nothing reads a config: a file
    that still carries one, even a malformed one, analyzes like the file
    without it, also with PDGAL3_MAX_ORDER set."""
    path = write(tmp_path, "sys.json", SEMISIMPLE)
    code, plain = run(capsys, ["analyze", path])
    assert code == 0
    plain.pop("timing_seconds")
    monkeypatch.setenv("PDGAL3_MAX_ORDER", "2")
    for config in ({"max_order": 3}, {"max_order": "abc"}, [1]):
        path = write(tmp_path, "cfg.json", dict(SEMISIMPLE, config=config))
        code, doc = run(capsys, ["analyze", path])
        assert code == 0
        doc.pop("timing_seconds")
        assert doc == plain


@pytest.mark.parametrize("config", [
    {"flag": 5},
    {"flag": [[["1"], ["0"]]]},
    {"flag": [[["x"], ["1"], ["0"]]]},
    {"flag": [[["1"], ["0"], ["0"]], [["0"], ["1"], ["0"]]]},
])
def test_malformed_file_config_exit_1(tmp_path, capsys, config):
    """A malformed flag certificate in the system file exits 1."""
    path = write(tmp_path, "sys.json", dict(SEMISIMPLE, certificates=config))
    assert main(["analyze", path]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_max_order_removed(tmp_path, capsys, monkeypatch):
    """The flag is gone and the environment variable is ignored."""
    path = write(tmp_path, "sys.json", SEMISIMPLE)
    with pytest.raises(SystemExit):
        main(["analyze", path, "--max-order", "3"])
    capsys.readouterr()
    monkeypatch.setenv("PDGAL3_MAX_ORDER", "abc")
    code, doc = run(capsys, ["check", "telescoper", "--expr", "1/x"])
    assert code == 0 and doc["order"] == 1


M2 = {"matrix": [["t/x", "1/(x-1)"], ["0", "0"]]}


@pytest.mark.parametrize("argv, files", [
    (["check", "constancy"], {}),
    (["check", "classify2"], {}),
    (["check", "invariant", "m.json"], {"m.json": M2}),
    (["check", "invariant", "m.json", "s.json"],
     {"m.json": M2, "s.json": {"rows": [["1"], ["0"]]}}),
    (["check", "invariant", "m.json", "s.json"],
     {"m.json": M2, "s.json": [["1"], ["0"]]}),
    (["check", "invariant", "m.json", "s.json"],
     {"m.json": M2, "s.json": {"matrix": [["1"], ["0"], ["0"]]}}),
    (["check", "invariant", "m.json", "s.json"],
     {"m.json": M2, "s.json": {"matrix": [["0"], ["0"]]}}),
    (["check", "constancy", "m.json"],
     {"m.json": {"matrix": [["1", "0"], ["0"]]}}),
    (["construct", "wedge", "m.json", "-k", "5"], {"m.json": M2}),
])
def test_malformed_check_construct_input_exit_1(tmp_path, capsys, argv, files):
    paths = {name: write(tmp_path, name, doc) for name, doc in files.items()}
    assert main([paths.get(a, a) for a in argv]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_m_bound_removed(tmp_path, capsys):
    """The lattice needs no bound: the flag is gone, and a file that still
    carries the key is read like any file with an unknown key."""
    path = write(tmp_path, "sys.json", dict(SEMISIMPLE, config={"m_bound": 3}))
    with pytest.raises(SystemExit):
        main(["analyze", path, "--m-bound", "3"])
    capsys.readouterr()
    code, doc = run(capsys, ["analyze", path])
    assert code == 0 and doc["case_path"] == "SEMISIMPLE"


def test_unknown_command_raises_systemexit(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    capsys.readouterr()
