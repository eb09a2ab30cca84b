"""Command-line surface: exit codes, report shape, drawing, determinism."""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from itertools import product

import pytest

from affkl import cli, hecke, periodic, rootdata, weyl
from affkl.cli import main
from affkl.hecke import one, v
from oracles import in_box_by_barycenter


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_bounds(capsys):
    code, out, _ = _run(capsys, "compute", "bounds", "--type", "C2")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == {"baseline": 7, "upper": 10, "improved": 3}
    assert doc["datum_hash"] and doc["version"]


def test_verify_lemma_rho_passes(capsys):
    code, out, _ = _run(capsys, "verify", "lemma-rho", "--type", "A1")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_verify_main_sweep(capsys):
    code, out, _ = _run(capsys, "verify", "main", "--type", "A1",
                        "--max-len", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and len(doc["checks"]) > 5


def test_invalid_datum_exits_2(capsys):
    code, _, err = _run(capsys, "verify", "main", "--type", "Q9")
    assert code == 2
    assert "Q9" in err


@pytest.mark.parametrize("label", ["A", "Ax", "3", "Q9~"])
def test_malformed_type_exits_2(capsys, label):
    code, out, err = _run(capsys, "compute", "bounds", "--type", label)
    assert code == 2 and out == ""
    assert err == "error: unknown type %r\n" % label


def test_negative_draw_bound_exits_2(capsys):
    code, out, err = _run(capsys, "draw", "--type", "A2", "--bound", "-1")
    assert code == 2 and out == ""
    assert err == "error: --bound must be >= 0, got -1\n"


def test_empty_draw_window_exits_2(capsys):
    code, out, err = _run(capsys, "draw", "--type", "A2", "--bound", "0")
    assert code == 2 and out == ""
    assert err == "error: --bound 0 holds no alcove\n"


@pytest.mark.parametrize("flag, doc, names", [
    ("--table", '[]', "JSON object"),
    ("--table", '{"schema":1,"p":5,"entries":[]}', "entries"),
    ("--table", '{"schema":1,"p":5,"entries":{"e":5}}', "column of e"),
    ("--table", '{"schema":1,"p":5,"entries":{"e":{"e":5}}}', "(e, e)"),
    ("--table", '{"schema":1,"p":5,"entries":{"e":{"e":[[0,1]]}},"datum":5}',
     "datum field"),
    ("--datum-json", '[]', "JSON object"),
    ("--datum-json", '5', "JSON object"),
    ("--datum-json", '{"type":"A1","lattice":{"roots":[],"coroots":[]}}',
     "simple roots"),
    ("--datum-json", '{"cartan": []}', ": cartan must"),
    ("--datum-json", '{"cartan": [[2, -1]]}', ": cartan must"),
    ("--datum-json", '{"type":"A1","lattice":{"roots":[2],"coroots":[1]}}',
     ": roots must"),
    ("--datum-json", '{"type":"A2","lattice":{"roots":[[2,-1],[-1]],'
                     '"coroots":[[1,0],[0,1]]}}', ": roots must"),
    ("--datum-json", '{"type":"A2","lattice":{"roots":[[2,-1],[-1,2]],'
                     '"coroots":[[1,0],[0]]}}', ": coroots must"),
], ids=["table-list", "entries-list", "column-number", "entry-number",
        "table-datum-number", "datum-list", "datum-number", "datum-no-roots",
        "cartan-empty", "cartan-not-square", "roots-not-lists", "roots-ragged",
        "coroots-ragged"])
def test_malformed_document_exits_2(tmp_path, capsys, flag, doc, names):
    path = tmp_path / "doc.json"
    path.write_text(doc)
    if flag == "--table":
        argv = ["compute", "kl", "--type", "A1", "--elem", "e"]
    else:
        argv = ["verify", "main"]
    code, out, err = _run(capsys, *argv, flag, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: invalid ")
    assert names in err


# Only simply-connected semisimple data are supported.  GL2 has a lattice of
# rank 2 under a rank-1 root system; SL4/mu2 is type A3 on a lattice whose
# simple coroots span an index-2 sublattice of the cocharacters.
_GL2 = '{"type":"A1","lattice":{"roots":[[1,-1]],"coroots":[[1,-1]]}}'
_SL4_MU2 = ('{"type":"A3","lattice":{"roots":[[1,0,0],[0,1,0],[-3,-2,2]],'
            '"coroots":[[2,-1,2],[-1,2,0],[0,-1,0]]}}')


@pytest.mark.parametrize("doc, argv, message", [
    (_GL2, ["compute", "kl", "--elem", "s1"], "only semisimple data"),
    (_GL2, ["verify", "main"], "only semisimple data"),
    (_SL4_MU2, ["verify", "periodic"], "not simply connected"),
    (_SL4_MU2, ["compute", "qa", "--alcove", "s0"], "not simply connected"),
], ids=["gl2-kl", "gl2-main", "sl4mu2-periodic", "sl4mu2-qa"])
def test_unsupported_datum_exits_2(tmp_path, capsys, doc, argv, message):
    path = tmp_path / "datum.json"
    path.write_text(doc)
    code, out, err = _run(capsys, *argv, "--datum-json", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: invalid datum: ") and message in err


def test_simply_connected_datum_in_other_coordinates_verifies(tmp_path, capsys):
    # A2 with simple coroots forming a unimodular, non-identity basis
    path = tmp_path / "datum.json"
    path.write_text('{"type":"A2","lattice":{"roots":[[3,-1],[-3,2]],'
                    '"coroots":[[1,1],[0,1]]}}')
    code, out, err = _run(capsys, "verify", "all", "--datum-json", str(path),
                          "--max-len", "3")
    assert code == 0, err
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("suite", ["orders", "main", "periodic", "all"])
def test_negative_max_len_exits_2(capsys, suite):
    code, out, err = _run(capsys, "verify", suite, "--type", "A1",
                          "--max-len", "-1")
    assert code == 2 and out == ""
    assert err == "error: --max-len must be >= 0, got -1\n"


def test_max_len_zero_is_valid(capsys):
    code, out, _ = _run(capsys, "verify", "main", "--type", "A1",
                        "--max-len", "0")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_missing_datum_exits_2(capsys):
    code, _, _ = _run(capsys, "compute", "bounds")
    assert code == 2


def test_compute_kl_accepts_word_and_affine_marker(capsys):
    code, out, _ = _run(capsys, "compute", "kl", "--type", "A1~",
                        "--elem", "s0 s1")
    assert code == 0
    doc = json.loads(out)
    indices = {row["index"] for row in doc["result"]}
    assert "e" in indices and len(indices) == 4


def test_compute_qa(capsys):
    code, out, _ = _run(capsys, "compute", "qa", "--type", "A1",
                        "--alcove", "s0", "--table", "builtin")
    assert code == 0
    doc = json.loads(out)
    assert sorted(r["multiplicity"] for r in doc["result"]) == [1, 1]


def test_report_is_deterministic(capsys):
    _, out1, _ = _run(capsys, "verify", "orders", "--type", "A1")
    _, out2, _ = _run(capsys, "verify", "orders", "--type", "A1")
    assert out1 == out2


def test_draw_svg_and_tikz(capsys):
    code, out, _ = _run(capsys, "draw", "--type", "C2", "--bound", "2",
                        "--shade", "restricted")
    assert code == 0
    assert out.startswith("<svg") and out.rstrip().endswith("</svg>")
    assert 'fill="#9ecae1"' in out  # something is shaded

    code, out, _ = _run(capsys, "draw", "--type", "A2", "--bound", "2",
                        "--shade", "list:A=e;D=s0", "--format", "tikz")
    assert code == 0
    assert out.startswith("\\documentclass")
    assert "{A}" in out and "{D}" in out


@pytest.mark.parametrize("label", ["A2", "B2", "C2", "G2"])
def test_box_shadings_match_the_barycenter_oracle(label):
    d = rootdata.build_root_datum(label)
    window = cli._window_alcoves(d, 3)
    boxes = [("restricted", (0, 0))] + [
        ("box(%d,%d)" % mu, mu) for mu in
        (d.weight_with_pairings(k) for k in product(range(-1, 2), repeat=2))]
    shaded = 0
    for expr, mu in boxes:
        pred, _ = cli._shading(d, expr)
        verdicts = [pred(a) for a in window]
        assert verdicts == [in_box_by_barycenter(a, mu) for a in window], expr
        shaded += sum(verdicts)
    assert shaded > len(weyl.finite_elements(d))


def test_draw_empty_shading_is_grid_only(capsys):
    code, out, _ = _run(capsys, "draw", "--type", "A2", "--bound", "2")
    assert code == 0
    assert 'fill="#9ecae1"' not in out


def test_draw_rejects_rank_one(capsys):
    code, _, err = _run(capsys, "draw", "--type", "A1")
    assert code == 2 and "rank-2" in err


def test_output_file_roundtrip(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["verify", "lemma-rho", "--type", "A1",
                 "--output", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["ok"] is True


# The texts that int() once read: as 10, as 1, or with its own bare
# message.  A refusal of one names the text.
_NAMED_IN_REFUSAL = {"omega: x": "'x'", "t: (1_0)": "'(1_0)'",
                     "t: (+1)": "'(+1)'", "t: ()": "'()'"}


@pytest.mark.parametrize("elem", ["omega: 5", "omega: -1", "omega: x",
                                  "t: (1,2)", "w: s9", "t: (1_0)", "t: (+1)",
                                  "t: ()"])
def test_bad_element_text_exits_2(capsys, elem):
    code, out, err = _run(capsys, "compute", "kl", "--type", "A1",
                          "--elem", elem)
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    assert _NAMED_IN_REFUSAL.get(elem, "") in err


def test_translation_field_reads_the_weight_grammar(capsys):
    # 't: 4' is read as '--weight 4' is
    _, bare, _ = _run(capsys, "compute", "kl", "--type", "A1", "--elem",
                      "t: 4")
    _, canonical, _ = _run(capsys, "compute", "kl", "--type", "A1", "--elem",
                           "t: (4)")
    assert bare == canonical and json.loads(bare)["result"]


@pytest.mark.parametrize("argv, message", [
    (("babyverma", "--type", "A1", "--weight", "1", "--p", "5",
      "--table", "/nonexistent"), "babyverma does not read --table"),
    (("bounds", "--type", "A1", "--elem", "s0"), "bounds does not read --elem"),
    (("kl", "--type", "A1", "--elem", "s0", "--p", "5", "--weight", "3"),
     "kl does not read --weight or --p"),
    (("qa", "--type", "A1", "--alcove", "s0", "--elem", "s0"),
     "qa does not read --elem"),
], ids=["babyverma-table", "bounds-elem", "kl-weight-p", "qa-elem"])
def test_flag_a_kind_does_not_read_exits_2(capsys, argv, message):
    code, out, err = _run(capsys, "compute", *argv)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_builtin_table_counts_as_no_table(capsys):
    argv = ("compute", "bounds", "--type", "A1")
    assert _run(capsys, *argv, "--table", "builtin") == _run(capsys, *argv)


@pytest.mark.parametrize("kind", ["simplechar", "projmult", "babyverma"])
@pytest.mark.parametrize("p", ["4", "9"])
def test_non_prime_p_exits_2(capsys, kind, p):
    code, out, err = _run(capsys, "compute", kind, "--type", "A1",
                          "--weight", "6", "--p", p)
    assert code == 2 and out == ""
    assert "prime" in err


@pytest.mark.parametrize("weight, p, message", [
    ("6,0", "7", "singular non-Steinberg weights are not supported"),
    ("1", "7", "weight needs 2 coordinates, got '1'"),
])
def test_simplechar_refusal_exits_2(capsys, weight, p, message):
    code, out, err = _run(capsys, "compute", "simplechar", "--type", "C2",
                          "--weight", weight, "--p", p)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("argv, text", [
    (("compute", "babyverma", "--type", "A3", "--weight", "1.5,2", "--p", "7"),
     "1.5,2"),
    (("compute", "babyverma", "--type", "A1", "--weight", "x-3y", "--p", "5"),
     "x-3y"),
    (("draw", "--type", "A2", "--shade", "box(1,,0)"), "1,,0"),
])
def test_weight_that_is_not_a_list_of_integers_exits_2(capsys, argv, text):
    # each text once read as the integers found in it: (1, 5, 2), (-3)
    # and (1, 0)
    code, out, err = _run(capsys, *argv)
    assert (code, out, err) == (
        2, "", "error: weight %r is not integers separated by commas or "
        "spaces\n" % text)


def test_simplechar_window_error_names_the_weight_asked(capsys):
    code, out, err = _run(capsys, "compute", "simplechar", "--type", "A2",
                          "--weight", "1,1", "--p", "5")
    assert (code, out) == (2, "")
    assert err == ("error: simple character at (1, 1) for p = 5: cannot "
                   "decide whether the simple module at (-3, 3) has dominant "
                   "weights\n")


def test_simplechar_refuses_a_table_for_another_prime(tmp_path, a1, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(hecke.dump_pcanonical(
        hecke.PCanonicalTable(a1, 7, "H", {}))))
    code, out, err = _run(capsys, "compute", "simplechar", "--type", "A1",
                          "--weight", "1", "--p", "5", "--table", str(path))
    assert (code, out, err) \
        == (2, "", "error: the table was made for p = 7, not p = 5\n")


@pytest.mark.parametrize("argv", [("kl", "--elem", "s0"),
                                  ("projmult", "--weight", "1", "--p", "5")])
def test_missing_column_is_printed_without_quotes(tmp_path, a1, capsys, argv):
    """A table without the column asked exits 2 with the plain message of
    the KeyError; projmult names the periodic column of its block alcove."""
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(hecke.dump_pcanonical(
        hecke.PCanonicalTable(a1, 5, "H", {}))))
    code, out, err = _run(capsys, "compute", argv[0], "--type", "A1",
                          *argv[1:], "--table", str(path))
    assert (code, out, err) \
        == (2, "", "error: table has no column for w: s1 | t: (-2)\n")


@pytest.mark.parametrize("argv", [
    ("bounds", "--type", "C2"),
    ("babyverma", "--type", "A1", "--weight", "1", "--p", "5")])
def test_queries_without_a_table_open_no_kl_cache(tmp_path, monkeypatch,
                                                  capsys, argv):
    for cache_dir in (tmp_path / "missing", tmp_path):
        monkeypatch.setenv("AFFKL_CACHE_DIR", str(cache_dir))
        assert _run(capsys, "compute", *argv)[0] == 0
    assert not list(tmp_path.iterdir())


def test_missing_kl_cache_directory_exits_2(tmp_path, monkeypatch, capsys):
    missing = tmp_path / "missing"
    monkeypatch.setenv("AFFKL_CACHE_DIR", str(missing))
    code, out, err = _run(capsys, "compute", "kl", "--type", "A1",
                          "--elem", "s0")
    assert (code, out) == (2, "")
    assert err == ("error: cannot use AFFKL_CACHE_DIR %s: No such file or "
                   "directory\n" % missing)


def _raise_internal(*args):
    raise RuntimeError("injected failure")


def test_internal_error_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(periodic, "p_canonical_P", _raise_internal)
    code, out, err = _run(capsys, "compute", "periodic", "--type", "A1",
                          "--alcove", "s0")
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: injected failure\n"


def test_check_reporting_an_internal_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(periodic, "p_canonical_P", _raise_internal)
    code, out, _ = _run(capsys, "verify", "periodic", "--type", "A1",
                        "--max-len", "2")
    assert code == 1
    check = json.loads(out)["checks"][0]
    assert check["name"] == "normalizer-division-exact"
    assert check["status"] == "FAIL" and check["detail"] == "injected failure"


def test_column_off_its_coset_structure_fails_verify_periodic(tmp_path, a1,
                                                             capsys):
    """A validated A1 table whose column at s1 is KL(s1) + KL(e) lacks the
    coset structure of Lusztig's formula: a FAIL check naming the key e."""
    s1 = weyl.all_generators(a1)[1]
    e = weyl.identity(a1)
    col = {s1: one, e: v + one}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(hecke.dump_pcanonical(
        hecke.PCanonicalTable(a1, 5, "H", {s1: col}))))
    code, out, _ = _run(capsys, "verify", "periodic", "--type", "A1",
                        "--max-len", "0", "--table", str(path))
    assert code == 1
    check = json.loads(out)["checks"][0]
    assert check["name"] == "normalizer-division-exact"
    assert check["status"] == "FAIL" and " e;" in check["detail"]


def test_timings_are_measured_per_check(capsys):
    start = time.monotonic()
    code, out, _ = _run(capsys, "verify", "main", "--type", "A1",
                        "--max-len", "6", "--timings")
    wall = time.monotonic() - start
    assert code == 0
    seconds = [c["seconds"] for c in json.loads(out)["checks"]]
    assert len(set(seconds)) > 1
    assert sum(seconds) <= wall


_WALK_GUARD = ("error: the alcove walk passed its 100000-step guard: the "
               "point is too far from the fundamental alcove\n")


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv", [
    ["compute", "kl", "--type", "A1", "--elem", "t: (99999999999)"],
    ["compute", "qa", "--type", "A1", "--alcove", "t: (400000)"],
    ["compute", "projmult", "--type", "A1", "--weight", "1000001", "--p", "5"],
], ids=["kl", "qa", "projmult"])
def test_far_away_input_exits_2_at_the_walk_guard(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.pop("AFFKL_CACHE_DIR", None)
    proc = subprocess.run([sys.executable, "-m", "affkl.cli"] + argv,
                          env=env, capture_output=True, text=True,
                          timeout=120, preexec_fn=_limit_memory)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", _WALK_GUARD)


def test_walk_guard_inside_verify_periodic_exits_2(capsys, monkeypatch):
    def guard(datum, q, scale):
        raise ValueError(_WALK_GUARD[len("error: "):-1])

    monkeypatch.setattr(weyl, "walk_to_fundamental", guard)
    code, out, err = _run(capsys, "verify", "periodic", "--type", "A1",
                          "--max-len", "2")
    assert (code, out, err) == (2, "", _WALK_GUARD)


# sha256 of the JSON list [exit code, stdout, stderr] of each command: every
# compute kind, two missing-flag refusals, an argparse refusal, each verify
# suite and both drawing formats.  Any changed byte or exit code fails.
PINNED = [
    (("compute", "kl", "--type", "A1", "--elem", "s0 s1"),
     "2165d6a3d4239a623cfff3417fccadc9d99a4931393833a7f541392920fffd83"),
    (("compute", "kl", "--type", "C2", "--elem", "w: s1 s2 | t: (1,0)"),
     "58bf7b5a07cc8a6d7d4a5aca047d03eed9ddb8df88164d3d48b2e7c4e7d5da6c"),
    (("compute", "asph", "--type", "A2", "--elem", "s0 s1 s2"),
     "2f349dc6c9b2f93a8f1a59e0f7808dc6976f585510ef9adf50d0184ac6258af1"),
    (("compute", "sph", "--type", "C2", "--elem", "s0 s1"),
     "ebb5f060de3ef02c7e38e501d41e47412b330d907e7cf9440b29c33e46889274"),
    (("compute", "periodic", "--type", "A1", "--alcove", "s0 s1"),
     "c3221b0dda993ceea557fafda32571d89b2417ec2c246038125672705a4b3f95"),
    (("compute", "qa", "--type", "A2", "--alcove", "s0"),
     "d6c31c9e5f403dad002c01d94eab6cf9852ffa524553d191de91d5eacc8e6ff1"),
    (("compute", "simplechar", "--type", "A1", "--weight", "6", "--p", "5"),
     "66232e910b7e792d2840e6a2db7918d3e0305e235d6da9eeeb3d2c095bd09331"),
    (("compute", "projmult", "--type", "A1", "--weight", "3", "--p", "5"),
     "26ccb3038a5e7050ab5ff7e57103013f32417ccd18a40602d110787d806a21c0"),
    (("compute", "babyverma", "--type", "A2", "--weight", "(1, 2)",
      "--p", "3"),
     "fb87954e2407f50d586b631d8db7dba68585ade6bf65494717d35e65ae65a82a"),
    (("compute", "bounds", "--type", "C2"),
     "7cbc28e832ad02bc39fa80624057cb089f1756c65a8b95de8c77b4b308ed5154"),
    (("compute", "kl", "--type", "A1"),
     "6022550cc807d81a0bad8d34279d8d2205274377362205129c09aa0efa58f538"),
    (("compute", "simplechar", "--type", "A1", "--weight", "1"),
     "2eb9d72e1c958bda494ab1ae0f11d469176160cfa111297b46820e585e7cc59d"),
    (("compute", "nope", "--type", "A1"),
     "79948ff38d69eb0b7c813d6acaa5828001504701e8b5ebc07e2074b38cd5e991"),
    (("verify", "lemma-rho", "--type", "A2"),
     "40c4ab11d5942f873bb9b8c8599390567d30aa4d31721c5604f7c566b5467174"),
    (("verify", "main", "--type", "C2", "--max-len", "2"),
     "41a7d0c78333aa7e4021c9b7b81ac839ae783be0f99f8f7bd500fe629c7646a5"),
    (("verify", "periodic", "--type", "A1", "--max-len", "3"),
     "39f66dd2eb3fb6a4f3eef4699a7e1359d303863d04e4998c2d93f7f5b1ce06c6"),
    (("verify", "orders", "--type", "A2", "--max-len", "2"),
     "b36185654cc466da02add1a2b4d8940f6b0a2ce79ba5c0f2ae6d804d0d5b51ac"),
    (("verify", "all", "--type", "A1", "--max-len", "3"),
     "f5e9ccce83807344d494df4c8a5da969ec9c4711b30306c33a4b04476c01bff9"),
    (("draw", "--type", "C2", "--bound", "2", "--shade", "restricted"),
     "cb66dd0eb268fa55c257cdc8a7f5097a144203563dfa4914d981066ddbdacd97"),
    (("draw", "--type", "G2", "--bound", "2", "--shade", "list:A=e;D=s0",
      "--format", "tikz"),
     "2562657c1ddf2b1d9c28e00b2d4359b65c415d4ec709dfe864041a897b0b5b5a"),
]


def test_cli_bytes_are_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to this
    monkeypatch.delenv("AFFKL_CACHE_DIR", raising=False)
    changed = []
    for argv, digest in PINNED:
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's own refusals
            code = exc.code
        out = capsys.readouterr()
        doc = json.dumps([code, out.out, out.err]).encode()
        if hashlib.sha256(doc).hexdigest() != digest:
            changed.append(" ".join(argv))
    assert not changed
