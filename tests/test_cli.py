"""Command line surface: outputs, exit codes, machine mode."""

import json
import os
import pathlib
import random
import shlex
import subprocess
import sys
import time

import pytest

from cbound.braids import BraidWord
from cbound.cli import build_parser, main
from cbound.diagrams import from_braid
from cbound.notation import render_pd

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

WERMER_BRAID = "BR[3,{1,2,1,1,2,1}]"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def cli(*argv, timeout=60):
    """Run ``python -m cbound.cli`` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "cbound.cli", *argv], capture_output=True, text=True,
                          env=CHILD_ENV, timeout=timeout)


def test_homfly_literal(capsys):
    code, out, _ = run(capsys, "homfly", "BR[2,{1,1,1}]")
    assert code == 0
    assert "-v^4 + v^2*z^2 + 2*v^2" in out


def test_homfly_machine(capsys):
    code, out, _ = run(capsys, "homfly", "BR[2,{1,1,1}]", "--machine")
    assert code == 0
    assert "poly=" in out and "ord_v=2" in out


def test_lk_pd_file(capsys, fixtures_dir):
    # the appendix curve has two components of linking number zero
    code, out, _ = run(capsys, "lk", str(fixtures_dir / "appendix.pd"))
    assert code == 0
    assert out.split() == ["0", "0", "0", "0"]


def test_lk_braid_literal(capsys):
    code, out, _ = run(capsys, "lk", "BR[2,{1,1}]", "--machine")
    assert code == 0
    assert "lk.0=0,1" in out and "lk.1=1,0" in out


def test_chi_prints_interval_and_witness(capsys):
    code, out, _ = run(capsys, "chi", "BR[3,{1,-2,-1,-1,-2}]")
    assert code == 0
    assert "chi_s^- in [2, 2]" in out
    assert "flip -> BR[3, {1, -2, 1, -1, -2}]" in out
    assert "reduce -> BR[3, {1, -2, -2}]" in out


def test_chi_budget_warning_names_the_budget_and_the_ceiling(capsys):
    word = "BR[4,{1,-2,3,-1,2,-3,1,-2,3,-2,1,-3}]"
    code, out, err = run(capsys, "chi", word, "--search-budget", "200", "--machine")
    assert code == 0
    assert "chi_s_minus.lo=-8\n" in out and out.endswith("search.truncated=yes\n")
    assert err == ("warning: search budget of 200 nodes ran out after 200 explored, "
                   "at chi_s^- >= -8 (ceiling 2); lower bound may be slack\n")


def test_chi_truncated_golden_warns_with_its_score_and_ceiling(capsys):
    # the witness of fixtures/chi-truncated.machine.out uses every move
    # kind; the search runs out before it reaches the ceiling
    code, out, err = run(capsys, "chi", "BR[4,{-1,-3,2,2,1,1,-2,-3,-2,-2,1,2}]", "--machine", "--search-budget", "2000")
    assert code == 0 and out.endswith("search.truncated=yes\n")
    assert {line.split("=")[1].split()[0] for line in out.splitlines() if line.startswith("witness.")} == {
        "flip", "reduce", "destab", "rotate", "commute", "relation"}
    assert err == ("warning: search budget of 2000 nodes ran out after 2000 explored, "
                   "at chi_s^- >= 0 (ceiling 2); lower bound may be slack\n")


def test_chi_search_that_stops_at_the_signature_ceiling_completes_in_budget(capsys):
    # this word ran out of a budget of 2000 before the search stopped at
    # min(mu, 1 + sigma + nu) = -1, here below mu = 1; score and witness
    # are those it had then
    code, out, err = run(capsys, "chi", "BR[4,{1,3,-1,-1,-2,1,1,3,2}]", "--machine", "--search-budget", "2000")
    assert code == 0 and err == ""
    assert out == (
        "chi_s.lo=-5\nchi_s.hi=-1\nchi_s_minus.lo=-1\nchi_s_minus.hi=1\n"
        "witness.0=commute BR[4, {3, 1, -1, -1, -2, 1, 1, 3, 2}]\n"
        "witness.1=reduce BR[4, {3, -1, -2, 1, 1, 3, 2}]\n"
        "witness.2=rotate BR[4, {-1, -2, 1, 1, 3, 2, 3}]\n"
        "witness.3=relation BR[4, {-1, -2, 1, 1, 2, 3, 2}]\n"
        "witness.4=destab BR[3, {-1, -2, 1, 1, 2, 2}]\n"
        "witness.5=relation BR[3, {2, -1, -2, 1, 2, 2}]\n"
        "witness.6=relation BR[3, {2, 2, -1, -2, 2, 2}]\n"
        "witness.7=reduce BR[3, {2, 2, -1, 2}]\n"
        "witness.8=flip BR[3, {2, 2, 1, 2}]\n"
        "search.truncated=no\n"
    )


def test_chi_search_that_cuts_what_cannot_beat_its_best_completes_in_budget(capsys):
    # this word ran out of a budget of 2000 before the search cut words that
    # cannot beat its best score; score and witness are those it had then
    code, out, err = run(capsys, "chi", "BR[4,{-1,-3,2,2,-3,1,-2}]", "--machine", "--search-budget", "2000")
    assert code == 0 and err == ""
    assert out == (
        "chi_s.lo=-3\nchi_s.hi=1\nchi_s_minus.lo=1\nchi_s_minus.hi=3\n"
        "witness.0=rotate BR[4, {-3, 2, 2, -3, 1, -2, -1}]\n"
        "witness.1=relation BR[4, {-3, 2, 2, -3, -2, -1, 2}]\n"
        "witness.2=destab BR[3, {-2, 1, 1, -2, -1, 1}]\n"
        "witness.3=reduce BR[3, {-2, 1, 1, -2}]\n"
        "witness.4=flip BR[3, {2, 1, 1, -2}]\n"
        "witness.5=rotate BR[3, {1, 1, -2, 2}]\n"
        "witness.6=reduce BR[3, {1, 1}]\n"
        "search.truncated=no\n"
    )


def test_chi_budget_warning_counts_units_on_a_word_of_more_than_16_letters(capsys):
    # each node of 17 letters costs 2 units, so 11 units explore 5 nodes
    word = "BR[3,{-1,-2,-1,-2,-1,-2,-1,-2,-1,-2,-1,-2,-1,-2,-1,-2,-1}]"
    code, out, err = run(capsys, "chi", word, "--search-budget", "11", "--machine")
    assert code == 0 and out.endswith("search.truncated=yes\n")
    assert err == ("warning: search budget of 11 units ran out after 5 nodes of up to 17 letters explored "
                   "(ceil(l/16) units a node), at chi_s^- >= -14 (ceiling 2); lower bound may be slack\n")


@pytest.mark.parametrize("word", ["BR[2,{-1}]", "BR[3,{1,-2}]"])
def test_chi_no_slack_warning_at_the_ceiling(capsys, word):
    # with no budget the all-flipped fallback already reaches mu = 1, so the
    # search is truncated but its lower bound is tight
    code, out, err = run(capsys, "chi", word, "--search-budget", "0")
    assert code == 0
    assert "chi_s^- in [1, 1]" in out
    assert err == ""


def test_chi_reaching_the_ceiling_is_not_truncated(capsys):
    # BR[2,{-1}] is the unknot: one flip reaches chi = 1 = mu on the first node
    code, out, err = run(capsys, "chi", "BR[2,{-1}]", "--search-budget", "1", "--machine")
    assert code == 0
    assert "chi_s_minus.lo=1\n" in out and out.endswith("search.truncated=no\n")
    assert err == ""


def test_chi_on_a_positive_word_is_not_truncated(capsys):
    # no move changes n - l of a positive word, so the search stops at once
    code, out, err = run(capsys, "chi", "BR[4,{1,2,3,1,2,3,1,2,3,2,1}]", "--search-budget", "2000", "--machine")
    assert (code, err) == (0, "")
    assert "chi_s_minus.lo=-7\nchi_s_minus.hi=1\nsearch.truncated=no\n" in out


def test_chi_on_40_strands_with_split_unknots_is_fast(capsys):
    # a trefoil and 38 split unknots: the linked-throughout test stops at
    # the first component subset of zero linking instead of listing 2^39
    t0 = time.perf_counter()
    code, out, err = run(capsys, "chi", "BR[40,{-1,-1,-1}]", "--machine")
    assert time.perf_counter() - t0 < 5.0
    assert (code, err) == (0, "")
    assert out.startswith("chi_s.lo=37\nchi_s.hi=37\n")


def test_qp_verify_good_and_bad(capsys, fixtures_dir, tmp_path):
    code, out, _ = run(capsys, "qp-verify", str(fixtures_dir / "qp_wermer.qp"))
    assert code == 0
    bad = tmp_path / "bad.qp"
    bad.write_text("braid BR[3,{1,2,-1,-1,2,1}]\nfactors 1:2 -1:1\n")
    code, out, err = run(capsys, "qp-verify", str(bad))
    assert code == 3


def test_qp_verify_reads_comments_after_whitespace(capsys, tmp_path):
    cert = tmp_path / "commented.qp"
    cert.write_text("# two factors\nbraid BR[3,{1,2,-1,-1,2,1}]  # the word\n\tfactors 1:2 -1:2\t# conjugated\n")
    assert run(capsys, "qp-verify", str(cert), "--machine") == (0, "verified=yes\nchi=1\n", "")


_HUGE = "9" * 5000  # past the 4300-digit limit of int()
_TOO_LONG = "integer of 5000 digits is too long"
_CUT = "line 1, col 1: crossing X[1,2,1,3] is orientation-inconsistent: a closed curve cannot cross another exactly once"
_LOOP = "line 1, col 1: crossing X[1,2,3,2] is orientation-inconsistent: over strand enters and leaves on the same arc"


def _numbered(n, argv, text, error):
    """A row of the table below under the id pytest generated for it when
    the table's rows had none: the id names the row's place then, and no
    row added later changes it."""
    return pytest.param(argv, text, error, id="argv%d-%s-%s" % (n, text, error))


@pytest.mark.parametrize("argv, text, error", [
    # diagrams.from_pd and notation.parse_pd
    _numbered(0, ["lk", "PD[X[1,2,1,3]]"], None, _CUT),
    _numbered(1, ["lk", "PD[X[1,2,3,2]]"], None, _LOOP),
    _numbered(2, ["lk", "PD[X[1,2,3,4]]"], None, "line 1, col 1: arc 1 needs two ends, found 1"),
    _numbered(3, ["lk", "PD[X[1,5,2,6],X[1,6,2,5]]"], None, "line 1, col 1: arc 1 has two heads"),
    _numbered(4, ["homfly", "PD[X[1,3,2,4],X[4,1,2,3]]"], None, "line 1, col 1: arc 2 has two tails"),
    _numbered(5, ["lk", "PD[X[1,3,2,4],X[2,3,1,4]]]"], None, "line 1, col 26: trailing input ']'"),
    _numbered(6, ["lk", "PD[X[1,3,2,4] X[2,3,1,4]]"], None, "line 1, col 15: expected , or ], found 'X'"),
    # notation.parse_ovals
    _numbered(7, ["ovals", "realize", "{file}"], "1 0 1\n2 1\n", "line 2, col 1: expected 3 or 6 fields, found 2"),
    _numbered(8, ["ovals", "realize", "{file}"], "1 0 x\n", "line 1, col 1: id, parent, winding must be integers"),
    _numbered(9, ["ovals", "realize", "{file}"], "1 0 1 0 0 r\n",
              "line 1, col 1: geometry fields must be finite numbers"),
    _numbered(10, ["ovals", "embed", "{file}"], "1 0 1 0 nan 0.5\n",
              "line 1, col 1: geometry fields must be finite numbers"),
    _numbered(11, ["ovals", "realize", "{file}"], "# only a comment\n", "line 1, col 1: no ovals in input"),
    # splice.OvalForest
    _numbered(12, ["ovals", "realize", "{file}"], "0 0 1\n", "line 1, col 1: oval ids must be positive"),
    _numbered(13, ["ovals", "cable", "{file}"], "1 2 1\n2 1 1\n", "line 1, col 1: parent cycle through oval 1"),
    _numbered(14, ["ovals", "realize", "{file}"], "1 0 1 0 0 0\n2 1 1 0 0 0.1\n",
              "line 1, col 1: fiber 1 cannot contain other ovals"),
    _numbered(15, ["ovals", "realize", "{file}"], "1 0 2 0 0 0\n",
              "line 1, col 1: fiber 1 needs winding +1 or -1, got 2"),
    _numbered(16, ["ovals", "realize", "{file}"], "1 0 1 0 0 -0.5\n", "line 1, col 1: oval 1 needs positive radius"),
    _numbered(17, ["ovals", "splice", "{file}"], "1 0 1 0 0 0.5\n2 1 1\n",
              "line 2, col 1: geometry must be given for all ovals or none"),
    # embed.check_geometry
    _numbered(18, ["ovals", "embed", "{file}"], "1 0 1 0.5 0 0.499\n", "oval 1 touches the unit circle"),
    # cli.cmd_qp_verify names the line at fault
    _numbered(19, ["qp-verify", "{file}"], "braid BR[3,{1,2,-1,-1,2,1}]\n\nfoo 1\nfactors 1:2 -1:2\n",
              "certificate line 3: unknown key 'foo'"),
    _numbered(20, ["qp-verify", "{file}"], "# a typo\nfactors :1\nbraid BR[3,{1,2,}]\n",
              "certificate line 3: line 1, col 11: expected int, found '}'"),
    _numbered(21, ["qp-verify", "{file}"], "braid BR[3,{1,2}]\nfactors :1 :2x\n",
              "certificate line 2: bad certificate factor ':2x'"),
    _numbered(22, ["qp-verify", "{file}"], "braid BR[3,{1,2}]\nfactors :1 :5\n",
              "certificate line 2: letter 5 needs at least 6 strands, word declares 3"),
    _numbered(23, ["qp-verify", "{file}"], "# no factors\nbraid BR[3,{1,2}]\n\n",
              "certificate ends at line 3 without a factors line"),
    # splice.OvalForest and notation.parse_ovals, each naming the line of the oval at fault
    _numbered(24, ["ovals", "realize", "{file}"], "1 0 2 0 0 0.5\n2 1 1\n",
              "line 2, col 1: geometry must be given for all ovals or none"),
    _numbered(25, ["ovals", "realize", "{file}"], "1 0 1\n# a comment\n2 1 1 0 0 0.5\n3 0 1\n",
              "line 3, col 1: geometry must be given for all ovals or none"),
    _numbered(26, ["ovals", "realize", "{file}"], "1 0 1\n1 0 2\n", "line 2, col 1: duplicate oval ids"),
    _numbered(27, ["ovals", "realize", "{file}"], "1 0 1\n2 0 1\n1 0 2\n2 1 1\n", "line 3, col 1: duplicate oval ids"),
    _numbered(28, ["ovals", "realize", "{file}"], "1 0 1\n2 7 1\n", "line 2, col 1: oval 2 refers to missing parent 7"),
    _numbered(29, ["ovals", "realize", "{file}"], "1 0 1\n-2 1 1\n", "line 2, col 1: oval ids must be positive"),
    _numbered(30, ["ovals", "cable", "{file}"], "1 0 1\n2 3 1\n3 2 1\n", "line 2, col 1: parent cycle through oval 2"),
    _numbered(31, ["ovals", "realize", "{file}"], "1 0 1 0 0 0.5\n2 1 1 0 0 0\n3 2 1 0 0 0.1\n",
              "line 2, col 1: fiber 2 cannot contain other ovals"),
    _numbered(32, ["ovals", "realize", "{file}"], "1 0 1 0 0 0.5\n\n2 1 3 0 0 0\n",
              "line 3, col 1: fiber 2 needs winding +1 or -1, got 3"),
    _numbered(33, ["ovals", "realize", "{file}"], "1 0 1 0 0 0.5\n2 1 1 0 0 -0.1\n",
              "line 2, col 1: oval 2 needs positive radius"),
    # notation reads no digit run past Python's int-string limit
    _numbered(34, ["homfly", "BR[%s,{1}]" % _HUGE], None, "line 1, col 4: " + _TOO_LONG),
    _numbered(35, ["lk", "BR[%s,{1}]" % _HUGE], None, "line 1, col 4: " + _TOO_LONG),
    _numbered(36, ["chi", "BR[2,{1,-%s}]" % _HUGE], None, "line 1, col 10: " + _TOO_LONG),
    pytest.param(["table1", "{file}"], "link A\n\nbraid BR[%s,{1}]\n" % _HUGE, "kb line 3: line 1, col 4: " + _TOO_LONG,
                 id="kb-braid-of-5000-digits"),
    # classify.parse_kb checks a certificate at its line
    _numbered(38, ["table1", "{file}"], "link A\nbraid BR[2,{1,1}]\ncert :1\n",
              "kb line 3: certificate multiplies out to BR[2, {1}], not to the braid BR[2, {1, 1}]"),
    # classify.parse_kb reads a stated chi value as an integer or -
    pytest.param(["table1", "{file}"], "link A\nbraid BR[2,{1,1}]\nchi_s 1x\n",
                 "kb line 3: chi_s wants an integer or -, got '1x'", id="kb-chi_s-not-an-integer"),
    pytest.param(["table1", "{file}"], "link A\nbraid BR[2,{1,1}]\nchi_s %s\n" % _HUGE,
                 "kb line 3: chi_s wants an integer or -, got 5000 digits, too long", id="kb-chi_s-of-5000-digits"),
    # cli.cmd_qp_verify reads each certificate key once
    pytest.param(["qp-verify", "{file}"], "braid BR[3,{1,2}]\nbraid BR[3,{1,2,-1,-1,2,1}]\nfactors 1:2 -1:2\n",
                 "certificate line 2: braid given twice", id="qp-verify-braid-given-twice"),
    pytest.param(["qp-verify", "{file}"], "braid BR[3,{1,2,-1,-1,2,1}]\nfactors 1:2 -1:2\n# again\nfactors 1:2 -1:2\n",
                 "certificate line 4: factors given twice", id="qp-verify-factors-given-twice"),
    # rows added from here on carry ids of their own
    pytest.param(["qp-verify", "{file}"], "", "certificate is empty", id="qp-verify-empty"),
    # classify.parse_kb wants a link stanza, as parse_ovals wants an oval
    pytest.param(["table1", "{file}"], "", "kb has no link stanza", id="kb-empty"),
    pytest.param(["classify", "{file}"], "# only a comment\n", "kb has no link stanza", id="kb-comment-only"),
])
def test_each_input_error_exits_1_with_one_error_line(capsys, tmp_path, argv, text, error):
    if text is not None:
        (tmp_path / "input").write_text(text)
    argv = [a.replace("{file}", str(tmp_path / "input")) for a in argv]
    assert run(capsys, *argv) == (1, "", "error: %s\n" % error)


def test_qp_obstruct(capsys):
    code, out, _ = run(capsys, "qp-obstruct", "BR[3,{1,-2,1,-2,1}]")
    assert code == 0
    assert "refuted" in out


def test_ovals_realize(capsys, fixtures_dir):
    code, out, _ = run(capsys, "ovals", "realize", str(fixtures_dir / "wermer.ovals"))
    assert code == 0
    assert "realizable" in out


def test_ovals_cable_and_splice(capsys, fixtures_dir):
    code, out, _ = run(capsys, "ovals", "cable", str(fixtures_dir / "wermer.ovals"))
    assert code == 0
    assert "add_retain(+1) @1" in out
    code, out, _ = run(capsys, "ovals", "splice", str(fixtures_dir / "wermer.ovals"))
    assert code == 0
    assert "--" in out


def test_ovals_embed_svg(capsys, fixtures_dir, tmp_path):
    target = tmp_path / "out.svg"
    code, out, _ = run(capsys, "ovals", "embed", str(fixtures_dir / "hopf.ovals"),
                       "--svg", str(target))
    assert code == 0
    assert target.read_text().startswith("<svg")


def test_ovals_embed_prints_nothing_when_the_svg_cannot_be_written(capsys, fixtures_dir, tmp_path):
    code, out, err = run(capsys, "ovals", "embed", str(fixtures_dir / "hopf.ovals"),
                         "--svg", str(tmp_path / "missing" / "out.svg"))
    assert (code, out) == (1, "")
    assert err.startswith("error: [Errno 2] No such file or directory: ")


def test_ovals_embed_that_finds_no_generic_chart_exits_1(capsys, tmp_path):
    # a realizable fiberless forest whose chart seed 40812 and the 63 charts
    # after it all have near-parallel segments
    (tmp_path / "six.ovals").write_text("1 0 2\n2 1 3\n3 2 3\n4 3 0\n5 3 0\n6 0 -1\n")
    assert run(capsys, "ovals", "embed", str(tmp_path / "six.ovals"), "--seed", "40812") == (
        1, "", "error: no generic projection found after 64 charts: near-parallel segments\n")


@pytest.mark.parametrize("scale", ["0", "-1"])
def test_ovals_embed_rejects_samples_scale_below_one(capsys, fixtures_dir, scale):
    code, out, err = run(capsys, "ovals", "embed", str(fixtures_dir / "hopf.ovals"),
                         "--samples-scale", scale)
    assert code == 1
    assert out == ""
    assert err.startswith("error: samples scale must be an integer >= 1")


def test_ovals_embed_rejects_samples_beyond_the_cap(capsys, fixtures_dir):
    code, out, err = run(capsys, "ovals", "embed", str(fixtures_dir / "hopf.ovals"),
                         "--samples-scale", "100000")
    assert code == 1
    assert out == ""
    assert err.startswith("error: oval 1 (winding 1) at samples scale 100000 needs 25600000 samples")


# every command but `ovals embed`, on inputs it accepts
NO_EMBED = [
    ["homfly", "BR[2,{1,1,1}]"],
    ["homfly", "fixtures/appendix.pd"],
    ["lk", "BR[3,{1,-2,1,2,-1,2}]"],
    ["chi", "BR[3,{1,-2,-1,-1,-2}]"],
    ["qp-verify", "fixtures/qp_wermer.qp"],
    ["qp-obstruct", "BR[3,{1,-2,1,-2,1}]"],
    ["classify", "fixtures/table1.kb"],
    ["table1", "fixtures/table1.kb"],
    ["ovals", "realize", "fixtures/wermer.ovals"],
    ["ovals", "cable", "fixtures/wermer.ovals"],
    ["ovals", "splice", "fixtures/wermer.ovals"],
]


def test_only_ovals_embed_imports_numpy():
    # one fresh interpreter runs the commands in turn and reports, after each,
    # its exit code and whether numpy has been imported
    script = ("import contextlib, io, json, sys\n"
              "from cbound.cli import main\n"
              "seen = []\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        seen.append([argv, main(argv), 'numpy' in sys.modules])\n"
              "print(json.dumps(seen))\n")
    runs = NO_EMBED + [["ovals", "embed", "fixtures/hopf.ovals"]]
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], cwd=ROOT, env=CHILD_ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[argv, 0, False] for argv in NO_EMBED] + [[runs[-1], 0, True]]


def test_table1_clean(capsys, fixtures_dir):
    code, out, _ = run(capsys, "table1", str(fixtures_dir / "table1.kb"))
    assert code == 0
    assert "29 rows, 0 mismatches" in out


def test_table1_mismatch_exit_code(capsys, tmp_path):
    kb = tmp_path / "bad.kb"
    kb.write_text("link A\nbraid BR[2,{1,1}]\ncert :1 :1\nexpect Q no a\n")
    code, out, _ = run(capsys, "table1", str(kb))
    assert code == 3
    assert "MISMATCH" in out


@pytest.mark.parametrize("line", ["invertible yse", "outer Yes", "chi_s 1 2", "axiom Q yes a extra",
                                  "cert :5 :1 :1"])
def test_a_kb_typo_exits_1_naming_its_line(capsys, tmp_path, line):
    kb = tmp_path / "typo.kb"
    kb.write_text("link A\nbraid BR[2,{1,1}]\n%s\n" % line)
    code, out, err = run(capsys, "table1", str(kb))
    assert code == 1 and out == ""
    assert err.startswith("error: kb line 3: ")


@pytest.mark.parametrize("lines, error", [
    ("chi_s 0\nchi_s 2", "kb line 4: chi_s given twice"),
    ("cert :1 :1\nbraid BR[3,{1,2}]", "kb line 4: braid given twice"),
])
def test_a_repeated_kb_key_exits_1_naming_its_line(capsys, tmp_path, lines, error):
    kb = tmp_path / "twice.kb"
    kb.write_text("link A\nbraid BR[2,{1,1}]\n%s\n" % lines)
    assert run(capsys, "table1", str(kb)) == (1, "", "error: %s\n" % error)


def test_main_builds_its_parser_once(capsys):
    argvs = [("homfly", "BR[2,{1,1,1}]"), ("lk", "BR[2,{1,1}]", "--machine"), ("homfly", "BR[2,{1,1,1}]")]
    got = [run(capsys, *argv) for argv in argvs]
    fresh = [cli(*argv) for argv in argvs]
    assert got == [(p.returncode, p.stdout, p.stderr) for p in fresh]
    assert build_parser() is build_parser()


def test_classify_output(capsys, fixtures_dir):
    code, out, _ = run(capsys, "classify", str(fixtures_dir / "table1.kb"))
    assert code == 0
    assert "via certificate" in out
    assert "via mirror-exclusion" in out


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "homfly", "BR[2,{1,")
    assert code == 1
    assert "error" in err


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "homfly", "BR[4,{1,-2,3,-1,2,-3,1,-2,3,-1,2,-3}]",
                       "--skein-budget", "10")
    assert code == 2
    assert "budget" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "lk", "/no/such/file.pd")
    assert code == 1


# (args, golden) for each line of fixtures/goldens.txt; CI diffs the
# installed cbound against the same list
GOLDENS = [line.rpartition(" | ")[::2] for line in (ROOT / "fixtures" / "goldens.txt").read_text().splitlines()
           if not line.startswith("#")]


def _golden_id(golden):
    # keeps each golden's test id stable across manifest edits:
    # fixtures/ovals/embed-s2.fan.machine.out -> ovals-embed-s2-fan-machine,
    # fixtures/pd/lk.appendix.out -> lk-appendix
    return golden.removeprefix("fixtures/").removesuffix(".out").removeprefix("pd/").replace("/", "-").replace(".", "-")


@pytest.mark.parametrize("args, golden", GOLDENS, ids=[_golden_id(golden) for _, golden in GOLDENS])
def test_report_matches_golden_stdout(capsys, monkeypatch, args, golden):
    monkeypatch.chdir(ROOT)
    code, out, _ = run(capsys, *shlex.split(args))
    assert code == 0
    assert out == pathlib.Path(golden).read_text()


def test_every_golden_is_in_the_manifest_once(fixtures_dir):
    on_disk = sorted(p.relative_to(ROOT).as_posix() for p in fixtures_dir.rglob("*.out"))
    assert len(on_disk) == 74
    assert sorted(golden for _, golden in GOLDENS) == on_disk


def test_qp_obstruct_evaluates_the_polynomial_once(capsys, monkeypatch):
    import cbound.classify
    import cbound.cli
    import cbound.homfly

    sizes = []
    real = cbound.homfly.homfly_braid

    def counting(b, *args, **kwargs):
        sizes.append(len(b))
        return real(b, *args, **kwargs)

    for module in (cbound.homfly, cbound.classify, cbound.cli):
        monkeypatch.setattr(module, "homfly_braid", counting)
    code, out, _ = run(capsys, "qp-obstruct", "BR[3,{1,-2,1,-2,1}]")
    assert code == 0 and "verdict: refuted" in out
    assert sizes.count(5) == 1


def test_qp_obstruct_runs_no_chi_search(capsys, monkeypatch):
    import cbound.classify

    budgets = []
    real = cbound.classify.chi_minus_lower_bound

    def recording(b, budget, *args, **kwargs):
        budgets.append(budget)
        return real(b, budget, *args, **kwargs)

    monkeypatch.setattr(cbound.classify, "chi_minus_lower_bound", recording)
    code, out, _ = run(capsys, "qp-obstruct", "BR[3,{1,-2,1,-2,1}]")
    assert code == 0 and "verdict: refuted" in out
    code, _, _ = run(capsys, "chi", "BR[3,{1,-2,1,-2,1}]", "--search-budget", "7")
    assert code == 0
    assert budgets == [0, 7]


@pytest.mark.parametrize("argv,golden", [
    (["BR[3,{1,-2,-1,-1,-2}]"], "chi.out"),
    (["BR[3,{1,-2,-1,-1,-2}]", "--machine"], "chi.machine.out"),
    (["BR[4,{-1,-3,2,2,1,1,-2,-3,-2,-2,1,2}]", "--machine", "--search-budget", "2000"], "chi-truncated.machine.out"),
])
def test_chi_walks_the_closure_of_a_link_once(capsys, monkeypatch, fixtures_dir, argv, golden):
    import cbound.braids
    import cbound.classify

    walked = []
    real = cbound.braids.closure_components

    def counting(b):
        walked.append(b)
        return real(b)

    for module in (cbound.braids, cbound.classify):
        monkeypatch.setattr(module, "closure_components", counting)
    code, out, _ = run(capsys, "chi", *argv)
    assert code == 0
    assert out == (fixtures_dir / golden).read_text()
    assert len(walked) == 1 and len(real(walked[0])[0]) == 2


def test_chi_stops_before_the_search_when_a_knot_exceeds_the_skein_budget(capsys, monkeypatch):
    import cbound.classify

    def no_search(*args, **kwargs):
        raise AssertionError("chi search ran after the skein budget was exceeded")

    monkeypatch.setattr(cbound.classify, "chi_minus_lower_bound", no_search)
    code, out, err = run(capsys, "chi", "BR[2,{1,1,1}]", "--skein-budget", "3")
    assert code == 2
    assert out == ""
    assert "skein budget of 3 crossings ran out" in err


def test_chi_stops_before_the_search_when_a_link_exceeds_the_skein_budget(capsys, monkeypatch):
    import cbound.classify

    def no_search(*args, **kwargs):
        raise AssertionError("chi search ran after the skein budget was exceeded")

    monkeypatch.setattr(cbound.classify, "chi_minus_lower_bound", no_search)
    code, out, err = run(capsys, "chi", "BR[3,{1,2,1,2,1,2}]", "--skein-budget", "3")
    assert code == 2
    assert out == ""
    assert "skein budget of 3 crossings ran out" in err


def _braid_arg(strands, letters):
    return "BR[%d,{%s}]" % (strands, ",".join(str(x) for x in letters))


def test_homfly_on_a_1199_crossing_unknot_needs_no_recursion(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "homfly", _braid_arg(1200, range(1, 1200)))
    assert time.perf_counter() - t0 < 30.0
    assert (code, out, err) == (0, "P = 1\nord_v = 0\n", "")


def test_homfly_on_a_huge_torus_knot_ends_in_a_documented_exit_code():
    proc = cli("homfly", _braid_arg(2, [1] * 1501), timeout=120)
    assert proc.returncode in (0, 2), proc.stderr
    assert "Traceback" not in proc.stderr
    if proc.returncode == 2:
        assert proc.stdout == ""
        assert proc.stderr.startswith("budget exceeded: skein budget of 1048576 crossings ran out")


def test_skein_budget_bounds_the_time_of_a_200_crossing_word(capsys, tmp_path):
    rng = random.Random(5)
    letters = []
    while len(letters) < 200:
        x = rng.choice((1, -1)) * rng.randint(1, 3)
        if not letters or letters[-1] != -x:
            letters.append(x)
    # as a PD file, so that the skein evaluates it
    pd = tmp_path / "word.pd"
    pd.write_text(render_pd(from_braid(BraidWord(4, tuple(letters)))))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "homfly", str(pd), "--skein-budget", "20000")
    assert time.perf_counter() - t0 < 2.0
    assert code == 2 and out == ""
    assert "nodes expanded" in err and "memo hits" in err


def test_skein_budget_bounds_the_time_of_a_10000_letter_word_on_7_strands(capsys):
    rng = random.Random(10000)
    letters = [rng.choice((1, -1)) * rng.randint(1, 6) for _ in range(10000)]
    t0 = time.perf_counter()
    code, out, err = run(capsys, "homfly", _braid_arg(7, letters))
    assert time.perf_counter() - t0 < 5.0
    assert code == 2 and out == ""
    assert err.startswith("budget exceeded: skein budget of 1048576 crossings ran out after ")
    assert " letters (" in err and " Hecke coefficients)" in err


@pytest.mark.parametrize("argv, code", [
    (["lk", "BR[2,{1,1}]", "--jobs", "2"], 1),
    (["--help"], 0),
    (["homfly", "BR[2,{1,1,1}]"], 0),
    # a negative count, or PD[] without an unknot, is an input error
    (["homfly", "PD[]", "--unknots", "0"], 1),
    (["homfly", "PD[]", "--unknots", "-1"], 1),
    (["lk", "PD[]", "--unknots", "-2"], 1),
    (["lk", "PD[]", "--unknots", "0"], 1),
    (["ovals", "embed", str(SRC.parent / "fixtures" / "hopf.ovals"), "--seed", "-1"], 1),
    (["homfly", "BR[2,{1,1}]", "--skein-budget", "-1"], 1),
    (["chi", "BR[2,{1,1}]", "--search-budget", "-5"], 1),
])
def test_process_exit_codes(argv, code):
    proc = cli(*argv)
    assert proc.returncode == code, proc.stderr
    # a traceback exits 1 too
    assert "Traceback" not in proc.stderr
    if code == 1:
        assert proc.stdout == ""
        assert sum("error:" in line for line in proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["lk", "BR[2,{1,1}]", "--seed", "9"],
    ["lk", "BR[2,{1,1}]", "--search-budget", "5"],
    ["homfly", "BR[2,{1,1}]", "--search-budget", "5"],
    ["qp-verify", "BR[2,{1,1}]", "--skein-budget", "5"],
    ["table1", "kb", "--seed", "1"],
    ["qp-obstruct", "BR[2,{1,1}]", "--search-budget", "5"],
    *(["ovals", stage, str(SRC.parent / "fixtures" / "hopf.ovals"), *option]
      for stage in ["realize", "cable", "splice"]
      for option in [["--skein-budget", "5"], ["--seed", "1"], ["--orientation", "induced"],
                     ["--samples-scale", "2"], ["--svg", "out.svg"]]),
    # options follow the stage
    ["ovals", "--machine", "splice", str(SRC.parent / "fixtures" / "hopf.ovals")],
    # a braid has no free loops to count
    ["homfly", "BR[2,{1,1}]", "--unknots", "1"],
    ["lk", "BR[2,{1,1}]", "--unknots", "0"],
])
def test_options_a_subcommand_does_not_read_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert sum("error:" in line for line in err.splitlines()) == 1


def test_table1_machine_mode(capsys, fixtures_dir):
    code, out, _ = run(capsys, "table1", str(fixtures_dir / "table1.kb"), "--machine")
    assert code == 0
    assert "row.2_1.Q=yes" in out
    assert "mismatches=0" in out


@pytest.mark.parametrize("argv", [
    ["homfly", "BR[2,{1,1\u00b2}]"],
    ["lk", "PD[X[1,2,3,4\u00b2]]"],
])
def test_superscript_digits_are_a_parse_error(argv):
    proc = cli(*argv)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_a_long_mirror_chain_in_a_kb_needs_no_recursion(capsys, tmp_path):
    kb = tmp_path / "chain.kb"
    kb.write_text("".join("link L%d\nbraid BR[2,{%d}]\n%s\n"
                          % (k, (-1) ** k, "mirror-of L%d" % (k + 1) if k < 1499 else "")
                          for k in range(1500)))
    code, out, err = run(capsys, "classify", str(kb))
    assert code == 0 and err == ""
    assert "L1499" in out


def test_a_mirror_cycle_in_a_kb_is_an_error(capsys, tmp_path):
    kb = tmp_path / "cycle.kb"
    kb.write_text("link A\nbraid BR[2,{1}]\nmirror-of B\n\nlink B\nbraid BR[2,{-1}]\nmirror-of A\n")
    code, out, err = run(capsys, "classify", str(kb))
    assert code == 1 and out == ""
    assert err == "error: cyclic relation through A\n"


@pytest.mark.parametrize("kb", [
    pytest.param("link A\nbraid BR[2,{1}]\nmirror-of A\n", id="own-mirror"),
    pytest.param("link A\nbraid BR[2,{1}]\nsplit-sum-of A B\n\nlink B\nbraid BR[2,{-1}]\n", id="own-summand"),
])
def test_a_record_that_names_itself_is_a_cycle(capsys, tmp_path, kb):
    # the rules read a record's bound tables while they write its partners'
    # tables, so no record may be its own mirror or summand
    (tmp_path / "self.kb").write_text(kb)
    assert run(capsys, "classify", str(tmp_path / "self.kb")) == (1, "", "error: cyclic relation through A\n")


def _write_forest(path, parents, windings):
    path.write_text("".join("%d %d %d\n" % (k + 1, p, w) for k, (p, w) in enumerate(zip(parents, windings))))
    return str(path)


@pytest.mark.parametrize("stage", ["cable", "embed"])
def test_ovals_on_a_1500_deep_chain_end_without_a_traceback(tmp_path, stage):
    chain = _write_forest(tmp_path / "chain.ovals", range(1500), [1] * 1500)
    proc = cli("ovals", stage, chain, timeout=120)
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr
    if stage == "cable":
        assert proc.stdout.splitlines() == ["add_retain(+1) @%d" % k for k in range(1, 1500)] + ["add_remove(+1) @1500"]


@pytest.mark.parametrize("depth", [30, 1500])
def test_ovals_embed_on_a_deep_chain_without_geometry_asks_for_it(tmp_path, depth):
    chain = _write_forest(tmp_path / "chain.ovals", range(depth), [1] * depth)
    t0 = time.perf_counter()
    proc = cli("ovals", "embed", chain)
    assert time.perf_counter() - t0 < 10.0
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: oval 17 at depth 16 is nested too deep to place without geometry "
                           "(its radius would be 3.5e-08); give cx cy r for every oval in the oval file\n")


@pytest.mark.parametrize("shape", ["chain", "random"])
def test_ovals_splice_on_300_ovals_is_fast(tmp_path, shape):
    rng = random.Random(300)
    parents = range(300) if shape == "chain" else [rng.randrange(k) for k in range(1, 301)]
    forest = _write_forest(tmp_path / "f.ovals", parents, [rng.randint(-3, 3) for _ in range(300)])
    t0 = time.perf_counter()
    proc = cli("ovals", "splice", forest, "--machine")
    assert time.perf_counter() - t0 < 5.0
    assert proc.returncode == 0, proc.stderr
    assert sum(line.startswith("lk.") for line in proc.stdout.splitlines()) == 300
