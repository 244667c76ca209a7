"""The membership rule engine and its knowledge-base format."""

import functools
import random
from dataclasses import replace

import pytest

from cbound.braids import BraidWord, component_count
from cbound.classify import (
    ClassifyError,
    LinkRecord,
    _is_square,
    apply_rules,
    axiom_audit,
    describe_ledger,
    fmt_letters,
    parse_certificate,
    parse_kb,
    table1_report,
)

MINI_KB = """\
link A
braid BR[2,{1,1}]
cert :1 :1

link A*
braid BR[2,{-1,-1}]
mirror-of A
"""


def test_parse_kb_round():
    recs = parse_kb(MINI_KB)
    assert [r.name for r in recs] == ["A", "A*"]
    assert recs[0].certificate is not None
    assert recs[1].mirror_of == "A"


def test_names_may_contain_hash():
    recs = parse_kb("link 2_1#2_1   # a comment\nbraid BR[4,{1,1,2,2}]\n")
    assert recs[0].name == "2_1#2_1"


def test_parse_kb_errors():
    with pytest.raises(ClassifyError, match="duplicate"):
        parse_kb("link A\nbraid BR[2,{1,1}]\nlink A\nbraid BR[2,{1}]\n")
    with pytest.raises(ClassifyError, match="unknown key"):
        parse_kb("link A\nbraid BR[2,{1,1}]\nfoo bar\n")
    with pytest.raises(ClassifyError, match="no braid"):
        parse_kb("link A\n")
    with pytest.raises(ClassifyError, match="cert must follow"):
        parse_kb("link A\ncert :1\n")
    with pytest.raises(ClassifyError, match="before any link"):
        parse_kb("braid BR[2,{1}]\n")
    with pytest.raises(ClassifyError, match="comment letter"):
        parse_kb("link A\nbraid BR[2,{1,1}]\nexpect Q no x\n")


@pytest.mark.parametrize("line, why", [
    ("invertible yse", "invertible wants exactly yes or no"),
    ("invertible", "invertible wants exactly yes or no"),
    ("invertible yes no", "invertible wants exactly yes or no"),
    ("outer Yes", "outer wants exactly yes or no"),
    ("outer", "outer wants exactly yes or no"),
    ("mirror-of", "mirror-of wants exactly one value, got 0"),
    ("mirror-of B C", "mirror-of wants exactly one value, got 2"),
    ("chi_s 1 2", "chi_s wants exactly one value, got 2"),
    ("chi_s", "chi_s wants exactly one value, got 0"),
    ("chi_minus - 0", "chi_minus wants exactly one value, got 2"),
    ("axiom Q yes a extra", "axiom wants class, verdict and letter"),
    ("axiom Q yes", "axiom wants class, verdict and letter"),
    ("axiom Q yes x", "unknown comment letter 'x'"),
    ("axiom Q yes ab", "unknown comment letter 'ab'"),
    ("expect Q", "bad expectation"),
    ("expect Q no a b", "bad expectation"),
])
def test_parse_kb_rejects_a_value_of_the_wrong_shape(line, why):
    with pytest.raises(ClassifyError, match="^kb line 3: " + why):
        parse_kb("link A\nbraid BR[2,{1,1}]\n%s\n" % line)


@pytest.mark.parametrize("line", ["braid BR[2,{1,1,1}]", "cert :1 :1", "invertible yes", "outer no",
                                  "mirror-of B", "chi_s 2", "chi_minus -", "split-sum-of B C",
                                  "connected-sum-of B C"])
def test_parse_kb_rejects_a_repeated_single_valued_key(line):
    key = line.split()[0]
    lineno = 3 if key == "braid" else 4
    with pytest.raises(ClassifyError, match="^kb line %d: %s given twice$" % (lineno, key)):
        parse_kb("link A\nbraid BR[2,{1,1}]\n%s\n%s\n" % (line, line))


def test_parse_kb_rejects_a_second_expect_for_one_class():
    with pytest.raises(ClassifyError, match="^kb line 4: expect Q given twice$"):
        parse_kb("link A\nbraid BR[2,{1,1}]\nexpect Q yes -\nexpect Q no -\n")


def test_parse_kb_lets_axiom_and_expect_repeat():
    rec = parse_kb("link A\nbraid BR[2,{1,1}]\naxiom Q yes a\naxiom SB no b\n"
                   "expect Q yes\nexpect SB no b\n")[0]
    assert [(a.cls, a.verdict) for a in rec.axioms] == [("Q", "yes"), ("SB", "no")]
    assert sorted(rec.expected) == ["Q", "SB"]


def test_parse_kb_reads_every_exact_shape():
    rec = parse_kb(
        "link B\nbraid BR[2,{1}]\n"
        "link A\nbraid BR[2,{1,1}]\ninvertible no\nouter yes\nmirror-of B\nchi_s -\nchi_minus 0\n"
        "axiom Q yes a\nexpect SB yes\nexpect B no a,b\n"
    )[1]
    assert (rec.invertible, rec.outer, rec.mirror_of) == (False, True, "B")
    assert (rec.stated_chi_s, rec.stated_chi_minus) == (None, 0)
    assert [(a.cls, a.verdict, a.letter) for a in rec.axioms] == [("Q", "yes", "a")]
    assert {c: (e.verdict, fmt_letters(e.letters)) for c, e in rec.expected.items()} == {
        "SB": ("yes", "-"), "B": ("no", "a,b")}


def test_certificate_round_trip():
    fac = parse_certificate(3, "-1:2 :1 :2")
    assert fac.strands == 3
    assert fac.factors == (((-1,), 2), ((), 1), ((), 2))


def test_corrupt_certificate_reported_before_rules():
    with pytest.raises(ClassifyError, match="^kb line 3: certificate multiplies out to BR\\[2, \\{1\\}\\], "
                                            "not to the braid BR\\[2, \\{1, 1\\}\\]$"):
        parse_kb("link A\nbraid BR[2,{1,1}]\ncert :1\n")


def test_quasipositive_chain():
    led = apply_rules(parse_kb(MINI_KB))
    row = led.rows["A"]
    assert {c: row.cells[c].verdict for c in ("Q", "SB", "B")} == {
        "Q": "yes", "SB": "yes", "B": "yes"}
    rules = {d.rule for d in row.cells["Q"].derivations}
    assert "certificate" in rules


def test_mirror_exclusion():
    led = apply_rules(parse_kb(MINI_KB))
    row = led.rows["A*"]
    assert row.cells["Q"].verdict == "no"
    assert any(d.rule == "mirror-exclusion" for d in row.cells["Q"].derivations)


def test_chi_bounds_for_solo_rows():
    rec = parse_kb("link m3\nbraid BR[2,{-1,-1,-1}]\n")[0]
    b = apply_rules([rec]).rows["m3"].chi
    assert b.chi_s == (-1, -1)
    assert b.chi_s_minus == (1, 1)
    hopf = parse_kb("link h\nbraid BR[2,{1,1}]\ncert :1 :1\n")[0]
    hb = apply_rules([hopf]).rows["h"].chi
    assert hb.chi_s == (0, 0) and hb.chi_s_minus == (0, 0)


def _seeded_words(count: int, seed: int) -> list[BraidWord]:
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        n = rng.randint(2, 5)
        k = rng.randint(1, 14)
        words.append(BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(k))))
    return words


SEEDED_WORDS = _seeded_words(300, 5)


@functools.cache
def _solo_rows(search_budget: int):
    """The row of each seeded word in a one-record ledger."""
    return [apply_rules([LinkRecord("input", b)], search_budget=search_budget).rows["input"] for b in SEEDED_WORDS]


def test_a_solo_record_needs_no_search_for_its_upper_chi_s_and_polynomial():
    moved = 0
    for b, bare, searched in zip(SEEDED_WORDS, _solo_rows(0), _solo_rows(2000)):
        assert bare.search.explored == 0
        assert (bare.chi.chi_s[1], bare.poly) == (searched.chi.chi_s[1], searched.poly), b
        moved += bare.chi.chi_s_minus[0] != searched.chi.chi_s_minus[0]
    # the search does raise lower bounds, so the two ledgers differ
    assert moved > 0


def test_a_solo_record_has_its_component_count_as_upper_chi_s_minus():
    for budget in (0, 2000):
        for b, row in zip(SEEDED_WORDS, _solo_rows(budget)):
            assert row.chi.chi_s_minus[1] == component_count(b), (budget, b)


def test_chi_ends_are_the_extremes_of_the_rows_own_source_tables(fixtures_dir):
    # cbound chi prints the ends and the tables they come from
    table1 = apply_rules(parse_kb((fixtures_dir / "table1.kb").read_text())).rows.values()
    for row in [*table1, *_solo_rows(0), *_solo_rows(2000)]:
        for key, (lo, hi), lo_table, hi_table in (("chi_s", row.chi.chi_s, row.s_lo, row.s_hi),
                                                  ("chi_s_minus", row.chi.chi_s_minus, row.m_lo, row.m_hi)):
            assert lo == max(v for v, _ in lo_table.data.values()), (row.rec.braid, key)
            assert hi == min(v for v, _ in hi_table.data.values()), (row.rec.braid, key)


def test_contradiction_aborts():
    # a certificate proves membership all the way up the chain, so an
    # exclusion axiom on the same record must blow up loudly
    kb = "link A\nbraid BR[2,{1,1}]\ncert :1 :1\naxiom B no h\n"
    with pytest.raises(ClassifyError, match="contradiction"):
        apply_rules(parse_kb(kb))
    # two axioms that disagree fail at the second one, naming both
    kb = "link A\nbraid BR[2,{1,1}]\naxiom Q yes a\naxiom Q no b\n"
    with pytest.raises(ClassifyError) as err:
        apply_rules(parse_kb(kb))
    assert str(err.value) == (
        "Q/contradiction derived both ways for A:\n"
        "  axiom -> yes (a): certified construction, cited as (a)\n"
        "  axiom -> no (b): certified construction, cited as (b)"
    )


def test_a_repeated_derivation_is_listed_once():
    recs = parse_kb("link A\nbraid BR[2,{1,1}]\naxiom Q yes a\naxiom Q yes a\n")
    led = apply_rules(recs)
    assert [(d.rule, d.letters) for d in led.rows["A"].cells["Q"].derivations] == [("axiom", frozenset("a"))]
    assert describe_ledger(recs, led).count("via axiom (a)") == 1


def test_expected_letters_must_match_exactly():
    kb = "link A\nbraid BR[2,{1,1}]\ncert :1 :1\nexpect Q no a\nchi_s 5\n"
    recs = parse_kb(kb)
    led = apply_rules(recs)
    text, mismatches = table1_report(recs, led, [])
    assert mismatches == 2
    assert "MISMATCH" in text
    # machine mode carries the same verdicts in greppable form
    mt, mm = table1_report(recs, led, [], machine=True)
    assert mm == 2
    assert "row.A.Q.status=mismatch" in mt
    assert "mismatches=2" in mt


def test_fmt_letters():
    assert fmt_letters(frozenset()) == "-"
    assert fmt_letters(frozenset("ca")) == "a,c"


def test_full_kb_is_clean(fixtures_dir):
    recs = parse_kb((fixtures_dir / "table1.kb").read_text())
    assert len(recs) == 29
    led = apply_rules(recs)
    text, mismatches = table1_report(recs, led, [])
    assert mismatches == 0
    assert "29 rows, 0 mismatches" in text


def test_one_seifert_reduction_per_word_per_run(fixtures_dir, monkeypatch):
    import cbound.braids

    reduced = []
    real = cbound.braids._seifert_reduction

    def counting(b):
        reduced.append(b)
        return real(b)

    monkeypatch.setattr(cbound.braids, "_seifert_reduction", counting)
    recs = parse_kb((fixtures_dir / "table1.kb").read_text())
    apply_rules(recs)
    assert len(reduced) == len(set(reduced)) == 32
    assert {r.braid for r in recs} <= set(reduced)


def test_one_polynomial_per_word_per_run(fixtures_dir, monkeypatch):
    import cbound.classify

    evaluated = []
    real = cbound.classify.homfly_braid

    def counting(b, *args):
        evaluated.append(b)
        return real(b, *args)

    monkeypatch.setattr(cbound.classify, "homfly_braid", counting)
    recs = parse_kb((fixtures_dir / "table1.kb").read_text())
    apply_rules(recs)
    assert len(evaluated) == len(set(evaluated)) == 31


def test_the_audit_reruns_reuse_the_first_runs_invariants(fixtures_dir, monkeypatch):
    import cbound.braids
    import cbound.classify

    calls: dict[str, list] = {"homfly_braid": [], "seifert_invariants": [], "closure_components": []}

    def counted(name, real):
        def counting(b, *args):
            calls[name].append(b)
            return real(b, *args)
        return counting

    # both modules' names, so that a walk inside the chi search counts too
    for module in (cbound.braids, cbound.classify):
        for name in ("seifert_invariants", "closure_components"):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(cbound.classify, "homfly_braid", counted("homfly_braid", cbound.classify.homfly_braid))
    recs = parse_kb((fixtures_dir / "table1.kb").read_text())
    axiom_audit(recs, apply_rules(recs))
    for words in calls.values():
        assert len(words) == len(set(words)), "a word's invariant was computed twice"
    assert len(calls["homfly_braid"]) == 31
    assert len(calls["seifert_invariants"]) == 32
    assert set(calls["closure_components"]) == {r.braid for r in recs}


def _row_state(row):
    # by value: the cells and bound tables are the row's live objects
    return ({cls: (cell.verdict, tuple(cell.derivations)) for cls, cell in row.cells.items()}, row.chi,
            [dict(table.data) for table in (row.s_lo, row.s_hi, row.m_lo, row.m_hi)],
            [list(r) for r in row.lk], dict(row.poly.terms))


def test_the_audit_equals_one_that_shares_nothing_and_leaves_the_ledger_alone(fixtures_dir, monkeypatch):
    import cbound.classify

    recs = parse_kb((fixtures_dir / "table1.kb").read_text())
    led = apply_rules(recs)
    before = {name: _row_state(row) for name, row in led.rows.items()}
    shared = axiom_audit(recs, led)
    assert {name: _row_state(row) for name, row in led.rows.items()} == before

    real = cbound.classify.apply_rules

    def fresh(records, *, like):
        return real(records, skein_budget=like.skein_budget, search_budget=like.search_budget)

    monkeypatch.setattr(cbound.classify, "apply_rules", fresh)
    assert axiom_audit(recs, apply_rules(recs)) == shared


def test_one_certificate_check_per_cert_line(fixtures_dir, monkeypatch, capsys):
    import cbound.classify
    from cbound.cli import main

    compared = []
    real = cbound.classify.braid_equal

    def counting(a, b):
        compared.append(b)
        return real(a, b)

    monkeypatch.setattr(cbound.classify, "braid_equal", counting)
    kb = fixtures_dir / "table1.kb"
    assert main(["table1", str(kb)]) == 0
    capsys.readouterr()
    certs = [r.braid for r in parse_kb(kb.read_text()) if r.certificate is not None]
    assert compared == certs * 2  # ten by main, then ten by the parse_kb above
    assert len(certs) == 10


def test_linked_throughout_is_tested_at_most_once_per_record(fixtures_dir, monkeypatch):
    import cbound.classify

    tested = []
    real = cbound.classify.linked_throughout

    def counting(m):
        tested.append(m)
        return real(m)

    monkeypatch.setattr(cbound.classify, "linked_throughout", counting)
    recs = parse_kb((fixtures_dir / "table1.kb").read_text())
    apply_rules(recs)
    assert len(tested) <= len(recs) == 29


def test_axiom_derivation_is_listed_before_the_certificate():
    recs = parse_kb("link A\nbraid BR[2,{1,1}]\ncert :1 :1\naxiom Q yes d\n")
    text = describe_ledger(recs, apply_rules(recs))
    q = text[text.index("Q: yes"):text.index("SB:")]
    assert 0 <= q.index("via axiom (d)") < q.index("via certificate (-)")


def test_a_witness_that_does_not_replay_is_rejected(monkeypatch):
    import cbound.classify

    real = cbound.classify.chi_minus_lower_bound

    def inflated(b, budget, **kwargs):
        r = real(b, budget, **kwargs)
        return replace(r, score=r.score + 1)

    monkeypatch.setattr(cbound.classify, "chi_minus_lower_bound", inflated)
    with pytest.raises(ClassifyError, match="chi search witness for fig8 does not replay"):
        apply_rules([LinkRecord("fig8", BraidWord(3, (1, -2, 1, -2)))])


def test_axiom_audit_attributes_every_axiom(fixtures_dir):
    recs = parse_kb((fixtures_dir / "table1.kb").read_text())
    led = apply_rules(recs)
    audit = axiom_audit(recs, led)
    assert audit, "every kb axiom should carry at least one cell"
    # no cell may be left unattributed
    assert all(letters not in ("", "?") for _, _, _, letters in audit)
    # the lone non-construction axiom shows up with its own letter
    assert ("3_1*u2_1", "B", "no", "h") in audit


def test_describe_ledger_mentions_every_record(fixtures_dir):
    recs = parse_kb((fixtures_dir / "table1.kb").read_text())
    led = apply_rules(recs)
    text = describe_ledger(recs, led)
    for r in recs:
        assert r.name in text


def test_empty_kb():
    led = apply_rules([])
    assert led.rows == {}
    text, mismatches = table1_report([], led, [])
    assert mismatches == 0


def test_is_square_is_exact_for_large_ints():
    assert _is_square((2**60 + 200) ** 2)
    assert not _is_square((2**60 + 200) ** 2 + 1)
    assert _is_square(10**400)
    assert not _is_square(10**400 + 1)
    assert _is_square(0) and _is_square(1) and not _is_square(2) and not _is_square(-4)
