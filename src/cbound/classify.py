"""Rule engine over link records.

Builds two-sided bounds for the slice Euler characteristic and its
reversed-mirror variant, then runs a monotone fixpoint of membership
rules for the three nested link classes (quasipositive, strong boundary,
boundary).  A record's seed bounds, chi search and certified verdicts
(axioms and the certificate's ``Q yes``) are computed when its row is
built; its invariants once per braid word in the ledger's memos, which
the command's later runs (the axiom audit) share.  The fixpoint only
propagates: its passes move bounds between related rows and derive
verdicts from the ones already there.  A cell is decided where it is
derived, a chi end read from its bound table, and the settled rows are
the ledger's rows.  Every yes/no cell carries derivation traces, and a
report compares the whole ledger against expected table fixtures.
"""

from __future__ import annotations

import functools
import graphlib
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

from .braids import (
    DEFAULT_SEARCH_BUDGET,
    BraidError,
    BraidWord,
    QPFactorization,
    bennequin_chi,
    braid_equal,
    chi_minus_lower_bound,
    closure_components,
    expand_qp,
    qp_chi,
    seifert_invariants,
    verify_witness,
)
from .diagrams import linked_throughout
from .homfly import DEFAULT_SKEIN_BUDGET, LaurentPoly2, homfly_braid, unlink_poly, fwm_obstruction
from .notation import ParseError, line_words, parse_braid, render_braid

CLASSES = ("Q", "SB", "B")
_VERDICTS = ("yes", "no")


class ClassifyError(ValueError):
    """Knowledge-base or inference failure."""


@dataclass(frozen=True)
class Axiom:
    """A certified membership fact that enters the ledger with a letter tag."""

    cls: str
    verdict: str
    letter: str

    def __post_init__(self):
        if self.cls not in CLASSES or self.verdict not in _VERDICTS:
            raise ClassifyError("bad axiom %s %s" % (self.cls, self.verdict))


@dataclass(frozen=True)
class CellExpectation:
    verdict: str
    letters: frozenset[str]


@dataclass
class LinkRecord:
    """One knowledge-base row: a link given by a braid word plus declared
    structure (mirror partner, sum decomposition, certificates, axioms).
    A certificate is taken as already checked: ``parse_kb`` checks it."""

    name: str
    braid: BraidWord
    certificate: QPFactorization | None = None
    invertible: bool = True
    mirror_of: str | None = None
    sum_kind: str | None = None  # "split" | "connected"
    summands: tuple[str, ...] = ()
    outer: bool = False
    axioms: tuple[Axiom, ...] = ()
    expected: dict[str, CellExpectation] = field(default_factory=dict)
    stated_chi_s: int | None = None
    stated_chi_minus: int | None = None


@dataclass(frozen=True)
class ChiBounds:
    chi_s: tuple[int, int]
    chi_s_minus: tuple[int, int]


@dataclass(frozen=True)
class Derivation:
    rule: str
    verdict: str
    letters: frozenset[str]
    why: str


@dataclass
class CellResult:
    """One class's verdict; ``_Row.derive`` sets it and appends to the list of derivations."""

    verdict: str  # yes / no / unknown
    derivations: list[Derivation]


@dataclass
class Ledger:
    rows: dict[str, _Row]
    skein_budget: int
    search_budget: int
    memos: tuple[Callable, Callable, Callable] = field(repr=False)  # see _Row


# -- tagged bound dictionaries ----------------------------------------------
#
# A bound value is kept per route tag-set, not just as a single extremum.
# The table's comment letters cite the route that produced a bound, so two
# derivations of the same inequality through different rules must both stay
# visible.  Values are clamped to the parity of the component count, which
# every surface characteristic shares.


class _Bound:
    def __init__(self, kind: str, mu: int):
        self.kind = kind  # "lo" or "hi"
        self.mu = mu
        self.data: dict[frozenset, tuple[int, str]] = {}

    def _clamp(self, v: int) -> int:
        if (v - self.mu) % 2 == 0:
            return v
        return v + 1 if self.kind == "lo" else v - 1

    def note(self, tags: frozenset, value: int, why: str) -> bool:
        value = self._clamp(value)
        cur = self.data.get(tags)
        if cur is not None and (value <= cur[0] if self.kind == "lo" else value >= cur[0]):
            return False
        self.data[tags] = (value, why)
        return True

    def best(self) -> tuple[int, str]:
        pick = min if self.kind == "hi" else max
        return pick(self.data.values(), key=lambda t: t[0])


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


class _Row:
    """One record's working state.

    The constructor computes everything the record contributes on its own:
    the components with their own words and their linking (one
    ``closure_components`` call), the polynomial, the seed bounds, the
    chi search and the certified verdicts: the record's axioms, then its
    certificate's ``Q yes``.  ``memos`` memoize the polynomial, Seifert
    triple and components per word for all rows of the command's runs (a
    trefoil component recurs in several links, and the axiom audit reruns
    every record); no row changes their values.  The fixpoint passes then
    only propagate bounds and verdicts.
    The settled row is the ledger's row: its ``cells`` are the ones
    ``derive`` wrote, and ``chi`` reads the ends of its four bound tables.
    """

    def __init__(
        self,
        rec: LinkRecord,
        memos: tuple[Callable, Callable, Callable],
        search_budget: int,
    ):
        self.rec = rec
        word = rec.braid
        poly_of, seifert_of, components_of = memos
        components, self.lk = components_of(word)
        self.mu = mu = len(components)
        self.poly = poly_of(word)
        self.nontrivial = self.poly != unlink_poly(mu)
        self.s_lo = _Bound("lo", mu)
        self.s_hi = _Bound("hi", mu)
        self.m_lo = _Bound("lo", mu)
        self.m_hi = _Bound("hi", mu)
        self.cells = {c: CellResult("unknown", []) for c in CLASSES}

        self.s_lo.note(frozenset(), bennequin_chi(word), "banded surface of the given word")
        sig, nul, _ = seifert_of(word)
        # Murasugi: chi_s <= 1 - |signature| + nullity
        self.s_hi.note(frozenset(), 1 - abs(sig) + nul, "signature bound")
        # disk census: components that could bound a disk on their own have
        # zero total linking with the rest, zero signature and a square
        # determinant; a knotted component decides the route tag
        eligible = 0
        knotted = False
        for k, w in enumerate(components):
            if w.letters and poly_of(w) != LaurentPoly2.const(1):
                knotted = True
            if sum(self.lk[k]) != 0:
                continue
            csig, _, cdet = seifert_of(w)
            if csig == 0 and _is_square(cdet):
                eligible += 1
        tag = frozenset("g") if (mu >= 2 and knotted) else frozenset()
        self.s_hi.note(tag, eligible, "at most %d components can bound disks" % eligible)

        self.search = chi_minus_lower_bound(word, search_budget, seifert=seifert_of(word), mu=mu)
        try:
            verify_witness(word, self.search)
        except BraidError as e:
            raise ClassifyError("chi search witness for %s does not replay: %s" % (rec.name, e)) from None
        self.m_lo.note(frozenset(), self.search.score, "switch-and-reduce search")
        self.m_hi.note(frozenset(), mu, "component count cap")
        if rec.certificate is not None:
            v = qp_chi(rec.certificate)
            why = "braided surface from the factorization is optimal"
            for b in (self.s_lo, self.s_hi, self.m_lo, self.m_hi):
                b.note(frozenset(), v, why)
        for ax in rec.axioms:
            self.derive(ax.cls, ax.verdict, frozenset(ax.letter), "axiom",
                        "certified construction, cited as (%s)" % ax.letter)
        if rec.certificate is not None:
            self.derive("Q", "yes", frozenset(), "certificate", "verified quasipositive factorization")

    @functools.cached_property
    def linked_throughout(self) -> bool:
        """Every proper component subset links its complement."""
        return linked_throughout(self.lk)

    @property
    def chi(self) -> ChiBounds:
        return ChiBounds((self.s_lo.best()[0], self.s_hi.best()[0]), (self.m_lo.best()[0], self.m_hi.best()[0]))

    def derive(self, cls: str, verdict: str, letters: frozenset, rule: str, why: str) -> bool:
        cell = self.cells[cls]
        for d in cell.derivations:
            if d.verdict == verdict and d.letters == letters:
                return False
        cell.derivations.append(Derivation(rule, verdict, letters, why))
        if cell.verdict not in ("unknown", verdict):
            lines = ["%s/%s derived both ways for %s:" % (cls, "contradiction", self.rec.name)]
            for d in cell.derivations:
                lines.append("  %s -> %s (%s): %s" % (d.rule, d.verdict, fmt_letters(d.letters), d.why))
            raise ClassifyError("\n".join(lines))
        cell.verdict = verdict
        return True

    def check_chi(self):
        for label, lo, hi in (("chi_s", self.s_lo, self.s_hi), ("chi_s^-", self.m_lo, self.m_hi)):
            bl, bh = lo.best(), hi.best()
            if bl[0] > bh[0]:
                raise ClassifyError(
                    "%s bounds clash for %s: lower %d (%s) exceeds upper %d (%s)"
                    % (label, self.rec.name, bl[0], bl[1], bh[0], bh[1])
                )


def fmt_letters(letters: frozenset) -> str:
    return ",".join(sorted(letters)) if letters else "-"


# -- knowledge-base parsing --------------------------------------------------


def certificate_holds(braid: BraidWord, fac: QPFactorization) -> bool:
    """Whether the factorization multiplies out to the braid."""
    return braid_equal(expand_qp(fac), braid)


def parse_certificate(strands: int, text: str) -> QPFactorization:
    """Factor list in the compact form ``conj:j`` per factor, conjugator
    letters comma-separated (possibly empty), e.g. ``-1:2 :1 :2``."""
    factors = []
    for piece in text.split():
        if ":" not in piece:
            raise ClassifyError("certificate factor %r lacks ':'" % piece)
        conj_text, _, gen_text = piece.rpartition(":")
        try:
            conj = tuple(int(t) for t in conj_text.split(",") if t.strip())
            j = int(gen_text)
        except ValueError:
            raise ClassifyError("bad certificate factor %r" % piece) from None
        factors.append((conj, j))
    return QPFactorization(strands, tuple(factors))


def _letter(text: str) -> str:
    if len(text) != 1 or not ("a" <= text <= "j"):
        raise ClassifyError("unknown comment letter %r" % text)
    return text


def _parse_letterset(text: str) -> frozenset[str]:
    if text == "-":
        return frozenset()
    return frozenset(_letter(l) for l in text.split(","))


def _stated(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        digits = text[1:] if text[0] in "+-" else text
        got = "%d digits, too long" % len(digits) if digits.isdecimal() else repr(text[:20])
        raise ClassifyError("%s wants an integer or -, got %s" % (key, got)) from None


# The LinkRecord field set by each key that a stanza may give only once
_SINGLE_KEYS = {"braid": "braid", "cert": "certificate", "invertible": "invertible", "outer": "outer",
                "mirror-of": "mirror_of", "chi_s": "stated_chi_s", "chi_minus": "stated_chi_minus",
                "split-sum-of": "sum_kind", "connected-sum-of": "sum_kind"}


def parse_kb(text: str) -> list[LinkRecord]:
    """Read the line-based knowledge-base format.

    Every stanza starts with ``link NAME`` and carries indented-or-not
    property lines until the next stanza.  Unknown keys are an error, and
    so is a second line of a key other than ``axiom`` and ``expect`` in one
    stanza, or a second ``expect`` for one class; the format is
    deliberately small.
    """
    records: list[LinkRecord] = []
    cur: dict | None = None  # LinkRecord fields given so far
    axioms: list[Axiom] = []
    summands: list[str] = []

    def flush():
        if cur is None:
            return
        if "braid" not in cur:
            raise ClassifyError("record %s has no braid" % cur["name"])
        records.append(LinkRecord(**cur, axioms=tuple(axioms), summands=tuple(summands)))

    for lineno, (key, *args) in line_words(text):
        try:
            if key == "link":
                flush()
                if len(args) != 1:
                    raise ClassifyError("link stanza wants exactly one name")
                cur = {"name": args[0]}
                axioms, summands = [], []
                continue
            if cur is None:
                raise ClassifyError("property before any link stanza")
            if _SINGLE_KEYS.get(key) in cur:
                raise ClassifyError("%s given twice" % key)
            if key == "braid":
                cur["braid"] = parse_braid(" ".join(args))
            elif key == "cert":
                if "braid" not in cur:
                    raise ClassifyError("cert must follow the braid line")
                cur["certificate"] = fac = parse_certificate(cur["braid"].strands, " ".join(args))
                if not certificate_holds(cur["braid"], fac):
                    raise ClassifyError("certificate multiplies out to %s, not to the braid %s"
                                        % (render_braid(expand_qp(fac)), render_braid(cur["braid"])))
            elif key in ("invertible", "outer"):
                if args not in (["yes"], ["no"]):
                    raise ClassifyError("%s wants exactly yes or no, got %r" % (key, " ".join(args)))
                cur[key] = args == ["yes"]
            elif key in ("mirror-of", "chi_s", "chi_minus"):
                if len(args) != 1:
                    raise ClassifyError("%s wants exactly one value, got %d" % (key, len(args)))
                if key == "mirror-of":
                    cur["mirror_of"] = args[0]
                else:
                    cur["stated_" + key] = None if args[0] == "-" else _stated(key, args[0])
            elif key in ("split-sum-of", "connected-sum-of"):
                cur["sum_kind"] = "split" if key.startswith("split") else "connected"
                summands = args
                if len(args) < 2:
                    raise ClassifyError("a sum needs at least two summands")
            elif key == "axiom":
                if len(args) != 3:
                    raise ClassifyError("axiom wants class, verdict and letter, got %r" % " ".join(args))
                axioms.append(Axiom(args[0], args[1], _letter(args[2])))
            elif key == "expect":
                if len(args) not in (2, 3) or args[0] not in CLASSES or args[1] not in _VERDICTS:
                    raise ClassifyError("bad expectation %r" % " ".join([key, *args]))
                letters = _parse_letterset(args[2]) if len(args) == 3 else frozenset()
                if args[0] in cur.setdefault("expected", {}):
                    raise ClassifyError("expect %s given twice" % args[0])
                cur["expected"][args[0]] = CellExpectation(args[1], letters)
            else:
                raise ClassifyError("unknown key %r" % key)
        except (ClassifyError, ParseError, ValueError) as e:
            raise ClassifyError("kb line %d: %s" % (lineno, e)) from None
    flush()
    _validate_records(records)
    return records


def _validate_records(records: list[LinkRecord]):
    refs = {}  # record name -> the names it refers to
    for r in records:
        if r.name in refs:
            raise ClassifyError("duplicate record name %r" % r.name)
        refs[r.name] = r.summands + ((r.mirror_of,) if r.mirror_of else ())
    for name, targets in refs.items():
        for ref in targets:
            if ref not in refs:
                raise ClassifyError("record %s refers to unknown link %r" % (name, ref))
    # relations must not loop back
    try:
        graphlib.TopologicalSorter(refs).prepare()
    except graphlib.CycleError as exc:
        raise ClassifyError("cyclic relation through %s" % exc.args[1][0]) from None


# -- the engine ---------------------------------------------------------------


def _copy_entries(dst: _Bound, src: _Bound, note: str) -> bool:
    changed = False
    for tags, (v, why) in src.data.items():
        changed |= dst.note(tags, v, "%s; %s" % (note, why))
    return changed


def _combine(dst: _Bound, parts: list[_Bound], offset: int, extra: frozenset, note: str) -> bool:
    """Push every tag-set combination of summand bounds into dst."""
    changed = False
    combos: list[tuple[frozenset, int, list[str]]] = [(frozenset(), offset, [])]
    for b in parts:
        nxt = []
        for tags, acc, whys in combos:
            for t2, (v2, why2) in b.data.items():
                nxt.append((tags | t2, acc + v2, whys + [why2]))
        combos = nxt
    for tags, total, whys in combos:
        changed |= dst.note(tags | extra, total, "%s from %s" % (note, "; ".join(whys)))
    return changed


def _chi_pass(rows: dict[str, _Row]) -> bool:
    changed = False
    for row in rows.values():
        rec = row.rec
        if rec.mirror_of:
            other = rows[rec.mirror_of]
            # the slice characteristic does not feel a reflection of the
            # four-ball, so upper and lower transfer both ways; the immersed
            # variant is chiral and must not be copied
            for dst, src in ((row, other), (other, row)):
                changed |= _copy_entries(dst.s_lo, src.s_lo, "mirror of %s" % src.rec.name)
                changed |= _copy_entries(dst.s_hi, src.s_hi, "mirror of %s" % src.rec.name)
        if rec.summands:
            parts = [rows[s] for s in rec.summands]
            off = 0 if rec.sum_kind == "split" else 1 - len(parts)
            changed |= _combine(row.s_lo, [p.s_lo for p in parts], off, frozenset(), "summand surfaces glued")
            changed |= _combine(row.m_lo, [p.m_lo for p in parts], off, frozenset(), "summand surfaces glued")
            if all(p.cells["SB"].verdict == "yes" for p in parts):
                changed |= _combine(
                    row.s_hi, [p.s_hi for p in parts], off, frozenset("e"), "additivity over strong summands"
                )
            if rec.sum_kind == "split":
                changed |= _combine(
                    row.m_hi, [p.m_hi for p in parts], 0, frozenset(), "split pieces bound separately"
                )
        changed |= _copy_entries(row.m_lo, row.s_lo, "embedded surfaces count")
        changed |= _copy_entries(row.s_hi, row.m_hi, "immersed bound dominates")
        if row.cells["SB"].verdict == "yes":
            changed |= _copy_entries(row.s_lo, row.m_lo, "both characteristics agree for strong boundaries")
            changed |= _copy_entries(row.m_hi, row.s_hi, "both characteristics agree for strong boundaries")
        row.check_chi()
    return changed


def _membership_pass(rows: dict[str, _Row]) -> bool:
    changed = False
    for row in rows.values():
        rec = row.rec
        # inclusion chain, both directions
        if row.cells["Q"].verdict == "yes":
            changed |= row.derive("SB", "yes", frozenset(), "chain", "quasipositive links are strong boundaries")
        if row.cells["SB"].verdict == "yes":
            changed |= row.derive("B", "yes", frozenset(), "chain", "strong boundaries are boundaries")
        if row.cells["B"].verdict == "no":
            changed |= row.derive("SB", "no", frozenset(), "chain", "not even a plain boundary")
        if row.cells["SB"].verdict == "no":
            changed |= row.derive("Q", "no", frozenset(), "chain", "not a strong boundary")

        # a nontrivial quasipositive link bars its mirror from the class
        if rec.mirror_of and row.cells["Q"].verdict != "yes":
            other = rows[rec.mirror_of]
            for a, b in ((row, other), (other, row)):
                if a.cells["Q"].verdict == "yes" and a.nontrivial:
                    changed |= b.derive(
                        "Q", "no", frozenset(), "mirror-exclusion",
                        "mirror %s is quasipositive and nontrivial" % a.rec.name,
                    )

        # a sum with a non-quasipositive summand is not quasipositive
        for s in rec.summands:
            if rows[s].cells["Q"].verdict == "no":
                changed |= row.derive(
                    "Q", "no", frozenset("c"), "sum-obstruction", "summand %s is not quasipositive" % s
                )

        # strong boundaries have agreeing characteristics
        for tags_h, (vh, why_h) in row.s_hi.data.items():
            for tags_l, (vl, why_l) in row.m_lo.data.items():
                if vh < vl:
                    changed |= row.derive(
                        "SB", "no", frozenset("a") | tags_h | tags_l, "chi-gap",
                        "chi_s <= %d (%s) stays below chi_s^- >= %d (%s)" % (vh, why_h, vl, why_l),
                    )

        # no sublink of zero total linking means no bounded piece to shed
        if row.cells["SB"].verdict == "no" and row.linked_throughout:
            changed |= row.derive(
                "B", "no", frozenset("b"), "linked-throughout",
                "not strong, and every component subset links its complement",
            )

        # declared sums of strong boundaries stay strong; boundary sums need
        # outer components, which strength supplies automatically
        if rec.summands:
            parts = [rows[s] for s in rec.summands]
            if all(p.cells["SB"].verdict == "yes" for p in parts):
                changed |= row.derive(
                    "SB", "yes", frozenset(), "sum-closure", "all summands are strong boundaries"
                )
            if all(p.cells["B"].verdict == "yes" and (p.cells["SB"].verdict == "yes" or p.rec.outer) for p in parts):
                changed |= row.derive(
                    "B", "yes", frozenset(), "sum-closure", "boundary summands with outer components"
                )

        # a strong boundary with nonpositive chi_s rules out the reversed
        # mirror; with invertibility that is the plain mirror partner
        if rec.mirror_of and rec.invertible:
            other = rows[rec.mirror_of]
            for a, b in ((row, other), (other, row)):
                for tags, (v, why) in a.s_hi.data.items():
                    if v > 0:
                        continue
                    if a.cells["SB"].verdict == "yes":
                        changed |= b.derive(
                            "B", "no", frozenset("f") | tags, "reversed-mirror",
                            "%s is a strong boundary with chi_s <= %d (%s)" % (a.rec.name, v, why),
                        )
                    if b.cells["B"].verdict == "yes":
                        changed |= a.derive(
                            "SB", "no", frozenset("f") | tags, "reversed-mirror",
                            "%s bounds while chi_s <= %d here (%s)" % (b.rec.name, v, why),
                        )

        # braid-index style obstruction from the polynomial
        for tags, (v, why) in row.s_hi.data.items():
            ob = fwm_obstruction(row.poly, v)
            if ob["refuted"]:
                changed |= row.derive(
                    "Q", "no", frozenset("i") | tags, "order-bound",
                    "ord_v=%d falls short of %d required with chi_s <= %d (%s)"
                    % (ob["ord_v"], ob["required_at_least"], v, why),
                )
    return changed


def apply_rules(
    records: list[LinkRecord],
    *,
    skein_budget: int = DEFAULT_SKEIN_BUDGET,
    search_budget: int = DEFAULT_SEARCH_BUDGET,
    like: Ledger | None = None,
) -> Ledger:
    """Run the bound assembly and the membership fixpoint over the records.

    A run given ``like`` takes that ledger's budgets and shares its memos.
    Each certificate is taken as already checked (``parse_kb`` checks it).
    Raises ClassifyError on contradictory cells or clashing bounds; those
    are data bugs, not expected outcomes.
    """
    if like is None:
        # one skein evaluation, Seifert reduction and closure walk per braid word and command
        memos = (functools.cache(lambda w: homfly_braid(w, skein_budget)),
                 functools.cache(seifert_invariants), functools.cache(closure_components))
    else:
        skein_budget, search_budget, memos = like.skein_budget, like.search_budget, like.memos
    rows = {r.name: _Row(r, memos, search_budget) for r in records}
    for _ in range(200):
        busy = _chi_pass(rows)
        busy |= _membership_pass(rows)
        if not busy:
            break
    else:
        raise ClassifyError("rule fixpoint failed to settle")
    _check_chain(rows)
    return Ledger(rows, skein_budget, search_budget, memos)


def _check_chain(rows: dict[str, _Row]):
    rank = {"yes": 1, "unknown": 0, "no": -1}
    for r in rows.values():
        q, sb, b = (rank[r.cells[c].verdict] for c in CLASSES)
        if q > sb or sb > b:
            raise ClassifyError("inclusion chain violated for %s: Q=%s SB=%s B=%s"
                                % (r.rec.name, r.cells["Q"].verdict, r.cells["SB"].verdict, r.cells["B"].verdict))


# -- reporting ---------------------------------------------------------------


def axiom_audit(records: list[LinkRecord], ledger: Ledger) -> list[tuple[str, str, str, str]]:
    """Cells that the generic rules alone leave undecided, each attributed
    to the axioms it rests on.

    Attribution reruns the fixpoint, at the ledger's budgets and with its
    memos, with one axiom dropped at a time; a cell that goes dark in such
    a run depends on the dropped axiom, even when the axiom lives on a
    different record and acts through a cascade.
    """
    pure = apply_rules([replace(r, axioms=()) for r in records], like=ledger)
    targets = []
    for rec in records:
        for cls in CLASSES:
            v = ledger.rows[rec.name].cells[cls].verdict
            if v != "unknown" and pure.rows[rec.name].cells[cls].verdict == "unknown":
                targets.append((rec.name, cls, v))
    needs: dict[tuple[str, str], set[str]] = {(n, c): set() for n, c, _ in targets}
    axiom_list = [(r.name, ax) for r in records for ax in r.axioms]
    for owner, dropped in axiom_list:
        ablated = [
            replace(r, axioms=tuple(a for a in r.axioms if not (r.name == owner and a == dropped)))
            for r in records
        ]
        partial = apply_rules(ablated, like=ledger)
        for name, cls, _ in targets:
            if partial.rows[name].cells[cls].verdict == "unknown":
                needs[(name, cls)].add(dropped.letter)
    return [(n, c, v, ",".join(sorted(needs[(n, c)])) or "?") for n, c, v in targets]


def table1_report(
    records: list[LinkRecord],
    ledger: Ledger,
    audit: list[tuple[str, str, str, str]],
    machine: bool = False,
) -> tuple[str, int]:
    """Compare the ledger against the expected cells carried by the records.

    A membership cell matches when the verdict agrees and some derivation
    cites exactly the expected comment letters.  A stated chi_s is an upper
    bound and must equal the derived upper end; a stated chi_s^- is a lower
    bound and must equal the derived lower end.
    """
    lines: list[str] = []
    mism = 0
    for rec in records:
        row = ledger.rows[rec.name]
        chi = row.chi
        cols = []  # the text line's columns: one per class, then the two stated chi values
        for cls in CLASSES:
            want = rec.expected.get(cls)
            cell = row.cells[cls]
            ok = want is None or (cell.verdict == want.verdict
                                  and any(d.letters == want.letters for d in cell.derivations))
            mism += not ok
            if machine:
                lines.append("row.%s.%s=%s" % (rec.name, cls, cell.verdict))
                lines.append("row.%s.%s.expected=%s" % (rec.name, cls, want.verdict if want else "-"))
                lines.append(
                    "row.%s.%s.letters=%s" % (rec.name, cls, fmt_letters(want.letters) if want else "-")
                )
                lines.append("row.%s.%s.status=%s" % (rec.name, cls, "ok" if ok else "mismatch"))
            elif want is None:
                cols.append("%s %s ?" % (cls, cell.verdict))
            elif ok:
                cols.append("%s %s (%s) ok" % (cls, want.verdict, fmt_letters(want.letters)))
            else:
                have = " or ".join(
                    "%s(%s)" % (d.verdict, fmt_letters(d.letters)) for d in cell.derivations
                ) or "nothing"
                cols.append("%s %s (%s) MISMATCH: derived %s"
                            % (cls, want.verdict, fmt_letters(want.letters), have))
        for label, stated, got in (
            ("chi_s", rec.stated_chi_s, chi.chi_s[1]),
            ("chi_s^-", rec.stated_chi_minus, chi.chi_s_minus[0]),
        ):
            if stated is None:
                cols.append("%s -" % label)
            elif stated == got:
                cols.append("%s %d ok" % (label, stated))
            else:
                mism += 1
                cols.append("%s %d MISMATCH: derived %d" % (label, stated, got))
        if machine:
            lines.append("row.%s.chi_s=%d:%d" % (rec.name, *chi.chi_s))
            lines.append("row.%s.chi_s_minus=%d:%d" % (rec.name, *chi.chi_s_minus))
            lines.append("row.%s.chi_s.stated=%s" % (rec.name, rec.stated_chi_s if rec.stated_chi_s is not None else "-"))
            lines.append(
                "row.%s.chi_s_minus.stated=%s"
                % (rec.name, rec.stated_chi_minus if rec.stated_chi_minus is not None else "-")
            )
        else:
            lines.append("%-12s %s" % (rec.name, " | ".join(cols)))
    if machine:
        for name, cls, v, letters in audit:
            lines.append("axiom.%s.%s=%s:%s" % (name, cls, v, letters))
        lines.append("rows=%d" % len(records))
        lines.append("mismatches=%d" % mism)
    else:
        lines.append("")
        lines.append("axiom-backed cells (underivable by the generic rules alone):")
        for name, cls, v, letters in audit:
            lines.append("  %-12s %s=%s rests on axiom (%s)" % (name, cls, v, letters))
        lines.append("")
        lines.append("%d rows, %d mismatches" % (len(records), mism))
    return "\n".join(lines), mism


def describe_ledger(records: list[LinkRecord], ledger: Ledger, machine: bool = False) -> str:
    """Plain dump of verdicts, traces and bounds, independent of fixtures."""
    lines = []
    for rec in records:
        row = ledger.rows[rec.name]
        if machine:
            for cls in CLASSES:
                lines.append("ledger.%s.%s=%s" % (rec.name, cls, row.cells[cls].verdict))
            lines.append("ledger.%s.chi_s=%d:%d" % (rec.name, *row.chi.chi_s))
            lines.append("ledger.%s.chi_s_minus=%d:%d" % (rec.name, *row.chi.chi_s_minus))
            continue
        lines.append(rec.name)
        for cls in CLASSES:
            cell = row.cells[cls]
            lines.append("  %s: %s" % (cls, cell.verdict))
            for d in cell.derivations:
                lines.append("    via %s (%s): %s" % (d.rule, fmt_letters(d.letters), d.why))
        lines.append("  chi_s in [%d, %d], chi_s^- in [%d, %d]" % (*row.chi.chi_s, *row.chi.chi_s_minus))
    return "\n".join(lines)
