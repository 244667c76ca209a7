"""Command line front end.

One subcommand per pipeline stage, each taking only the options it reads.
Exit codes: 0 success, 1 bad input or usage, 2 computation budget
exceeded, 3 fixture or certificate mismatch.  Oval errors are OvalError.
Diagnostics go to stderr; the report stream stays machine-friendly under
--machine (one key=value per line).  Only `ovals embed` loads numpy.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .braids import DEFAULT_SEARCH_BUDGET, SEARCH_UNIT_LETTERS, BraidError, BraidWord, qp_chi, reduce_word
from .classify import (
    ClassifyError,
    LinkRecord,
    apply_rules,
    axiom_audit,
    certificate_holds,
    describe_ledger,
    parse_certificate,
    parse_kb,
    table1_report,
)
from .diagrams import Diagram, DiagramError, from_braid, linking_matrix
from .homfly import DEFAULT_SKEIN_BUDGET, HECKE_MAX_STRANDS, BudgetExceeded, fwm_obstruction, homfly, homfly_braid
from .notation import ParseError, line_words, parse_braid, parse_ovals, parse_pd, render_braid, render_pd, render_poly
from .splice import (
    OvalError,
    cabling_program,
    linking_from_splice,
    realizable,
    render_splice,
    simplify_splice,
    splice_diagram,
)


def _load_text(arg: str) -> str:
    """Inline literal or path to a file holding one."""
    if arg.lstrip().startswith(("BR[", "PD[")):
        return arg
    with open(arg) as fh:
        return fh.read()


def _load_input(arg: str, unknots: int | None) -> BraidWord | Diagram:
    """A braid word, or a PD diagram with ``unknots`` free loops."""
    text = _load_text(arg).strip()
    if not text.startswith("BR"):
        return parse_pd(text, unknots)
    if unknots is not None:
        raise DiagramError("--unknots applies to PD input only")
    return parse_braid(text)


def _emit_matrix(args, mat: list[list[int]], labels=None):
    if args.machine:
        for i, row in enumerate(mat):
            key = labels[i] if labels else i
            print("lk.%s=%s" % (key, ",".join(str(v) for v in row)))
    else:
        if labels:
            print("components: %s" % " ".join(str(x) for x in labels))
        width = max((len(str(v)) for row in mat for v in row), default=1)
        for row in mat:
            print(" ".join(str(v).rjust(width) for v in row))


def _emit_poly(args, p):
    if args.machine:
        print("poly=%s" % render_poly(p))
        print("ord_v=%d" % p.ord_v)
    else:
        print("P = %s" % render_poly(p))
        print("ord_v = %d" % p.ord_v)


def _solo_row(args, search_budget: int):
    """The input word and its row in a one-record ledger."""
    b = parse_braid(_load_text(args.input).strip())
    ledger = apply_rules([LinkRecord("input", b)], skein_budget=args.skein_budget, search_budget=search_budget)
    return b, ledger.rows["input"]


def cmd_homfly(args) -> int:
    x = _load_input(args.input, args.unknots)
    _emit_poly(args, (homfly_braid if isinstance(x, BraidWord) else homfly)(x, args.skein_budget))
    return 0


def cmd_lk(args) -> int:
    x = _load_input(args.input, args.unknots)
    _emit_matrix(args, linking_matrix(from_braid(x) if isinstance(x, BraidWord) else x))
    return 0


def cmd_chi(args) -> int:
    b, row = _solo_row(args, args.search_budget)
    (slo, shi), (mlo, mhi) = row.chi.chi_s, row.chi.chi_s_minus
    if args.machine:
        print("chi_s.lo=%d" % slo)
        print("chi_s.hi=%d" % shi)
        print("chi_s_minus.lo=%d" % mlo)
        print("chi_s_minus.hi=%d" % mhi)
        for i, (move, word) in enumerate(row.search.witness):
            print("witness.%d=%s %s" % (i, move, render_braid(word)))
        print("search.truncated=%s" % ("yes" if row.search.truncated else "no"))
    else:
        print("chi_s in [%d, %d]" % (slo, shi))
        print("chi_s^- in [%d, %d]" % (mlo, mhi))
        for label, cmp_, table in (("chi_s", ">=", row.s_lo), ("chi_s", "<=", row.s_hi),
                                   ("chi_s^-", ">=", row.m_lo), ("chi_s^-", "<=", row.m_hi)):
            for tags, (v, why) in sorted(table.data.items(), key=lambda t: sorted(t[0])):
                print("  %s %s %d  (%s)" % (label, cmp_, v, why))
        if row.search.witness:
            print("witness path:")
            print("  start %s" % render_braid(b))
            for move, word in row.search.witness:
                print("  %s -> %s" % (move, render_braid(word)))
    # a truncated search whose score reached the component count (the upper
    # end of chi_s^- in a one-record ledger) is still tight
    if row.search.truncated and row.search.score < mhi:
        # every node costs one unit unless the freely reduced word is longer
        longest = len(reduce_word(b))
        if longest <= SEARCH_UNIT_LETTERS:
            spent = "%d nodes ran out after %d explored" % (args.search_budget, row.search.explored)
        else:
            spent = "%d units ran out after %d nodes of up to %d letters explored (ceil(l/%d) units a node)" % (
                args.search_budget, row.search.explored, longest, SEARCH_UNIT_LETTERS)
        print(
            "warning: search budget of %s, at chi_s^- >= %d (ceiling %d); lower bound may be slack"
            % (spent, row.search.score, mhi),
            file=sys.stderr,
        )
    return 0


def cmd_qp_verify(args) -> int:
    """Certificate file: a ``braid BR[...]`` line and a ``factors ...`` line.

    Errors name the file line at fault, as ``parse_kb`` does.
    """
    text = _load_text(args.input)
    found = {}  # key -> (line number, rest of the line)
    for lineno, (key, *rest) in line_words(text):
        if key not in ("braid", "factors"):
            raise ClassifyError("certificate line %d: unknown key %r" % (lineno, key))
        if key in found:
            raise ClassifyError("certificate line %d: %s given twice" % (lineno, key))
        found[key] = lineno, " ".join(rest)
    for key in ("braid", "factors"):
        if key not in found:
            raise ClassifyError("certificate ends at line %d without a %s line" % (len(text.splitlines()), key)
                                if text else "certificate is empty")
    lineno, rest = found["braid"]
    try:
        braid = parse_braid(rest)
        lineno, rest = found["factors"]
        fac = parse_certificate(braid.strands, rest)
    except ValueError as e:
        raise ClassifyError("certificate line %d: %s" % (lineno, e)) from None
    ok = certificate_holds(braid, fac)
    chi = qp_chi(fac)
    if args.machine:
        print("verified=%s" % ("yes" if ok else "no"))
        print("chi=%d" % chi)
    elif ok:
        print("certificate verified: %d factors on %d strands, characteristic %d"
              % (len(fac.factors), braid.strands, chi))
    else:
        print("certificate mismatch: factors do not multiply to the declared word")
    return 0 if ok else 3


def cmd_qp_obstruct(args) -> int:
    # chi_s.hi of a lone record comes from the signature, the disk census and
    # the component count; the chi^- search only raises lower bounds, so
    # budget 0 (no node explored) prints the same
    _, row = _solo_row(args, 0)
    hi = row.chi.chi_s[1]
    ob = fwm_obstruction(row.poly, hi)
    verdict = "refuted" if ob["refuted"] else "consistent"
    if args.machine:
        print("ord_v=%d" % ob["ord_v"])
        print("chi_s.hi=%d" % hi)
        print("required_at_least=%d" % ob["required_at_least"])
        print("verdict=%s" % verdict)
    else:
        print("ord_v = %d, quasipositivity needs >= %d (from chi_s <= %d)"
              % (ob["ord_v"], ob["required_at_least"], hi))
        print("verdict: %s" % verdict)
    return 0


def cmd_ovals(args) -> int:
    forest = parse_ovals(_load_text(args.file))
    if args.stage == "realize":
        ok, bad = realizable(forest)
        if args.machine:
            print("realizable=%s" % ("yes" if ok else "no"))
            if bad:
                print("violated=%s" % ",".join(str(i) for i in bad))
        elif ok:
            print("realizable")
        else:
            print("not realizable: winding balance fails at ovals %s"
                  % ", ".join(str(i) for i in bad))
        return 0
    if args.stage == "cable":
        for i, op in enumerate(cabling_program(forest)):
            print("op.%d=%s" % (i, op) if args.machine else str(op))
        return 0
    if args.stage == "splice":
        sd = simplify_splice(splice_diagram(forest))
        labels, mat = linking_from_splice(sd)
        if args.machine:
            for i, line in enumerate(render_splice(sd).splitlines()):
                print("edge.%d=%s" % (i, line))
        else:
            print(render_splice(sd))
        _emit_matrix(args, mat, labels)
        return 0
    from .embed import linking_by_id, oval_link_pd, render_svg
    diag, ids = proj = oval_link_pd(forest, args.orientation, args.seed, args.samples_scale)
    labels, mat = linking_by_id(diag, ids)
    p = homfly(diag, args.skein_budget)
    if args.svg:  # before any report line, so that a failed write prints none
        with open(args.svg, "w") as fh:
            fh.write(render_svg(proj))
        print("svg written to %s" % args.svg, file=sys.stderr)
    if args.machine:
        print("pd=%s" % render_pd(diag))
        print("components=%s" % ",".join(str(i) for i in ids))
    else:
        print(render_pd(diag))
        print("component order: %s" % " ".join(str(i) for i in ids))
    _emit_matrix(args, mat, labels)
    _emit_poly(args, p)
    return 0


def cmd_classify(args) -> int:
    records = parse_kb(_load_text(args.kb))
    ledger = apply_rules(records, skein_budget=args.skein_budget, search_budget=args.search_budget)
    print(describe_ledger(records, ledger, machine=args.machine))
    return 0


def cmd_table1(args) -> int:
    records = parse_kb(_load_text(args.kb))
    ledger = apply_rules(records, skein_budget=args.skein_budget, search_budget=args.search_budget)
    audit = axiom_audit(records, ledger)
    text, mismatches = table1_report(records, ledger, audit, machine=args.machine)
    print(text)
    return 3 if mismatches else 0


def _count(text: str) -> int:
    """argparse type of a count, budget or seed: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError("expected an integer >= 0, got %r" % text)
    return value


def _option(flag: str, **kw) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(flag, **kw)
    return parent


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    machine = _option("--machine", action="store_true", help="key=value output")
    skein = _option("--skein-budget", type=_count, default=DEFAULT_SKEIN_BUDGET, dest="skein_budget",
                    help="crossings per expanded skein node, or Hecke coefficients written on braids "
                         "of up to %d strands" % HECKE_MAX_STRANDS)
    search = _option("--search-budget", type=_count, default=DEFAULT_SEARCH_BUDGET, dest="search_budget",
                     help="work cap for the chi search: a node of l letters costs ceil(l/%d) units"
                          % SEARCH_UNIT_LETTERS)
    seed = _option("--seed", type=_count, default=0, help="projection chart seed")

    ap = argparse.ArgumentParser(prog="cbound", description="link invariants and boundary classification")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homfly", parents=[machine, skein], help="skein polynomial of a braid closure or PD code")
    p.add_argument("input", help="BR[...] or PD[...] literal, or a file holding one")
    p.add_argument("--unknots", type=_count, default=None, help="free loop count for crossingless PD input")
    p.set_defaults(func=cmd_homfly)

    p = sub.add_parser("lk", parents=[machine], help="linking matrix")
    p.add_argument("input")
    p.add_argument("--unknots", type=_count, default=None)
    p.set_defaults(func=cmd_lk)

    p = sub.add_parser("chi", parents=[machine, skein, search], help="two-sided slice characteristic bounds")
    p.add_argument("input", help="BR[...] literal or file")
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("qp-verify", parents=[machine], help="check a quasipositive factorization file")
    p.add_argument("input")
    p.set_defaults(func=cmd_qp_verify)

    p = sub.add_parser("qp-obstruct", parents=[machine, skein], help="polynomial order obstruction")
    p.add_argument("input")
    p.set_defaults(func=cmd_qp_obstruct)

    p = sub.add_parser("ovals", help="oval forest pipeline")
    p.set_defaults(func=cmd_ovals)
    stages = p.add_subparsers(dest="stage", required=True)
    for stage in ("realize", "cable", "splice"):
        stages.add_parser(stage, parents=[machine]).add_argument("file")
    p = stages.add_parser("embed", parents=[machine, skein, seed])
    p.add_argument("file")
    p.add_argument("--orientation", choices=["ccw", "induced"], default="ccw")
    p.add_argument("--samples-scale", type=int, default=1, dest="samples_scale")
    p.add_argument("--svg", default=None, metavar="OUT.SVG")

    p = sub.add_parser("classify", parents=[machine, skein, search], help="run the rule engine on a knowledge base")
    p.add_argument("kb")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("table1", parents=[machine, skein, search], help="reproduce the classification table")
    p.add_argument("kb")
    p.set_defaults(func=cmd_table1)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 0 after --help and 2 on a usage error
        return 1 if e.code else 0
    try:
        return args.func(args)
    except BudgetExceeded as e:
        print("budget exceeded: %s" % e, file=sys.stderr)
        return 2
    except (ParseError, ClassifyError, OvalError, BraidError, DiagramError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
