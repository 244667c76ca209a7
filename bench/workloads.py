"""Inputs, calls and checks of the three workloads.

Each pass draws its inputs from ``random.Random("<workload>:<seed>:<pass>")``
with generators owned by the benchmark, so an edit to the library cannot
change what is measured.  Items run one after another in one thread (a
closed loop with one caller) through ``cbound.cli.main(argv)`` or the
public module functions; checks run after the timed loop.

- ``table1``: the headline command ``cbound table1 fixtures/table1.kb``.
  Loads the rule engine, the chi search, the skein and the Seifert algebra;
  bypasses embed and splice.
- ``forests``: splice-diagram linking vs. the numeric embedding, on random
  realizable forests at samples_scale 1 and the shipped ``fixtures/*.ovals``
  at samples_scale 4.  Loads the crossing scan at two sampling densities;
  bypasses the skein, the chi search and the rule engine.
- ``braids``: ``cbound homfly`` on fixed and random families and
  ``cbound chi`` under a reduced search budget.  Loads the skein and the
  search with heavy-tailed calls; bypasses embed and splice.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass

import reference

WORKLOADS = ("table1", "forests", "braids")

# Budgets at which a share of the random calls stops early at the commit
# that defined the benchmark: a better search or skein engine decides more
# of them.  They also cap the cost of a single call, which keeps the time of
# a pass from swinging with the draw of a few very expensive words.
CHI_SEARCH_BUDGET = 2000
SKEIN_BUDGET = 4000

# Items per pass: at least 100 in a pass of ``forests`` and ``braids``, so
# that a pass has ten items beyond its 90th percentile.  ``tiny`` is for
# the smoke tests.
SIZES = {
    "full": {"forests": 97, "homfly_random": 12, "chi3": 20, "chi4": 20, "positive": 3,
             "torus2": 12, "torus3": 6, "unknot": 11},
    "tiny": {"forests": 2, "homfly_random": 1, "chi3": 1, "chi4": 1, "positive": 1,
             "torus2": 3, "torus3": 2, "unknot": 3},
}

@dataclass
class Item:
    """One call: ``kind`` picks the runner and the check, ``args`` is the
    argv of a CLI call or the (forest, chart seed, samples_scale) of an
    embedding, ``ref`` is what the check compares against and ``text`` is
    the input in canonical text, which goes into the pass digest."""

    kind: str
    args: tuple
    ref: object
    text: str


def braid_text(strands: int, letters) -> str:
    return "BR[%d,{%s}]" % (strands, ",".join(str(x) for x in letters))


def random_word(rng: random.Random, strands: int, length: int, positive: bool = False) -> tuple[int, ...]:
    """Freely reduced word of the given length on ``strands`` strands."""
    word: list[int] = []
    while len(word) < length:
        x = rng.randint(1, strands - 1)
        if not positive and rng.random() < 0.5:
            x = -x
        if word and word[-1] == -x:
            continue
        word.append(x)
    return tuple(word)


def random_forest(rng: random.Random, n: int) -> list[tuple[int, int, int, bool]]:
    """A realizable forest of exactly ``n`` ovals as (id, parent, winding,
    fiber) rows.  Fibers are leaves with winding +-1; an oval at odd depth
    carries the sum of its children's windings (the balance condition);
    every other winding is free.  Forests with a winding beyond +-3 are
    redrawn, so every oval is sampled at the same density."""
    while True:
        parent, fiber = [0] * (n + 1), [False] * (n + 1)
        for ident in range(1, n + 1):
            hosts = [h for h in range(1, ident) if not fiber[h]]
            if hosts and rng.random() >= 0.25:
                parent[ident] = rng.choice(hosts)
            fiber[ident] = parent[ident] != 0 and rng.random() < 0.25
        depth = [0] * (n + 1)
        for ident in range(1, n + 1):
            depth[ident] = depth[parent[ident]] + 1 if parent[ident] else 0
        winding = [0] * (n + 1)
        for ident in sorted(range(1, n + 1), key=lambda i: -depth[i]):
            if fiber[ident]:
                winding[ident] = rng.choice((-1, 1))
            elif depth[ident] % 2:
                winding[ident] = sum(winding[c] for c in range(1, n + 1) if parent[c] == ident)
            else:
                winding[ident] = rng.randint(-3, 3)
        if all(abs(w) <= 3 for w in winding):
            return [(i, parent[i], winding[i], fiber[i]) for i in range(1, n + 1)]


def make_items(workload: str, seed: int, pass_index: int, fixtures: dict, api, size: str = "full") -> list[Item]:
    rng = random.Random("%s:%d:%d" % (workload, seed, pass_index))
    counts = SIZES[size]
    if workload == "table1":
        return [Item("table1", ("table1", fixtures["kb_path"]), fixtures["table1_lines"], fixtures["kb_text"])]
    if workload == "forests":
        return _forest_items(rng, counts, fixtures, api)
    if workload == "braids":
        return _braid_items(rng, counts, fixtures)
    raise ValueError("unknown workload %r" % workload)


def _forest_items(rng, counts, fixtures, api) -> list[Item]:
    items, seen = [], set()
    for k in range(counts["forests"]):
        rows = random_forest(rng, 2 + k % 5)
        while tuple(rows) in seen:
            rows = random_forest(rng, 2 + k % 5)
        seen.add(tuple(rows))
        forest = api.splice.OvalForest([api.splice.Oval(i, p, w, fiber=f) for i, p, w, f in rows])
        chart = rng.randrange(1 << 16)
        items.append(Item("forest", (forest, chart, 1), [i for i, _, _, _ in rows],
                          "%d %r" % (chart, rows)))
    for name, forest in fixtures["ovals"]:
        chart = rng.randrange(1 << 16)
        items.append(Item("forest", (forest, chart, 4), sorted(o.ident for o in forest.ovals),
                          "%d %s" % (chart, name)))
    return items


def _braid_items(rng, counts, fixtures) -> list[Item]:
    items = []

    def homfly(strands, letters, kind, ref=None, budget=()):
        text = braid_text(strands, letters)
        items.append(Item(kind, ("homfly", text, "--machine") + budget, ref, text))
        return len(items) - 1

    for vec in fixtures["golden"]:
        strands, letters = reference.parse_braid_text(vec["braid"])
        homfly(strands, letters, "homfly_golden", vec["poly"])
    for n in range(2, 2 + counts["torus2"]):
        first = homfly(2, (1,) * n, "homfly_torus2", n)
        homfly(2, (-1,) * n, "homfly_mirror", first)
    for n in range(2, 2 + counts["torus3"]):
        first = homfly(3, (1, 2) * n, "homfly", None)
        homfly(3, (-1, -2) * n, "homfly_mirror", first)
    for n in range(2, 2 + counts["unknot"]):
        homfly(n, tuple(range(1, n)), "homfly_unknot")
    seen = set()

    def fresh(strands, lo, hi, positive=False):
        while True:
            word = random_word(rng, strands, rng.randint(lo, hi), positive)
            if (strands, word) not in seen:
                seen.add((strands, word))
                return word

    for _ in range(counts["homfly_random"]):
        homfly(4, fresh(4, 16, 20), "homfly", budget=("--skein-budget", str(SKEIN_BUDGET)))
    chi_words = [(3, fresh(3, 7, 12)) for _ in range(counts["chi3"])]
    chi_words += [(4, fresh(4, 7, 12)) for _ in range(counts["chi4"])]
    for k in range(counts["positive"]):
        strands = 3 + k % 2
        chi_words.append((strands, fresh(strands, 10, 14, positive=True)))
    for strands, word in chi_words:
        text = braid_text(strands, word)
        items.append(Item("chi", ("chi", text, "--machine", "--search-budget", str(CHI_SEARCH_BUDGET)),
                          (strands, word), text))
    return items


def digest(items: list[Item]) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(("%s|%s\n" % (item.kind, item.text)).encode())
    return h.hexdigest()[:16]


# -- running ---------------------------------------------------------------------


def run_item(api, item: Item):
    if item.kind == "forest":
        forest, chart, scale = item.args
        sd = api.splice.simplify_splice(api.splice.splice_diagram(forest))
        splice_lk = api.splice.linking_from_splice(sd)
        embed_lk = api.embed.oval_link_lk(forest, seed=chart, samples_scale=scale)
        return splice_lk, embed_lk
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = api.cli.main(list(item.args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


# -- checking --------------------------------------------------------------------


def fields_of(out: str) -> dict[str, str]:
    """The ``key=value`` lines of ``--machine`` output."""
    return dict(line.split("=", 1) for line in out.splitlines() if "=" in line)


def check(item: Item, output, outputs: list) -> tuple[str | None, bool]:
    """(failure message or None, decided).  ``outputs`` holds every output
    of the pass, for checks that pair two items."""
    if item.kind == "forest":
        (ls, ms), (le, me) = output
        if ls != item.ref or le != item.ref:
            return "component labels %s / %s, want %s" % (ls, le, item.ref), False
        if ms != me:
            return "splice linking %s != embedding linking %s" % (ms, me), False
        return None, True
    code, out, err = output
    if code == 2:
        return None, False  # budget exceeded: undecided, not wrong
    if code in (1, 3):
        return "exit %d on a valid input: %s" % (code, (err or out).strip()[-200:]), False
    if code != 0:
        return "exit code %r" % (code,), False
    if item.kind == "table1":
        return _check_table1(item.ref, out), True
    fields = fields_of(out)
    if item.kind == "chi":
        return _check_chi(item.ref, fields)
    return _check_homfly(item, fields, outputs), True


def _check_table1(want_lines: list[str], out: str) -> str | None:
    lines = out.splitlines()
    if lines[: len(want_lines)] != want_lines:
        bad = next(i for i, w in enumerate(want_lines) if i >= len(lines) or lines[i] != w)
        return "table1 row %d reads %r" % (bad, lines[bad] if bad < len(lines) else None)
    tail = "%d rows, 0 mismatches" % len(want_lines)
    if not lines or lines[-1] != tail:
        return "table1 ends with %r, want %r" % (lines[-1] if lines else None, tail)
    return None


def _check_homfly(item: Item, fields: dict, outputs: list) -> str | None:
    strands, letters = reference.parse_braid_text(item.text)
    try:
        terms = reference.parse_terms(fields["poly"])
    except (KeyError, ValueError) as exc:
        return "unreadable homfly output: %s" % exc
    why = reference.closure_degree_error(strands, letters, terms)
    if why:
        return why
    if item.kind == "homfly_golden":
        for v, z in reference.POINTS:
            if reference.value(terms, v, z) != reference.evaluate_expression(item.ref, v, z):
                return "polynomial differs from the golden vector"
    elif item.kind == "homfly_torus2":
        got = [reference.value(terms, v, z) for v, z in reference.POINTS]
        if got != reference.torus2_values(item.ref):
            return "polynomial differs from the T(2,%d) skein recurrence" % item.ref
    elif item.kind == "homfly_unknot":
        if terms != {(0, 0): 1}:
            return "unknot polynomial is %s" % fields["poly"]
    elif item.kind == "homfly_mirror":
        first = outputs[item.ref]
        if isinstance(first, tuple) and first[0] == 0:
            if terms != reference.mirror_terms(reference.parse_terms(fields_of(first[1])["poly"])):
                return "mirror rule fails against item %d" % item.ref
    return None


def _check_chi(ref, fields: dict) -> tuple[str | None, bool]:
    strands, word = ref
    try:
        slo, shi = int(fields["chi_s.lo"]), int(fields["chi_s.hi"])
        mlo, mhi = int(fields["chi_s_minus.lo"]), int(fields["chi_s_minus.hi"])
        truncated = {"yes": True, "no": False}[fields["search.truncated"]]
    except (KeyError, ValueError) as exc:
        return "unreadable chi output: %r" % (exc,), False
    if slo > shi or mlo > mhi:
        return "empty interval chi_s [%d, %d], chi_s^- [%d, %d]" % (slo, shi, mlo, mhi), False
    if all(x > 0 for x in word) and min(slo, mlo) < strands - len(word):
        return "positive word realizes %d, lower ends %d/%d" % (strands - len(word), slo, mlo), False
    if truncated:
        return None, False
    steps = sorted((int(k.split(".")[1]), v) for k, v in fields.items() if k.startswith("witness."))
    if steps:
        last = steps[-1][1].split(" ", 1)[1]
        ws, wl = reference.parse_braid_text(last)
    else:
        ws, wl = strands, word
    if not all(x > 0 for x in wl):
        return "last witness word %s is not positive" % braid_text(ws, wl), False
    if ws - len(wl) != mlo:
        return "witness realizes %d but chi_s^- lower end is %d" % (ws - len(wl), mlo), False
    return None, True
